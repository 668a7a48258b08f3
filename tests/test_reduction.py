import numpy as np
import pytest

import roughmor.gramians
import roughmor.reduction
from roughmor import (ArgumentError, BilinearRoughSystem, DriftNonlinearity,
                      EmptyBasisError, Heat1dConfig, PreconditionError,
                      ProjectionBasis, balanced_rank_sweep, build_heat1d,
                      kernel_preservation_residual,
                      observability_cut, project_system, relative_L2_error,
                      rough_rk_simulate, sample_fbm_path,
                      solve_algebraic_gramian, subspace_containment_residual,
                      truncate_psd_spectrum, two_stage_reduce)
from roughmor._fixtures import decoupled_observability_system, \
    mild_stable_system


class TestTruncation:
    def test_three_scale_spectrum(self):
        G = np.diag([1.0, 1e-20, 0.0])
        basis = truncate_psd_spectrum(G, 1e-12)
        assert basis.r == 1
        np.testing.assert_allclose(np.abs(basis.V[:, 0]), [1, 0, 0],
                                   atol=1e-14)
        assert basis.full_spectrum[basis.r:].max() <= 1e-12

    def test_identity_keeps_everything(self):
        basis = truncate_psd_spectrum(np.eye(4), 1e-12)
        assert basis.r == 4
        np.testing.assert_allclose(basis.V @ basis.V.T, np.eye(4),
                                   atol=1e-12)
        # nothing is dropped: the spectrum holds only retained eigenvalues
        assert basis.full_spectrum.size == basis.r

    def test_strictly_above_threshold(self):
        # eigenvalue exactly at the cut is discarded, not kept
        G = np.diag([1.0, 1e-12])
        basis = truncate_psd_spectrum(G, 1e-12)
        assert basis.r == 1

    def test_empty_basis(self):
        with pytest.raises(EmptyBasisError):
            truncate_psd_spectrum(np.zeros((3, 3)), 1e-12)

    def test_descending_eigenvalues(self):
        sys_ = mild_stable_system(6, 1, seed=17)
        P = solve_algebraic_gramian(sys_, "reach")
        basis = truncate_psd_spectrum(P.matrix, 1e-10)
        retained = basis.full_spectrum[:basis.r]
        assert np.all(np.diff(retained) <= 0)
        assert retained[-1] > 1e-10 * retained[0]

    def test_full_spectrum_recorded(self):
        G = np.diag([3.0, 2.0, 1.0])
        basis = truncate_psd_spectrum(G, 1e-12)
        np.testing.assert_allclose(basis.full_spectrum, [3, 2, 1],
                                   atol=1e-14)


class TestProjection:
    def test_identity_projection(self):
        sys_ = mild_stable_system(3, 2, seed=19)
        red = project_system(sys_, np.eye(3))
        np.testing.assert_array_equal(red.system.A, sys_.A)
        np.testing.assert_array_equal(red.system.C, sys_.C)
        np.testing.assert_array_equal(red.system.x0, sys_.x0)
        for Ni, Mi in zip(red.system.N, sys_.N):
            np.testing.assert_array_equal(Ni, Mi)

    def test_coordinate_slice(self):
        sys_ = mild_stable_system(2, 1, seed=23)
        red = project_system(sys_, np.eye(2)[:, :1])
        assert red.system.A.shape == (1, 1)
        assert red.system.A[0, 0] == sys_.A[0, 0]
        assert red.system.C[0, 0] == sys_.C[0, 0]

    def test_symmetric_drift_stays_symmetric(self):
        # V^T A V of the symmetric heat drift is stored as its symmetric
        # part, so the reduced model's Lyapunov solves take the eigh route;
        # a non-symmetric drift is projected as it is
        heat = build_heat1d(Heat1dConfig(20))
        V, _ = np.linalg.qr(np.random.default_rng(4).standard_normal((20, 6)))
        A = V.T @ heat.A @ V
        assert not np.array_equal(A, A.T)
        red = project_system(heat, V).system
        np.testing.assert_array_equal(red.A, red.A.T)
        np.testing.assert_array_equal(red.A, (A + A.T) / 2)
        sys_ = mild_stable_system(20, 1, seed=19)
        np.testing.assert_array_equal(project_system(sys_, V).system.A,
                                      V.T @ sys_.A @ V)

    def test_rejects_non_orthonormal_matrix(self):
        sys_ = mild_stable_system(2, 1, seed=23)
        with pytest.raises(ArgumentError, match="orthonormal"):
            project_system(sys_, 2.0 * np.eye(2))

    def test_basis_validation(self):
        with pytest.raises(ArgumentError, match="orthonormal"):
            ProjectionBasis(V=np.ones((2, 1)), full_spectrum=[2.0, 1.0],
                            tol_rel=1e-12)
        # the spectrum must hold at least the r retained eigenvalues
        with pytest.raises(ArgumentError, match="spectrum"):
            ProjectionBasis(V=np.eye(3), full_spectrum=[2.0, 1.0],
                            tol_rel=1e-12)

    def test_lift_shape(self):
        sys_ = mild_stable_system(4, 1, seed=29)
        P = solve_algebraic_gramian(sys_, "reach")
        basis = truncate_psd_spectrum(P.matrix, 1e-8)
        red = project_system(sys_, basis.V)
        states_r = np.ones((7, red.r))
        # reduced states lift back to the full coordinates as x_r @ V^T
        assert (states_r @ red.V.T).shape == (7, 4)


class TestTwoStage:
    def test_exact_on_small_system(self):
        sys_ = mild_stable_system(4, 1, seed=37)
        model, meta = two_stage_reduce(sys_)
        assert meta.orders[0] == 4
        path = sample_fbm_path(0.4, 1, 1.0, 512, seed=5)
        full = rough_rk_simulate(sys_, path)
        red = rough_rk_simulate(model.system, path)
        err = relative_L2_error(full.outputs, red.outputs, full.times)
        assert float(err) <= 1e-10

    def test_composite_basis_orthonormal(self, heat_pipeline):
        model, meta = heat_pipeline
        V = model.V
        assert np.linalg.norm(V.T @ V - np.eye(model.r)) <= 1e-10

    def test_heat_orders(self, heat_pipeline):
        model, meta = heat_pipeline
        assert meta.orders == (100, 35, 33)

    def test_two_projections(self, heat100, monkeypatch):
        # stage 1 and the composite model are projected from the full
        # system; stage 2 only cuts Q of the stage-1 model
        shapes = []
        project = roughmor.reduction.project_system

        def counting(sys_, V):
            shapes.append(V.shape)
            return project(sys_, V)

        monkeypatch.setattr(roughmor.reduction, "project_system", counting)
        two_stage_reduce(heat100)
        assert shapes == [(100, 35), (100, 33)]

    def test_heat_order_at_loose_tolerance(self, heat100):
        # the smooth spectrum has no gap: a 1e-12 relative cut keeps 26
        # directions, not 35; the machine-precision cut is the default
        P = solve_algebraic_gramian(heat100, "reach")
        assert truncate_psd_spectrum(P.matrix, 1e-12).r == 26

    def test_metadata_records(self, heat_pipeline):
        model, meta = heat_pipeline
        records = meta.records()
        assert records[0] == ("full", 100, None)
        assert records[1][0] == "P_stage" and records[1][1] == 35
        assert records[2][0] == "Q_stage" and records[2][1] == 33

    def test_nonlinear_skips_observability_stage(self):
        base = mild_stable_system(4, 1, seed=41)
        nl = DriftNonlinearity(g=lambda x: -float(x @ x))
        sys_ = BilinearRoughSystem(A=base.A, N=base.N, K=base.K, C=base.C,
                                   x0=base.x0, drift_nonlinearity=nl)
        model, meta = two_stage_reduce(sys_)
        assert meta.obs_stage_skipped
        assert meta.notice is not None
        assert meta.orders == (4, model.r)

    def test_heat_nonlinear_stage1_is_exact(self, heat100):
        # a dissipative drift f(x) = x g(x), g = -|x|^2 / n, leaves the
        # reachability stage exact: 100 -> 35 states and a reduced output
        # that follows the full one to round-off (measured 7.8e-14)
        n = heat100.n
        nl = DriftNonlinearity(g=lambda x: -float(x @ x) / n)
        sys_ = BilinearRoughSystem(A=heat100.A, N=heat100.N, K=heat100.K,
                                   C=heat100.C, x0=heat100.x0,
                                   drift_nonlinearity=nl)
        model, meta = two_stage_reduce(sys_)
        assert meta.orders == (100, 35)
        assert meta.obs_stage_skipped and meta.notice is not None
        path = sample_fbm_path(0.4, 2, 0.5, 512, 2023)
        full = rough_rk_simulate(sys_, path)
        rom = rough_rk_simulate(model.system, path)
        # the drift acts: the factor exp(psi) has pulled the states in
        linear = rough_rk_simulate(heat100, path)
        assert (np.linalg.norm(full.states[-1])
                < 0.99 * np.linalg.norm(linear.states[-1]))
        err = relative_L2_error(full.outputs, rom.outputs, full.times)
        assert not err.is_absolute and float(err) <= 1e-10

    def test_convected_heat_above_64_states_is_exact(self):
        # a central-difference convection 5 (x_{j+1} - x_{j-1}) / (2 h)
        # makes the drift non-symmetric, so both Gramian solves take the
        # Schur route at orders above 64; the orders sit at round-off and
        # are not pinned (measured (80, 33, 32), error 4.6e-14)
        heat = build_heat1d(Heat1dConfig(80))
        h = 1.0 / (heat.n + 1)
        D = (np.eye(heat.n, k=1) - np.eye(heat.n, k=-1)) / (2 * h)
        sys_ = BilinearRoughSystem(A=heat.A + 5 * D, N=heat.N, K=heat.K,
                                   C=heat.C, x0=heat.x0)
        assert not np.array_equal(sys_.A, sys_.A.T)
        model, meta = two_stage_reduce(sys_)
        path = sample_fbm_path(0.4, 2, 0.5, 512, 2023)
        full = rough_rk_simulate(sys_, path)
        rom = rough_rk_simulate(model.system, path)
        err = relative_L2_error(full.outputs, rom.outputs, full.times)
        assert not err.is_absolute and float(err) <= 1e-10


class TestObservabilityReduction:
    def test_full_observation_no_reduction(self):
        sys_ = mild_stable_system(3, 1, seed=43)
        sys_full_C = BilinearRoughSystem(A=sys_.A, N=sys_.N, K=sys_.K,
                                         C=np.eye(3), x0=sys_.x0)
        Q = solve_algebraic_gramian(sys_full_C, "obs")
        assert observability_cut(sys_full_C, Q, 1e-12).r == 3

    def test_no_noise_channels(self):
        # d = 0 leaves K empty, which counts as invertible: the cut and the
        # two-stage pipeline run instead of failing on the missing spectrum
        base = mild_stable_system(3, 1, seed=43)
        sys_ = BilinearRoughSystem(A=base.A, N=(), K=np.zeros((0, 0)),
                                   C=base.C, x0=base.x0)
        Q = solve_algebraic_gramian(sys_, "obs")
        assert observability_cut(sys_, Q, 1e-12).r >= 1
        model, meta = two_stage_reduce(sys_)
        assert not meta.obs_stage_skipped
        assert model.system.d == 0

    def test_decoupled_block_removed(self):
        sys_ = decoupled_observability_system()
        Q = solve_algebraic_gramian(sys_, "obs")
        cut = observability_cut(sys_, Q, 1e-12)
        assert cut.r == 2
        # the removed direction is the third coordinate
        e3 = np.array([0.0, 0.0, 1.0])
        assert np.linalg.norm(cut.V.T @ e3) <= 1e-10

    def test_rejects_nonlinearity(self):
        base = mild_stable_system(3, 1, seed=47)
        nl = DriftNonlinearity(g=lambda x: -float(x @ x))
        sys_ = BilinearRoughSystem(A=base.A, N=base.N, K=base.K, C=base.C,
                                   x0=base.x0, drift_nonlinearity=nl)
        Q = solve_algebraic_gramian(base, "obs")
        with pytest.raises(PreconditionError):
            observability_cut(sys_, Q, 1e-12)

    def test_rejects_reachability_result(self):
        sys_ = mild_stable_system(3, 1, seed=53)
        P = solve_algebraic_gramian(sys_, "reach")
        with pytest.raises(ArgumentError):
            observability_cut(sys_, P, 1e-12)

    def test_two_stage_compresses_diagonal_system(self):
        # x0 touches two coordinates, C reads one: both Gramians are
        # rank-deficient and the composite order is at most 2
        A = np.diag([-1.0, -2.0, -3.0])
        N1 = np.diag([0.2, 0.1, 0.3])
        sys_ = BilinearRoughSystem(A=A, N=(N1,), K=np.eye(1),
                                   C=np.array([[1.0, 0.0, 0.0]]),
                                   x0=np.array([1.0, 1.0, 0.0]))
        model, meta = two_stage_reduce(sys_)
        assert model.r <= 2


class TestKernelPreservation:
    def test_zero_vector(self):
        sys_ = decoupled_observability_system()
        Q = solve_algebraic_gramian(sys_, "obs")
        assert kernel_preservation_residual(sys_, Q.matrix,
                                            np.zeros(3)) == 0.0

    def test_decoupled_kernel_direction(self):
        sys_ = decoupled_observability_system()
        Q = solve_algebraic_gramian(sys_, "obs")
        z = np.array([0.0, 0.0, 1.0])
        assert kernel_preservation_residual(sys_, Q.matrix, z) <= 1e-10

    def test_scale_free(self):
        # a direction off the kernel: every residual and the scale's ||z||
        # grow by 2^20 under z -> 2^20 z
        sys_ = decoupled_observability_system()
        Q = solve_algebraic_gramian(sys_, "obs")
        z = np.array([0.3, -0.2, 1.0])
        small = kernel_preservation_residual(sys_, Q.matrix, z)
        big = kernel_preservation_residual(sys_, Q.matrix, 2.0 ** 20 * z)
        assert small > 0.0
        assert abs(big - small) <= 1e-12 * small
        assert type(big) is float


class TestSubspaceContainment:
    class _Traj:
        def __init__(self, states):
            self.states = states

    def test_identity_basis(self):
        basis = ProjectionBasis(V=np.eye(3),
                                full_spectrum=np.array([1.0, 1.0, 1.0]),
                                tol_rel=1e-12)
        traj = self._Traj(np.random.default_rng(0).standard_normal((10, 3)))
        assert subspace_containment_residual(basis, traj) == 0.0
        # a trajectory that never leaves 0 has nothing outside the span
        assert subspace_containment_residual(basis, np.zeros((4, 3))) == 0.0

    def test_constant_state_in_span(self):
        V = np.eye(3)[:, :2]
        basis = ProjectionBasis(V=V, full_spectrum=np.array([1.0, 0.5]),
                                tol_rel=1e-12)
        traj = self._Traj(np.tile([1.0, -2.0, 0.0], (8, 1)))
        assert subspace_containment_residual(basis, traj) == 0.0

    def test_heat_containment_magnitude(self, heat100, heat_full_sim):
        # full reachability space: what the machine-precision cut discards is
        # excited at the 1e-7 scale on the pinned path (regression guard)
        P = solve_algebraic_gramian(heat100, "reach")
        basis = truncate_psd_spectrum(P.matrix, 1e-16)
        res = subspace_containment_residual(basis, heat_full_sim)
        assert res <= 1e-5


class TestBalancedSweep:
    def test_requested_ranks_and_clamping(self, heat_pipeline):
        model, _ = heat_pipeline
        models = balanced_rank_sweep(model, (50, 5, 33))
        assert list(models) == [5, 33, 50]
        assert models[5].r == 5
        assert models[5].V.shape == (100, 5)
        # a rank at or above the exact order is the exact model itself
        assert models[50].system is model.system
        assert models[33].r == model.r

    def test_bases_orthonormal(self, heat_pipeline):
        model, _ = heat_pipeline
        V = balanced_rank_sweep(model, (31,))[31].V
        assert np.linalg.norm(V.T @ V - np.eye(31)) <= 1e-10

    def test_one_gate_and_two_solves(self, heat_pipeline, monkeypatch):
        # the whole sweep balances the exact model once: one stability
        # check and one solve per Gramian, whatever the ranks
        model, _ = heat_pipeline
        gated, solved = [], []
        gate = roughmor.gramians.is_mean_square_stable
        solve = roughmor.gramians._gmres_gramian

        def counting_gate(sys_):
            gated.append(sys_.n)
            return gate(sys_)

        def counting_solve(op, side, report):
            solved.append(side)
            return solve(op, side, report)

        monkeypatch.setattr(roughmor.gramians, "is_mean_square_stable",
                            counting_gate)
        monkeypatch.setattr(roughmor.gramians, "_gmres_gramian",
                            counting_solve)
        balanced_rank_sweep(model, (5, 10, 20, 30))
        assert gated == [model.r]
        assert solved == ["reach", "obs"]

    def test_nested_bases(self, heat_pipeline):
        # every rank's basis is a prefix of one balancing basis
        model, _ = heat_pipeline
        models = balanced_rank_sweep(model, (5, 12, 20, 31))
        for k, k2 in [(5, 12), (12, 20), (5, 31), (20, 31)]:
            assert np.abs(models[k].V - models[k2].V[:, :k]).max() <= 1e-14

    def test_rejects_nonlinearity(self):
        base = mild_stable_system(4, 1, seed=59)
        nl = DriftNonlinearity(g=lambda x: -float(x @ x))
        sys_ = BilinearRoughSystem(A=base.A, N=base.N, K=base.K, C=base.C,
                                   x0=base.x0, drift_nonlinearity=nl)
        model, _ = two_stage_reduce(sys_)
        with pytest.raises(PreconditionError):
            balanced_rank_sweep(model, (2,))
