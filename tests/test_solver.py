import math
import warnings

import numpy as np
import pytest
import scipy.linalg

import roughmor.solver
from roughmor import (ArgumentError, BilinearRoughSystem, DriftNonlinearity,
                      DriverPath, Heat1dConfig, IntegrationOverflowError,
                      StepFailureError, build_heat1d, pointwise_relative_error,
                      relative_L2_error, rough_rk_simulate, sample_fbm_path,
                      smooth_path_from_function, smooth_quadratic_form_probe,
                      coarsen_path)
from roughmor._fixtures import mild_stable_system, scalar_noise_system

# a correlated covariance, for the checks that K enters exactly once
NON_DIAGONAL_K = np.array([[1.0, 0.6], [0.6, 0.5]])


def drift_only_system(a):
    return BilinearRoughSystem(A=np.array([[a]]), N=(np.zeros((1, 1)),),
                               K=np.eye(1), C=np.eye(1), x0=np.ones(1))


def zero_path(T, M, d=1):
    return DriverPath(T=T, values=np.zeros((M + 1, d)))


class TestTableau:
    def test_crouzeix_values(self):
        g = 0.5 + math.sqrt(3) / 6
        assert abs(roughmor.solver.A11 - g) <= 1e-15
        assert abs(roughmor.solver.A21 + math.sqrt(3) / 3) <= 1e-15
        assert roughmor.solver.B1 == roughmor.solver.B2 == 0.5


class TestDeterministicSteps:
    def test_one_step_matches_stability_function(self, stability_function):
        # z' = -z, one step of size 0.1: the update is exactly R(-0.1)
        sys_ = drift_only_system(-1.0)
        res = rough_rk_simulate(sys_, zero_path(0.1, 1))
        assert abs(res.states[1, 0] - stability_function(-0.1)) <= 1e-12

    def test_many_steps_match_stability_function_power(
            self, stability_function):
        sys_ = drift_only_system(-2.0)
        M = 8
        res = rough_rk_simulate(sys_, zero_path(0.8, M))
        assert abs(res.states[-1, 0] - stability_function(-0.2) ** M) <= 1e-11

    def test_constant_solution_without_forcing(self):
        sys_ = BilinearRoughSystem(A=np.zeros((2, 2)),
                                   N=(np.zeros((2, 2)),), K=np.eye(1),
                                   C=np.eye(2)[:1], x0=np.array([1.0, -2.0]))
        res = rough_rk_simulate(sys_, zero_path(1.0, 16))
        np.testing.assert_array_equal(res.states[-1], sys_.x0)

    def test_third_order_on_smooth_problem(self):
        # the 2-stage Gauss-type DIRK has classical order 3 for z' = az
        sys_ = drift_only_system(-1.0)
        errs = []
        for M in (8, 16, 32):
            res = rough_rk_simulate(sys_, zero_path(1.0, M))
            errs.append(abs(res.states[-1, 0] - math.exp(-1.0)))
        rate = math.log2(errs[0] / errs[2]) / 2.0
        assert 2.7 <= rate <= 3.3

    def test_outputs_are_projected_states(self):
        sys_ = mild_stable_system(3, 1, seed=61)
        path = sample_fbm_path(0.4, 1, 0.5, 64, seed=4)
        res = rough_rk_simulate(sys_, path)
        np.testing.assert_allclose(res.outputs, res.states @ sys_.C.T,
                                   atol=1e-14)

    def test_path_dimension_mismatch(self):
        sys_ = mild_stable_system(3, 2, seed=61)
        path = sample_fbm_path(0.4, 1, 0.5, 64, seed=4)
        with pytest.raises(ArgumentError):
            rough_rk_simulate(sys_, path)


class TestNoiseAndNonlinearity:
    def test_scalar_noise_reproducible(self):
        sys_ = scalar_noise_system(a=-1.0, nu=0.5)
        path = sample_fbm_path(0.45, 1, 1.0, 256, seed=13)
        a = rough_rk_simulate(sys_, path)
        b = rough_rk_simulate(sys_, path)
        assert np.array_equal(a.states, b.states)

    def test_newton_converges_on_cubic_drift(self):
        nl = DriftNonlinearity(g=lambda x: -float(x @ x),
                               grad_g=lambda x: -2.0 * x)
        sys_ = BilinearRoughSystem(A=-np.eye(2), N=(0.1 * np.eye(2),),
                                   K=np.eye(1), C=np.eye(2)[:1],
                                   x0=np.array([1.0, 0.5]),
                                   drift_nonlinearity=nl)
        path = sample_fbm_path(0.45, 1, 1.0, 128, seed=14)
        res = rough_rk_simulate(sys_, path)
        assert res.max_newton_iterations >= 1
        assert np.all(np.isfinite(res.states))

    def test_newton_norms_past_overflow_of_squares(self):
        # at x0 = 1e200 the squared norms overflow; the Newton test must
        # still iterate and give the ratio x(1)/x0 of the x0 = 1e100 run
        nl = DriftNonlinearity(g=lambda x: -abs(x[0]) / (1.0 + abs(x[0])),
                               grad_g=lambda x: -np.sign(x)
                               / (1.0 + np.abs(x)) ** 2)
        ratios = []
        for x0 in (1e100, 1e200):
            sys_ = BilinearRoughSystem(A=-np.eye(1), N=(np.zeros((1, 1)),),
                                       K=np.eye(1), C=np.eye(1),
                                       x0=np.array([x0]),
                                       drift_nonlinearity=nl)
            res = rough_rk_simulate(sys_, zero_path(1.0, 10))
            assert res.max_newton_iterations >= 1
            ratios.append(res.states[-1, 0] / x0)
        assert ratios[1] == pytest.approx(ratios[0], rel=1e-12)

    def test_newton_stops_at_stage_round_off_floor(self):
        # stiff n = 1600 stages, ||S|| <= 6.4e4 and ||Z|| ~ 1e3: the first
        # stage's residual |phi| ||Z|| stalls near 1.3e-9, above
        # NEWTON_TOL ||Z|| but below the floor eps 6.4e4 ||Z|| ~ 1.5e-8
        heat = build_heat1d(Heat1dConfig(1600))
        n = heat.n
        nl = DriftNonlinearity(g=lambda x: -float(x @ x) / n,
                               grad_g=lambda x: -2.0 * x / n)
        sys_ = BilinearRoughSystem(A=heat.A, N=heat.N, K=heat.K, C=heat.C,
                                   x0=30.0 * heat.x0, drift_nonlinearity=nl)
        res = rough_rk_simulate(sys_, sample_fbm_path(0.4, 2, 0.5, 64, 7))
        assert 1 <= res.max_newton_iterations < roughmor.solver.NEWTON_MAX
        assert np.all(np.isfinite(res.states))

    def test_cubic_drift_is_contractive(self):
        # compared to the linear system, -x ||x||^2 only pulls inward
        nl = DriftNonlinearity(g=lambda x: -float(x @ x),
                               grad_g=lambda x: -2.0 * x)
        lin = BilinearRoughSystem(A=-np.eye(2), N=(0.1 * np.eye(2),),
                                  K=np.eye(1), C=np.eye(2)[:1],
                                  x0=np.array([2.0, 1.0]))
        cub = BilinearRoughSystem(A=lin.A, N=lin.N, K=lin.K, C=lin.C,
                                  x0=lin.x0, drift_nonlinearity=nl)
        path = sample_fbm_path(0.45, 1, 1.0, 256, seed=15)
        rl = rough_rk_simulate(lin, path)
        rc = rough_rk_simulate(cub, path)
        assert np.linalg.norm(rc.states[-1]) <= np.linalg.norm(rl.states[-1])

    def test_overflow_raises(self):
        # z = a dt = 0.25 keeps R(z) ~ e^z > 1, so 1e300 blows past float
        # range within ~100 steps and the stage rhs goes non-finite. With
        # g = 0 attached, the Newton route integrates the same states and
        # must report the same step, with no warning and no Newton failure
        zero = DriftNonlinearity(g=lambda x: 0.0, grad_g=np.zeros_like)
        steps = []
        for nl in (None, zero):
            sys_ = BilinearRoughSystem(A=np.array([[100.0]]),
                                       N=(np.zeros((1, 1)),), K=np.eye(1),
                                       C=np.eye(1), x0=np.array([1e300]),
                                       drift_nonlinearity=nl)
            with pytest.raises(IntegrationOverflowError) as err:
                rough_rk_simulate(sys_, zero_path(1.0, 400))
            steps.append(err.value.step)
        assert steps[0] >= 1
        assert steps[1] == steps[0]

    def test_singular_stage_matrix_raises(self):
        # I - a11 dt A = diag(0, 1 + a11 dt): the first step cannot be solved;
        # the caller sees roughmor's error and no warning
        dt = 0.1
        sys_ = BilinearRoughSystem(
            A=np.diag([1.0 / (roughmor.solver.A11 * dt), -1.0]),
            N=(np.zeros((2, 2)),), K=np.eye(1), C=np.eye(2)[:1],
            x0=np.ones(2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(StepFailureError) as err:
                rough_rk_simulate(sys_, zero_path(dt, 1))
        assert err.value.step == 0
        # no advice to refine: on the heat model a finer grid is what makes
        # the stage matrix singular
        assert "refining" not in str(err.value)

    def test_numerically_singular_tridiagonal_stage_matrix_raises(self):
        # I - a11 dt A = tridiag(-0.98, -0.15, 2.01) at n = 120 has condition
        # number 3e16, yet the pivots of its partially pivoted LU stay near
        # 1; those of its transpose expose it
        n, dt = 120, 0.1
        stage_matrix = (np.diag(np.full(n, -0.15))
                        + np.diag(np.full(n - 1, -0.98), -1)
                        + np.diag(np.full(n - 1, 2.01), 1))
        sys_ = BilinearRoughSystem(
            A=(np.eye(n) - stage_matrix) / (roughmor.solver.A11 * dt),
            N=(np.zeros((n, n)),), K=np.eye(1), C=np.eye(n)[:1],
            x0=np.ones(n))
        with pytest.raises(StepFailureError) as err:
            rough_rk_simulate(sys_, zero_path(dt, 1))
        assert err.value.step == 0

    def test_newton_failure_raises(self, monkeypatch):
        # no Newton iteration allowed: the linear guess misses the cubic
        # drift, so the first stage fails with its residual attached
        nl = DriftNonlinearity(g=lambda x: -float(x @ x),
                               grad_g=lambda x: -2.0 * x)
        sys_ = BilinearRoughSystem(A=-np.eye(3), N=(0.2 * np.eye(3),),
                                   K=np.eye(1), C=np.eye(3)[:1],
                                   x0=np.array([1.0, 0.5, -0.5]),
                                   drift_nonlinearity=nl)
        path = sample_fbm_path(0.45, 1, 1.0, 128, seed=14)
        monkeypatch.setattr(roughmor.solver, "NEWTON_MAX", 0)
        with pytest.raises(StepFailureError) as err:
            rough_rk_simulate(sys_, path)
        assert err.value.step == 0
        assert err.value.residual > roughmor.solver.NEWTON_TOL
        assert "Newton did not converge" in str(err.value)

    def test_singular_newton_matrix_raises(self):
        # A = diag(a, -1), a = (1 + a11 dt) / (a11 dt), and g = -1: the
        # stage matrix I - a11 dt A = diag(-a11 dt, 1 + a11 dt) is regular,
        # the first Newton matrix (1 + a11 dt) I - a11 dt A is not
        dt, a11 = 0.1, roughmor.solver.A11
        nl = DriftNonlinearity(g=lambda x: -1.0, grad_g=np.zeros_like)
        sys_ = BilinearRoughSystem(
            A=np.diag([(1.0 + a11 * dt) / (a11 * dt), -1.0]),
            N=(np.zeros((2, 2)),), K=np.eye(1), C=np.eye(2)[:1],
            x0=np.ones(2), drift_nonlinearity=nl)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(StepFailureError) as err:
                rough_rk_simulate(sys_, zero_path(dt, 1))
        assert err.value.step == 0
        assert err.value.residual > 0.0
        assert "Newton Jacobian" in str(err.value)

    def test_singular_second_newton_shift_raises(self):
        # g = -1 with the made-up gradient v = (1 + 2 a11 dt) / (a11 dt x):
        # at the first iterate Z = x0 / S, S = 1 + a11 dt, the slope of
        # phi(h) = h + a11 dt is 1 - v Z / S = -a11 dt, so the second Newton
        # shift is h = S and S - h I is exactly singular: the pivot test
        dt, a11 = 0.1, roughmor.solver.A11
        nl = DriftNonlinearity(
            g=lambda x: -1.0,
            grad_g=lambda x: (1.0 + 2.0 * a11 * dt) / (a11 * dt * x))
        sys_ = drift_only_system(-1.0)
        sys_ = BilinearRoughSystem(A=sys_.A, N=sys_.N, K=sys_.K, C=sys_.C,
                                   x0=sys_.x0, drift_nonlinearity=nl)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(StepFailureError) as err:
                rough_rk_simulate(sys_, zero_path(dt, 1))
        assert err.value.step == 0
        assert "Newton Jacobian" in str(err.value)

    def test_vanishing_newton_slope_raises(self):
        # g = -1 with the made-up gradient v = S / (a11 dt x), S = 1 + a11
        # dt: at the first iterate Z = x0 / S the slope of phi(h) = h +
        # a11 dt is 1 - a11 dt v Z / S = 0, so no Newton step exists
        dt, a11 = 0.1, roughmor.solver.A11
        S = 1.0 + a11 * dt
        nl = DriftNonlinearity(g=lambda x: -1.0,
                               grad_g=lambda x: S / (a11 * dt * x))
        sys_ = drift_only_system(-1.0)
        sys_ = BilinearRoughSystem(A=sys_.A, N=sys_.N, K=sys_.K, C=sys_.C,
                                   x0=sys_.x0, drift_nonlinearity=nl)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(StepFailureError) as err:
                rough_rk_simulate(sys_, zero_path(dt, 1))
        assert err.value.step == 0
        assert "Newton Jacobian" in str(err.value)
        # raised at the first iterate: its residual is |phi| ||Z||
        assert err.value.residual == pytest.approx(a11 * dt / S, rel=1e-12)


def covariance_root(K):
    # the symmetric PSD square root of K, computed here rather than read
    # from the system
    w, V = scipy.linalg.eigh(K)
    return (V * np.sqrt(np.clip(w, 0.0, None))) @ V.T


def dense_crouzeix_states(sys_, path):
    # the scheme written with dense solves of I - a11 G, no band storage;
    # with a drift nonlinearity, Newton from the linear solution on the
    # dense Jacobian I - a11 (G + dt (g I + Z grad_g^T)). Returns the states
    # and the largest Newton count.
    a11, nl = roughmor.solver.A11, sys_.drift_nonlinearity
    eye = np.eye(sys_.n)
    dt = path.dt
    max_newton = 0

    def stage(G, c):
        nonlocal max_newton
        Z = np.linalg.solve(eye - a11 * G, c)
        if nl is None:
            return G @ Z
        for it in range(roughmor.solver.NEWTON_MAX + 1):
            g = float(nl.g(Z))
            F = Z - a11 * (G @ Z + dt * (Z * g)) - c
            if (np.linalg.norm(F)
                    <= roughmor.solver.NEWTON_TOL * max(1.0,
                                                        np.linalg.norm(Z))):
                max_newton = max(max_newton, it)
                return G @ Z + dt * (Z * g)
            J = eye - a11 * (G + dt * (g * eye + np.outer(Z, nl.grad_g(Z))))
            Z = Z + np.linalg.solve(J, -F)
        raise AssertionError("dense Newton did not converge")

    z = sys_.x0.copy()
    states = [z]
    root = covariance_root(sys_.K)
    for dw in np.diff(path.values, axis=0):
        s = root @ dw
        G = sys_.A * dt + sum(s_m * N_m for s_m, N_m in zip(s, sys_.N))
        F1 = stage(G, z)
        F2 = stage(G, z + roughmor.solver.A21 * F1)
        z = z + 0.5 * (F1 + F2)
        states.append(z)
    return np.array(states), max_newton


class TestBandStorage:
    @staticmethod
    def banded_system():
        # A has two subdiagonals and one superdiagonal, N_1 one
        # subdiagonal, N_2 one superdiagonal: G has bandwidth (2, 1)
        rng = np.random.default_rng(21)
        n = 9

        def band(offsets, scale):
            return sum(np.diag(scale * rng.standard_normal(n - abs(o)), o)
                       for o in offsets)

        A = band((-2, -1, 1), 0.5) - 3.0 * np.eye(n)
        N = (band((-1, 0), 0.4), band((0, 1), 0.4))
        return BilinearRoughSystem(A=A, N=N, K=np.eye(2),
                                   C=rng.standard_normal((1, n)),
                                   x0=rng.standard_normal(n))

    def test_asymmetric_band_matches_dense_reference(self):
        sys_ = self.banded_system()
        assert scipy.linalg.bandwidth(
            sys_.A + sys_.N[0] + sys_.N[1]) == (2, 1)
        path = sample_fbm_path(0.4, 2, 1.0, 64, seed=22)
        ref, _ = dense_crouzeix_states(sys_, path)
        res = rough_rk_simulate(sys_, path)
        assert np.abs(res.states - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_dense_similar_system_matches_dense_reference(self):
        sys_ = self.banded_system()
        Q, _ = np.linalg.qr(np.random.default_rng(23).standard_normal(
            (sys_.n, sys_.n)))
        dense = BilinearRoughSystem(
            A=Q.T @ sys_.A @ Q, N=tuple(Q.T @ N @ Q for N in sys_.N),
            K=sys_.K, C=sys_.C @ Q, x0=Q.T @ sys_.x0)
        path = sample_fbm_path(0.4, 2, 1.0, 64, seed=22)
        ref, _ = dense_crouzeix_states(dense, path)
        res = rough_rk_simulate(dense, path)
        assert np.abs(res.states - ref).max() <= 1e-12 * np.abs(ref).max()
        np.testing.assert_allclose(res.outputs, rough_rk_simulate(
            sys_, path).outputs, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("case", ["cubic3", "banded", "heat30"])
    def test_newton_matches_dense_reference(self, case):
        # both routes stop at the residual NEWTON_TOL, so the states agree
        # to that tolerance and no tighter
        if case == "cubic3":
            base = BilinearRoughSystem(A=-np.eye(3), N=(0.2 * np.eye(3),),
                                       K=np.eye(1), C=np.eye(3)[:1],
                                       x0=np.array([1.0, 0.5, -0.5]))
            path = sample_fbm_path(0.45, 1, 1.0, 128, seed=14)
        elif case == "heat30":
            # stiff tridiagonal stages, six Newton iterations per route
            heat = build_heat1d(Heat1dConfig(30))
            base = BilinearRoughSystem(A=heat.A, N=heat.N, K=heat.K,
                                       C=heat.C, x0=5.0 * heat.x0)
            path = sample_fbm_path(0.4, 2, 0.5, 128, 7)
        else:
            base = self.banded_system()
            path = sample_fbm_path(0.4, 2, 1.0, 64, seed=22)
        nl = DriftNonlinearity(g=lambda x: -float(x @ x),
                               grad_g=lambda x: -2.0 * x)
        sys_ = BilinearRoughSystem(A=base.A, N=base.N, K=base.K, C=base.C,
                                   x0=base.x0, drift_nonlinearity=nl)
        ref, ref_newton = dense_crouzeix_states(sys_, path)
        res = rough_rk_simulate(sys_, path)
        assert res.max_newton_iterations == ref_newton >= 1
        assert (np.abs(res.states - ref).max()
                <= roughmor.solver.NEWTON_TOL * np.abs(ref).max())


class TestCovariance:
    def test_folded_noise_matches_unit_covariance_bitwise(self):
        # the integrator reads K only through the mixed matrices Nt_m, so
        # the system given Nt_m and K = I integrates bitwise alike, and both
        # match the dense scheme driven by s = K^{1/2} dW and the N_m
        base = mild_stable_system(6, 2, seed=33)
        sys_ = BilinearRoughSystem(A=base.A, N=base.N, K=NON_DIAGONAL_K,
                                   C=base.C, x0=base.x0)
        unit = BilinearRoughSystem(A=sys_.A, N=sys_.N_tilde, K=np.eye(2),
                                   C=sys_.C, x0=sys_.x0)
        path = sample_fbm_path(0.4, 2, 1.0, 64, seed=34)
        res, res_unit = rough_rk_simulate(sys_, path), rough_rk_simulate(
            unit, path)
        assert np.array_equal(res.states, res_unit.states)
        assert res.min_pivot_ratio == res_unit.min_pivot_ratio
        ref, _ = dense_crouzeix_states(sys_, path)
        assert np.abs(res.states - ref).max() <= 1e-12 * np.abs(ref).max()


def stage_matrices(sys_, path):
    # each step's I - a11 (A dt + sum_m s_m N_m), s = K^{1/2} dW, dense
    dt = path.dt
    root = covariance_root(sys_.K)
    for dw in np.diff(path.values, axis=0):
        s = root @ dw
        G = sys_.A * dt + sum(s_m * N_m for s_m, N_m in zip(s, sys_.N))
        yield np.eye(sys_.n) - roughmor.solver.A11 * G


def norm_bounds(sys_, path):
    # 1 + a11 (dt ||A|| + sum_m |dW_m| ||Nt_m||) per step, row-sum norms,
    # with Nt_m = sum_i (K^{1/2})_im N_i
    dt = path.dt
    root = covariance_root(sys_.K)
    mixed = [sum(r_i * N_i for r_i, N_i in zip(column, sys_.N))
             for column in root.T]

    def norm(X):
        return np.abs(X).sum(axis=1).max()
    return np.array([1.0 + roughmor.solver.A11 * (
        dt * norm(sys_.A)
        + sum(abs(dw_m) * norm(N_m) for dw_m, N_m in zip(dw, mixed)))
        for dw in np.diff(path.values, axis=0)])


class TestStageMatrixBounds:
    @staticmethod
    def cases():
        # the stiff heat model at n = 100 on the shared heat path, and a
        # dense random model with unit and with non-diagonal covariance
        heat = build_heat1d(Heat1dConfig(100))
        yield heat, sample_fbm_path(0.4, 2, 0.5, 512, 24)
        dense = mild_stable_system(12, 2, seed=31)
        path = sample_fbm_path(0.4, 2, 1.0, 64, seed=32)
        yield dense, path
        yield BilinearRoughSystem(A=dense.A, N=dense.N, K=NON_DIAGONAL_K,
                                  C=dense.C, x0=dense.x0), path

    def test_norm_bound_covers_every_stage_matrix(self):
        for sys_, path in self.cases():
            _, bounds = roughmor.solver._step_coefficients(sys_, path)
            np.testing.assert_allclose(bounds, norm_bounds(sys_, path),
                                       rtol=1e-14, atol=0)
            norms = [np.abs(S).sum(axis=1).max()
                     for S in stage_matrices(sys_, path)]
            assert np.all(bounds >= norms)

    def test_min_pivot_ratio_matches_dense_lu(self):
        # the band LU of each transposed stage matrix has the pivots of
        # the dense partially pivoted LU of the same matrix
        sys_ = TestBandStorage.banded_system()
        path = sample_fbm_path(0.4, 2, 1.0, 64, seed=22)
        ratios = [np.abs(np.diag(scipy.linalg.lu(S.T)[2])).min() / bound
                  for S, bound in zip(stage_matrices(sys_, path),
                                      norm_bounds(sys_, path))]
        res = rough_rk_simulate(sys_, path)
        assert res.min_pivot_ratio == pytest.approx(min(ratios), rel=1e-12)

    @pytest.mark.parametrize("transpose", [False, True])
    def test_fill_in_columns_are_not_read(self, transpose):
        # dgbtrf does not read the fill-in rows of LAPACK band storage on
        # entry: NaN there leaves the pivots and a solve bitwise unchanged.
        # Only the entries above the matrix's first columns, which no
        # routine touches, keep the NaN
        sys_ = TestBandStorage.banded_system()
        S = next(stage_matrices(sys_, sample_fbm_path(0.4, 2, 1.0, 64,
                                                      seed=22)))
        if transpose:
            S = S.T
        kl, ku = scipy.linalg.bandwidth(S)
        assert ku >= 1
        rows = roughmor.solver._band_rows(S, kl, ku)
        b = np.random.default_rng(33).standard_normal(sys_.n)
        runs = []
        for fill in (0.0, np.nan):
            ab = np.full((sys_.n, ku + rows.shape[1]), fill)
            ab[:, ku:] = rows
            lu, piv, info = roughmor.solver.lu_factor(ab.T, ku, kl)
            assert info == 0
            x = scipy.linalg.lapack.dgbtrs(lu, ku, kl, b, piv, trans=1)[0]
            runs.append((lu, piv, x))
        (lu0, piv0, x0), (lu1, piv1, x1) = runs
        untouched = np.isnan(lu1)
        assert not untouched[ku:].any()
        np.testing.assert_array_equal(lu0[~untouched], lu1[~untouched])
        np.testing.assert_array_equal(piv0, piv1)
        np.testing.assert_array_equal(x0, x1)
        np.testing.assert_allclose(S @ x0, b, atol=1e-13)

    def test_stiff_heat_matches_dense_reference(self):
        # at n = 200 and step 2^-10, dt ||A|| is 158: the stage
        # values give F = (Z - c) / a11 without the stiff product G Z
        sys_ = build_heat1d(Heat1dConfig(200))
        path = sample_fbm_path(0.4, 2, 0.5, 512, seed=34)
        dt = path.dt
        assert dt * np.abs(sys_.A).sum(axis=1).max() >= 50.0
        ref, _ = dense_crouzeix_states(sys_, path)
        res = rough_rk_simulate(sys_, path)
        assert np.abs(res.states - ref).max() <= 1e-12 * np.abs(ref).max()


class TestSelfConvergence:
    def test_scalar_bilinear_rate(self):
        # short version of the dyadic study: rate well above 0.3
        sys_ = scalar_noise_system(a=0.0, nu=1.0, x0=1.0)
        ref_path = sample_fbm_path(0.45, 1, 1.0, 2 ** 13, seed=1)
        ref = rough_rk_simulate(sys_, ref_path)
        errs, hs = [], []
        for m in range(7, 11):
            sub = 2 ** (13 - m)
            r = rough_rk_simulate(sys_, coarsen_path(ref_path, sub))
            errs.append(np.abs(r.states[:, 0] - ref.states[::sub, 0]).max())
            hs.append(2.0 ** -m)
        slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        assert slope >= 0.3


class TestSmoothProbe:
    def test_zero_driver_noise_free_equality(self):
        sys_ = BilinearRoughSystem(A=np.array([[-1.0]]),
                                   N=(np.zeros((1, 1)),), K=np.eye(1),
                                   C=np.eye(1), x0=np.ones(1))
        assert smooth_quadratic_form_probe(sys_, zero_path(1.0, 32),
                                           256) >= -1e-10

    def test_scalar_sine_driver(self):
        sys_ = scalar_noise_system(a=-1.0, nu=1.0, x0=1.0)
        path = smooth_path_from_function(
            lambda t: np.array([math.sin(t)]), 0.5, 64)
        assert smooth_quadratic_form_probe(sys_, path, 512) >= -1e-6

    def test_scale_free(self):
        # with f = 0, x x^T and Z both grow by 2^20 under x0 -> 2^10 x0,
        # and so do the gap and the scale ||exp(int ||W_dot||^2) Z(T)||
        sys_ = mild_stable_system(3, 1, seed=22)
        big = BilinearRoughSystem(A=sys_.A, N=sys_.N, K=sys_.K, C=sys_.C,
                                  x0=2.0 ** 10 * sys_.x0)
        path = smooth_path_from_function(
            lambda t: np.array([math.sin(2 * t)]), 0.5, 64)
        small, large = (smooth_quadratic_form_probe(s, path, 512)
                        for s in (sys_, big))
        assert small != 0.0
        assert abs(large - small) <= 1e-12 * abs(small)
        assert type(large) is float

    def test_cubic_drift_driver(self):
        # with A = -I and N = 0.2 I, x stays parallel to x0; the random
        # 3-state system turns it, so the gap is not rank one and the
        # integrator's Newton route is checked in more than one direction
        nl = DriftNonlinearity(g=lambda x: -float(x @ x),
                               grad_g=lambda x: -2.0 * x)
        mild = mild_stable_system(3, 1, seed=22)
        systems = [
            BilinearRoughSystem(A=-np.eye(2), N=(0.2 * np.eye(2),),
                                K=np.eye(1), C=np.eye(2)[:1],
                                x0=np.array([1.0, 0.5]),
                                drift_nonlinearity=nl),
            BilinearRoughSystem(A=mild.A, N=mild.N, K=mild.K, C=mild.C,
                                x0=mild.x0, drift_nonlinearity=nl),
        ]
        path = smooth_path_from_function(
            lambda t: np.array([math.sin(2 * t)]), 0.5, 64)
        for sys_ in systems:
            assert smooth_quadratic_form_probe(sys_, path, 512) >= -1e-6

    def test_overflowing_gronwall_factor_raises(self, monkeypatch):
        # the coarsened H = 0.3 path has int ||W_dot||^2 dt = 1051, above
        # log(float max) = 709.8: the probe names the value and refuses the
        # path before it integrates anything, Z or x
        def integrate(*args, **kwargs):
            raise AssertionError("the probe integrated an unusable path")

        monkeypatch.setattr(roughmor.solver, "integrate_gramian_ode",
                            integrate)
        monkeypatch.setattr(roughmor.solver, "rough_rk_simulate", integrate)
        path = coarsen_path(sample_fbm_path(0.3, 2, 0.5, 128, seed=2), 2)
        with pytest.raises(ArgumentError, match=r"= 1051\.1 overflows"):
            smooth_quadratic_form_probe(mild_stable_system(4, 2, seed=5),
                                        path, 512)

    def test_gap_overflow_names_interval(self):
        # int ||W_dot||^2 dt = 700 passes the factor's check, but
        # exp(700) Z(0.5) with Z(0.5) = exp(21 / 2) leaves float range in the
        # second interval only: the caller sees roughmor's error naming that
        # interval, with no warning
        sys_ = scalar_noise_system(a=10.0)
        w = math.sqrt(700.0 * 0.25 / 2.0)
        path = DriverPath(T=0.5, values=np.array([[0.0], [w], [0.0]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IntegrationOverflowError,
                               match="interval 2 of 2") as err:
                smooth_quadratic_form_probe(sys_, path, 512)
        assert err.value.step == 2

    @pytest.mark.parametrize("n, M_path, M", [(10, 8, 64), (30, 64, 512)])
    def test_stiff_heat_driver(self, n, M_path, M):
        # the stiff heat model on a sin/cos driver: explicit sub-stepping
        # of x read a ratio of -9.2e68 at n = 10 and overflowed at n = 30;
        # the implicit integrator keeps the gap within the bound
        sys_ = build_heat1d(Heat1dConfig(n))
        path = smooth_path_from_function(
            lambda t: np.array([math.sin(t), math.cos(t)]), 0.5, M_path)
        assert smooth_quadratic_form_probe(sys_, path, M) >= -1e-6

    def test_raw_fbm_path(self):
        # an fBm path is read as its piecewise-linear interpolant like any
        # other path; this one's factor exp(145) stays finite
        sys_ = scalar_noise_system()
        path = sample_fbm_path(0.4, 1, 0.5, 64, seed=1)
        assert smooth_quadratic_form_probe(sys_, path, 512) >= -1e-6


class TestErrorNorms:
    def test_identical_outputs(self):
        times = np.linspace(0, 1, 11)
        y = np.sin(times)[:, None]
        assert float(relative_L2_error(y, y, times)) == 0.0

    def test_doubled_output(self):
        times = np.linspace(0, 1, 11)
        y = np.cos(times)[:, None]
        err = relative_L2_error(y, 2.0 * y, times)
        assert abs(float(err) - 1.0) <= 1e-12
        assert not err.is_absolute
        # a 1-D series is one output channel
        assert float(relative_L2_error(y[:, 0], 2.0 * y[:, 0],
                                       times)) == float(err)

    def test_zero_reference_is_absolute(self):
        times = np.linspace(0, 1, 5)
        z = np.zeros((5, 1))
        y = np.ones((5, 1))
        err = relative_L2_error(z, y, times)
        assert err.is_absolute and float(err) > 0

    def test_pointwise_identical(self):
        times = np.linspace(0, 1, 5)
        y = np.ones((5, 2))
        assert np.all(pointwise_relative_error(y, y, times) == 0.0)

    def test_pointwise_constant_offset(self):
        # relative where the reference is nonzero, absolute where it is 0
        times = np.linspace(0, 1, 5)
        y = np.full((5, 1), 2.0)
        y[0] = 0.0
        values = pointwise_relative_error(y, y + 1e-3, times)
        np.testing.assert_allclose(values, [1e-3] + [5e-4] * 4, atol=1e-15)
        assert np.array_equal(
            pointwise_relative_error(y[:, 0], y[:, 0] + 1e-3, times), values)

    def test_heat_pointwise_error_stays_small(self, heat_pipeline, heat_path,
                                              heat_full_sim):
        # two-stage model on the shared path: relative output error below
        # 1e-8 at every node past the startup transient (measured 3e-11)
        model, _ = heat_pipeline
        rom = rough_rk_simulate(model.system, heat_path)
        values = pointwise_relative_error(heat_full_sim.outputs, rom.outputs,
                                          heat_full_sim.times)
        assert values[heat_full_sim.times >= 0.05].max() <= 1e-8


class TestCsvWriters:
    def test_trajectory_csv(self, tmp_path):
        from roughmor import write_trajectory_csv
        sys_ = mild_stable_system(2, 1, seed=67)
        path = sample_fbm_path(0.4, 1, 0.5, 4, seed=2)
        res = rough_rk_simulate(sys_, path)
        out = tmp_path / "y.csv"
        write_trajectory_csv(res, out)
        lines = out.read_text().splitlines()
        assert lines[0] == "t,y1"
        assert len(lines) == 6

    def test_states_csv(self, tmp_path):
        from roughmor import write_states_csv
        sys_ = mild_stable_system(2, 1, seed=67)
        path = sample_fbm_path(0.4, 1, 0.5, 4, seed=2)
        res = rough_rk_simulate(sys_, path)
        out = tmp_path / "x.csv"
        write_states_csv(res, out)
        assert out.read_text().splitlines()[0] == "t,x1,x2"

    def test_error_csv(self, tmp_path):
        from roughmor import write_error_csv
        out = tmp_path / "e.csv"
        write_error_csv(np.array([0.0, 0.5]), np.array([0.0, 1e-3]), out)
        lines = out.read_text().splitlines()
        assert lines[0] == "t,rel_err"
        assert lines[1] == "0.0,0.0"
