import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg

import roughmor._lyap
from roughmor._lyap import SchurLyapunov
from roughmor import (DEFAULT_TOL_P, ArgumentError, BilinearRoughSystem,
                      ConvergenceError, GramianResult, Heat1dConfig,
                      IntegrationOverflowError, LyapunovOperator,
                      StabilityError, build_heat1d,
                      integrate_gramian_ode, monte_carlo_second_moment,
                      solve_algebraic_gramian, solve_algebraic_gramian_dense,
                      truncate_psd_spectrum)
from roughmor.gramians import BACKWARD_ERROR_BOUND, _MC_FOLD, \
    _euler_chunk
from roughmor._fixtures import mild_stable_system, scalar_noise_system, \
    unstable_system


def system_from(A, N, K, C, x0):
    return BilinearRoughSystem(A=np.asarray(A, dtype=float),
                               N=tuple(np.asarray(Ni, dtype=float)
                                       for Ni in N),
                               K=np.asarray(K, dtype=float),
                               C=np.asarray(C, dtype=float),
                               x0=np.asarray(x0, dtype=float))


class TestFiniteHorizon:
    def test_frozen_moment_flow(self):
        # L = 0 keeps Z constant, so the time integral is T Z(0)
        sys_ = system_from(np.zeros((2, 2)), [np.zeros((2, 2))], np.eye(1),
                           [[1.0, 0.0]], [1.0, 0.0])
        res = integrate_gramian_ode(sys_, "reach", T=1.0, steps=64)
        e11 = np.outer([1.0, 0.0], [1.0, 0.0])
        np.testing.assert_allclose(res.matrix, e11, atol=1e-14)
        assert res.side == "reach"

    def test_scalar_closed_form(self):
        # a=-1, nu=0: Z(t) = x0^2 e^{-2t}, integral = x0^2 (1-e^{-2T})/2
        sys_ = scalar_noise_system(a=-1.0, nu=0.0, x0=1.5)
        T = 0.8
        expected = 1.5 ** 2 * (1.0 - math.exp(-2.0 * T)) / 2.0
        coarse = integrate_gramian_ode(sys_, "reach", T=T, steps=400)
        fine = integrate_gramian_ode(sys_, "reach", T=T, steps=1600)
        assert abs(coarse.matrix[0, 0] - expected) <= 1e-14
        # the step count only samples the trajectory
        assert np.array_equal(coarse.matrix, fine.matrix)
        # Z(T) is a 1600-fold product: round-off grows with the count
        assert abs(fine.trajectory[-1, 0, 0]
                   - 1.5 ** 2 * math.exp(-2.0 * T)) <= 1e-12

    def test_heat_flow_residual(self):
        # the mean-square-stable heat model at n = 20, where a fixed-step
        # integration of the same flow overflows
        sys_ = build_heat1d(Heat1dConfig(20))
        res = integrate_gramian_ode(sys_, "reach", T=0.5, steps=200)
        assert res.trajectory.shape == (201, 20, 20)
        assert res.residual <= 1e-12

    def test_refuses_order_above_dense_limit(self):
        sys_ = build_heat1d(Heat1dConfig(31))
        with pytest.raises(ArgumentError, match="n <= 30"):
            integrate_gramian_ode(sys_, "reach", T=0.5, steps=10)

    def test_long_horizon_matches_algebraic(self):
        # P_T tends to the algebraic Gramian; at T = 40 the tail e^{-40}
        # is below round-off
        sys_ = mild_stable_system(5, 2, seed=3)
        for side in ("reach", "obs"):
            flow = integrate_gramian_ode(sys_, side, T=40.0, steps=10)
            dense = solve_algebraic_gramian_dense(sys_, side)
            np.testing.assert_allclose(
                flow.matrix, dense.matrix,
                atol=1e-10 * np.abs(dense.matrix).max())

    def test_trajectory_is_monotone_psd(self):
        sys_ = mild_stable_system(3, 1, seed=21)
        res = integrate_gramian_ode(sys_, "reach", T=1.0, steps=100)
        assert res.trajectory.shape == (101, 3, 3)
        for Z in res.trajectory[::25]:
            assert np.linalg.eigvalsh((Z + Z.T) / 2).min() >= -1e-10

    def test_matches_monte_carlo(self):
        sys_ = mild_stable_system(3, 1, seed=31)
        ode = integrate_gramian_ode(sys_, "reach", T=2.0, steps=2000)
        mc = monte_carlo_second_moment(sys_, "reach", T=2.0, n_paths=20_000,
                                       dt=1e-3, seed=77)
        se = np.where(mc.integral_se > 0, mc.integral_se, 1.0)
        assert np.all(np.abs(mc.integral - ode.matrix) / se <= 4.0)


class TestAlgebraicGramian:
    def test_scalar_reach_closed_form(self):
        # 0 = x0^2 + (2a + nu^2) P with a=-1, nu=1, x0=1 gives P = 1
        sys_ = scalar_noise_system(a=-1.0, nu=1.0, x0=1.0)
        res = solve_algebraic_gramian(sys_, "reach")
        assert abs(res.matrix[0, 0] - 1.0) <= 1e-12
        assert res.side == "reach"

    def test_result_validation(self):
        def result(side):
            return GramianResult(matrix=np.eye(1), side=side, residual=0.0,
                                 iterations=1)

        assert result("obs").side == "obs"
        with pytest.raises(ArgumentError, match="side"):
            result("reach_infinite")

    def test_scalar_obs_closed_form(self):
        # 0 = c^2 + (2a + nu^2) Q gives Q = c^2
        sys_ = scalar_noise_system(a=-1.0, nu=1.0)
        c = float(sys_.C[0, 0])
        res = solve_algebraic_gramian(sys_, "obs")
        assert abs(res.matrix[0, 0] - c * c) <= 1e-12

    def test_pure_drift_closed_form(self):
        # A = -I, N = 0: P = x0 x0^T / 2
        sys_ = system_from(-np.eye(2), [np.zeros((2, 2))], np.eye(1),
                           [[1.0, 0.0]], [1.0, 0.0])
        res = solve_algebraic_gramian(sys_, "reach")
        np.testing.assert_allclose(res.matrix, np.outer([1, 0], [1, 0]) / 2,
                                   atol=1e-13)

    def test_matches_dense_solve(self):
        systems = [mild_stable_system(4 + seed, 1 + seed % 2, seed=seed)
                   for seed in range(5)]
        # correlated channels exercise the cross terms k_12 N_1 X N_2^T
        base = mild_stable_system(5, 2, seed=11, decay=2.0)
        systems.append(system_from(base.A, base.N, [[1.0, 0.6], [0.6, 0.8]],
                                   base.C, base.x0))
        for sys_ in systems:
            fp = solve_algebraic_gramian(sys_, "reach")
            dense = solve_algebraic_gramian_dense(sys_, "reach")
            scale = max(np.abs(dense.matrix).max(), 1e-30)
            np.testing.assert_allclose(fp.matrix, dense.matrix,
                                       atol=1e-10 * scale)
            fp = solve_algebraic_gramian(sys_, "obs")
            dense = solve_algebraic_gramian_dense(sys_, "obs")
            scale = max(np.abs(dense.matrix).max(), 1e-30)
            np.testing.assert_allclose(fp.matrix, dense.matrix,
                                       atol=1e-10 * scale)

    def test_refuses_unstable_system(self):
        with pytest.raises(StabilityError):
            solve_algebraic_gramian(unstable_system(), "reach")
        # a Hurwitz drift whose splitting radius is 1.011: the message quotes
        # the lower bound that proves it
        sys_ = mild_stable_system(8, 2, seed=0, decay=-0.01)
        with pytest.raises(StabilityError, match=r"spectral radius >= 1\.0"):
            solve_algebraic_gramian(sys_, "reach")

    def test_marginal_system_raises_convergence_error(self, monkeypatch):
        # two GMRES iterations span too little of a 5-state, 2-channel
        # operator to reach a backward error near machine epsilon
        monkeypatch.setattr("roughmor.gramians.GMRES_MAX_ITER", 2)
        sys_ = mild_stable_system(5, 2, seed=0)
        with pytest.raises(ConvergenceError) as err:
            solve_algebraic_gramian(sys_, "reach")
        assert err.value.residual > BACKWARD_ERROR_BOUND
        assert err.value.iterations == 2

    def test_overflow_raises_convergence_error(self):
        # ||x0 x0^T|| overflows at x0 = (1e150, 1), where P_11 is about
        # 5e299: the backward error is nan, which is no acceptance, and the
        # overflow raises no RuntimeWarning on the way
        sys_ = system_from(-np.eye(2), [0.1 * np.eye(2)], np.eye(1),
                           [[1.0, 0.0]], [1e150, 1.0])
        with pytest.raises(ConvergenceError, match="backward error nan"):
            solve_algebraic_gramian(sys_, "reach")

    def test_heat_300_accepted_by_backward_error(self):
        # the backward error stays near eps at n = 300 on both routes of the
        # Lyapunov solve. On the symmetric heat drift the relative residual
        # reads about 4e-11; with upwind advection added, a stiff
        # non-symmetric drift that takes the Schur route, it reads about
        # 3e-10, its round-off floor at cond(A) ~ 1e4, and fails any fixed
        # 1e-10 test
        heat = build_heat1d(Heat1dConfig(300))
        assert SchurLyapunov(heat.A).T is None
        res = solve_algebraic_gramian(heat, "reach")
        assert res.backward_error <= BACKWARD_ERROR_BOUND
        n = heat.n
        upwind = (np.diag(-np.ones(n)) + np.diag(np.ones(n - 1), 1)) * (n + 1)
        advected = system_from(heat.A + 0.5 * upwind, heat.N, heat.K, heat.C,
                               heat.x0)
        assert SchurLyapunov(advected.A).T is not None
        res = solve_algebraic_gramian(advected, "reach")
        assert res.backward_error <= BACKWARD_ERROR_BOUND
        assert res.residual > 1e-10

    def test_marginal_system_closed_form(self):
        # 2a + nu^2 = -0.01, close to the stability edge, gives
        # P = x0 x0^T / 0.01; the operator is a multiple of the identity
        nu = math.sqrt(1.99)
        res = solve_algebraic_gramian(scalar_noise_system(a=-1.0, nu=nu),
                                      "reach")
        assert abs(res.matrix[0, 0] - 100.0) <= 1e-10 * 100.0
        sys_ = system_from(-np.eye(2), [nu * np.eye(2)], np.eye(1),
                           np.eye(2)[:1], np.ones(2))
        res = solve_algebraic_gramian(sys_, "reach")
        np.testing.assert_allclose(res.matrix, np.ones((2, 2)) / 0.01,
                                   rtol=1e-10)

    def test_one_factorization_per_solve(self, monkeypatch):
        # both sides reuse the stability check's factorization of A, the obs
        # side solving with A^T on it: one eigh of the symmetric heat drift,
        # one real Schur form of a non-symmetric drift
        calls = []

        def counting(name):
            factor = getattr(roughmor._lyap, name)

            def counted(*args, **kwargs):
                calls.append(name)
                return factor(*args, **kwargs)
            return counted

        for name in ("eigh", "schur"):
            monkeypatch.setattr(roughmor._lyap, name, counting(name))
        for sys_, factorization in (
                (build_heat1d(Heat1dConfig(30)), "eigh"),
                (mild_stable_system(8, 2, seed=0), "schur")):
            for side in ("reach", "obs"):
                calls.clear()
                res = solve_algebraic_gramian(sys_, side)
                assert calls == [factorization]
                assert res.backward_error <= BACKWARD_ERROR_BOUND
                assert 0.0 <= res.gate_rho_lower <= res.gate_rho_upper < 1.0
                assert res.gate_solves > 0

    def test_rejects_unknown_side(self):
        with pytest.raises(ArgumentError):
            solve_algebraic_gramian(mild_stable_system(2, 1, seed=0), "both")


class TestGramianResidual:
    def residual(self, sys_, G):
        return LyapunovOperator(sys_, "reach").errors(G)[0]

    def test_exact_scalar_solution(self):
        sys_ = scalar_noise_system(a=-1.0, nu=1.0, x0=1.0)
        res = self.residual(sys_, np.array([[1.0]]))
        assert res <= 1e-14

    def test_zero_matrix(self):
        sys_ = scalar_noise_system(a=-1.0, nu=1.0, x0=1.0)
        assert self.residual(sys_, np.zeros((1, 1))) == 1.0

    def test_linear_perturbation(self):
        # residual of P + eps is eps |2a + nu^2| / |x0^2| = eps
        sys_ = scalar_noise_system(a=-1.0, nu=1.0, x0=1.0)
        res = self.residual(sys_, np.array([[1.0 + 1e-3]]))
        assert abs(res - 1e-3) <= 1e-12

    def test_zero_rhs_flags_absolute(self):
        # rhs = 0 (x0 = 0): the residual falls back to the absolute
        # ||L(G)||_F, here L(G) = -2 G, with no 0/0 on the way
        sys_ = system_from(-np.eye(2), [np.zeros((2, 2))], np.eye(1),
                           [[1.0, 0.0]], [0.0, 0.0])
        G = np.array([[1.0, 2.0], [2.0, 3.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = self.residual(sys_, G)
        assert res == 2 * np.linalg.norm(G) > 0

    def test_dense_solve_of_zero_rhs(self):
        # x0 = 0: P = 0 solves the equation exactly, with no 0/0 on the way
        sys_ = mild_stable_system(3, 1, seed=1)
        sys_ = system_from(sys_.A, sys_.N, sys_.K, sys_.C, np.zeros(3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            P = solve_algebraic_gramian_dense(sys_, "reach")
        np.testing.assert_array_equal(P.matrix, np.zeros((3, 3)))
        assert P.residual == 0.0
        assert P.backward_error == 0.0


MC_FIELDS = ("integral", "integral_se")


class TestMonteCarlo:
    def test_noise_free_matches_flow(self):
        # N = 0 collapses the estimator onto e^{At} x0, whose Gramian is
        # (1 - e^{-2T}) / 2 x0 x0^T; only Euler bias is left
        sys_ = system_from(-np.eye(2), [np.zeros((2, 2))], np.eye(1),
                           [[1.0, 0.0]], [1.0, 0.5])
        mc = monte_carlo_second_moment(sys_, "reach", T=1.0, n_paths=32,
                                       dt=1e-3, seed=3)
        # identical paths; what is left of the spread is accumulation
        # round-off
        assert np.all(mc.integral_se <= 1e-6)
        exact = (1.0 - math.exp(-2.0)) / 2.0 * np.outer(sys_.x0, sys_.x0)
        np.testing.assert_allclose(mc.integral, exact, rtol=5e-3)

    def test_scalar_moment_closed_form(self):
        # E[x(t)^2] = x0^2 e^{(2a+nu^2) t} = e^{-t}, so the Gramian on
        # [0, 1] is 1 - e^{-1}
        sys_ = scalar_noise_system(a=-1.0, nu=1.0, x0=1.0)
        mc = monte_carlo_second_moment(sys_, "reach", T=1.0, n_paths=40_000,
                                       dt=1e-3, seed=12)
        exact = 1.0 - math.exp(-1.0)
        se = mc.integral_se[0, 0]
        assert abs(mc.integral[0, 0] - exact) <= 3.0 * se + 2e-3

    def test_deterministic_given_seed(self):
        sys_ = mild_stable_system(2, 1, seed=14)
        # 10,007 paths: one full 10,000-path chunk plus a 7-path remainder
        for n_paths, T in ((500, 0.5), (10_007, 0.05)):
            a, b = (monte_carlo_second_moment(sys_, "reach", T=T,
                                              n_paths=n_paths, dt=1e-2,
                                              seed=9)
                    for _ in range(2))
            for name in MC_FIELDS:
                assert np.array_equal(getattr(a, name),
                                      getattr(b, name)), (n_paths, name)

    def test_negative_seed_raises(self):
        # numpy's SeedSequence would end the call with a bare ValueError
        sys_ = mild_stable_system(2, 1, seed=14)
        with pytest.raises(ArgumentError, match="seed must be >= 0"):
            monte_carlo_second_moment(sys_, "reach", T=1.0, n_paths=10,
                                      dt=0.5, seed=-1)

    def test_step_must_divide_horizon(self):
        # round(1 / 0.3) = 3 steps would silently run at dt = 1/3
        sys_ = mild_stable_system(2, 1, seed=14)
        with pytest.raises(ArgumentError, match="whole number of steps"):
            monte_carlo_second_moment(sys_, "reach", T=1.0, n_paths=10,
                                      dt=0.3, seed=0)

    def test_overflow_raises(self):
        # E[x^2] grows like e^{801 t}: the sums leave float range well
        # before T = 2, and the caller sees roughmor's error and no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IntegrationOverflowError,
                               match="overflowed float range"):
                monte_carlo_second_moment(scalar_noise_system(a=400.0),
                                          "reach", T=2.0, n_paths=4,
                                          dt=0.01, seed=0)

    def test_packed_chunk_matches_direct_reference(self):
        # full (m, n, n) outer products per node, integrated over time by
        # np.trapezoid: guards the packed upper-triangle rows, the end
        # weights of the chunk's per-path integral, its mean and squared
        # deviations, and the ring's blocks for every d on either side. The
        # step counts place the path's ends across the history's blocks of
        # K states: both ends in one partial (1) or full (K - 1) final
        # fold, the last state alone in the final fold (K) or one past a
        # full fold (K + 1), and whole middle blocks before a partial final
        # one (2K + 3, 19, 20). The chunk steps the side's mixed matrices
        # Nt_m with the increments, the reference the N_i with
        # s = K^{1/2} dB, its own square root of K
        K = _MC_FOLD
        step_counts = (1, K - 1, K, K + 1, 2 * K + 3, 19, 20)
        for d, steps, side in itertools.product((0, 1, 2, 3), step_counts,
                                                ("reach", "obs")):
            base = mild_stable_system(4, d, seed=8)
            sys_ = system_from(base.A, base.N,
                               0.5 * (np.eye(d) + np.ones((d, d))), base.C,
                               base.x0)
            op = LyapunovOperator(sys_, side)
            x_init = sys_.x0 if side == "reach" else sys_.C[0]
            m, T = 7, 0.4
            got = _euler_chunk(op.A, op.N, x_init, T, steps, m,
                               np.random.default_rng(3))

            A, N = (sys_.A, sys_.N) if side == "reach" else (
                sys_.A.T, [Ni.T for Ni in sys_.N])
            w, V = scipy.linalg.eigh(sys_.K)
            root = (V * np.sqrt(w)) @ V.T
            rng = np.random.default_rng(3)
            dt = T / steps
            X = np.tile(x_init, (m, 1))
            nodes = [X]
            for _ in range(steps):
                s = rng.standard_normal((m, d)) * math.sqrt(dt) @ root
                X = X + dt * X @ A.T + sum(
                    s[:, j:j + 1] * (X @ Nj.T) for j, Nj in enumerate(N))
                nodes.append(X)
            outer = np.stack([Y[:, :, None] * Y[:, None, :] for Y in nodes])
            per_path = np.trapezoid(outer, dx=dt, axis=0)
            mean = per_path.mean(axis=0)
            spread = ((per_path - mean) ** 2).sum(axis=0)
            # with d = 0 the paths are equal and the spread is round-off:
            # it is measured on the scale of the per-path integrals' squares
            scales = [np.abs(mean).max(), np.abs(spread).max() if d
                      else (per_path ** 2).sum(axis=0).max()]
            for name, g, e, scale in zip(("mean", "spread"), got,
                                         (mean, spread), scales):
                assert np.abs(g - e).max() <= 1e-13 * scale, (
                    name, d, steps, side)

    def test_chunk_bytes_within_budget(self):
        # a chunk holds the packed per-path sums, the ring, the history of
        # _MC_FOLD states and the increments; the folds take their scratch
        # from the ring, so no (n, m) temporary is left to count
        n, d, m = 10, 2, 10_000
        sys_ = mild_stable_system(n, d, seed=0)
        op = LyapunovOperator(sys_, "reach")
        rng = np.random.default_rng(0)
        tracemalloc.start()
        try:
            _euler_chunk(op.A, op.N, sys_.x0, 1.0, 2 * _MC_FOLD + 3, m, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        floats = m * (n * (n + 1) // 2 + (d + 1) * n + _MC_FOLD * n + d)
        assert peak <= 1.05 * 8 * floats

    def test_one_product_per_euler_step(self, monkeypatch):
        # the drift and every noise term of a step are one BLAS product
        calls = []

        def spy(*args, **kwargs):
            calls.append(args[0].shape)
            return matmul(*args, **kwargs)

        matmul = np.matmul
        monkeypatch.setattr(np, "matmul", spy)
        sys_ = mild_stable_system(3, 2, seed=14)
        monte_carlo_second_moment(sys_, "reach", T=1.0, n_paths=10,
                                  dt=0.125, seed=0)
        assert calls == [(3, 9)] * 8

    def test_standard_error_of_nearly_equal_paths(self):
        # noise 1e-7 leaves the per-path integrals equal to about 7 digits;
        # a one-pass (sum of squares - n mean^2) variance loses the spread
        # to cancellation. The reference replays both chunks (10,000 paths
        # and a 7-path remainder) from their seeds and takes the two-pass
        # variance of directly computed per-path integrals
        eps = 1e-7
        sys_ = system_from(-np.eye(2), [eps * np.eye(2)], np.eye(1),
                           [[1.0, 0.0]], [1.0, 0.5])
        n_paths, T, dt, seed = 10_007, 1.0, 1e-2, 21
        mc = monte_carlo_second_moment(sys_, "reach", T=T, n_paths=n_paths,
                                       dt=dt, seed=seed)
        steps = round(T / dt)
        children = np.random.SeedSequence(seed).spawn(1)[0].spawn(2)
        per_path = []
        for m, child in zip((10_000, 7), children):
            rng = np.random.default_rng(child)
            X = np.tile(sys_.x0, (m, 1))
            total = 0.5 * X[:, :, None] * X[:, None, :]
            for k in range(steps):
                s = rng.standard_normal((m, 1)) * math.sqrt(dt)
                X = X - dt * X + eps * s * X
                weight = 0.5 if k + 1 == steps else 1.0
                total += weight * X[:, :, None] * X[:, None, :]
            per_path.append(dt * total)
        per_path = np.concatenate(per_path)
        se = np.sqrt(per_path.var(axis=0, ddof=1) / n_paths)
        np.testing.assert_allclose(mc.integral_se, se, rtol=1e-6)

    def test_observability_matches_ode(self):
        # one dual-SDE batch per nonzero row of C; the zero row is skipped
        base = mild_stable_system(3, 2, seed=17)
        C = [[1.0, -0.5, 0.2], [0.0, 0.0, 0.0], [0.3, 0.8, -1.0]]
        sys_ = system_from(base.A, base.N, [[1.0, 0.6], [0.6, 0.5]], C,
                           base.x0)
        ode = integrate_gramian_ode(sys_, "obs", T=1.0, steps=1000)
        mc = monte_carlo_second_moment(sys_, "obs", T=1.0, n_paths=20_000,
                                       dt=1e-3, seed=78)
        se = np.where(mc.integral_se > 0, mc.integral_se, 1.0)
        assert np.all(np.abs(mc.integral - ode.matrix) / se <= 4.0)


class TestSpectrumHelpers:
    def test_spectrum_descending(self):
        sys_ = mild_stable_system(5, 1, seed=25)
        P = solve_algebraic_gramian(sys_, "reach")
        w = truncate_psd_spectrum(P.matrix, DEFAULT_TOL_P).full_spectrum
        assert np.all(np.diff(w) <= 0)
        assert w[0] > 0

    def test_spectrum_csv(self, tmp_path):
        from roughmor import write_spectrum_csv
        out = tmp_path / "spec.csv"
        write_spectrum_csv(np.array([2.0, 1.0]), out)
        lines = out.read_text().splitlines()
        assert lines[0] == "index,eigenvalue"
        assert lines[1] == "0,2.0"
        assert lines[2] == "1,1.0"
