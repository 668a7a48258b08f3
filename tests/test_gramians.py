import math
import warnings

import numpy as np
import pytest

import roughmor._lyap
from roughmor import (DEFAULT_TOL_P, ArgumentError, BilinearRoughSystem,
                      ConvergenceError, GramianResult, LyapunovOperator,
                      StabilityError, build_heat1d, default_heat1d_config,
                      integrate_gramian_ode, monte_carlo_second_moment,
                      solve_algebraic_gramian, solve_algebraic_gramian_dense,
                      truncate_psd_spectrum)
from roughmor.gramians import BACKWARD_ERROR_BOUND
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
        assert res.horizon == 1.0

    def test_scalar_closed_form(self):
        # a=-1, nu=0: Z(t) = x0^2 e^{-2t}, integral = x0^2 (1-e^{-2T})/2
        sys_ = scalar_noise_system(a=-1.0, nu=0.0, x0=1.5)
        T = 0.8
        expected = 1.5 ** 2 * (1.0 - math.exp(-2.0 * T)) / 2.0
        coarse = integrate_gramian_ode(sys_, "reach", T=T, steps=400)
        fine = integrate_gramian_ode(sys_, "reach", T=T, steps=1600)
        err_coarse = abs(coarse.matrix[0, 0] - expected)
        err_fine = abs(fine.matrix[0, 0] - expected)
        # trapezoid quadrature dominates: second order in the step
        assert err_coarse <= 5e-6
        assert err_fine <= err_coarse / 12.0

    def test_trajectory_is_monotone_psd(self):
        sys_ = mild_stable_system(3, 1, seed=21)
        res = integrate_gramian_ode(sys_, "reach", T=1.0, steps=100,
                                    return_trajectory=True)
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
        assert math.isinf(res.horizon)

    def test_result_validation(self):
        def result(side, horizon):
            return GramianResult(matrix=np.eye(1), side=side, residual=0.0,
                                 iterations=1, horizon=horizon)

        assert result("obs", 2.0).side == "obs"
        with pytest.raises(ArgumentError, match="side"):
            result("reach_infinite", math.inf)
        with pytest.raises(ArgumentError, match="horizon"):
            result("reach", 0.0)

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

    def test_heat_300_accepted_by_backward_error(self):
        # the relative residual of this solve, about 3e-10, is its round-off
        # floor at cond(A) ~ 1e4 and fails any fixed 1e-10 test; the
        # backward error stays near eps
        res = solve_algebraic_gramian(
            build_heat1d(default_heat1d_config(300)), "reach")
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

    def test_one_schur_per_solve(self, monkeypatch):
        # the solve reuses the stability check's factorization of A, on the
        # obs side transposed
        calls = []
        schur = roughmor._lyap.schur

        def counting(*args, **kwargs):
            calls.append(1)
            return schur(*args, **kwargs)

        monkeypatch.setattr(roughmor._lyap, "schur", counting)
        sys_ = build_heat1d(default_heat1d_config(30))
        for side in ("reach", "obs"):
            calls.clear()
            res = solve_algebraic_gramian(sys_, side)
            assert len(calls) == 1
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
        assert res <= 1e-14 and not res.is_absolute

    def test_zero_matrix(self):
        sys_ = scalar_noise_system(a=-1.0, nu=1.0, x0=1.0)
        assert self.residual(sys_, np.zeros((1, 1))) == 1.0

    def test_linear_perturbation(self):
        # residual of P + eps is eps |2a + nu^2| / |x0^2| = eps
        sys_ = scalar_noise_system(a=-1.0, nu=1.0, x0=1.0)
        res = self.residual(sys_, np.array([[1.0 + 1e-3]]))
        assert abs(res - 1e-3) <= 1e-12

    def test_zero_rhs_flags_absolute(self):
        sys_ = system_from(-np.eye(2), [np.zeros((2, 2))], np.eye(1),
                           [[1.0, 0.0]], [0.0, 0.0])
        res = self.residual(sys_, np.zeros((2, 2)))
        assert res == 0.0 and res.is_absolute

    def test_dense_solve_of_zero_rhs(self):
        # x0 = 0: P = 0 solves the equation exactly, with no 0/0 on the way
        sys_ = mild_stable_system(3, 1, seed=1)
        sys_ = system_from(sys_.A, sys_.N, sys_.K, sys_.C, np.zeros(3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            P = solve_algebraic_gramian_dense(sys_, "reach")
        np.testing.assert_array_equal(P.matrix, np.zeros((3, 3)))
        assert P.residual == 0.0 and P.residual.is_absolute
        assert P.backward_error == 0.0


class TestMonteCarlo:
    def test_noise_free_matches_flow(self):
        # N = 0 collapses the estimator onto e^{At} x0; only Euler bias left
        sys_ = system_from(-np.eye(2), [np.zeros((2, 2))], np.eye(1),
                           [[1.0, 0.0]], [1.0, 0.5])
        mc = monte_carlo_second_moment(sys_, "reach", T=1.0, n_paths=32,
                                       dt=1e-3, seed=3)
        # identical paths; what is left of the spread is accumulation
        # round-off
        assert np.all(mc.trajectory_se <= 1e-6)
        t = mc.times[-1]
        x = math.exp(-t) * sys_.x0
        np.testing.assert_allclose(mc.trajectory[-1], np.outer(x, x),
                                   rtol=5e-3)

    def test_scalar_moment_closed_form(self):
        # E[x(t)^2] = x0^2 e^{(2a+nu^2) t} = e^{-t}
        sys_ = scalar_noise_system(a=-1.0, nu=1.0, x0=1.0)
        mc = monte_carlo_second_moment(sys_, "reach", T=1.0, n_paths=40_000,
                                       dt=1e-3, seed=12)
        for t_target in (0.5, 1.0):
            k = int(round(t_target / 1e-3))
            exact = math.exp(-t_target)
            se = mc.trajectory_se[k, 0, 0]
            assert abs(mc.trajectory[k, 0, 0] - exact) <= 3.0 * se + 2e-3

    def test_deterministic_given_seed(self):
        sys_ = mild_stable_system(2, 1, seed=14)
        a = monte_carlo_second_moment(sys_, "reach", T=0.5, n_paths=500,
                                      dt=1e-2, seed=9)
        b = monte_carlo_second_moment(sys_, "reach", T=0.5, n_paths=500,
                                      dt=1e-2, seed=9)
        assert np.array_equal(a.integral, b.integral)
        assert np.array_equal(a.trajectory, b.trajectory)


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
