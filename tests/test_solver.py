import math
import warnings

import numpy as np
import pytest
import scipy.linalg

import roughmor.solver
from roughmor import (ArgumentError, BilinearRoughSystem, DriftNonlinearity,
                      DriverPath, IntegrationOverflowError,
                      StepFailureError, pointwise_relative_error,
                      relative_L2_error, rough_rk_simulate, sample_fbm_path,
                      smooth_path_from_function, smooth_quadratic_form_probe,
                      coarsen_path)
from roughmor._fixtures import mild_stable_system, scalar_noise_system


def stability_function():
    # symbolic oracle: R(z) = 1 + z b^T (I - z A)^{-1} 1 computed exactly
    # from the tableau entries, independent of the stepper
    import sympy

    z = sympy.symbols("z")
    g = sympy.Rational(1, 2) + sympy.sqrt(3) / 6
    A = sympy.Matrix([[g, 0], [-sympy.sqrt(3) / 3, g]])
    b = sympy.Matrix([[sympy.Rational(1, 2), sympy.Rational(1, 2)]])
    one = sympy.Matrix([[1], [1]])
    R = 1 + z * (b * (sympy.eye(2) - z * A).inv() * one)[0, 0]
    return sympy.lambdify(z, sympy.simplify(R), "math")


def drift_only_system(a):
    return BilinearRoughSystem(A=np.array([[a]]), N=(np.zeros((1, 1)),),
                               K=np.eye(1), C=np.eye(1), x0=np.ones(1))


def zero_path(T, M, d=1):
    return DriverPath(t0=0.0, T=T, values=np.zeros((M + 1, d)))


class TestTableau:
    def test_crouzeix_values(self):
        g = 0.5 + math.sqrt(3) / 6
        assert abs(roughmor.solver.A11 - g) <= 1e-15
        assert abs(roughmor.solver.A21 + math.sqrt(3) / 3) <= 1e-15
        assert roughmor.solver.B1 == roughmor.solver.B2 == 0.5


class TestDeterministicSteps:
    def test_one_step_matches_stability_function(self):
        # z' = -z, one step of size 0.1: the update is exactly R(-0.1)
        R = stability_function()
        sys_ = drift_only_system(-1.0)
        res = rough_rk_simulate(sys_, zero_path(0.1, 1))
        assert abs(res.states[1, 0] - R(-0.1)) <= 1e-12

    def test_many_steps_match_stability_function_power(self):
        R = stability_function()
        sys_ = drift_only_system(-2.0)
        M = 8
        res = rough_rk_simulate(sys_, zero_path(0.8, M))
        assert abs(res.states[-1, 0] - R(-0.2) ** M) <= 1e-11

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
        # range within ~100 steps and the stage rhs goes non-finite
        sys_ = BilinearRoughSystem(A=np.array([[100.0]]),
                                   N=(np.zeros((1, 1)),), K=np.eye(1),
                                   C=np.eye(1), x0=np.array([1e300]))
        with pytest.raises(IntegrationOverflowError) as err:
            rough_rk_simulate(sys_, zero_path(1.0, 400))
        assert err.value.step >= 1

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

    def test_singular_rank_one_update_raises(self):
        # g = -1 with a made-up gradient v that cancels the band part
        # B = 1 + 2 a11 dt of the Jacobian B - a11 dt Z v at the first
        # iterate Z: the Sherman-Morrison denominator vanishes
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


def dense_crouzeix_states(sys_, path):
    # the scheme written with dense solves of I - a11 G, no band storage;
    # with a drift nonlinearity, Newton from the linear solution on the
    # dense Jacobian I - a11 (G + dt (g I + Z grad_g^T)). Returns the states
    # and the largest Newton count.
    a11, nl = roughmor.solver.A11, sys_.drift_nonlinearity
    eye = np.eye(sys_.n)
    dt = (path.T - path.t0) / path.M
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
    for dw in np.diff(path.values, axis=0):
        s = sys_.K_sqrt @ dw
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

    @pytest.mark.parametrize("case", ["cubic3", "banded"])
    def test_newton_matches_dense_reference(self, case):
        # both routes stop at the residual NEWTON_TOL, so the states agree
        # to that tolerance and no tighter
        if case == "cubic3":
            base = BilinearRoughSystem(A=-np.eye(3), N=(0.2 * np.eye(3),),
                                       K=np.eye(1), C=np.eye(3)[:1],
                                       x0=np.array([1.0, 0.5, -0.5]))
            path = sample_fbm_path(0.45, 1, 1.0, 128, seed=14)
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
        probe = smooth_quadratic_form_probe(sys_, zero_path(1.0, 32), 256)
        assert probe.min_eigenvalue >= -1e-10

    def test_scalar_sine_driver(self):
        sys_ = scalar_noise_system(a=-1.0, nu=1.0, x0=1.0)
        path = smooth_path_from_function(
            lambda t: np.array([math.sin(t)]), 0.5, 64)
        probe = smooth_quadratic_form_probe(sys_, path, 512)
        assert probe.min_eigenvalue >= -1e-6 * probe.xbar_final_norm

    def test_cubic_drift_driver(self):
        nl = DriftNonlinearity(g=lambda x: -float(x @ x),
                               grad_g=lambda x: -2.0 * x)
        sys_ = BilinearRoughSystem(A=-np.eye(2), N=(0.2 * np.eye(2),),
                                   K=np.eye(1), C=np.eye(2)[:1],
                                   x0=np.array([1.0, 0.5]),
                                   drift_nonlinearity=nl)
        path = smooth_path_from_function(
            lambda t: np.array([math.sin(2 * t)]), 0.5, 64)
        probe = smooth_quadratic_form_probe(sys_, path, 512)
        assert probe.min_eigenvalue >= -1e-6 * probe.xbar_final_norm

    def test_overflowing_gronwall_factor_raises(self, monkeypatch):
        # the coarsened H = 0.3 path has int ||W_dot||^2 dt = 1051, above
        # log(float max) = 709.8: the probe names the value and refuses the
        # path before it integrates anything
        def integrate(*args, **kwargs):
            raise AssertionError("the probe integrated an unusable path")

        monkeypatch.setattr(roughmor.solver, "integrate_gramian_ode",
                            integrate)
        path = coarsen_path(sample_fbm_path(0.3, 2, 0.5, 128, seed=2), 2)
        with pytest.raises(ArgumentError, match=r"= 1051\.1 overflows"):
            smooth_quadratic_form_probe(mild_stable_system(4, 2, seed=5),
                                        path, 512)

    def test_raw_fbm_path(self):
        # an fBm path is read as its piecewise-linear interpolant like any
        # other path; this one's factor exp(145) stays finite
        sys_ = scalar_noise_system()
        path = sample_fbm_path(0.4, 1, 0.5, 64, seed=1)
        probe = smooth_quadratic_form_probe(sys_, path, 512)
        assert probe.min_eigenvalue >= -1e-6 * probe.xbar_final_norm


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

    def test_zero_reference_is_absolute(self):
        times = np.linspace(0, 1, 5)
        z = np.zeros((5, 1))
        y = np.ones((5, 1))
        err = relative_L2_error(z, y, times)
        assert err.is_absolute and float(err) > 0

    def test_pointwise_identical(self):
        times = np.linspace(0, 1, 5)
        y = np.ones((5, 2))
        series = pointwise_relative_error(y, y, times)
        assert np.all(series.values == 0.0)

    def test_pointwise_constant_offset(self):
        times = np.linspace(0, 1, 5)
        y = np.ones((5, 1))
        series = pointwise_relative_error(y, y + 1e-3, times)
        np.testing.assert_allclose(series.values, 1e-3, atol=1e-15)
        assert not series.absolute_flags.any()

    def test_heat_pointwise_error_stays_small(self, heat_pipeline, heat_path,
                                              heat_full_sim):
        # two-stage model on the shared path: relative output error below
        # 1e-8 at every node past the startup transient (measured 3e-11)
        model, _ = heat_pipeline
        rom = rough_rk_simulate(model.system, heat_path)
        series = pointwise_relative_error(heat_full_sim.outputs, rom.outputs,
                                          heat_full_sim.times)
        after = series.times >= 0.05
        assert series.values[after].max() <= 1e-8


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
