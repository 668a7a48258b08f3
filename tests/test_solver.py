import math
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize

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
        # the drift only rescales: every state is the linear state times
        # one factor, which starts at 1 and never grows
        nl = DriftNonlinearity(g=lambda x: -float(x @ x))
        lin = BilinearRoughSystem(A=-np.eye(2), N=(0.1 * np.eye(2),),
                                  K=np.eye(1), C=np.eye(2)[:1],
                                  x0=np.array([1.0, 0.5]))
        sys_ = BilinearRoughSystem(A=lin.A, N=lin.N, K=lin.K, C=lin.C,
                                   x0=lin.x0, drift_nonlinearity=nl)
        path = sample_fbm_path(0.45, 1, 1.0, 128, seed=14)
        res = rough_rk_simulate(sys_, path)
        u = rough_rk_simulate(lin, path).states
        phi = res.states[:, 0] / u[:, 0]
        np.testing.assert_allclose(res.states, phi[:, None] * u,
                                   rtol=1e-15, atol=0)
        assert phi[0] == 1.0 and phi[-1] < 0.9
        assert np.all(np.diff(phi) <= 0.0) and np.all(phi > 0.0)

    def test_newton_norms_past_overflow_of_squares(self):
        # at x0 = 1e200 a state's squared norm overflows, but the factor
        # reads g alone: x(1)/x0 is that of the x0 = 1e100 run
        nl = DriftNonlinearity(g=lambda x: -abs(x[0]) / (1.0 + abs(x[0])))
        ratios = []
        for x0 in (1e100, 1e200):
            sys_ = BilinearRoughSystem(A=-np.eye(1), N=(np.zeros((1, 1)),),
                                       K=np.eye(1), C=np.eye(1),
                                       x0=np.array([x0]),
                                       drift_nonlinearity=nl)
            res = rough_rk_simulate(sys_, zero_path(1.0, 10))
            ratios.append(res.states[-1, 0] / x0)
        assert ratios[1] == pytest.approx(ratios[0], rel=1e-12)
        # dx/dt = -2 x to float precision: the factor is exp(-1)
        assert ratios[0] == pytest.approx(
            rough_rk_simulate(drift_only_system(-1.0),
                              zero_path(1.0, 10)).states[-1, 0]
            * math.exp(-1.0), rel=1e-12)

    def test_newton_stops_at_stage_round_off_floor(self):
        # stiff n = 1600 linear stages, ||S|| <= 6.4e4: the scalar stages
        # see only g at the linear stage values, so stiffness never enters
        # their root solves
        heat = build_heat1d(Heat1dConfig(1600))
        n = heat.n
        nl = DriftNonlinearity(g=lambda x: -float(x @ x) / n)
        lin = BilinearRoughSystem(A=heat.A, N=heat.N, K=heat.K, C=heat.C,
                                  x0=30.0 * heat.x0)
        sys_ = BilinearRoughSystem(A=lin.A, N=lin.N, K=lin.K, C=lin.C,
                                   x0=lin.x0, drift_nonlinearity=nl)
        path = sample_fbm_path(0.4, 2, 0.5, 64, 7)
        res = rough_rk_simulate(sys_, path)
        u = rough_rk_simulate(lin, path).states
        assert np.all(np.isfinite(res.states))
        phi = np.linalg.norm(res.states, axis=1) / np.linalg.norm(u, axis=1)
        assert np.all(np.diff(phi) <= 1e-15) and phi[-1] < 0.5

    def test_cubic_drift_is_contractive(self):
        # compared to the linear system, -x ||x||^2 only pulls inward, at
        # every step of the discrete scheme
        nl = DriftNonlinearity(g=lambda x: -float(x @ x))
        lin = BilinearRoughSystem(A=-np.eye(2), N=(0.1 * np.eye(2),),
                                  K=np.eye(1), C=np.eye(2)[:1],
                                  x0=np.array([2.0, 1.0]))
        cub = BilinearRoughSystem(A=lin.A, N=lin.N, K=lin.K, C=lin.C,
                                  x0=lin.x0, drift_nonlinearity=nl)
        path = sample_fbm_path(0.45, 1, 1.0, 256, seed=15)
        rl = rough_rk_simulate(lin, path)
        rc = rough_rk_simulate(cub, path)
        assert np.all(np.linalg.norm(rc.states, axis=1)
                      <= np.linalg.norm(rl.states, axis=1))
        assert np.linalg.norm(rc.states[-1]) < np.linalg.norm(rl.states[-1])

    def test_overflow_raises(self):
        # z = a dt = 0.25 keeps R(z) ~ e^z > 1, so 1e300 blows past float
        # range within ~100 steps and the stage rhs goes non-finite. A drift
        # nonlinearity rescales the linear states after they pass the same
        # test, so g = 0 and g = -1 report the same step, with no warning
        steps = []
        for nl in (None, DriftNonlinearity(g=lambda x: 0.0),
                   DriftNonlinearity(g=lambda x: -1.0)):
            sys_ = BilinearRoughSystem(A=np.array([[100.0]]),
                                       N=(np.zeros((1, 1)),), K=np.eye(1),
                                       C=np.eye(1), x0=np.array([1e300]),
                                       drift_nonlinearity=nl)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(IntegrationOverflowError) as err:
                    rough_rk_simulate(sys_, zero_path(1.0, 400))
            steps.append(err.value.step)
        assert steps[0] >= 1
        assert steps[1] == steps[2] == steps[0]

    @pytest.mark.parametrize("value, error, match", [
        (math.nan, IntegrationOverflowError, "g = nan at step 4$"),
        (1.0, ArgumentError, "violates g <= 0 at step 5:")])
    def test_bad_drift_nonlinearity_at_a_stage_raises(self, value, error,
                                                      match):
        # g = -1 at x0 = 1 and at 0, but g is nan or 1 once the state,
        # about exp(-2 t), enters (0.1, 0.5) in step 4: a stage root needs
        # a finite g anywhere, and g <= 0 where its bracket starts
        nl = DriftNonlinearity(g=lambda x: value if 0.1 < x[0] < 0.5 else -1.0)
        sys_ = BilinearRoughSystem(A=-np.eye(1), N=(np.zeros((1, 1)),),
                                   K=np.eye(1), C=np.eye(1), x0=np.ones(1),
                                   drift_nonlinearity=nl)
        with pytest.raises(error, match=match):
            rough_rk_simulate(sys_, zero_path(1.0, 10))

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


def commuting_cubic_exact(x0, path):
    # A = -I, N = 0.2 I commute, so along the piecewise-linear driver u =
    # x0 exp(e(t)) with e = -t + 0.2 W(t), linear on each segment, and g =
    # -||x||^2 gives phi^-2 = 1 + 2 int ||u||^2, each segment's integral in
    # closed form: ||x0||^2 exp(2 e_k) dt expm1(2 s dt) / (2 s dt), slope s
    dt = path.dt
    rise = -dt + 0.2 * np.diff(path.values[:, 0])
    e = np.concatenate([[0.0], np.cumsum(rise)])
    ratio = np.ones_like(rise)
    np.divide(np.expm1(2.0 * rise), 2.0 * rise, out=ratio, where=rise != 0.0)
    seg = (x0 @ x0) * np.exp(2.0 * e[:-1]) * dt * ratio
    phi = (1.0 + 2.0 * np.concatenate([[0.0], np.cumsum(seg)])) ** -0.5
    return (phi * np.exp(e))[:, None] * x0


class TestScalarFactor:
    def test_commuting_cubic_matches_exact_solution(self):
        # criterion 4's cubic fixture against its exact solution on each
        # path's own lift: the error falls with M and, at M = 256, stays
        # below the 1.61e-6 of the stage Newton this scheme replaced
        # (measured 1.50e-6, 6.35e-7 and 3.03e-7)
        x0 = np.array([1.0, 0.5, -0.5])
        sys_ = BilinearRoughSystem(
            A=-np.eye(3), N=(0.2 * np.eye(3),), K=np.eye(1), C=np.eye(3)[:1],
            x0=x0, drift_nonlinearity=DriftNonlinearity(
                g=lambda x: -float(x @ x)))
        errs = []
        for M in (256, 1024, 4096):
            path = sample_fbm_path(0.4, 1, 0.5, M, seed=311)
            exact = commuting_cubic_exact(x0, path)
            res = rough_rk_simulate(sys_, path)
            errs.append(np.abs(res.states - exact).max()
                        / np.abs(exact).max())
        assert errs[0] <= 1.61e-6
        assert errs[0] > errs[1] > errs[2]

    def test_exact_helper_solves_the_equation(self):
        # the closed form against a Crouzeix run of the nonlinear equation,
        # x' = (-1 + 0.2 W') x - x ||x||^2, on a smooth driver, where the
        # scheme's third order shows (measured 8.1e-12)
        path = smooth_path_from_function(
            lambda t: np.array([math.sin(3 * t)]), 0.5, 2 ** 10)
        x0 = np.array([1.0, 0.5, -0.5])
        exact = commuting_cubic_exact(x0, path)
        sys_ = BilinearRoughSystem(
            A=-np.eye(3), N=(0.2 * np.eye(3),), K=np.eye(1), C=np.eye(3)[:1],
            x0=x0, drift_nonlinearity=DriftNonlinearity(
                g=lambda x: -float(x @ x)))
        res = rough_rk_simulate(sys_, path)
        assert np.abs(res.states - exact).max() <= 1e-10

    @pytest.mark.parametrize("M", [512, 1024])
    def test_crouzeix_blow_up_paths_integrate(self, M):
        # heat n = 30 with g = -||x||^2 / n on seed 7: the linear Crouzeix
        # state reaches 6e6 and 3e23 on these paths; the factor keeps every
        # state finite and below ||u_k||
        heat = build_heat1d(Heat1dConfig(30))
        n = heat.n
        sys_ = BilinearRoughSystem(
            A=heat.A, N=heat.N, K=heat.K, C=heat.C, x0=heat.x0,
            drift_nonlinearity=DriftNonlinearity(
                g=lambda x: -float(x @ x) / n))
        path = sample_fbm_path(0.4, 2, 0.5, M, 7)
        x = rough_rk_simulate(sys_, path).states
        u = rough_rk_simulate(heat, path).states
        assert np.all(np.isfinite(x))
        assert np.abs(u).max() >= 1e6
        assert np.all(np.linalg.norm(x, axis=1) <= np.linalg.norm(u, axis=1))

    @pytest.mark.parametrize("g", [
        lambda x: -float(x @ x) / 30.0,
        lambda x: -1.0 / (1e-3 + float(x @ x))], ids=["cubic", "falling"])
    def test_stage_roots_take_few_evaluations(self, g):
        # about 6.6 and 1.9 evaluations of g a stage (heat n = 30, seed 7,
        # M = 1024). Where u reaches 3e23, the falling g's stage gaps
        # h g(exp(b) U) drop below the last place of b, and widening them
        # to b's resolution took about 34 evaluations a stage
        calls = []

        def counted(x):
            calls.append(1)
            return g(x)
        heat = build_heat1d(Heat1dConfig(30))
        sys_ = BilinearRoughSystem(
            A=heat.A, N=heat.N, K=heat.K, C=heat.C, x0=heat.x0,
            drift_nonlinearity=DriftNonlinearity(g=counted))
        calls.clear()  # not the checks at x0 and 0
        rough_rk_simulate(sys_, sample_fbm_path(0.4, 2, 0.5, 1024, 7))
        assert len(calls) <= 8 * 2 * 1024


def covariance_root(K):
    # the symmetric PSD square root of K, computed here rather than read
    # from the system
    w, V = scipy.linalg.eigh(K)
    return (V * np.sqrt(np.clip(w, 0.0, None))) @ V.T


def dense_stage_g(g, U, b, h):
    # g at the root p <= b of p = b + h g(exp(p) U), by brentq on a
    # bracket [b - w, b] whose width doubles until it holds the root
    def F(p):
        return p - b - h * float(g(math.exp(p) * U))
    w = 1.0
    while F(b - w) > 0.0:
        w *= 2.0
    return float(g(math.exp(scipy.optimize.brentq(
        F, b - w, b, xtol=1e-300, rtol=4 * np.finfo(float).eps)) * U))


def dense_crouzeix_states(sys_, path):
    # the scheme written with dense solves of I - a11 G, no band storage;
    # with a drift nonlinearity, the linear states times exp(psi), psi from
    # the same tableau at the linear stage values with brentq stage roots
    a11, nl = roughmor.solver.A11, sys_.drift_nonlinearity
    eye = np.eye(sys_.n)
    dt = path.dt
    z, psi = sys_.x0.copy(), 0.0
    states, psis = [z], [psi]
    root = covariance_root(sys_.K)
    for dw in np.diff(path.values, axis=0):
        s = root @ dw
        G = sys_.A * dt + sum(s_m * N_m for s_m, N_m in zip(s, sys_.N))
        U1 = np.linalg.solve(eye - a11 * G, z)
        U2 = np.linalg.solve(eye - a11 * G, z + roughmor.solver.A21 * G @ U1)
        z = z + 0.5 * (G @ U1 + G @ U2)
        states.append(z)
        if nl is not None:
            g1 = dense_stage_g(nl.g, U1, psi, a11 * dt)
            g2 = dense_stage_g(nl.g, U2, psi + roughmor.solver.A21 * dt * g1,
                               a11 * dt)
            psi += 0.5 * dt * (g1 + g2)
        psis.append(psi)
    return np.exp(psis)[:, None] * np.array(states)


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
        ref = dense_crouzeix_states(sys_, path)
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
        ref = dense_crouzeix_states(dense, path)
        res = rough_rk_simulate(dense, path)
        assert np.abs(res.states - ref).max() <= 1e-12 * np.abs(ref).max()
        np.testing.assert_allclose(res.outputs, rough_rk_simulate(
            sys_, path).outputs, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("case", ["cubic3", "banded", "heat30",
                                      "falling"])
    def test_newton_matches_dense_reference(self, case):
        # band LUs and Illinois stage roots against dense solves and brentq
        g = lambda x: -float(x @ x)
        if case in ("cubic3", "falling"):
            base = BilinearRoughSystem(A=-np.eye(3), N=(0.2 * np.eye(3),),
                                       K=np.eye(1), C=np.eye(3)[:1],
                                       x0=np.array([1.0, 0.5, -0.5]))
            path = sample_fbm_path(0.45, 1, 1.0, 128, seed=14)
            if case == "falling":
                # g falls as the state shrinks: the bracket has to widen
                g = lambda x: -1.0 / (0.01 + float(x @ x))
        elif case == "heat30":
            # stiff tridiagonal stages
            heat = build_heat1d(Heat1dConfig(30))
            base = BilinearRoughSystem(A=heat.A, N=heat.N, K=heat.K,
                                       C=heat.C, x0=5.0 * heat.x0)
            path = sample_fbm_path(0.4, 2, 0.5, 128, 7)
        else:
            base = self.banded_system()
            path = sample_fbm_path(0.4, 2, 1.0, 64, seed=22)
        sys_ = BilinearRoughSystem(A=base.A, N=base.N, K=base.K, C=base.C,
                                   x0=base.x0,
                                   drift_nonlinearity=DriftNonlinearity(g))
        ref = dense_crouzeix_states(sys_, path)
        res = rough_rk_simulate(sys_, path)
        assert np.abs(res.states - ref).max() <= 1e-12 * np.abs(ref).max()
        lin = dense_crouzeix_states(base, path)
        assert np.linalg.norm(ref[-1]) < 0.9 * np.linalg.norm(lin[-1])


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
        ref = dense_crouzeix_states(sys_, path)
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
        ref = dense_crouzeix_states(sys_, path)
        res = rough_rk_simulate(sys_, path)
        assert np.abs(res.states - ref).max() <= 1e-12 * np.abs(ref).max()


def step_by_step_states(sys_, path):
    # the linear route as one step at a time: the step's stage matrix from
    # its own product of coefficients and band rows, its LU and pivot test,
    # the two stages and the finiteness check, each before the next step.
    # Returns the states and the smallest pivot ratio, or raises as the step
    # that fails
    solver = roughmor.solver
    a11, n, M = solver.A11, sys_.n, path.M
    eps = np.finfo(float).eps
    mats = (sys_.A, *sys_.N_tilde)
    kl, ku = np.max([scipy.linalg.bandwidth(X) for X in mats], axis=0)
    width = kl + ku + 1
    bands = -a11 * np.stack([solver._band_rows(X, kl, ku).ravel()
                             for X in mats])
    coefs, bounds = solver._step_coefficients(sys_, path)
    S = np.empty((n, width))
    ab = np.empty((n, ku + width))
    pivots = np.empty(M)
    states = np.empty((M + 1, n))
    states[0] = sys_.x0
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(M):
            np.matmul(coefs[k], bands, out=S.reshape(-1))
            S[:, kl] += 1.0
            ab[:, ku:] = S
            lu, piv, _ = solver.lu_factor(ab.T, ku, kl, overwrite_ab=1)
            pivots[k] = np.abs(lu[kl + ku]).min()
            if pivots[k] <= eps * n * bounds[k]:
                raise StepFailureError("singular", step=k)

            def stage(c):
                Z = scipy.linalg.lapack.dgbtrs(lu, ku, kl, c, piv,
                                               trans=1)[0]
                return (Z - c) / a11
            z = states[k]
            F1 = stage(z)
            F2 = stage(z + solver.A21 * F1)
            z_next = z + solver.B1 * F1 + solver.B2 * F2
            if not np.isfinite(z_next).all():
                raise IntegrationOverflowError("overflow", step=k + 1)
            states[k + 1] = z_next
    return states, float((pivots / bounds).min())


def lu_calls(monkeypatch):
    # count the integrator's factorizations through its module-global name
    calls = []
    factor = roughmor.solver.lu_factor

    def counted(*args, **kwargs):
        calls.append(1)
        return factor(*args, **kwargs)
    monkeypatch.setattr(roughmor.solver, "lu_factor", counted)
    return calls


class TestChunkedSteps:
    # chunks of 8 steps for a diagonal system with n = 2: a step's arrays
    # are its band rows and their LAPACK band storage, 8 (ku + 2 width) n
    # = 32 bytes
    CHUNK = 8

    @pytest.mark.parametrize("budget", [None, 1, 7 * 8 * 30 * 7])
    def test_heat_matches_step_by_step_loop_bitwise(self, monkeypatch,
                                                    budget):
        # heat n = 30 is tridiagonal, 8 (1 + 2 * 3) n bytes a step: the
        # default budget holds all 100 steps in one chunk, the others hold
        # 1 and 7, so 100 steps end in a partial chunk
        if budget is not None:
            monkeypatch.setattr(roughmor.solver, "_CHUNK_BYTES", budget)
        sys_ = build_heat1d(Heat1dConfig(30))
        path = sample_fbm_path(0.4, 2, 0.5, 100, seed=35)
        ref, ref_ratio = step_by_step_states(sys_, path)
        res = rough_rk_simulate(sys_, path)
        assert np.array_equal(res.states, ref)
        assert res.min_pivot_ratio == ref_ratio

    @pytest.mark.parametrize("budget", [None, 1, 5 * 8 * 12 * 57])
    def test_dense_matches_step_by_step_loop_bitwise(self, monkeypatch,
                                                     budget):
        # a dense n = 12 model with correlated noise, 8 (11 + 2 * 23) n
        # bytes a step: chunks of all 101 steps, of 1 and of 5
        if budget is not None:
            monkeypatch.setattr(roughmor.solver, "_CHUNK_BYTES", budget)
        base = mild_stable_system(12, 2, seed=31)
        sys_ = BilinearRoughSystem(A=base.A, N=base.N, K=NON_DIAGONAL_K,
                                   C=base.C, x0=base.x0)
        path = sample_fbm_path(0.4, 2, 1.0, 101, seed=32)
        ref, ref_ratio = step_by_step_states(sys_, path)
        res = rough_rk_simulate(sys_, path)
        assert np.array_equal(res.states, ref)
        assert res.min_pivot_ratio == ref_ratio

    @staticmethod
    def two_channel_system(nl=None):
        # G = dt A + dW_1 diag(1, 0) + dW_2 diag(0, 1) with A = 0: a step
        # with dW_1 = 1 / a11 has a singular stage matrix, one with dW_2 =
        # (1 - 1e-10) / a11 a regular one whose stage values overflow from
        # x0[1] = 1e300
        return BilinearRoughSystem(
            A=np.zeros((2, 2)), N=(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])),
            K=np.eye(2), C=np.eye(2)[:1], x0=np.array([1.0, 1e300]),
            drift_nonlinearity=nl)

    def fail(self, monkeypatch, singular=(), overflow=(), M=20):
        # run the linear route and g = 0, which rescales the same states
        # after the same tests, on a path whose listed steps are singular
        # or overflow; return the error and the factorizations made, the
        # same for both
        monkeypatch.setattr(roughmor.solver, "_CHUNK_BYTES", 32 * self.CHUNK)
        a11 = roughmor.solver.A11
        dW = np.zeros((M, 2))
        dW[list(singular), 0] = 1.0 / a11
        dW[list(overflow), 1] = (1.0 - 1e-10) / a11
        path = DriverPath(T=1.0, values=np.vstack([np.zeros(2),
                                                   np.cumsum(dW, axis=0)]))
        assert np.array_equal(np.diff(path.values, axis=0), dW)
        runs = []
        for nl in (None, DriftNonlinearity(g=lambda x: 0.0)):
            calls = lu_calls(monkeypatch)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises((StepFailureError,
                                    IntegrationOverflowError)) as err:
                    rough_rk_simulate(self.two_channel_system(nl), path)
            runs.append((type(err.value), err.value.step, len(calls)))
        with pytest.raises(runs[0][0]) as err:
            step_by_step_states(self.two_channel_system(), path)
        assert err.value.step == runs[0][1]
        assert runs[1] == runs[0]
        return runs[0]

    def test_singular_step_in_the_middle_of_a_chunk(self, monkeypatch):
        # the whole first chunk is factored before its tests run
        assert (self.fail(monkeypatch, singular=(3, 5))
                == (StepFailureError, 3, self.CHUNK))

    def test_singular_first_step_of_second_chunk(self, monkeypatch):
        assert (self.fail(monkeypatch, singular=(self.CHUNK,))
                == (StepFailureError, self.CHUNK, 2 * self.CHUNK))

    def test_overflow_before_a_later_singular_step(self, monkeypatch):
        # step 2's new state overflows, step 6 of the same chunk is singular
        assert (self.fail(monkeypatch, singular=(6,), overflow=(2,))
                == (IntegrationOverflowError, 3, self.CHUNK))

    def test_singular_step_before_its_own_overflow(self, monkeypatch):
        # a step that is singular and whose state also overflows reports
        # the singular stage matrix, its first test
        assert (self.fail(monkeypatch, singular=(4,), overflow=(4,))
                == (StepFailureError, 4, self.CHUNK))


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
        # integrator's scalar factor is checked in more than one direction
        nl = DriftNonlinearity(g=lambda x: -float(x @ x))
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
