import math
import re
import warnings

import numpy as np
import pytest

from roughmor import (ArgumentError, BilinearRoughSystem, DriftNonlinearity,
                      Heat1dConfig, LyapunovOperator, NumericalError,
                      build_heat1d, is_mean_square_stable,
                      monte_carlo_second_moment, resolvent_positivity_probe,
                      solve_algebraic_gramian, solve_algebraic_gramian_dense)
from roughmor._fixtures import mild_stable_system, scalar_noise_system, \
    unstable_system
from roughmor._lyap import SchurLyapunov


def kron_operator(A, N, K):
    # independent vectorization oracle: L(X) <-> M vec(X), column-major
    n = A.shape[0]
    eye = np.eye(n)
    M = np.kron(eye, A) + np.kron(A, eye)
    for i in range(len(N)):
        for j in range(len(N)):
            M = M + K[i, j] * np.kron(N[j], N[i])
    return M


# a correlated covariance, for the checks that K enters exactly once
NON_DIAGONAL_K = np.array([[1.0, 0.6], [0.6, 0.5]])


def simple_system(A, N, K, C=None, x0=None):
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    if C is None:
        C = np.eye(n)[:1]
    if x0 is None:
        x0 = np.ones(n)
    return BilinearRoughSystem(A=np.asarray(A, dtype=float),
                               N=tuple(np.asarray(Ni, dtype=float)
                                       for Ni in N),
                               K=np.asarray(K, dtype=float),
                               C=np.asarray(C, dtype=float),
                               x0=np.asarray(x0, dtype=float))


class TestApplyLyapunov:
    def test_vanishes_for_zero_coefficients(self):
        sys_ = simple_system(np.zeros((2, 2)), [np.zeros((2, 2))], np.eye(1))
        X = np.array([[1.0, 2.0], [2.0, -3.0]])
        assert np.all(LyapunovOperator(sys_)(X) == 0.0)

    def test_pure_drift_identity(self):
        sys_ = simple_system(np.eye(2), [np.zeros((2, 2))], np.eye(1))
        np.testing.assert_allclose(LyapunovOperator(sys_)(np.eye(2)),
                                   2.0 * np.eye(2), rtol=0, atol=0)

    def test_matches_kronecker_oracle(self):
        A = np.array([[0.0, 1.0], [0.0, 0.0]])
        N1 = np.array([[0.0, 0.0], [1.0, 0.0]])
        K = np.array([[1.0]])
        sys_ = simple_system(A, [N1], K)
        X = np.eye(2)
        M = kron_operator(A, [N1], K)
        expected = (M @ X.reshape(-1, order="F")).reshape(2, 2, order="F")
        np.testing.assert_allclose(LyapunovOperator(sys_)(X), expected,
                                   atol=1e-15)

    def test_adjoint_zero_case(self):
        sys_ = simple_system(np.zeros((2, 2)), [np.zeros((2, 2))], np.eye(1))
        assert np.all(LyapunovOperator(sys_, "obs")(np.eye(2)) == 0.0)

    def test_adjoint_identity_random(self):
        rng = np.random.default_rng(11)
        A = rng.standard_normal((5, 5))
        N = [rng.standard_normal((5, 5)) for _ in range(2)]
        R = rng.standard_normal((2, 2))
        K = R @ R.T
        sys_ = simple_system(A, N, K)
        X = rng.standard_normal((5, 5))
        X = X + X.T
        Y = rng.standard_normal((5, 5))
        Y = Y + Y.T
        lhs = np.sum(LyapunovOperator(sys_)(X) * Y)
        rhs = np.sum(X * LyapunovOperator(sys_, "obs")(Y))
        assert abs(lhs - rhs) <= 1e-10 * np.linalg.norm(X) * np.linalg.norm(Y)

    def test_adjoint_matches_transposed_kronecker_oracle(self):
        A = np.array([[0.0, 1.0], [0.0, 0.0]])
        N1 = np.array([[0.0, 0.0], [1.0, 0.0]])
        K = np.array([[1.0]])
        sys_ = simple_system(A, [N1], K)
        X = np.eye(2)
        M = kron_operator(A.T, [N1.T], K)
        expected = (M @ X.reshape(-1, order="F")).reshape(2, 2, order="F")
        np.testing.assert_allclose(LyapunovOperator(sys_, "obs")(X),
                                   expected, atol=1e-15)

    @pytest.mark.parametrize("side", ["reach", "obs"])
    def test_non_diagonal_covariance_matches_kronecker_oracle(self, side):
        # the operator reads K through the mixed matrices Nt_m only; the
        # oracle weighs the pairs N_i X N_j^T by k_ij
        base = mild_stable_system(4, 2, seed=12)
        sys_ = simple_system(base.A, base.N, NON_DIAGONAL_K)
        A, N = (base.A, base.N) if side == "reach" \
            else (base.A.T, [Ni.T for Ni in base.N])
        M = kron_operator(A, N, NON_DIAGONAL_K)
        X = np.random.default_rng(13).standard_normal((4, 4))
        X = X + X.T
        expected = (M @ X.reshape(-1, order="F")).reshape(4, 4, order="F")
        op = LyapunovOperator(sys_, side)
        np.testing.assert_allclose(op(X), expected, rtol=0,
                                   atol=1e-13 * np.abs(expected).max())
        np.testing.assert_allclose(op.matrix(), M, rtol=0,
                                   atol=1e-13 * np.abs(M).max())

    @pytest.mark.parametrize("side", ["reach", "obs"])
    def test_backward_error_bound_reads_given_noise(self, side):
        # l = 2 ||A|| + sum_ij |k_ij| ||N_i|| ||N_j|| over the given N_i and
        # K, not the folded 2 ||A|| + sum_m ||Nt_m||^2, which differs here
        base = mild_stable_system(4, 2, seed=12)
        sys_ = simple_system(base.A, base.N, NON_DIAGONAL_K)

        def norm(M):
            return np.sqrt(np.linalg.norm(M, 1) * np.linalg.norm(M, np.inf))
        given = 2.0 * norm(sys_.A) + sum(
            abs(NON_DIAGONAL_K[i, j]) * norm(sys_.N[i]) * norm(sys_.N[j])
            for i in range(2) for j in range(2))
        folded = 2.0 * norm(sys_.A) + sum(norm(Nm) ** 2
                                          for Nm in sys_.N_tilde)
        assert abs(folded - given) > 1e-3 * given
        op = LyapunovOperator(sys_, side)
        assert op.ell == pytest.approx(given, rel=1e-15)
        G = np.eye(4)
        eta = np.linalg.norm(op.residual(G)) / (np.linalg.norm(op.rhs)
                                                + given * np.linalg.norm(G))
        assert op.errors(G)[1] == pytest.approx(eta, rel=1e-12)

    def test_preserves_symmetry(self):
        rng = np.random.default_rng(5)
        sys_ = mild_stable_system(4, 2, seed=3)
        X = rng.standard_normal((4, 4))
        X = X + X.T
        L = LyapunovOperator(sys_)(X)
        np.testing.assert_allclose(L, L.T, atol=1e-14)


class TestMatrixRepresentation:
    def test_scalar_case(self):
        a, nu, k = -1.5, 0.7, 2.0
        sys_ = simple_system([[a]], [[[nu]]], [[k]], C=[[1.0]], x0=[1.0])
        M = LyapunovOperator(sys_).matrix()
        np.testing.assert_allclose(M, [[2 * a + nu ** 2 * k]], atol=1e-15)

    def test_zero_system(self):
        sys_ = simple_system(np.zeros((2, 2)), [np.zeros((2, 2))], np.eye(1))
        assert np.all(LyapunovOperator(sys_).matrix() == 0.0)

    def test_consistent_with_apply(self):
        sys_ = mild_stable_system(2, 2, seed=8)
        rng = np.random.default_rng(0)
        X = rng.standard_normal((2, 2))
        X = X + X.T
        for side in ("reach", "obs"):
            op = LyapunovOperator(sys_, side)
            via_matrix = (op.matrix() @ X.reshape(-1, order="F")).reshape(
                2, 2, order="F")
            np.testing.assert_allclose(op(X), via_matrix, atol=1e-12)

    def test_dense_threshold_guard(self):
        # n = 31 crosses DENSE_MAX_ORDER; the guard fires before any
        # Kronecker product is formed, also for the dense Gramian solve and
        # for the Monte-Carlo oracle that cross-checks the dense routes
        sys_ = simple_system(-np.eye(31), [np.zeros((31, 31))], np.eye(1))
        with pytest.raises(ArgumentError, match="limited to n <= 30"):
            LyapunovOperator(sys_).matrix()
        with pytest.raises(ArgumentError, match="limited to n <= 30"):
            solve_algebraic_gramian_dense(sys_, "reach")
        with pytest.raises(ArgumentError, match="limited to n <= 30"):
            monte_carlo_second_moment(sys_, "reach", T=1.0, n_paths=10,
                                      dt=0.5, seed=0)


def dense_abscissa(sys_):
    return float(np.linalg.eigvals(
        LyapunovOperator(sys_).matrix()).real.max())


def splitting_radius(sys_):
    # dense oracle for rho: the spectral radius of -L_A^{-1} Pi from the
    # Kronecker matrices, independent of the Schur solve
    L_A = kron_operator(sys_.A, (), sys_.K)
    Pi = kron_operator(sys_.A, sys_.N, sys_.K) - L_A
    return float(np.abs(np.linalg.eigvals(np.linalg.solve(-L_A, Pi))).max())


def nilpotent_system(n, c, seed, rotate):
    # A = -I and N = c times a strictly lower-triangular Gaussian matrix, so
    # X -> -L_A^{-1}(Pi(X)) = N X N^T / 2 is nilpotent and rho = 0; a random
    # orthogonal similarity hides the structural zeros
    rng = np.random.default_rng(seed)
    A = -np.eye(n)
    N = c * np.tril(rng.standard_normal((n, n)), -1)
    if rotate:
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        A, N = Q @ A @ Q.T, Q @ N @ Q.T
    return simple_system(A, [N], np.eye(1))


def assert_brackets(report, rho):
    # the bounds hold rho up to round-off
    slack = 1e-12 * max(rho, 1.0)
    assert report.lower - slack <= rho <= report.upper + slack


class TestStability:
    def test_scalar_stable_closed_form(self):
        # 2a + nu^2 k = -1, rho = nu^2 k / (2 |a|) = 0.5
        sys_ = scalar_noise_system(a=-1.0, nu=1.0)
        report = is_mean_square_stable(sys_)
        assert report.is_mean_square_stable
        assert abs(report.lower - 0.5) <= 1e-12
        assert abs(report.upper - 0.5) <= 1e-12
        assert abs(dense_abscissa(sys_) - (-1.0)) <= 1e-12

    def test_scalar_unstable_closed_form(self):
        # a = 0 is not Hurwitz, so the noise part never enters
        sys_ = scalar_noise_system(a=0.0, nu=1.0)
        report = is_mean_square_stable(sys_)
        assert not report.is_mean_square_stable
        assert report.lower is None and report.upper is None
        assert abs(dense_abscissa(sys_) - 1.0) <= 1e-12

    def test_iterative_agrees_with_dense(self):
        systems = [mild_stable_system(5, 2, seed=seed) for seed in (2, 3, 4, 5)]
        systems.append(mild_stable_system(10, 2, seed=0))
        for sys_ in systems:
            report = is_mean_square_stable(sys_)
            assert (dense_abscissa(sys_) < 0.0) == report.is_mean_square_stable
            assert report.upper < 1.0
            assert_brackets(report, splitting_radius(sys_))

    def test_decides_near_the_boundary(self):
        # decay 0.01 and -0.01 put rho at 0.989 and 1.011, both with a
        # Hurwitz drift: "unstable" needs a lower bound above 1
        for decay in (0.01, -0.01):
            sys_ = mild_stable_system(8, 2, seed=0, decay=decay)
            report = is_mean_square_stable(sys_)
            stable = dense_abscissa(sys_) < 0.0
            assert report.is_mean_square_stable is stable
            assert (report.upper < 1.0) if stable else (report.lower > 1.0)
            assert_brackets(report, splitting_radius(sys_))

    def test_heat_gate_solve_count(self, monkeypatch):
        calls = []
        solve = SchurLyapunov.solve_neg

        def counting(self, Q):
            calls.append(1)
            return solve(self, Q)

        monkeypatch.setattr(SchurLyapunov, "solve_neg", counting)
        for n in (100, 200):
            calls.clear()
            report = is_mean_square_stable(
                build_heat1d(Heat1dConfig(n)))
            assert report.is_mean_square_stable
            assert report.solves == len(calls) == 1

    def test_overflowing_iterates_end_undecided(self):
        # rho = 5000 with the singular eigenvector e1 e1^T: no positive
        # definite candidate proves it, and the power iterates overflow
        # within the solve cap; the gate gives up with the bracket instead
        # of failing on non-finite values, and the overflow warns nobody
        sys_ = simple_system(-np.eye(2), [np.diag([100.0, 0.0])], np.eye(1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="undecided after 84"):
                is_mean_square_stable(sys_)

    def test_iterative_rejects_non_hurwitz_drift(self):
        report = is_mean_square_stable(unstable_system())
        assert not report.is_mean_square_stable
        assert report.lower is None and report.upper is None

    def test_complex_pair_drift(self):
        # A = [[eps, 2], [-2, eps]] has eigenvalues eps +- 2i and N = nu I,
        # so rho = nu^2 / (2 |eps|) when eps < 0, and T(I) = rho I gives it
        # exactly on both bounds. The sheared copy S A S^{-1} has diagonal
        # eps -+ 1: only the standardized Schur form shows the real part eps
        # there.
        shear = np.array([[1.0, 0.5], [0.0, 1.0]])
        for eps, nu, stable, rho in ((-1e-3, 0.01, True, 0.05),
                                     (-1e-3, 0.1, False, 5.0),
                                     (1e-3, 0.01, False, None)):
            A = np.array([[eps, 2.0], [-2.0, eps]])
            for sheared, drift in ((False, A),
                                   (True, shear @ A @ np.linalg.inv(shear))):
                report = is_mean_square_stable(
                    simple_system(drift, [nu * np.eye(2)], np.eye(1)))
                assert report.is_mean_square_stable is stable
                if rho is None:
                    assert report.lower is None and report.upper is None
                elif sheared:
                    assert_brackets(report, rho)
                else:
                    assert abs(report.lower - rho) <= 1e-8 * rho
                    assert abs(report.upper - rho) <= 1e-8 * rho


class TestNilpotentSplitting:
    # rho = 0, but round-off enters every iterate; none of these systems may
    # be called unstable

    @pytest.mark.parametrize("rotate", (False, True))
    def test_order_40_is_stable(self, rotate):
        report = is_mean_square_stable(nilpotent_system(40, 1.0, 0, rotate))
        assert report.is_mean_square_stable
        assert report.upper < 1.0

    @pytest.mark.parametrize("rotate", (False, True))
    def test_order_20_is_stable_or_undecided(self, rotate):
        # ||L^{-1}(I)|| is near 1e15 here, so the bracket may stay open
        try:
            report = is_mean_square_stable(
                nilpotent_system(20, 4.0, 0, rotate))
        except NumericalError as exc:
            assert re.search(r"\[\S+, \S+\]", str(exc)), str(exc)
        else:
            assert report.is_mean_square_stable

    def test_round_off_does_not_lift_the_lower_bound(self):
        # the Neumann sums of this system reach cond 1e17, where the pencil's
        # lower bound read 0.67 against the true rho = 0; the gate reads no
        # bound at such candidates
        with pytest.raises(NumericalError) as info:
            is_mean_square_stable(nilpotent_system(20, 8.0, 8, rotate=True))
        lower = float(re.search(r"\[(\S+),", str(info.value)).group(1))
        assert lower < 1e-6

    def test_undecided_gramian_solve(self):
        sys_ = nilpotent_system(20, 4.0, 0, rotate=False)
        with pytest.raises(NumericalError):
            solve_algebraic_gramian(sys_, "reach")


class TestResolventPositivityProbe:
    def test_zero_system_pairing(self):
        sys_ = simple_system(np.zeros((3, 3)), [np.zeros((3, 3))], np.eye(1))
        assert resolvent_positivity_probe(sys_, trials=100, seed=0) == 0.0

    def test_identity_diffusion_nonnegative(self):
        sys_ = simple_system(np.zeros((3, 3)), [np.eye(3)], np.eye(1))
        assert resolvent_positivity_probe(sys_, trials=1000, seed=1) >= 0.0

    def test_random_stable_system_bound(self):
        sys_ = mild_stable_system(6, 2, seed=42)
        assert resolvent_positivity_probe(sys_, trials=10_000,
                                          seed=7) >= -1e-10

    def test_scale_free(self):
        # the pairing and the scale ||A|| + sum_i ||N_i||^2 ||K|| both grow
        # by 2^20 under A -> 2^20 A, N_i -> 2^10 N_i
        sys_ = mild_stable_system(6, 2, seed=42)
        big = BilinearRoughSystem(A=2.0 ** 20 * sys_.A,
                                  N=tuple(2.0 ** 10 * Ni for Ni in sys_.N),
                                  K=sys_.K, C=sys_.C, x0=sys_.x0)
        ratios = [resolvent_positivity_probe(s, trials=1000, seed=7)
                  for s in (sys_, big)]
        assert ratios[0] != 0.0
        assert abs(ratios[1] - ratios[0]) <= 1e-12 * abs(ratios[0])
        # a Python float, so a verdict read off it is a bool json can write
        assert type(ratios[1]) is float

    def test_negative_seed(self):
        with pytest.raises(ArgumentError, match="seed must be >= 0"):
            resolvent_positivity_probe(mild_stable_system(3, 1, seed=99),
                                       trials=10, seed=-1)

    def test_needs_two_dimensions(self):
        with pytest.raises(ArgumentError):
            resolvent_positivity_probe(scalar_noise_system(), trials=10,
                                       seed=0)


class TestSystemValidation:
    def test_shape_mismatch(self):
        with pytest.raises(ArgumentError):
            simple_system(np.zeros((2, 2)), [np.zeros((3, 3))], np.eye(1))

    def test_asymmetric_covariance(self):
        with pytest.raises(ArgumentError):
            simple_system(np.zeros((2, 2)), [np.zeros((2, 2))] * 2,
                          [[1.0, 0.5], [0.0, 1.0]])

    def test_indefinite_covariance(self):
        with pytest.raises(ArgumentError):
            simple_system(np.zeros((2, 2)), [np.zeros((2, 2))] * 2,
                          [[1.0, 0.0], [0.0, -1.0]])

    @pytest.mark.parametrize("field", ["A", "N", "K", "C", "x0"])
    def test_non_finite_entry_rejected(self, field):
        data = dict(A=-np.eye(2), N=(np.zeros((2, 2)), np.zeros((2, 2))),
                    K=np.eye(2), C=np.eye(2)[:1], x0=np.ones(2))
        if field == "N":
            # the second noise matrix, so the check covers every N_i
            data["N"][1][0, 1] = np.inf
        else:
            data[field][-1, ...] = np.inf
        with pytest.raises(ArgumentError, match="non-finite"):
            BilinearRoughSystem(**data)

    def test_covariance_square_root(self):
        # the square root folded into the mixed matrices reproduces the
        # pairs: sum_m Nt_m X Nt_m^T = sum_ij k_ij N_i X N_j^T, here for a
        # singular PSD K of rank 2 with d = 3
        rng = np.random.default_rng(6)
        B = rng.standard_normal((3, 2))
        N = [rng.standard_normal((4, 4)) for _ in range(3)]
        sys_ = simple_system(-np.eye(4), N, B @ B.T)
        assert np.linalg.matrix_rank(sys_.K) == 2
        X = rng.standard_normal((4, 4))
        pairs = sum(sys_.K[i, j] * (N[i] @ X @ N[j].T)
                    for i in range(3) for j in range(3))
        mixed = sum(Nm @ X @ Nm.T for Nm in sys_.N_tilde)
        np.testing.assert_allclose(mixed, pairs, rtol=0,
                                   atol=1e-12 * np.abs(pairs).max())

    def test_positive_drift_sign_rejected(self):
        # g > 0, or a nan that no comparison with 0 catches, at x0 or 0
        for value in (1.0, math.nan):
            nl = DriftNonlinearity(g=lambda x, v=value: v)
            with pytest.raises(ArgumentError, match="violates g <= 0"):
                BilinearRoughSystem(A=-np.eye(2), N=(np.zeros((2, 2)),),
                                    K=np.eye(1), C=np.eye(2)[:1],
                                    x0=np.ones(2), drift_nonlinearity=nl)
