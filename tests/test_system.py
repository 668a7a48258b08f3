import numpy as np
import pytest

from roughmor import (ArgumentError, BilinearRoughSystem, CapabilityError,
                      DriftNonlinearity, apply_lyapunov,
                      apply_lyapunov_adjoint, drift_f, is_mean_square_stable,
                      lyapunov_matrix_representation, positivity_scale,
                      resolvent_positivity_probe)
from roughmor._fixtures import mild_stable_system, scalar_noise_system, \
    unstable_system


def kron_operator(A, N, K):
    # independent vectorization oracle: L(X) <-> M vec(X), column-major
    n = A.shape[0]
    eye = np.eye(n)
    M = np.kron(eye, A) + np.kron(A, eye)
    for i in range(len(N)):
        for j in range(len(N)):
            M = M + K[i, j] * np.kron(N[j], N[i])
    return M


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
        assert np.all(apply_lyapunov(sys_, X) == 0.0)

    def test_pure_drift_identity(self):
        sys_ = simple_system(np.eye(2), [np.zeros((2, 2))], np.eye(1))
        np.testing.assert_allclose(apply_lyapunov(sys_, np.eye(2)),
                                   2.0 * np.eye(2), rtol=0, atol=0)

    def test_matches_kronecker_oracle(self):
        A = np.array([[0.0, 1.0], [0.0, 0.0]])
        N1 = np.array([[0.0, 0.0], [1.0, 0.0]])
        K = np.array([[1.0]])
        sys_ = simple_system(A, [N1], K)
        X = np.eye(2)
        M = kron_operator(A, [N1], K)
        expected = (M @ X.reshape(-1, order="F")).reshape(2, 2, order="F")
        np.testing.assert_allclose(apply_lyapunov(sys_, X), expected,
                                   atol=1e-15)

    def test_adjoint_zero_case(self):
        sys_ = simple_system(np.zeros((2, 2)), [np.zeros((2, 2))], np.eye(1))
        assert np.all(apply_lyapunov_adjoint(sys_, np.eye(2)) == 0.0)

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
        lhs = np.sum(apply_lyapunov(sys_, X) * Y)
        rhs = np.sum(X * apply_lyapunov_adjoint(sys_, Y))
        assert abs(lhs - rhs) <= 1e-10 * np.linalg.norm(X) * np.linalg.norm(Y)

    def test_adjoint_matches_transposed_kronecker_oracle(self):
        A = np.array([[0.0, 1.0], [0.0, 0.0]])
        N1 = np.array([[0.0, 0.0], [1.0, 0.0]])
        K = np.array([[1.0]])
        sys_ = simple_system(A, [N1], K)
        X = np.eye(2)
        M = kron_operator(A.T, [N1.T], K)
        expected = (M @ X.reshape(-1, order="F")).reshape(2, 2, order="F")
        np.testing.assert_allclose(apply_lyapunov_adjoint(sys_, X), expected,
                                   atol=1e-15)

    def test_preserves_symmetry(self):
        rng = np.random.default_rng(5)
        sys_ = mild_stable_system(4, 2, seed=3)
        X = rng.standard_normal((4, 4))
        X = X + X.T
        L = apply_lyapunov(sys_, X)
        np.testing.assert_allclose(L, L.T, atol=1e-14)


class TestMatrixRepresentation:
    def test_scalar_case(self):
        a, nu, k = -1.5, 0.7, 2.0
        sys_ = simple_system([[a]], [[[nu]]], [[k]], C=[[1.0]], x0=[1.0])
        M = lyapunov_matrix_representation(sys_)
        np.testing.assert_allclose(M, [[2 * a + nu ** 2 * k]], atol=1e-15)

    def test_zero_system(self):
        sys_ = simple_system(np.zeros((2, 2)), [np.zeros((2, 2))], np.eye(1))
        assert np.all(lyapunov_matrix_representation(sys_) == 0.0)

    def test_consistent_with_apply(self):
        sys_ = mild_stable_system(2, 2, seed=8)
        M = lyapunov_matrix_representation(sys_)
        rng = np.random.default_rng(0)
        X = rng.standard_normal((2, 2))
        X = X + X.T
        via_matrix = (M @ X.reshape(-1, order="F")).reshape(2, 2, order="F")
        np.testing.assert_allclose(apply_lyapunov(sys_, X), via_matrix,
                                   atol=1e-12)

    def test_dense_threshold_guard(self):
        # n^2 = 10201 crosses DENSE_THRESHOLD; the guard fires before any
        # Kronecker product is formed
        sys_ = simple_system(-np.eye(101), [np.zeros((101, 101))], np.eye(1))
        with pytest.raises(CapabilityError):
            lyapunov_matrix_representation(sys_)


def dense_abscissa(sys_):
    return float(np.linalg.eigvals(
        lyapunov_matrix_representation(sys_)).real.max())


def splitting_radius(sys_):
    # dense oracle for rho: the spectral radius of -L_A^{-1} Pi from the
    # Kronecker matrices, independent of the Schur solve
    L_A = kron_operator(sys_.A, (), sys_.K)
    Pi = kron_operator(sys_.A, sys_.N, sys_.K) - L_A
    return float(np.abs(np.linalg.eigvals(np.linalg.solve(-L_A, Pi))).max())


class TestStability:
    def test_scalar_stable_closed_form(self):
        # 2a + nu^2 k = -1, rho = nu^2 k / (2 |a|) = 0.5
        sys_ = scalar_noise_system(a=-1.0, nu=1.0)
        report = is_mean_square_stable(sys_)
        assert report.is_mean_square_stable
        assert abs(report.rho - 0.5) <= 1e-12
        assert abs(dense_abscissa(sys_) - (-1.0)) <= 1e-12

    def test_scalar_unstable_closed_form(self):
        # a = 0 is not Hurwitz, so the noise part never enters
        sys_ = scalar_noise_system(a=0.0, nu=1.0)
        report = is_mean_square_stable(sys_)
        assert not report.is_mean_square_stable
        assert report.rho is None
        assert abs(dense_abscissa(sys_) - 1.0) <= 1e-12

    def test_iterative_agrees_with_dense(self):
        for seed in (2, 3, 4, 5):
            sys_ = mild_stable_system(5, 2, seed=seed)
            it = is_mean_square_stable(sys_)
            assert (dense_abscissa(sys_) < 0.0) == it.is_mean_square_stable
            assert it.rho is not None and it.rho < 1.0
            assert abs(it.rho - splitting_radius(sys_)) <= 1e-6 * it.rho

    def test_iterative_rejects_non_hurwitz_drift(self):
        report = is_mean_square_stable(unstable_system())
        assert not report.is_mean_square_stable
        assert report.rho is None

    def test_complex_pair_drift(self):
        # A = [[eps, 2], [-2, eps]] has eigenvalues eps +- 2i and N = nu I,
        # so rho = nu^2 / (2 |eps|) when eps < 0. The sheared copy S A S^{-1}
        # has diagonal eps -+ 1: only the standardized Schur form shows the
        # real part eps there.
        shear = np.array([[1.0, 0.5], [0.0, 1.0]])
        for eps, nu, stable, rho in ((-1e-3, 0.01, True, 0.05),
                                     (-1e-3, 0.1, False, 5.0),
                                     (1e-3, 0.01, False, None)):
            A = np.array([[eps, 2.0], [-2.0, eps]])
            for drift in (A, shear @ A @ np.linalg.inv(shear)):
                report = is_mean_square_stable(
                    simple_system(drift, [nu * np.eye(2)], np.eye(1)))
                assert report.is_mean_square_stable is stable
                if rho is None:
                    assert report.rho is None
                else:
                    assert abs(report.rho - rho) <= 1e-8 * rho


class TestResolventPositivityProbe:
    def test_zero_system_pairing(self):
        sys_ = simple_system(np.zeros((3, 3)), [np.zeros((3, 3))], np.eye(1))
        assert resolvent_positivity_probe(sys_, trials=100, seed=0) == 0.0

    def test_identity_diffusion_nonnegative(self):
        sys_ = simple_system(np.zeros((3, 3)), [np.eye(3)], np.eye(1))
        assert resolvent_positivity_probe(sys_, trials=1000, seed=1) >= 0.0

    def test_random_stable_system_bound(self):
        sys_ = mild_stable_system(6, 2, seed=42)
        value = resolvent_positivity_probe(sys_, trials=10_000, seed=7)
        assert value >= -1e-10 * positivity_scale(sys_)

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

    def test_covariance_square_root(self):
        sys_ = mild_stable_system(3, 2, seed=6)
        np.testing.assert_allclose(sys_.K_sqrt @ sys_.K_sqrt.T, sys_.K,
                                   atol=1e-12)

    def test_positive_drift_sign_rejected(self):
        nl = DriftNonlinearity(g=lambda x: 1.0,
                               grad_g=lambda x: np.zeros_like(x))
        with pytest.raises(ArgumentError):
            BilinearRoughSystem(A=-np.eye(2), N=(np.zeros((2, 2)),),
                                K=np.eye(1), C=np.eye(2)[:1],
                                x0=np.ones(2), drift_nonlinearity=nl)

    def test_drift_f_cubic(self):
        nl = DriftNonlinearity(g=lambda x: -float(x @ x),
                               grad_g=lambda x: -2.0 * x)
        sys_ = BilinearRoughSystem(A=-np.eye(2), N=(np.zeros((2, 2)),),
                                   K=np.eye(1), C=np.eye(2)[:1],
                                   x0=np.ones(2), drift_nonlinearity=nl)
        x = np.array([1.0, 2.0])
        np.testing.assert_allclose(drift_f(sys_, x), -5.0 * x, atol=1e-14)

    def test_drift_f_defaults_to_zero(self):
        sys_ = mild_stable_system(2, 1, seed=9)
        assert np.all(drift_f(sys_, np.ones(2)) == 0.0)
