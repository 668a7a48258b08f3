import numpy as np
import pytest

from roughmor import ArgumentError, Heat1dConfig, build_heat1d


def heat(n):
    return build_heat1d(Heat1dConfig(n))


class TestLaplacian:
    def test_n2_stencil(self):
        np.testing.assert_array_equal(
            heat(2).A, 9.0 * np.array([[-2.0, 1.0], [1.0, -2.0]]))

    def test_eigenvalues_closed_form(self):
        # second-difference spectrum: -4 (n+1)^2 sin^2(j pi / (2 (n+1)))
        n = 17
        j = np.arange(1, n + 1)
        expected = -4.0 * (n + 1) ** 2 * np.sin(
            j * np.pi / (2 * (n + 1))) ** 2
        got = np.sort(np.linalg.eigvalsh(heat(n).A))
        np.testing.assert_allclose(got, np.sort(expected),
                                   rtol=1e-12, atol=1e-9)

    def test_symmetric(self):
        A = heat(9).A
        np.testing.assert_array_equal(A, A.T)


class TestReferenceModel:
    def test_channels_covariance_and_initial_state(self):
        # N_k = beta_k B0 + diag(gamma_k(zeta)), beta = (0.4, -0.2) and
        # gamma = (4 sin, 4 cos); K = I_2; x0 samples the bump at the nodes
        for n in (2, 5, 16):
            sys_ = heat(n)
            h = 1.0 / (n + 1)
            zeta = np.arange(1, n + 1) * h
            # (x_{j+1} - x_j) / h with a Dirichlet zero past the last node
            B0 = (np.diag(-np.ones(n)) + np.diag(np.ones(n - 1), 1)) / h
            expected = (0.4 * B0 + np.diag(4 * np.sin(zeta)),
                        -0.2 * B0 + np.diag(4 * np.cos(zeta)))
            assert len(sys_.N) == 2
            for got, want in zip(sys_.N, expected):
                np.testing.assert_allclose(got, want, rtol=1e-15, atol=1e-13)
            np.testing.assert_array_equal(sys_.K, np.eye(2))
            np.testing.assert_allclose(
                sys_.x0, np.exp(-2 * (zeta - 0.5) ** 2), rtol=1e-15)


class TestOutputAndInitial:
    def test_output_is_average(self):
        n = 8
        np.testing.assert_array_equal(heat(n).C, np.full((1, n), 1.0 / n))


class TestDefaultConfig:
    def test_orders(self):
        sys_ = heat(100)
        assert sys_.n == 100 and sys_.d == 2
        assert sys_.C.shape == (1, 100)
        np.testing.assert_array_equal(sys_.K, np.eye(2))


class TestConfigValidation:
    def test_too_few_nodes(self):
        with pytest.raises(ArgumentError):
            Heat1dConfig(1)
