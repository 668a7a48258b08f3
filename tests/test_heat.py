import numpy as np
import pytest

from roughmor import (ArgumentError, Heat1dConfig, build_heat1d,
                      default_heat1d_config)


def pure_diffusion(n):
    return Heat1dConfig(n=n, beta=(0.0,), gamma=(0.0,),
                        initial_profile=lambda z: np.sin(np.pi * z))


class TestLaplacian:
    def test_n2_stencil(self):
        sys_ = build_heat1d(pure_diffusion(2))
        np.testing.assert_array_equal(
            sys_.A, 9.0 * np.array([[-2.0, 1.0], [1.0, -2.0]]))

    def test_eigenvalues_closed_form(self):
        # second-difference spectrum: -4 (n+1)^2 sin^2(j pi / (2 (n+1)))
        n = 17
        sys_ = build_heat1d(pure_diffusion(n))
        j = np.arange(1, n + 1)
        expected = -4.0 * (n + 1) ** 2 * np.sin(
            j * np.pi / (2 * (n + 1))) ** 2
        got = np.sort(np.linalg.eigvalsh(sys_.A))
        np.testing.assert_allclose(got, np.sort(expected),
                                   rtol=1e-12, atol=1e-9)

    def test_symmetric(self):
        A = build_heat1d(pure_diffusion(9)).A
        np.testing.assert_array_equal(A, A.T)


class TestNoiseOperators:
    def test_pure_reaction_constant_is_scaled_identity(self):
        cfg = Heat1dConfig(n=5, beta=(0.0,), gamma=(3.0,),
                           initial_profile=1.0)
        sys_ = build_heat1d(cfg)
        np.testing.assert_array_equal(sys_.N[0], 3.0 * np.eye(5))

    def test_pure_transport_forward_difference(self):
        n = 4
        cfg = Heat1dConfig(n=n, beta=(1.0,), gamma=(0.0,),
                           initial_profile=1.0)
        sys_ = build_heat1d(cfg)
        # (x_{j+1} - x_j) / h with a Dirichlet zero past the last node
        h = 1.0 / (n + 1)
        expected = (np.diag(-np.ones(n)) + np.diag(np.ones(n - 1), 1)) / h
        np.testing.assert_allclose(sys_.N[0], expected, atol=1e-13)

    def test_spatial_scaling_applied_rowwise(self):
        n = 6
        cfg = Heat1dConfig(n=n, beta=(lambda z: z,), gamma=(0.0,),
                           initial_profile=1.0)
        flat = Heat1dConfig(n=n, beta=(1.0,), gamma=(0.0,),
                            initial_profile=1.0)
        zeta = np.arange(1, n + 1) / (n + 1)
        np.testing.assert_allclose(
            build_heat1d(cfg).N[0],
            zeta[:, None] * build_heat1d(flat).N[0], atol=1e-13)

    def test_channel_count(self):
        cfg = Heat1dConfig(n=3, beta=(0.1, 0.2, 0.3), gamma=(0.0, 0.0, 0.0),
                           initial_profile=1.0)
        sys_ = build_heat1d(cfg)
        assert len(sys_.N) == 3
        assert sys_.K.shape == (3, 3)


class TestOutputAndInitial:
    def test_output_is_average(self):
        n = 8
        sys_ = build_heat1d(pure_diffusion(n))
        np.testing.assert_array_equal(sys_.C, np.full((1, n), 1.0 / n))

    def test_initial_profile_sampled_at_interior_nodes(self):
        n = 5
        cfg = Heat1dConfig(n=n, beta=(0.0,), gamma=(0.0,),
                           initial_profile=lambda z: 2.0 * z)
        sys_ = build_heat1d(cfg)
        np.testing.assert_allclose(sys_.x0,
                                   2.0 * np.arange(1, n + 1) / (n + 1),
                                   atol=1e-15)

    def test_constant_initial_profile(self):
        sys_ = build_heat1d(Heat1dConfig(n=4, beta=(0.0,), gamma=(0.0,),
                                         initial_profile=0.7))
        np.testing.assert_array_equal(sys_.x0, np.full(4, 0.7))


class TestDefaultConfig:
    def test_orders(self):
        sys_ = build_heat1d(default_heat1d_config(100))
        assert sys_.n == 100 and sys_.d == 2
        assert sys_.C.shape == (1, 100)
        np.testing.assert_array_equal(sys_.K, np.eye(2))

    def test_reference_size_default(self):
        assert default_heat1d_config().n == 100


class TestConfigValidation:
    def test_too_few_nodes(self):
        with pytest.raises(ArgumentError):
            Heat1dConfig(n=1, beta=(0.0,), gamma=(0.0,), initial_profile=1.0)

    def test_channel_mismatch(self):
        with pytest.raises(ArgumentError):
            Heat1dConfig(n=4, beta=(0.0, 0.1), gamma=(0.0,),
                         initial_profile=1.0)

    def test_no_channels(self):
        with pytest.raises(ArgumentError):
            Heat1dConfig(n=4, beta=(), gamma=(), initial_profile=1.0)
