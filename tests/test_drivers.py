import math

import numpy as np
import pytest

from roughmor import (ArgumentError, DriverKind, DriverPath, coarsen_path,
                      piecewise_linear_derivative, read_path_csv,
                      sample_fbm_path, smooth_path_from_function,
                      write_path_csv)


def fbm_covariance(t, s, H):
    # closed-form oracle: E[W(t) W(s)] for standard fBm
    return 0.5 * (t ** (2 * H) + s ** (2 * H) - abs(t - s) ** (2 * H))


def check_covariance(H, T, M, pairs, seed0, n_paths=10_000):
    # sample E[W(t_i) W(t_j)] over fresh paths within 3 standard errors
    samples = np.empty((n_paths, M + 1))
    for k in range(n_paths):
        samples[k] = sample_fbm_path(H, 1, T, M, seed=seed0 + k).values[:, 0]
    times = np.arange(M + 1) * (T / M)
    for i, j in pairs:
        prod = samples[:, i] * samples[:, j]
        mean = prod.mean()
        se = prod.std(ddof=1) / math.sqrt(n_paths)
        exact = fbm_covariance(times[i], times[j], H)
        assert abs(mean - exact) <= 3.0 * se, (H, M, i, j, mean, exact, se)


class TestSampling:
    def test_half_hurst_is_brownian(self):
        # H = 1/2: increments i.i.d. with variance T/M
        path = sample_fbm_path(0.5, 1, 2.0, 100_000, seed=5)
        incs = np.diff(path.values[:, 0])
        var = incs.var()
        assert abs(var - 2.0 / 100_000) <= 0.05 * (2.0 / 100_000)

    def test_covariance_against_closed_form(self):
        H, T, M = 0.4, 1.0, 64
        check_covariance(H, T, M, [(16, 16), (32, 16), (48, 32), (64, 48),
                                   (64, 64)], seed0=50_000)

    def test_dense_fallback_covariance(self):
        # at H = 0.85, M = 4 the circulant embedding (0 at lag M) has a
        # negative eigenvalue, so the sampler takes the dense Cholesky route
        H, T, M = 0.85, 1.0, 4
        k = np.arange(M)
        gamma = 0.5 * ((k + 1.0) ** (2 * H) + np.abs(k - 1.0) ** (2 * H)
                       - 2.0 * k ** (2 * H))
        eig = np.fft.fft(np.concatenate([gamma, [0.0], gamma[-1:0:-1]])).real
        assert eig.min() < -1e-2 * eig.max()
        check_covariance(H, T, M, [(1, 1), (2, 1), (3, 2), (4, 2), (4, 4)],
                         seed0=60_000)

    def test_same_seed_bitwise(self):
        a = sample_fbm_path(0.4, 2, 1.0, 256, seed=9)
        b = sample_fbm_path(0.4, 2, 1.0, 256, seed=9)
        assert np.array_equal(a.values, b.values)

    def test_distinct_components(self):
        path = sample_fbm_path(0.4, 2, 1.0, 128, seed=10)
        assert not np.array_equal(path.values[:, 0], path.values[:, 1])

    def test_starts_at_zero(self):
        path = sample_fbm_path(0.3, 3, 1.0, 64, seed=2)
        assert np.all(path.values[0] == 0.0)

    def test_invalid_hurst(self):
        with pytest.raises(ArgumentError):
            sample_fbm_path(1.0, 1, 1.0, 16, seed=0)
        with pytest.raises(ArgumentError):
            sample_fbm_path(0.0, 1, 1.0, 16, seed=0)


class TestIncrements:
    def test_coarsen_path_keeps_endpoints(self):
        path = sample_fbm_path(0.4, 2, 1.0, 16, seed=4)
        c = coarsen_path(path, 4)
        assert c.M == 4
        assert c.kind is DriverKind.PIECEWISE_LINEAR_INTERP
        assert np.array_equal(c.values[0], path.values[0])
        assert np.array_equal(c.values[-1], path.values[-1])

    def test_coarsen_requires_divisor(self):
        path = sample_fbm_path(0.4, 1, 1.0, 16, seed=4)
        with pytest.raises(ArgumentError):
            coarsen_path(path, 3)


class TestPiecewiseLinearDerivative:
    def test_linear_path(self):
        v = np.array([0.7, -0.3])
        t = np.linspace(0, 2.0, 11)
        vals = t[:, None] * v[None, :]
        path = DriverPath(t0=0.0, T=2.0, values=vals,
                          kind=DriverKind.PIECEWISE_LINEAR_INTERP)
        slopes, l2_sq = piecewise_linear_derivative(path)
        np.testing.assert_allclose(slopes, np.tile(v, (10, 1)), atol=1e-13)
        assert abs(l2_sq - float(v @ v) * 2.0) <= 1e-12

    def test_zero_path(self):
        path = DriverPath(t0=0.0, T=1.0, values=np.zeros((5, 1)),
                          kind=DriverKind.PIECEWISE_LINEAR_INTERP)
        slopes, l2_sq = piecewise_linear_derivative(path)
        assert np.all(slopes == 0.0) and l2_sq == 0.0

    def test_sine_path_l2_norm(self):
        T = 1.0
        path = smooth_path_from_function(
            lambda t: np.array([math.sin(t)]), T, 2 ** 10)
        _, l2_sq = piecewise_linear_derivative(path)
        exact = T / 2.0 + math.sin(2.0 * T) / 4.0
        assert abs(l2_sq - exact) <= 1e-4


class TestCsvRoundTrip:
    def test_write_read_bitwise(self, tmp_path):
        path = sample_fbm_path(0.4, 2, 0.5, 64, seed=8)
        out = tmp_path / "path.csv"
        write_path_csv(path, out)
        back = read_path_csv(out)
        assert np.array_equal(back.values, path.values)
        assert back.t0 == path.t0 and back.T == path.T
        assert back.kind is DriverKind.PIECEWISE_LINEAR_INTERP

    def test_header(self, tmp_path):
        path = sample_fbm_path(0.4, 2, 0.5, 4, seed=8)
        out = tmp_path / "path.csv"
        write_path_csv(path, out)
        assert out.read_text().splitlines()[0] == "t,W1,W2"

    def test_rejects_nonuniform_grid(self, tmp_path):
        out = tmp_path / "bad.csv"
        out.write_text("t,W1\n0,0\n0.1,1\n0.9,2\n1,3\n")
        with pytest.raises(ArgumentError):
            read_path_csv(out)


class TestDriverPathValidation:
    def test_must_start_at_zero(self):
        with pytest.raises(ArgumentError):
            DriverPath(t0=0.0, T=1.0, values=np.ones((4, 1)),
                       kind=DriverKind.PIECEWISE_LINEAR_INTERP)

    def test_fbm_requires_hurst(self):
        vals = np.zeros((4, 1))
        with pytest.raises(ArgumentError):
            DriverPath(t0=0.0, T=1.0, values=vals, kind=DriverKind.FBM)

    def test_times_grid(self):
        path = sample_fbm_path(0.4, 1, 2.0, 4, seed=0)
        np.testing.assert_allclose(path.times, [0.0, 0.5, 1.0, 1.5, 2.0],
                                   atol=1e-15)
