import math
import warnings

import numpy as np
import pytest

from roughmor import (ArgumentError, DriverPath, coarsen_path, read_path_csv,
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

    def test_embedding_nonnegative_on_grid(self):
        # the circulant row gamma(0..M), gamma(M-1..1) of fGn has no negative
        # eigenvalue, so the sampler never raises on this grid
        for H in np.arange(1, 100) / 100:
            for M in 2 ** np.arange(1, 13):
                k = np.arange(M + 1)
                gamma = 0.5 * ((k + 1.0) ** (2 * H)
                               + np.abs(k - 1.0) ** (2 * H)
                               - 2.0 * k ** (2 * H))
                eig = np.fft.fft(np.concatenate([gamma, gamma[-2:0:-1]])).real
                assert eig.min() >= -1e-12 * eig.max(), (H, M, eig.min())
                sample_fbm_path(H, 1, 1.0, int(M), seed=0)

    def test_high_hurst_covariance(self):
        # high H on a short grid, where a circulant with 0 at lag M has an
        # eigenvalue of -3.3e-2 of the largest and would not sample exactly
        check_covariance(0.85, 1.0, 4, [(1, 1), (2, 1), (3, 2), (4, 2),
                                        (4, 4)], seed0=60_000)

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

    def test_negative_seed(self):
        # numpy's SeedSequence would end the call with a bare ValueError
        with pytest.raises(ArgumentError, match="seed must be >= 0"):
            sample_fbm_path(0.4, 1, 1.0, 16, seed=-1)


class TestIncrements:
    def test_coarsen_path_keeps_endpoints(self):
        path = sample_fbm_path(0.4, 2, 1.0, 16, seed=4)
        c = coarsen_path(path, 4)
        assert c.M == 4
        assert np.array_equal(c.values[0], path.values[0])
        assert np.array_equal(c.values[-1], path.values[-1])

    def test_coarsen_requires_divisor(self):
        path = sample_fbm_path(0.4, 1, 1.0, 16, seed=4)
        with pytest.raises(ArgumentError):
            coarsen_path(path, 3)


class TestCsvRoundTrip:
    def test_write_read_bitwise(self, tmp_path):
        path = sample_fbm_path(0.4, 2, 0.5, 64, seed=8)
        out = tmp_path / "path.csv"
        write_path_csv(path, out)
        back = read_path_csv(out)
        assert np.array_equal(back.values, path.values)
        assert back.T == path.T

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

    @pytest.mark.parametrize("times", [
        ("1.0", "1.5", "2.0"),  # uniform, but paths start at t = 0
        ("0.0", "nan", "1.0"),
        ("0.0", "0.5", "inf")])
    def test_rejects_time_column_off_the_grid(self, tmp_path, times):
        out = tmp_path / "path.csv"
        out.write_text("t,W1\n" + "".join(
            f"{t},{k}\n" for k, t in enumerate(times)))
        with pytest.raises(ArgumentError, match="path.csv"):
            read_path_csv(out)


class TestDriverPathValidation:
    def test_must_start_at_zero(self):
        with pytest.raises(ArgumentError):
            DriverPath(T=1.0, values=np.ones((4, 1)))

    def test_times_grid(self):
        path = sample_fbm_path(0.4, 1, 2.0, 4, seed=0)
        np.testing.assert_allclose(path.times, [0.0, 0.5, 1.0, 1.5, 2.0],
                                   atol=1e-15)
        assert path.dt == 0.5

    @pytest.mark.parametrize("T", [math.inf, math.nan, 0.0])
    def test_horizon_must_be_finite_and_positive(self, T):
        # an infinite T would give dt = inf and times [nan, inf, inf]; the
        # smooth sampler refuses it before it evaluates the function
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ArgumentError, match="T < inf"):
                DriverPath(T, np.zeros((3, 1)))
            with pytest.raises(ArgumentError, match="T < inf"):
                smooth_path_from_function(
                    lambda t: pytest.fail(f"sampled at t = {t}"), T, 4)
