import numpy as np
import pytest

import roughmor.cli
from roughmor import (Heat1dConfig, build_heat1d,
                      monte_carlo_second_moment, rough_rk_simulate,
                      sample_fbm_path, two_stage_reduce)
from roughmor._fixtures import mild_stable_system

# the probe suite's Monte-Carlo cross-check, which criterion 3 also reads
ORACLE_SYSTEM = dict(n=3, d=1, seed=99)
ORACLE_CALL = dict(side="reach", T=1.0, n_paths=100_000, dt=1e-3, seed=4242)


@pytest.fixture(scope="session")
def stability_function():
    # symbolic oracle: Crouzeix's R(z) = 1 + z b^T (I - z A)^{-1} 1 computed
    # exactly from the tableau entries, independent of the stepper
    import sympy

    z = sympy.symbols("z")
    g = sympy.Rational(1, 2) + sympy.sqrt(3) / 6
    A = sympy.Matrix([[g, 0], [-sympy.sqrt(3) / 3, g]])
    b = sympy.Matrix([[sympy.Rational(1, 2), sympy.Rational(1, 2)]])
    one = sympy.Matrix([[1], [1]])
    R = 1 + z * (b * (sympy.eye(2) - z * A).inv() * one)[0, 0]
    return sympy.lambdify(z, sympy.simplify(R), "math")


@pytest.fixture(scope="session")
def heat100():
    return build_heat1d(Heat1dConfig(100))


@pytest.fixture(scope="session")
def heat_pipeline(heat100):
    # package defaults; the expensive call every heat test shares
    return two_stage_reduce(heat100)


@pytest.fixture(scope="session")
def heat_path():
    # the shared fresh path for the heat experiments: step 2^-10 over
    # T = 0.5, so 512 steps
    return sample_fbm_path(0.4, 2, 0.5, 512, 24)


@pytest.fixture(scope="session")
def heat_full_sim(heat100, heat_path):
    return rough_rk_simulate(heat100, heat_path)


@pytest.fixture(scope="session")
def random_stable_batch():
    # reproducible pool of small stable systems used across criteria
    return [mild_stable_system(3 + (k % 10), 1 + (k % 2), seed=1000 + k)
            for k in range(10)]


@pytest.fixture(scope="session")
def mild_oracle():
    # the suite's one 100,000-path oracle run; the estimate is bitwise
    # deterministic for a fixed (seed, n_paths, dt), so every reader shares it
    return monte_carlo_second_moment(mild_stable_system(**ORACLE_SYSTEM),
                                     **ORACLE_CALL)


@pytest.fixture()
def cli_oracle(monkeypatch, mild_oracle):
    """Stand-in for the probe suite's oracle call: it checks that the CLI
    asks for exactly the call mild_oracle made and returns that result."""
    expected = mild_stable_system(**ORACLE_SYSTEM)

    def stand_in(sys, side, **call):
        assert dict(call, side=side) == ORACLE_CALL
        for name in ("A", "K", "C", "x0"):
            assert np.array_equal(getattr(sys, name), getattr(expected, name))
        assert len(sys.N) == len(expected.N)
        assert all(np.array_equal(Ni, Mi) for Ni, Mi in zip(sys.N, expected.N))
        return mild_oracle

    monkeypatch.setattr(roughmor.cli, "monte_carlo_second_moment", stand_in)
