"""Small deterministic systems for the probe suite and the test oracles."""

from __future__ import annotations

import numpy as np

from .system import BilinearRoughSystem, LyapunovOperator


def mild_stable_system(n: int, d: int, seed: int,
                       decay: float = 1.0) -> BilinearRoughSystem:
    """Random system with O(1) matrices and Lyapunov abscissa near -decay.

    The raw Gaussian draw is shifted so the second-moment operator decays at
    a moderate rate: coefficients stay O(1), which keeps Euler-Maruyama weak
    bias small relative to Monte-Carlo standard errors on [0, 1]-scale
    horizons.
    """
    rng = np.random.default_rng(seed)
    A = 0.5 * rng.standard_normal((n, n))
    N = [0.3 * rng.standard_normal((n, n)) for _ in range(d)]
    x0 = rng.standard_normal(n)
    C = rng.standard_normal((1, n))
    raw = BilinearRoughSystem(A=A, N=tuple(N), K=np.eye(d), C=C, x0=x0)
    M = LyapunovOperator(raw).matrix()
    abscissa = float(np.linalg.eigvals(M).real.max())
    A = A - (abscissa / 2.0 + decay / 2.0) * np.eye(n)
    return BilinearRoughSystem(A=A, N=tuple(N), K=np.eye(d), C=C, x0=x0)


def decoupled_observability_system() -> BilinearRoughSystem:
    """3-state system whose third state is decoupled and unobserved.

    The third coordinate evolves on its own and never reaches the output, so
    e_3 spans the kernel of the observability Gramian; the kernel-preservation
    identities hold there exactly.
    """
    A = np.array([[-1.0, 0.4, 0.0],
                  [0.2, -1.5, 0.0],
                  [0.0, 0.0, -2.0]])
    N1 = np.array([[0.3, -0.1, 0.0],
                   [0.05, 0.2, 0.0],
                   [0.0, 0.0, 0.1]])
    C = np.array([[1.0, 0.5, 0.0]])
    x0 = np.array([1.0, -0.5, 0.7])
    return BilinearRoughSystem(A=A, N=(N1,), K=np.eye(1), C=C, x0=x0)


def unstable_system() -> BilinearRoughSystem:
    """2-state system with a positive drift eigenvalue (not mean-square
    stable); the stability tests' negative control."""
    A = np.array([[0.5, 0.0],
                  [0.0, -1.0]])
    N1 = 0.1 * np.eye(2)
    return BilinearRoughSystem(A=A, N=(N1,), K=np.eye(1),
                               C=np.array([[1.0, 0.0]]),
                               x0=np.array([1.0, 1.0]))


def scalar_noise_system(a: float = -1.0, nu: float = 1.0,
                        x0: float = 1.0) -> BilinearRoughSystem:
    """dx = a x dt + nu x dW with unit covariance and identity output."""
    return BilinearRoughSystem(A=np.array([[a]]), N=(np.array([[nu]]),),
                               K=np.eye(1), C=np.eye(1),
                               x0=np.array([x0]))
