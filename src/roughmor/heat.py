"""Finite-difference model of a heat equation with rough multiplicative
forcing on (0, 1) with Dirichlet boundaries: the paper's reference model.

Interior nodes zeta_j = j h with h = 1/(n+1) carry the state x_j(t) ~
u(t, zeta_j). The drift is the standard second-difference Laplacian; each
of the two noise channels contributes a forward-difference transport term
scaled by the constant beta_k plus a reaction term gamma_k(zeta), with
beta = (0.4, -0.2) and gamma = (4 sin, 4 cos). The channels are independent
(K = I), the initial profile is the bump exp(-2 |zeta - 1/2|^2), and the
output is the average temperature y = (1/n) sum_j x_j.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError
from .system import BilinearRoughSystem

# transport coefficient and reaction term of each noise channel
BETA = (0.4, -0.2)
GAMMA = (lambda z: 4 * np.sin(z), lambda z: 4 * np.cos(z))


@dataclass(frozen=True)
class Heat1dConfig:
    """Grid size of the semidiscrete heat model: n interior nodes."""

    n: int

    def __post_init__(self):
        if self.n < 2:
            raise ArgumentError(f"need n >= 2 interior nodes, got {self.n}")


def build_heat1d(cfg: Heat1dConfig) -> BilinearRoughSystem:
    """Assemble the semidiscrete system on ``cfg.n`` interior nodes.

    A is the tridiagonal second difference over h^2 (Dirichlet rows at both
    ends); N_k applies the forward difference (x_{j+1} - x_j)/h scaled by
    beta_k -- the last row has no superdiagonal neighbor -- plus the
    diagonal reaction gamma_k(zeta_j).
    """
    n = cfg.n
    h = 1.0 / (n + 1)
    zeta = np.arange(1, n + 1) * h
    A = (np.diag(-2.0 * np.ones(n)) + np.diag(np.ones(n - 1), 1)
         + np.diag(np.ones(n - 1), -1)) / h ** 2
    B0 = (np.diag(-np.ones(n)) + np.diag(np.ones(n - 1), 1)) / h
    N = tuple(beta * B0 + np.diag(gamma(zeta))
              for beta, gamma in zip(BETA, GAMMA))
    C = np.full((1, n), 1.0 / n)
    x0 = np.exp(-2 * np.abs(zeta - 0.5) ** 2)
    return BilinearRoughSystem(A=A, N=N, K=np.eye(len(N)), C=C, x0=x0)
