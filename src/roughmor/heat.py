"""Finite-difference model of a heat equation with rough multiplicative
forcing on (0, 1) with Dirichlet boundaries.

Interior nodes zeta_j = j h with h = 1/(n+1) carry the state x_j(t) ~
u(t, zeta_j). The drift is the standard second-difference Laplacian; each
noise channel contributes a forward-difference transport term scaled by
beta_k(zeta) plus a reaction term gamma_k(zeta), the channels are
independent (K = I), and the output is the average temperature
y = (1/n) sum_j x_j.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ArgumentError
from .system import BilinearRoughSystem


@dataclass(frozen=True)
class Heat1dConfig:
    """Coefficients of the semidiscrete heat model.

    ``beta`` and ``gamma`` hold one entry per noise channel, each either a
    constant or a callable of the spatial variable; ``initial_profile`` maps
    zeta to u(0, zeta). The channels are independent: K is the identity.
    """

    n: int
    beta: Sequence
    gamma: Sequence
    initial_profile: object

    def __post_init__(self):
        if self.n < 2:
            raise ArgumentError(f"need n >= 2 interior nodes, got {self.n}")
        if len(self.beta) != len(self.gamma):
            raise ArgumentError(
                f"beta and gamma must have one entry per channel, got "
                f"{len(self.beta)} and {len(self.gamma)}")
        if len(self.beta) < 1:
            raise ArgumentError("need at least one noise channel")

    @property
    def d(self) -> int:
        return len(self.beta)


def _evaluate(coefficient, zeta):
    if callable(coefficient):
        return np.broadcast_to(
            np.asarray(coefficient(zeta), dtype=float), zeta.shape).copy()
    return np.full_like(zeta, float(coefficient))


def build_heat1d(cfg: Heat1dConfig) -> BilinearRoughSystem:
    """Assemble the semidiscrete system for the given coefficients.

    A is the tridiagonal second difference over h^2 (Dirichlet rows at both
    ends); N_k applies the forward difference (x_{j+1} - x_j)/h scaled by
    beta_k(zeta_j) -- the last row has no superdiagonal neighbor -- plus the
    diagonal reaction gamma_k(zeta_j).
    """
    n = cfg.n
    h = 1.0 / (n + 1)
    zeta = np.arange(1, n + 1) * h
    A = (np.diag(-2.0 * np.ones(n)) + np.diag(np.ones(n - 1), 1)
         + np.diag(np.ones(n - 1), -1)) / h ** 2
    B0 = (np.diag(-np.ones(n)) + np.diag(np.ones(n - 1), 1)) / h
    N = []
    for beta_k, gamma_k in zip(cfg.beta, cfg.gamma):
        bvals = _evaluate(beta_k, zeta)
        gvals = _evaluate(gamma_k, zeta)
        N.append(bvals[:, None] * B0 + np.diag(gvals))
    C = np.full((1, n), 1.0 / n)
    x0 = _evaluate(cfg.initial_profile, zeta)
    return BilinearRoughSystem(A=A, N=tuple(N), K=np.eye(cfg.d), C=C, x0=x0)


def default_heat1d_config(n: int = 100) -> Heat1dConfig:
    """The reference configuration: two channels with constant transport
    coefficients 0.4 and -0.2, reaction terms 4 sin and 4 cos, and a
    Gaussian bump initial profile."""
    return Heat1dConfig(
        n=n,
        beta=(0.4, -0.2),
        gamma=(lambda z: 4 * np.sin(z), lambda z: 4 * np.cos(z)),
        initial_profile=lambda z: np.exp(-2 * np.abs(z - 0.5) ** 2))
