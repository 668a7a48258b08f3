"""Bilinear rough systems and their Lyapunov operator.

The state equation is

    dx = [A x + f(x)] dt + N(x) K^{1/2} dW,      f(x) = x * g(x),  g <= 0,
    y = C x,

with N(x) = [N_1 x ... N_d x]. The Lyapunov operator of the associated Ito
dynamics,

    L(X) = A X + X A^T + sum_ij k_ij N_i X N_j^T,

governs the second moment E[x x^T]; its spectrum lying in the open left half
plane is equivalent to mean-square asymptotic stability. LyapunovOperator
holds L or its adjoint L* with the right-hand side of the matching Gramian
equation, and is the one place that evaluates L, L*, their noise part, the
Gramian residual and backward error, and the dense Kronecker matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.linalg import eigh, eigvalsh

from .errors import (ArgumentError, CapabilityError, GuardedScalar,
                     NumericalError)
from ._lyap import SchurLyapunov

# LyapunovOperator.matrix has n^4 entries: 6.5 MB at this order
DENSE_MAX_ORDER = 30
# is_mean_square_stable decides once its bracket clears 1 by this margin. It
# reads bounds only at X with cond(X) <= 1 / margin, where a relative error u
# in the iterates moves them by about 2 u / margin (2e-9 at u = 1e-15)
STABILITY_MARGIN = 1e-6
# cap on the Lyapunov solves of one stability check
STABILITY_MAX_ITER = 500


@dataclass(frozen=True)
class DriftNonlinearity:
    """Scalar drift nonlinearity f(x) = x * g(x) with its gradient.

    ``g`` maps an n-vector to a scalar with g(x) <= 0 for all x; ``grad_g``
    returns the n-vector gradient (required, no finite-difference fallback).
    """

    g: Callable[[np.ndarray], float]
    grad_g: Callable[[np.ndarray], np.ndarray]


def _as_matrix(a, name):
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise ArgumentError(f"{name} must be a 2-d array, got shape {a.shape}")
    return a


@dataclass(frozen=True, eq=False)
class BilinearRoughSystem:
    """System matrices (A, N_1..N_d, K, C, x0) plus optional drift nonlinearity.

    K must be symmetric positive semidefinite; its symmetric PSD square root is
    computed once at construction (negative round-off eigenvalues clamped to
    zero before rooting) and cached in ``K_sqrt``.
    """

    A: np.ndarray
    N: tuple
    K: np.ndarray
    C: np.ndarray
    x0: np.ndarray
    drift_nonlinearity: Optional[DriftNonlinearity] = None
    K_sqrt: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        A = _as_matrix(self.A, "A")
        n = A.shape[0]
        if A.shape != (n, n):
            raise ArgumentError(f"A must be square, got shape {A.shape}")
        N = tuple(_as_matrix(Ni, f"N[{i}]") for i, Ni in enumerate(self.N))
        for i, Ni in enumerate(N):
            if Ni.shape != (n, n):
                raise ArgumentError(
                    f"N[{i}] has shape {Ni.shape}, expected {(n, n)}")
        d = len(N)
        K = _as_matrix(self.K, "K")
        if K.shape != (d, d):
            raise ArgumentError(f"K has shape {K.shape}, expected {(d, d)}")
        C = _as_matrix(self.C, "C")
        if C.shape[1] != n:
            raise ArgumentError(f"C has {C.shape[1]} columns, expected {n}")
        x0 = np.asarray(self.x0, dtype=float).reshape(-1)
        if x0.shape != (n,):
            raise ArgumentError(f"x0 has {len(x0)} entries, expected {n}")

        nK = np.linalg.norm(K)
        if np.linalg.norm(K - K.T) > 1e-12 * max(nK, 1e-300):
            raise ArgumentError("K is not symmetric")
        K = (K + K.T) / 2
        w, V = np.linalg.eigh(K) if d else (np.zeros(0), np.zeros((0, 0)))
        two_norm = w[-1] if d else 0.0
        if d and w[0] < -1e-12 * max(1.0, two_norm):
            raise ArgumentError(
                f"K is not positive semidefinite (min eigenvalue {w[0]:.3e})")
        K_sqrt = (V * np.sqrt(np.clip(w, 0.0, None))) @ V.T if d else K.copy()
        if nK > 0 and np.linalg.norm(K_sqrt @ K_sqrt - K) > 1e-10 * nK:
            raise ArgumentError("square root of K failed to reproduce K")

        if self.drift_nonlinearity is not None:
            g = self.drift_nonlinearity.g
            for point, label in ((x0, "x0"), (np.zeros(n), "0")):
                val = float(g(point))
                if val > 0.0:
                    raise ArgumentError(
                        f"drift nonlinearity violates g <= 0 at {label}: "
                        f"g = {val:.3e}")

        object.__setattr__(self, "A", A)
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "K", K)
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "x0", x0)
        object.__setattr__(self, "K_sqrt", K_sqrt)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def d(self) -> int:
        return len(self.N)

    @property
    def p(self) -> int:
        return self.C.shape[0]


def drift_f(sys: BilinearRoughSystem, x: np.ndarray) -> np.ndarray:
    """Evaluate f(x) = x * g(x), or zero when no nonlinearity is attached."""
    if sys.drift_nonlinearity is None:
        return np.zeros_like(x)
    return x * float(sys.drift_nonlinearity.g(x))


@dataclass(frozen=True)
class StabilityReport:
    """Outcome of a mean-square stability classification.

    ``lower`` <= rho <= ``upper`` for the spectral radius rho of
    X -> -L_A^{-1}(Pi(X)), stable iff rho < 1 (both None when A is not
    Hurwitz). ``solves`` counts the Lyapunov solves the check took; ``lyap``
    is its Schur factorization of A, for the Gramian solve to reuse.
    """

    is_mean_square_stable: bool
    lower: Optional[float]
    upper: Optional[float]
    solves: int
    lyap: SchurLyapunov = field(compare=False, repr=False)


class LyapunovOperator:
    """The operator of one side's Gramian equation 0 = rhs + L(G).

    L(X) = A X + X A^T + Pi(X) with Pi(X) = sum_ij k_ij N_i X N_j^T. On the
    reach side A, N and rhs are sys.A, sys.N and x0 x0^T. The adjoint L* of
    a system is L of the system with A and every N_i transposed, so the obs
    side holds A^T, the N_i^T and C^T C.
    """

    def __init__(self, sys: BilinearRoughSystem, side: str = "reach"):
        if side == "reach":
            self.A, self.N = sys.A, sys.N
            self.rhs = np.outer(sys.x0, sys.x0)
        elif side == "obs":
            self.A, self.N = sys.A.T, tuple(Ni.T for Ni in sys.N)
            self.rhs = sys.C.T @ sys.C
        else:
            raise ArgumentError(f"side must be 'reach' or 'obs', got {side!r}")
        self.K = sys.K

    def noise(self, X) -> np.ndarray:
        """Pi(X) = sum_ij k_ij N_i X N_j^T."""
        N, K = self.N, self.K
        out = np.zeros_like(X)
        for i in range(len(N)):
            for j in range(len(N)):
                if K[i, j] != 0.0:
                    out += K[i, j] * (N[i] @ X @ N[j].T)
        return out

    def __call__(self, X) -> np.ndarray:
        return self.A @ X + X @ self.A.T + self.noise(X)

    def residual(self, G) -> np.ndarray:
        """rhs + L(G), the residual of G in the Gramian equation."""
        return self.rhs + self.A @ G + G @ self.A.T + self.noise(G)

    def errors(self, G):
        """(relative residual, backward error) of G in 0 = rhs + L(G).

        With R = residual(G), the relative residual is the GuardedScalar
        ||R||_F / ||rhs||_F, or ||R||_F flagged ``is_absolute`` when rhs = 0.
        The backward error is ||R||_F / (||rhs||_F + l ||G||_F), 0 when that
        denominator vanishes (R = 0 then too), where l = 2 ||A|| +
        sum_ij |k_ij| ||N_i|| ||N_j|| bounds ||L|| in the Frobenius norm,
        each 2-norm bounded by sqrt(||M||_1 ||M||_inf) at O(n^2) cost.
        """
        nr = np.linalg.norm(self.rhs)
        nR = np.linalg.norm(self.residual(G))
        norms = np.sqrt([np.linalg.norm(M, 1) * np.linalg.norm(M, np.inf)
                         for M in (self.A, *self.N)])
        ell = 2.0 * norms[0] + norms[1:] @ np.abs(self.K) @ norms[1:]
        den = nr + ell * np.linalg.norm(G)
        return (GuardedScalar(nR / nr if nr else nR, is_absolute=not nr),
                float(nR / den) if den else 0.0)

    def matrix(self) -> np.ndarray:
        """Dense n^2 x n^2 matrix M with M vec(X) = vec(L(X)).

        Column-major vectorization throughout: vec(X) = X.reshape(-1,
        order="F"). Raises CapabilityError when n exceeds DENSE_MAX_ORDER.
        """
        n = self.A.shape[0]
        if n > DENSE_MAX_ORDER:
            raise CapabilityError(
                f"the dense operator matrix is limited to n <= "
                f"{DENSE_MAX_ORDER}, got n = {n}")
        eye = np.eye(n)
        M = np.kron(eye, self.A) + np.kron(self.A, eye)
        for i in range(len(self.N)):
            for j in range(len(self.N)):
                if self.K[i, j] != 0.0:
                    M += self.K[i, j] * np.kron(self.N[j], self.N[i])
        return M


def is_mean_square_stable(sys: BilinearRoughSystem) -> StabilityReport:
    """Decide mean-square asymptotic stability (lambda(L) in the open left
    half plane) by a proven bracket on the spectral radius rho of
    T(X) = -L_A^{-1}(Pi(X)), which is < 1 exactly when L is stable.

    A must be Hurwitz. T then maps the PSD cone into itself (Damm, LNCIS
    297, 2004), so for X > 0 the pencil (T(X), X) has lambda_min <= rho <=
    lambda_max (Collatz-Wielandt; Berman & Plemmons, SIAM 1994, ch. 1).
    Solve k gives P_k = T^k(X_0), X_0 = I / sqrt(n); the bounds are read at
    the power iterate P_{k-1} and the Neumann sum S_{k-1} = P_0 + ... +
    P_{k-1}, whose image S_k - X_0 is free, skipping a candidate with
    cond(X) > 1 / STABILITY_MARGIN. upper < 1 - STABILITY_MARGIN is
    stable, lower > 1 + STABILITY_MARGIN unstable; a bracket that holds 1
    after STABILITY_MAX_ITER solves raises NumericalError naming it.
    """
    lyap = SchurLyapunov(sys.A)
    # A non-Hurwitz drift settles it without the noise part (the abscissa of
    # L dominates twice that of A). LAPACK standardizes each 2x2 Schur block
    # to equal diagonal entries, so diag(T) carries Re(lambda(A)).
    if float(np.diag(lyap.T).max()) >= 0.0:
        return StabilityReport(is_mean_square_stable=False, lower=None,
                               upper=None, solves=0, lyap=lyap)
    op = LyapunovOperator(sys)
    P = S = X0 = np.eye(sys.n) / math.sqrt(sys.n)
    lower, upper = 0.0, math.inf
    # overflowing iterates end the loop at its isfinite check, unwarned
    with np.errstate(over="ignore", invalid="ignore"):
        for solves in range(1, STABILITY_MAX_ITER + 1):
            image = lyap.solve_neg(op.noise(P))
            if not np.all(np.isfinite(image)):
                break
            # the two candidates coincide at the first solve
            pairs = [(image, P)] if solves == 1 else [(image, P),
                                                      (S + image - X0, S)]
            for Y, X in pairs:
                x = eigvalsh(X)
                if x[0] <= STABILITY_MARGIN * x[-1]:
                    continue
                w = eigh(Y, X, eigvals_only=True)
                lower, upper = max(lower, float(w[0])), min(upper, float(w[-1]))
            P, S = image, S + image
            stable = upper < 1.0 - STABILITY_MARGIN
            if stable or lower > 1.0 + STABILITY_MARGIN:
                return StabilityReport(stable, lower, upper, solves, lyap)
    raise NumericalError(
        f"mean-square stability undecided after {solves} Lyapunov solves: "
        f"the splitting spectral radius lies in [{lower:.6g}, {upper:.6g}], "
        f"which holds 1 within the margin {STABILITY_MARGIN:.0e}")


def positivity_scale(sys: BilinearRoughSystem) -> float:
    """Reference scale ||A||_2 + sum_i ||N_i||_2^2 ||K||_2 for the probe."""
    nK = np.linalg.norm(sys.K, 2) if sys.d else 0.0
    return float(np.linalg.norm(sys.A, 2)
                 + sum(np.linalg.norm(Ni, 2) ** 2 for Ni in sys.N) * nK)


def resolvent_positivity_probe(
        sys: BilinearRoughSystem, trials: int, seed: int) -> float:
    """Minimum of <L(u u^T), v v^T>_F over random orthonormal pairs u, v.

    Resolvent positivity of L makes this pairing nonnegative whenever
    <u u^T, v v^T>_F = 0; the probe draws Gaussian pairs, orthonormalizes, and
    returns the smallest value observed (contract: >= -1e-10 times
    ``positivity_scale``).
    """
    if sys.n < 2:
        raise ArgumentError("probe needs n >= 2 to build an orthogonal pair")
    if trials < 1:
        raise ArgumentError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    n = sys.n
    U = rng.standard_normal((trials, n))
    V = rng.standard_normal((trials, n))
    U /= np.linalg.norm(U, axis=1, keepdims=True)
    V -= np.sum(V * U, axis=1, keepdims=True) * U
    V /= np.linalg.norm(V, axis=1, keepdims=True)

    # <L(u u^T), v v^T> = 2 (v^T A u)(v^T u) + sum_ij k_ij (v^T N_i u)(v^T N_j u)
    vAu = np.sum(V * (U @ sys.A.T), axis=1)
    vu = np.sum(V * U, axis=1)
    pairing = 2.0 * vAu * vu
    if sys.d:
        W = np.stack([np.sum(V * (U @ Ni.T), axis=1) for Ni in sys.N], axis=1)
        pairing = pairing + np.einsum("ti,ij,tj->t", W, sys.K, W)
    return float(pairing.min())
