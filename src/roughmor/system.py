"""Bilinear rough systems and their Lyapunov operator.

The state equation is

    dx = [A x + f(x)] dt + N(x) K^{1/2} dW,      f(x) = x * g(x),  g <= 0,
    y = C x,

with N(x) = [N_1 x ... N_d x]. The Lyapunov operator of the associated Ito
dynamics,

    L(X) = A X + X A^T + sum_ij k_ij N_i X N_j^T,

governs the second moment E[x x^T]; its spectrum lying in the open left half
plane is equivalent to mean-square asymptotic stability.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ArgumentError, CapabilityError
from ._lyap import SchurLyapunov

DENSE_THRESHOLD = 10_000


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


@dataclass(frozen=True)
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


class StabilityMethod(str, enum.Enum):
    DENSE_SPECTRUM = "dense_spectrum"
    FIXED_POINT_CONVERGENCE = "fixed_point_convergence"


@dataclass(frozen=True)
class StabilityReport:
    """Outcome of a mean-square stability classification.

    ``spectral_abscissa`` is max Re(lambda(L)) for the dense method and NaN for
    the iterative method, where ``rho`` carries the spectral radius of the
    splitting iteration instead (stable iff rho < 1, given A Hurwitz).
    """

    spectral_abscissa: float
    is_mean_square_stable: bool
    method: StabilityMethod
    rho: Optional[float] = None


def noise_part(X, N, K):
    """Pi(X) = sum_ij k_ij N_i X N_j^T; the adjoint Pi* passes the N_i^T."""
    out = np.zeros_like(X)
    for i in range(len(N)):
        for j in range(len(N)):
            if K[i, j] != 0.0:
                out += K[i, j] * (N[i] @ X @ N[j].T)
    return out


def _check_operand(sys, X):
    X = np.asarray(X, dtype=float)
    if X.shape != (sys.n, sys.n):
        raise ArgumentError(
            f"operand has shape {X.shape}, expected {(sys.n, sys.n)}")
    return (X + X.T) / 2


def apply_lyapunov(sys: BilinearRoughSystem, X) -> np.ndarray:
    """L(X) = A X + X A^T + sum_ij k_ij N_i X N_j^T (input symmetrized)."""
    X = _check_operand(sys, X)
    return sys.A @ X + X @ sys.A.T + noise_part(X, sys.N, sys.K)


def apply_lyapunov_adjoint(sys: BilinearRoughSystem, X) -> np.ndarray:
    """L*(X) = A^T X + X A + sum_ij k_ij N_i^T X N_j (input symmetrized)."""
    X = _check_operand(sys, X)
    return sys.A.T @ X + X @ sys.A + noise_part(
        X, tuple(Ni.T for Ni in sys.N), sys.K)


def lyapunov_matrix_representation(
        sys: BilinearRoughSystem, dense_threshold: int = DENSE_THRESHOLD
) -> np.ndarray:
    """Dense n^2 x n^2 matrix M with M vec(X) = vec(L(X)).

    Column-major vectorization throughout: vec(X) = X.reshape(-1, order="F").
    Raises CapabilityError when n^2 exceeds ``dense_threshold``; use the
    iterative stability check instead at that scale.
    """
    n = sys.n
    if n * n > dense_threshold:
        raise CapabilityError(
            f"n^2 = {n * n} exceeds the dense threshold {dense_threshold}; "
            "use is_mean_square_stable(..., method='iterative')")
    eye = np.eye(n)
    M = np.kron(eye, sys.A) + np.kron(sys.A, eye)
    K = sys.K
    for i in range(sys.d):
        for j in range(sys.d):
            if K[i, j] != 0.0:
                M += K[i, j] * np.kron(sys.N[j], sys.N[i])
    return M


def is_mean_square_stable(
        sys: BilinearRoughSystem,
        method: str = "auto",
        dense_threshold: int = DENSE_THRESHOLD,
        tol: float = 1e-8,
        max_iter: int = 500,
) -> StabilityReport:
    """Classify mean-square asymptotic stability (lambda(L) in the open left
    half plane).

    method "dense" computes the full spectrum of the n^2 x n^2 representation;
    "iterative" checks A Hurwitz and then runs a power iteration on
    X -> -L_A^{-1}(Pi(X)) whose spectral radius is < 1 exactly when L is
    stable; "auto" picks dense while n^2 <= dense_threshold. The dense route
    is expensive already at n = 100 (a dense 10^4 x 10^4 eigendecomposition);
    internal callers in this package always use the iterative route.
    """
    if method == "auto":
        method = "dense" if sys.n * sys.n <= dense_threshold else "iterative"
    if method == "dense":
        M = lyapunov_matrix_representation(sys, dense_threshold=max(
            dense_threshold, sys.n * sys.n))
        abscissa = float(np.linalg.eigvals(M).real.max())
        return StabilityReport(
            spectral_abscissa=abscissa,
            is_mean_square_stable=abscissa < 0.0,
            method=StabilityMethod.DENSE_SPECTRUM,
        )
    if method != "iterative":
        raise ArgumentError(f"unknown stability method {method!r}")

    # The abscissa of L dominates twice the abscissa of A, so a non-Hurwitz
    # drift settles the question without touching the noise part.
    if float(np.linalg.eigvals(sys.A).real.max()) >= 0.0:
        return StabilityReport(
            spectral_abscissa=math.nan,
            is_mean_square_stable=False,
            method=StabilityMethod.FIXED_POINT_CONVERGENCE,
        )
    lyap = SchurLyapunov(sys.A)
    X = np.eye(sys.n) / math.sqrt(sys.n)
    rho = 0.0
    for _ in range(max_iter):
        Y = lyap.solve_neg(noise_part(X, sys.N, sys.K))
        lam = float(np.linalg.norm(Y))
        if lam == 0.0:
            rho = 0.0
            break
        if abs(lam - rho) <= tol * lam:
            rho = lam
            break
        rho = lam
        X = Y / lam
    return StabilityReport(
        spectral_abscissa=math.nan,
        is_mean_square_stable=rho < 1.0,
        method=StabilityMethod.FIXED_POINT_CONVERGENCE,
        rho=rho,
    )


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
