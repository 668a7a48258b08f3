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

from .errors import ArgumentError, CapabilityError
from ._lyap import SchurLyapunov

# LyapunovOperator.matrix has n^4 entries: 6.5 MB at this order
DENSE_MAX_ORDER = 30
# Arnoldi of is_mean_square_stable stops once the dominant Ritz pair's
# residual estimate falls to this fraction of the Ritz value
STABILITY_TOL = 1e-8
# cap on the Lyapunov solves of one stability check
STABILITY_MAX_ITER = 500
# the Arnoldi loop restarts after this many steps
_ARNOLDI_RESTART = 20


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


@dataclass(frozen=True)
class StabilityReport:
    """Outcome of a mean-square stability classification.

    ``rho`` is the spectral radius of X -> -L_A^{-1}(Pi(X)) (stable iff
    rho < 1), or None when A is not Hurwitz and the noise part never enters.
    ``solves`` counts the Lyapunov solves the estimate took. ``lyap`` is the
    Schur factorization of A the check built, for the Gramian solve to
    reuse.
    """

    is_mean_square_stable: bool
    rho: Optional[float]
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

        With R = residual(G), the relative residual is ||R||_F / ||rhs||_F
        and the backward error ||R||_F / (||rhs||_F + l ||G||_F), where
        l = 2 ||A|| + sum_ij |k_ij| ||N_i|| ||N_j|| bounds ||L|| in the
        Frobenius norm, each 2-norm bounded by sqrt(||M||_1 ||M||_inf) at
        O(n^2) cost.
        """
        nr = np.linalg.norm(self.rhs)
        nR = np.linalg.norm(self.residual(G))
        norms = np.sqrt([np.linalg.norm(M, 1) * np.linalg.norm(M, np.inf)
                         for M in (self.A, *self.N)])
        ell = 2.0 * norms[0] + norms[1:] @ np.abs(self.K) @ norms[1:]
        return float(nR / nr), float(nR / (nr + ell * np.linalg.norm(G)))

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
    """Classify mean-square asymptotic stability (lambda(L) in the open left
    half plane).

    Checks that A is Hurwitz, then estimates the spectral radius of
    X -> -L_A^{-1}(Pi(X)), which is < 1 exactly when L is stable, by
    Arnoldi with modified Gram-Schmidt on n x n matrices (Stewart, SIMAX
    2001), started from the positive definite I / sqrt(n). The operator is
    resolvent positive, so its dominant eigenvalue is real and has a PSD
    eigenvector (Damm, LNCIS 297, 2004): every _ARNOLDI_RESTART steps the
    loop restarts from the real part of the dominant Ritz vector. It stops
    when that Ritz pair's residual estimate h_{k+1,k} |e_k^T s| is at most
    STABILITY_TOL |theta|, on breakdown, or after STABILITY_MAX_ITER solves.
    Matrix-free: one cached-Schur Lyapunov solve per step, so the n^2 x n^2
    representation is never formed.
    """
    lyap = SchurLyapunov(sys.A)
    # The abscissa of L dominates twice the abscissa of A, so a non-Hurwitz
    # drift settles the question without touching the noise part. LAPACK
    # returns the real Schur form standardized: each 2x2 block has equal
    # diagonal entries, which are the real part of its eigenvalue pair, so
    # the diagonal of T carries Re(lambda(A)).
    if float(np.diag(lyap.T).max()) >= 0.0:
        return StabilityReport(is_mean_square_stable=False, rho=None,
                               solves=0, lyap=lyap)
    op = LyapunovOperator(sys)
    eps = np.finfo(float).eps
    v = np.eye(sys.n) / math.sqrt(sys.n)
    solves = 0
    done = False
    while not done:
        basis = [v]
        H = np.zeros((_ARNOLDI_RESTART + 1, _ARNOLDI_RESTART))
        for j in range(_ARNOLDI_RESTART):
            w = lyap.solve_neg(op.noise(basis[j]))
            solves += 1
            w_norm = np.linalg.norm(w)
            for i, u in enumerate(basis):
                H[i, j] = np.vdot(u, w)
                w -= H[i, j] * u
            H[j + 1, j] = np.linalg.norm(w)
            # eig returns eigenvectors of unit 2-norm
            theta, S = np.linalg.eig(H[:j + 1, :j + 1])
            k = int(np.argmax(np.abs(theta)))
            rho = float(abs(theta[k]))
            done = (H[j + 1, j] * abs(S[j, k]) <= STABILITY_TOL * rho
                    or H[j + 1, j] <= eps * w_norm
                    or solves == STABILITY_MAX_ITER)
            if done:
                break
            if j + 1 < _ARNOLDI_RESTART:
                basis.append(w / H[j + 1, j])
        else:
            v = sum(s.real * u for s, u in zip(S[:, k], basis))
            v /= np.linalg.norm(v)
    return StabilityReport(is_mean_square_stable=rho < 1.0, rho=rho,
                           solves=solves, lyap=lyap)


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
