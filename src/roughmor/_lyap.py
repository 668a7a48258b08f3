"""Cached Lyapunov solves for A X + X A^T = -Q.

The GMRES Gramian solve and the stability check call the same Lyapunov
resolvent many times with a fixed A, so A is factored once and each solve
is two changes of basis by the orthogonal factor plus a cheap middle step.
An exactly symmetric A, such as the heat model's second-difference
Laplacian, is diagonalized, A = Z diag(w) Z^T, and the middle step is the
elementwise division of -Z^T Q Z by w_i + w_j. Any other A gets a real Schur
form and a triangular Sylvester solve. That solve is recursive and blocked
(Jonsson & Kagstrom, ACM TOMS 28(4), 2002): it halves the larger dimension
until both are at most 64, so most of its work is matrix products, and calls
LAPACK's level-2 dtrsyl at the leaves. The stability check reads the drift's
spectral abscissa off either factorization, and the observability Gramian
solves with A^T from the same one.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import eigh, schur
from scipy.linalg import lapack

from .errors import NumericalError

# both dimensions of a dtrsyl leaf are at most this
_LEAF = 64


class SchurLyapunov:
    """Solver for A X + X A^T = -Q with A factored once.

    A symmetric A is stored as its eigenvalues ``w`` and eigenvectors ``Z``
    (``T`` is None), any other A as its real Schur form A = Z T Z^T (``w``
    is None). A must be Hurwitz for the solve to be a genuine (positive)
    resolvent; the solve itself only needs lambda_i + lambda_j != 0.
    """

    def __init__(self, A):
        A = np.asarray(A, dtype=float)
        self.T = self.w = None
        if np.array_equal(A, A.T):
            self.w, self.Z = eigh(A)
        else:
            self.T, self.Z = schur(A, output="real")

    @property
    def abscissa(self) -> float:
        """The largest real part of an eigenvalue of A. LAPACK standardizes
        each 2x2 Schur block to equal diagonal entries, so diag(T) carries
        Re(lambda(A))."""
        return float(self.w[-1] if self.T is None else np.diag(self.T).max())

    def transposed(self) -> SchurLyapunov:
        """The solver for A^T, without a second factorization.

        A symmetric A is its own transpose. Otherwise, with J the reversal
        of the index order, A^T = (Z J)(J T^T J)(Z J)^T, and J T^T J is upper
        quasi-triangular with the same standardized 2x2 blocks as T, so it
        is a real Schur form of A^T.
        """
        if self.T is None:
            return self
        flipped = object.__new__(SchurLyapunov)
        flipped.w = None
        flipped.T = np.ascontiguousarray(self.T.T[::-1, ::-1])
        flipped.Z = np.ascontiguousarray(self.Z[:, ::-1])
        return flipped

    def solve_neg(self, Q):
        """Return the X with A X + X A^T = -Q (Q symmetric in, X symmetric out)."""
        X = -(self.Z.T @ Q @ self.Z)
        if self.T is None:
            X /= self.w[:, None] + self.w
        else:
            scale = _solve_sylvester(self.T, self.T, X)
            X /= scale
        X = self.Z @ X @ self.Z.T
        return (X + X.T) / 2


def _split(T) -> int:
    """Midpoint of T's index range, moved by one where it would cut a 2x2
    block of the quasi-triangular T."""
    k = len(T) // 2
    return k + 1 if T[k, k - 1] != 0.0 else k


def _solve_sylvester(Ta, Tb, W) -> float:
    """Overwrite W with the X of Ta X + X Tb^T = scale W; return scale.

    Ta and Tb are upper quasi-triangular. The larger dimension is split,
    the column dimension by way of the transposed equation
    Tb X^T + X^T Ta^T = scale W^T: the trailing block is solved first, its
    product with the coupling block of Ta leaves the leading right-hand
    side, and the leading block is solved second. A scale below 1, which
    dtrsyl returns to avoid overflow, carries over to the other block.
    """
    m, n = W.shape
    if m < n:
        return _solve_sylvester(Tb, Ta, W.T)
    if m <= _LEAF:
        X, scale, info = lapack.dtrsyl(Ta, Tb, W, tranb="C")
        if info < 0:
            raise NumericalError(f"dtrsyl: illegal argument {-info}")
        if info == 1:
            raise NumericalError(
                "dtrsyl: A and -A^T have a common eigenvalue "
                "(perturbed solve rejected)")
        W[...] = X
        return scale
    k = _split(Ta)
    lead, trail = W[:k], W[k:]
    s_trail = _solve_sylvester(Ta[k:, k:], Tb, trail)
    if s_trail != 1.0:
        lead *= s_trail
    lead -= Ta[:k, k:] @ trail
    s_lead = _solve_sylvester(Ta[:k, :k], Tb, lead)
    if s_lead != 1.0:
        trail *= s_lead
    return s_lead * s_trail
