"""Cached Bartels-Stewart solves for A X + X A^T = -Q.

The GMRES Gramian solve and the stability check call the same Lyapunov
resolvent many times with a fixed A; factoring the real Schur form once and
reusing it turns each solve into two changes of basis by the orthogonal
factor and one triangular Sylvester solve. That solve is recursive and
blocked (Jonsson & Kagstrom, ACM TOMS 28(4), 2002): it halves the larger
dimension until both are at most 64, so most of its work is matrix products,
and calls LAPACK's level-2 dtrsyl at the leaves. The check also reads
Re(lambda(A)) off the diagonal of the Schur factor, and the observability
Gramian solves with A^T from the same factorization.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import schur
from scipy.linalg import lapack

from .errors import NumericalError

# both dimensions of a dtrsyl leaf are at most this
_LEAF = 64


class SchurLyapunov:
    """Solver for A X + X A^T = -Q with A factored once, A = Z T Z^T.

    A must be Hurwitz for the solve to be a genuine (positive) resolvent;
    the Sylvester solve itself only needs lambda_i + lambda_j != 0.
    """

    def __init__(self, A):
        A = np.asarray(A, dtype=float)
        self.T, self.Z = schur(A, output="real")

    def transposed(self) -> SchurLyapunov:
        """The solver for A^T, without a second Schur decomposition.

        With J the reversal of the index order, A^T = (Z J)(J T^T J)(Z J)^T,
        and J T^T J is upper quasi-triangular with the same standardized 2x2
        blocks as T, so it is a real Schur form of A^T.
        """
        flipped = object.__new__(SchurLyapunov)
        flipped.T = np.ascontiguousarray(self.T.T[::-1, ::-1])
        flipped.Z = np.ascontiguousarray(self.Z[:, ::-1])
        return flipped

    def solve_neg(self, Q):
        """Return the X with A X + X A^T = -Q (Q symmetric in, X symmetric out)."""
        X = -(self.Z.T @ Q @ self.Z)
        scale = _solve_sylvester(self.T, self.T, X)
        X = self.Z @ (X / scale) @ self.Z.T
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
