"""Cached Lyapunov solves for A X + X A^T = -Q.

The GMRES Gramian solve and the stability check call the same Lyapunov
resolvent many times with a fixed A, so A is factored once and each solve
is two changes of basis by the orthogonal factor plus a cheap middle step.
An exactly symmetric A, such as the heat model's second-difference
Laplacian, is diagonalized, A = Z diag(w) Z^T, and the middle step is the
elementwise division of -Z^T Q Z by w_i + w_j. Any other A gets a real Schur
form, and the middle step is one call of LAPACK's dtrsyl, the Bartels-Stewart
back-substitution for the quasi-triangular Sylvester equation (Bartels &
Stewart, CACM 15, 1972). The stability check reads the drift's spectral
abscissa off either factorization. The observability Gramian's equation
A^T X + X A = -Q takes the same factorization: a symmetric A is its own
transpose, and on the Schur route dtrsyl's transpose flags solve
T^T Y + Y T = C with the one T.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import eigh, schur
from scipy.linalg import lapack

from .errors import NumericalError


class SchurLyapunov:
    """Solver for A X + X A^T = -Q and A^T X + X A = -Q with A factored once.

    A symmetric A is stored as its eigenvalues ``w`` and eigenvectors ``Z``
    (``T`` is None), any other A as its real Schur form A = Z T Z^T (``w``
    is None). A Schur-route solve is one unblocked dtrsyl call, level-2
    work that runs slower than a blocked solve would above about 64
    states. A must be Hurwitz for the solve to be a genuine (positive)
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

    def solve_neg(self, Q, transpose=False):
        """Return the X with A X + X A^T = -Q, or A^T X + X A = -Q when
        ``transpose`` is set (Q symmetric in, X symmetric out)."""
        X = -(self.Z.T @ Q @ self.Z)
        if self.T is None:
            X /= self.w[:, None] + self.w
        else:
            # A^T = Z T^T Z^T: the transposed solve is T^T Y + Y T = C
            trana, tranb = ("T", "N") if transpose else ("N", "C")
            Y, scale, info = lapack.dtrsyl(self.T, self.T, X, trana=trana,
                                           tranb=tranb)
            if info < 0:
                raise NumericalError(f"dtrsyl: illegal argument {-info}")
            if info == 1:
                raise NumericalError(
                    "dtrsyl: A and -A^T have a common eigenvalue "
                    "(perturbed solve rejected)")
            # back into the C-ordered X: the products below round by layout
            X[...] = Y / scale
        X = self.Z @ X @ self.Z.T
        return (X + X.T) / 2
