"""Cached Bartels-Stewart solves for A X + X A^T = -Q.

The GMRES Gramian solve and the power iteration of the stability check both
call the same Lyapunov resolvent many times with a fixed A; factoring the
real Schur form once and reusing it turns each solve into two changes of
basis by the orthogonal factor and one dtrsyl call. The check also reads
Re(lambda(A)) off the diagonal of the Schur factor.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import schur
from scipy.linalg import lapack

from .errors import NumericalError


class SchurLyapunov:
    """Solver for A X + X A^T = -Q with A factored once.

    A must be Hurwitz for the solve to be a genuine (positive) resolvent;
    dtrsyl itself only needs lambda_i + lambda_j != 0.
    """

    def __init__(self, A):
        A = np.asarray(A, dtype=float)
        self.T, self.Z = schur(A, output="real")

    def solve_neg(self, Q):
        """Return the X with A X + X A^T = -Q (Q symmetric in, X symmetric out)."""
        Y = self.Z.T @ Q @ self.Z
        X, scale, info = lapack.dtrsyl(self.T, self.T, -Y, tranb="C")
        if info < 0:
            raise NumericalError(f"dtrsyl: illegal argument {-info}")
        if info == 1:
            raise NumericalError(
                "dtrsyl: A and -A^T have a common eigenvalue "
                "(perturbed solve rejected)")
        X = self.Z @ (X / scale) @ self.Z.T
        return (X + X.T) / 2
