import numpy as np
import pytest
from scipy.linalg import schur, solve_triangular

import roughmor._lyap
from roughmor._lyap import SchurLyapunov


def stable_nonsymmetric(n, seed):
    # a Gaussian matrix has about n - sqrt(2 n / pi) eigenvalues in complex
    # pairs; the shift puts its abscissa at -0.5
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n)) / np.sqrt(n)
    A -= (np.linalg.eigvals(A).real.max() + 0.5) * np.eye(n)
    Q = rng.standard_normal((n, n))
    return A, Q @ Q.T


def kronecker_solve(A, Q):
    # (I kron A + A kron I) vec(X) = -vec(Q) by block back-substitution in
    # A's complex Schur basis A = W U W^H, where the Kronecker matrix is
    # block upper triangular with diagonal blocks U + u_jj I; no real Schur
    # form, 2x2 block or dtrsyl enters
    U, W = schur(A.astype(complex), output="complex")
    C = -(W.conj().T @ Q @ W.conj())
    n = len(A)
    Y = np.zeros((n, n), dtype=complex)
    for j in range(n - 1, -1, -1):
        rhs = C[:, j] - Y[:, j + 1:] @ U[j, j + 1:]
        Y[:, j] = solve_triangular(U + U[j, j] * np.eye(n), rhs)
    return (W @ Y @ W.T).real


@pytest.mark.parametrize("n", [70, 130])
def test_blocked_solve_matches_kronecker(n, monkeypatch):
    # both sizes exceed a dtrsyl leaf, so the solve recurses; the test needs
    # a split that had to move off a 2x2 block, since cutting one gives an
    # O(1) error
    moved = []
    split = roughmor._lyap._split

    def spy(T):
        k = split(T)
        moved.append(k != len(T) // 2)
        return k

    monkeypatch.setattr(roughmor._lyap, "_split", spy)
    A, Q = stable_nonsymmetric(n, seed=n)
    X = SchurLyapunov(A).solve_neg(Q)
    ref = kronecker_solve(A, Q)
    assert np.linalg.norm(X - ref) <= 1e-12 * np.linalg.norm(ref)
    assert any(moved)


def test_leaf_solve_is_one_dtrsyl_call():
    # at n <= 64 the blocked solve is the single dtrsyl call, bit for bit
    A, Q = stable_nonsymmetric(40, seed=1)
    lyap = SchurLyapunov(A)
    Y = lyap.Z.T @ Q @ lyap.Z
    X, scale, info = roughmor._lyap.lapack.dtrsyl(lyap.T, lyap.T, -Y,
                                                   tranb="C")
    X = lyap.Z @ (X / scale) @ lyap.Z.T
    assert info == 0
    assert np.array_equal(lyap.solve_neg(Q), (X + X.T) / 2)


@pytest.mark.parametrize("n", [7, 130])
def test_transposed_factorization(n):
    A, Q = stable_nonsymmetric(n, seed=n + 1)
    flipped = SchurLyapunov(A).transposed()
    T, Z = flipped.T, flipped.Z
    # a real Schur form of A^T: orthogonal Z, T upper quasi-triangular with
    # no two adjacent subdiagonal entries
    assert np.linalg.norm(Z @ T @ Z.T - A.T) <= 1e-13 * np.linalg.norm(A)
    assert np.linalg.norm(Z.T @ Z - np.eye(n)) <= 1e-13 * n
    assert np.all(np.tril(T, -2) == 0.0)
    sub = np.diag(T, -1) != 0.0
    assert sub.any() and not np.any(sub[1:] & sub[:-1])
    X = flipped.solve_neg(Q)
    assert (np.linalg.norm(A.T @ X + X @ A + Q)
            <= 1e-13 * np.linalg.norm(A) * np.linalg.norm(X))
    ref = kronecker_solve(A.T, Q)
    assert np.linalg.norm(X - ref) <= 1e-12 * np.linalg.norm(ref)
