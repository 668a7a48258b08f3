import numpy as np
import pytest
from scipy.linalg import schur, solve_triangular

import roughmor._lyap
from roughmor import NumericalError, solve_algebraic_gramian
from roughmor._fixtures import mild_stable_system
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


def one_dtrsyl_solve_neg(self, Q, transpose=False):
    # the Schur-route solve as one dtrsyl call, its result back in C order;
    # the obs side solves T^T Y + Y T = C on the same T
    trans = dict(trana="T", tranb="N") if transpose else dict(tranb="C")
    Y, scale, info = roughmor._lyap.lapack.dtrsyl(
        self.T, self.T, -(self.Z.T @ Q @ self.Z), **trans)
    assert info == 0
    X = self.Z @ np.ascontiguousarray(Y / scale) @ self.Z.T
    return (X + X.T) / 2


@pytest.mark.parametrize("n", [70, 130])
def test_blocked_solve_matches_kronecker(n):
    # both sizes exceed 64 states, where one unblocked dtrsyl call does all
    # of the triangular solve
    A, Q = stable_nonsymmetric(n, seed=n)
    X = SchurLyapunov(A).solve_neg(Q)
    ref = kronecker_solve(A, Q)
    assert np.linalg.norm(X - ref) <= 1e-12 * np.linalg.norm(ref)


def test_leaf_solve_is_one_dtrsyl_call():
    # the Schur-route solve is the single dtrsyl call, bit for bit, below
    # and above 64 states, on either side
    for n in (40, 130):
        A, Q = stable_nonsymmetric(n, seed=1)
        lyap = SchurLyapunov(A)
        for transpose in (False, True):
            assert np.array_equal(
                lyap.solve_neg(Q, transpose),
                one_dtrsyl_solve_neg(lyap, Q, transpose)), (n, transpose)


def test_common_eigenvalue_rejected():
    # eigenvalues 1 and -1 sum to zero, so the Sylvester operator is
    # singular and dtrsyl reports a perturbed solve
    lyap = SchurLyapunov(np.array([[1.0, 1.0], [0.0, -1.0]]))
    with pytest.raises(NumericalError, match="common eigenvalue"):
        lyap.solve_neg(np.eye(2))


@pytest.mark.parametrize("n", [7, 130])
def test_transposed_factorization(n):
    # the Schur form of A solves the A^T equation through dtrsyl's
    # transpose flags, with no second factorization
    A, Q = stable_nonsymmetric(n, seed=n + 1)
    lyap = SchurLyapunov(A)
    # the Schur route, with 2x2 blocks for complex eigenvalue pairs
    assert np.any(np.diag(lyap.T, -1) != 0.0)
    X = lyap.solve_neg(Q, transpose=True)
    assert (np.linalg.norm(A.T @ X + X @ A + Q)
            <= 1e-13 * np.linalg.norm(A) * np.linalg.norm(X))
    ref = kronecker_solve(A.T, Q)
    assert np.linalg.norm(X - ref) <= 1e-12 * np.linalg.norm(ref)


def stable_symmetric(n, seed):
    # exactly symmetric, with its largest eigenvalue at -0.5
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((n, n)) / np.sqrt(n)
    A = (B + B.T) / 2
    A -= (np.linalg.eigvalsh(A).max() + 0.5) * np.eye(n)
    Q = rng.standard_normal((n, n))
    return A, Q @ Q.T


@pytest.mark.parametrize("n", [70, 130])
def test_symmetric_solve_matches_kronecker(n):
    A, Q = stable_symmetric(n, seed=n)
    lyap = SchurLyapunov(A)
    assert lyap.T is None and abs(lyap.abscissa + 0.5) <= 1e-13
    X = lyap.solve_neg(Q)
    ref = kronecker_solve(A, Q)
    assert np.linalg.norm(X - ref) <= 1e-12 * np.linalg.norm(ref)


def test_symmetric_transposed_solves_with_transpose():
    A, Q = stable_symmetric(70, seed=3)
    lyap = SchurLyapunov(A)
    X = lyap.solve_neg(Q, transpose=True)
    # a symmetric A is its own transpose: the flag changes nothing
    assert np.array_equal(X, lyap.solve_neg(Q))
    assert (np.linalg.norm(A.T @ X + X @ A + Q)
            <= 1e-13 * np.linalg.norm(A) * np.linalg.norm(X))
    ref = kronecker_solve(A.T, Q)
    assert np.linalg.norm(X - ref) <= 1e-12 * np.linalg.norm(ref)


def test_one_ulp_off_symmetric_takes_schur_route():
    A, Q = stable_symmetric(70, seed=5)
    A[0, 1] = np.nextafter(A[0, 1], np.inf)
    lyap = SchurLyapunov(A)
    assert lyap.w is None
    assert np.array_equal(lyap.T, schur(A, output="real")[0])
    X = lyap.solve_neg(Q)
    ref = kronecker_solve(A, Q)
    assert np.linalg.norm(X - ref) <= 1e-12 * np.linalg.norm(ref)


def test_nonsymmetric_gramians_unchanged(random_stable_batch, monkeypatch):
    # a non-symmetric drift keeps the Schur route bit for bit, through the
    # stability check and both Gramian solves
    systems = [*random_stable_batch, mild_stable_system(30, 2, seed=0)]
    assert not any(np.array_equal(s.A, s.A.T) for s in systems)
    sides = ("reach", "obs")
    got = [[solve_algebraic_gramian(s, side) for side in sides]
           for s in systems]
    monkeypatch.setattr(SchurLyapunov, "solve_neg", one_dtrsyl_solve_neg)
    for sys_, results in zip(systems, got):
        for side, res in zip(sides, results):
            ref = solve_algebraic_gramian(sys_, side)
            assert np.array_equal(res.matrix, ref.matrix), side
            assert res.gate_rho_upper == ref.gate_rho_upper
