"""Reachability and observability Gramians of the associated Ito dynamics.

Finite-horizon Gramians P_T = int_0^T Z dt of the matrix ODE dZ/dt = L(Z)
(or the dual equation) come in closed form from one matrix exponential of
the dense operator augmented by Z(0), so they are limited to n <=
DENSE_MAX_ORDER. Infinite-horizon Gramians solve

    0 = x0 x0^T + L(P),        0 = C^T C + L*(Q)

by GMRES on the equation preconditioned with a standard Lyapunov solve, whose
factorization of A the stability check builds and both sides reuse (an
eigendecomposition when A is exactly symmetric, a real Schur form
otherwise; the obs side solves with A^T on it), and accept a solution by
its normwise backward error. Every route evaluates its side's equation
through system.LyapunovOperator, which holds the transposed data on the
observability side.

An independent Euler-Maruyama Monte-Carlo estimator of the Gramian
int_0^T E[x x^T] dt serves as a statistical oracle for both routes; it
estimates that integral only and shares with the routes only the side's A
and mixed noise matrices, whose covariance convention a test pins against
the Kronecker matrix of the k_ij pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.linalg import expm

from .errors import (ArgumentError, ConvergenceError,
                     IntegrationOverflowError, NumericalError, StabilityError)
from ._util import atomic_write_text, csv_text
from .system import (DENSE_MAX_ORDER, BilinearRoughSystem, LyapunovOperator,
                     StabilityReport, is_mean_square_stable)

GMRES_MAX_ITER = 500
# GMRES stops when its residual estimate falls to this fraction of the
# preconditioned right-hand side. It sits just above the round-off floor:
# stopping earlier leaves P's smallest eigenvalues, which the exact cut at
# DEFAULT_TOL_P = 1e-16 reads, short of converged, and a target below the
# floor is never met.
GMRES_TOL = 1e-14
# A solve is accepted when its normwise backward error is at most this small
# multiple of machine epsilon: unlike the relative residual, whose round-off
# floor grows with cond(A), it stays near eps at every order (Higham,
# Accuracy and Stability of Numerical Algorithms, 2nd ed., ch. 16).
BACKWARD_ERROR_BOUND = 64 * np.finfo(float).eps


@dataclass(frozen=True, eq=False)
class GramianResult:
    """A computed Gramian with its defining-equation residual.

    ``side`` is "reach" or "obs". A finite-horizon Gramian on [0, T]
    carries a ``trajectory`` that samples Z at t_k = k T / ``iterations``.
    ``residual`` is the relative Frobenius residual of the defining
    equation (for finite horizons: the integrated-ODE identity
    Z(T) = Z(0) + L(P_T), which holds up to round-off).
    ``backward_error`` is the normwise backward error by which algebraic
    solves are accepted, and ``gate_rho_lower``, ``gate_rho_upper`` and
    ``gate_solves`` the bracket on the splitting spectral radius and the
    solve count of their stability check (all None for finite horizons).
    The matrix is stored exactly symmetric, as (P + P^T) / 2: round-off may
    leave eigenvalues slightly below zero, and truncation drops every
    eigenvalue that is not positive.
    """

    matrix: np.ndarray
    side: str
    residual: float
    iterations: int
    backward_error: Optional[float] = None
    gate_rho_lower: Optional[float] = None
    gate_rho_upper: Optional[float] = None
    gate_solves: Optional[int] = None
    trajectory: Optional[np.ndarray] = field(default=None, repr=False)

    def __post_init__(self):
        G = np.asarray(self.matrix, dtype=float)
        if G.ndim != 2 or G.shape[0] != G.shape[1]:
            raise ArgumentError(f"Gramian must be square, got shape {G.shape}")
        nG = np.linalg.norm(G)
        if np.linalg.norm(G - G.T) > 1e-12 * max(nG, 1e-300):
            raise ArgumentError("Gramian is not symmetric")
        if self.side not in ("reach", "obs"):
            raise ArgumentError(
                f"side must be 'reach' or 'obs', got {self.side!r}")
        object.__setattr__(self, "matrix", G)


def integrate_gramian_ode(
        sys: BilinearRoughSystem, side: str, T: float,
        steps: int) -> GramianResult:
    """Finite-horizon Gramian P_T = int_0^T Z(t) dt of dZ/dt = L(Z), exactly.

    Z(0) is x0 x0^T (reach) or C^T C (obs). With M the dense matrix of L
    (LyapunovOperator.matrix, so n <= DENSE_MAX_ORDER), vec P_T is the top
    of the last column of expm(T [[M, vec Z(0)], [0, 0]]) (Van Loan, IEEE
    TAC 23, 1978). The trajectory samples Z(t_k) = expm(T M / steps)^k
    vec Z(0) at t_k = k T / steps.
    """
    if not (T > 0.0):
        raise ArgumentError(f"need T > 0, got {T}")
    if steps < 1:
        raise ArgumentError(f"need steps >= 1, got {steps}")
    L = LyapunovOperator(sys, side)
    M = L.matrix()
    Z0 = L.rhs
    z = Z0.reshape(-1, order="F")
    block = np.block([[M, z[:, None]], [np.zeros((1, len(z) + 1))]])
    # an overflow reaches the finiteness check as inf or nan, unwarned
    with np.errstate(over="ignore", invalid="ignore"):
        P = expm(T * block)[:-1, -1].reshape(Z0.shape, order="F")
        flow = expm((T / steps) * M)
        samples = [z]
        for _ in range(steps):
            samples.append(flow @ samples[-1])
        Z = np.stack(samples).reshape(-1, *Z0.shape).transpose(0, 2, 1)
        if not (np.all(np.isfinite(P)) and np.all(np.isfinite(Z))):
            raise IntegrationOverflowError(
                f"the Gramian flow on [0, {T:.6g}] overflowed float range")
    P = (P + P.T) / 2
    # Integrated form of the ODE: Z(T) - Z(0) = L(P_T), exact up to round-off
    residual = np.linalg.norm(Z[-1] - Z0 - L(P)) / (np.linalg.norm(Z0) or 1.0)
    return GramianResult(matrix=P, side=side, residual=float(residual),
                         iterations=steps, trajectory=Z)


def solve_algebraic_gramian(sys: BilinearRoughSystem,
                            side: str) -> GramianResult:
    """Infinite-horizon Gramian by Lyapunov-preconditioned GMRES.

    With L_A^{-1} the cached solve of A X + X A^T = -Y, the equation
    0 = rhs + L(P) reads (I - L_A^{-1} Pi) P = L_A^{-1}(rhs). GMRES runs on
    this form from P = 0 (Damm, NLA 2008) and stops once its residual
    estimate falls to GMRES_TOL relative, which sits just above its
    round-off floor, once its Krylov space is full (n(n+1)/2 iterations,
    the dimension of the symmetric matrices, or an exact breakdown), or
    after GMRES_MAX_ITER iterations. The solution is accepted when its
    normwise backward error (LyapunovOperator.errors) is at most
    BACKWARD_ERROR_BOUND; otherwise ConvergenceError carries that
    backward error and the iteration count, as it does when the Arnoldi
    vectors leave float range. The relative residual rides
    along on the result as a diagnostic.

    Requires mean-square stability (is_mean_square_stable): StabilityError
    when the check proves the system unstable, NumericalError when it
    cannot decide. The solve reuses the check's factorization of A on both
    sides, the obs side solving with A^T through it, so it factors A once.
    """
    return _solve_gramians(sys, (side,))[0]


def _solve_gramians(sys: BilinearRoughSystem, sides) -> list:
    """solve_algebraic_gramian for each of ``sides`` behind one stability
    check, whose factorization of A every solve reuses."""
    ops = [LyapunovOperator(sys, side) for side in sides]
    report = is_mean_square_stable(sys)
    if not report.is_mean_square_stable:
        detail = "drift spectrum reaches the closed right half plane" \
            if report.lower is None \
            else f"splitting spectral radius >= {report.lower:.6g} > 1"
        raise StabilityError(
            f"system is not mean-square asymptotically stable ({detail}); "
            "the algebraic Gramian equation has no PSD solution")
    # an overflow reaches the backward-error check as inf or nan, unwarned
    with np.errstate(over="ignore", invalid="ignore"):
        return [_gmres_gramian(op, side, report)
                for op, side in zip(ops, sides)]


def _gmres_gramian(op: LyapunovOperator, side: str,
                   report: StabilityReport) -> GramianResult:
    gate = dict(gate_rho_lower=report.lower, gate_rho_upper=report.upper,
                gate_solves=report.solves)
    if np.linalg.norm(op.rhs) == 0.0:
        P = np.zeros_like(op.A)
        res, eta = op.errors(P)
        return GramianResult(matrix=P, side=side, residual=res, iterations=0,
                             backward_error=eta, **gate)
    transpose = side == "obs"
    b = report.lyap.solve_neg(op.rhs, transpose)
    beta = np.linalg.norm(b)
    # Arnoldi with modified Gram-Schmidt on full n x n Krylov matrices. They
    # are symmetric, so the Krylov space is full after n(n+1)/2 steps or at
    # an exact breakdown, and a further vector would be round-off
    n = op.A.shape[0]
    limit = min(GMRES_MAX_ITER, n * (n + 1) // 2)
    basis = [b / beta]
    H = np.zeros((limit + 1, limit))
    e1 = np.zeros(limit + 1)
    e1[0] = beta
    for j in range(limit):
        w = basis[j] - report.lyap.solve_neg(op.noise(basis[j]), transpose)
        for i, v in enumerate(basis):
            H[i, j] = np.vdot(v, w)
            w -= H[i, j] * v
        H[j + 1, j] = np.linalg.norm(w)
        if not np.all(np.isfinite(H[:j + 2, j])):
            # lstsq would fail on it with a bare LinAlgError
            raise ConvergenceError(
                f"algebraic Gramian solve left float range at GMRES "
                f"iteration {j + 1}", iterations=j + 1)
        y, *_ = np.linalg.lstsq(H[:j + 2, :j + 1], e1[:j + 2], rcond=None)
        estimate = np.linalg.norm(H[:j + 2, :j + 1] @ y - e1[:j + 2])
        if estimate <= GMRES_TOL * beta or j + 1 == limit \
                or H[j + 1, j] == 0.0:
            break
        basis.append(w / H[j + 1, j])
    iterations = j + 1
    P = np.zeros_like(op.A)
    for coeff, v in zip(y, basis):
        P += coeff * v
    P = (P + P.T) / 2
    res, eta = op.errors(P)
    if not eta <= BACKWARD_ERROR_BOUND:
        raise ConvergenceError(
            f"algebraic Gramian solve reached backward error {eta:.3e} "
            f"after {iterations} GMRES iterations (bound "
            f"{BACKWARD_ERROR_BOUND:.1e}; relative residual {res:.3e})",
            residual=eta, iterations=iterations)
    return GramianResult(matrix=P, side=side, residual=res,
                         iterations=iterations, backward_error=eta, **gate)


def solve_algebraic_gramian_dense(
        sys: BilinearRoughSystem, side: str) -> GramianResult:
    """Cross-check route: solve M vec(P) = -vec(rhs) with the dense n^2 x n^2
    operator matrix (LyapunovOperator.matrix, so n <= DENSE_MAX_ORDER).
    Independent of the GMRES solver. A solution outside float range raises
    NumericalError."""
    op = LyapunovOperator(sys, side)
    vecP = np.linalg.solve(op.matrix(), -op.rhs.reshape(-1, order="F"))
    if not np.all(np.isfinite(vecP)):
        raise NumericalError("dense Gramian solve left float range")
    P = vecP.reshape(sys.n, sys.n, order="F")
    P = (P + P.T) / 2
    res, eta = op.errors(P)
    return GramianResult(matrix=P, side=side, residual=res, iterations=1,
                         backward_error=eta)


@dataclass(frozen=True, eq=False)
class MonteCarloSecondMoment:
    """Monte-Carlo estimate of the Gramian int_0^T E[x(t) x(t)^T] dt.

    ``integral`` is the empirical mean over paths of each path's trapezoid
    time-integral of x x^T; ``integral_se`` holds the per-entry standard
    errors of that mean.
    """

    integral: np.ndarray
    integral_se: np.ndarray


# Bytes of one chunk's arrays (_euler_chunk lists them): the paths per chunk
# are sized so that an Euler step's working set stays near a core's L2.
_MC_CHUNK_BYTES = 2 ** 21
# ufunc buffer size, in elements, inside a chunk
_MC_UFUNC_BUFSIZE = 256
# States per fold of the per-path integrals: the packed sums are read and
# written once per _MC_FOLD Euler steps rather than once per step.
_MC_FOLD = 8


def _mc_chunk_paths(n: int, d: int) -> int:
    """Paths per chunk: as many as fit _euler_chunk's arrays, (n(n+1)/2 +
    (_MC_FOLD + d + 1) n + d) floats a path, in _MC_CHUNK_BYTES, and at
    least one."""
    floats = n * (n + 1) // 2 + (_MC_FOLD + d + 1) * n + d
    return max(1, _MC_CHUNK_BYTES // (8 * floats))


def _euler_chunk(A, N, x_init, T, steps, m, rng):
    """Run m Euler-Maruyama paths; return the mean of their trapezoid
    time-integrals of x x^T and the sum of squared deviations about it.

    A step is one BLAS product, X_{k+1} = [I + dt A, N_1, ..., N_d]
    [X; s_1 X; ...; s_d X], s_j scaling each path's column by its increment.
    X and its scaled copies are the (n, m) row blocks of one ((d + 1) n, m)
    ring, the paths on the contiguous axis. The product writes the new state
    into a slot of a (_MC_FOLD, n, m) history H, and the next step copies it
    from there into the ring's first block, so no step allocates.

    The per-path integrals keep only the upper triangle of x x^T, in one
    packed (n(n+1)/2, m) array. Each time H fills, and once after the last
    step, row i of the triangle summed over the held states, einsum
    "kp,kjp->jp" of H[:, i] and H[:, i:], is added into it, so that array is
    read and written once per _MC_FOLD steps. The einsum writes into the
    ring, which holds nothing between steps. Every state is folded with
    weight 1; half of the first and the last state's outer products then
    come back off the sums, which gives the trapezoid weights, and dt
    scales the path sums once at the end. Centring them in place about the
    chunk mean keeps the spread of nearly equal paths from cancelling. The
    chunk allocates (n(n+1)/2 + (_MC_FOLD + d + 1) n + d) m floats, which
    _mc_chunk_paths keeps within _MC_CHUNK_BYTES = 2 MiB: at n = 10 and
    d = 2, m = 1,569 paths hold H in 1.0 MB, the packed array in 0.69 MB
    and the ring in 0.38 MB; m = 328 at n = 30 and d = 2, and 7,084 at
    n = 3 and d = 1. Beyond them it holds the (n, (d + 1) n) step matrix,
    formed first, and ufunc buffers of _MC_UFUNC_BUFSIZE elements.
    """
    n, d = A.shape[0], len(N)
    dt = T / steps
    sq = math.sqrt(dt)
    # formed before the chunk's arrays, so its temporaries add no peak
    step_matrix = np.hstack([np.eye(n) + dt * A, *N])
    # row i of the upper triangle follows i rows of n, n - 1, ... entries
    start = [i * n - i * (i - 1) // 2 for i in range(n + 1)]
    Ipp = np.zeros((n * (n + 1) // 2, m))
    rows = [(i, Ipp[start[i]:start[i + 1]]) for i in range(n)]
    H = np.empty((_MC_FOLD, n, m))
    ring = np.empty(((d + 1) * n, m))
    X = ring[:n]
    draws = np.empty((m, d))

    def fold(count):
        # add row i of x x^T, summed over the states in H[:count], to the
        # packed sums; the einsum writes into the ring, free between steps
        block = H[:count]
        for i, packed in rows:
            out = ring[:n - i]
            np.einsum("kp,kjp->jp", block[:, i], block[:, i:], out=out)
            packed += out

    H[0] = x_init[:, None]
    # a ufunc that broadcasts, as X times each path's increment does,
    # allocates bufsize elements a call (64 KB at numpy's 8192) though it
    # buffers nothing here; errstate scopes the smaller size to this chunk
    with np.errstate():
        np.setbufsize(_MC_UFUNC_BUFSIZE)
        for k in range(1, steps + 1):
            # state k goes to slot k % _MC_FOLD; H[-1] holds state k - 1
            # when that slot is 0
            slot = k % _MC_FOLD
            if slot == 0:
                fold(_MC_FOLD)
            X[:] = H[slot - 1]
            rng.standard_normal(out=draws)
            draws *= sq
            for j in range(d):
                np.multiply(X, draws[:, j],
                            out=ring[(j + 1) * n:(j + 2) * n])
            np.matmul(step_matrix, ring, out=H[slot])
        fold(steps % _MC_FOLD + 1)
        # the trapezoid's half weights: half of the first and the last
        # state's outer products come back off the folded sums
        last = H[steps % _MC_FOLD]
        for i, packed in rows:
            out = ring[:n - i]
            np.multiply(last[i], last[i:], out=out)
            out += (x_init[i] * x_init[i:])[:, None]
            out *= 0.5
            packed -= out
        path_sum = Ipp.sum(axis=1)
        Ipp -= (path_sum / m)[:, None]
        square_sum = np.square(Ipp, out=Ipp).sum(axis=1)
    upper = np.triu_indices(n)
    mean, spread = np.empty((n, n)), np.empty((n, n))
    for full, packed in ((mean, dt * path_sum / m),
                         (spread, dt * dt * square_sum)):
        full[upper] = packed
        full.T[upper] = packed
    return mean, spread


def monte_carlo_second_moment(
        sys: BilinearRoughSystem, side: str, T: float, n_paths: int,
        dt: float, seed: int) -> MonteCarloSecondMoment:
    """Euler-Maruyama estimate of the Gramian int_0^T E[x(t) x(t)^T] dt.

    The reach side starts every path at x0; the observability side runs the
    dual SDE (A and the mixed noise matrices transposed) once per nonzero
    row c_l of C, started at c_l^T, and sums the row estimates (their
    variances add). The drift nonlinearity plays no role here: the
    second-moment identity being checked is the one for the linear part.

    Paths are simulated in chunks whose arrays fit _MC_CHUNK_BYTES = 2 MiB,
    about one core's L2 cache, so an Euler step's working set stays there:
    7,084 paths at n = 3 and d = 1, 1,569 at n = 10 and 328 at n = 30 with
    d = 2. Each chunk draws from its own spawned child seed and chunks merge
    sequentially in chunk order, so the estimate is bitwise deterministic
    for a fixed (system, seed, n_paths, dt); the random stream follows the
    chunking, so another budget would draw another sample. A chunk whose
    sums leave float range raises IntegrationOverflowError. Each chunk
    advances its paths by one BLAS product per Euler step on a ring that
    holds the state and its increment-scaled copies, with the paths on the
    contiguous axis, writes each state into a history of _MC_FOLD states,
    and folds that history into its per-path integrals, kept as the
    n(n+1)/2 upper-triangle entries, once per _MC_FOLD steps (_euler_chunk
    gives its arrays). The standard errors are centred: each chunk
    returns its mean and squared deviations about it, and chunks merge by
    the pairwise update of Chan, Golub and LeVeque. The oracle cross-checks
    the closed-form and dense routes, so like them it refuses
    n > DENSE_MAX_ORDER. T must be a whole number of steps dt.
    """
    if sys.n > DENSE_MAX_ORDER:
        raise ArgumentError(
            f"the Monte-Carlo oracle is limited to n <= {DENSE_MAX_ORDER}, "
            f"got n = {sys.n}")
    if n_paths < 2:
        raise ArgumentError(f"need n_paths >= 2, got {n_paths}")
    if seed < 0:
        raise ArgumentError(f"seed must be >= 0, got {seed}")
    if not (0.0 < dt < T):
        raise ArgumentError(f"need 0 < dt < T, got dt={dt}, T={T}")
    steps = int(round(T / dt))
    if abs(steps * dt - T) > 1e-9 * T:
        raise ArgumentError(f"T={T} is not a whole number of steps dt={dt}")
    n = sys.n
    op = LyapunovOperator(sys, side)
    starts = [sys.x0] if side == "reach" \
        else [c for c in sys.C if np.any(c != 0.0)]

    integral = np.zeros((n, n))
    integral_var = np.zeros((n, n))
    size = _mc_chunk_paths(n, len(op.N))
    chunks = [size] * (n_paths // size)
    if n_paths % size:
        chunks.append(n_paths % size)
    batch_seeds = np.random.SeedSequence(seed).spawn(len(starts))

    for x_init, batch_seed in zip(starts, batch_seeds):
        mean = np.zeros((n, n))
        spread = np.zeros((n, n))
        count = 0
        for m, child in zip(chunks, batch_seed.spawn(len(chunks))):
            # an overflow reaches the check below as inf or nan, unwarned
            with np.errstate(over="ignore", invalid="ignore"):
                chunk_mean, chunk_spread = _euler_chunk(
                    op.A, op.N, x_init, T, steps, m,
                    np.random.default_rng(child))
                # merge means and squared deviations pairwise (Chan, Golub
                # & LeVeque, Amer. Stat. 37, 1983)
                count += m
                delta = chunk_mean - mean
                mean += delta * (m / count)
                spread += chunk_spread + delta ** 2 * (m * (count - m) / count)
            if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(spread))):
                raise IntegrationOverflowError(
                    "Euler-Maruyama paths overflowed float range")
        integral += mean
        integral_var += spread / (n_paths - 1) / n_paths

    return MonteCarloSecondMoment(integral=integral,
                                  integral_se=np.sqrt(integral_var))


def write_spectrum_csv(eigenvalues, file) -> None:
    """Dump a spectrum as ``index,eigenvalue`` rows (0-based, as ordered)."""
    atomic_write_text(file, csv_text(
        ["index", "eigenvalue"],
        enumerate(np.asarray(eigenvalues, dtype=float))))
