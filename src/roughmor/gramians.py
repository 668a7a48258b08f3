"""Reachability and observability Gramians of the associated Ito dynamics.

Finite-horizon Gramians integrate the matrix ODE dZ/dt = L(Z) (or the dual
equation) with classical RK4 and accumulate the time integral by composite
trapezoid on the same grid. Infinite-horizon Gramians solve

    0 = x0 x0^T + L(P),        0 = C^T C + L*(Q)

by GMRES on the equation preconditioned with a standard Lyapunov solve, whose
real Schur factorization the stability check builds and the solve reuses,
and accept a solution by its normwise backward error. Every route evaluates
its side's equation through system.LyapunovOperator, which holds the
transposed data on the observability side.

An independent Euler-Maruyama Monte-Carlo estimator of E[x x^T] serves as a
statistical oracle for both routes; it takes only the side's A and N_i from
the operator and shares no arithmetic with the routes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import (ArgumentError, ConvergenceError,
                     IntegrationOverflowError, StabilityError)
from ._util import atomic_write_text, csv_text
from .system import (BilinearRoughSystem, LyapunovOperator,
                     StabilityReport, is_mean_square_stable)

GMRES_MAX_ITER = 500
# GMRES stops when its residual estimate falls to this fraction of the
# preconditioned right-hand side. It sits just above the round-off floor:
# stopping earlier leaves P's smallest eigenvalues, which the exact cut at
# tol_P = 1e-16 reads, short of converged, and a target below the floor is
# never met.
GMRES_TOL = 1e-14
# A solve is accepted when its normwise backward error is at most this small
# multiple of machine epsilon: unlike the relative residual, whose round-off
# floor grows with cond(A), it stays near eps at every order (Higham,
# Accuracy and Stability of Numerical Algorithms, 2nd ed., ch. 16).
BACKWARD_ERROR_BOUND = 64 * np.finfo(float).eps


@dataclass(frozen=True, eq=False)
class GramianResult:
    """A computed Gramian with its defining-equation residual.

    ``side`` is "reach" or "obs"; ``horizon`` is the T of a time-integrated
    Gramian, whose optional ``trajectory`` samples Z at t_k = k T /
    ``iterations``, or inf for the algebraic one. ``residual`` is the
    relative Frobenius residual of the defining equation (for finite
    horizons: the integrated-ODE identity Z(T) = Z(0) + L(P_T)).
    ``backward_error`` is the normwise backward error by which algebraic
    solves are accepted, and ``gate_rho_lower``, ``gate_rho_upper`` and
    ``gate_solves`` the bracket on the splitting spectral radius and the
    solve count of their stability check (all None for finite horizons).
    The matrix is stored as given: round-off may leave eigenvalues slightly
    below zero, and truncation drops every eigenvalue that is not positive.
    """

    matrix: np.ndarray
    side: str
    residual: float
    iterations: int
    horizon: float
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
        if not (self.horizon > 0.0):
            raise ArgumentError(
                f"Gramian horizon must be positive, got {self.horizon}")
        object.__setattr__(self, "matrix", G)


def integrate_gramian_ode(
        sys: BilinearRoughSystem, side: str, T: float, steps: int,
        return_trajectory: bool = False) -> GramianResult:
    """Finite-horizon Gramian P_T = int_0^T Z(t) dt via RK4 on dZ/dt = L(Z).

    Z(0) is x0 x0^T (reach) or C^T C (obs); the integral accumulates by
    composite trapezoid on the RK4 grid. With ``return_trajectory`` the
    sampled Z(t_k) stack rides along on the result.
    """
    L = LyapunovOperator(sys, side)
    Z0 = L.rhs
    if not (T > 0.0):
        raise ArgumentError(f"need T > 0, got {T}")
    if steps < 1:
        raise ArgumentError(f"need steps >= 1, got {steps}")
    dt = T / steps
    Z = (Z0 + Z0.T) / 2
    integral = np.zeros_like(Z)
    samples = [Z.copy()] if return_trajectory else None
    for k in range(steps):
        k1 = L(Z)
        k2 = L(Z + 0.5 * dt * k1)
        k3 = L(Z + 0.5 * dt * k2)
        k4 = L(Z + dt * k3)
        Z_next = Z + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        Z_next = (Z_next + Z_next.T) / 2
        if not np.all(np.isfinite(Z_next)):
            raise IntegrationOverflowError(
                f"Gramian ODE overflowed at step {k + 1} of {steps} "
                f"(t = {(k + 1) * dt:.6g}); the horizon may be too long for "
                "an unstable system", step=k + 1)
        integral += (dt / 2.0) * (Z + Z_next)
        Z = Z_next
        if return_trajectory:
            samples.append(Z.copy())

    # Integrated form of the ODE: Z(T) - Z(0) = L(int Z dt); its residual
    # measures quadrature/integration consistency.
    nZ0 = np.linalg.norm(Z0)
    residual = float(np.linalg.norm(Z - Z0 - L(integral)) / nZ0) \
        if nZ0 > 0 else float(np.linalg.norm(Z - Z0 - L(integral)))
    return GramianResult(
        matrix=integral, side=side, residual=residual,
        iterations=steps, horizon=float(T),
        trajectory=np.stack(samples) if return_trajectory else None)


def solve_algebraic_gramian(sys: BilinearRoughSystem,
                            side: str) -> GramianResult:
    """Infinite-horizon Gramian by Lyapunov-preconditioned GMRES.

    With L_A^{-1} the cached-Schur solve of A X + X A^T = -Y, the equation
    0 = rhs + L(P) reads (I - L_A^{-1} Pi) P = L_A^{-1}(rhs). GMRES runs on
    this form from P = 0 (Damm, NLA 2008) and stops once its residual
    estimate falls to GMRES_TOL relative, which sits just above its
    round-off floor, or after GMRES_MAX_ITER iterations. The solution is
    accepted when its normwise backward error (LyapunovOperator.errors) is
    at most BACKWARD_ERROR_BOUND; otherwise ConvergenceError carries that
    backward error and the iteration count. The relative residual rides
    along on the result as a diagnostic.

    Requires mean-square stability (is_mean_square_stable): StabilityError
    when the check proves the system unstable, NumericalError when it
    cannot decide. The solve reuses the check's Schur factorization of A,
    on the obs side transposed, so it factors A once.
    """
    return _solve_gramians(sys, (side,))[0]


def _solve_gramians(sys: BilinearRoughSystem, sides) -> list:
    """solve_algebraic_gramian for each of ``sides`` behind one stability
    check, whose Schur factorization every solve reuses."""
    ops = [LyapunovOperator(sys, side) for side in sides]
    report = is_mean_square_stable(sys)
    if not report.is_mean_square_stable:
        detail = "drift spectrum reaches the closed right half plane" \
            if report.lower is None \
            else f"splitting spectral radius >= {report.lower:.6g} > 1"
        raise StabilityError(
            f"system is not mean-square asymptotically stable ({detail}); "
            "the algebraic Gramian equation has no PSD solution")
    return [_gmres_gramian(op, side, report) for op, side in zip(ops, sides)]


def _gmres_gramian(op: LyapunovOperator, side: str,
                   report: StabilityReport) -> GramianResult:
    gate = dict(gate_rho_lower=report.lower, gate_rho_upper=report.upper,
                gate_solves=report.solves)
    if np.linalg.norm(op.rhs) == 0.0:
        P = np.zeros_like(op.A)
        res, eta = op.errors(P)
        return GramianResult(matrix=P, side=side, residual=res, iterations=0,
                             horizon=math.inf, backward_error=eta, **gate)
    cache = report.lyap if side == "reach" else report.lyap.transposed()
    b = cache.solve_neg(op.rhs)
    beta = np.linalg.norm(b)
    # Arnoldi with modified Gram-Schmidt on full n x n Krylov matrices
    basis = [b / beta]
    H = np.zeros((GMRES_MAX_ITER + 1, GMRES_MAX_ITER))
    e1 = np.zeros(GMRES_MAX_ITER + 1)
    e1[0] = beta
    for j in range(GMRES_MAX_ITER):
        w = basis[j] - cache.solve_neg(op.noise(basis[j]))
        for i, v in enumerate(basis):
            H[i, j] = np.vdot(v, w)
            w -= H[i, j] * v
        H[j + 1, j] = np.linalg.norm(w)
        y, *_ = np.linalg.lstsq(H[:j + 2, :j + 1], e1[:j + 2], rcond=None)
        estimate = np.linalg.norm(H[:j + 2, :j + 1] @ y - e1[:j + 2])
        if estimate <= GMRES_TOL * beta or j + 1 == GMRES_MAX_ITER:
            break
        basis.append(w / H[j + 1, j])
    iterations = j + 1
    P = np.zeros_like(op.A)
    for coeff, v in zip(y, basis):
        P += coeff * v
    P = (P + P.T) / 2
    res, eta = op.errors(P)
    if eta > BACKWARD_ERROR_BOUND:
        raise ConvergenceError(
            f"algebraic Gramian solve reached backward error {eta:.3e} "
            f"after {iterations} GMRES iterations (bound "
            f"{BACKWARD_ERROR_BOUND:.1e}; relative residual {res:.3e})",
            residual=eta, iterations=iterations)
    return GramianResult(matrix=P, side=side, residual=res,
                         iterations=iterations, horizon=math.inf,
                         backward_error=eta, **gate)


def solve_algebraic_gramian_dense(
        sys: BilinearRoughSystem, side: str) -> GramianResult:
    """Cross-check route: solve M vec(P) = -vec(rhs) with the dense n^2 x n^2
    operator matrix (LyapunovOperator.matrix, so n <= DENSE_MAX_ORDER).
    Independent of the GMRES solver."""
    op = LyapunovOperator(sys, side)
    vecP = np.linalg.solve(op.matrix(), -op.rhs.reshape(-1, order="F"))
    P = vecP.reshape(sys.n, sys.n, order="F")
    P = (P + P.T) / 2
    res, eta = op.errors(P)
    return GramianResult(matrix=P, side=side, residual=res, iterations=1,
                         horizon=math.inf, backward_error=eta)


@dataclass(frozen=True, eq=False)
class MonteCarloSecondMoment:
    """Monte-Carlo estimate of t -> E[x(t) x(t)^T] and its time integral.

    ``trajectory`` and ``integral`` are empirical means over paths;
    ``*_se`` hold per-entry standard errors of those means.
    """

    times: np.ndarray
    trajectory: np.ndarray
    trajectory_se: np.ndarray
    integral: np.ndarray
    integral_se: np.ndarray
    n_paths: int


_MC_CHUNK = 10_000


def _euler_chunk(A, N, K_sqrt, x_init, T, steps, m, rng, S1, S2, I1, I2):
    """Advance m Euler-Maruyama paths and fold them into the accumulators.

    S1/S2 collect per-node sums of outer products and their squares; I1/I2
    collect the per-path trapezoid time-integrals and their squares.
    """
    n = A.shape[0]
    d = len(N)
    dt = T / steps
    sq = math.sqrt(dt)
    X = np.tile(x_init, (m, 1))
    S1[0] += X.T @ X
    S2[0] += (X ** 2).T @ (X ** 2)
    Ipp = np.zeros((m, n, n))
    outer_prev = X[:, :, None] * X[:, None, :]
    for k in range(steps):
        dB = rng.standard_normal((m, d)) * sq
        s = dB @ K_sqrt
        X_new = X + dt * (X @ A.T)
        for j in range(d):
            X_new = X_new + s[:, j:j + 1] * (X @ N[j].T)
        X = X_new
        outer = X[:, :, None] * X[:, None, :]
        Ipp += (dt / 2.0) * (outer_prev + outer)
        outer_prev = outer
        S1[k + 1] += X.T @ X
        S2[k + 1] += (X ** 2).T @ (X ** 2)
    I1 += Ipp.sum(axis=0)
    I2 += (Ipp ** 2).sum(axis=0)


def monte_carlo_second_moment(
        sys: BilinearRoughSystem, side: str, T: float, n_paths: int,
        dt: float, seed: int) -> MonteCarloSecondMoment:
    """Euler-Maruyama estimate of E[x(t) x(t)^T] on [0, T] and its integral.

    The reach side starts every path at x0; the observability side runs the
    dual SDE (A and N_i transposed) once per nonzero row c_l of C, started at
    c_l^T, and sums the row estimates (their variances add). The drift
    nonlinearity plays no role here: the second-moment identity being checked
    is the one for the linear part.

    Paths are simulated in fixed chunks of 10 000 with one spawned child seed
    per chunk and summed sequentially in chunk order, so the estimate is
    bitwise deterministic for a fixed (seed, n_paths, dt).
    """
    if n_paths < 2:
        raise ArgumentError(f"need n_paths >= 2, got {n_paths}")
    if not (0.0 < dt < T):
        raise ArgumentError(f"need 0 < dt < T, got dt={dt}, T={T}")
    steps = int(round(T / dt))
    n = sys.n
    op = LyapunovOperator(sys, side)
    starts = [sys.x0] if side == "reach" \
        else [c for c in sys.C if np.any(c != 0.0)]

    times = np.arange(steps + 1) * (T / steps)
    traj = np.zeros((steps + 1, n, n))
    traj_var = np.zeros((steps + 1, n, n))
    integral = np.zeros((n, n))
    integral_var = np.zeros((n, n))
    chunks = [_MC_CHUNK] * (n_paths // _MC_CHUNK)
    if n_paths % _MC_CHUNK:
        chunks.append(n_paths % _MC_CHUNK)
    batch_seeds = np.random.SeedSequence(seed).spawn(len(starts))

    for x_init, batch_seed in zip(starts, batch_seeds):
        S1 = np.zeros((steps + 1, n, n))
        S2 = np.zeros((steps + 1, n, n))
        I1 = np.zeros((n, n))
        I2 = np.zeros((n, n))
        for m, child in zip(chunks, batch_seed.spawn(len(chunks))):
            _euler_chunk(op.A, op.N, sys.K_sqrt, x_init, T, steps, m,
                         np.random.default_rng(child), S1, S2, I1, I2)
        mean_traj = S1 / n_paths
        traj += mean_traj
        traj_var += (S2 - n_paths * mean_traj ** 2) / (n_paths - 1) / n_paths
        mean_int = I1 / n_paths
        integral += mean_int
        integral_var += (I2 - n_paths * mean_int ** 2) / (n_paths - 1) / n_paths

    return MonteCarloSecondMoment(
        times=times,
        trajectory=traj,
        trajectory_se=np.sqrt(np.clip(traj_var, 0.0, None)),
        integral=integral,
        integral_se=np.sqrt(np.clip(integral_var, 0.0, None)),
        n_paths=n_paths)


def write_spectrum_csv(eigenvalues, file) -> None:
    """Dump a spectrum as ``index,eigenvalue`` rows (0-based, as ordered)."""
    atomic_write_text(file, csv_text(
        ["index", "eigenvalue"],
        enumerate(np.asarray(eigenvalues, dtype=float))))
