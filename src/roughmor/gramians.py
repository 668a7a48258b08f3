"""Reachability and observability Gramians of the associated Ito dynamics.

Finite-horizon Gramians integrate the matrix ODE dZ/dt = L(Z) (or the dual
equation) with classical RK4 and accumulate the time integral by composite
trapezoid on the same grid. Infinite-horizon Gramians solve

    0 = x0 x0^T + L(P),        0 = C^T C + L*(Q)

by GMRES on the equation preconditioned with a standard Lyapunov solve, whose
real Schur factorization is cached. The observability side reuses the reach
solver on the transposed data: L* of a system is L of the system with A and
every N_i transposed.

An independent Euler-Maruyama Monte-Carlo estimator of E[x x^T] serves as a
statistical oracle for both routes; it shares no code with them.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.linalg import eigh

from .errors import (ArgumentError, CapabilityError, ConvergenceError,
                     GuardedScalar, IntegrationOverflowError, StabilityError)
from ._lyap import SchurLyapunov
from ._util import atomic_write_text, csv_text
from .system import (BilinearRoughSystem, apply_lyapunov,
                     apply_lyapunov_adjoint, is_mean_square_stable,
                     lyapunov_matrix_representation, noise_part)

DEFAULT_TOL = 1e-12
DEFAULT_MAX_ITER = 500
# GMRES stops when its residual estimate falls to this fraction of the
# preconditioned right-hand side. It sits just above the round-off floor:
# stopping earlier leaves P's smallest eigenvalues, which the exact cut at
# tol_P = 1e-16 reads, short of converged, and a target below the floor is
# never met.
GMRES_TOL = 1e-14


class GramianKind(str, enum.Enum):
    REACH_FINITE = "reach_finite"
    REACH_INFINITE = "reach_infinite"
    OBS_FINITE = "obs_finite"
    OBS_INFINITE = "obs_infinite"


@dataclass(frozen=True)
class GramianResult:
    """A computed Gramian with its defining-equation residual.

    ``residual`` is the relative Frobenius residual of the defining equation
    (for finite horizons: the integrated-ODE identity Z(T) = Z(0) + L(P_T)).
    Eigenvalues below -1e-10 times the largest are clamped to zero on
    construction; matrices already PSD to that allowance pass through bitwise
    untouched.
    """

    matrix: np.ndarray
    kind: GramianKind
    residual: float
    iterations: int
    horizon: float
    trajectory: Optional[np.ndarray] = field(default=None, repr=False,
                                             compare=False)
    times: Optional[np.ndarray] = field(default=None, repr=False,
                                        compare=False)

    def __post_init__(self):
        G = np.asarray(self.matrix, dtype=float)
        if G.ndim != 2 or G.shape[0] != G.shape[1]:
            raise ArgumentError(f"Gramian must be square, got shape {G.shape}")
        nG = np.linalg.norm(G)
        if np.linalg.norm(G - G.T) > 1e-12 * max(nG, 1e-300):
            raise ArgumentError("Gramian is not symmetric")
        kind = GramianKind(self.kind)
        if kind in (GramianKind.REACH_FINITE, GramianKind.OBS_FINITE):
            if not (0.0 < self.horizon < math.inf):
                raise ArgumentError(
                    f"finite-horizon Gramian needs 0 < horizon < inf, "
                    f"got {self.horizon}")
        elif self.horizon != math.inf:
            raise ArgumentError("infinite-horizon Gramian needs horizon = inf")
        w = np.linalg.eigvalsh((G + G.T) / 2)
        if w[0] < -1e-10 * max(w[-1], 0.0):
            wv, V = np.linalg.eigh((G + G.T) / 2)
            G = (V * np.clip(wv, 0.0, None)) @ V.T
            G = (G + G.T) / 2
        object.__setattr__(self, "matrix", G)
        object.__setattr__(self, "kind", kind)


def _side_data(sys: BilinearRoughSystem, side: str):
    """(A', N', rhs) such that the reach-side equations on the primed data
    realize the requested side; obs transposes A and every N_i."""
    if side == "reach":
        return sys.A, sys.N, np.outer(sys.x0, sys.x0)
    if side == "obs":
        return sys.A.T, tuple(Ni.T for Ni in sys.N), sys.C.T @ sys.C
    raise ArgumentError(f"side must be 'reach' or 'obs', got {side!r}")


def integrate_gramian_ode(
        sys: BilinearRoughSystem, side: str, T: float, steps: int,
        return_trajectory: bool = False) -> GramianResult:
    """Finite-horizon Gramian P_T = int_0^T Z(t) dt via RK4 on dZ/dt = L(Z).

    Z(0) is x0 x0^T (reach) or C^T C (obs); the integral accumulates by
    composite trapezoid on the RK4 grid. With ``return_trajectory`` the
    sampled Z(t_k) stack rides along on the result.
    """
    A, N, Z0 = _side_data(sys, side)
    if not (T > 0.0):
        raise ArgumentError(f"need T > 0, got {T}")
    if steps < 1:
        raise ArgumentError(f"need steps >= 1, got {steps}")
    dt = T / steps

    def L(X):
        return A @ X + X @ A.T + noise_part(X, N, sys.K)

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
    kind = GramianKind.REACH_FINITE if side == "reach" else GramianKind.OBS_FINITE
    return GramianResult(
        matrix=integral, kind=kind, residual=residual, iterations=steps,
        horizon=float(T),
        trajectory=np.stack(samples) if return_trajectory else None,
        times=np.arange(steps + 1) * dt if return_trajectory else None)


def solve_algebraic_gramian(
        sys: BilinearRoughSystem, side: str,
        tol: float = DEFAULT_TOL,
        max_iter: int = DEFAULT_MAX_ITER) -> GramianResult:
    """Infinite-horizon Gramian by Lyapunov-preconditioned GMRES.

    With L_A^{-1} the cached-Schur solve of A X + X A^T = -Y, the equation
    0 = rhs + L(P) reads (I - L_A^{-1} Pi) P = L_A^{-1}(rhs). GMRES runs on
    this form from P = 0 (Damm, NLA 2008) and stops once its residual
    estimate falls to GMRES_TOL relative, which sits just above its
    round-off floor, or after ``max_iter`` iterations. The true relative
    residual of the defining equation is then checked: above ``tol`` it
    raises ConvergenceError.

    Requires mean-square stability (is_mean_square_stable); StabilityError
    otherwise.
    """
    if not (tol > 0.0):
        raise ArgumentError(f"need tol > 0, got {tol}")
    if max_iter < 1:
        raise ArgumentError(f"need max_iter >= 1, got {max_iter}")
    A, N, rhs = _side_data(sys, side)
    report = is_mean_square_stable(sys)
    if not report.is_mean_square_stable:
        detail = "drift spectrum reaches the closed right half plane" \
            if report.rho is None \
            else f"splitting spectral radius {report.rho:.6g} >= 1"
        raise StabilityError(
            f"system is not mean-square asymptotically stable ({detail}); "
            "the algebraic Gramian equation has no PSD solution")

    kind = (GramianKind.REACH_INFINITE if side == "reach"
            else GramianKind.OBS_INFINITE)
    nr = np.linalg.norm(rhs)
    if nr == 0.0:
        return GramianResult(matrix=np.zeros_like(A), kind=kind,
                             residual=0.0, iterations=0, horizon=math.inf)
    cache = SchurLyapunov(A)
    b = cache.solve_neg(rhs)
    beta = np.linalg.norm(b)
    # Arnoldi with modified Gram-Schmidt on full n x n Krylov matrices
    basis = [b / beta]
    H = np.zeros((max_iter + 1, max_iter))
    e1 = np.zeros(max_iter + 1)
    e1[0] = beta
    for j in range(max_iter):
        w = basis[j] - cache.solve_neg(noise_part(basis[j], N, sys.K))
        for i, v in enumerate(basis):
            H[i, j] = np.vdot(v, w)
            w -= H[i, j] * v
        H[j + 1, j] = np.linalg.norm(w)
        y, *_ = np.linalg.lstsq(H[:j + 2, :j + 1], e1[:j + 2], rcond=None)
        estimate = np.linalg.norm(H[:j + 2, :j + 1] @ y - e1[:j + 2])
        if estimate <= GMRES_TOL * beta or j + 1 == max_iter:
            break
        basis.append(w / H[j + 1, j])
    iterations = j + 1
    P = np.zeros_like(A)
    for coeff, v in zip(y, basis):
        P += coeff * v
    P = (P + P.T) / 2
    res = float(np.linalg.norm(
        rhs + A @ P + P @ A.T + noise_part(P, N, sys.K)) / nr)
    if res > tol:
        raise ConvergenceError(
            f"algebraic Gramian solve reached relative residual {res:.3e} "
            f"after {iterations} GMRES iterations (tolerance {tol:.1e})",
            residual=res, iterations=iterations)
    return GramianResult(matrix=P, kind=kind, residual=res,
                         iterations=iterations, horizon=math.inf)


DENSE_CROSS_CHECK_MAX_ORDER = 30


def solve_algebraic_gramian_dense(
        sys: BilinearRoughSystem, side: str) -> GramianResult:
    """Cross-check route: solve M vec(P) = -vec(rhs) with the dense n^2 x n^2
    operator matrix. Independent of the GMRES solver; small n only."""
    if sys.n > DENSE_CROSS_CHECK_MAX_ORDER:
        raise CapabilityError(
            f"dense cross-check is limited to n <= "
            f"{DENSE_CROSS_CHECK_MAX_ORDER}, got n = {sys.n}")
    A, N, rhs = _side_data(sys, side)
    work = BilinearRoughSystem(A=A, N=N, K=sys.K, C=np.zeros((1, sys.n)),
                               x0=np.zeros(sys.n))
    M = lyapunov_matrix_representation(work)
    vecP = np.linalg.solve(M, -rhs.reshape(-1, order="F"))
    P = vecP.reshape(sys.n, sys.n, order="F")
    P = (P + P.T) / 2
    nr = np.linalg.norm(rhs)
    res = float(np.linalg.norm(
        rhs + A @ P + P @ A.T + noise_part(P, N, sys.K)) / nr)
    kind = (GramianKind.REACH_INFINITE if side == "reach"
            else GramianKind.OBS_INFINITE)
    return GramianResult(matrix=P, kind=kind, residual=res, iterations=1,
                         horizon=math.inf)


def gramian_residual(sys: BilinearRoughSystem, G, side: str) -> GuardedScalar:
    """Relative Frobenius residual of the defining algebraic equation.

    Returns ||rhs + L(G)||_F / ||rhs||_F (reach) or the dual (obs). A zero
    right-hand side trips the division guard: the absolute residual comes
    back with ``is_absolute`` set.
    """
    G = np.asarray(G, dtype=float)
    if G.shape != (sys.n, sys.n):
        raise ArgumentError(
            f"Gramian has shape {G.shape}, expected {(sys.n, sys.n)}")
    if side == "reach":
        rhs = np.outer(sys.x0, sys.x0)
        op = apply_lyapunov(sys, G)
    elif side == "obs":
        rhs = sys.C.T @ sys.C
        op = apply_lyapunov_adjoint(sys, G)
    else:
        raise ArgumentError(f"side must be 'reach' or 'obs', got {side!r}")
    num = float(np.linalg.norm(rhs + op))
    den = float(np.linalg.norm(rhs))
    if den == 0.0:
        return GuardedScalar(num, is_absolute=True)
    return GuardedScalar(num / den, is_absolute=False)


@dataclass(frozen=True)
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
    n, d = sys.n, sys.d

    if side == "reach":
        batches = [(sys.A, sys.N, sys.x0)]
    elif side == "obs":
        A_t = sys.A.T
        N_t = tuple(Ni.T for Ni in sys.N)
        batches = [(A_t, N_t, c) for c in sys.C if np.any(c != 0.0)]
    else:
        raise ArgumentError(f"side must be 'reach' or 'obs', got {side!r}")

    times = np.arange(steps + 1) * (T / steps)
    traj = np.zeros((steps + 1, n, n))
    traj_var = np.zeros((steps + 1, n, n))
    integral = np.zeros((n, n))
    integral_var = np.zeros((n, n))
    chunks = [_MC_CHUNK] * (n_paths // _MC_CHUNK)
    if n_paths % _MC_CHUNK:
        chunks.append(n_paths % _MC_CHUNK)
    batch_seeds = np.random.SeedSequence(seed).spawn(len(batches))

    for (A, N, x_init), batch_seed in zip(batches, batch_seeds):
        S1 = np.zeros((steps + 1, n, n))
        S2 = np.zeros((steps + 1, n, n))
        I1 = np.zeros((n, n))
        I2 = np.zeros((n, n))
        for m, child in zip(chunks, batch_seed.spawn(len(chunks))):
            _euler_chunk(A, N, sys.K_sqrt, x_init, T, steps, m,
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


def gramian_spectrum(G) -> np.ndarray:
    """Eigenvalues of the symmetrized Gramian, descending."""
    G = np.asarray(G, dtype=float)
    w = eigh((G + G.T) / 2, eigvals_only=True)
    return w[::-1].copy()


def write_spectrum_csv(eigenvalues, file) -> None:
    """Dump a spectrum as ``index,eigenvalue`` rows (0-based, as ordered)."""
    atomic_write_text(file, csv_text(
        ["index", "eigenvalue"],
        enumerate(np.asarray(eigenvalues, dtype=float))))
