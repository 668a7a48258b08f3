"""Time integration along rough and smooth drivers, plus error metrics.

The integrator is Crouzeix's two-stage diagonally implicit Runge-Kutta
scheme, driven by the time step dt and the driver increment dW of each step:

    Z_1 = z_k + a11 F(Z_1),   Z_2 = z_k + a21 F(Z_1) + a11 F(Z_2),
    z_{k+1} = z_k + (F(Z_1) + F(Z_2)) / 2,

with F(Z) = G Z + dt f(Z) and G = A dt + sum_m dW_m Nt_m, the Nt_m being
the system's noise matrices with K^{1/2} folded in. Both stages have the
diagonal entry a11, so one band LU factorization of S = I - a11 G per step
serves both; its bandwidth is the widest among A and the Nt_m, so a step of
a tridiagonal model costs O(n). A stage solves S Z = c and reads its
derivative off its value, F = (Z - c) / a11 (Hairer & Wanner, Solving ODEs
II, IV.8), so the linear route does no mat-vec with the stiff G. The LU's
pivot test compares the smallest pivot with the bound 1 + a11 (dt ||A|| +
sum_m |dW_m| ||Nt_m||) on ||S||, computed for all steps up front. With a
drift nonlinearity f(x) = x g(x), a stage is (S - h I) Z = c at the one
scalar shift h = a11 dt g(Z), and Newton solves for h. No iterated integrals
of the driver enter: the scheme uses increments only. The integrator takes a
BilinearRoughSystem; a reduced model enters as its ``system``. Each step
makes one finiteness check, on the new state (Newton also checks each
iterate): a non-finite value raises IntegrationOverflowError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import bandwidth
from scipy.linalg.blas import dnrm2
# dgbtrf is bound as lu_factor: the one factorization of each step, under
# the name the benchmark's tracer hooks
from scipy.linalg.lapack import dgbtrf as lu_factor, dgbtrs

from .errors import (ArgumentError, GuardedScalar, IntegrationOverflowError,
                     StepFailureError)
from ._util import atomic_write_text, csv_text
from .drivers import DriverPath
from .gramians import integrate_gramian_ode
from .system import BilinearRoughSystem

NEWTON_TOL = 1e-12
NEWTON_MAX = 50

# Crouzeix's tableau: a11 = a22, a12 = 0, and equal weights b1 = b2
A11 = 0.5 + math.sqrt(3.0) / 6.0
A21 = -math.sqrt(3.0) / 3.0
B1 = B2 = 0.5


@dataclass(frozen=True, eq=False)
class SimulationResult:
    """A sampled trajectory with its output and solver diagnostics.

    ``min_pivot_ratio`` is the smallest |LU pivot| of any step's stage
    matrix over that step's norm bound; a step fails below eps * n.
    """

    times: np.ndarray
    states: np.ndarray
    outputs: np.ndarray
    max_newton_iterations: int
    min_pivot_ratio: float


def rough_rk_simulate(model: BilinearRoughSystem,
                      path: DriverPath) -> SimulationResult:
    """Integrate the system along the path with the Crouzeix DIRK scheme.

    Each step consumes the time step dt and the driver increment dW_k. The
    stage matrix S = I - a11 G is kept and factored in band storage, with
    the lower and upper bandwidth of G read once from A and the Nt_m: a step
    of the tridiagonal heat model costs O(n), a dense model is the full
    band. A stage's derivative is read off its value, so the linear route
    does no mat-vec, and the pivot test uses a norm bound on S computed for
    every step before the loop. With f(x) = x g(x), Newton runs on the
    stage's scalar shift h alone, from the band solution at h = 0; each
    later iterate factors S - h I in band storage. It stops once the stage
    residual |phi| ||Z|| is at most NEWTON_TOL max(1, ||Z||) or the stage's
    round-off floor eps bound_k ||Z||, whichever is larger, bound_k being
    the step's bound on ||S||. Raises StepFailureError
    on a singular stage or Newton matrix, a vanishing Newton slope or a
    non-convergent Newton iteration, naming step k. A step runs with
    floating-point warnings off; its one finiteness check, on z_{k+1} (and
    on each Newton iterate), raises IntegrationOverflowError at step k + 1.
    """
    if path.d != model.d:
        raise ArgumentError(
            f"path has {path.d} components but the system drives {model.d}")
    n = model.n
    M = path.M
    dt = path.dt
    nl = model.drift_nonlinearity
    eps = np.finfo(float).eps

    # Row i of an (n, kl+ku+1) band array holds S[i, i-kl : i+ku+1], zero
    # outside S. Its transpose is S^T in LAPACK band storage, and the stages
    # solve with the factors of S^T, whose lower and upper bandwidths are
    # ku, kl. The LU stays on the transpose although a dgbtrs solve with
    # trans='T' costs 10.3 us against 6.2 us with 'N' at n = 200 (one
    # OpenBLAS thread on a 2-vCPU Xeon): on the nearly singular tridiagonal
    # stage matrix of test_numerically_singular_tridiagonal_stage_matrix_raises
    # only the transpose's pivots expose it.
    mats = (model.A, *model.N_tilde)
    kl, ku = np.max([bandwidth(X) for X in mats], axis=0)
    width = kl + ku + 1
    bands = -A11 * np.stack([_band_rows(X, kl, ku).ravel() for X in mats])
    coefs, bounds = _step_coefficients(model, path)
    pivots = np.empty(M)
    S = np.empty((n, width))  # this step's I - a11 G
    S_flat = S.reshape(-1)
    # dgbtrf does not read the ku fill-in columns on entry: left unset
    ab = np.empty((n, ku + width))
    ab_newton = np.empty_like(ab)

    states = np.empty((M + 1, n))
    states[0] = model.x0
    max_newton = 0

    def overflowed():
        return IntegrationOverflowError(
            f"state overflowed at step {k + 1} of {M}", step=k + 1)

    def stage(c):
        # one stage of step k: solve Z = c + a11 F(Z), F(Z) = G Z + dt f(Z),
        # from the step's band LU, by Newton when f != 0, and return F(Z)
        # read off the stage value as (Z - c) / a11
        nonlocal max_newton
        Z = dgbtrs(lu, ku, kl, c, piv, trans=1)[0]
        if nl is None:
            return (Z - c) / A11

        def singular():
            return StepFailureError(f"singular Newton Jacobian at step {k}",
                                    step=k, residual=res)
        # Z(h) = (S - h I)^{-1} c solves the stage at a root of phi(h) =
        # h - a11 dt g(Z(h)): (S - a11 dt g(Z) I) Z - c = phi Z
        h, lu_h, piv_h = 0.0, lu, piv
        for it in range(NEWTON_MAX + 1):
            phi = h - A11 * dt * float(nl.g(Z))
            if not (math.isfinite(phi) and np.isfinite(Z).all()):
                raise overflowed()
            # nrm2 scales before squaring: no norm below 1.8e308 reads inf
            norm = dnrm2(Z)
            res = abs(phi) * norm
            # eps ||S|| ||Z|| is the residual's round-off floor; ||S|| <=
            # bounds[k]
            if res <= max(NEWTON_TOL * max(1.0, norm),
                          eps * bounds[k] * norm):
                max_newton = max(max_newton, it)
                # F(Z) itself: Z - c - a11 F(Z) is the residual phi Z, not 0
                return (Z - c - phi * Z) / A11
            if it == NEWTON_MAX:
                break
            # phi'(h) = 1 - a11 dt grad_g(Z)^T (S - h I)^{-1} Z
            v = nl.grad_g(Z)
            w = A11 * dt * dgbtrs(lu_h, ku, kl, Z, piv_h, trans=1)[0]
            slope = 1.0 - v @ w
            if abs(slope) <= eps * (1.0 + np.abs(v) @ np.abs(w)):
                raise singular()
            h -= phi / slope
            ab_newton[:, ku:] = S
            ab_newton[:, ku + kl] -= h
            lu_h, piv_h, _ = lu_factor(ab_newton.T, ku, kl, overwrite_ab=1)
            if np.abs(lu_h[kl + ku]).min() <= eps * n * (bounds[k] + abs(h)):
                raise singular()
            Z = dgbtrs(lu_h, ku, kl, c, piv_h, trans=1)[0]
        raise StepFailureError(
            f"Newton did not converge at step {k} (residual {res:.3e} after "
            f"{NEWTON_MAX} iterations)", step=k, residual=res)

    # an overflow reaches the step's one check, not a RuntimeWarning
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(M):
            # a11 = a22, so both stages share the matrix S and one LU
            np.matmul(coefs[k], bands, out=S_flat)
            S[:, kl] += 1.0
            ab[:, ku:] = S
            lu, piv, _ = lu_factor(ab.T, ku, kl, overwrite_ab=1)
            pivots[k] = pivot = np.abs(lu[kl + ku]).min()
            if pivot <= eps * n * bounds[k]:
                raise StepFailureError(
                    f"singular stage matrix I - a G at step {k} (a = "
                    f"{A11:.6g}, smallest LU pivot {pivot:.3e} against norm "
                    f"bound {bounds[k]:.3e}): G = A dt + sum_m dW_m Nt_m "
                    "has an eigenvalue at 1/a to working precision for this "
                    "step's dt and driver increments dW_m, and a finer grid "
                    "need not help: the dW_m shrink like dt^H, more slowly "
                    "than dt", step=k)
            z = states[k]
            F1 = stage(z)
            F2 = stage(z + A21 * F1)
            z_next = z + B1 * F1 + B2 * F2
            if not np.isfinite(z_next).all():
                raise overflowed()
            states[k + 1] = z_next

    return SimulationResult(times=path.times, states=states,
                            outputs=states @ model.C.T,
                            max_newton_iterations=max_newton,
                            min_pivot_ratio=float((pivots / bounds).min()))


def _step_coefficients(model, path):
    """Rows (dt, dW_k), one per step k, whose combination of A and the Nt_m
    is G, and per step the bound 1 + a11 (dt ||A|| + sum_m |dW_m| ||Nt_m||)
    >= ||I - a11 G|| in the row-sum norm, by the triangle inequality."""
    coefs = np.empty((path.M, model.d + 1))
    coefs[:, 0] = path.dt
    coefs[:, 1:] = np.diff(path.values, axis=0)
    norms = [A11 * np.abs(X).sum(axis=1).max()
             for X in (model.A, *model.N_tilde)]
    return coefs, 1.0 + np.abs(coefs) @ norms


def _band_rows(X, kl, ku):
    """Row i holds X[i, i-kl : i+ku+1], with zeros outside X."""
    n = len(X)
    rows = np.zeros((n, kl + ku + 1))
    for t in range(kl + ku + 1):
        offset = t - kl
        rows[max(0, -offset):n - max(0, offset), t] = np.diagonal(X, offset)
    return rows


def smooth_quadratic_form_probe(
        sys: BilinearRoughSystem, path: DriverPath, M: int) -> float:
    """Check x(t) x(t)^T <= exp(int ||W_dot||^2) Z(t) along a smooth driver.

    The driver is read as its piecewise-linear interpolant, sampled on a
    fine grid of M total steps (a multiple of the path grid) whose every
    (M / path.M)-th node is a path node, bitwise. x comes from the Crouzeix
    integrator, rough_rk_simulate, on that fine path; Z is the exact Gramian
    flow at the path nodes, and the exponential factor uses the cumulative
    integral of the squared slopes dW_k / dt. The gap is checked at the path
    nodes only. A path whose int ||W_dot||^2 overflows that factor, as a
    finely sampled rough path can, raises ArgumentError before anything is
    integrated. The integrator's own errors pass through, naming a fine
    step; an overflow of the gap raises IntegrationOverflowError naming the
    interval. Returns the smallest gap eigenvalue over the path nodes
    divided by ||exp(int_0^T ||W_dot||^2) Z(T)||_2, floored at the smallest
    normal float (contract: >= -1e-6, a small discretization slack).
    """
    if path.d != sys.d:
        raise ArgumentError(
            f"path has {path.d} components but the system drives {sys.d}")
    if M < path.M or M % path.M != 0:
        raise ArgumentError(
            f"fine step count {M} must be a positive multiple of the path "
            f"grid M = {path.M}")
    sub = M // path.M
    slopes = np.diff(path.values, axis=0) / path.dt
    l2cum = np.cumsum(np.sum(slopes ** 2, axis=1) * path.dt)
    if l2cum[-1] > math.log(np.finfo(float).max):
        raise ArgumentError(
            f"the path's int ||W_dot||^2 dt = {l2cum[-1]:.6g} overflows the "
            "Gronwall factor exp(int ||W_dot||^2 dt)")

    Ztraj = integrate_gramian_ode(sys, "reach", path.T, path.M).trajectory
    fine = DriverPath(T=path.T, values=np.column_stack(
        [np.interp(np.arange(M + 1) / sub, np.arange(path.M + 1), w)
         for w in path.values.T]))
    x = rough_rk_simulate(sys, fine).states[sub::sub]
    # an overflow shows, unwarned, in the gap's entries
    with np.errstate(over="ignore", invalid="ignore"):
        gaps = (np.exp(l2cum)[:, None, None] * Ztraj[1:]
                - x[:, :, None] * x[:, None, :])
    finite = np.isfinite(gaps).all(axis=(1, 2))
    if not finite.all():
        k = int(np.argmin(finite)) + 1
        raise IntegrationOverflowError(
            f"the Gronwall gap overflowed in interval {k} of {path.M}",
            step=k)
    scale = np.linalg.norm(math.exp(l2cum[-1]) * Ztraj[-1], 2)
    return float(np.linalg.eigvalsh(gaps)[:, 0].min()
                 / max(scale, np.finfo(float).tiny))


def _output_pair(y_full, y_red, times):
    # the times and both output series as float arrays of shape (nodes, p)
    times = np.asarray(times, dtype=float)
    pair = []
    for y in (y_full, y_red):
        y = np.asarray(y, dtype=float)
        if y.ndim == 1:
            y = y[:, None]
        if y.ndim != 2 or y.shape[0] != len(times):
            raise ArgumentError(
                f"output series of shape {y.shape} does not match "
                f"{len(times)} time nodes")
        pair.append(y)
    if pair[0].shape != pair[1].shape:
        raise ArgumentError(
            f"output series shapes differ: {pair[0].shape} vs {pair[1].shape}")
    return (times, *pair)


def relative_L2_error(y_full, y_red, times) -> GuardedScalar:
    """||y - y_r|| / ||y|| in the time-L2 norm (composite trapezoid).

    Output components enter through the pointwise Euclidean norm. A zero
    reference trips the division guard: the absolute L2 error comes back
    with ``is_absolute`` set.
    """
    times, y_full, y_red = _output_pair(y_full, y_red, times)
    diff_sq = np.sum((y_full - y_red) ** 2, axis=1)
    ref_sq = np.sum(y_full ** 2, axis=1)
    num = math.sqrt(max(float(np.trapezoid(diff_sq, times)), 0.0))
    den = math.sqrt(max(float(np.trapezoid(ref_sq, times)), 0.0))
    if den == 0.0:
        return GuardedScalar(num, is_absolute=True)
    return GuardedScalar(num / den, is_absolute=False)


def pointwise_relative_error(y_full, y_red, times) -> np.ndarray:
    """|y(t_k) - y_r(t_k)| / |y(t_k)| per node (Euclidean over components).

    Nodes with zero reference norm report the absolute error.
    """
    _, y_full, y_red = _output_pair(y_full, y_red, times)
    num = np.linalg.norm(y_full - y_red, axis=1)
    den = np.linalg.norm(y_full, axis=1)
    zero = den == 0.0
    return np.where(zero, num, num / np.where(zero, 1.0, den))


def write_trajectory_csv(result: SimulationResult, file) -> None:
    """Dump the output trajectory as ``t, y1, ..., yp`` rows."""
    p = result.outputs.shape[1]
    atomic_write_text(file, csv_text(
        ["t"] + [f"y{j + 1}" for j in range(p)],
        np.column_stack([result.times, result.outputs])))


def write_states_csv(result: SimulationResult, file) -> None:
    """Dump the state trajectory as ``t, x1, ..., xn`` rows."""
    n = result.states.shape[1]
    atomic_write_text(file, csv_text(
        ["t"] + [f"x{j + 1}" for j in range(n)],
        np.column_stack([result.times, result.states])))


def write_error_csv(times, values, file) -> None:
    """Dump an error series as ``t, rel_err`` rows."""
    atomic_write_text(file, csv_text(
        ["t", "rel_err"], np.column_stack([times, values]).astype(float)))
