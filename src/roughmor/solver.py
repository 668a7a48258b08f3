"""Time integration along rough and smooth drivers, plus error metrics.

The integrator is Crouzeix's two-stage diagonally implicit Runge-Kutta
scheme, driven by the time step dt and the driver increment dW of each step:

    Z_1 = z_k + a11 F(Z_1),   Z_2 = z_k + a21 F(Z_1) + a11 F(Z_2),
    z_{k+1} = z_k + (F(Z_1) + F(Z_2)) / 2,

with F(Z) = G Z and G = A dt + sum_m dW_m Nt_m, the Nt_m being the system's
noise matrices with K^{1/2} folded in. Both stages have the diagonal entry
a11, so one band LU factorization of S = I - a11 G per step serves both;
its bandwidth is the widest among A and the Nt_m, so a step of a
tridiagonal model costs O(n). A stage solves S Z = c and reads its
derivative off its value, F = (Z - c) / a11 (Hairer & Wanner, Solving ODEs
II, IV.8), so a step does no mat-vec with the stiff G. The LU's pivot test
compares the smallest pivot with the bound 1 + a11 (dt ||A|| + sum_m |dW_m|
||Nt_m||) on ||S||, computed for all steps up front. No iterated integrals
of the driver enter: the scheme uses increments only. The integrator takes
a BilinearRoughSystem; a reduced model enters as its ``system``. The stage
matrices do not depend on the state, so they are formed for a chunk of
steps at once, and a step does only the LU and the stage solves. The pivots
and the new states' finiteness are tested once per chunk, which raises the
error a step-by-step loop would have raised first; a non-finite state
raises IntegrationOverflowError.

A drift nonlinearity f(x) = x g(x), g <= 0 scalar, only rescales the
state: x = exp(psi) u, with u the linear solution and psi' = g(exp(psi) u),
psi(0) = 0. So the steps above integrate u unchanged, and the same tableau
integrates psi at u's stage values, a scalar bracketed root per stage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import bandwidth
# dgbtrf is bound as lu_factor: the one factorization of each step, under
# the name the benchmark's tracer hooks
from scipy.linalg.lapack import dgbtrf as lu_factor, dgbtrs

from .errors import (ArgumentError, GuardedScalar, IntegrationOverflowError,
                     StepFailureError)
from ._util import atomic_write_text, csv_text
from .drivers import DriverPath
from .gramians import integrate_gramian_ode
from .system import BilinearRoughSystem

# Crouzeix's tableau: a11 = a22, a12 = 0, and equal weights b1 = b2
A11 = 0.5 + math.sqrt(3.0) / 6.0
A21 = -math.sqrt(3.0) / 3.0
B1 = B2 = 0.5

# Bytes of one chunk's stage matrices, unfactored and in LAPACK band storage
_CHUNK_BYTES = 2 ** 20


@dataclass(frozen=True, eq=False)
class SimulationResult:
    """A sampled trajectory with its output and solver diagnostics.

    ``min_pivot_ratio`` is the smallest |LU pivot| of any step's stage
    matrix over that step's norm bound; a step fails below eps * n.
    """

    times: np.ndarray
    states: np.ndarray
    outputs: np.ndarray
    min_pivot_ratio: float


def rough_rk_simulate(model: BilinearRoughSystem,
                      path: DriverPath) -> SimulationResult:
    """Integrate the system along the path with the Crouzeix DIRK scheme.

    Each step consumes the time step dt and the driver increment dW_k. The
    stage matrix S = I - a11 G is kept and factored in band storage, with
    the lower and upper bandwidth of G read once from A and the Nt_m: a step
    of the tridiagonal heat model costs O(n), a dense model is the full
    band. A stage's derivative is read off its value, so the step does no
    mat-vec, and the pivot test uses a norm bound on S computed for every
    step before the loop. Raises StepFailureError on a singular stage
    matrix, naming step k. The steps run with floating-point warnings off;
    a non-finite z_{k+1} raises IntegrationOverflowError at step k + 1.

    The stage matrices of a chunk of steps come from one stacked product
    of the per-step coefficients with the band rows of A and the Nt_m,
    bitwise equal to a product per step; a chunk's arrays hold at most
    _CHUNK_BYTES unless one step alone needs more. The pivot test and the
    finiteness check run once per chunk, vectorized, after its steps: the
    earliest step that fails either one raises, its singular stage matrix
    before its overflow, as in a step-by-step loop.

    With f(x) = x g(x), the steps integrate the linear part u and keep its
    stage values, and x_k = exp(psi_k) u_k with psi from _log_factor.
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
    # a chunk of steps' stage matrices I - a11 G in band rows, and their
    # copies in LAPACK band storage that the LUs overwrite; dgbtrf does not
    # read the ku fill-in columns on entry: left unset
    chunk = max(1, min(M, _CHUNK_BYTES // (8 * n * (ku + 2 * width))))
    S = np.empty((chunk, 1, n * width))
    S_rows = S.reshape(chunk, n, width)
    ab = np.empty((chunk, n, ku + width))
    c2 = np.empty(n)
    # the linear stage values of every step, for the scalar factor
    stage_values = None if nl is None else np.empty((M, 2, n))

    states = np.empty((M + 1, n))
    states[0] = model.x0

    def overflowed(k):
        return IntegrationOverflowError(
            f"state overflowed at step {k + 1} of {M}", step=k + 1)

    def singular_stage(k):
        return StepFailureError(
            f"singular stage matrix I - a G at step {k} (a = {A11:.6g}, "
            f"smallest LU pivot {pivots[k]:.3e} against norm bound "
            f"{bounds[k]:.3e}): G = A dt + sum_m dW_m Nt_m has an "
            "eigenvalue at 1/a to working precision for this step's dt and "
            "driver increments dW_m, and a finer grid need not help: the "
            "dW_m shrink like dt^H, more slowly than dt", step=k)

    def stage(c, i):
        # stage i of step k: solve Z = c + a11 G Z from the step's band LU
        # and return G Z read off the stage value as (Z - c) / a11
        Z = dgbtrs(lu, ku, kl, c, piv, trans=1)[0]
        if stage_values is not None:
            stage_values[k, i] = Z
        Z -= c
        Z /= A11
        return Z

    # an overflow reaches a finiteness check, not a RuntimeWarning
    with np.errstate(over="ignore", invalid="ignore"):
        for k0 in range(0, M, chunk):
            k1 = min(k0 + chunk, M)
            # a11 = a22, so both stages of a step share its S and one LU
            np.matmul(coefs[k0:k1, None, :], bands, out=S[:k1 - k0])
            S_rows[:k1 - k0, :, kl] += 1.0
            ab[:k1 - k0, :, ku:] = S_rows[:k1 - k0]
            for k in range(k0, k1):
                lu, piv, _ = lu_factor(ab[k - k0].T, ku, kl, overwrite_ab=1)
                z = states[k]
                F1 = stage(z, 0)
                np.multiply(F1, A21, out=c2)
                c2 += z
                F2 = stage(c2, 1)
                # z + B1 F1 + B2 F2, summed in that order
                F1 *= B1
                F1 += z
                F2 *= B2
                np.add(F1, F2, out=states[k + 1])
            # a step's pivot test comes before its states' finiteness, as
            # in a step-by-step loop
            pivots[k0:k1] = np.abs(ab[:k1 - k0, :, kl + ku]).min(axis=1)
            singular = pivots[k0:k1] <= eps * n * bounds[k0:k1]
            failed = singular | ~np.isfinite(states[k0 + 1:k1 + 1]).all(axis=1)
            if failed.any():
                j = int(np.argmax(failed))
                raise (singular_stage if singular[j] else overflowed)(k0 + j)
        if nl is not None:
            states *= np.exp(_log_factor(nl.g, stage_values, dt))[:, None]

    return SimulationResult(times=path.times, states=states,
                            outputs=states @ model.C.T,
                            min_pivot_ratio=float((pivots / bounds).min()))


def _log_factor(g, stage_values, dt):
    """psi_k = log phi_k, from the linear stage values U_1, U_2 of each step.

    Crouzeix's tableau on psi' = g(exp(psi) u) at u's stages, so that (u,
    psi) is one Crouzeix run: Psi_i = b_i + a11 dt g_i with g_i = g(exp(Psi_i)
    U_i), b_1 = psi_k, b_2 = psi_k + a21 dt g_1, and psi_{k+1} = psi_k + dt
    (b1 g_1 + b2 g_2). As g <= 0, psi never increases: ||x_k|| <= ||u_k||.
    """
    psi = np.zeros(len(stage_values) + 1)
    for k, (U1, U2) in enumerate(stage_values):
        g1 = _stage_g(g, U1, psi[k], A11 * dt, k + 1)
        g2 = _stage_g(g, U2, psi[k] + A21 * dt * g1, A11 * dt, k + 1)
        psi[k + 1] = psi[k] + dt * (B1 * g1 + B2 * g2)
    return psi


def _stage_g(g, U, b, h, step):
    """g(exp(p) U) at the root p <= b of F(p) = p - b - h g(exp(p) U).

    F(b) >= 0. F(lo) <= 0 at lo = b + h g(exp(b) U) if g does not fall as
    the state shrinks; else the gap b - lo doubles until it is, as it is
    once exp(lo) U underflows. A gap below b's last place leaves the root
    at b. Illinois false position (Dowell & Jarratt, BIT 11, 1971) narrows
    [lo, b] to a few ulps of max(1, |lo|). A non-finite g raises
    IntegrationOverflowError, a positive one ArgumentError, naming the step.
    """
    def F(p):
        gp = float(g(math.exp(p) * U))
        f = p - b - h * gp
        if not math.isfinite(f):
            raise IntegrationOverflowError(
                f"drift nonlinearity g = {gp:.3e} at step {step}", step=step)
        return f, gp

    f_b, gp = F(b)
    if f_b < 0.0:
        raise ArgumentError(
            f"drift nonlinearity violates g <= 0 at step {step}: g = {gp:.3e}")
    lo, f_lo, gap = b, f_b, h * gp
    while f_lo > 0.0 and b + gap < b:
        lo = b + gap
        f_lo, gp = F(lo)
        gap *= 2.0
    x, fx, kept = [lo, b], [f_lo, f_b], None  # F(x[0]) <= 0 <= F(x[1])
    while fx[0] < 0.0 and x[1] - x[0] > 4.0 * math.ulp(max(1.0, abs(x[0]))):
        p = x[1] - fx[1] * (x[1] - x[0]) / (fx[1] - fx[0])
        f, gp = F(p)
        if f == 0.0:
            break
        i = int(f > 0.0)
        x[i], fx[i] = p, f
        if kept == 1 - i:
            # Illinois: an end kept twice in a row has its F halved
            fx[kept] /= 2.0
        kept = 1 - i
    return gp


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
