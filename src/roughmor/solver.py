"""Time integration along rough and smooth drivers, plus error metrics.

The integrator is Crouzeix's two-stage diagonally implicit Runge-Kutta
scheme, driven by the time step dt and the driver increment dW of each step:

    Z_1 = z_k + a11 F(Z_1),   Z_2 = z_k + a21 F(Z_1) + a11 F(Z_2),
    z_{k+1} = z_k + (F(Z_1) + F(Z_2)) / 2,

with F(Z) = G Z + dt f(Z), G = A dt + sum_m s_m N_m and s = K^{1/2} dW. Both
stages have the diagonal entry a11, so one band LU factorization of
I - a11 G per step serves both; its bandwidth is the widest lower and upper
bandwidth among A and the N_m, so a step of a tridiagonal model costs O(n).
With a drift nonlinearity, Newton solves the stages in the same band storage.
No iterated integrals of the driver enter: the scheme uses increments only.
The integrator takes a BilinearRoughSystem; a reduced model enters as its
``system``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.linalg import bandwidth
# dgbtrf is bound as lu_factor: the one factorization of each step, under
# the name the benchmark's tracer hooks
from scipy.linalg.lapack import dgbtrf as lu_factor, dgbtrs

from .errors import (ArgumentError, GuardedScalar, IntegrationOverflowError,
                     StepFailureError)
from ._util import atomic_write_text, csv_text
from .drivers import DriverPath, piecewise_linear_derivative
from .gramians import integrate_gramian_ode
from .system import BilinearRoughSystem, drift_f

NEWTON_TOL = 1e-12
NEWTON_MAX = 50

# Crouzeix's tableau: a11 = a22, a12 = 0, and equal weights b1 = b2
A11 = 0.5 + math.sqrt(3.0) / 6.0
A21 = -math.sqrt(3.0) / 3.0
B1 = B2 = 0.5


@dataclass(frozen=True, eq=False)
class SimulationResult:
    """A sampled trajectory with its output and solver diagnostics."""

    times: np.ndarray
    states: np.ndarray
    outputs: np.ndarray
    max_newton_iterations: int
    max_linear_residual: float


def rough_rk_simulate(model: BilinearRoughSystem,
                      path: DriverPath) -> SimulationResult:
    """Integrate the system along the path with the Crouzeix DIRK scheme.

    Each step consumes the time step dt and the driver increment dW_k. The
    stage matrix I - a11 G is kept and factored in band storage, with the
    lower and upper bandwidth of G read once from A and the N_m: a step of
    the tridiagonal heat model costs O(n), a dense model is the full band.
    With f(x) = x g(x), Newton runs from the band solution; each iterate
    factors (1 - a11 dt g) I - a11 G in band storage and solves the rank-one
    rest of its Jacobian, a11 dt Z grad_g^T, by Sherman-Morrison. Raises
    StepFailureError on a singular stage or Newton matrix or a
    non-convergent Newton iteration, naming the step.
    """
    if path.d != model.d:
        raise ArgumentError(
            f"path has {path.d} components but the system drives {model.d}")
    n = model.n
    M = path.M
    dt = (path.T - path.t0) / M
    dW = np.diff(path.values, axis=0)
    nl = model.drift_nonlinearity
    eps = np.finfo(float).eps

    # Row i of an (n, kl+ku+1) band array holds G[i, i-kl : i+ku+1], zero
    # outside G. Its transpose is G^T in LAPACK band storage, so G Z is a dot
    # of each row with a sliding window of Z, and the stages solve with the
    # factors of (I - a11 G)^T, whose lower and upper bandwidths are ku, kl.
    kl, ku = np.max([bandwidth(X) for X in (model.A, *model.N)], axis=0)
    width = kl + ku + 1
    bands = np.stack([_band_rows(X, kl, ku).ravel()
                      for X in (model.A, *model.N)])
    coef = np.empty(model.d + 1)
    coef[0] = dt
    z_pad = np.zeros(n + width - 1)
    windows = sliding_window_view(z_pad, width)
    ab = np.empty((n, ku + width))
    ab_newton = np.empty_like(ab)

    def apply_G(Z):
        z_pad[kl:kl + n] = Z
        return np.vecdot(G_rows, windows)

    def factor(buf, shift, singular):
        # band LU of (shift I - a11 G)^T, built in buf and overwriting it;
        # a pivot zero to working precision raises singular(pivot, norm)
        buf[:, :ku] = 0.0  # fill-in columns
        np.multiply(G_rows, -A11, out=buf[:, ku:])
        buf[:, ku + kl] += shift
        norm = np.abs(buf[:, ku:]).sum(axis=1).max()
        lu, piv, _ = lu_factor(buf.T, ku, kl, overwrite_ab=1)
        pivot = np.abs(lu[kl + ku]).min()
        if pivot <= eps * n * norm:
            raise singular(pivot, norm)
        return lu, piv

    states = np.empty((M + 1, n))
    states[0] = model.x0
    max_newton = 0
    max_lin_res = 0.0

    def stage(c):
        # one stage of step k: solve Z = c + a11 (G Z + dt f(Z)) from the
        # step's band LU, by Newton when f != 0, and return G Z + dt f(Z)
        nonlocal max_newton, max_lin_res
        if not np.all(np.isfinite(c)):
            raise IntegrationOverflowError(
                f"state overflowed at step {k + 1} of {M}", step=k + 1)
        Z = dgbtrs(lu, ku, kl, c, piv, trans=1)[0]
        GZ = apply_G(Z)
        if nl is None:
            with np.errstate(over="ignore", invalid="ignore"):
                res = np.linalg.norm(Z - A11 * GZ - c)
                res /= max(1.0, np.linalg.norm(c))
            if np.isfinite(res):
                max_lin_res = max(max_lin_res, res)
            return GZ

        def singular(*_):
            return StepFailureError(f"singular Newton Jacobian at step {k}",
                                    step=k, residual=res)
        for it in range(NEWTON_MAX + 1):
            g = float(nl.g(Z))
            F = Z - A11 * (GZ + dt * (Z * g)) - c
            res = float(np.linalg.norm(F))
            if res <= NEWTON_TOL * max(1.0, np.linalg.norm(Z)):
                max_newton = max(max_newton, it)
                return GZ + dt * (Z * g)
            if it == NEWTON_MAX:
                break
            # the Jacobian is B - u v^T, B = (1 - a11 dt g) I - a11 G in
            # band storage, u = a11 dt Z, v = grad_g(Z): Sherman-Morrison
            lu_j, piv_j = factor(ab_newton, 1.0 - A11 * dt * g, singular)
            v = nl.grad_g(Z)
            y = dgbtrs(lu_j, ku, kl, -F, piv_j, trans=1)[0]
            w = dgbtrs(lu_j, ku, kl, A11 * dt * Z, piv_j, trans=1)[0]
            vw = v @ w
            if abs(1.0 - vw) <= eps * (1.0 + np.abs(v) @ np.abs(w)):
                raise singular()
            Z = Z + (y + w * ((v @ y) / (1.0 - vw)))
            GZ = apply_G(Z)
        raise StepFailureError(
            f"Newton did not converge at step {k} (residual {res:.3e} after "
            f"{NEWTON_MAX} iterations)", step=k, residual=res)

    for k in range(M):
        coef[1:] = model.K_sqrt @ dW[k]
        G_rows = (coef @ bands).reshape(n, width)
        # a11 = a22, so both stages share the matrix I - a11 G and one LU
        lu, piv = factor(ab, 1.0, lambda pivot, norm: StepFailureError(
            f"singular stage matrix I - a G at step {k} (a = {A11:.6g}, "
            f"smallest LU pivot {pivot:.3e} against 1-norm {norm:.3e}): "
            "G = A dt + sum_m s_m N_m has an eigenvalue at 1/a to "
            "working precision for this step's dt and driver increments "
            "s_m, and a finer grid need not help: the s_m shrink like "
            "dt^H, more slowly than dt",
            step=k))
        z = states[k]
        F1 = stage(z)
        F2 = stage(z + A21 * F1)
        z_next = z + B1 * F1 + B2 * F2
        if not np.all(np.isfinite(z_next)):
            raise IntegrationOverflowError(
                f"state overflowed at step {k + 1} of {M}", step=k + 1)
        states[k + 1] = z_next

    return SimulationResult(times=path.times, states=states,
                            outputs=states @ model.C.T,
                            max_newton_iterations=max_newton,
                            max_linear_residual=max_lin_res)


def _band_rows(X, kl, ku):
    """Row i holds X[i, i-kl : i+ku+1], with zeros outside X."""
    n = len(X)
    rows = np.zeros((n, kl + ku + 1))
    for t in range(kl + ku + 1):
        offset = t - kl
        rows[max(0, -offset):n - max(0, offset), t] = np.diagonal(X, offset)
    return rows


@dataclass(frozen=True)
class SmoothProbeResult:
    """Outcome of the quadratic-form comparison along a smooth driver.

    The Gronwall argument bounds the outer product x(t) x(t)^T by
    exp(int_0^t ||W_dot||^2) Z(t); ``min_eigenvalue`` is the smallest
    eigenvalue of that gap over the grid and should not fall below
    -tol * ``xbar_final_norm`` for a small discretization slack tol.
    """

    min_eigenvalue: float
    xbar_final_norm: float


def smooth_quadratic_form_probe(
        sys: BilinearRoughSystem, path: DriverPath,
        M: int) -> SmoothProbeResult:
    """Check x(t) x(t)^T <= exp(int ||W_dot||^2) Z(t) along a smooth driver.

    The driver is read as its piecewise-linear interpolant: the
    per-interval slopes drive a classical RK4 for x on a fine grid of M
    total steps (a multiple of the path grid) over the path's span, Z comes
    from the Gramian ODE on the same grid, and the exponential factor uses
    the cumulative squared slope integral. A path whose int ||W_dot||^2
    overflows that factor, as a finely sampled rough path can, raises
    ArgumentError before anything is integrated. Returns the minimum gap
    eigenvalue over the path nodes.
    """
    if path.d != sys.d:
        raise ArgumentError(
            f"path has {path.d} components but the system drives {sys.d}")
    span = path.T - path.t0
    if M < path.M or M % path.M != 0:
        raise ArgumentError(
            f"fine step count {M} must be a positive multiple of the path "
            f"grid M = {path.M}")
    sub = M // path.M
    dt = span / path.M
    hh = dt / sub
    slopes, l2_sq = piecewise_linear_derivative(path)
    if l2_sq > math.log(np.finfo(float).max):
        raise ArgumentError(
            f"the path's int ||W_dot||^2 dt = {l2_sq:.6g} overflows the "
            "Gronwall factor exp(int ||W_dot||^2 dt)")
    l2cum = np.concatenate(
        [[0.0], np.cumsum(np.sum(slopes ** 2, axis=1) * dt)])

    zres = integrate_gramian_ode(sys, "reach", span, M,
                                 return_trajectory=True)
    Ztraj = zres.trajectory

    def rhs(x, s_vec):
        v = sys.A @ x + drift_f(sys, x)
        for m_i in range(sys.d):
            v = v + s_vec[m_i] * (sys.N[m_i] @ x)
        return v

    x = sys.x0.copy()
    min_eig = math.inf
    for k in range(path.M):
        s_vec = sys.K_sqrt @ slopes[k]
        for _ in range(sub):
            k1 = rhs(x, s_vec)
            k2 = rhs(x + 0.5 * hh * k1, s_vec)
            k3 = rhs(x + 0.5 * hh * k2, s_vec)
            k4 = rhs(x + hh * k3, s_vec)
            x = x + (hh / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(x)):
            raise IntegrationOverflowError(
                f"smooth simulation overflowed in interval {k + 1}",
                step=k + 1)
        Xbar = math.exp(l2cum[k + 1]) * Ztraj[(k + 1) * sub]
        gap = Xbar - np.outer(x, x)
        min_eig = min(min_eig, float(np.linalg.eigvalsh(gap)[0]))
    xbar_final = math.exp(l2cum[-1]) * Ztraj[-1]
    return SmoothProbeResult(
        min_eigenvalue=min_eig,
        xbar_final_norm=float(np.linalg.norm(xbar_final, 2)))


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


@dataclass(frozen=True, eq=False)
class PointwiseErrorSeries:
    """Per-node relative output error; absolute where the reference is 0."""

    times: np.ndarray
    values: np.ndarray
    absolute_flags: np.ndarray


def pointwise_relative_error(y_full, y_red, times) -> PointwiseErrorSeries:
    """|y(t_k) - y_r(t_k)| / |y(t_k)| per node (Euclidean over components).

    Nodes with zero reference norm report the absolute error and are flagged.
    """
    times, y_full, y_red = _output_pair(y_full, y_red, times)
    num = np.linalg.norm(y_full - y_red, axis=1)
    den = np.linalg.norm(y_full, axis=1)
    flags = den == 0.0
    values = np.where(flags, num, num / np.where(flags, 1.0, den))
    return PointwiseErrorSeries(times=times, values=values,
                                absolute_flags=flags)


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
