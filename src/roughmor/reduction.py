"""Gramian truncation, Galerkin projection, and the two-stage pipeline.

Stage 1 projects onto the retained eigenspace of the reachability Gramian P;
because the state evolves inside im(P), this stage is exact for the output.
Stage 2 recomputes the observability Gramian Q on the stage-1 model (the
orders only compose correctly this way) and removes its numerical kernel,
which is invisible to the output for f = 0 and invertible K. The composite
basis V = V_P V_Q' is recorded so full-order states can be lifted back;
its row count is the parent order. The lossy rank sweep below the exact
order projects onto nested bases from one balancing of the exact model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg import eigh

from .errors import ArgumentError, EmptyBasisError, PreconditionError
from ._util import atomic_write_text, csv_text
from .gramians import GramianResult, _solve_gramians, solve_algebraic_gramian
from .system import BilinearRoughSystem, DriftNonlinearity

DEFAULT_TOL_P = 1e-16
DEFAULT_TOL_Q = 1e-15


def _orthonormal(V) -> np.ndarray:
    V = np.asarray(V, dtype=float)
    if V.ndim != 2 or V.shape[1] < 1:
        raise ArgumentError(f"basis must be n x r with r >= 1, got {V.shape}")
    if np.linalg.norm(V.T @ V - np.eye(V.shape[1])) > 1e-10:
        raise ArgumentError("basis columns are not orthonormal")
    return V


@dataclass(frozen=True, eq=False)
class ProjectionBasis:
    """Orthonormal basis of a retained Gramian eigenspace and the descending
    spectrum it was cut from.

    The first r = V.shape[1] entries of ``full_spectrum`` are the retained
    eigenvalues, strictly above tol_rel times the largest; the rest are the
    dropped ones.
    """

    V: np.ndarray
    full_spectrum: np.ndarray
    tol_rel: float

    def __post_init__(self):
        V = _orthonormal(self.V)
        w = np.asarray(self.full_spectrum, dtype=float)
        if w.ndim != 1 or w.size < V.shape[1]:
            raise ArgumentError(
                f"spectrum of shape {w.shape} cannot hold {V.shape[1]} "
                "retained eigenvalues")
        object.__setattr__(self, "V", V)
        object.__setattr__(self, "full_spectrum", w)
        object.__setattr__(self, "tol_rel", float(self.tol_rel))

    @property
    def r(self) -> int:
        return self.V.shape[1]


@dataclass(frozen=True, eq=False)
class ReducedModel:
    """A projected system plus the orthonormal n x r basis V it was
    projected onto."""

    system: BilinearRoughSystem
    V: np.ndarray

    def __post_init__(self):
        if self.system.n != self.V.shape[1]:
            raise ArgumentError(
                f"reduced order {self.system.n} does not match basis rank "
                f"{self.V.shape[1]}")

    @property
    def r(self) -> int:
        return self.system.n


def truncate_psd_spectrum(G, tol_rel: float) -> ProjectionBasis:
    """Basis of the eigenspace of G above the relative cut tol_rel.

    Keeps eigenpairs with lambda strictly above tol_rel times the largest
    eigenvalue (ties at the threshold are dropped), orders them descending,
    and fixes each eigenvector's sign so its largest-magnitude entry is
    positive. Nothing above the cut (G zero or negative semidefinite) raises
    EmptyBasisError, which carries the full descending spectrum.
    """
    G = np.asarray(G, dtype=float)
    if G.ndim != 2 or G.shape[0] != G.shape[1]:
        raise ArgumentError(f"G must be square, got shape {G.shape}")
    if not (0.0 < tol_rel < 1.0):
        raise ArgumentError(f"tol_rel must lie in (0, 1), got {tol_rel}")
    w, V = eigh((G + G.T) / 2)
    w = w[::-1].copy()
    V = V[:, ::-1]
    r = int(np.sum(w > tol_rel * w[0])) if w.size else 0
    if r == 0:
        raise EmptyBasisError(
            "no eigenvalue lies above the truncation threshold; "
            "the matrix has no retained directions", spectrum=w)
    V = V[:, :r].copy()
    for j in range(r):
        i = np.argmax(np.abs(V[:, j]))
        if V[i, j] < 0:
            V[:, j] = -V[:, j]
    return ProjectionBasis(V=V, full_spectrum=w, tol_rel=tol_rel)


def _reduced_nonlinearity(nl: DriftNonlinearity, V) -> DriftNonlinearity:
    # V^T (V x_r g(V x_r)) = x_r g(V x_r) by orthonormality, so the reduced
    # nonlinearity is g composed with the lift
    return DriftNonlinearity(
        g=lambda xr: nl.g(V @ xr),
        grad_g=lambda xr: V.T @ nl.grad_g(V @ xr))


def _galerkin(sys: BilinearRoughSystem, V) -> BilinearRoughSystem:
    nl = sys.drift_nonlinearity
    A = V.T @ sys.A @ V
    if np.array_equal(sys.A, sys.A.T):
        # V^T A V is symmetric only to round-off; storing its symmetric
        # part keeps the reduced drift on the eigh route of the solves
        A = (A + A.T) / 2
    return BilinearRoughSystem(
        A=A,
        N=tuple(V.T @ Ni @ V for Ni in sys.N),
        K=sys.K,
        C=sys.C @ V,
        x0=V.T @ sys.x0,
        drift_nonlinearity=_reduced_nonlinearity(nl, V) if nl else None)


def project_system(sys: BilinearRoughSystem, V) -> ReducedModel:
    """Galerkin projection of the system onto the orthonormal columns of V.

    Reduced matrices are V^T A V, V^T N_i V, C V, V^T x0 with K unchanged;
    the drift nonlinearity, when present, becomes x_r g(V x_r). An exactly
    symmetric A gives an exactly symmetric V^T A V, its symmetric part.
    """
    V = _orthonormal(V)
    if V.shape[0] != sys.n:
        raise ArgumentError(
            f"basis has {V.shape[0]} rows but the system has order {sys.n}")
    return ReducedModel(system=_galerkin(sys, V), V=V)


def observability_cut(sys: BilinearRoughSystem, Q: GramianResult,
                      tol_rel: float) -> ProjectionBasis:
    """Cut of the observability Gramian Q that removes its numerical kernel.

    Valid only for f = 0 and invertible K: those hypotheses make ker(Q)
    invariant and output-irrelevant, so the model projected onto the cut
    (project_system(sys, cut.V)) reproduces y exactly.
    """
    if sys.drift_nonlinearity is not None:
        raise PreconditionError(
            "observability-based reduction requires f = 0; the kernel of Q "
            "is only known to be output-irrelevant for the linear case")
    if Q.side != "obs":
        raise ArgumentError(
            f"expected an observability Gramian, got side {Q.side!r}")
    wK = np.linalg.eigvalsh(sys.K)
    # with no noise channels (d = 0) K is empty and counts as invertible
    if wK.size and wK[0] <= 1e-12 * max(wK[-1], 0.0):
        raise PreconditionError(
            "observability-based reduction requires invertible K "
            f"(min eigenvalue {wK[0]:.3e}, max {wK[-1]:.3e})")
    return truncate_psd_spectrum(Q.matrix, tol_rel)


@dataclass(frozen=True, eq=False)
class TwoStageMetadata:
    """The Gramian solve and the cut of each stage of a two-stage run.

    ``P`` and ``Q`` are the Gramian solves, with their residuals, backward
    errors and stability-check diagnostics; ``basis_P`` and ``basis_Q`` are
    the cuts of their spectra, which hold the full descending spectra.
    ``Q`` and ``basis_Q`` are None when stage 2 was skipped. ``orders``
    (full, stage 1[, stage 2]) and the tolerances in ``records()`` are read
    off the cuts.
    """

    P: GramianResult
    basis_P: ProjectionBasis
    Q: Optional[GramianResult] = None
    basis_Q: Optional[ProjectionBasis] = None
    notice: Optional[str] = None

    @property
    def obs_stage_skipped(self) -> bool:
        return self.basis_Q is None

    @property
    def orders(self) -> tuple:
        return tuple(order for _, order, _ in self.records())

    def records(self):
        """Rows (stage, order, tolerance) for the metadata CSV."""
        rows = [("full", self.basis_P.V.shape[0], None),
                ("P_stage", self.basis_P.r, self.basis_P.tol_rel)]
        if not self.obs_stage_skipped:
            rows.append(("Q_stage", self.basis_Q.r, self.basis_Q.tol_rel))
        return rows


def two_stage_reduce(sys: BilinearRoughSystem):
    """Reachability truncation followed by observability truncation.

    Stage 1 cuts the reachability Gramian of ``sys`` at DEFAULT_TOL_P; stage
    2 computes the observability Gramian of the stage-1 model and cuts it at
    DEFAULT_TOL_Q. Both cuts sit at the Gramians' numerical zeros. With a
    drift nonlinearity present, stage 2 is skipped with a notice in the
    metadata (its exactness argument needs f = 0). Returns the final
    ReducedModel (projected from ``sys`` onto the composite V = V_P V_Q) and
    a TwoStageMetadata.

    Both Gramian solves run GMRES to its round-off floor and are accepted by
    their backward error (solve_algebraic_gramian), so the truncation reads
    Gramians that are correct to round-off at every order.
    """
    P = solve_algebraic_gramian(sys, "reach")
    basis_P = truncate_psd_spectrum(P.matrix, DEFAULT_TOL_P)
    stage1 = project_system(sys, basis_P.V)

    if sys.drift_nonlinearity is not None:
        return stage1, TwoStageMetadata(
            P=P, basis_P=basis_P,
            notice="observability stage skipped: drift nonlinearity present "
                   "(stage 2 requires f = 0)")

    Q = solve_algebraic_gramian(stage1.system, "obs")
    basis_Q = observability_cut(stage1.system, Q, DEFAULT_TOL_Q)
    return project_system(sys, basis_P.V @ basis_Q.V), TwoStageMetadata(
        P=P, basis_P=basis_P, Q=Q, basis_Q=basis_Q)


def write_stage_metadata_csv(meta: TwoStageMetadata, file) -> None:
    """Dump (stage, order, tolerance) rows; the full-order row has none."""
    atomic_write_text(file, csv_text(
        ["stage", "order", "tolerance"],
        [(stage, order, "" if tolerance is None else "%g" % tolerance)
         for stage, order, tolerance in meta.records()]))


def balanced_rank_sweep(exact: ReducedModel, ranks) -> dict:
    """Lossy models below the exact order by one square-root balancing.

    Gates the exact model once and solves P = R R^T and Q = L L^T once, R
    and L from eigh with eigenvalues clipped at 0 (Cholesky can fail on
    these semidefinite Gramians). With L^T R = U S W^T and B the QR factor
    of R W, rank k projects the exact model onto B[:, :k]. Benner & Damm
    (SIAM J. Control Optim. 49, 2011) justify balancing with these Gramians
    for bilinear and stochastic systems. Returns {requested rank:
    ReducedModel} in ascending rank order; a requested rank at or above the
    exact order maps to ``exact`` itself.

    The dropped directions carry no exactness guarantee: this realizes the
    "neglect eigenspaces beyond the numerical zeros" experiment, trading
    output accuracy for order.
    """
    if exact.system.drift_nonlinearity is not None:
        raise PreconditionError(
            "the rank sweep drops observability directions and therefore "
            "requires f = 0")
    ranks = sorted(set(int(r) for r in ranks))
    if not ranks:
        raise ArgumentError("no target ranks given")
    if ranks[0] < 1:
        raise ArgumentError(f"target ranks must be >= 1, got {ranks[0]}")

    R, L = (V * np.sqrt(np.clip(w, 0.0, None)) for w, V in (
        eigh(G.matrix)
        for G in _solve_gramians(exact.system, ("reach", "obs"))))
    B = np.linalg.qr(R @ np.linalg.svd(L.T @ R)[2].T)[0]
    return {k: exact if k >= exact.r else ReducedModel(
        _galerkin(exact.system, B[:, :k]), exact.V @ B[:, :k])
        for k in ranks}


def kernel_preservation_residual(sys: BilinearRoughSystem, Q, z) -> float:
    """Largest residual certifying that z sits in an invariant kernel of Q,
    over its scale.

    The residuals ||Q A z||, ||C z|| and ||(K (x) Q) stack(N_i z)|| all
    vanish for z in ker(Q) when the kernel-preservation identities hold;
    their largest is divided by the scale (||A||_2 + ||C||_2 + sum_i
    ||N_i||_2 ||K||_2) ||Q||_2 ||z||, floored at the smallest normal float.
    """
    Q = np.asarray(Q, dtype=float)
    z = np.asarray(z, dtype=float).reshape(-1)
    if Q.shape != (sys.n, sys.n) or z.shape != (sys.n,):
        raise ArgumentError(
            f"expected Q {(sys.n, sys.n)} and z of length {sys.n}, got "
            f"{Q.shape} and {z.shape}")
    residuals = [np.linalg.norm(Q @ (sys.A @ z)), np.linalg.norm(sys.C @ z)]
    coeff = np.linalg.norm(sys.A, 2) + np.linalg.norm(sys.C, 2)
    if sys.d:
        W = np.stack([Ni @ z for Ni in sys.N])
        residuals.append(np.linalg.norm(
            np.stack([Q @ (sys.K[i] @ W) for i in range(sys.d)])))
        coeff += (sum(np.linalg.norm(Ni, 2) for Ni in sys.N)
                  * np.linalg.norm(sys.K, 2))
    scale = coeff * np.linalg.norm(Q, 2) * np.linalg.norm(z)
    return float(max(residuals) / max(scale, np.finfo(float).tiny))


def subspace_containment_residual(basis: ProjectionBasis, traj) -> float:
    """Worst out-of-subspace component of a trajectory, relative.

    max_k ||(I - V V^T) x(t_k)|| / max_k ||x(t_k)||; accepts a simulation
    result (its ``states``) or a bare (K+1) x n array.
    """
    states = getattr(traj, "states", traj)
    states = np.asarray(states, dtype=float)
    if states.ndim != 2 or states.shape[0] == 0:
        raise ArgumentError("trajectory must be a nonempty (K+1) x n array")
    V = basis.V
    if states.shape[1] != V.shape[0]:
        raise ArgumentError(
            f"trajectory has state dimension {states.shape[1]}, basis has "
            f"{V.shape[0]} rows")
    residual = states - (states @ V) @ V.T
    num = float(np.max(np.linalg.norm(residual, axis=1)))
    den = float(np.max(np.linalg.norm(states, axis=1)))
    if den == 0.0:
        return 0.0
    return num / den
