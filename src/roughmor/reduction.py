"""Gramian truncation, Galerkin projection, and the two-stage pipeline.

Stage 1 projects onto the retained eigenspace of the reachability Gramian P;
because the state evolves inside im(P), this stage is exact for the output.
Stage 2 recomputes the observability Gramian Q on the stage-1 model (the
orders only compose correctly this way) and removes its numerical kernel,
which is invisible to the output for f = 0 and invertible K. The composite
basis V = V_P V_Q' is recorded so full-order states can be lifted back.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.linalg import eigh

from .errors import ArgumentError, EmptyBasisError, PreconditionError
from ._util import atomic_write_text, csv_text
from .gramians import GramianKind, GramianResult, solve_algebraic_gramian
from .system import BilinearRoughSystem, DriftNonlinearity

DEFAULT_TOL_P = 1e-16
DEFAULT_TOL_Q = 1e-15
PIPELINE_GRAMIAN_TOL = 1e-10


class Stage(str, enum.Enum):
    P_STAGE = "P_stage"
    Q_STAGE = "Q_stage"
    TWO_STAGE = "two_stage"


@dataclass(frozen=True)
class ProjectionBasis:
    """Orthonormal basis of a retained Gramian eigenspace.

    ``retained_eigenvalues`` are the kept eigenvalues, descending and strictly
    above tol_rel times the largest; ``discarded_max`` is the largest dropped
    eigenvalue (0.0 when nothing was dropped).
    """

    V: np.ndarray
    retained_eigenvalues: np.ndarray
    discarded_max: float
    tol_rel: float
    full_spectrum: Optional[np.ndarray] = field(default=None, repr=False,
                                                compare=False)

    def __post_init__(self):
        V = np.asarray(self.V, dtype=float)
        w = np.asarray(self.retained_eigenvalues, dtype=float)
        if V.ndim != 2 or V.shape[1] < 1:
            raise ArgumentError(f"basis must be n x r with r >= 1, got {V.shape}")
        r = V.shape[1]
        if w.shape != (r,):
            raise ArgumentError(
                f"expected {r} retained eigenvalues, got {w.shape}")
        if np.any(np.diff(w) > 0) or w[-1] <= 0:
            raise ArgumentError(
                "retained eigenvalues must be positive and descending")
        if not (0.0 < self.tol_rel < 1.0):
            raise ArgumentError(f"tol_rel must lie in (0, 1), got {self.tol_rel}")
        if np.linalg.norm(V.T @ V - np.eye(r)) > 1e-10:
            raise ArgumentError("basis columns are not orthonormal")
        if np.any(w <= self.tol_rel * w[0]):
            raise ArgumentError(
                "retained eigenvalues dip below the truncation threshold")
        if self.discarded_max > self.tol_rel * w[0]:
            raise ArgumentError(
                "discarded_max lies above the truncation threshold")
        object.__setattr__(self, "V", V)
        object.__setattr__(self, "retained_eigenvalues", w)
        object.__setattr__(self, "discarded_max", float(self.discarded_max))
        object.__setattr__(self, "tol_rel", float(self.tol_rel))

    @property
    def r(self) -> int:
        return self.V.shape[1]


@dataclass(frozen=True)
class ReducedModel:
    """A projected system plus the basis and stage that produced it."""

    system: BilinearRoughSystem
    basis: ProjectionBasis
    stage: Stage
    parent_order: int

    def __post_init__(self):
        if self.system.n != self.basis.r:
            raise ArgumentError(
                f"reduced order {self.system.n} does not match basis rank "
                f"{self.basis.r}")
        if self.basis.V.shape[0] != self.parent_order:
            raise ArgumentError(
                f"basis has {self.basis.V.shape[0]} rows, expected "
                f"parent order {self.parent_order}")
        object.__setattr__(self, "stage", Stage(self.stage))

    @property
    def r(self) -> int:
        return self.system.n

    def lift(self, reduced_states: np.ndarray) -> np.ndarray:
        """Map reduced states (... x r) back to full coordinates (... x n)."""
        return np.asarray(reduced_states, dtype=float) @ self.basis.V.T


def truncate_psd_spectrum(G, tol_rel: float) -> ProjectionBasis:
    """Basis of the eigenspace of G above the relative cut tol_rel.

    Keeps eigenpairs with lambda strictly above tol_rel times the largest
    eigenvalue (ties at the threshold are dropped), orders them descending,
    and fixes each eigenvector's sign so its largest-magnitude entry is
    positive. Nothing above the cut (G zero or negative semidefinite) raises
    EmptyBasisError.
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
            "the matrix has no retained directions")
    V = V[:, :r].copy()
    for j in range(r):
        i = np.argmax(np.abs(V[:, j]))
        if V[i, j] < 0:
            V[:, j] = -V[:, j]
    discarded_max = float(w[r]) if r < len(w) else 0.0
    return ProjectionBasis(V=V, retained_eigenvalues=w[:r],
                           discarded_max=discarded_max, tol_rel=tol_rel,
                           full_spectrum=w)


def _reduced_nonlinearity(nl: DriftNonlinearity, V) -> DriftNonlinearity:
    # V^T (V x_r g(V x_r)) = x_r g(V x_r) by orthonormality, so the reduced
    # nonlinearity is g composed with the lift
    return DriftNonlinearity(
        g=lambda xr: nl.g(V @ xr),
        grad_g=lambda xr: V.T @ nl.grad_g(V @ xr))


def _galerkin(sys: BilinearRoughSystem, V) -> BilinearRoughSystem:
    nl = sys.drift_nonlinearity
    return BilinearRoughSystem(
        A=V.T @ sys.A @ V,
        N=tuple(V.T @ Ni @ V for Ni in sys.N),
        K=sys.K,
        C=sys.C @ V,
        x0=V.T @ sys.x0,
        drift_nonlinearity=_reduced_nonlinearity(nl, V) if nl else None)


def project_system(sys: BilinearRoughSystem, basis: ProjectionBasis,
                   stage: Stage = Stage.P_STAGE) -> ReducedModel:
    """Galerkin projection of the system onto the basis columns.

    Reduced matrices are V^T A V, V^T N_i V, C V, V^T x0 with K unchanged;
    the drift nonlinearity, when present, becomes x_r g(V x_r).
    """
    V = basis.V
    if V.shape[0] != sys.n:
        raise ArgumentError(
            f"basis has {V.shape[0]} rows but the system has order {sys.n}")
    return ReducedModel(system=_galerkin(sys, V), basis=basis, stage=stage,
                        parent_order=sys.n)


def reduce_by_observability(sys: BilinearRoughSystem, Q: GramianResult,
                            tol_rel: float) -> ReducedModel:
    """Remove the numerical kernel of the observability Gramian.

    Valid only for f = 0 and invertible K: those hypotheses make ker(Q)
    invariant and output-irrelevant, so the projected model reproduces y
    exactly.
    """
    if sys.drift_nonlinearity is not None:
        raise PreconditionError(
            "observability-based reduction requires f = 0; the kernel of Q "
            "is only known to be output-irrelevant for the linear case")
    if Q.kind not in (GramianKind.OBS_FINITE, GramianKind.OBS_INFINITE):
        raise ArgumentError(
            f"expected an observability Gramian, got kind {Q.kind.value!r}")
    wK = np.linalg.eigvalsh(sys.K)
    if wK[0] <= 1e-12 * max(wK[-1], 0.0):
        raise PreconditionError(
            "observability-based reduction requires invertible K "
            f"(min eigenvalue {wK[0]:.3e}, max {wK[-1]:.3e})")
    basis = truncate_psd_spectrum(Q.matrix, tol_rel)
    return project_system(sys, basis, stage=Stage.Q_STAGE)


@dataclass(frozen=True)
class TwoStageMetadata:
    """Orders and solver diagnostics of a two-stage run.

    ``p_spectrum`` holds the full descending spectrum of the reachability
    Gramian; ``q_spectrum`` the spectrum of the stage-2 observability Gramian
    (None when stage 2 was skipped).
    """

    parent_order: int
    orders: tuple
    tol_P: float
    tol_Q: float
    p_iterations: int
    p_residual: float
    q_iterations: Optional[int] = None
    q_residual: Optional[float] = None
    obs_stage_skipped: bool = False
    notice: Optional[str] = None
    p_spectrum: Optional[np.ndarray] = field(default=None, repr=False,
                                             compare=False)
    q_spectrum: Optional[np.ndarray] = field(default=None, repr=False,
                                             compare=False)

    def records(self):
        """Rows (stage, order, tolerance) for the metadata CSV."""
        rows = [("full", self.parent_order, None),
                (Stage.P_STAGE.value, self.orders[1], self.tol_P)]
        if not self.obs_stage_skipped:
            rows.append((Stage.Q_STAGE.value, self.orders[2], self.tol_Q))
        return rows


def two_stage_reduce(
        sys: BilinearRoughSystem,
        tol_P: float = DEFAULT_TOL_P,
        tol_Q: float = DEFAULT_TOL_Q):
    """Reachability truncation followed by observability truncation.

    Stage 1 truncates the reachability Gramian of ``sys``; stage 2 computes
    the observability Gramian of the stage-1 model and truncates that. With a
    drift nonlinearity present, stage 2 is skipped with a notice in the
    metadata (its exactness argument needs f = 0). Returns the final
    ReducedModel (composite basis, projected from ``sys``) and a
    TwoStageMetadata.

    Both Gramian solves must meet PIPELINE_GRAMIAN_TOL. GMRES runs them to
    its round-off floor whatever that tolerance is, so the truncation
    decision does not depend on where the tolerance falls above the floor.
    """
    P = solve_algebraic_gramian(sys, "reach", tol=PIPELINE_GRAMIAN_TOL)
    basis_P = truncate_psd_spectrum(P.matrix, tol_P)
    stage1 = project_system(sys, basis_P, stage=Stage.P_STAGE)

    if sys.drift_nonlinearity is not None:
        meta = TwoStageMetadata(
            parent_order=sys.n, orders=(sys.n, stage1.r), tol_P=tol_P,
            tol_Q=tol_Q, p_iterations=P.iterations, p_residual=P.residual,
            obs_stage_skipped=True,
            notice="observability stage skipped: drift nonlinearity present "
                   "(stage 2 requires f = 0)",
            p_spectrum=basis_P.full_spectrum)
        return stage1, meta

    Q = solve_algebraic_gramian(stage1.system, "obs",
                                tol=PIPELINE_GRAMIAN_TOL)
    stage2 = reduce_by_observability(stage1.system, Q, tol_Q)

    V = basis_P.V @ stage2.basis.V
    composite = ProjectionBasis(
        V=V,
        retained_eigenvalues=stage2.basis.retained_eigenvalues,
        discarded_max=stage2.basis.discarded_max,
        tol_rel=tol_Q,
        full_spectrum=stage2.basis.full_spectrum)
    final = project_system(sys, composite, stage=Stage.TWO_STAGE)
    meta = TwoStageMetadata(
        parent_order=sys.n, orders=(sys.n, stage1.r, stage2.r), tol_P=tol_P,
        tol_Q=tol_Q, p_iterations=P.iterations, p_residual=P.residual,
        q_iterations=Q.iterations, q_residual=Q.residual,
        p_spectrum=basis_P.full_spectrum,
        q_spectrum=stage2.basis.full_spectrum)
    return final, meta


def write_stage_metadata_csv(meta: TwoStageMetadata, file) -> None:
    """Dump (stage, order, tolerance) rows; the full-order row has none."""
    atomic_write_text(file, csv_text(
        ["stage", "order", "tolerance"],
        [(stage, order, "" if tolerance is None else "%g" % tolerance)
         for stage, order, tolerance in meta.records()]))


@dataclass(frozen=True)
class SweepEntry:
    """One lossy model of the rank sweep.

    ``requested_rank`` is what the caller asked for; ``actual_rank`` may be
    smaller than the exact order only never larger: requests at or above the
    exact order clamp to the exact model.
    """

    requested_rank: int
    actual_rank: int
    system: BilinearRoughSystem
    V: np.ndarray


def greedy_rank_sweep(exact: ReducedModel, ranks):
    """Lossy models below the exact order by greedy alternating truncation.

    Starting from the exact reduced model, each step solves both Gramians of
    the current model, compares their smallest relative eigenvalues, and
    drops the single eigendirection of the side whose spectrum decays deeper
    (ties go to the reachability side). A snapshot is recorded at every
    requested rank; requested ranks at or above the exact order return the
    exact model unchanged.

    The dropped directions carry no exactness guarantee: this realizes the
    "neglect eigenspaces beyond the numerical zeros" experiment, trading
    output accuracy for order.
    """
    if exact.system.drift_nonlinearity is not None:
        raise PreconditionError(
            "the rank sweep drops observability directions and therefore "
            "requires f = 0")
    ranks = sorted(set(int(r) for r in ranks), reverse=True)
    if not ranks:
        raise ArgumentError("no target ranks given")
    if ranks[-1] < 1:
        raise ArgumentError(f"target ranks must be >= 1, got {ranks[-1]}")

    entries = []
    cur = exact.system
    V_total = exact.basis.V
    targets = []
    for r in ranks:
        if r >= exact.r:
            entries.append(SweepEntry(requested_rank=r, actual_rank=exact.r,
                                      system=cur, V=V_total))
        else:
            targets.append(r)

    for target in targets:
        while cur.n > target:
            P = solve_algebraic_gramian(cur, "reach",
                                        tol=PIPELINE_GRAMIAN_TOL)
            Q = solve_algebraic_gramian(cur, "obs", tol=PIPELINE_GRAMIAN_TOL)
            wp, Vp = eigh((P.matrix + P.matrix.T) / 2)
            wq, Vq = eigh((Q.matrix + Q.matrix.T) / 2)
            rel_p = wp[0] / wp[-1]
            rel_q = wq[0] / wq[-1]
            V_keep = Vp[:, 1:] if rel_p <= rel_q else Vq[:, 1:]
            cur = _galerkin(cur, V_keep)
            V_total = V_total @ V_keep
        entries.append(SweepEntry(requested_rank=target, actual_rank=cur.n,
                                  system=cur, V=V_total))
    entries.sort(key=lambda e: e.requested_rank)
    return entries


def check_kernel_preservation(sys: BilinearRoughSystem, Q, z):
    """Residual norms certifying that z sits in an invariant kernel of Q.

    Returns (||Q A z||, ||C z||, ||(K (x) Q) stack(N_i z)||): all three vanish
    for z in ker(Q) when the kernel-preservation identities hold.
    """
    Q = np.asarray(Q, dtype=float)
    z = np.asarray(z, dtype=float).reshape(-1)
    if Q.shape != (sys.n, sys.n) or z.shape != (sys.n,):
        raise ArgumentError(
            f"expected Q {(sys.n, sys.n)} and z of length {sys.n}, got "
            f"{Q.shape} and {z.shape}")
    r1 = float(np.linalg.norm(Q @ (sys.A @ z)))
    r2 = float(np.linalg.norm(sys.C @ z))
    if sys.d:
        W = np.stack([Ni @ z for Ni in sys.N])
        blocks = np.stack([Q @ (sys.K[i] @ W) for i in range(sys.d)])
        r3 = float(np.linalg.norm(blocks))
    else:
        r3 = 0.0
    return r1, r2, r3


def kernel_preservation_scale(sys: BilinearRoughSystem, Q, z) -> float:
    """Natural magnitude reference for check_kernel_preservation residuals."""
    Q = np.asarray(Q, dtype=float)
    z = np.asarray(z, dtype=float).reshape(-1)
    nK = np.linalg.norm(sys.K, 2) if sys.d else 0.0
    coeff = (np.linalg.norm(sys.A, 2) + np.linalg.norm(sys.C, 2)
             + sum(np.linalg.norm(Ni, 2) for Ni in sys.N) * nK)
    return float(coeff * np.linalg.norm(Q, 2) * np.linalg.norm(z))


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
