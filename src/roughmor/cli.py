"""Experiment runner.

Subcommands: ``reduce`` (build, Gramians, two-stage reduction, shared-path
simulation of full and reduced models), ``sweep`` (lossy rank sweep),
``probes`` (bundled verification probes on builtin fixtures), ``simulate``
(integrate the full model), ``gramian`` (solve both algebraic Gramians and
dump spectra).

Configuration comes from a flat key=value file plus command-line overrides;
a subcommand takes only the keys it reads (``_COMMANDS``), less those that a
given file replaces (``_REPLACED_BY``), and echoes them into the output
directory. All artifacts are CSV or JSON, written atomically, and bitwise
deterministic given (config, seed); wall-clock timings go to stdout only.

Exit codes: 0 success, 1 argument/precondition/stability failure,
2 numerical failure, 3 probe failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field, fields
from typing import Optional

import numpy as np
import scipy.linalg

from .errors import (ArgumentError, EmptyBasisError, PreconditionError,
                     RoughmorError)
from ._fixtures import (decoupled_observability_system, mild_stable_system,
                        scalar_noise_system)
from ._util import atomic_write_text, csv_text, fmt
from .drivers import (DriverPath, read_path_csv, sample_fbm_path,
                      smooth_path_from_function, write_path_csv)
from .gramians import (_solve_gramians, integrate_gramian_ode,
                       monte_carlo_second_moment, solve_algebraic_gramian,
                       write_spectrum_csv)
from .heat import Heat1dConfig, build_heat1d
from .reduction import (DEFAULT_TOL_P, DEFAULT_TOL_Q,
                        balanced_rank_sweep, kernel_preservation_residual,
                        truncate_psd_spectrum, two_stage_reduce,
                        write_stage_metadata_csv)
from .solver import (pointwise_relative_error, relative_L2_error,
                     rough_rk_simulate, smooth_quadratic_form_probe,
                     write_error_csv, write_states_csv, write_trajectory_csv)
from .system import (BilinearRoughSystem, is_mean_square_stable,
                     resolvent_positivity_probe)


def _parse_ranks(text):
    ranks = tuple(int(tok) for tok in text.split(",") if tok.strip())
    if not ranks:
        raise ValueError("the rank list holds no rank")
    return ranks


_BOOLS = {"true": True, "1": True, "yes": True,
          "false": False, "0": False, "no": False}


def _key(default, parse=str, help=None, **flag):
    """One config key: its default, the parser of its text (config file and
    flag alike), and the help and extra argparse settings of its --flag."""
    return field(default=default,
                 metadata={"parse": parse, "help": help, "flag": flag})


@dataclass(frozen=True)
class RunConfig:
    """Resolved run parameters (defaults, then config file, then flags).

    The fields are the config keys: the key table below is the only place
    that names them.
    """

    # set by the subcommand; a config file may repeat it but not change it
    mode: Optional[str] = _key(None)
    model_file: Optional[str] = _key(
        None, help="matrix file ('n d p' header, then A, N_1..N_d, K, C, x0 "
                   "row-major); without it, the builtin heat model")
    n: int = _key(100, int,
                  "interior grid size of the builtin heat model, at least 2")
    hurst: float = _key(
        0.4, float, "Hurst index of the fBm driver, in (0, 1); its "
                    "piecewise-linear (Wong-Zakai) lift converges to the "
                    "rough solution only for H > 1/4 (Coutin & Qian, 2002)")
    horizon: float = _key(0.5, float, "time horizon T")
    step_exp: int = _key(10, int, "step exponent m, step = 2^-m")
    seed: int = _key(2023, int, "driver seed")
    ranks: Optional[tuple] = _key(
        None, _parse_ranks, "comma-separated target ranks (sweep), e.g. 5,7,9")
    out: str = _key("roughmor-run", help="output directory")
    path_file: Optional[str] = _key(
        None, help="reuse a stored driver path CSV, which fixes the horizon, "
                   "Hurst index, seed and step")
    states: bool = _key(False, lambda text: _BOOLS[text.lower()],
                        "also dump the state trajectory",
                        action="store_const", const="true")

    def __post_init__(self):
        if not (0.0 < self.hurst < 1.0):
            raise ArgumentError(
                f"Hurst index must lie in (0, 1), got {self.hurst}")
        if "seed" in self.keys and self.seed < 0:
            raise ArgumentError(f"seed must be >= 0, got {self.seed}")
        if "n" in self.keys and self.n < 2:
            raise ArgumentError(f"need n >= 2 interior nodes, got {self.n}")
        # the fBm sampler needs 2 to 2^53 whole steps: past 2^53, k T / M is
        # no longer a uniform grid of doubles
        if "step_exp" in self.keys and not (
                0 <= self.step_exp < 1024 and 2 <= self.steps <= 2.0 ** 53
                and self.steps.is_integer()):
            raise ArgumentError(
                f"step 2^-{self.step_exp} must cut the horizon "
                f"{self.horizon} into 2 to 2^53 whole steps")

    @property
    def keys(self) -> tuple:
        """The keys this run reads: its subcommand's, less those replaced."""
        return tuple(key for key in _COMMANDS[self.mode][2] if not (
            key in _REPLACED_BY and getattr(self, _REPLACED_BY[key])))

    @property
    def steps(self) -> float:
        """The sampler's step count, horizon / 2^-step_exp."""
        return self.horizon * 2.0 ** self.step_exp

    def echo_lines(self):
        """Flat key=value lines of the mode and the keys read, sorted."""
        def render(value):
            if value is None:
                return ""
            if isinstance(value, bool):
                return "true" if value else "false"
            if isinstance(value, float):
                return fmt(value)
            if isinstance(value, tuple):
                return ",".join(str(v) for v in value)
            return str(value)

        return [f"{key}={render(getattr(self, key))}"
                for key in sorted(("mode",) + self.keys)]


_KEYS = {key.name: key for key in fields(RunConfig)}
# a key and the file key that replaces it: that file holds its value
_REPLACED_BY = {"n": "model_file", **dict.fromkeys(
    ("horizon", "hurst", "seed", "step_exp"), "path_file")}


def _parse(key, text):
    """Value of config key ``key`` from its text; empty text means the
    default."""
    if text == "":
        return _KEYS[key].default
    try:
        return _KEYS[key].metadata["parse"](text)
    except (KeyError, ValueError) as exc:
        raise ArgumentError(
            f"could not parse config value {key}={text!r}") from exc


def _parse_config_file(path, command):
    entries = {}
    try:
        with open(path) as handle:
            for lineno, raw in enumerate(handle, 1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ArgumentError(
                        f"{path}:{lineno}: expected key=value, got {line!r}")
                key, _, value = line.partition("=")
                key = key.strip()
                if key not in ("mode", *_COMMANDS[command][2]):
                    raise ArgumentError(
                        f"{path}:{lineno}: {command} takes no key {key!r}")
                entries[key] = _parse(key, value.strip())
    except OSError as exc:
        raise ArgumentError(f"cannot read config file {path}: {exc}") from exc
    return entries


def resolve_config(args) -> RunConfig:
    resolved = (_parse_config_file(args.config, args.command) if args.config
                else {})
    for key in _COMMANDS[args.command][2]:
        text = getattr(args, key)
        if text is not None:
            resolved[key] = _parse(key, text)
    # a run's config.txt echoes its mode, so replaying it must accept one
    if resolved.setdefault("mode", args.command) != args.command:
        raise ArgumentError(
            f"config file sets mode={resolved['mode']}, but the subcommand "
            f"is {args.command!r}")
    for key, file_key in _REPLACED_BY.items():
        if key in resolved and resolved.get(file_key):
            raise ArgumentError(
                f"{file_key} replaces {key}: set one or the other")
    return RunConfig(**resolved)


def read_system_file(path) -> BilinearRoughSystem:
    """Load a system from the plain-text matrix format.

    Header line ``n d p``, then the entries of A, N_1..N_d, K, C, x0 in
    row-major order; whitespace and line breaks are free, lines starting
    with # are comments.
    """
    try:
        with open(path) as handle:
            tokens = []
            for line in handle:
                line = line.split("#", 1)[0]
                tokens.extend(line.split())
    except OSError as exc:
        raise ArgumentError(f"cannot read model file {path}: {exc}") from exc
    if len(tokens) < 3:
        raise ArgumentError(f"{path}: missing 'n d p' header")
    try:
        n, d, p = (int(tokens[i]) for i in range(3))
    except ValueError as exc:
        raise ArgumentError(f"{path}: malformed 'n d p' header") from exc
    if n < 1 or d < 0 or p < 0:
        raise ArgumentError(f"{path}: header 'n d p' = {n} {d} {p} needs "
                            "n >= 1 and d, p >= 0")
    need = n * n * (1 + d) + d * d + p * n + n
    body = tokens[3:]
    if len(body) != need:
        raise ArgumentError(
            f"{path}: expected {need} matrix entries for n={n}, d={d}, "
            f"p={p}, found {len(body)}")
    try:
        values = np.array([float(tok) for tok in body])
    except ValueError as exc:
        raise ArgumentError(f"{path}: non-numeric matrix entry") from exc
    pos = 0

    def take(rows, cols):
        nonlocal pos
        block = values[pos:pos + rows * cols].reshape(rows, cols)
        pos += rows * cols
        return block

    A = take(n, n)
    N = tuple(take(n, n) for _ in range(d))
    K = take(d, d)
    C = take(p, n)
    x0 = take(1, n).reshape(-1)
    return BilinearRoughSystem(A=A, N=N, K=K, C=C, x0=x0)


def build_model(cfg: RunConfig) -> BilinearRoughSystem:
    if cfg.model_file:
        return read_system_file(cfg.model_file)
    return build_heat1d(Heat1dConfig(cfg.n))


def resolve_driver(cfg: RunConfig, d: int) -> DriverPath:
    if cfg.path_file:
        return read_path_csv(cfg.path_file)
    return sample_fbm_path(cfg.hurst, d, cfg.horizon, int(cfg.steps),
                           cfg.seed)


def _echo_config(cfg: RunConfig, outdir) -> str:
    atomic_write_text(os.path.join(outdir, "config.txt"),
                      "\n".join(cfg.echo_lines()) + "\n")
    return "config.txt"


def _write_summary(outdir, payload) -> None:
    atomic_write_text(os.path.join(outdir, "summary.json"),
                      json.dumps(payload, indent=2, sort_keys=True) + "\n")


class _Run:
    """Bookkeeping shared by the runners: the output directory with the
    config echoed into it, the artifacts written so far, the start of the
    printed timings, and the closing summary.json that lists the artifacts."""

    def __init__(self, cfg: RunConfig):
        self.cfg = cfg
        try:
            os.makedirs(cfg.out, exist_ok=True)
        except OSError as exc:
            raise ArgumentError(
                f"cannot create output directory {cfg.out}: {exc}") from exc
        self.artifacts = [_echo_config(cfg, cfg.out)]
        self.t0 = time.perf_counter()

    def path(self, name) -> str:
        """Where to write artifact ``name``; records it in the list."""
        self.artifacts.append(name)
        return os.path.join(self.cfg.out, name)

    def finish(self, status="ok", **payload) -> None:
        self.artifacts.append("summary.json")
        _write_summary(self.cfg.out, {
            "status": status, "command": self.cfg.mode,
            "artifacts": self.artifacts, **payload})


# the GramianResult attributes that summary.json reports for each solve
_GRAMIAN_KEYS = ("iterations", "residual", "backward_error",
                 "gate_rho_lower", "gate_rho_upper", "gate_solves")


def run_exact_reduction(cfg: RunConfig) -> int:
    run = _Run(cfg)
    model_sys = build_model(cfg)
    t1 = time.perf_counter()
    model, meta = two_stage_reduce(model_sys)
    t2 = time.perf_counter()
    if meta.notice:
        print(f"notice: {meta.notice}")

    path = resolve_driver(cfg, model_sys.d)
    write_path_csv(path, run.path("driver_path.csv"))

    full = rough_rk_simulate(model_sys, path)
    reduced = rough_rk_simulate(model.system, path)
    t3 = time.perf_counter()

    rel = relative_L2_error(full.outputs, reduced.outputs, full.times)
    pw = pointwise_relative_error(full.outputs, reduced.outputs, full.times)

    write_spectrum_csv(meta.basis_P.full_spectrum,
                       run.path("gramian_spectrum_p.csv"))
    if not meta.obs_stage_skipped:
        write_spectrum_csv(meta.basis_Q.full_spectrum,
                           run.path("gramian_spectrum_q.csv"))
    write_stage_metadata_csv(meta, run.path("stage_metadata.csv"))
    write_trajectory_csv(full, run.path("output_full.csv"))
    write_trajectory_csv(reduced, run.path("output_reduced.csv"))
    write_error_csv(full.times, pw, run.path("pointwise_error.csv"))
    if cfg.states:
        write_states_csv(full, run.path("states_full.csv"))

    run.finish(
        orders=list(meta.orders),
        relative_l2_error=float(rel),
        error_is_absolute=rel.is_absolute,
        gramian={f"{prefix}_{key}": None if G is None else getattr(G, key)
                 for prefix, G in (("p", meta.P), ("q", meta.Q))
                 for key in _GRAMIAN_KEYS},
        solver={
            "min_pivot_ratio_full": full.min_pivot_ratio,
            "min_pivot_ratio_reduced": reduced.min_pivot_ratio,
        },
        notice=meta.notice)

    orders_txt = " -> ".join(str(r) for r in meta.orders)
    print(f"orders: {orders_txt}")
    print(f"relative L2 error (full vs reduced): {float(rel):.6e}"
          + (" [absolute: reference output is zero]" if rel.is_absolute
             else ""))
    print(f"timings: build {t1 - run.t0:.2f} s, "
          f"reduction {t2 - t1:.2f} s, simulation {t3 - t2:.2f} s")
    print(f"artifacts in {cfg.out}")
    return 0


def run_sweep(cfg: RunConfig) -> int:
    run = _Run(cfg)
    model_sys = build_model(cfg)
    model, meta = two_stage_reduce(model_sys)
    models = balanced_rank_sweep(
        model, cfg.ranks or tuple(range(5, model.r + 1, 2)) or (model.r,))
    t1 = time.perf_counter()

    path = resolve_driver(cfg, model_sys.d)
    write_path_csv(path, run.path("driver_path.csv"))
    full = rough_rk_simulate(model_sys, path)

    rows = []
    for requested, lossy in models.items():
        res = rough_rk_simulate(lossy.system, path)
        err = relative_L2_error(full.outputs, res.outputs, full.times)
        rows.append((requested, lossy.r, float(err)))
    t2 = time.perf_counter()

    atomic_write_text(run.path("sweep_errors.csv"), csv_text(
        ["r", "rel_L2_error"],
        [(requested, err) for requested, _actual, err in rows]))

    run.finish(orders=list(meta.orders),
               table=[{"r": requested, "actual_r": actual, "rel_L2_error": err}
                      for requested, actual, err in rows])

    print(f"exact orders: {' -> '.join(str(r) for r in meta.orders)}")
    for requested, actual, err in rows:
        clamp = "" if requested == actual else f" (clamped to {actual})"
        print(f"  r = {requested:3d}{clamp}: rel L2 error = {err:.6e}")
    print(f"timings: reduction+sweep {t1 - run.t0:.2f} s, "
          f"simulations {t2 - t1:.2f} s")
    print(f"artifacts in {cfg.out}")
    return 0


def run_probes(cfg: RunConfig) -> int:
    run = _Run(cfg)
    checks = []

    mild = mild_stable_system(3, 1, seed=99)
    report = is_mean_square_stable(mild)
    checks.append(("mean_square_stability", report.upper, 1.0,
                   report.is_mean_square_stable))

    value = resolvent_positivity_probe(mild, trials=10_000, seed=7)
    checks.append(("resolvent_positivity", value, -1e-10, value >= -1e-10))

    dec = decoupled_observability_system()
    Q = solve_algebraic_gramian(dec, "obs")
    wq, Vq = scipy.linalg.eigh(Q.matrix)
    value = kernel_preservation_residual(dec, Q.matrix, Vq[:, 0])
    checks.append(("kernel_preservation", value, 1e-8, value <= 1e-8))

    scalar = scalar_noise_system()
    sine = smooth_path_from_function(lambda t: np.array([math.sin(t)]),
                                     0.5, 64)
    value = smooth_quadratic_form_probe(scalar, sine, 512)
    checks.append(("gronwall_quadratic_form", value, -1e-6, value >= -1e-6))

    ode = integrate_gramian_ode(mild, "reach", T=1.0, steps=1000)
    mc = monte_carlo_second_moment(mild, "reach", T=1.0, n_paths=100_000,
                                   dt=1e-3, seed=4242)
    dev = np.abs(mc.integral - ode.matrix) / np.where(
        mc.integral_se > 0, mc.integral_se, 1.0)
    frac = float((dev <= 3.0).mean())
    checks.append(("mc_gramian_cross_check", frac, 0.95, frac >= 0.95))
    t1 = time.perf_counter()

    atomic_write_text(run.path("probes_report.csv"), csv_text(
        ["name", "value", "bound", "status"],
        [(name, value, bound, "pass" if passed else "fail")
         for name, value, bound, passed in checks]))

    all_passed = all(passed for _, _, _, passed in checks)
    run.finish("ok" if all_passed else "probe_failure",
               checks=[{"name": name, "value": value, "bound": bound,
                        "passed": passed}
                       for name, value, bound, passed in checks])

    for name, value, bound, passed in checks:
        print(f"{'PASS' if passed else 'FAIL'}  {name}: value {value:.6e}, "
              f"bound {bound:.6e}")
    print(f"probe suite finished in {t1 - run.t0:.2f} s; artifacts in "
          f"{cfg.out}")
    return 0 if all_passed else 3


def run_simulate(cfg: RunConfig) -> int:
    run = _Run(cfg)
    model_sys = build_model(cfg)
    path = resolve_driver(cfg, model_sys.d)
    write_path_csv(path, run.path("driver_path.csv"))
    result = rough_rk_simulate(model_sys, path)
    t1 = time.perf_counter()
    write_trajectory_csv(result, run.path("output_full.csv"))
    if cfg.states:
        write_states_csv(result, run.path("states_full.csv"))
    run.finish(steps=path.M,
               solver={"min_pivot_ratio": result.min_pivot_ratio})
    print(f"simulated {path.M} steps in {t1 - run.t0:.2f} s; "
          f"artifacts in {cfg.out}")
    return 0


def run_gramian(cfg: RunConfig) -> int:
    run = _Run(cfg)
    model_sys = build_model(cfg)
    report = {}
    results = _solve_gramians(model_sys, ("reach", "obs"))
    for G, side, suffix, tol in zip(results, ("reach", "obs"), ("p", "q"),
                                    (DEFAULT_TOL_P, DEFAULT_TOL_Q)):
        # one eigendecomposition gives both the CSV and the rank, so the
        # file and numerical_rank agree at the cut
        try:
            basis = truncate_psd_spectrum(G.matrix, tol)
            spectrum, rank = basis.full_spectrum, basis.r
        except EmptyBasisError as exc:
            spectrum, rank = exc.spectrum, 0
        write_spectrum_csv(spectrum,
                           run.path(f"gramian_spectrum_{suffix}.csv"))
        report[side] = {"numerical_rank": rank,
                        **{key: getattr(G, key) for key in _GRAMIAN_KEYS}}
        print(f"{side + ':':6} residual {G.residual:.3e}, backward error "
              f"{G.backward_error:.3e} after {G.iterations} GMRES "
              f"iterations, numerical rank {rank} at tol {tol:g}")
    run.finish(**report)
    print(f"timings: solves and spectra {time.perf_counter() - run.t0:.2f} s; "
          f"artifacts in {cfg.out}")
    return 0


# the keys of every subcommand that drives a model along a path
_RUN_KEYS = ("model_file", "n", "horizon", "hurst", "seed", "step_exp", "out",
             "path_file")
# subcommand: (runner, help text, the config keys it reads)
_COMMANDS = {
    "reduce": (run_exact_reduction, "two-stage exact reduction with "
               "shared-path verification", _RUN_KEYS + ("states",)),
    "sweep": (run_sweep, "lossy rank sweep below the exact order",
              _RUN_KEYS + ("ranks",)),
    "probes": (run_probes, "run the verification probe suite", ("out",)),
    "simulate": (run_simulate, "integrate the full model along a driver path",
                 _RUN_KEYS + ("states",)),
    "gramian": (run_gramian, "solve both algebraic Gramians and dump spectra",
                ("model_file", "n", "out")),
}


class _Parser(argparse.ArgumentParser):
    # exit code 1 for bad usage (argparse defaults to 2, which this tool
    # reserves for numerical failures)
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="roughmor",
        description="Gramian-based dimension reduction of bilinear rough "
                    "differential equations")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)
    for command, (_run, text, keys) in _COMMANDS.items():
        # no abbreviated flags, so a removed flag such as --model cannot
        # resolve to --model-file
        cmd = sub.add_parser(command, help=text, allow_abbrev=False)
        cmd.add_argument("--config", help="flat key=value configuration file")
        for key in keys:
            cmd.add_argument("--" + key.replace("_", "-"), dest=key,
                             help=_KEYS[key].metadata["help"],
                             **_KEYS[key].metadata["flag"])
    return parser


def _mark_incomplete(cfg: Optional[RunConfig], exc: Exception) -> None:
    if cfg is None or not os.path.isdir(cfg.out):
        return
    # ConvergenceError carries residual and iterations, the step failures
    # carry the failing step; a non-finite residual stays out, since JSON
    # has no nan or inf
    details = {name: value for name in ("residual", "iterations", "step")
               if (value := getattr(exc, name, None)) is not None
               and math.isfinite(value)}
    try:
        _write_summary(cfg.out, {
            "status": "failed", "command": cfg.mode, "error": str(exc),
            "error_type": type(exc).__name__, **details})
    except OSError:
        pass


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    cfg = None
    try:
        cfg = resolve_config(args)
        return _COMMANDS[cfg.mode][0](cfg)
    except (ArgumentError, PreconditionError) as exc:
        _mark_incomplete(cfg, exc)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (RoughmorError, np.linalg.LinAlgError) as exc:
        _mark_incomplete(cfg, exc)
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
