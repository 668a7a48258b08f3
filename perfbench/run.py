"""Run one roughmor benchmark workload and print its metrics.

    python3 perfbench/run.py --workload reduce-n200 --seed 2023 \
        --seconds 50 --trace 0

Run from the repository root; the library is imported from ``src/``. One
process runs one workload as a closed loop with one client: the next
operation starts once the previous one has finished and been checked. BLAS
threads are pinned (``BLAS_THREADS``) before numpy loads. The workload's
reference kernel is timed before the first operation and after each one.

With ``--trace 0`` the last stdout line is a JSON object whose metrics are
the end-to-end ones; with ``--trace 1`` they are the per-layer ones. A traced
run alternates traced and untraced operations, so the tracing overhead is
measured in the same process. Human-readable lines (environment, quartiles,
layer shares) come before it. Exit codes: 0 a result was printed (failed
operations are counted in it), 1 set-up failed, 2 bad usage or no sources to
benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_ROOT = ROOT / ".perfbench-out"
DEFAULT_SEED = 2023
SETUP_REPEATS = 5
# One BLAS thread: OpenBLAS threads spin while they wait for each other, so
# with two threads on two CPUs any other load on the host stalls every call.
# One such run took over 150 s instead of 16 s.
BLAS_THREADS = 1

# op_rel is the run's total operation time over the total time of the
# reference kernel runs around the operations (each operation counts the mean
# of the runs just before and after it). The raw op_s and ops_per_s are
# printed but are not metrics: on a shared host they follow slow phases that
# last tens of seconds, and ten runs of the same code spread by more than any
# usable bound (NOTES.md, Spread).
END_TO_END = {
    "op_rel": "ratio", "setup_s": "s", "ok_frac": "fraction",
    "peak_rss_mb": "MB",
}
# name -> unit; "count" metrics come from the first traced operation, whose
# inputs the seed fixes, so they repeat exactly; the rest are medians over
# the traced operations
PER_LAYER = {
    "gramians.solve_s": "s", "gramians.solve_calls": "count",
    "gramians.sweeps": "count", "gramians.lyap_solves": "count",
    "system.gate_s": "s", "system.gate_calls": "count",
    "reduction.truncate_s": "s", "reduction.project_s": "s",
    "reduction.two_stage_self_s": "s",
    "solver.sim_s": "s", "solver.sim_calls": "count", "solver.steps": "count",
    "solver.lu_s": "s", "solver.lu_factorizations": "count",
    "solver.full_step_us": "us", "solver.reduced_step_us": "us",
    "drivers.fbm_s": "s",
    "gramians.mc_s": "s", "gramians.mc_path_steps_per_s": "1/s",
    "gramians.ode_s": "s",
    "heat.build_s": "s",
    "cli.write_s": "s", "cli.bytes_written": "count", "cli.self_s": "s",
    "trace.coverage": "fraction", "trace.overhead": "ratio",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def environment():
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": len(os.sched_getaffinity(0)),
            "blas_threads": BLAS_THREADS,
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def op_layers(tracer_mod, spans, counts, full_order):
    """Per-layer numbers of one traced operation; spans[0] is the operation."""
    op = spans[0].duration
    self_t = tracer_mod.self_times(spans)

    def total(name):
        return tracer_mod.outermost_time(spans, name)

    def named(name):
        return [s for s in spans if s.name == name]

    def step_us(keep):
        sims = [s for s in named("solver.sim") if keep(s.attrs["n"])]
        steps = sum(s.attrs["steps"] for s in sims)
        return 1e6 * sum(s.duration for s in sims) / steps if steps else 0.0

    mc_s = total("gramians.mc")
    path_steps = sum(s.attrs["path_steps"] for s in named("gramians.mc"))
    return {
        "gramians.solve_s": self_t["gramians.solve"],
        "gramians.solve_calls": len(named("gramians.solve")),
        "gramians.sweeps": sum(s.attrs["sweeps"]
                               for s in named("gramians.solve")),
        "gramians.lyap_solves": counts["gramians.lyap_solves"],
        "system.gate_s": total("system.gate"),
        "system.gate_calls": len(named("system.gate")),
        "reduction.truncate_s": total("reduction.truncate"),
        "reduction.project_s": total("reduction.project"),
        "reduction.two_stage_self_s": self_t["reduction.two_stage"],
        "solver.sim_s": total("solver.sim"),
        "solver.sim_calls": len(named("solver.sim")),
        "solver.steps": sum(s.attrs["steps"] for s in named("solver.sim")),
        "solver.lu_s": total("solver.lu"),
        "solver.lu_factorizations": len(named("solver.lu")),
        "solver.full_step_us": step_us(lambda n: n == full_order),
        "solver.reduced_step_us": step_us(lambda n: n < full_order),
        "drivers.fbm_s": total("drivers.fbm"),
        "gramians.mc_s": mc_s,
        "gramians.mc_path_steps_per_s": path_steps / mc_s if mc_s else 0.0,
        "gramians.ode_s": total("gramians.ode"),
        "cli.write_s": total("cli.write"),
        "cli.bytes_written": counts["cli.bytes_written"] + sum(
            s.attrs.get("bytes", 0) for s in named("cli.write")),
        "cli.self_s": self_t["cli.main"],
        "trace.coverage": 1.0 - self_t["op"] / op,
        "_layer_self": {layer: t / op for layer, t in _by_layer(self_t)},
    }


def _by_layer(self_t):
    layers = Counter()
    for name, t in self_t.items():
        if name != "op":
            layers[name.split(".")[0]] += t
    return layers.most_common()


def timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def run_ops(workload, state, seed, seconds, tracer, tracer_mod, builds):
    """Closed loop until ``seconds`` have passed; returns per-op records.

    Heat model builds seen in traced operations are appended to ``builds``.
    """
    records = []
    reference = workload.make_reference()
    reference()  # warm-up
    ref_before = timed(reference)
    start = time.perf_counter()
    deadline = start + seconds
    index = 0
    while True:
        traced = tracer is not None and index % 2 == 0
        inputs = workload.inputs(state, seed, index)
        ok = True
        if traced:
            tracer.install()
        t0 = time.perf_counter()
        try:
            if traced:
                result = tracer.span("op", workload.op, state, inputs)
            else:
                result = workload.op(state, inputs)
        except Exception:
            ok = False
            print(f"operation {index} raised:", file=sys.stderr)
            traceback.print_exc()
        finally:
            elapsed = time.perf_counter() - t0
            if traced:
                tracer.uninstall()
        ref_after = timed(reference)
        if ok:
            try:
                workload.check(state, inputs, result)
            except Exception as exc:
                ok = False
                print(f"operation {index} missed its gate: {exc}",
                      file=sys.stderr)
        layers = None
        if traced:
            layers = op_layers(tracer_mod, tracer.spans, tracer.counts,
                               workload.full_order)
            builds.extend(s for s in tracer.spans if s.name == "heat.build")
            tracer.reset()
        records.append({"seconds": elapsed, "ok": ok, "traced": traced,
                        "ref_seconds": (ref_before + ref_after) / 2,
                        "layers": layers})
        ref_before = ref_after
        index += 1
        # a traced run ends on a whole (traced, untraced) pair
        if time.perf_counter() >= deadline and (tracer is None
                                                or index % 2 == 0):
            break
    return records, time.perf_counter() - start


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def main(argv=None):
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "roughmor" / "__init__.py").is_file():
        print(f"error: no roughmor sources under {src}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(src))

    t0 = time.perf_counter()
    import tracer as tracer_mod
    import workloads as workloads_mod
    import_s = time.perf_counter() - t0

    table = workloads_mod.workloads(str(OUT_ROOT))
    if args.workload not in table:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(table)}", file=sys.stderr)
        return 2
    workload = table[args.workload]
    tracer = tracer_mod.Tracer() if args.trace else None

    setup_times, builds = [], []
    try:
        for _ in range(SETUP_REPEATS):
            if tracer:
                tracer.install()
            t = time.perf_counter()
            try:
                state = workload.setup()
            finally:
                setup_times.append(time.perf_counter() - t)
                if tracer:
                    tracer.uninstall()
    except Exception:
        print("set-up failed:", file=sys.stderr)
        traceback.print_exc()
        return 1
    if tracer:
        builds = [s for s in tracer.spans if s.name == "heat.build"]
        tracer.reset()

    records, window = run_ops(workload, state, args.seed, args.seconds,
                              tracer, tracer_mod, builds)
    attempted = len(records)
    failed = sum(not r["ok"] for r in records)
    times = [r["seconds"] for r in records]
    q1, med, q3 = quartiles(times)

    print(f"workload {workload.name}, seed {args.seed}, {args.seconds:g} s, "
          f"trace {args.trace}")
    print("env " + json.dumps(environment(), sort_keys=True))
    ref_times = [r["ref_seconds"] for r in records]
    op_rel = sum(times) / sum(ref_times)
    print(f"op_s median {med:.4f} (q1 {q1:.4f}, q3 {q3:.4f}, "
          f"{attempted} ops, {failed} failed, fail_frac "
          f"{failed / attempted:g}, ops_per_s {attempted / window:.4f})")
    print(f"op_rel {op_rel:.4f}; reference kernel median "
          f"{statistics.median(ref_times):.4f} s")
    print(f"set-up {', '.join(f'{t:.3f}' for t in setup_times)} s after "
          f"{import_s:.3f} s of imports")

    if args.trace:
        traced = [r["layers"] for r in records if r["traced"]]
        untraced = [r["seconds"] for r in records if not r["traced"]]
        metrics = {}
        for name, unit in PER_LAYER.items():
            if unit == "count":
                metrics[name] = traced[0][name]
            elif name in traced[0]:
                metrics[name] = statistics.median(t[name] for t in traced)
        # one build at the workload's order, in set-up or in an operation
        build_times = [s.duration for s in builds
                       if s.attrs["n"] == workload.full_order]
        metrics["heat.build_s"] = (statistics.median(build_times)
                                   if build_times else 0.0)
        metrics["trace.overhead"] = (
            statistics.median(r["seconds"] for r in records if r["traced"])
            / statistics.median(untraced))
        shares = Counter()
        for t in traced:
            shares.update(t["_layer_self"])
        print("layer self-time shares: " + ", ".join(
            f"{layer} {share / len(traced):.3f}"
            for layer, share in shares.most_common()))
        units = PER_LAYER
    else:
        metrics = {
            "op_rel": op_rel,
            "setup_s": import_s + statistics.median(setup_times),
            "ok_frac": (attempted - failed) / attempted,
            # ru_maxrss is in KiB on Linux
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
