"""Self-test of the benchmark; run from the repository root:

    python3 perfbench/selftest.py

It checks that BENCHMARK.json names exactly the metrics the benchmark
prints, that two traced runs of each workload give identical work
counts, that every workload passes all its gates on a held-out seed, and
that the benchmark refuses to run, printing no result, where only
BENCHMARK.json and its own directory exist. Takes one to two minutes.
The file name keeps it out of pytest's collection, so the Tier-1 suite does
not run it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import DEFAULT_SEED, END_TO_END, OUT_ROOT, PER_LAYER  # noqa: E402

HELD_OUT_SEED = 7
TIMEOUT_S = 180

failures = []


def check(ok, message):
    print(("ok    " if ok else "FAIL  ") + message, flush=True)
    if not ok:
        failures.append(message)


def bench(workload, seed, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") \
        else None
    return proc, result


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    check({m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END,
          "BENCHMARK.json end_to_end matches the printed metrics")
    check({m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER,
          "BENCHMARK.json per_layer matches the printed metrics")

    for name in names:
        counts = []
        for _ in range(2):
            proc, result = bench(name, DEFAULT_SEED, 1)
            check(proc.returncode == 0 and result and result["correct"],
                  f"{name}: traced run passes (exit {proc.returncode})")
            if result:
                counts.append({k: v["value"] for k, v in
                               result["metrics"].items()
                               if v["unit"] == "count"})
        check(len(counts) == 2 and counts[0] == counts[1],
              f"{name}: two traced runs give identical counts {counts[:1]}")

        proc, result = bench(name, HELD_OUT_SEED, 0)
        check(proc.returncode == 0 and result is not None
              and result["failed"] == 0
              and result["metrics"]["ok_frac"]["value"] == 1.0,
              f"{name}: fail_frac 0 on held-out seed {HELD_OUT_SEED}")

    bare = OUT_ROOT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc, result = bench(names[0], DEFAULT_SEED, 0, cwd=bare)
    check(proc.returncode != 0 and not proc.stdout.strip(),
          f"without the sources: exit {proc.returncode}, no result printed")
    shutil.rmtree(bare)

    print(f"{len(failures)} failed" if failures else "all passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
