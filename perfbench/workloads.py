"""The benchmark workloads.

Each workload has a one-time ``setup`` (a warm-up on a small instance of
its calls), ``inputs`` that derive one operation's inputs from the workload
seed and the operation index, the timed ``op``, a ``check`` that raises
``GateMiss`` when the operation's output misses its correctness gate, and
``make_reference``, which builds the reference kernel that the runner times
next to every operation.

Library calls go through module attributes
(``gramians.monte_carlo_second_moment``, not a name imported once) so that
the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg

from roughmor import _fixtures, cli, gramians

EXACT_ERROR_BOUND = 1e-10  # criterion 1
MC_PATHS, MC_T, MC_DT, ODE_STEPS = 10_000, 1.0, 2e-3, 1000
# Criterion 3 asks for 95 % of entries within 3 standard errors with 100 000
# paths. At 10 000 paths the 100 entries, which share their paths, shift
# together, so a correct estimate sometimes misses 3 standard errors (1 of
# 57 calls measured, NOTES.md). At 5 standard errors the gate still
# fails an oracle whose noise matrices are 10 % off: only 44 % of entries
# pass.
MC_Z_BOUND = 5.0


class GateMiss(Exception):
    """An operation finished but its output misses the correctness gate."""


def op_seeds(seed: int, index: int, count: int = 1):
    """Independent 32-bit seeds for operation ``index`` of a run."""
    words = np.random.SeedSequence([seed, index]).generate_state(count)
    return [int(w) for w in words]


@dataclass(frozen=True)
class Workload:
    name: str
    full_order: int
    setup: Callable
    inputs: Callable
    op: Callable
    check: Callable
    make_reference: Callable


def _quiet_cli(argv):
    # the CLI prints its tables; the benchmark's stdout carries only results
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _fresh_dir(path):
    # a failed run must not leave the previous operation's summary to check
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def _cli_summary(result, outdir):
    if result != 0:
        raise GateMiss(f"exit code {result}")
    with open(os.path.join(outdir, "summary.json")) as handle:
        return json.load(handle)


def _check_orders(summary, expected):
    if summary["orders"] != list(expected):
        raise GateMiss(f"orders {summary['orders']}, expected {list(expected)}")


# reduce-n200 -------------------------------------------------------------

def _cli_setup(out_root, command):
    def setup():
        warm = _fresh_dir(os.path.join(out_root, f"{command}-warmup"))
        result = _quiet_cli([command, "--n", "16", "--out", warm])
        _cli_summary(result, warm)
        return {"out": os.path.join(out_root, command)}
    return setup


def _cli_inputs(state, seed, index):
    return {"seed": op_seeds(seed, index)[0], "out": _fresh_dir(state["out"])}


def _reduce_op(state, inputs):
    return _quiet_cli(["reduce", "--n", "200", "--seed", str(inputs["seed"]),
                       "--out", inputs["out"]])


def _reduce_check(state, inputs, result):
    summary = _cli_summary(result, inputs["out"])
    _check_orders(summary, (200, 41, 39))
    err = summary["relative_l2_error"]
    if not err <= EXACT_ERROR_BOUND:
        raise GateMiss(f"relative L2 error {err:.3e} > {EXACT_ERROR_BOUND}")


# oracle-n10 --------------------------------------------------------------

def _oracle_setup():
    # warm-up on a small instance of the same calls
    inputs = {"system": _fixtures.mild_stable_system(10, 2, seed=0),
              "seed": 0, "paths": 200}
    _oracle_op(None, inputs)
    return None


def _oracle_inputs(state, seed, index):
    system_seed, mc_seed = op_seeds(seed, index, 2)
    return {"system": _fixtures.mild_stable_system(10, 2, seed=system_seed),
            "seed": mc_seed, "paths": MC_PATHS}


def _oracle_op(state, inputs):
    system = inputs["system"]
    mc = gramians.monte_carlo_second_moment(
        system, "reach", T=MC_T, n_paths=inputs["paths"], dt=MC_DT,
        seed=inputs["seed"])
    ode = gramians.integrate_gramian_ode(system, "reach", T=MC_T,
                                         steps=ODE_STEPS)
    dev = np.abs(mc.integral - ode.matrix) / np.where(
        mc.integral_se > 0, mc.integral_se, 1.0)
    return float((dev <= MC_Z_BOUND).mean())


def _oracle_check(state, inputs, frac):
    if not frac >= 0.95:  # the Monte-Carlo half of criterion 3
        raise GateMiss(f"only {frac:.1%} of entries within {MC_Z_BOUND} "
                       "standard errors")


# Reference kernels ---------------------------------------------------------
#
# Each does fixed numpy/scipy work of the same kind as one workload's
# operation and calls no roughmor code. On a shared host both slow down
# together in the host's slow phases, so the operation's time over the
# reference's (op_rel in run.py) stays put, while a change to roughmor moves
# only the operation. Kinds of work slow by different shares: the oracle's
# batched array work slows less than small dense solves do, and the dense
# kernel tracked oracle operations less well one by one (NOTES.md, Spread).

def _dense_reference():
    """Lyapunov and LU solves at n = 200 plus interpreter work, like reduce."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((200, 200)) / 20 - 2 * np.eye(200)
    q = rng.standard_normal((200, 200))
    q = q @ q.T
    b = rng.standard_normal(200)

    def run():
        for _ in range(3):
            scipy.linalg.solve_continuous_lyapunov(a, q)
        for _ in range(60):
            lu = scipy.linalg.lu_factor(a)
            for _ in range(5):
                scipy.linalg.lu_solve(lu, b)
        total = 0
        for i in range(100_000):
            total += i % 7
        return total
    return run


def _batch_reference():
    """Seeded Euler steps of a 10 000 x 10 batch with second-moment sums,
    like the Monte-Carlo oracle.

    Its arrays are allocated once and reused, so it leaves the allocator's
    heap as it found it: fresh 8 MB temporaries between operations made the
    oracle's peak_rss_mb jump between two levels 7 MB apart from run to run.
    """
    step = np.eye(10) - 0.01 * np.random.default_rng(0).standard_normal(
        (10, 10))
    x = np.empty((10_000, 10))
    drift = np.empty_like(x)
    noise = np.empty_like(x)
    outer = np.empty((10_000, 10, 10))

    def run():
        draws = np.random.default_rng(1)
        x.fill(1.0)
        moment = np.zeros((10, 10))
        for _ in range(25):
            np.matmul(x, step, out=drift)
            draws.standard_normal(out=noise)
            np.multiply(noise, 0.01, out=noise)
            np.add(drift, noise, out=x)
            moment += np.einsum("mi,mj->ij", x, x)
            np.multiply(x[:, :, None], x[:, None, :], out=outer)
            moment += outer.sum(axis=0)
        return moment
    return run


def workloads(out_root):
    """Workloads by name; CLI runs write their artifacts under out_root."""
    return {w.name: w for w in (
        Workload("reduce-n200", 200,
                 _cli_setup(out_root, "reduce"),
                 _cli_inputs, _reduce_op, _reduce_check, _dense_reference),
        Workload("oracle-n10", 10, _oracle_setup, _oracle_inputs,
                 _oracle_op, _oracle_check, _batch_reference),
    )}
