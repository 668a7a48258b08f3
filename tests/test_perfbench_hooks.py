"""The benchmark's tracer binds roughmor functions by name; a rename of any
of them must fail here, in the test suite, not only in a benchmark run."""

import importlib.util
import sys
from pathlib import Path

import roughmor.cli
import roughmor.gramians
from roughmor._fixtures import mild_stable_system

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve the module's annotations through sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_tracer_hooks_resolve():
    original = roughmor.cli.main
    tracer = load_tracer().Tracer()
    try:
        tracer.install()
        assert roughmor.cli.main is not original
    finally:
        tracer.uninstall()
    assert roughmor.cli.main is original


def test_traced_run_binds_every_extractor(tmp_path):
    # the hooks' attribute extractors read parameter names and record
    # fields; a rename there passes the test above and fails only here,
    # when each traced layer runs once
    tracer = load_tracer().Tracer()
    try:
        tracer.install()
        assert roughmor.cli.main(["reduce", "--n", "16", "--step-exp", "6",
                                  "--out", str(tmp_path / "run")]) == 0
        sys_ = mild_stable_system(2, 1, seed=0)
        roughmor.gramians.monte_carlo_second_moment(
            sys_, "reach", T=0.1, n_paths=4, dt=0.05, seed=0)
        roughmor.gramians.integrate_gramian_ode(sys_, "reach", T=0.1,
                                                steps=2)
    finally:
        tracer.uninstall()
    attrs = {}
    for span in tracer.spans:
        attrs.setdefault(span.name, []).append(span.attrs)
    assert attrs["heat.build"] == [{"n": 16}]
    # horizon 0.5 at step 2^-6; heat n = 16 reduces to order 16, so the
    # full and the reduced run have the same attributes
    assert attrs["solver.sim"] == [{"n": 16, "steps": 32}] * 2
    assert attrs["gramians.solve"] and all(
        a["sweeps"] > 0 for a in attrs["gramians.solve"])
    assert attrs["gramians.mc"] == [{"path_steps": 4 * 2}]
    assert "gramians.ode" in attrs
    assert any(a.get("bytes", 0) > 0 for a in attrs["cli.write"])
    assert tracer.counts["gramians.lyap_solves"] > 0
