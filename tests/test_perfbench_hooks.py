"""The benchmark's tracer binds roughmor functions by name; a rename of any
of them must fail here, in the test suite, not only in a benchmark run."""

import importlib.util
import sys
from pathlib import Path

import roughmor.cli

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
