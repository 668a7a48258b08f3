"""The public surface imports: every exported name resolves, every public
name is exported, and the demos load and run against it."""

import importlib.util
import os
import pathlib
import subprocess
import sys
import types

import numpy as np
import pytest

import roughmor
from roughmor._fixtures import mild_stable_system

DEMOS = sorted((pathlib.Path(__file__).parent.parent / "demos").glob("*.py"))


def test_every_exported_name_resolves():
    missing = [name for name in roughmor.__all__
               if not hasattr(roughmor, name)]
    assert missing == []


def test_every_public_name_is_exported():
    # the reverse direction: no public name skips __all__ (submodules aside)
    unlisted = [name for name, value in vars(roughmor).items()
                if not name.startswith("_")
                and not isinstance(value, types.ModuleType)
                and name not in roughmor.__all__]
    assert unlisted == []


def test_import_leaves_scipy_optimize_out():
    # scipy.optimize adds about a quarter second to a fresh import, which
    # every CLI run pays: the package's root solves are written by hand
    src = os.path.dirname(os.path.dirname(roughmor.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, roughmor, roughmor.cli; "
         "print(sorted(m for m in sys.modules if m.startswith("
         "'scipy.optimize')))"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_demos_found():
    assert [demo.name for demo in DEMOS] == ["fbm_driver.py",
                                             "gramian_cross_check.py"]


def load_demo(demo):
    # loading runs the module's imports and definitions but not main()
    spec = importlib.util.spec_from_file_location(f"demo_{demo.stem}", demo)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("demo", DEMOS, ids=lambda demo: demo.stem)
def test_demo_imports(demo):
    assert callable(load_demo(demo).main)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda demo: demo.stem)
def test_demo_runs(demo, capsys):
    # main() end to end, so a removed field or function fails here
    load_demo(demo).main()
    assert capsys.readouterr().out.strip()


def test_array_records_compare_by_identity():
    # records that hold arrays compare and hash by identity: two records of
    # equal content are unequal, with no ambiguous array truth value, and
    # both fit in a set
    sys_ = mild_stable_system(3, 1, seed=1)
    path = roughmor.sample_fbm_path(0.4, 1, 0.5, 16, seed=2)
    builders = [
        lambda: mild_stable_system(3, 1, seed=1),
        lambda: roughmor.sample_fbm_path(0.4, 1, 0.5, 16, seed=2),
        lambda: roughmor.solve_algebraic_gramian(sys_, "reach"),
        lambda: roughmor.monte_carlo_second_moment(
            sys_, "reach", T=0.5, n_paths=4, dt=0.25, seed=0),
        lambda: roughmor.truncate_psd_spectrum(np.eye(2), 1e-12),
        lambda: roughmor.two_stage_reduce(sys_)[0],
        lambda: roughmor.two_stage_reduce(sys_)[1],
        lambda: roughmor.rough_rk_simulate(sys_, path),
    ]
    for build in builders:
        first, second = build(), build()
        assert first != second
        assert len({first, second}) == 2
