"""The public surface imports: every exported name resolves, and the demos
load against it."""

import importlib.util
import pathlib

import numpy as np
import pytest

import roughmor
from roughmor._fixtures import mild_stable_system

DEMOS = sorted((pathlib.Path(__file__).parent.parent / "demos").glob("*.py"))


def test_every_exported_name_resolves():
    missing = [name for name in roughmor.__all__
               if not hasattr(roughmor, name)]
    assert missing == []


def test_demos_found():
    assert [demo.name for demo in DEMOS] == ["fbm_driver.py",
                                             "gramian_cross_check.py"]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda demo: demo.stem)
def test_demo_imports(demo):
    # loading runs the module's imports and definitions but not main()
    spec = importlib.util.spec_from_file_location(f"demo_{demo.stem}", demo)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)


def test_array_records_compare_by_identity():
    # records that hold arrays compare and hash by identity: two records of
    # equal content are unequal, with no ambiguous array truth value, and
    # both fit in a set
    sys_ = mild_stable_system(3, 1, seed=1)
    path = roughmor.sample_fbm_path(0.4, 1, 0.5, 16, seed=2)
    sim = roughmor.rough_rk_simulate(sys_, path)
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
        lambda: roughmor.pointwise_relative_error(sim.outputs, sim.outputs,
                                                  sim.times),
    ]
    for build in builders:
        first, second = build(), build()
        assert first != second
        assert len({first, second}) == 2
