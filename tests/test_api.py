"""The public surface imports: every exported name resolves, and the demos
load against it."""

import importlib.util
import pathlib

import pytest

import roughmor

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
