"""The package's public surface."""

import copy
import subprocess
import sys
from pathlib import Path

import pytest
from helpers import key_L

import conebound
from conebound import engine, model
from conebound.elaborate import elaborate
from conebound.extnat import Interval
from conebound.parser import parse_scene
from conebound.scene import CollectionProfile, Fact


def test_every_export_resolves():
    missing = [name for name in conebound.__all__ if not hasattr(conebound, name)]
    assert missing == []


def test_benchmark_hooks_exist():
    # perfbench --trace patches these names; without them its layers read null
    assert callable(engine.fire)
    assert callable(engine.instantiate)
    assert callable(model.BoundStore.apply)


def test_saturate_instantiates_once(monkeypatch):
    calls = []

    def counted(elab, *args):
        calls.append(elab)
        return real(elab, *args)

    real = engine.instantiate
    monkeypatch.setattr(engine, "instantiate", counted)
    # f becomes an equivalence only during saturation (P7-EQ)
    elab = elaborate(parse_scene(
        "collection C { }\nspace X, Y\nmap f : X -> Y\nbound Lcat(f) = 0\n"))
    result = engine.saturate(elab)
    assert result.status == "fixpoint"
    assert result.store.interval(key_L("f")).hi == 0
    assert len(calls) == 1


# -- records whose __new__ checks its fields ---------------------------------------

# Each way to build a record from fields: the constructor, ``_make``, and
# ``_replace`` on a valid record (``copy.replace`` as well from Python 3.13).
BUILDS = {
    "constructor": lambda record, fields, change: record(**{**fields, **change}),
    "_make": lambda record, fields, change: record._make({**fields, **change}.values()),
    "_replace": lambda record, fields, change: record(**fields)._replace(**change),
}
if hasattr(copy, "replace"):
    BUILDS["copy.replace"] = lambda record, fields, change: copy.replace(record(**fields), **change)

MEMBER_X = {"kind": "member", "args": ("X",)}


@pytest.mark.parametrize("build", BUILDS)
@pytest.mark.parametrize("record, fields, change", [
    (Interval, {"lo": 0, "hi": 1}, {"lo": 5}),
    (Fact, MEMBER_X, {"kind": "no_such_kind"}),
    (Fact, MEMBER_X, {"args": ("X", "Y")}),
], ids=["interval-lo-above-hi", "fact-unknown-kind", "fact-wrong-arity"])
def test_checked_records_reject_bad_fields_on_every_path(build, record, fields, change):
    with pytest.raises(ValueError):
        BUILDS[build](record, fields, change)


@pytest.mark.parametrize("build", BUILDS)
def test_all_spaces_forces_every_flag_on_every_path(build):
    fields = dict(zip(CollectionProfile._fields, ("C", False, False, False, False, False)))
    profile = BUILDS[build](CollectionProfile, fields, {"all_spaces": True})
    assert profile == ("C", True, True, True, True, True)
    assert profile.flags() == {"all_spaces", "wedges", "suspensions", "joins", "smash_ideal"}


def _modules_loaded_by_catalog() -> set[str]:
    """The modules that ``import conebound`` plus ``catalog()`` load in a
    fresh interpreter."""
    code = ("import sys\nbefore = set(sys.modules)\nsys.path.insert(0, sys.argv[1])\n"
            "import conebound\nconebound.catalog()\nprint(*sorted(set(sys.modules) - before))")
    proc = subprocess.run(
        # -S: no site hooks, so nothing but the import can load a module
        [sys.executable, "-S", "-c", code, str(Path(conebound.__file__).parents[1])],
        capture_output=True, text=True, timeout=60, check=True)
    return set(proc.stdout.split())


def test_import_loads_neither_dataclasses_nor_inspect():
    # structural, not timed: the two modules that made the cold start slow,
    # two that nothing in the package uses at run time, and the kernel
    # generator and the command line, which a cold start never runs
    added = _modules_loaded_by_catalog()
    assert "conebound.rules" in added
    assert added.isdisjoint({"dataclasses", "inspect", "threading", "random",
                             "conebound.kernels", "conebound.cli"})


def test_catalog_loads_no_kernel_generator():
    # match and fire kernels are generated on first use: a start that only
    # builds the catalog compiles neither them nor the module that makes them
    assert "conebound.kernels" not in _modules_loaded_by_catalog()
