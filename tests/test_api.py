"""The package's public surface."""

import conebound
from conebound import engine, model
from conebound.elaborate import elaborate
from conebound.parser import parse_scene


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

    def counted(elab):
        calls.append(elab)
        return real(elab)

    real = engine.instantiate
    monkeypatch.setattr(engine, "instantiate", counted)
    # f becomes an equivalence only during saturation (P7-EQ)
    elab = elaborate(parse_scene(
        "collection C { }\nspace X, Y\nmap f : X -> Y\nbound Lcat(f) = 0\n"))
    result = engine.saturate(elab)
    assert result.status == "fixpoint"
    assert result.store.hi(model.key_L("f")) == 0
    assert len(calls) == 1
