"""Bound store behavior: monotone meets, provenance, replay."""

import pytest
from helpers import key_cl, key_kl, key_L, key_Lcat

from conebound.extnat import INF, Interval
from conebound.model import (
    BoundStore,
    Justification,
    Kind,
    Premise,
    Side,
    StoreConflict,
    recompute,
    replay,
)


def asserted(key, side, value):
    return Justification("asserted", key, side, value, "asserted")


def test_alias_surfaces():
    assert key_cl("X").surface() == "cl(X)"
    assert key_kl("X").surface() == "kl(X)"
    assert key_L("f").surface() == "L(f)"
    assert key_cl("X").map_id == "init(X)"


def test_default_intervals():
    store = BoundStore()
    assert store.interval(key_L("f")) == Interval(0, INF)
    # the point's canonical maps are exact by definition
    assert store.interval(key_cl("*")) == Interval(0, 0)
    assert store.interval(key_kl("*")) == Interval(0, 0)


def test_apply_tightens_and_logs():
    store = BoundStore()
    key = key_L("f")
    assert store.apply(asserted(key, Side.HI, 4)) is True
    assert store.apply(asserted(key, Side.HI, 4)) is False  # no-op
    assert store.apply(asserted(key, Side.HI, 6)) is False  # widening dropped
    assert store.apply(asserted(key, Side.LO, 2)) is True
    assert store.interval(key) == Interval(2, 4)
    assert len(store.log) == 2
    assert store.justification_of(key, Side.HI).value == 4


def test_apply_detects_crossing():
    store = BoundStore()
    key = key_L("f")
    store.apply(asserted(key, Side.LO, 5))
    conflict = store.apply(asserted(key, Side.HI, 3))
    assert isinstance(conflict, StoreConflict)
    assert conflict.current == Interval(5, INF)
    assert conflict.attempted.value == 3
    # store unchanged by the failed meet
    assert store.interval(key) == Interval(5, INF)


def test_monotone_history():
    store = BoundStore()
    key = key_L("f")
    store.apply(asserted(key, Side.HI, 9))
    store.apply(asserted(key, Side.LO, 1))
    store.apply(asserted(key, Side.HI, 5))
    store.apply(asserted(key, Side.LO, 3))
    los = [j.value for j in store.log if j.side is Side.LO]
    his = [j.value for j in store.log if j.side is Side.HI]
    assert los == sorted(los)
    assert his == sorted(his, reverse=True)


def test_replay_reconstructs_store():
    store = BoundStore()
    store.apply(asserted(key_L("f"), Side.HI, 7))
    store.apply(asserted(key_L("g"), Side.LO, 2))
    store.apply(asserted(key_L("f"), Side.HI, 3))
    rebuilt = replay(store.log)
    assert rebuilt.serialize() == store.serialize()


def test_recompute_kinds():
    k = key_L("f")
    assert recompute("const", 1, []) == 1
    assert recompute("sum", 1, [
        Premise(k, Side.HI, 2, "add"), Premise(k, Side.HI, 3, "max"),
        Premise(k, Side.HI, 5, "max"),
    ]) == 8
    assert recompute("monus", 0, [
        Premise(k, Side.LO, 7, "base"), Premise(k, Side.HI, 2, "add"),
    ]) == 5
    assert recompute("prod1", 0, [
        Premise(k, Side.HI, 1, "left"), Premise(k, Side.HI, 1, "right"),
    ]) == 3
    assert recompute("prod0", 0, [
        Premise(k, Side.HI, 2, "left"), Premise(k, Side.HI, 1, "right"),
    ]) == 4
    assert recompute("ceil1", 0, [
        Premise(k, Side.LO, 3, "base"), Premise(k, Side.HI, 1, "div"),
    ]) == 1
    assert recompute("copy", 0, [Premise(k, Side.HI, 9, "copy")]) == 9
    assert recompute("maxlo", 0, [
        Premise(k, Side.LO, 4, "lo"), Premise(k, Side.LO, 6, "lo"),
    ]) == 6
    assert recompute("inf", 0, []) == INF
    with pytest.raises(ValueError):
        recompute("nonsense", 0, [])


def test_serialize_is_stable():
    a = BoundStore()
    b = BoundStore()
    a.apply(asserted(key_L("f"), Side.HI, 3))
    a.apply(asserted(key_L("g"), Side.LO, 1))
    b.apply(asserted(key_L("g"), Side.LO, 1))
    b.apply(asserted(key_L("f"), Side.HI, 3))
    assert a.serialize() == b.serialize()


def test_interned_key_stays_default_and_is_not_serialized():
    from conebound.elaborate import elaborate
    from conebound.parser import parse_scene
    from conebound.rules import check_instance, instantiate

    store = BoundStore()
    store.apply(asserted(key_L("g"), Side.HI, 3))
    # re-checking gives every key the instance reads a slot, without a bound:
    # REL-CL over f and over init(*), whose L is cl(*)
    elab = elaborate(parse_scene("collection C { }\nspace X\nmap f : X -> X\n"))
    for inst in instantiate(elab):
        if inst[0] == "REL-CL" and inst[3:] in {(key_Lcat(m), key_L(m)) for m in ("f", "init(*)")}:
            assert check_instance(inst, store, elab) == []
    assert len(store.keys) == 5
    assert set(store.keys[1:]) == {key_Lcat("f"), key_L("f"), key_Lcat("init(*)"), key_cl("*")}
    assert store.interval(key_L("f")) == Interval(0, INF)
    assert store.interval(key_cl("*")) == Interval(0, 0)
    assert store.justification_of(key_L("f"), Side.HI) is None
    assert store.serialize() == '{"L(g)":[0,3]}'
    assert len(store.log) == 1
