"""Catalog integrity, guards, instantiation shapes, and firing semantics."""

import hashlib
import re
import sys
import threading
import typing
from pathlib import Path

import pytest
from helpers import PROBE_SCENE, random_scene
from hypothesis import given, settings
from hypothesis import strategies as st

from conebound import rules
from conebound.elaborate import elaborate
from conebound.engine import explain, query, saturate
from conebound.extnat import INF
from conebound.model import (
    BoundStore,
    InvariantKey,
    Justification,
    Side,
    StoreConflict,
    key_L,
    key_Lcat,
    key_kl,
)
from conebound.parser import parse_scene
from conebound.rules import (
    Conclusion,
    CondLower,
    LowerInf,
    LowerMax,
    LowerMonus,
    Unify,
    UpperProd,
    UpperSum,
    catalog,
    check_instance,
    compile_view,
    decode,
    fire,
    instantiate,
    reads,
    render_rules_markdown,
)

RULE_ID_RE = re.compile(r"^[A-Z][A-Z0-9]*(-[A-Z0-9]+)*$")


def saturated(text, **kwargs):
    scene = parse_scene(text)
    return saturate(elaborate(scene), **kwargs)


def interval_of(result, key):
    return result.store.interval(key)


# -- catalog integrity -----------------------------------------------------------


def test_catalog_has_at_least_38_rules():
    ids = [r.id for r in catalog()]
    assert len(ids) == len(set(ids))
    assert len(ids) >= 38


def test_rule_ids_are_stable_public_strings():
    for rule in catalog():
        assert RULE_ID_RE.match(rule.id), rule.id


def test_every_rule_documents_its_law():
    for rule in catalog():
        assert rule.law.strip(), rule.id
        # the law names at least one invariant so traces are self-describing
        assert re.search(r"\b(L|Lcat|cl|cat|kl|kit)\b", rule.law), rule.id


def test_guards_match_declared_table():
    guards = {r.id: set(r.guard) for r in catalog()}
    assert guards["AX-MC"] == set()
    assert guards["C34-NC"] == set()
    assert guards["REL-ALL"] == {"all_spaces"}
    assert guards["T32"] == {"wedges", "suspensions"}
    assert guards["T32-W"] == {"wedges"}
    assert guards["T32-S"] == {"suspensions"}
    assert guards["C41-4"] == {"wedges"}
    assert guards["C42"] == {"wedges", "suspensions"}
    assert guards["C46"] == {"suspensions"}
    for rid in ("C410-1", "C410-2", "C410-3", "C410-4", "C410-5", "C411", "C34"):
        assert guards[rid] == {"suspensions"}, rid
    for rid in ("T51", "C52", "T62", "C63"):
        assert guards[rid] == {"wedges", "joins"}, rid
    assert guards["L61"] == {"joins"}
    assert guards["P54"] == {"smash_ideal", "wedges", "suspensions"}
    assert guards["P54-SM"] == {"smash_ideal"}
    for rid in ("P72-A", "P72-B", "C73"):
        assert guards[rid] == {"wedges"}, rid


def test_rules_markdown_in_sync():
    expected = render_rules_markdown()
    path = Path(__file__).resolve().parent.parent / "RULES.md"
    assert path.read_text(encoding="utf-8") == expected


def test_rules_markdown_rows_have_three_cells(monkeypatch):
    # a law's "|" would split its row: GitHub then drops the cells past three
    path = Path(__file__).resolve().parent.parent / "RULES.md"
    tables = [path.read_text(encoding="utf-8")]
    monkeypatch.setattr(rules, "_CATALOG", [catalog()[0]._replace(law="L(f) >= |kl(B) - kl(A)|")])
    tables.append(render_rules_markdown())
    for table in tables:
        for row in (line for line in table.splitlines() if line.startswith("|")):
            assert len(re.split(r"(?<!\\)\|", row)[1:-1]) == 3, row


# -- guard exhaustiveness (spot check; the full sweep runs in acceptance) ---------


def test_probe_scene_activates_every_rule_under_full_profile():
    scene = parse_scene(PROBE_SCENE)
    elab = elaborate(scene)
    fired = {inst.rule_id for inst in instantiate(elab)}
    assert fired == {r.id for r in catalog()}


def test_guard_filtering_wedges_only():
    scene = parse_scene(PROBE_SCENE)
    profile = scene.profile._replace(
        name="WOnly", all_spaces=False, wedges=True, suspensions=False, joins=False,
        smash_ideal=False)
    elab = elaborate(scene._replace(profile=profile))
    fired = {inst.rule_id for inst in instantiate(elab)}
    expected = {r.id for r in catalog() if r.guard <= profile.flags()}
    assert fired == expected
    assert "T51" not in fired
    assert "T32" not in fired
    assert "T32-W" in fired
    assert "AX-MC" in fired


# -- instantiation shapes ----------------------------------------------------------


def test_cofiber_with_member_instantiates_mc_and_c44():
    elab = elaborate(parse_scene(
        "collection C { }\n"
        "space A, B, Q\n"
        "map f : A -> B\n"
        "map j : B -> Q\n"
        "fact cofiber(f, j, Q)\n"
        "fact member(A)\n"
    ))
    by_rule = {}
    for inst in instantiate(elab):
        by_rule.setdefault(inst.rule_id, []).append(inst)
    assert len(by_rule["AX-MC"]) == 1
    for rid in ("C44-1", "C44-2", "C44-3", "C44-4"):
        assert len(by_rule[rid]) == 1, rid


def test_pushout_yields_two_c411_instances():
    elab = elaborate(parse_scene(
        "collection C { }\n"
        "space A, B, C2, D\n"
        "map f : A -> B\nmap g : A -> C2\n"
        "map ib : B -> D\nmap ic : C2 -> D\nmap dg : A -> D\n"
        "fact pushout(A, f, g, ib, ic, dg)\n"
    ))
    legs = [inst for inst in instantiate(elab) if inst.rule_id == "C41-1"]
    assert len(legs) == 2


def test_bare_scene_has_only_structural_instances():
    elab = elaborate(parse_scene("collection C { }\nspace X, Y\nmap f : X -> Y\n"))
    ids = {inst.rule_id for inst in instantiate(elab)}
    # auto-compose triangles, the L/Lcat relation, equivalence detection,
    # membership of the point, and the equiv facts on the point's maps
    assert ids == {"AX-COMP", "REL-CL", "P7-EQ", "REL-MEM", "AX-NORM"}


def test_bare_scene_structural_instances_under_guards():
    base = "space X, Y\nmap f : X -> Y\n"
    susp = elaborate(parse_scene("collection C { suspensions }\n" + base))
    ids = {inst.rule_id for inst in instantiate(susp)}
    assert ids == {"AX-COMP", "REL-CL", "P7-EQ", "REL-MEM", "AX-NORM",
                   "C410-1", "C410-2", "C410-3", "C411"}
    everything = elaborate(parse_scene("collection C { all }\n" + base))
    ids_all = {inst.rule_id for inst in instantiate(everything)}
    assert "REL-ALL" in ids_all


# -- deduplication and compiled steps ------------------------------------------------


def test_dedup_never_merges_instances_of_different_shapes():
    # conclusions are named tuples, and named-tuple equality ignores the
    # class: the engine's dedup must still keep every distinct shape
    instances = instantiate(elaborate(parse_scene(PROBE_SCENE)))
    shaped = {(inst.rule_id, inst.facts, tuple((type(c), *c) for c in inst.conclusions))
              for inst in instances}
    assert len(dict.fromkeys(instances)) == len(shaped)


def test_compiled_steps_follow_conclusion_fields():
    # every rule instantiates on the probe scene, so this covers the compile
    # of rules that random scenes never reach
    store = BoundStore()
    for inst in dict.fromkeys(instantiate(elaborate(parse_scene(PROBE_SCENE)))):
        rule_id, facts, steps = compile_view(inst, store)
        assert (rule_id, facts) == (inst.rule_id, inst.facts)
        assert len(steps) == len(inst.conclusions)
        read = []
        for step, conclusion in zip(steps, inst.conclusions):
            assert step[0] is type(conclusion)
            assert len(step) == 1 + len(conclusion)
            hints = typing.get_type_hints(type(conclusion))
            for name, got in zip(conclusion._fields, step[1:]):
                field = getattr(conclusion, name)
                if hints[name] is InvariantKey:
                    assert got == store.slots[field], (inst.rule_id, name)
                    read.append(got)
                elif hints[name] == tuple[InvariantKey, ...]:
                    assert got == tuple(store.slots[k] for k in field), (inst.rule_id, name)
                    read.extend(got)
                else:
                    assert got == field and type(got) is type(field), (inst.rule_id, name)
        assert reads(steps) == tuple(dict.fromkeys(read)), inst.rule_id


def _compiled_output(scene):
    """The instances of ``scene`` with their steps by shape name, then the
    keys they intern in slot order."""
    store = BoundStore()
    instances = instantiate(elaborate(scene), store)
    compiled = [(rule_id, facts, [(step[0].__name__, *step[1:]) for step in steps])
                for rule_id, facts, steps in instances]
    return compiled, [(key.map_id, key.kind.value) for key in store.keys]


def _digest(output):
    return hashlib.sha256(repr(output).encode()).hexdigest()[:16]


def test_probe_compiled_output_is_pinned():
    # Recorded before the rows took their key table as an argument: every
    # rule instantiates on the probe scene, and the instances, their steps
    # and the slot order of the keys they intern must stay as they were.
    compiled, keys = _compiled_output(parse_scene(PROBE_SCENE))
    assert (len(compiled), len(keys)) == (1090, 324)
    assert _digest((compiled, keys)) == "f19fb32802fed3cc"
    # Recorded before the catalog was compiled from its law text: the
    # random scenes reach the rules in the fact orders and profiles that
    # the probe scene does not.
    outputs = [_compiled_output(random_scene(seed)) for seed in range(200)]
    assert sum(len(compiled) for compiled, _ in outputs) == 17984
    assert _digest(outputs) == "d281e8a585593efa"


@pytest.mark.parametrize("law, token", [
    ("cofibre(f, j, C): L(j) <= 1", "'cofibre'"),  # no such fact kind
    ("cofiber(f, j): L(j) <= 1", "')'"),  # too few arguments
    ("cofiber(f, j, C, D): L(j) <= 1", "','"),  # too many arguments
    ("cofiber(f, j, C: A -> B): L(j) <= 1", "':'"),  # a signature on a space
    ("cofiber(f, j, C): L(g) <= 1", "'g'"),  # an unbound name
    ("cofiber(f, j, C): cl(f) <= 1", "'f'"),  # a map where a space goes
    ("cofiber(f, j, C): L(f) = L(j) with hi L(f) = 0", "'with'"),  # a gate on a unify
    ("cofiber(f, j, C): L(j) <= 1 )", "')'"),  # a trailing token
    ("cofiber(f, j, C): L(j) <= 1 |", "'|'"),  # a character outside the notation
])
def test_malformed_law_names_its_rule_and_token(law, token):
    with pytest.raises(ValueError, match=r"^rule X-BAD: .*" + re.escape(token)):
        rules._compile("X-BAD", law)


def test_law_lays_out_a_run_that_first_use_does_not():
    # the second step reads g then h, which first use laid out as h then g
    law = "compose(h, g, f): L(h) <= L(g) + L(f); L(f) <= L(g) + L(h) + 2"
    elab = elaborate(parse_scene("collection C { }\nspace X\nmap f : X -> X\n"))
    store = BoundStore()
    instances = list(rules._compile("X-RUN", law)(elab, rules.Keys(store)))
    assert instances
    for inst in instances:
        h, g, f = (key_L(m) for m in elab.facts[inst[1][0]].args)
        assert decode(inst, store).conclusions == (
            UpperSum(h, (g, f)), UpperSum(f, (g, h), const=2))


def _probe_and_random_scenes():
    yield parse_scene(PROBE_SCENE)  # every rule instantiates here
    for seed in range(200):
        yield random_scene(seed)


def test_decoded_view_recompiles_to_the_rows_steps():
    for scene in _probe_and_random_scenes():
        store = BoundStore()
        compiled = instantiate(elaborate(scene), store)
        interned = len(store.keys)
        for inst in compiled:
            again = compile_view(decode(inst, store), store)
            assert (*again, reads(again[2])) == (*inst, reads(inst[2]))
        assert len(store.keys) == interned  # the matchers interned every key already


def test_decoded_keys_are_the_stores_key_objects():
    # cl(X) and L(init(X)) are one key: the store holds one object per
    # distinct key, and every decoded view names exactly those objects
    for scene in _probe_and_random_scenes():
        store = BoundStore()
        compiled = instantiate(elaborate(scene), store)
        assert len(set(store.keys)) == len(store.keys)
        named = {}
        for inst in compiled:
            for conclusion in decode(inst, store).conclusions:
                for field in conclusion:
                    for key in field if type(field) is tuple else (field,):
                        if type(key) is InvariantKey:
                            assert key is store.keys[store.slots[key]]
                            named[id(key)] = key
        assert len(named) == len(set(named.values()))


def test_concurrent_instantiations_keep_their_own_stores():
    # each instantiate call builds its own key table over its own store; a
    # second thread must not intern into it
    elabs = [elaborate(random_scene(seed)) for seed in range(6)]

    def steps(elab):
        return instantiate(elab, BoundStore())

    expected = [steps(elab) for elab in elabs]
    got = [[] for _ in elabs]

    def work(k):
        for _ in range(5):
            got[k].append(steps(elabs[k]))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(len(elabs))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert got == [[want] * 5 for want in expected]


# -- firing semantics ---------------------------------------------------------------


def test_mc_fires_constant_one():
    result = saturated(
        "collection C { }\n"
        "space A, B, Q\n"
        "map f : A -> B\nmap j : B -> Q\n"
        "fact cofiber(f, j, Q)\nfact member(A)\n"
    )
    assert interval_of(result, key_L("j")).hi == 1


def test_compose_rearranged_lower_bound():
    # cl(Y) <= cl(X) + L(f) with lo cl(Y)=4, hi cl(X)=1 forces lo L(f) >= 3
    result = saturated(
        "collection C { }\n"
        "space X, Y\n"
        "map f : X -> Y\n"
        "bound cl(Y) >= 4\n"
        "bound cl(X) <= 1\n"
    )
    assert interval_of(result, key_L("f")).lo == 3


def test_no_rearrange_drops_derived_lower_bound():
    result = saturated(
        "collection C { }\n"
        "space X, Y\n"
        "map f : X -> Y\n"
        "bound cl(Y) >= 4\n"
        "bound cl(X) <= 1\n",
        rearrange=False,
    )
    assert interval_of(result, key_L("f")).lo == 0


def test_fibration_product_bound():
    result = saturated(
        "collection C { all }\n"
        "space E, B, F\n"
        "map p : E -> B\n"
        "fact fibration(p, F)\n"
        "bound cl(B) <= 1\nbound cl(F) <= 1\n"
    )
    assert interval_of(result, key_L("init(E)")).hi == 3


def test_fibration_bound_is_noop_at_infinity():
    result = saturated(
        "collection C { all }\n"
        "space E, B, F\n"
        "map p : E -> B\n"
        "fact fibration(p, F)\n"
        "bound cl(B) <= 1\n"
    )
    assert interval_of(result, key_L("init(E)")).hi == INF


def test_equiv_detection_feeds_equality_guarded_rules():
    # va is an equivalence: T32-W applies once hi L(va) hits 0
    text = (
        "collection C { wedges }\n"
        "space A, B, C2, D, B2, C3, D2\n"
        "map f : A -> B\nmap g : A -> C2\nmap ib : B -> D\nmap ic : C2 -> D\nmap dg : A -> D\n"
        "map f2 : A -> B2\nmap g2 : A -> C3\nmap ib2 : B2 -> D2\nmap ic2 : C3 -> D2\nmap dg2 : A -> D2\n"
        "map va : A -> A\nmap vb : B -> B2\nmap vc : C2 -> C3\nmap vd : D -> D2\n"
        "fact pushout(A, f, g, ib, ic, dg)\n"
        "fact pushout(A, f2, g2, ib2, ic2, dg2)\n"
        "fact pushout_map(A, A, va, vb, vc, vd)\n"
        "bound L(va) <= 0\n"
        "bound L(vb) <= 2\nbound L(vc) <= 1\n"
        "bound Lcat(vb) <= 2\nbound Lcat(vc) <= 1\n"
    )
    result = saturated(text)
    assert interval_of(result, key_L("va")).hi == 0
    assert interval_of(result, key_L("vd")).hi == 2
    # the equivalence also zeroed the category side
    assert interval_of(result, key_Lcat("va")).hi == 0


def test_category_zero_opens_the_equivalence_gate():
    # va becomes an equivalence only through hi Lcat(va) = 0: P7-EQ zeroes
    # L(va), which opens the gate of T32-W
    text = (
        "collection C { wedges }\n"
        "space A, B, C2, D, B2, C3, D2\n"
        "map f : A -> B\nmap g : A -> C2\nmap ib : B -> D\nmap ic : C2 -> D\nmap dg : A -> D\n"
        "map f2 : A -> B2\nmap g2 : A -> C3\nmap ib2 : B2 -> D2\nmap ic2 : C3 -> D2\nmap dg2 : A -> D2\n"
        "map va : A -> A\nmap vb : B -> B2\nmap vc : C2 -> C3\nmap vd : D -> D2\n"
        "fact pushout(A, f, g, ib, ic, dg)\n"
        "fact pushout(A, f2, g2, ib2, ic2, dg2)\n"
        "fact pushout_map(A, A, va, vb, vc, vd)\n"
        "bound L(vb) <= 2\nbound L(vc) <= 1\n"
    )
    closed = saturated(text)
    # without the equivalence, T32-W and C34-NC stay gated
    assert interval_of(closed, key_L("vd")).hi == INF
    result = saturated(text + "bound Lcat(va) <= 0\n")
    assert result.status == "fixpoint"
    assert interval_of(result, key_L("va")).hi == 0
    assert interval_of(result, key_L("vd")).hi == 2
    assert query(result, key_L("vd")).hi_rule == "T32-W"
    tree = explain(result, key_L("vd"), Side.HI)
    gate = [c for c in tree.children if c.key == "L(va)"]
    assert [c.label for c in gate] == ["hi L(va) = 0 by P7-EQ"]
    assert [c.label for c in gate[0].children] == ["hi Lcat(va) = 0 (asserted)"]


def test_p72b_conditional_fires_strictly():
    text = (
        "collection W { wedges }\n"
        "space X, Y, X2, Y2, WX, WY\n"
        "map f : X -> Y\nmap g : X2 -> Y2\nmap w : WX -> WY\n"
        "fact wedge_space(WX, X, X2)\n"
        "fact wedge_space(WY, Y, Y2)\n"
        "fact wedge_map(w, f, g)\n"
        "bound Lcat(w) = 3\n"
        "bound Lcat(g) <= 1\n"
    )
    result = saturated(text)
    assert interval_of(result, key_Lcat("f")).lo == 3
    just = result.store.justification_of(key_Lcat("f"), Side.LO)
    assert just.rule_id == "P72-B"


def test_negative_no_hardie_bound_on_bare_pushout():
    # cl of a pushout must not be capped by cl of the corners plus one
    result = saturated(
        "collection S { wedges, suspensions }\n"
        "space A, B, C2, D\n"
        "map f : A -> B\nmap g : A -> C2\n"
        "map ib : B -> D\nmap ic : C2 -> D\nmap dg : A -> D\n"
        "fact pushout(A, f, g, ib, ic, dg)\n"
        "bound cl(B) = 1\nbound cl(C2) = 1\n"
    )
    assert interval_of(result, key_L("init(D)")).hi == INF
    # and no cataloged conclusion even has that shape
    elab = result.elab
    target = key_L("init(D)")
    corners = {key_L("init(B)"), key_L("init(C2)")}
    for inst in instantiate(elab):
        for c in inst.conclusions:
            if isinstance(c, UpperSum) and c.target == target and c.const >= 1:
                assert not set(c.adds) | set(c.maxes) <= corners


def test_smash_ideal_min_bound():
    result = saturated(
        "collection C { smash_ideal }\n"
        "space X, Y, S\n"
        "fact smash_space(S, X, Y)\n"
        "fact member(X)\n"
        "bound kl(Y) <= 4\n"
    )
    # min(kl X, kl Y) <= kl(X) <= 1 via membership
    assert interval_of(result, key_kl("S")).hi == 1


def test_rearrangement_never_contradicts_alone():
    # rearranged bounds agree with direct saturation on contradiction status
    texts = [
        "collection C { all }\nspace X, Y\nmap f : X -> Y\n"
        "bound cl(Y) >= 4\nbound cl(X) <= 1\n",
        "collection S { suspensions }\nspace X, Y\nmap f : X -> Y\n"
        "bound kl(X) >= 3\nbound kl(Y) <= 1\nbound L(f) <= 1\n",
    ]
    for text in texts:
        with_r = saturated(text, rearrange=True)
        without_r = saturated(text, rearrange=False)
        assert (with_r.status == "contradiction") == (without_r.status == "contradiction"), text


def test_fire_snapshots_premise_sources():
    result = saturated(
        "collection C { }\n"
        "space A, B, Q\n"
        "map f : A -> B\nmap j : B -> Q\n"
        "fact cofiber(f, j, Q)\nfact member(A)\n"
    )
    for just in result.store.log:
        assert just.check(), just


def test_read_table_names_each_shapes_key_fields():
    assert set(rules.READS) == set(Conclusion.__args__)
    for shape, fields in rules._KEY_FIELDS.items():
        # distinct slots in every key field, None in the others
        step, want = [shape] + [None] * len(shape._fields), []
        for i, many in fields:
            slots = tuple(range(len(want), len(want) + (2 if many else 1)))
            step[i] = slots if many else slots[0]
            want += slots
        assert tuple(rules.READS[shape](tuple(step))) == tuple(want), shape.__name__


# -- fire against an independent evaluator of the seven inequalities ---------------

_VALUES = st.sampled_from([0, 1, 2, 5, INF])
_SLOT = st.integers(0, 3)
_SLOTS = st.lists(_SLOT, max_size=3).map(tuple)
_CONST = st.integers(0, 3)
_STEPS = {
    UpperSum: st.tuples(st.just(UpperSum), _SLOT, _SLOTS, _SLOTS, _CONST,
                        st.lists(_SLOT, max_size=2).map(tuple)),
    UpperProd: st.tuples(st.just(UpperProd), _SLOT, _SLOT, _SLOT, st.booleans()),
    Unify: st.tuples(st.just(Unify), _SLOT, _SLOT),
    LowerMonus: st.tuples(st.just(LowerMonus), _SLOT, _SLOT, _SLOTS, _CONST),
    LowerMax: st.tuples(st.just(LowerMax), _SLOT, st.lists(_SLOT, min_size=1, max_size=3)
                        .map(tuple)),
    LowerInf: st.tuples(st.just(LowerInf), _SLOT),
    CondLower: st.tuples(st.just(CondLower), _SLOT, _SLOT, _SLOT),
}


def _minus(a, b):
    """a - b truncated at 0, where anything minus inf is 0."""
    return 0 if b == INF or b >= a else a - b


def _times(a, b):
    return 0 if a == 0 or b == 0 else a * b


def _least_factor(product, other):
    """The least x with product + 1 <= (x + 1)(other + 1)."""
    if other == INF or product == 0:
        return 0
    return INF if product == INF else -(-(product + 1) // (other + 1)) - 1


def _holds(step, lo, hi, rearrange):
    """Whether the store's lo and hi satisfy every inequality of ``step``."""
    shape, target, *rest = step
    if shape is UpperSum:
        adds, maxes, const, gates = rest
        if any(hi[g] != 0 for g in gates):
            return True

        def bound(terms):
            return const + sum(hi[t] for t in terms) + max([hi[m] for m in maxes], default=0)

        return hi[target] <= bound(adds) and not (rearrange and any(
            lo[t] < _minus(lo[target], bound(adds[:i] + adds[i + 1:]))
            for i, t in enumerate(adds)))
    if shape is UpperProd:
        left, right, minus_one = rest
        top = _times(hi[left] + 1, hi[right] + 1) - 1 if minus_one else _times(
            hi[left], hi[right] + 1)
        return hi[target] <= top and not (rearrange and (
            lo[left] < _least_factor(lo[target], hi[right])
            or lo[right] < _least_factor(lo[target], hi[left])))
    if shape is Unify:
        return (lo[target], hi[target]) == (lo[rest[0]], hi[rest[0]])
    if shape is LowerMonus:
        base, subs, const = rest
        return lo[target] >= _minus(lo[base], const + sum(hi[s] for s in subs))
    if shape is LowerMax:
        return lo[target] >= max(lo[s] for s in rest[0])
    if shape is LowerInf:
        return lo[target] == INF
    gate, floor = rest
    return not hi[gate] < lo[floor] or lo[target] >= lo[floor]


@settings(max_examples=400, deadline=None)
@given(st.lists(st.tuples(_VALUES, _VALUES).map(sorted), min_size=4, max_size=4),
       st.tuples(*_STEPS.values()), st.booleans())
def test_fire_emits_exactly_while_its_step_fails_and_establishes_it(bounds, steps, rearrange):
    # one step of each shape, each fired on its own store over four keys
    for step in steps:
        store = BoundStore()
        for i, (lo, hi) in enumerate(bounds):
            slot = store.slot(key_L(f"k{i}"))
            store.lo_values[slot], store.hi_values[slot] = lo, hi
        inst = ("T", (), (step,))
        updates = fire(inst, store, rearrange)
        assert bool(updates) != _holds(step, store.lo_values, store.hi_values, rearrange), step
        if any([isinstance(store.apply(update), StoreConflict) for update in updates]):
            continue  # the step cannot hold inside these intervals: a contradiction
        assert _holds(step, store.lo_values, store.hi_values, rearrange), step
        assert fire(inst, store, rearrange) == [], step


# -- hand-computed values for the remaining rule families --------------------------


def test_projection_bound_with_member_factor():
    result = saturated(
        "collection C { joins }\n"
        "space A, B, P\n"
        "map p : P -> B\n"
        "fact product_space(P, A, B)\n"
        "fact projection(p)\n"
        "fact member(A)\n"
        "bound cl(B) = 1\nbound cat(B) <= 1\n"
    )
    assert interval_of(result, key_L("p")).hi == 2  # cl(B) + 1
    assert interval_of(result, key_Lcat("p")).hi == 2  # cat(B) + 1


def test_projection_without_membership_gives_nothing():
    result = saturated(
        "collection C { joins }\n"
        "space A, B, P\n"
        "map p : P -> B\n"
        "fact product_space(P, A, B)\n"
        "fact projection(p)\n"
        "bound cl(B) = 1\n"
    )
    assert interval_of(result, key_L("p")).hi == INF


def test_pullback_scaled_bound_and_rearrangement():
    text = (
        "collection C { wedges, joins }\n"
        "space A, B, C2, D, F\n"
        "map ab : A -> B\nmap ac : A -> C2\nmap bd : B -> D\nmap cd : C2 -> D\n"
        "fact pullback(A, B, C2, D, ab, ac, bd, cd, F)\n"
        "bound L(cd) <= 2\nbound cl(F) <= 1\n"
    )
    result = saturated(text)
    assert interval_of(result, key_L("ab")).hi == 4  # 2 * (1 + 1)

    lower = saturated(text.replace("bound L(cd) <= 2\n", "") + "bound L(ab) >= 5\n")
    # 5 <= L(cd) * (cl(F)+1) forces L(cd) >= ceil(6/2) - 1 = 2
    assert lower.status == "fixpoint"
    assert interval_of(lower, key_L("cd")).lo == 2


def test_cofiber_map_additive_bound():
    result = saturated(
        "collection C { suspensions }\n"
        "space KA, KB, KC, KA2, KB2, KC2\n"
        "map kf : KA -> KB\nmap kj : KB -> KC\n"
        "map kf2 : KA2 -> KB2\nmap kj2 : KB2 -> KC2\n"
        "map al : KA -> KA2\nmap be : KB -> KB2\nmap ga : KC -> KC2\n"
        "fact cofiber(kf, kj, KC)\nfact cofiber(kf2, kj2, KC2)\n"
        "fact cofiber_map(kf, kf2, al, be, ga)\n"
        "bound L(al) <= 1\nbound L(be) <= 2\n"
    )
    assert interval_of(result, key_L("ga")).hi == 3


def test_product_map_bound():
    result = saturated(
        "collection C { wedges, joins }\n"
        "space X, Y, P, X2, Y2, P2\n"
        "map f : X -> X2\nmap g : Y -> Y2\nmap h : P -> P2\n"
        "fact product_space(P, X, Y)\n"
        "fact product_space(P2, X2, Y2)\n"
        "fact product_map(h, f, g)\n"
        "bound L(f) <= 1\nbound L(g) <= 2\n"
        "bound cl(X) <= 1\nbound cl(Y) <= 3\n"
    )
    assert interval_of(result, key_L("h")).hi == 6  # 1 + 2 + max(1, 3)


def test_smash_ideal_product_bound():
    result = saturated(
        "collection C { smash_ideal, wedges, suspensions }\n"
        "space X, Y, P\n"
        "fact product_space(P, X, Y)\n"
        "bound kl(X) <= 1\nbound kl(Y) <= 2\n"
    )
    # without joins, only the smash-ideal product rule applies
    assert interval_of(result, key_kl("P")).hi == 3


def test_suspension_space_bound():
    result = saturated(
        "collection C { }\n"
        "space B, S\n"
        "fact susp_space(S, B)\n"
        "bound kl(B) <= 2\n"
    )
    assert interval_of(result, key_L("init(S)")).hi == 2


def test_wedge_corner_bound_from_expansion():
    result = saturated(
        "collection C { wedges, suspensions }\n"
        "space X, Y, W\n"
        "fact wedge_space(W, X, Y)\n"
        "bound cl(X) = 1\nbound cl(Y) = 2\n"
        "bound kl(X) <= 1\nbound kl(Y) <= 2\n"
    )
    assert interval_of(result, key_L("init(W)")).hi == 2  # max of the corners
    assert interval_of(result, key_kl("W")).hi == 2  # kl(*) + max(kl X, kl Y)


def test_domination_both_directions():
    result = saturated(
        "collection C { }\n"
        "space A, B, C2, D\n"
        "map g : A -> B\nmap f : C2 -> D\n"
        "fact dominates(g, f)\n"
        "bound Lcat(g) <= 2\nbound Lcat(f) >= 1\n"
    )
    assert interval_of(result, key_Lcat("f")).hi == 2
    assert interval_of(result, key_Lcat("g")).lo == 1
    # cone length is NOT transported by domination
    assert interval_of(result, key_L("f")).hi == INF


def test_section_bounds_under_suspensions():
    result = saturated(
        "collection C { suspensions }\n"
        "space A, B\n"
        "map f : A -> B\nmap g : B -> A\n"
        "fact section(f, g)\n"
        "bound cat(B) <= 2\nbound L(f) <= 1\nbound Lcat(f) <= 1\n"
    )
    assert interval_of(result, key_Lcat("g")).hi == 1  # min(cat(B), Lcat(f))
    assert interval_of(result, key_L("g")).hi == 1


def test_difference_lower_bounds_both_orientations():
    base = (
        "collection C { suspensions }\n"
        "space X, Y\nmap f : X -> Y\n"
    )
    grow = saturated(base + "bound kl(X) = 3\nbound kl(Y) <= 1\n")
    assert interval_of(grow, key_L("f")).lo == 2  # kl(X) - kl(Y)
    shrink = saturated(base + "bound kl(Y) = 3\nbound kl(X) <= 1\n")
    assert interval_of(shrink, key_L("f")).lo == 2  # kl(Y) - kl(X)
    cl_side = saturated(base + "bound cl(Y) = 3\nbound cl(X) <= 1\n")
    assert interval_of(cl_side, key_L("f")).lo == 2  # cl(Y) - cl(X)


def test_pushout_map_sum_form_without_wedges():
    text = (
        "collection C { suspensions }\n"
        "space A, B, C2, D, A2, B2, C3, D2\n"
        "map f : A -> B\nmap g : A -> C2\nmap ib : B -> D\nmap ic : C2 -> D\nmap dg : A -> D\n"
        "map f2 : A2 -> B2\nmap g2 : A2 -> C3\nmap ib2 : B2 -> D2\nmap ic2 : C3 -> D2\nmap dg2 : A2 -> D2\n"
        "map va : A -> A2\nmap vb : B -> B2\nmap vc : C2 -> C3\nmap vd : D -> D2\n"
        "fact pushout(A, f, g, ib, ic, dg)\n"
        "fact pushout(A2, f2, g2, ib2, ic2, dg2)\n"
        "fact pushout_map(A, A2, va, vb, vc, vd)\n"
        "bound L(va) <= 1\nbound L(vb) <= 2\nbound L(vc) <= 1\n"
    )
    result = saturated(text)
    # without wedges the max form is unavailable; the three-term sum caps it
    assert interval_of(result, key_L("vd")).hi == 4


def test_pushout_map_max_form_with_wedges_and_suspensions():
    text = (
        "collection C { wedges, suspensions }\n"
        "space A, B, C2, D, A2, B2, C3, D2\n"
        "map f : A -> B\nmap g : A -> C2\nmap ib : B -> D\nmap ic : C2 -> D\nmap dg : A -> D\n"
        "map f2 : A2 -> B2\nmap g2 : A2 -> C3\nmap ib2 : B2 -> D2\nmap ic2 : C3 -> D2\nmap dg2 : A2 -> D2\n"
        "map va : A -> A2\nmap vb : B -> B2\nmap vc : C2 -> C3\nmap vd : D -> D2\n"
        "fact pushout(A, f, g, ib, ic, dg)\n"
        "fact pushout(A2, f2, g2, ib2, ic2, dg2)\n"
        "fact pushout_map(A, A2, va, vb, vc, vd)\n"
        "bound L(va) <= 1\nbound L(vb) <= 2\nbound L(vc) <= 1\n"
    )
    result = saturated(text)
    assert interval_of(result, key_L("vd")).hi == 3  # L(a) + max(L(b), L(c))


def test_trivial_map_bounds():
    result = saturated(
        "collection C { wedges }\n"
        "space X, Y\n"
        "map z : X -> Y\n"
        "fact null(z)\n"
        "bound kl(X) <= 1\nbound cl(Y) <= 2\n"
        "bound kit(X) = 1\nbound cat(Y) <= 1\n"
    )
    assert interval_of(result, key_L("z")).hi == 2  # max(kl X, cl Y)
    assert interval_of(result, key_Lcat("z")).hi == 1  # max(kit X, cat Y)
    assert interval_of(result, key_Lcat("z")).lo == 1  # floor from kit(X)


def test_check_instance_on_raw_instances_reports_violations():
    # the benchmark oracle's path: fresh instantiate() output checked
    # against a store that no compiled instance has seen
    elab = elaborate(parse_scene("collection C { }\nspace X, Y\nmap f : X -> Y\n"))
    store = BoundStore()
    store.apply(Justification("asserted", key_L("f"), Side.HI, 2, "asserted"))
    store.apply(Justification("asserted", key_Lcat("f"), Side.LO, 3, "asserted"))
    before = store.serialize()
    violations = {inst.rule_id: check_instance(inst, store, elab)
                  for inst in instantiate(elab)}
    assert violations.pop("REL-CL") == [
        "REL-CL: upper bound 2 on Lcat(f) not satisfied by [3, inf]",
        "REL-CL: lower bound 3 on L(f) not satisfied by [0, 2]",
        "REL-CL: lower bound 3 on L(f) not satisfied by [0, 2]",
    ]
    assert all(found == [] for found in violations.values())
    assert store.serialize() == before
    assert len(store.log) == 2
