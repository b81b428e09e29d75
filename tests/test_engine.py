"""Saturation behavior: fixpoints, contradictions, budgets, provenance."""

import gc
import hashlib
import json
import random

import pytest
from helpers import (chain_scene, key_cat, key_cl, key_kit, key_kl, key_L, key_Lcat, leaves,
                     random_scene, susp_tower_scene)

from conebound import engine
from conebound.elaborate import elaborate
from conebound.engine import Limits, explain, query, saturate
from conebound.extnat import INF, Interval
from conebound.model import Premise, Side, replay
from conebound.parser import parse_scene
from conebound.rules import check_instance, instantiate

HOPF = """collection All { all }
space S1, S2, S3
map p : S3 -> S2
fact fibration(p, S1)
bound cl(S1) = 1
bound cl(S2) = 1
query cl(S3)
"""


def run(text, **kwargs):
    return saturate(elaborate(parse_scene(text)), **kwargs)


def test_empty_scene_is_immediately_stable():
    result = run("collection C { }\n")
    assert result.status == "fixpoint"
    assert result.rounds == 1
    assert result.firings == 0


def test_point_invariants_are_zero_everywhere():
    result = run("collection C { }\nspace X\n")
    answer = query(result, key_cl("*"))
    assert answer.interval == Interval(0, 0)
    assert answer.lo_rule == "default"
    assert answer.hi_rule == "default"


def test_hopf_fixpoint_and_classification():
    result = run(HOPF)
    assert result.status == "fixpoint"
    answer = query(result, key_cl("S3"))
    assert answer.interval == Interval(0, 3)
    assert answer.lo_rule == "default"
    assert answer.hi_rule == "C63"


def test_hopf_explain_tree():
    result = run(HOPF)
    tree = explain(result, key_cl("S3"), Side.HI)
    assert tree.rule_id == "C63"
    labels = [leaf.label for leaf in leaves(tree)]
    assert any("cl(S2) = 1 (asserted)" in l for l in labels)
    assert any("cl(S1) = 1 (asserted)" in l for l in labels)
    assert any("fibration(p, S1)" in l for l in labels)


def test_explain_default_side_is_single_leaf():
    result = run(HOPF)
    tree = explain(result, key_cl("S3"), Side.LO)
    assert not tree.children
    assert "default" in tree.label


def test_contradiction_poisons_queries():
    result = run(
        "collection Sigma { suspensions }\n"
        "space X, Y\nmap f : X -> Y\n"
        "bound cl(Y) = 2\nbound L(f) <= 3\nbound kl(Y) = 2\nbound kl(X) >= 10\n"
    )
    assert result.status == "contradiction"
    report = result.contradiction
    assert report.key == key_kl("X")
    assert report.lo_value == 10 and report.hi_value == 5
    assert report.hi_tree.rule_id == "AX-COMP"
    answer = query(result, key_kl("X"))
    assert answer.status == "contradiction"


def test_asserted_bounds_can_conflict_directly():
    result = run(
        "collection C { }\nspace X\n"
        "bound cl(X) >= 4\nbound cl(X) <= 2\n"
    )
    assert result.status == "contradiction"
    assert result.rounds == 0
    assert result.contradiction.lo_value == 4
    assert result.contradiction.hi_value == 2


def test_equality_bound_sets_exact_interval():
    result = run("collection C { }\nspace X\nbound cl(X) = 3\n")
    assert result.store.interval(key_cl("X")) == Interval(3, 3)


def test_round_budget_trips():
    result = run(HOPF, limits=Limits(max_rounds=0))
    assert result.status == "budget_exhausted"
    assert result.budget.reason == "max_rounds"


def test_round_budget_stops_a_deep_chain_where_it_did():
    # Recorded before the saturation loop was folded into saturate: a
    # round budget must still cut the run after the same round, with the
    # same firings, log and store.
    result = run(chain_scene(1200), limits=Limits(max_rounds=50))
    assert result.status == "budget_exhausted"
    assert (result.budget.reason, result.budget.detail) == (
        "max_rounds", "no fixpoint after 50 rounds")
    assert (result.rounds, result.firings, len(result.store.log)) == (50, 3591, 4793)
    digest = hashlib.sha256(result.store.serialize().encode()).hexdigest()[:16]
    assert digest == "2c287718a8668ae2"
    unbudgeted = run(chain_scene(1200))
    assert (unbudgeted.status, unbudgeted.rounds) == ("fixpoint", 1104)


def test_chain_deeper_than_the_old_round_cap_reaches_fixpoint():
    # termination rests on well-foundedness, not on a round budget: this
    # chain needs more rounds than the old default cap of 10,000
    result = run(chain_scene(10_500), limits=Limits())
    assert result.status == "fixpoint"
    assert result.rounds > 10_000
    assert result.store.interval(key_cl("X10500")).hi == 10_501


def test_runs_end_without_pumping_a_lower_bound():
    # the termination argument: every computation that writes a finite lo
    # returns at most a lo it reads, and a round after the first follows
    # a round that tightened a side
    asserting = 0
    for seed in range(200):
        elab = elaborate(random_scene(seed))
        cap = max((b.value for b in elab.bounds if b.rel != "<=" and b.value != INF),
                  default=0)
        asserting += cap > 0
        for rearrange in (True, False):
            result = saturate(elab, rearrange=rearrange)
            assert result.status in ("fixpoint", "contradiction"), (seed, rearrange)
            assert result.rounds <= result.firings + 1, (seed, rearrange)
            for just in result.store.log:
                if just.side is Side.LO and just.value != INF:
                    assert just.value <= cap, (seed, rearrange, just)
    assert asserting == 117


def test_saturation_builds_no_premise():
    # a rule's tightening is logged as ints beside its instance; the store
    # builds premises only when its log is read
    result = run(chain_scene(400))
    gc.collect()
    assert len(result.store.log) == 2405
    assert not [obj for obj in gc.get_objects() if type(obj) is Premise]
    assert sum(len(just.premises) for just in result.store.log) == 3496


def test_replay_reconstructs_final_store():
    for text in (HOPF,):
        result = run(text)
        assert replay(result.store.log).serialize() == result.store.serialize()


def test_confluence_under_shuffled_firing():
    result = run(HOPF)
    for seed in range(8):
        shuffled = run(HOPF, shuffle=random.Random(seed))
        assert shuffled.store.serialize() == result.store.serialize()


def test_monotone_progress_log():
    result = run(HOPF)
    seen = {}
    for just in result.store.log:
        prev = seen.get((just.key, just.side))
        if prev is not None:
            if just.side is Side.HI:
                assert just.value < prev
            else:
                assert just.value > prev
        seen[(just.key, just.side)] = just.value


def test_fixpoint_store_passes_posthoc_check():
    result = run(HOPF)
    for inst in instantiate(result.elab):
        assert check_instance(inst, result.store, result.elab) == []


def test_derived_equiv_is_the_bound_hi_L_zero():
    # hi Lcat(f) = 0 makes f an equivalence, so P7-EQ zeroes L(f)
    result = run(
        "collection C { }\nspace X, Y\nmap f : X -> Y\nbound Lcat(f) = 0\n"
    )
    assert result.status == "fixpoint"
    assert result.store.interval(key_L("f")).hi == 0
    assert query(result, key_L("f")).hi_rule == "P7-EQ"
    tree = explain(result, key_L("f"), Side.HI)
    assert tree.label == "hi L(f) = 0 by P7-EQ"
    assert [child.label for child in tree.children] == ["hi Lcat(f) = 0 (asserted)"]
    # the other direction is Lcat <= L (REL-CL)
    result = run(
        "collection C { }\nspace X, Y\nmap f : X -> Y\nbound L(f) = 0\n"
    )
    assert result.status == "fixpoint"
    assert result.store.interval(key_Lcat("f")).hi == 0


def test_saturation_leaves_the_scene_unchanged():
    from conebound.cli import corpus_dir

    scenes = [parse_scene(path.read_text(encoding="utf-8"))
              for path in sorted(corpus_dir().glob("*.scene"))]
    scenes += [random_scene(seed) for seed in range(300)]
    for index, scene in enumerate(scenes):
        elab = elaborate(scene)
        before = (list(elab.facts), dict(elab.maps), list(elab.spaces))
        saturate(elab)
        assert (elab.facts, elab.maps, elab.spaces) == before, index


def test_pi0_rule_sets_infinite_lower_bound():
    result = run(
        "collection C { }\nspace X, Y\nmap f : X -> Y\nfact pi0_not_onto(f)\n"
    )
    assert result.status == "fixpoint"
    assert result.store.interval(key_L("f")) == Interval(INF, INF)


def test_category_certificate_bounds_kitegory():
    # the staged composite dominates the target, so the category side
    # inherits the stage count even though no equivalence closes the chain
    result = run(
        "collection C { }\n"
        "space X, A, B\n"
        "fact member(A)\nfact member(B)\n"
        "decomposition kit(X) via [A, B]\n"
        "query kit(X)\n"
    )
    assert result.status == "fixpoint"

    assert result.store.interval(key_kit("X")) == Interval(0, 2)
    # the cone-length side stays open: there is no final equivalence
    assert result.store.interval(key_kl("X")).hi == INF


def test_unify_rules_transfer_both_sides():
    homotopic = run(
        "collection C { }\n"
        "space X, Y\nmap f : X -> Y\nmap g : X -> Y\n"
        "fact homotopic(f, g)\n"
        "bound L(f) <= 2\nbound L(g) >= 1\n"
    )
    assert homotopic.store.interval(key_L("g")).hi == 2
    assert homotopic.store.interval(key_L("f")).lo == 1

    equivalent = run(
        "collection C { }\n"
        "space X, Y, X2, Y2\nmap f : X -> Y\nmap g : X2 -> Y2\n"
        "fact equiv_maps(f, g)\n"
        "bound Lcat(f) = 3\n"
    )

    assert equivalent.store.interval(key_Lcat("g")) == Interval(3, 3)


def test_contractible_base_cascades_through_suspension():
    # kl(B) = 0 caps cl(S) at 0, which makes init(S) an equivalence and
    # zeroes the category side
    result = run(
        "collection C { }\n"
        "space B, S\n"
        "fact contractible(B)\n"
        "fact susp_space(S, B)\n"
    )
    assert result.status == "fixpoint"
    assert result.store.interval(key_cl("S")) == Interval(0, 0)
    assert result.store.interval(key_L("init(S)")).hi == 0

    assert result.store.interval(key_cat("S")) == Interval(0, 0)


def test_every_logged_value_recomputes_from_its_premises():
    from conebound.cli import corpus_dir

    for path in sorted(corpus_dir().glob("*.scene")):
        result = run(path.read_text(encoding="utf-8"))
        for just in result.store.log:
            assert just.check(), (path.name, just)


def test_random_scenes_reach_a_status_and_replay():
    statuses = set()
    for seed in range(40):
        scene = random_scene(seed)
        result = saturate(elaborate(scene))
        statuses.add(result.status)
        if result.status == "fixpoint":
            assert replay(result.store.log).serialize() == result.store.serialize()
    assert "fixpoint" in statuses


def test_random_scenes_are_confluent():
    for seed in range(30):
        scene = random_scene(seed)
        baseline = saturate(elaborate(scene))
        for order in range(3):
            shuffled = saturate(elaborate(scene), shuffle=random.Random(order))
            assert shuffled.status == baseline.status, (seed, order)
            if baseline.status == "fixpoint":
                assert shuffled.store.serialize() == baseline.store.serialize(), (
                    seed, order)


def test_rearrangement_status_parity_on_corpus():
    # the rearranged lower bounds never introduce a contradiction that the
    # direct bounds would not already produce
    from conebound.cli import corpus_dir

    for path in sorted(corpus_dir().glob("*.scene")):
        text = path.read_text(encoding="utf-8")
        with_r = run(text, rearrange=True)
        without_r = run(text, rearrange=False)
        assert with_r.status == without_r.status, path.name


def test_rendered_scene_saturates_identically():
    from conebound.parser import parse_scene, render_scene

    for seed in range(20):
        scene = random_scene(seed)
        direct = saturate(elaborate(scene))
        reparsed = parse_scene(render_scene(scene))
        via_text = saturate(elaborate(reparsed))
        assert via_text.status == direct.status, seed
        if direct.status == "fixpoint":
            assert via_text.store.serialize() == direct.store.serialize(), seed


def test_chain_firing_schedule_is_pinned(monkeypatch):
    # Recorded with the dict-keyed store that built premises on every
    # firing.  The slot-indexed core must fire the same instances in the
    # same order: same rounds, fire calls and log, under shuffle= too.
    calls = []
    real = engine.fire

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(engine, "fire", counted)
    runs = [({}, 3, 2478, "9f83b3d6cc017099"),
            ({"rearrange": False}, 3, 2478, "9f83b3d6cc017099"),
            ({"shuffle": random.Random(7)}, 61, 3058, "c8fd1f171d8ad8cc")]
    for kwargs, rounds, fire_calls, digest in runs:
        calls.clear()
        result = run(chain_scene(60), **kwargs)
        log = "\n".join(f"{j.rule_id} {j.side.value} {j.key.surface()} {j.value}"
                        for j in result.store.log)
        assert result.status == "fixpoint"
        assert len(result.instances) == 1041
        assert (result.rounds, result.firings, len(result.store.log), len(calls)) == (
            rounds, 303, 365, fire_calls), kwargs
        assert hashlib.sha256(log.encode()).hexdigest()[:16] == digest, kwargs


def _run_fingerprint(result):
    """Status, rounds, firings, the full log with premises, the store and
    the contradiction's key and values, as one string."""
    lines = [f"{result.status} {result.rounds} {result.firings}", result.store.serialize()]
    for j in result.store.log:
        premises = " ".join(f"{p.key.surface()}:{p.side.value}={p.value}/{p.role}@{p.source}"
                            for p in j.premises)
        lines.append(f"{j.rule_id} {j.key.surface()} {j.side.value} {j.value} {j.compute} "
                     f"{j.const} {j.facts} [{premises}]")
    report = result.contradiction
    if report is not None:
        lines.append(f"{report.key.surface()} {report.lo_value} {report.hi_value}")
    return "\n".join(lines)


def test_saturation_logs_are_pinned():
    # Recorded before the hot path of fire and the subscriber lists were
    # rewritten: every run must keep its status, rounds, firings, log,
    # store and contradiction, byte for byte.  The chain, added later with
    # the digest recomputed before any change it guards, is the family
    # with the most tightenings.
    digest = hashlib.sha256()
    for seed in range(200):
        elab = elaborate(random_scene(seed))
        for rearrange in (True, False):
            digest.update(_run_fingerprint(saturate(elab, rearrange=rearrange)).encode())
    for text in (susp_tower_scene(40), _product_tower_scene(10), chain_scene(60)):
        digest.update(_run_fingerprint(run(text)).encode())
    assert digest.hexdigest()[:16] == "be45a97683cf655b"


# -- explanations as a shared derivation DAG ----------------------------------


def _product_tower_scene(n):
    lines = ["collection Prod { wedges, joins }",
             "space " + ", ".join(f"P{i}" for i in range(n + 1))]
    lines += [f"fact product_space(P{i}, P{i - 1}, P{i - 1})" for i in range(1, n + 1)]
    lines += ["bound cl(P0) = 1"]
    return "\n".join(lines) + "\n"


def _tower_tree(n):
    return explain(run(_product_tower_scene(n)), key_cl(f"P{n}"), Side.HI)


def test_product_tower_explain_grows_linearly():
    # each stage reads its predecessor twice; the DAG holds it once
    sizes = {n: _tower_tree(n).size() for n in (5, 10, 20)}
    assert sizes == {5: 11, 10: 21, 20: 41}
    assert _tower_tree(40).size() <= 81


def test_shared_nodes_print_once_and_refer_back():
    assert _tower_tree(3).render() == "\n".join([
        "hi cl(P3) = 8 by C52",
        "  hi cl(P2) = 4 by C52 [#1]",
        "    hi cl(P1) = 2 by C52 [#2]",
        "      hi cl(P0) = 1 (asserted)",
        "      hi cl(P0) = 1 (asserted)",
        "      fact F2: product_space(P1, P0, P0)",
        "    hi cl(P1) = 2 by C52 (see #2)",
        "    fact F3: product_space(P2, P1, P1)",
        "  hi cl(P2) = 4 by C52 (see #1)",
        "  fact F4: product_space(P3, P2, P2)",
    ])


def test_json_node_table_lists_each_node_once():
    tree = _tower_tree(3)
    payload = tree.to_json()
    nodes = payload["nodes"]
    assert (payload["key"], payload["side"], payload["value"]) == ("cl(P3)", "hi", 8)
    assert len(nodes) + 1 == tree.size() == 7
    assert all(0 <= i < len(nodes) for node in [payload, *nodes]
               for i in node.get("children", []))
    # one entry per distinct node: the table has no repeated entries
    assert len({json.dumps(node, sort_keys=True) for node in nodes}) == len(nodes)
    assert all("nodes" not in node for node in nodes)
    found = leaves(tree)
    assert len({id(leaf) for leaf in found}) == len(found) == 4


def test_unshared_tree_renders_and_serialises_as_a_plain_tree():
    tree = explain(run(HOPF), key_cl("S3"), Side.HI)
    assert tree.render() == "\n".join([
        "hi cl(S3) = 3 by C63",
        "  hi cl(S2) = 1 (asserted)",
        "  hi cl(S1) = 1 (asserted)",
        "  fact F2: fibration(p, S1)",
    ])
    payload = tree.to_json()
    assert {k: v for k, v in payload.items() if k not in ("children", "nodes")} == {
        "label": "hi cl(S3) = 3 by C63", "key": "cl(S3)", "side": "hi",
        "value": 3, "rule": "C63",
    }
    assert payload["children"] == [0, 1, 2]
    assert [node["label"] for node in payload["nodes"]] == [
        "hi cl(S2) = 1 (asserted)", "hi cl(S1) = 1 (asserted)", "fact F2: fibration(p, S1)"]
    assert "nodes" not in explain(run(HOPF), key_cl("S3"), Side.LO).to_json()


@pytest.fixture(scope="module")
def deep_chain():
    return run(chain_scene(1500))


def test_deep_chain_explains_at_the_default_recursion_limit(deep_chain, default_recursion_limit):
    tree = explain(deep_chain, key_cl("X1500"), Side.HI)
    assert tree.value == 1501
    # each of the 1500 steps adds its node, its asserted L(f) and its fact
    assert tree.size() == 4501
    assert tree.render().count("\n") == 4500
    payload = tree.to_json()
    assert len(payload["nodes"]) == 4500
    assert json.loads(json.dumps(payload))["value"] == 1501


def test_reprs_of_deep_and_shared_trees_stay_short(deep_chain, default_recursion_limit):
    # a node's repr is its label and child count, never its descendants
    chain_tree = explain(deep_chain, key_cl("X1500"), Side.HI)
    assert repr(chain_tree) == "<DerivationTree 'hi cl(X1500) = 1501 by AX-COMP', 3 children>"
    report = run(chain_scene(800) + "bound cl(X800) >= 1000\n").contradiction
    assert min(report.lo_tree.size(), report.hi_tree.size()) > 1000
    # a deeper contradiction renders and serialises at the default limit
    deep = run(chain_scene(1500) + "bound cl(X1500) >= 2000\n").contradiction
    assert (deep.key, deep.lo_tree.size(), deep.hi_tree.size()) == (key_cl("X799"), 2104, 2398)
    for tree in (deep.lo_tree, deep.hi_tree):
        assert len(tree.render().splitlines()) == tree.size()  # nothing shared
        assert len(json.loads(json.dumps(tree.to_json()))["nodes"]) + 1 == tree.size()
    for obj in (chain_tree, _tower_tree(15), report, deep):
        assert len(repr(obj)) < 1000

