"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the whole suite asserts exact values, never tolerances, because the
engine is discrete.
"""

import random

from helpers import PROBE_SCENE, all_profiles, random_scene

from conebound.cli import corpus_dir
from conebound.elaborate import elaborate
from conebound.engine import explain, query, saturate
from conebound.extnat import INF, Interval
from conebound.model import Side, key_L, key_Lcat, key_cl, key_kl, replay
from conebound.parser import parse_scene, try_parse_scene
from conebound.rules import UpperSum, catalog, check_instance, instantiate
from conebound.scene import BoundDecl, CollectionProfile, Fact, Scene

PASS = "ACCEPTANCE {num:>2} {name}: PASS"


def run_text(text, **kwargs):
    return saturate(elaborate(parse_scene(text)), **kwargs)


def corpus_scene(name):
    return parse_scene((corpus_dir() / name).read_text(encoding="utf-8"))


def test_01_axiom_suite_on_random_scenes():
    checked = 0
    fixpoints = 0
    for seed in range(500):
        scene = random_scene(seed)
        result = saturate(elaborate(scene))
        if result.status != "fixpoint":
            continue
        fixpoints += 1
        for inst in instantiate(result.elab):
            violations = check_instance(inst, result.store, result.elab)
            assert violations == [], (seed, violations)
            checked += 1
    # the sweep must be meaningful: most scenes saturate cleanly
    assert fixpoints >= 350, fixpoints
    assert checked > 10_000
    print(PASS.format(num=1, name=f"axiom suite ({fixpoints} fixpoints, "
                                  f"{checked} instances re-checked, 0 violations)"))


def test_02_hopf_and_varadarajan():
    hopf = saturate(elaborate(corpus_scene("hopf.scene")))
    answer = query(hopf, key_cl("S3"))
    assert answer.interval == Interval(0, 3)
    assert answer.hi_rule == "C63"

    vara = saturate(elaborate(corpus_scene("varadarajan.scene")))
    from conebound.model import key_cat

    cat_e = query(vara, key_cat("E"))
    assert cat_e.interval.hi == 5  # (2+1)(1+1)-1
    assert cat_e.hi_rule == "C63"
    print(PASS.format(num=2, name="fibration bounds (cl(S3)=[0,3], cat(E)<=5)"))


def _grid_scene(m, n, profile, assert_kl):
    facts = (Fact("product_space", ("P", "X", "Y")),)
    bounds = [
        BoundDecl(key_cl("X"), "=", m),
        BoundDecl(key_cl("Y"), "=", n),
    ]
    if assert_kl:
        bounds += [
            BoundDecl(key_kl("X"), "=", m),
            BoundDecl(key_kl("Y"), "=", n),
        ]
    return Scene.build(profile, ("X", "Y", "P"), (), facts, tuple(bounds))


def test_03_product_grid_exact():
    wj = CollectionProfile("WJ", wedges=True, joins=True)
    wjs = CollectionProfile("WJS", wedges=True, joins=True, suspensions=True)
    for m in range(5):
        for n in range(5):
            # cl(X x Y) = m + n exactly over wedges+joins
            result = saturate(elaborate(_grid_scene(m, n, wj, assert_kl=False)))
            assert result.status == "fixpoint"
            assert result.store.interval(key_cl("P")).hi == m + n, (m, n)

            # kl form, store-level: asserted kl operands, no suspensions
            result_kl = saturate(elaborate(_grid_scene(m, n, wj, assert_kl=True)))
            assert result_kl.store.interval(key_kl("P")).hi == m + n + max(m, n), (m, n)

            # kl form with suspensions: the product rule's own bound still
            # evaluates to the formula even though kl(P) <= cl(P) is tighter
            result_s = saturate(elaborate(_grid_scene(m, n, wjs, assert_kl=False)))
            store = result_s.store
            emitted = None
            for inst in instantiate(result_s.elab):
                if inst.rule_id != "C52":
                    continue
                for c in inst.conclusions:
                    if isinstance(c, UpperSum) and c.target == key_kl("P") and c.maxes:
                        total = sum(store.hi(k) for k in c.adds)
                        peak = max(store.hi(k) for k in c.maxes)
                        emitted = total + peak
            assert emitted == m + n + max(m, n), (m, n)
            assert store.interval(key_kl("P")).hi == m + n, (m, n)
    print(PASS.format(num=3, name="product grid 25/25 exact (cl and kl forms)"))


def test_04_refutation_reproduction():
    result = saturate(elaborate(corpus_scene("example74.scene")))
    assert result.status == "contradiction"
    report = result.contradiction
    assert report.key == key_kl("X")
    assert report.hi_tree.rule_id == "AX-COMP"
    labels = [leaf.label for leaf in report.hi_tree.leaves()]
    assert any("compose(term(X), term(Y), f)" in l for l in labels)
    print(PASS.format(num=4, name="refutation via AX-COMP auto-compose chain"))


def test_05_negative_soundness():
    ex75 = saturate(elaborate(corpus_scene("example75.scene")))
    assert ex75.status == "fixpoint"
    assert ex75.store.interval(key_cl("SCPt")).hi == INF

    cp3 = saturate(elaborate(corpus_scene("cp3-cofiber.scene")))
    assert cp3.status == "fixpoint"
    assert cp3.store.interval(key_cl("CP3")).hi == INF
    # while the killing length IS subadditive over the same cofiber facts
    assert cp3.store.interval(key_kl("CP3")).hi == 2
    print(PASS.format(num=5, name="negative soundness (targets stay unbounded)"))


def test_06_certificate_chain():
    result = saturate(elaborate(corpus_scene("problem78.scene")))
    assert result.status == "fixpoint"
    assert result.store.interval(key_kl("X")).hi == 3
    tree = explain(result, key_kl("X"), Side.HI)
    labels = [leaf.label for leaf in tree.leaves()]

    def present(fragment):
        return any(fragment in label for label in labels)

    assert present("cofiber(kl(X).att0, kl(X).step0, kl(X).stage1)")
    assert present("cofiber(kl(X).att1, kl(X).step1, kl(X).stage2)")
    assert present("cofiber(kl(X).att2, kl(X).step2, *)")
    assert present("member(A)")
    assert present("member(SA)")
    assert present("member(S2X)")
    print(PASS.format(num=6, name="certificate derives kl(X)=3 with cofiber+member leaves"))


def test_07_confluence_and_replay():
    for path in sorted(corpus_dir().glob("*.scene")):
        text = path.read_text(encoding="utf-8")
        baseline = run_text(text)
        assert replay(baseline.store.log).serialize() == baseline.store.serialize(), path.name
        for seed in range(20):
            shuffled = run_text(text, shuffle=random.Random(seed))
            if baseline.status == "fixpoint":
                assert shuffled.status == "fixpoint", (path.name, seed)
                assert shuffled.store.serialize() == baseline.store.serialize(), (
                    path.name, seed)
            else:
                # contradictions are order-robust; the poisoned partial
                # store is not canonical, the refutation itself is
                assert shuffled.status == baseline.status, (path.name, seed)
    print(PASS.format(num=7, name="confluence over 20 permutations + byte-identical replay"))


def test_08_guard_exhaustiveness():
    scene = parse_scene(PROBE_SCENE)
    table = {rule.id: rule.guard for rule in catalog()}
    for profile in all_profiles():
        elab = elaborate(scene._replace(profile=profile))
        fired = {inst.rule_id for inst in instantiate(elab)}
        expected = {rid for rid, guard in table.items() if guard <= profile.flags()}
        assert fired == expected, profile
    print(PASS.format(num=8, name="guard table exact over all 32 profiles"))


def test_09_parser_round_trip_and_diagnostics():
    from conebound.cli import main
    import io

    from conebound.parser import parse_scene as parse, render_scene

    for path in sorted(corpus_dir().glob("*.scene")):
        scene = parse(path.read_text(encoding="utf-8"))
        assert parse(render_scene(scene)) == scene, path.name

    malformed = [
        ("space X\nspace X\n", "line 2"),
        ("collection C { }\nbound cl(X) <= banana\n", "line 2"),
        ("collection C { }\nspace X\nmap f : X Y\n", "line 3"),
        ("collection C { }\nfact nonsense(X)\n", "line 2"),
        ("collection C { }\nspace X\nquery cl(X) extra\n", "line 3"),
    ]
    import tempfile
    from pathlib import Path

    for text, fragment in malformed:
        _, errors = try_parse_scene(text)
        assert errors, text
        with tempfile.TemporaryDirectory() as tmp:
            scene_path = Path(tmp) / "bad.scene"
            scene_path.write_text(text, encoding="utf-8")
            out, err = io.StringIO(), io.StringIO()
            code = main(["check", str(scene_path)], out=out, out_err=err)
            assert code == 2, text
            assert fragment in err.getvalue(), (text, err.getvalue())
    print(PASS.format(num=9, name="round-trip on corpus + positioned diagnostics, exit 2"))


def test_10_wedge_equality():
    result = saturate(elaborate(corpus_scene("wedge-equality.scene")))
    assert result.status == "fixpoint"
    lcat_w = query(result, key_Lcat("w"))
    assert lcat_w.interval == Interval(2, 2)
    assert lcat_w.lo_rule == "P72-B" and lcat_w.hi_rule == "P72-B"
    l_w = query(result, key_L("w"))
    assert l_w.interval.hi == 2  # == max(hi L(f), hi L(g))
    assert l_w.hi_rule == "P72-A"
    # no lower bound on L beyond the Lcat <= L relation
    assert l_w.lo_rule == "REL-CL"

    # conditional direction: the wedge's floor pushes into the undominated arm
    conditional = run_text(
        "collection W { wedges }\n"
        "space X, Y, X2, Y2, WX, WY\n"
        "map f : X -> Y\nmap g : X2 -> Y2\nmap w : WX -> WY\n"
        "fact wedge_space(WX, X, X2)\n"
        "fact wedge_space(WY, Y, Y2)\n"
        "fact wedge_map(w, f, g)\n"
        "bound Lcat(w) = 3\nbound Lcat(g) <= 1\n"
    )
    floor = conditional.store.justification_of(key_Lcat("f"), Side.LO)
    assert conditional.store.interval(key_Lcat("f")).lo == 3
    assert floor.rule_id == "P72-B"
    print(PASS.format(num=10, name="wedge equality both directions incl. conditional"))
