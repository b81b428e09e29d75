"""Elaboration: derived facts, membership closure, certificate expansion."""

import random

import pytest
from helpers import random_scene

from conebound.cli import corpus_dir
from conebound.elaborate import _CLOSURES, ElaborationError, elaborate, run_expansion_passes
from conebound.engine import saturate
from conebound.parser import parse_scene
from conebound.scene import FACT_SCHEMAS, Fact


def facts_of_kind(elab, kind):
    return [fact for _, fact in elab.facts_of(kind)]


def is_equiv(elab, map_id):
    return elab.has_fact(Fact("equiv", (map_id,)))


def test_single_map_gets_exactly_two_auto_compose_facts():
    elab = elaborate(parse_scene("collection C { }\nspace X, Y\nmap f : X -> Y\n"))
    composes = facts_of_kind(elab, "compose")
    assert len(composes) == 2
    rendered = {f.render() for f in composes}
    assert rendered == {
        "compose(init(Y), f, init(X))",
        "compose(term(X), term(Y), f)",
    }


def test_point_is_contractible_and_member():
    elab = elaborate(parse_scene("collection C { }\n"))
    assert is_equiv(elab, "init(*)")
    assert is_equiv(elab, "term(*)")
    assert "*" in elab.member_fact


def test_contractible_space_yields_equiv_canonical_maps():
    elab = elaborate(parse_scene("collection C { }\nspace X\nfact contractible(X)\n"))
    assert is_equiv(elab, "init(X)")
    assert is_equiv(elab, "term(X)")


def test_susp_space_expands_to_pushout_with_apex_base():
    elab = elaborate(parse_scene(
        "collection C { }\nspace B, S\nfact susp_space(S, B)\n"))
    pushouts = facts_of_kind(elab, "pushout")
    assert len(pushouts) == 1
    assert pushouts[0].args == ("B", "term(B)", "term(B)", "init(S)", "init(S)", "S.diag")
    assert elab.sig("S.diag") == ("B", "S")


def test_wedge_space_expands_to_pushout_over_point():
    elab = elaborate(parse_scene(
        "collection C { }\nspace X, Y, W\nfact wedge_space(W, X, Y)\n"))
    pushouts = facts_of_kind(elab, "pushout")
    assert len(pushouts) == 1
    assert pushouts[0].args == ("*", "init(X)", "init(Y)", "W.inl", "W.inr", "init(W)")


def test_membership_closure_suspensions():
    elab = elaborate(parse_scene(
        "collection C { suspensions }\n"
        "space A, SA, SSA\n"
        "fact member(A)\n"
        "fact susp_space(SA, A)\n"
        "fact susp_space(SSA, SA)\n"
    ))
    assert {"A", "SA", "SSA"} <= elab.member_fact.keys()


def test_membership_closure_wedges_needs_both_operands():
    elab = elaborate(parse_scene(
        "collection C { wedges }\n"
        "space A, B, W, V\n"
        "fact member(A)\n"
        "fact wedge_space(W, A, A)\n"
        "fact wedge_space(V, A, B)\n"
    ))
    assert "W" in elab.member_fact
    assert "V" not in elab.member_fact


def test_membership_closure_smash_ideal_takes_either_operand():
    elab = elaborate(parse_scene(
        "collection C { smash_ideal }\n"
        "space A, B, S\n"
        "fact member(A)\n"
        "fact smash_space(S, B, A)\n"
    ))
    assert "S" in elab.member_fact


def test_membership_closure_respects_flags():
    elab = elaborate(parse_scene(
        "collection C { }\n"
        "space A, SA\n"
        "fact member(A)\n"
        "fact susp_space(SA, A)\n"
    ))
    assert "SA" not in elab.member_fact


def test_top_down_suspension_tower_elaborates():
    # facts listed top-down: each sweep of the membership closure reaches
    # only one more level
    n = 1001
    text = "collection C { suspensions }\n"
    text += "space " + ", ".join(f"S{i}" for i in range(n + 1)) + "\n"
    text += "fact member(S0)\n"
    text += "".join(f"fact susp_space(S{i + 1}, S{i})\n" for i in reversed(range(n)))
    elab = elaborate(parse_scene(text))
    assert f"S{n}" in elab.member_fact
    assert run_expansion_passes(elab) is False


def _closure_scene(seed):
    rng = random.Random(seed)
    flags = rng.sample(["suspensions", "wedges", "joins", "smash_ideal"], rng.randint(1, 4))
    spaces = [f"A{i}" for i in range(12)]
    facts = [f"fact member({space})" for space in rng.sample(spaces, 2)]
    for target in rng.sample(spaces, 8):
        kind = rng.choice(["susp_space", "wedge_space", "join_space", "smash_space"])
        operands = rng.sample(spaces, 1 if kind == "susp_space" else 2)
        facts.append(f"fact {kind}({target}, {', '.join(operands)})")
    rng.shuffle(facts)
    return parse_scene(f"collection C {{ {', '.join(flags)} }}\nspace {', '.join(spaces)}\n"
                       + "\n".join(facts) + "\n")


def _sweep_marks(elab, members):
    """The membership closure as repeated sweeps, kept as the reference for
    the order in which the worklist must mark."""
    flags = elab.profile.flags()
    members, marks = set(members), []
    grew = True
    while grew:
        grew = False
        for flag, kind, test in _CLOSURES:
            if flag not in flags:
                continue
            for _, fact in elab.facts_of(kind):
                space, *operands = fact.args
                if space not in members and test(o in members for o in operands):
                    members.add(space)
                    marks.append(space)
                    grew = True
    return marks


def test_membership_worklist_marks_in_sweep_order():
    for seed in range(300):
        scene = _closure_scene(seed)
        elab = elaborate(scene)
        given = {"*"} | {f.args[0] for f in scene.facts if f.kind == "member"}
        marks = [fact.args[0] for fact, origin in zip(elab.facts, elab.origins)
                 if fact.kind == "member" and origin == "elab:member"]
        assert marks == ["*"] + _sweep_marks(elab, given), seed


def test_fact_order_does_not_change_elaboration():
    scenes = [parse_scene(path.read_text(encoding="utf-8"))
              for path in sorted(corpus_dir().glob("*.scene"))]
    scenes += [random_scene(seed) for seed in range(300)]
    for index, scene in enumerate(scenes):
        forward = elaborate(scene)
        backward = elaborate(scene._replace(facts=scene.facts[::-1]))
        assert set(forward.facts) == set(backward.facts), index
        assert (saturate(forward).store.serialize()
                == saturate(backward).store.serialize()), index


def test_all_spaces_marks_everything():
    elab = elaborate(parse_scene("collection C { all }\nspace X, Y\n"))
    assert {"X", "Y", "*"} <= elab.member_fact.keys()


def test_cert_expansion_structure():
    elab = elaborate(parse_scene(
        "collection Sigma { suspensions }\n"
        "space X, A, SA, S2X\n"
        "fact member(A)\n"
        "fact susp_space(SA, A)\n"
        "fact member(S2X)\n"
        "decomposition kl(X) via [A, SA, S2X]\n"
    ))
    cofibers = facts_of_kind(elab, "cofiber")
    assert [f.args for f in cofibers] == [
        ("kl(X).att0", "kl(X).step0", "kl(X).stage1"),
        ("kl(X).att1", "kl(X).step1", "kl(X).stage2"),
        ("kl(X).att2", "kl(X).step2", "*"),
    ]
    composes = {f.render() for f in facts_of_kind(elab, "compose")}
    assert "compose(kl(X).comp2, kl(X).step1, kl(X).step0)" in composes
    assert "compose(kl(X).comp3, kl(X).step2, kl(X).comp2)" in composes
    assert "compose(term(X), kl(X).final, kl(X).comp3)" in composes
    assert is_equiv(elab, "kl(X).final")


def test_category_cert_puts_section_and_domination():
    elab = elaborate(parse_scene(
        "collection C { }\n"
        "space X, A\n"
        "fact member(A)\n"
        "decomposition kit(X) via [A]\n"
    ))
    sections = facts_of_kind(elab, "section")
    assert [f.args for f in sections] == [("kit(X).sec", "kit(X).final")]
    dominations = facts_of_kind(elab, "dominates")
    assert [f.args for f in dominations] == [("kit(X).step0", "term(X)")]
    assert not is_equiv(elab, "kit(X).final")


def test_cert_unprovable_cone_membership_is_an_error():
    with pytest.raises(ElaborationError) as excinfo:
        elaborate(parse_scene(
            "collection C { }\n"
            "space X, A\n"
            "decomposition kl(X) via [A]\n"
        ))
    assert "not derivably in the collection" in str(excinfo.value)


def test_smash_decomp_expands_to_cofiber():
    elab = elaborate(parse_scene(
        "collection C { }\n"
        "space X, Y, W, P, S\n"
        "map u : W -> P\n"
        "map v : P -> S\n"
        "fact wedge_space(W, X, Y)\n"
        "fact product_space(P, X, Y)\n"
        "fact smash_space(S, X, Y)\n"
        "fact smash_decomp(X, Y, W, P, S)\n"
    ))
    cofibers = facts_of_kind(elab, "cofiber")
    assert [f.args for f in cofibers] == [("u", "v", "S")]


def test_smash_decomp_missing_prerequisites_is_an_error():
    with pytest.raises(ElaborationError) as excinfo:
        elaborate(parse_scene(
            "collection C { }\n"
            "space X, Y, W, P, S\n"
            "fact smash_decomp(X, Y, W, P, S)\n"
        ))
    assert "requires" in str(excinfo.value)


SMASH_WITH_CERT = (
    "collection C { all }\n"
    "space X, Y, W, P, S, Z\n"
    "map v : P -> S\n"
    "map g : P -> Z\n"
    "INCLUSION"
    "fact wedge_space(W, X, Y)\n"
    "fact product_space(P, X, Y)\n"
    "fact smash_space(S, X, Y)\n"
    "fact smash_decomp(X, Y, W, P, S)\n"
    "decomposition L(g) via [W]\n"
)


def test_smash_decomp_uses_the_declared_inclusion_beside_a_cert_map():
    # the certificate attaches W to P by a map W -> P of its own
    elab = elaborate(parse_scene(SMASH_WITH_CERT.replace("INCLUSION", "map u : W -> P\n")))
    assert ("u", "v", "S") in [f.args for f in facts_of_kind(elab, "cofiber")]


def test_smash_decomp_does_not_take_a_cert_map_as_inclusion():
    with pytest.raises(ElaborationError) as excinfo:
        elaborate(parse_scene(SMASH_WITH_CERT.replace("INCLUSION", "")))
    assert "needs unique declared maps W -> P" in str(excinfo.value)


def test_projection_needs_matching_product():
    with pytest.raises(ElaborationError) as excinfo:
        elaborate(parse_scene(
            "collection C { }\n"
            "space P, B\n"
            "map p : P -> B\n"
            "fact projection(p)\n"
        ))
    assert "declared product" in str(excinfo.value)


def test_product_map_needs_linkage():
    with pytest.raises(ElaborationError):
        elaborate(parse_scene(
            "collection C { }\n"
            "space A, B, X, Y, P, Q\n"
            "map f : A -> X\n"
            "map g : B -> Y\n"
            "map h : P -> Q\n"
            "fact product_map(h, f, g)\n"
        ))


@pytest.mark.parametrize("body, message", [
    ("map p : P -> A\nfact product_space(P, A, B)\nfact projection(p)\n",
     "projection(p): P must be a declared product with second factor A"),
    ("map f : A -> X\nmap g : B -> Y\nmap h : P -> Q\n"
     "fact product_space(P, A, B)\nfact product_map(h, f, g)\n",
     "product_map(h, f, g): domain and codomain of h must be declared products of the factors"),
    ("map f : A -> X\nmap g : B -> Y\nmap w : P -> Q\n"
     "fact wedge_space(P, A, B)\nfact wedge_space(Q, X, B)\nfact wedge_map(w, f, g)\n",
     "wedge_map(w, f, g): domain and codomain of w must be declared wedges of the operands"),
], ids=["projection-onto-first-factor", "product_map", "wedge_map"])
def test_cross_fact_errors_name_the_fact(body, message):
    with pytest.raises(ElaborationError) as excinfo:
        elaborate(parse_scene("collection C { wedges }\nspace A, B, X, Y, P, Q\n" + body))
    assert excinfo.value.messages == [message]


def test_many_products_with_projections_elaborate():
    # the cross-fact checks look products up by (product, second factor)
    # instead of scanning every product per projection
    n = 2000
    lines = ["collection C { joins }"]
    for i in range(n):
        lines += [f"space A{i}, B{i}, P{i}", f"map p{i} : P{i} -> B{i}",
                  f"fact product_space(P{i}, A{i}, B{i})", f"fact projection(p{i})"]
    elab = elaborate(parse_scene("\n".join(lines) + "\n"))
    assert len(facts_of_kind(elab, "projection")) == n


def test_pushout_map_alignment_checked():
    text = (
        "collection C { }\n"
        "space A, B, C2, D, A2, B2, C3, D2\n"
        "map f : A -> B\nmap g : A -> C2\nmap ib : B -> D\nmap ic : C2 -> D\nmap dg : A -> D\n"
        "map f2 : A2 -> B2\nmap g2 : A2 -> C3\nmap ib2 : B2 -> D2\nmap ic2 : C3 -> D2\nmap dg2 : A2 -> D2\n"
        "map va : A -> A2\nmap vb : B -> B2\nmap vc : C2 -> C3\nmap vd : D -> D2\n"
        "fact pushout(A, f, g, ib, ic, dg)\n"
        "fact pushout(A2, f2, g2, ib2, ic2, dg2)\n"
        "fact pushout_map(A, A2, va, vb, vc, vd)\n"
    )
    elab = elaborate(parse_scene(text))
    assert facts_of_kind(elab, "pushout_map")

    broken = text.replace("fact pushout(A2, f2, g2, ib2, ic2, dg2)\n", "")
    with pytest.raises(ElaborationError) as excinfo:
        elaborate(parse_scene(broken))
    assert "pushout_map" in str(excinfo.value)


def test_elaboration_is_idempotent():
    for text in (
        "collection C { all }\nspace X, Y\nmap f : X -> Y\n",
        "collection Sigma { suspensions }\nspace X, A, SA, S2X\n"
        "fact member(A)\nfact susp_space(SA, A)\nfact member(S2X)\n"
        "decomposition kl(X) via [A, SA, S2X]\n",
    ):
        elab = elaborate(parse_scene(text))
        before = len(elab.facts)
        assert run_expansion_passes(elab) is False
        assert len(elab.facts) == before


def test_elaboration_never_creates_unshaped_facts():
    elab = elaborate(parse_scene(
        "collection C { }\nspace B, S\nfact susp_space(S, B)\n"))
    for fact in elab.facts:
        for role, arg in zip(FACT_SCHEMAS[fact.kind], fact.args):
            if role == "space":
                assert arg in elab.spaces
            else:
                assert arg in elab.maps
