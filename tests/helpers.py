"""Shared scene builders for the test suite.

``probe_scene_text`` contains every fact kind and activates every catalog
rule under the full collection profile.  ``random_scene`` grows a valid
scene from coherent gadgets so that shape validation always passes while
the fact mix, profile, and asserted bounds vary freely.
"""

from __future__ import annotations

import random

from conebound.extnat import INF
from conebound.model import InvariantKey, Kind, init_map, term_map
from conebound.scene import (
    BoundDecl,
    CollectionProfile,
    Fact,
    MapDecl,
    QueryDecl,
    Scene,
)

PROBE_SCENE = """\
collection Probe { all }
space HX, HY, EX, EY, MA, MB, MC, MD
space CA, CB, CC
space KA, KB, KC, KA2, KB2, KC2
space OA, OB, OC, OD, OA2, OB2, OC2, OD2
space PX, PY, PP, PX2, PY2, PP2, WW, WW2, SM, JJ, SB0, SS
space DA, DB, DC, DD, SA2, SB2
space FE, FB, FF, QA, QB, QC, QD
space NX, NY, ZX, ZY
map hf : HX -> HY
map hg : HX -> HY
map e : EX -> EY
map me1 : MA -> MB
map me2 : MC -> MD
map cf : CA -> CB
map cg : CB -> CC
map ch : CA -> CC
map kf : KA -> KB
map kj : KB -> KC
map kf2 : KA2 -> KB2
map kj2 : KB2 -> KC2
map cal : KA -> KA2
map cbe : KB -> KB2
map cga : KC -> KC2
map of : OA -> OB
map og : OA -> OC
map oib : OB -> OD
map oic : OC -> OD
map od : OA -> OD
map of2 : OA2 -> OB2
map og2 : OA2 -> OC2
map oib2 : OB2 -> OD2
map oic2 : OC2 -> OD2
map od2 : OA2 -> OD2
map pva : OA -> OA2
map pvb : OB -> OB2
map pvc : OC -> OC2
map pvd : OD -> OD2
map dg : DA -> DB
map df : DC -> DD
map sf : SA2 -> SB2
map sg : SB2 -> SA2
map pmf : PX -> PX2
map pmg : PY -> PY2
map pm : PP -> PP2
map wm : WW -> WW2
map sdu : WW -> PP
map sdv : PP -> SM
map pr : PP -> PY
map fib : FE -> FB
map qab : QA -> QB
map qac : QA -> QC
map qbd : QB -> QD
map qcd : QC -> QD
map nl : NX -> NY
map pz : ZX -> ZY
fact homotopic(hf, hg)
fact equiv(e)
fact equiv_maps(me1, me2)
fact compose(ch, cg, cf)
fact cofiber(kf, kj, KC)
fact member(KA)
fact cofiber(kf2, kj2, KC2)
fact cofiber_map(kf, kf2, cal, cbe, cga)
fact contractible(EX)
fact pushout(OA, of, og, oib, oic, od)
fact pushout(OA2, of2, og2, oib2, oic2, od2)
fact pushout_map(OA, OA2, pva, pvb, pvc, pvd)
fact equiv(pva)
fact equiv(pvb)
fact equiv(pvc)
fact dominates(dg, df)
fact section(sf, sg)
fact product_space(PP, PX, PY)
fact product_space(PP2, PX2, PY2)
fact product_map(pm, pmf, pmg)
fact wedge_space(WW, PX, PY)
fact wedge_space(WW2, PX2, PY2)
fact wedge_map(wm, pmf, pmg)
fact susp_space(SS, SB0)
fact join_space(JJ, PX, PY)
fact smash_space(SM, PX, PY)
fact smash_decomp(PX, PY, WW, PP, SM)
fact member(PX)
fact projection(pr)
fact fibration(fib, FF)
fact pullback(QA, QB, QC, QD, qab, qac, qbd, qcd, FF)
fact null(nl)
fact pi0_not_onto(pz)
"""


def all_profiles() -> list[CollectionProfile]:
    """The 2^5 profile lattice; all_spaces=True collapses the closures."""
    out = []
    for bits in range(32):
        out.append(CollectionProfile(
            name=f"P{bits}",
            all_spaces=bool(bits & 1),
            wedges=bool(bits & 2),
            suspensions=bool(bits & 4),
            joins=bool(bits & 8),
            smash_ideal=bool(bits & 16),
        ))
    return out


class _Builder:
    def __init__(self, rng: random.Random, max_spaces: int = 8, max_maps: int = 12):
        self.rng = rng
        self.max_spaces = max_spaces
        self.max_maps = max_maps
        self.spaces: list[str] = []
        self.maps: list[MapDecl] = []
        self.facts: list[Fact] = []
        self.counter = 0

    def fresh(self, prefix: str) -> str:
        self.counter += 1
        return f"{prefix}{self.counter}"

    def can_add(self, spaces: int, maps: int) -> bool:
        return (len(self.spaces) + spaces <= self.max_spaces
                and len(self.maps) + maps <= self.max_maps)

    def space(self) -> str:
        name = self.fresh("Sp")
        self.spaces.append(name)
        return name

    def map(self, dom: str, cod: str) -> str:
        name = self.fresh("m")
        self.maps.append(MapDecl(name, dom, cod))
        return name

    def pick_space(self) -> str:
        return self.rng.choice(self.spaces)

    def pick_map(self) -> MapDecl:
        return self.rng.choice(self.maps)


def _gadget_plain(b: _Builder) -> None:
    if b.can_add(2, 1):
        x, y = b.space(), b.space()
        b.map(x, y)


def _gadget_simple_facts(b: _Builder) -> None:
    if not b.maps or not b.spaces:
        return
    kind = b.rng.choice(
        ["member", "contractible", "equiv", "equiv_maps", "dominates",
         "null", "homotopic", "pi0"])
    if kind == "member":
        b.facts.append(Fact("member", (b.pick_space(),)))
    elif kind == "contractible":
        b.facts.append(Fact("contractible", (b.pick_space(),)))
    elif kind == "equiv":
        b.facts.append(Fact("equiv", (b.pick_map().id,)))
    elif kind == "equiv_maps":
        b.facts.append(Fact("equiv_maps", (b.pick_map().id, b.pick_map().id)))
    elif kind == "dominates":
        b.facts.append(Fact("dominates", (b.pick_map().id, b.pick_map().id)))
    elif kind == "null":
        b.facts.append(Fact("null", (b.pick_map().id,)))
    elif kind == "homotopic":
        decl = b.pick_map()
        if b.can_add(0, 1):
            other = b.map(decl.dom, decl.cod)
            b.facts.append(Fact("homotopic", (decl.id, other)))
    elif kind == "pi0" and b.rng.random() < 0.3:
        b.facts.append(Fact("pi0_not_onto", (b.pick_map().id,)))


def _gadget_compose(b: _Builder) -> None:
    if not b.can_add(3, 3):
        return
    a, mid, c = b.space(), b.space(), b.space()
    f = b.map(a, mid)
    g = b.map(mid, c)
    h = b.map(a, c)
    b.facts.append(Fact("compose", (h, g, f)))


def _gadget_cofiber(b: _Builder) -> None:
    if not b.can_add(3, 2):
        return
    cone, total, cofib = b.space(), b.space(), b.space()
    f = b.map(cone, total)
    j = b.map(total, cofib)
    b.facts.append(Fact("cofiber", (f, j, cofib)))
    if b.rng.random() < 0.7:
        b.facts.append(Fact("member", (cone,)))


def _gadget_section(b: _Builder) -> None:
    if not b.can_add(2, 2):
        return
    a, c = b.space(), b.space()
    f = b.map(a, c)
    g = b.map(c, a)
    b.facts.append(Fact("section", (f, g)))


def _gadget_pushout(b: _Builder) -> None:
    if not b.can_add(4, 5):
        return
    apex, corner_b, corner_c, out = b.space(), b.space(), b.space(), b.space()
    f = b.map(apex, corner_b)
    g = b.map(apex, corner_c)
    ib = b.map(corner_b, out)
    ic = b.map(corner_c, out)
    diag = b.map(apex, out)
    b.facts.append(Fact("pushout", (apex, f, g, ib, ic, diag)))


def _gadget_composite_spaces(b: _Builder) -> None:
    kind = b.rng.choice(["susp_space", "wedge_space", "join_space", "smash_space"])
    if kind == "susp_space":
        if b.can_add(2, 0) or len(b.spaces) >= 2:
            if not b.can_add(2, 0):
                base, comp = b.pick_space(), b.pick_space()
            else:
                base, comp = b.space(), b.space()
            if base != comp:
                b.facts.append(Fact("susp_space", (comp, base)))
    else:
        if len(b.spaces) >= 3:
            comp, left, right = (b.pick_space() for _ in range(3))
            if comp not in (left, right):
                b.facts.append(Fact(kind, (comp, left, right)))


def _gadget_product_cluster(b: _Builder) -> None:
    if not b.can_add(3, 1):
        return
    x, y, p = b.space(), b.space(), b.space()
    b.facts.append(Fact("product_space", (p, x, y)))
    if b.rng.random() < 0.5:
        pr = b.map(p, y)
        b.facts.append(Fact("projection", (pr,)))
        if b.rng.random() < 0.7:
            b.facts.append(Fact("member", (x,)))


def _gadget_fibration(b: _Builder) -> None:
    if not b.can_add(3, 1):
        return
    total, base, fiber = b.space(), b.space(), b.space()
    p = b.map(total, base)
    b.facts.append(Fact("fibration", (p, fiber)))


def _gadget_pullback(b: _Builder) -> None:
    if not b.can_add(5, 4):
        return
    a, c2, d, b2, fiber = b.space(), b.space(), b.space(), b.space(), b.space()
    ab = b.map(a, b2)
    ac = b.map(a, c2)
    bd = b.map(b2, d)
    cd = b.map(c2, d)
    b.facts.append(Fact("pullback", (a, b2, c2, d, ab, ac, bd, cd, fiber)))


GADGETS = [
    _gadget_plain,
    _gadget_simple_facts,
    _gadget_simple_facts,
    _gadget_compose,
    _gadget_cofiber,
    _gadget_cofiber,
    _gadget_section,
    _gadget_pushout,
    _gadget_composite_spaces,
    _gadget_product_cluster,
    _gadget_fibration,
    _gadget_pullback,
]


def _random_profile(rng: random.Random) -> CollectionProfile:
    if rng.random() < 0.125:
        return CollectionProfile("R", all_spaces=True)
    return CollectionProfile(
        "R",
        wedges=rng.random() < 0.5,
        suspensions=rng.random() < 0.5,
        joins=rng.random() < 0.5,
        smash_ideal=rng.random() < 0.3,
    )


def random_scene(seed: int) -> Scene:
    rng = random.Random(seed)
    b = _Builder(rng)
    _gadget_plain(b)
    for _ in range(rng.randint(2, 7)):
        rng.choice(GADGETS)(b)

    bounds: list[BoundDecl] = []
    keys: list[InvariantKey] = []
    for decl in b.maps:
        keys.append(InvariantKey(decl.id, rng.choice(list(Kind))))
    for space in b.spaces:
        map_id = rng.choice([init_map, term_map])(space)
        keys.append(InvariantKey(map_id, rng.choice(list(Kind))))
    rng.shuffle(keys)
    for key in keys[: rng.randint(0, 4)]:
        rel = rng.choice(["<=", ">=", "="])
        value = INF if rng.random() < 0.1 else rng.randint(0, 4)
        bounds.append(BoundDecl(key, rel, value))

    queries = [QueryDecl(key) for key in keys[:2]]
    return Scene.build(_random_profile(rng), b.spaces, b.maps,
                       tuple(b.facts), tuple(bounds), tuple(queries))


def chain_scene(n: int) -> str:
    """X0 -> X1 -> ... -> Xn with L(fi) <= 1 and cl(X0) = 1, so cl(Xi) <= i + 1."""
    lines = ["collection Chain { suspensions }",
             "space " + ", ".join(f"X{i}" for i in range(n + 1))]
    lines += [f"map f{i} : X{i - 1} -> X{i}" for i in range(1, n + 1)]
    lines += [f"bound L(f{i}) <= 1" for i in range(1, n + 1)]
    lines += ["bound cl(X0) = 1"]
    return "\n".join(lines) + "\n"


def susp_tower_scene(n: int, seed: int = 1) -> str:
    """S(i) = susp(S(i-1)) and W(i) = W(i-1) v S(i) with W0 = S0 and
    member(S0), the fact lines in a seeded order."""
    facts = ["fact member(S0)"]
    for i in range(1, n + 1):
        facts.append(f"fact susp_space(S{i}, S{i - 1})")
        facts.append(f"fact wedge_space(W{i}, {'S0' if i == 1 else f'W{i - 1}'}, S{i})")
    random.Random(seed).shuffle(facts)
    lines = ["collection Tower { wedges, suspensions }",
             "space " + ", ".join([f"S{i}" for i in range(n + 1)]
                                  + [f"W{i}" for i in range(1, n + 1)])]
    return "\n".join(lines + facts) + "\n"
