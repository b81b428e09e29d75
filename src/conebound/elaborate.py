"""Scene elaboration: canonical maps, derived facts, membership closure.

Elaboration is a fact-level fixpoint that only ever adds:

  (a) for every declared or synthesized map f: X -> Y, the two canonical
      triangles compose(init(Y), f, init(X)) and compose(term(X), term(Y), f);
  (b) contractible(X) yields equiv(init(X)) and equiv(term(X));
  (c) wedge_space and susp_space expand to their defining pushout squares,
      synthesizing the inclusion maps deterministically;
  (d) smash_decomp expands to the cofiber sequence wedge -> product -> smash
      over user-declared maps;
  (e) collection membership closes under the profile's closure flags;
  (f) decomposition certificates expand to staged cofiber sequences plus a
      compose chain tying the composite to the target map.

The result is idempotent: re-running the passes adds nothing new.
"""

from __future__ import annotations

from typing import Optional, Union

from .model import POINT, Justification, Kind, canonical_space, init_map, term_map
from .scene import (
    BoundDecl,
    CollectionProfile,
    DecompositionCert,
    Fact,
    MapDecl,
    QueryDecl,
    Scene,
)

ORIGIN_USER = "user"


class ElaborationError(Exception):
    def __init__(self, messages: list[str]):
        super().__init__("; ".join(messages))
        self.messages = messages


class ElaboratedScene:
    """A scene closed under elaboration, with ids on every fact."""

    def __init__(self, profile: CollectionProfile,
                 bounds: tuple[BoundDecl, ...],
                 queries: tuple[QueryDecl, ...],
                 certs: tuple[DecompositionCert, ...]):
        self.profile = profile
        self.bounds = bounds
        self.queries = queries
        self.certs = certs
        self.spaces: list[str] = []
        self.maps: dict[str, MapDecl] = {}
        self.facts: list[Fact] = []
        self.origins: list[str] = []
        self._fact_set: set[Fact] = set()
        self._by_kind: dict[str, list[int]] = {}
        self.members: set[str] = set()
        self.member_fact: dict[str, str] = {}
        self.equivs: set[str] = set()
        self.equiv_fact: dict[str, str] = {}
        # provenance of facts derived at saturation time (rule id P7-EQ)
        self.fact_provenance: dict[str, Justification] = {}

    # -- registries ----------------------------------------------------------

    def add_space(self, space: str) -> None:
        if space in self.spaces:
            return
        self.spaces.append(space)
        self.maps[init_map(space)] = MapDecl(init_map(space), POINT, space)
        self.maps[term_map(space)] = MapDecl(term_map(space), space, POINT)

    def add_map(self, decl: MapDecl) -> None:
        existing = self.maps.get(decl.id)
        if existing is not None:
            if existing != decl:
                raise ElaborationError(
                    [f"map {decl.id!r} synthesized twice with different shapes"])
            return
        self.maps[decl.id] = decl

    def sig(self, map_id: str) -> tuple[str, str]:
        return self.maps[map_id].dom, self.maps[map_id].cod

    def has_fact(self, fact: Fact) -> bool:
        return fact in self._fact_set

    def add_fact(self, fact: Fact, origin: str) -> Optional[str]:
        """Append a fact unless structurally present; returns its id if new."""
        if fact in self._fact_set:
            return None
        self.facts.append(fact)
        self.origins.append(origin)
        self._fact_set.add(fact)
        idx = len(self.facts) - 1
        fid = self.fact_id(idx)
        self._by_kind.setdefault(fact.kind, []).append(idx)
        if fact.kind == "member":
            self.members.add(fact.args[0])
            self.member_fact.setdefault(fact.args[0], fid)
        elif fact.kind == "equiv":
            self.equivs.add(fact.args[0])
            self.equiv_fact.setdefault(fact.args[0], fid)
        return fid

    @staticmethod
    def fact_id(index: int) -> str:
        return f"F{index + 1}"

    def facts_of(self, kind: str) -> list[tuple[str, Fact]]:
        return [(self.fact_id(i), self.facts[i]) for i in self._by_kind.get(kind, [])]

    def describe_fact(self, fact_id: str) -> str:
        idx = int(fact_id[1:]) - 1
        return self.facts[idx].render()

    def fact_origin(self, fact_id: str) -> str:
        idx = int(fact_id[1:]) - 1
        return self.origins[idx]


def _expand_contractible(elab: ElaboratedScene) -> bool:
    changed = False
    for _, fact in list(elab.facts_of("contractible")):
        space = fact.args[0]
        for m in (init_map(space), term_map(space)):
            if elab.add_fact(Fact("equiv", (m,)), "elab:contractible") is not None:
                changed = True
    return changed


def _expand_pushouts(elab: ElaboratedScene) -> bool:
    changed = False
    for _, fact in list(elab.facts_of("wedge_space")):
        wedge, left, right = fact.args
        inl = MapDecl(f"{wedge}.inl", left, wedge)
        inr = MapDecl(f"{wedge}.inr", right, wedge)
        elab.add_map(inl)
        elab.add_map(inr)
        pushout = Fact(
            "pushout",
            (POINT, init_map(left), init_map(right), inl.id, inr.id, init_map(wedge)),
        )
        if elab.add_fact(pushout, "elab:wedge") is not None:
            changed = True
    for _, fact in list(elab.facts_of("susp_space")):
        susp, base = fact.args
        diag = MapDecl(f"{susp}.diag", base, susp)
        elab.add_map(diag)
        pushout = Fact(
            "pushout",
            (base, term_map(base), term_map(base), init_map(susp), init_map(susp), diag.id),
        )
        if elab.add_fact(pushout, "elab:susp") is not None:
            changed = True
    return changed


def _expand_smash(elab: ElaboratedScene) -> bool:
    changed = False
    for _, fact in list(elab.facts_of("smash_decomp")):
        maps = _smash_maps(elab, fact)
        if isinstance(maps, str):
            continue  # reported by _validate_smash
        if elab.add_fact(Fact("cofiber", (*maps, fact.args[4])), "elab:smash") is not None:
            changed = True
    return changed


def _validate_smash(elab: ElaboratedScene, errors: list[str]) -> None:
    for _, fact in elab.facts_of("smash_decomp"):
        maps = _smash_maps(elab, fact)
        if isinstance(maps, str):
            errors.append(maps)


def _smash_maps(elab: ElaboratedScene, fact: Fact) -> Union[tuple[str, str], str]:
    """The inclusion wedge -> product and the quotient product -> smash of
    a smash_decomp fact, or the text of the error that prevents them."""
    x, y, wedge, prod, smash = fact.args
    needed = [
        Fact("wedge_space", (wedge, x, y)),
        Fact("product_space", (prod, x, y)),
        Fact("smash_space", (smash, x, y)),
    ]
    missing = [n.render() for n in needed if not elab.has_fact(n)]
    if missing:
        return f"smash_decomp({', '.join(fact.args)}) requires {', '.join(missing)}"
    incl = _unique_map(elab, wedge, prod)
    quot = _unique_map(elab, prod, smash)
    if incl is None or quot is None:
        return (f"smash_decomp({', '.join(fact.args)}) needs unique declared maps "
                f"{wedge} -> {prod} and {prod} -> {smash}")
    return incl, quot


def _unique_map(elab: ElaboratedScene, dom: str, cod: str) -> Optional[str]:
    found = [
        m.id for m in elab.maps.values()
        if m.dom == dom and m.cod == cod and canonical_space(m.id) is None
    ]
    return found[0] if len(found) == 1 else None


def _membership_closure(elab: ElaboratedScene) -> bool:
    profile = elab.profile
    changed = False

    def mark(space: str) -> None:
        nonlocal changed
        if elab.add_fact(Fact("member", (space,)), "elab:member") is not None:
            changed = True

    mark(POINT)
    if profile.all_spaces:
        for space in list(elab.spaces):
            mark(space)
    if profile.suspensions:
        for _, fact in elab.facts_of("susp_space"):
            susp, base = fact.args
            if base in elab.members:
                mark(susp)
    if profile.wedges:
        for _, fact in elab.facts_of("wedge_space"):
            wedge, left, right = fact.args
            if left in elab.members and right in elab.members:
                mark(wedge)
    if profile.joins:
        for _, fact in elab.facts_of("join_space"):
            join, left, right = fact.args
            if left in elab.members and right in elab.members:
                mark(join)
    if profile.smash_ideal:
        for _, fact in elab.facts_of("smash_space"):
            smash, left, right = fact.args
            if left in elab.members or right in elab.members:
                mark(smash)
    return changed


def _expand_certs(elab: ElaboratedScene, expanded: set[int], errors: list[str]) -> bool:
    before = len(elab.facts)
    for idx, cert in enumerate(elab.certs):
        if idx not in expanded:
            expanded.add(idx)
            _expand_one_cert(elab, cert, errors)
    return len(elab.facts) != before


def _expand_one_cert(elab: ElaboratedScene, cert: DecompositionCert,
                     errors: list[str]) -> None:
    target = cert.target
    if target.map_id not in elab.maps:
        errors.append(f"decomposition target {target.surface()} is not a known map")
        return
    dom, cod = elab.sig(target.map_id)
    n = len(cert.cone_spaces)
    prefix = target.surface()

    stages = []
    for i in range(1, n):
        name = f"{prefix}.stage{i}"
        elab.add_space(name)
        stages.append(name)

    if target.kind is Kind.CONE_LENGTH:
        # the final comparison map is an equivalence, so the chain may end
        # at the codomain itself
        top = cod
    else:
        # a category decomposition only retracts onto the codomain; gluing
        # the top stage to it would smuggle in cone-length facts
        top = f"{prefix}.stage{n}"
        elab.add_space(top)
    chain = [dom] + stages + [top]

    steps: list[str] = []
    for i in range(n):
        att = MapDecl(f"{prefix}.att{i}", cert.cone_spaces[i], chain[i])
        step = MapDecl(f"{prefix}.step{i}", chain[i], chain[i + 1])
        elab.add_map(att)
        elab.add_map(step)
        steps.append(step.id)
        elab.add_fact(Fact("cofiber", (att.id, step.id, chain[i + 1])), "elab:cert")

    composite = steps[0]
    for k in range(2, n + 1):
        comp = MapDecl(f"{prefix}.comp{k}", dom, chain[k])
        elab.add_map(comp)
        elab.add_fact(Fact("compose", (comp.id, steps[k - 1], composite)), "elab:cert")
        composite = comp.id

    final = MapDecl(f"{prefix}.final", chain[-1], cod)
    elab.add_map(final)
    elab.add_fact(Fact("compose", (target.map_id, final.id, composite)), "elab:cert")
    if target.kind is Kind.CONE_LENGTH:
        elab.add_fact(Fact("equiv", (final.id,)), "elab:cert")
    else:
        sec = MapDecl(f"{prefix}.sec", cod, chain[-1])
        elab.add_map(sec)
        elab.add_fact(Fact("section", (sec.id, final.id)), "elab:cert")
        elab.add_fact(Fact("dominates", (composite, target.map_id)), "elab:cert")


def _auto_compose(elab: ElaboratedScene) -> bool:
    changed = False
    for decl in list(elab.maps.values()):
        if canonical_space(decl.id) is not None:
            continue
        left = Fact("compose", (init_map(decl.cod), decl.id, init_map(decl.dom)))
        right = Fact("compose", (term_map(decl.dom), term_map(decl.cod), decl.id))
        if elab.add_fact(left, "elab:compose") is not None:
            changed = True
        if elab.add_fact(right, "elab:compose") is not None:
            changed = True
    return changed


def _validate_cross_facts(elab: ElaboratedScene, errors: list[str]) -> None:
    productions = [(f.args[0], f.args[1], f.args[2]) for _, f in elab.facts_of("product_space")]
    wedges = [(f.args[0], f.args[1], f.args[2]) for _, f in elab.facts_of("wedge_space")]

    for _, fact in elab.facts_of("product_map"):
        h, f, g = fact.args
        hd, hc = elab.sig(h)
        fd, fc = elab.sig(f)
        gd, gc = elab.sig(g)
        if (hd, fd, gd) not in productions or (hc, fc, gc) not in productions:
            errors.append(
                f"product_map({h}, {f}, {g}): domain and codomain of {h} must be "
                f"declared products of the factors"
            )
    for _, fact in elab.facts_of("wedge_map"):
        w, f, g = fact.args
        wd, wc = elab.sig(w)
        fd, fc = elab.sig(f)
        gd, gc = elab.sig(g)
        if (wd, fd, gd) not in wedges or (wc, fc, gc) not in wedges:
            errors.append(
                f"wedge_map({w}, {f}, {g}): domain and codomain of {w} must be "
                f"declared wedges of the operands"
            )
    for _, fact in elab.facts_of("projection"):
        p = fact.args[0]
        pd, pc = elab.sig(p)
        if not any(prod == pd and second == pc for prod, _, second in productions):
            errors.append(
                f"projection({p}): {pd} must be a declared product with second factor {pc}"
            )
    pushouts = [f for _, f in elab.facts_of("pushout")]
    for _, fact in elab.facts_of("pushout_map"):
        apex, apex2, a, b, c, d = fact.args
        if not _pushout_pair_exists(elab, pushouts, fact):
            errors.append(
                f"pushout_map({', '.join(fact.args)}): no pair of pushout facts with "
                f"apexes {apex} and {apex2} aligns with the verticals"
            )
    for _, fact in elab.facts_of("cofiber_map"):
        f, f2, al, be, ga = fact.args
        seq = _cofiber_of(elab, f)
        seq2 = _cofiber_of(elab, f2)
        if seq is None or seq2 is None:
            errors.append(f"cofiber_map({', '.join(fact.args)}): {f} and {f2} must open cofiber facts")
            continue
        ok = (
            elab.sig(al) == (elab.sig(f)[0], elab.sig(f2)[0])
            and elab.sig(be) == (elab.sig(f)[1], elab.sig(f2)[1])
            and elab.sig(ga) == (seq.args[2], seq2.args[2])
        )
        if not ok:
            errors.append(f"cofiber_map({', '.join(fact.args)}) is not shape-consistent")


def _pushout_pair_exists(elab: ElaboratedScene, pushouts: list[Fact], fact: Fact) -> bool:
    apex, apex2, a, b, c, d = fact.args
    for po in pushouts:
        if po.args[0] != apex:
            continue
        for po2 in pushouts:
            if po2.args[0] != apex2:
                continue
            corners = (
                elab.sig(po.args[1])[1], elab.sig(po.args[2])[1], elab.sig(po.args[3])[1],
            )
            corners2 = (
                elab.sig(po2.args[1])[1], elab.sig(po2.args[2])[1], elab.sig(po2.args[3])[1],
            )
            ok = (
                elab.sig(b) == (corners[0], corners2[0])
                and elab.sig(c) == (corners[1], corners2[1])
                and elab.sig(d) == (corners[2], corners2[2])
            )
            if ok:
                return True
    return False


def _cofiber_of(elab: ElaboratedScene, first_map: str) -> Optional[Fact]:
    for _, fact in elab.facts_of("cofiber"):
        if fact.args[0] == first_map:
            return fact
    return None


def elaborate(scene: Scene) -> ElaboratedScene:
    """Close a scene under the derived-fact rules; raises ElaborationError."""
    elab = ElaboratedScene(scene.profile, scene.bounds, scene.queries, scene.certs)
    elab.add_space(POINT)
    for space in scene.spaces:
        elab.add_space(space)
    for decl in scene.maps:
        elab.add_map(decl)
    elab.add_fact(Fact("contractible", (POINT,)), "elab:point")
    for fact in scene.facts:
        elab.add_fact(fact, ORIGIN_USER)

    errors: list[str] = []
    expanded_certs: set[int] = set()
    guard = 0
    while _expansion_pass(elab, expanded_certs, errors):
        guard += 1
        if guard > 1000:
            raise ElaborationError(["elaboration failed to stabilize"])

    for cert in elab.certs:
        for cone in cert.cone_spaces:
            if cone not in elab.members:
                errors.append(
                    f"decomposition {cert.target.surface()}: cone space {cone!r} "
                    f"is not derivably in the collection"
                )
    _validate_smash(elab, errors)
    _validate_cross_facts(elab, errors)
    if errors:
        raise ElaborationError(errors)
    return elab


def _expansion_pass(elab: ElaboratedScene, expanded_certs: set[int],
                    errors: list[str]) -> bool:
    """Run every fact pass once; True if a new fact appeared.

    Certificates whose index is in ``expanded_certs`` are skipped; the
    others are expanded and added to it.
    """
    changed = _expand_contractible(elab)
    changed |= _expand_pushouts(elab)
    changed |= _expand_smash(elab)
    changed |= _membership_closure(elab)
    changed |= _expand_certs(elab, expanded_certs, errors)
    changed |= _auto_compose(elab)
    return changed


def run_expansion_passes(elab: ElaboratedScene) -> bool:
    """Re-run the fact passes once; True if anything new appeared.

    Exposed for the idempotence property: on an elaborated scene every
    pass is a no-op, including re-expanding certificates from scratch.
    """
    errors: list[str] = []
    changed = _expansion_pass(elab, set(), errors)
    if errors:
        raise ElaborationError(errors)
    return changed
