"""Scene elaboration: canonical maps, derived facts, membership closure.

Elaboration only ever adds facts, maps and spaces.  It is one ordered
pass of six steps, each run once:

  (1) contractible(X) yields equiv(init(X)) and equiv(term(X));
  (2) wedge_space and susp_space expand to their defining pushout squares,
      synthesizing the inclusion maps deterministically;
  (3) smash_decomp expands to the cofiber sequence wedge -> product -> smash
      over the unique declared (or step 2) maps between those spaces;
  (4) decomposition certificates expand to staged cofiber sequences plus a
      compose chain tying the composite to the target map;
  (5) collection membership closes under the profile's closure flags;
  (6) for every declared or synthesized map f: X -> Y, the two canonical
      triangles compose(init(Y), f, init(X)) and compose(term(X), term(Y), f).

The order is forced by what each step reads.  Steps 1-3 read only user
facts and the maps that step 2 synthesizes, so a certificate's maps are
never taken for a smash inclusion.  Certificates add the stage spaces
that membership marks under ``all`` and maps that step 6 triangulates,
so they come before both.  No step reads a fact derived by a later
one.  Membership is the one step that reads its own output (a
suspension of a member is a member), so it alone runs a worklist until
nothing new is marked; the pass is a stratified program in the sense of
Abiteboul, Hull & Vianu, *Foundations of Databases*.

The result is idempotent: re-running the pass adds nothing new.
"""

from __future__ import annotations

import heapq

from .model import POINT, Kind, canonical_space, init_map, term_map
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
    """A scene closed under elaboration.  A fact is named by its index in
    ``facts`` (rendered ``F<index+1>``); saturation reads but never adds."""

    def __init__(self, profile: CollectionProfile,
                 bounds: tuple[BoundDecl, ...],
                 queries: tuple[QueryDecl, ...],
                 certs: tuple[DecompositionCert, ...]):
        self.profile = profile
        self.bounds = bounds
        self.queries = queries
        self.certs = certs
        self.spaces: list[str] = []
        self._space_set: set[str] = set()
        self.maps: dict[str, MapDecl] = {}
        self.facts: list[Fact] = []
        self.origins: list[str] = []
        self._fact_set: set[Fact] = set()
        self.by_kind: dict[str, list[int]] = {}  # kind -> its fact indices, ascending
        self.member_fact: dict[str, int] = {}  # member space -> its first member fact

    # -- registries ----------------------------------------------------------

    def add_space(self, space: str) -> None:
        if space in self._space_set:
            return
        self.spaces.append(space)
        self._space_set.add(space)
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

    def add_fact(self, fact: Fact, origin: str) -> None:
        """Append a fact unless structurally present."""
        if fact in self._fact_set:
            return
        idx = len(self.facts)
        self.facts.append(fact)
        self.origins.append(origin)
        self._fact_set.add(fact)
        self.by_kind.setdefault(fact.kind, []).append(idx)
        if fact.kind == "member":
            self.member_fact.setdefault(fact.args[0], idx)

    def facts_of(self, kind: str) -> list[tuple[int, Fact]]:
        """A new list of one kind's (index, fact), as elaboration adds facts."""
        return [(i, self.facts[i]) for i in self.by_kind.get(kind, [])]


def _expand_contractible(elab: ElaboratedScene) -> None:
    for _, fact in elab.facts_of("contractible"):
        space = fact.args[0]
        for m in (init_map(space), term_map(space)):
            elab.add_fact(Fact("equiv", (m,)), "elab:contractible")


def _expand_pushouts(elab: ElaboratedScene) -> None:
    for _, fact in elab.facts_of("wedge_space"):
        wedge, left, right = fact.args
        inl = MapDecl(f"{wedge}.inl", left, wedge)
        inr = MapDecl(f"{wedge}.inr", right, wedge)
        elab.add_map(inl)
        elab.add_map(inr)
        pushout = Fact(
            "pushout",
            (POINT, init_map(left), init_map(right), inl.id, inr.id, init_map(wedge)),
        )
        elab.add_fact(pushout, "elab:wedge")
    for _, fact in elab.facts_of("susp_space"):
        susp, base = fact.args
        diag = MapDecl(f"{susp}.diag", base, susp)
        elab.add_map(diag)
        pushout = Fact(
            "pushout",
            (base, term_map(base), term_map(base), init_map(susp), init_map(susp), diag.id),
        )
        elab.add_fact(pushout, "elab:susp")


def _expand_smash(elab: ElaboratedScene, errors: list[str]) -> None:
    """Add the cofiber sequence wedge -> product -> smash of each
    smash_decomp fact, or report why it cannot be formed."""
    decomps = elab.facts_of("smash_decomp")
    between: dict[tuple[str, str], list[str]] = {}  # (dom, cod) -> declared or step 2 maps
    if decomps:
        for m in elab.maps.values():
            if canonical_space(m.id) is None:
                between.setdefault((m.dom, m.cod), []).append(m.id)
    for _, fact in decomps:
        x, y, wedge, prod, smash = fact.args
        needed = [
            Fact("wedge_space", (wedge, x, y)),
            Fact("product_space", (prod, x, y)),
            Fact("smash_space", (smash, x, y)),
        ]
        missing = [n.render() for n in needed if not elab.has_fact(n)]
        if missing:
            errors.append(f"smash_decomp({', '.join(fact.args)}) requires {', '.join(missing)}")
            continue
        incl = between.get((wedge, prod), ())
        quot = between.get((prod, smash), ())
        if len(incl) != 1 or len(quot) != 1:
            errors.append(f"smash_decomp({', '.join(fact.args)}) needs unique declared maps "
                          f"{wedge} -> {prod} and {prod} -> {smash}")
            continue
        elab.add_fact(Fact("cofiber", (incl[0], quot[0], smash)), "elab:smash")


# (closure flag, composite space fact, whether all or any of its operands
# must be members); the composite is the fact's first argument
_CLOSURES = (
    ("suspensions", "susp_space", all),
    ("wedges", "wedge_space", all),
    ("joins", "join_space", all),
    ("smash_ideal", "smash_space", any),
)


def _membership_closure(elab: ElaboratedScene) -> None:
    """Mark members under the profile's closure flags.

    The marks, and so the order of the member facts, are those of
    sweeping the composite facts (closure by closure, each in fact order)
    until a sweep marks nothing.  A worklist keyed by operand finds them
    without sweeping: a space marked at position q of sweep s is first
    seen by the fact at position p in sweep s if q < p, else in sweep
    s + 1, so each fact's sweep follows from its operands' marks.  Marks
    are taken off a heap in (sweep, position) order, and every fact is
    looked at once per operand.
    """
    flags = elab.profile.flags()
    spaces: list[str] = []  # the composite of each fact, in sweep order
    unmarked: list[int] = []  # how many more operands each fact needs
    sweep_of: list[int] = []  # the first sweep in which each fact's test holds
    waiting: dict[str, list[int]] = {}  # operand -> positions of its facts
    for flag, kind, test in _CLOSURES:
        if flag not in flags:
            continue
        for _, fact in elab.facts_of(kind):
            space, *operands = fact.args
            operands = list(dict.fromkeys(operands))
            for operand in operands:
                waiting.setdefault(operand, []).append(len(spaces))
            spaces.append(space)
            unmarked.append(len(operands) if test is all else 1)
            sweep_of.append(1)
    heap: list[tuple[int, int]] = []

    def marked(space: str, sweep: int, position: int) -> None:
        for p in waiting.get(space, ()):
            if unmarked[p] == 0:
                continue  # an ``any`` fact that another operand queued
            sweep_of[p] = max(sweep_of[p], sweep if position < p else sweep + 1)
            unmarked[p] -= 1
            if unmarked[p] == 0:
                heapq.heappush(heap, (sweep_of[p], p))

    def mark(space: str) -> None:
        elab.add_fact(Fact("member", (space,)), "elab:member")

    mark(POINT)
    if elab.profile.all_spaces:
        for space in elab.spaces:
            mark(space)
    for space in elab.member_fact:
        marked(space, 1, -1)  # members before the first sweep
    while heap:
        sweep, p = heapq.heappop(heap)
        if spaces[p] not in elab.member_fact:
            mark(spaces[p])
            marked(spaces[p], sweep, p)


def _expand_cert(elab: ElaboratedScene, cert: DecompositionCert, errors: list[str]) -> None:
    target = cert.target
    if target.map_id not in elab.maps:
        errors.append(f"decomposition target {target.surface()} is not a known map")
        return
    dom, cod = elab.sig(target.map_id)
    n = len(cert.cone_spaces)
    prefix = target.surface()

    stages = [f"{prefix}.stage{i}" for i in range(1, n)]
    if target.kind is Kind.CONE_LENGTH:
        # the final comparison map is an equivalence, so the chain may end
        # at the codomain itself
        chain = [dom, *stages, cod]
    else:
        # a category decomposition only retracts onto the codomain; gluing
        # the top stage to it would smuggle in cone-length facts
        stages.append(f"{prefix}.stage{n}")
        chain = [dom, *stages]
    for stage in stages:
        elab.add_space(stage)

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


def _auto_compose(elab: ElaboratedScene) -> None:
    for decl in elab.maps.values():
        if canonical_space(decl.id) is not None:
            continue
        elab.add_fact(Fact("compose", (init_map(decl.cod), decl.id, init_map(decl.dom))),
                      "elab:compose")
        elab.add_fact(Fact("compose", (term_map(decl.dom), term_map(decl.cod), decl.id)),
                      "elab:compose")


def _validate_cross_facts(elab: ElaboratedScene, errors: list[str]) -> None:
    products = {f.args for _, f in elab.facts_of("product_space")}
    wedges = {f.args for _, f in elab.facts_of("wedge_space")}
    for kind, spaces, what in (("product_map", products, "products of the factors"),
                               ("wedge_map", wedges, "wedges of the operands")):
        for _, fact in elab.facts_of(kind):
            h, f, g = fact.args
            (hd, hc), (fd, fc), (gd, gc) = elab.sig(h), elab.sig(f), elab.sig(g)
            if (hd, fd, gd) not in spaces or (hc, fc, gc) not in spaces:
                errors.append(f"{kind}({h}, {f}, {g}): domain and codomain of {h} must be "
                              f"declared {what}")
    by_second = {(prod, second) for prod, _, second in products}
    for _, fact in elab.facts_of("projection"):
        p = fact.args[0]
        pd, pc = elab.sig(p)
        if (pd, pc) not in by_second:
            errors.append(
                f"projection({p}): {pd} must be a declared product with second factor {pc}"
            )
    pushouts: dict[str, list[Fact]] = {}  # apex -> its pushout facts
    for _, fact in elab.facts_of("pushout"):
        pushouts.setdefault(fact.args[0], []).append(fact)
    for _, fact in elab.facts_of("pushout_map"):
        apex, apex2, a, b, c, d = fact.args
        if not _pushout_pair_exists(elab, pushouts, fact):
            errors.append(
                f"pushout_map({', '.join(fact.args)}): no pair of pushout facts with "
                f"apexes {apex} and {apex2} aligns with the verticals"
            )
    cofibers: dict[str, Fact] = {}  # first map -> its first cofiber fact
    for _, fact in elab.facts_of("cofiber"):
        cofibers.setdefault(fact.args[0], fact)
    for _, fact in elab.facts_of("cofiber_map"):
        f, f2, al, be, ga = fact.args
        seq = cofibers.get(f)
        seq2 = cofibers.get(f2)
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


def _pushout_pair_exists(elab: ElaboratedScene, pushouts: dict[str, list[Fact]],
                         fact: Fact) -> bool:
    apex, apex2, a, b, c, d = fact.args
    for po in pushouts.get(apex, ()):
        for po2 in pushouts.get(apex2, ()):
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
    _expand(elab, errors)
    for cert in elab.certs:
        for cone in cert.cone_spaces:
            if cone not in elab.member_fact:
                errors.append(
                    f"decomposition {cert.target.surface()}: cone space {cone!r} "
                    f"is not derivably in the collection"
                )
    _validate_cross_facts(elab, errors)
    if errors:
        raise ElaborationError(errors)
    return elab


def _expand(elab: ElaboratedScene, errors: list[str]) -> None:
    """Run each derivation step once, in an order in which every step
    comes after the steps whose output it reads."""
    _expand_contractible(elab)
    _expand_pushouts(elab)
    _expand_smash(elab, errors)
    for cert in elab.certs:
        _expand_cert(elab, cert, errors)
    _membership_closure(elab)
    _auto_compose(elab)


def run_expansion_passes(elab: ElaboratedScene) -> bool:
    """Re-run the derivation steps once; True if a new fact appeared.

    Exposed for the idempotence property: on an elaborated scene every
    step is a no-op, including re-expanding certificates from scratch.
    """
    errors: list[str] = []
    before = len(elab.facts)
    _expand(elab, errors)
    if errors:
        raise ElaborationError(errors)
    return len(elab.facts) != before
