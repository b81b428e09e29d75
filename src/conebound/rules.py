"""The rule catalog: guarded inequality schemas over the bound store.

Each rule matches fact shapes in an elaborated scene and contributes
structured conclusions.  Firing turns conclusions into meet updates; every
additive upper bound additionally yields its sound rearranged lower
bounds (p <= q + r gives lo(q) >= lo(p) - hi(r), truncated), and every
multiplicative bound of the shape p + 1 <= (q+1)(r+1) yields the ceiling
division rearrangements.  Rearrangement can be switched off
diagnostically; the conclusions listed per rule are its direct content.

Rule ids are stable public strings that appear in traces and golden
files.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterator, Optional, Sequence, Union

from . import model
from .elaborate import ElaboratedScene
from .extnat import INF, ExtNat, ext_ceil_div, ext_monus, ext_mul
from .model import BoundStore, InvariantKey, Justification, Premise, Side
from .scene import Fact

# Every key the catalog names is built by one of these.  Each remembers its
# keys until ``instantiate`` returns, so the thousands of instances that
# name one key share one object instead of each holding a copy.
_KEY_BUILDERS = tuple(lru_cache(maxsize=None)(build) for build in (
    model.key_L, model.key_Lcat, model.key_cl, model.key_cat, model.key_kl, model.key_kit))
key_L, key_Lcat, key_cl, key_cat, key_kl, key_kit = _KEY_BUILDERS

# -- conclusion shapes ---------------------------------------------------------
# Each shape's ``compile(slot)`` gives the step that ``fire`` evaluates: the
# shape's class, then its fields in order with every key replaced by
# ``slot(key)``.

Slot = Callable[[InvariantKey], int]


@dataclass(frozen=True)
class UpperSum:
    """hi(target) <= sum(adds) + max(maxes) + const.

    Rearrangement emits, for each summed term t,
    lo(t) >= lo(target) - (other adds + max part + const).
    The max operands admit no sound individual lower bound.
    The bound and its rearrangements hold only while hi(g) = 0 for every
    gate g: hi L(m) = 0 is how the store says that m is an equivalence.
    """

    target: InvariantKey
    adds: tuple[InvariantKey, ...] = ()
    maxes: tuple[InvariantKey, ...] = ()
    const: int = 0
    gates: tuple[InvariantKey, ...] = ()

    def compile(self, slot: Slot) -> tuple:
        return (UpperSum, slot(self.target), tuple(map(slot, self.adds)),
                tuple(map(slot, self.maxes)), self.const, tuple(map(slot, self.gates)))


@dataclass(frozen=True)
class UpperProd:
    """Multiplicative upper bound from a fibration-style product.

    minus_one=True:  hi(target) <= (hi(left)+1) * (hi(right)+1) - 1
    minus_one=False: hi(target) <=  hi(left) * (hi(right)+1)

    Both shapes imply target+1 <= (left+1)(right+1), which backs the
    ceiling-division lower bounds on left and right.
    """

    target: InvariantKey
    left: InvariantKey
    right: InvariantKey
    minus_one: bool = True

    def compile(self, slot: Slot) -> tuple:
        return (UpperProd, slot(self.target), slot(self.left), slot(self.right),
                self.minus_one)


@dataclass(frozen=True)
class Unify:
    """interval(a) == interval(b): both sides meet both ways."""

    a: InvariantKey
    b: InvariantKey

    def compile(self, slot: Slot) -> tuple:
        return (Unify, slot(self.a), slot(self.b))


@dataclass(frozen=True)
class LowerMonus:
    """lo(target) >= lo(base) - (sum of hi(subs) + const), truncated."""

    target: InvariantKey
    base: InvariantKey
    subs: tuple[InvariantKey, ...] = ()
    const: int = 0

    def compile(self, slot: Slot) -> tuple:
        return (LowerMonus, slot(self.target), slot(self.base), tuple(map(slot, self.subs)),
                self.const)


@dataclass(frozen=True)
class LowerMax:
    """lo(target) >= max over lo(sources)."""

    target: InvariantKey
    sources: tuple[InvariantKey, ...]

    def compile(self, slot: Slot) -> tuple:
        return (LowerMax, slot(self.target), tuple(map(slot, self.sources)))


@dataclass(frozen=True)
class LowerInf:
    """lo(target) = inf."""

    target: InvariantKey

    def compile(self, slot: Slot) -> tuple:
        return (LowerInf, slot(self.target))


@dataclass(frozen=True)
class CondLower:
    """If hi(gate) < lo(floor) then lo(target) >= lo(floor).

    The guard is stable: upper bounds only fall and lower bounds only
    rise, so once true it stays true.
    """

    target: InvariantKey
    gate: InvariantKey
    floor: InvariantKey

    def compile(self, slot: Slot) -> tuple:
        return (CondLower, slot(self.target), slot(self.gate), slot(self.floor))


Conclusion = Union[UpperSum, UpperProd, Unify, LowerMonus, LowerMax, LowerInf, CondLower]


@dataclass(frozen=True)
class RuleInstance:
    rule_id: str
    facts: tuple[int, ...]  # indices of the facts bound by the match
    conclusions: tuple[Conclusion, ...]


Matcher = Callable[[ElaboratedScene], Iterator[RuleInstance]]


@dataclass(frozen=True)
class Rule:
    """A guarded inequality schema.

    ``guard`` lists the collection closure flags required for soundness;
    an instance is only created when the scene's profile has them all.
    ``law`` documents the exact inequality the rule enforces, in the
    surface notation of the scene language.
    """

    id: str
    guard: frozenset[str]
    law: str
    matcher: Matcher


# -- rule construction helpers -------------------------------------------------

# The keys of each kind, named after the L case in the rules below: the
# map invariant (L or Lcat), its init alias (cl or cat) and its term
# alias (kl or kit).
KIND_KEYS = ((key_L, key_cl, key_kl), (key_Lcat, key_cat, key_kit))


def _rule(rule_id: str, guard: frozenset[str], law: str,
          items: Callable[[ElaboratedScene], list[tuple[tuple[int, ...], object]]],
          build: Callable[[ElaboratedScene, object], list[Conclusion]]) -> Rule:
    """One instance per item, with conclusions ``build(elab, item)``;
    ``items`` lists (fact indices bound by the match, item) pairs."""

    def match(elab: ElaboratedScene) -> Iterator[RuleInstance]:
        for facts, item in items(elab):
            yield RuleInstance(rule_id, facts, tuple(build(elab, item)))

    return Rule(rule_id, guard, law, match)


def _fact_rule(rule_id: str, guard: frozenset[str], law: str, kind: str,
               build: Callable[[ElaboratedScene, Fact], list[Conclusion]]) -> Rule:
    return _rule(rule_id, guard, law,
                 lambda elab: [((i,), fact) for i, fact in elab.facts_of(kind)], build)


def _per_map_rule(rule_id: str, guard: frozenset[str], law: str,
                  build: Callable[[ElaboratedScene, str], list[Conclusion]]) -> Rule:
    return _rule(rule_id, guard, law, lambda elab: [((), m) for m in elab.maps], build)


def _per_space_rule(rule_id: str, guard: frozenset[str], law: str,
                    build: Callable[[ElaboratedScene, str], list[Conclusion]]) -> Rule:
    return _rule(rule_id, guard, law, lambda elab: [((), x) for x in elab.spaces], build)


def _per_kind(rule_id: str, guard: frozenset[str], law: str, fact_kind: str, target: int,
              adds: tuple[int, ...] = (), maxes: tuple[int, ...] = (),
              equivs: tuple[int, ...] = ()) -> Rule:
    """X(target) <= sum of X(adds) + max of X(maxes) for X in {L, Lcat},
    per fact of ``fact_kind``, once its ``equivs`` maps are equivalences
    (gated on hi L = 0).  Every other parameter is a position in the
    fact's arguments."""

    def build(elab: ElaboratedScene, fact: Fact) -> list[Conclusion]:
        args = fact.args
        gates = tuple(key_L(args[i]) for i in equivs)
        return [UpperSum(L(args[target]), adds=tuple(L(args[i]) for i in adds),
                         maxes=tuple(L(args[i]) for i in maxes), gates=gates)
                for L, cl, kl in KIND_KEYS]

    return _fact_rule(rule_id, guard, law, fact_kind, build)


def _unify_rule(rule_id: str, law: str, fact_kind: str) -> Rule:
    """L and Lcat of a fact's two maps are equal."""
    return _fact_rule(rule_id, ANY, law, fact_kind, lambda elab, fact: [
        Unify(L(fact.args[0]), L(fact.args[1])) for L, cl, kl in KIND_KEYS])


def _cofiber_rule(rule_id: str, law: str,
                  build: Callable[[str, str, str, str, str], list[Conclusion]]) -> Rule:
    """Conclusions ``build(f, j, A, B, C)`` per cofiber(f, j, C) with f: A -> B."""

    def conclusions(elab: ElaboratedScene, fact: Fact) -> list[Conclusion]:
        f, j, cofiber = fact.args
        return build(f, j, *elab.sig(f), cofiber)

    return _fact_rule(rule_id, ANY, law, "cofiber", conclusions)


ANY = frozenset()
W = frozenset({"wedges"})
S = frozenset({"suspensions"})
J = frozenset({"joins"})
WS = frozenset({"wedges", "suspensions"})
WJ = frozenset({"wedges", "joins"})
SM = frozenset({"smash_ideal"})
SMWS = frozenset({"smash_ideal", "wedges", "suspensions"})
ALL_SPACES = frozenset({"all_spaces"})


def _build_catalog() -> list[Rule]:
    rules: list[Rule] = []
    add = rules.append

    # -- axioms and structural relations ------------------------------------

    add(_unify_rule("AX-HTPY", "homotopic(f, g): L(f) = L(g) and Lcat(f) = Lcat(g)",
                    "homotopic"))
    add(_per_kind("AX-NORM", ANY, "equiv(f): L(f) = 0 and Lcat(f) = 0", "equiv", 0))

    add(_per_map_rule(
        "P7-EQ", ANY,
        "hi Lcat(f) = 0: f is an equivalence, so L(f) = 0",
        lambda elab, map_id: [UpperSum(key_L(map_id), gates=(key_Lcat(map_id),))],
    ))

    add(_per_kind("AX-COMP", ANY, "compose(h, g, f): L(h) <= L(f) + L(g); same for Lcat",
                  "compose", 0, adds=(2, 1)))

    def mc_match(elab: ElaboratedScene) -> Iterator[RuleInstance]:
        for i, fact in elab.facts_of("cofiber"):
            cone = elab.sig(fact.args[0])[0]
            if cone in elab.members:
                yield RuleInstance("AX-MC", (i, elab.member_fact[cone]),
                                   (UpperSum(key_L(fact.args[1]), const=1),))

    add(Rule("AX-MC", ANY,
             "cofiber(f, j, C) with member(dom f): L(j) <= 1", mc_match))

    add(_fact_rule(
        "AX-DOM", ANY,
        "dominates(g, f): Lcat(f) <= Lcat(g), hence lo Lcat(g) >= lo Lcat(f)",
        "dominates",
        lambda elab, fact: [
            UpperSum(key_Lcat(fact.args[1]), adds=(key_Lcat(fact.args[0]),)),
            LowerMonus(key_Lcat(fact.args[0]), base=key_Lcat(fact.args[1])),
        ],
    ))

    add(_unify_rule("AX-EQM", "equiv_maps(f, g): L(f) = L(g) and Lcat(f) = Lcat(g)",
                    "equiv_maps"))

    add(_per_map_rule(
        "REL-CL", ANY,
        "Lcat(f) <= L(f), hence lo L(f) >= lo Lcat(f)",
        lambda elab, map_id: [
            UpperSum(key_Lcat(map_id), adds=(key_L(map_id),)),
            LowerMonus(key_L(map_id), base=key_Lcat(map_id)),
        ],
    ))

    add(_fact_rule(
        "REL-PI0", ANY,
        "pi0_not_onto(f): L(f) = Lcat(f) = inf",
        "pi0_not_onto",
        lambda elab, fact: [LowerInf(L(fact.args[0])) for L, cl, kl in KIND_KEYS],
    ))

    add(_fact_rule(
        "REL-MEM", ANY,
        "member(A): kl(A) <= 1",
        "member",
        lambda elab, fact: [UpperSum(key_kl(fact.args[0]), const=1)],
    ))

    add(_per_space_rule(
        "REL-ALL", ALL_SPACES,
        "every space X: kl(X) <= 1 and kit(X) <= 1",
        lambda elab, space: [UpperSum(kl(space), const=1) for L, cl, kl in KIND_KEYS],
    ))

    # -- pushout-square mapping bounds ---------------------------------------
    # pushout_map(A, A2, a, b, c, d): a, b, c, d are arguments 2 to 5

    add(_per_kind(
        "T32", WS,
        "pushout_map(A, A2, a, b, c, d): X(d) <= X(a) + max(X(b), X(c)) for X in {L, Lcat}",
        "pushout_map", 5, adds=(2,), maxes=(3, 4),
    ))
    add(_per_kind(
        "T32-W", W,
        "pushout_map with a an equivalence: X(d) <= max(X(b), X(c)) for X in {L, Lcat}",
        "pushout_map", 5, maxes=(3, 4), equivs=(2,),
    ))
    add(_per_kind(
        "T32-S", S,
        "pushout_map with b, c equivalences: X(d) <= X(a) for X in {L, Lcat}",
        "pushout_map", 5, adds=(2,), equivs=(3, 4),
    ))
    add(_per_kind(
        "C34", S,
        "pushout_map: X(d) <= X(a) + X(b) + X(c) for X in {L, Lcat}",
        "pushout_map", 5, adds=(2, 3, 4),
    ))
    add(_per_kind(
        "C34-NC", ANY,
        "pushout_map with a an equivalence: X(d) <= X(b) + X(c) for X in {L, Lcat}",
        "pushout_map", 5, adds=(3, 4), equivs=(2,),
    ))

    # -- single pushout squares ----------------------------------------------

    def c411_match(elab: ElaboratedScene) -> Iterator[RuleInstance]:
        for i, fact in elab.facts_of("pushout"):
            _, f, g, ib, ic, _ = fact.args
            for leg, opposite in ((ib, g), (ic, f)):
                yield RuleInstance("C41-1", (i,), tuple(
                    UpperSum(L(leg), adds=(L(opposite),)) for L, cl, kl in KIND_KEYS))

    add(Rule("C41-1", ANY,
             "pushout(A, f, g, ib, ic, d): X(ib) <= X(g) and X(ic) <= X(f) for X in {L, Lcat}",
             c411_match))

    add(_per_kind(
        "C41-4", W,
        "pushout(A, f, g, ib, ic, d): X(d) <= max(X(f), X(g)) for X in {L, Lcat}",
        "pushout", 5, maxes=(1, 2),
    ))

    def c42_build(elab: ElaboratedScene, fact: Fact) -> list[Conclusion]:
        apex = fact.args[0]
        corner_b = elab.sig(fact.args[1])[1]
        corner_c = elab.sig(fact.args[2])[1]
        out = elab.sig(fact.args[3])[1]
        return [UpperSum(key(out), adds=(key(apex),), maxes=(key(corner_b), key(corner_c)))
                for L, cl, kl in KIND_KEYS for key in (cl, kl)]

    add(_fact_rule(
        "C42", WS,
        "pushout with corners B, C, pushout D: i(D) <= i(A) + max(i(B), i(C)) "
        "for i in {cl, cat, kl, kit}",
        "pushout", c42_build,
    ))

    # -- cofiber sequence bounds ----------------------------------------------

    add(_cofiber_rule(
        "C44-1", "cofiber(f, j, C): cl(C) <= L(f) and cat(C) <= Lcat(f)",
        lambda f, j, a, b, c: [UpperSum(cl(c), adds=(L(f),)) for L, cl, kl in KIND_KEYS],
    ))
    add(_cofiber_rule(
        "C44-2", "cofiber(f, j, C) with cone A: L(j) <= kl(A) and Lcat(j) <= kit(A)",
        lambda f, j, a, b, c: [UpperSum(L(j), adds=(kl(a),)) for L, cl, kl in KIND_KEYS],
    ))
    add(_cofiber_rule(
        "C44-3", "cofiber over A -> B -> C: cl(C) <= kl(A) + cl(B); cat analog",
        lambda f, j, a, b, c: [
            UpperSum(cl(c), adds=(kl(a), cl(b))) for L, cl, kl in KIND_KEYS],
    ))
    add(_cofiber_rule(
        "C44-4", "cofiber over A -> B -> C: kl(B) <= kl(A) + kl(C); kit analog",
        lambda f, j, a, b, c: [
            UpperSum(kl(b), adds=(kl(a), kl(c))) for L, cl, kl in KIND_KEYS],
    ))

    add(_per_kind(
        "C46", S,
        "cofiber_map(f, f2, al, be, ga): X(ga) <= X(al) + X(be) for X in {L, Lcat}",
        "cofiber_map", 4, adds=(2, 3),
    ))

    add(_fact_rule(
        "C48", ANY,
        "susp_space(S, B): cl(S) <= kl(B) and cat(S) <= kit(B)",
        "susp_space",
        lambda elab, fact: [
            UpperSum(cl(fact.args[0]), adds=(kl(fact.args[1]),)) for L, cl, kl in KIND_KEYS],
    ))

    # -- suspension-closed structural bounds -----------------------------------

    add(_per_map_rule(
        "C410-1", S,
        "any f: A -> B: L(f) <= cl(A) + cl(B) and Lcat(f) <= cat(A) + cat(B)",
        lambda elab, map_id: [UpperSum(L(map_id), adds=tuple(map(cl, elab.sig(map_id))))
                              for L, cl, kl in KIND_KEYS],
    ))

    add(_per_space_rule(
        "C410-2", S,
        "any space A: kl(A) <= cl(A) and kit(A) <= cat(A)",
        lambda elab, space: [UpperSum(kl(space), adds=(cl(space),)) for L, cl, kl in KIND_KEYS],
    ))

    add(_per_kind(
        "C410-3", S,
        "compose(h, g, f): X(g) <= X(f) + X(h) for X in {L, Lcat}",
        "compose", 1, adds=(2, 0),
    ))

    add(_fact_rule(
        "C410-4", S,
        "section(f, g): Lcat(g) <= cat(dom g)",
        "section",
        lambda elab, fact: [
            UpperSum(key_Lcat(fact.args[1]),
                     adds=(key_cat(elab.sig(fact.args[1])[0]),)),
        ],
    ))

    add(_per_kind(
        "C410-5", S, "section(f, g): L(g) <= L(f) and Lcat(g) <= Lcat(f)",
        "section", 1, adds=(0,),
    ))

    def c411_build(elab: ElaboratedScene, map_id: str) -> list[Conclusion]:
        dom, cod = elab.sig(map_id)
        return [
            LowerMonus(key_L(map_id), base=key_kl(dom), subs=(key_kl(cod),)),
            LowerMonus(key_L(map_id), base=key_kl(cod), subs=(key_kl(dom),)),
            LowerMonus(key_Lcat(map_id), base=key_kit(dom), subs=(key_kit(cod),)),
            LowerMonus(key_Lcat(map_id), base=key_kit(cod), subs=(key_kit(dom),)),
            LowerMonus(key_L(map_id), base=key_cl(cod), subs=(key_cl(dom),)),
            LowerMonus(key_Lcat(map_id), base=key_cat(cod), subs=(key_cat(dom),)),
        ]

    add(_per_map_rule(
        "C411", S,
        "any f: A -> B: L(f) >= |kl(B) - kl(A)|, L(f) >= cl(B) - cl(A); "
        "Lcat analogs with kit and cat",
        c411_build,
    ))

    # -- products ---------------------------------------------------------------

    def t51_build(elab: ElaboratedScene, fact: Fact) -> list[Conclusion]:
        h, f, g = fact.args
        dom_f = elab.sig(f)[0]
        dom_g = elab.sig(g)[0]
        # the max part is cl for both kinds
        return [UpperSum(L(h), adds=(L(f), L(g)), maxes=(key_cl(dom_f), key_cl(dom_g)))
                for L, cl, kl in KIND_KEYS]

    add(_fact_rule(
        "T51", WJ,
        "product_map(h, f, g): X(h) <= X(f) + X(g) + max(cl(dom f), cl(dom g)) for X in {L, Lcat}",
        "product_map", t51_build,
    ))

    def c52_build(elab: ElaboratedScene, fact: Fact) -> list[Conclusion]:
        prod, x, y = fact.args
        return [
            UpperSum(key_cl(prod), adds=(key_cl(x), key_cl(y))),
            UpperSum(key_kl(prod), adds=(key_kl(x), key_kl(y)),
                     maxes=(key_cl(x), key_cl(y))),
            UpperSum(key_cat(prod), adds=(key_cat(x), key_cat(y))),
            UpperSum(key_kit(prod), adds=(key_kit(x), key_kit(y)),
                     maxes=(key_cl(x), key_cl(y))),
        ]

    add(_fact_rule(
        "C52", WJ,
        "product_space(P, X, Y): cl(P) <= cl(X) + cl(Y); "
        "kl(P) <= kl(X) + kl(Y) + max(cl(X), cl(Y)); cat and kit analogs",
        "product_space", c52_build,
    ))

    add(_fact_rule(
        "P54", SMWS,
        "product_space(P, X, Y): kl(P) <= kl(X) + kl(Y) and kit(P) <= kit(X) + kit(Y)",
        "product_space",
        lambda elab, fact: [
            UpperSum(kl(fact.args[0]), adds=(kl(fact.args[1]), kl(fact.args[2])))
            for L, cl, kl in KIND_KEYS
        ],
    ))

    add(_fact_rule(
        "P54-SM", SM,
        "smash_space(S, X, Y): kl(S) <= min(kl(X), kl(Y))",
        "smash_space",
        lambda elab, fact: [
            UpperSum(key_kl(fact.args[0]), adds=(key_kl(fact.args[1]),)),
            UpperSum(key_kl(fact.args[0]), adds=(key_kl(fact.args[2]),)),
        ],
    ))

    def l61_match(elab: ElaboratedScene) -> Iterator[RuleInstance]:
        for i, fact in elab.facts_of("projection"):
            p = fact.args[0]
            dom, cod = elab.sig(p)
            for _, prod_fact in elab.facts_of("product_space"):
                prod, first, second = prod_fact.args
                if prod != dom or second != cod or first not in elab.members:
                    continue
                conclusions = (
                    UpperSum(key_L(p), adds=(key_cl(cod),), const=1),
                    UpperSum(key_Lcat(p), adds=(key_cat(cod),), const=1),
                )
                yield RuleInstance("L61", (i, elab.member_fact[first]), conclusions)
                break

    add(Rule("L61", J,
             "projection p: A x B -> B with member(A): L(p) <= cl(B) + 1 and "
             "Lcat(p) <= cat(B) + 1", l61_match))

    # -- pullbacks and fibrations -------------------------------------------------

    add(_fact_rule(
        "T62", WJ,
        "pullback over fibration bd with fiber F: L(ab) <= L(cd) * (cl(F) + 1); "
        "Lcat analog with cat(F)",
        "pullback",
        lambda elab, fact: [
            UpperProd(L(fact.args[4]), L(fact.args[7]), cl(fact.args[8]), minus_one=False)
            for L, cl, kl in KIND_KEYS
        ],
    ))

    def c63_build(elab: ElaboratedScene, fact: Fact) -> list[Conclusion]:
        p, fiber = fact.args
        total, base = elab.sig(p)
        return [UpperProd(cl(total), cl(base), cl(fiber)) for L, cl, kl in KIND_KEYS]

    add(_fact_rule(
        "C63", WJ,
        "fibration(p: E -> B, F): cl(E) + 1 <= (cl(B)+1)(cl(F)+1); cat analog",
        "fibration", c63_build,
    ))

    # -- wedges of maps and trivial maps ------------------------------------------

    add(_fact_rule(
        "P72-A", W,
        "wedge_map(w, f, g): L(w) <= max(L(f), L(g))",
        "wedge_map",
        lambda elab, fact: [
            UpperSum(key_L(fact.args[0]),
                     maxes=(key_L(fact.args[1]), key_L(fact.args[2]))),
        ],
    ))

    def p72b_build(elab: ElaboratedScene, fact: Fact) -> list[Conclusion]:
        w, f, g = (key_Lcat(m) for m in fact.args)
        return [
            UpperSum(w, maxes=(f, g)),
            LowerMax(w, (f, g)),
            UpperSum(f, adds=(w,)),
            UpperSum(g, adds=(w,)),
            CondLower(f, gate=g, floor=w),
            CondLower(g, gate=f, floor=w),
        ]

    add(_fact_rule(
        "P72-B", W,
        "wedge_map(w, f, g): Lcat(w) = max(Lcat(f), Lcat(g)), propagated both ways "
        "with the conditional floor when one operand's hi drops below the wedge's lo",
        "wedge_map", p72b_build,
    ))

    def c73_build(elab: ElaboratedScene, fact: Fact) -> list[Conclusion]:
        m = fact.args[0]
        dom, cod = elab.sig(m)
        lf, lcf = key_L(m), key_Lcat(m)
        klx, clx = key_kl(dom), key_cl(cod)
        kitx, caty = key_kit(dom), key_cat(cod)
        return [
            UpperSum(lf, maxes=(klx, clx)),
            UpperSum(lcf, maxes=(kitx, caty)),
            LowerMax(lcf, (kitx, caty)),
            UpperSum(kitx, adds=(lcf,)),
            UpperSum(caty, adds=(lcf,)),
            CondLower(kitx, gate=caty, floor=lcf),
            CondLower(caty, gate=kitx, floor=lcf),
        ]

    add(_fact_rule(
        "C73", W,
        "null(f: X -> Y): L(f) <= max(kl(X), cl(Y)); "
        "Lcat(f) = max(kit(X), cat(Y)) propagated both ways",
        "null", c73_build,
    ))

    return rules


_CATALOG: Optional[list[Rule]] = None


def catalog() -> list[Rule]:
    """All rules, sorted by id.  The list is built once and shared."""
    global _CATALOG
    if _CATALOG is None:
        _CATALOG = sorted(_build_catalog(), key=lambda r: r.id)
    return _CATALOG


def instantiate(elab: ElaboratedScene) -> list[RuleInstance]:
    """All guard-satisfying, shape-correct rule instances, in deterministic
    order: rules by id, instances in fact/registry order."""
    flags = elab.profile.flags()
    instances: list[RuleInstance] = []
    try:
        for rule in catalog():
            if rule.guard <= flags:
                instances.extend(rule.matcher(elab))
    finally:
        for build in _KEY_BUILDERS:
            build.cache_clear()
    return instances


# -- compiled instances and firing ---------------------------------------------


class CompiledInstance:
    """A rule instance with every key replaced by its slot in one store.

    ``steps`` holds one tuple per conclusion, ``(conclusion class, fields
    with slots for keys...)``; ``reads`` lists the distinct slots that the
    steps name, which is what the engine subscribes the instance to.
    """

    __slots__ = ("rule_id", "facts", "steps", "reads")

    def __init__(self, inst: RuleInstance, store: BoundStore):
        self.rule_id = inst.rule_id
        self.facts = inst.facts
        slots = store.slots
        read: dict[int, None] = {}

        def slot(key: InvariantKey) -> int:
            index = slots.get(key)
            if index is None:
                index = store.slot(key)
            read[index] = None
            return index

        self.steps = tuple(c.compile(slot) for c in inst.conclusions)
        self.reads = tuple(read)


def _sum(hi: list[ExtNat], adds: Sequence[int], maxes: Sequence[int], const: int) -> ExtNat:
    total = const
    for s in adds:
        total += hi[s]
    if maxes:
        total += max([hi[s] for s in maxes])
    return total


def _premises(store: BoundStore, slots: Sequence[int], side: Side, role: str) -> list[Premise]:
    # Snapshot both the value and the provenance pointer at read time, so a
    # later tightening of the same key cannot detach the derivation tree.
    if side is Side.HI:
        values, sources = store.hi_values, store.hi_sources
    else:
        values, sources = store.lo_values, store.lo_sources
    keys = store.keys
    return [Premise(keys[s], side, values[s], role, sources[s]) for s in slots]


def fire(inst: Union[RuleInstance, CompiledInstance], store: BoundStore,
         elab: ElaboratedScene, rearrange: bool = True) -> list[Justification]:
    """Evaluate an instance against the store; returns only updates that
    would strictly tighten (no-ops are dropped).

    A raw ``RuleInstance`` is compiled against ``store`` first.  Values are
    read from the store's slot lists; the premises and the justification
    are built only for a conclusion that tightens.
    """
    if not isinstance(inst, CompiledInstance):
        inst = CompiledInstance(inst, store)
    lo, hi = store.lo_values, store.hi_values
    HI, LO = Side.HI, Side.LO
    out: list[Justification] = []

    def emit(slot: int, side: Side, value: ExtNat, compute: str,
             premises: list[Premise], const: int = 0) -> None:
        out.append(Justification(
            rule_id=inst.rule_id, key=store.keys[slot], side=side, value=value,
            compute=compute, const=const, premises=tuple(premises), facts=inst.facts,
        ))

    for step in inst.steps:
        shape = step[0]
        if shape is UpperSum:
            _, target, adds, maxes, const, gates = step
            if gates and any(hi[g] != 0 for g in gates):
                continue
            value = _sum(hi, adds, maxes, const)
            if value < hi[target]:
                emit(target, HI, value, "sum",
                     _premises(store, adds, HI, "add") + _premises(store, maxes, HI, "max")
                     + _premises(store, gates, HI, "gate"), const)
            # lo(target) = 0 leaves every term at lo 0, which never tightens
            if rearrange and lo[target]:
                for i, term in enumerate(adds):
                    others = adds[:i] + adds[i + 1:]
                    value = ext_monus(lo[target], _sum(hi, others, maxes, const))
                    if value > lo[term]:
                        emit(term, LO, value, "monus",
                             _premises(store, (target,), LO, "base")
                             + _premises(store, others, HI, "add")
                             + _premises(store, maxes, HI, "max")
                             + _premises(store, gates, HI, "gate"), const)
        elif shape is UpperProd:
            _, target, left, right, minus_one = step
            if minus_one:
                value = ext_monus(ext_mul(hi[left] + 1, hi[right] + 1), 1)
            else:
                value = ext_mul(hi[left], hi[right] + 1)
            if value < hi[target]:
                emit(target, HI, value, "prod1" if minus_one else "prod0",
                     _premises(store, (left,), HI, "left")
                     + _premises(store, (right,), HI, "right"))
            if rearrange:
                for factor, other in ((left, right), (right, left)):
                    value = ext_monus(ext_ceil_div(lo[target] + 1, hi[other] + 1), 1)
                    if value > lo[factor]:
                        emit(factor, LO, value, "ceil1",
                             _premises(store, (target,), LO, "base")
                             + _premises(store, (other,), HI, "div"))
        elif shape is Unify:
            _, a, b = step
            for key, src in ((a, b), (b, a)):
                if hi[src] < hi[key]:
                    emit(key, HI, hi[src], "copy", _premises(store, (src,), HI, "copy"))
                if lo[src] > lo[key]:
                    emit(key, LO, lo[src], "copy", _premises(store, (src,), LO, "copy"))
        elif shape is LowerMonus:
            _, target, base, subs, const = step
            value = ext_monus(lo[base], _sum(hi, subs, (), const))
            if value > lo[target]:
                emit(target, LO, value, "monus",
                     _premises(store, (base,), LO, "base") + _premises(store, subs, HI, "add"),
                     const)
        elif shape is LowerMax:
            _, target, sources = step
            value = max([lo[s] for s in sources])
            if value > lo[target]:
                emit(target, LO, value, "maxlo", _premises(store, sources, LO, "lo"))
        elif shape is LowerInf:
            _, target = step
            if INF > lo[target]:
                emit(target, LO, INF, "inf", [])
        elif shape is CondLower:
            _, target, gate, floor = step
            if hi[gate] < lo[floor] and lo[floor] > lo[target]:
                emit(target, LO, lo[floor], "copy",
                     _premises(store, (gate,), HI, "gate")
                     + _premises(store, (floor,), LO, "base"))
    return out


# -- post-hoc verification -------------------------------------------------------


def check_instance(inst: RuleInstance, store: BoundStore, elab: ElaboratedScene,
                   rearrange: bool = True) -> list[str]:
    """Inequalities of this instance violated by the store's current values.

    At a fixpoint this must be empty for every instance: firing anything
    would be a no-op.
    """
    violations = []
    for update in fire(inst, store, elab, rearrange=rearrange):
        side = "upper" if update.side is Side.HI else "lower"
        violations.append(
            f"{inst.rule_id}: {side} bound {update.value} on "
            f"{update.key.surface()} not satisfied by {store.interval(update.key)}"
        )
    return violations


def render_rules_markdown() -> str:
    """The catalog as a stable reference table."""
    lines = [
        "# Rule catalog",
        "",
        "Stable rule identifiers, their collection guards, and the bound",
        "each rule enforces.  These ids appear verbatim in traces, JSON",
        "output, and golden files.",
        "",
        "| id | guard | bound |",
        "|----|-------|-------|",
    ]
    for rule in catalog():
        guard = ", ".join(sorted(rule.guard)) if rule.guard else "any"
        lines.append(f"| `{rule.id}` | {guard} | {rule.law} |")
    return "\n".join(lines) + "\n"
