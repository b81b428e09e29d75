"""The rule catalog: guarded inequality schemas over the bound store.

Each rule matches fact shapes in an elaborated scene and contributes
structured conclusions.  Firing turns conclusions into meet updates; every
additive upper bound additionally yields its sound rearranged lower
bounds (p <= q + r gives lo(q) >= lo(p) - hi(r), truncated), and every
multiplicative bound of the shape p + 1 <= (q+1)(r+1) yields the ceiling
division rearrangements.  Rearrangement can be switched off
diagnostically; the conclusions listed per rule are its direct content.

The rows compile as they match: a key builder returns the key's slot in
the store being instantiated, interning the key there, and a step
constructor returns a plain step tuple.  The named-tuple shapes and
``RuleInstance`` are only the decoded view of those steps.

Rule ids are stable public strings that appear in traces and golden
files.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Iterator, NamedTuple, Optional, Sequence, Union, get_type_hints

from . import model
from .elaborate import ElaboratedScene
from .extnat import INF, ExtNat, ext_ceil_div, ext_monus, ext_mul
from .model import BoundStore, InvariantKey, Justification, Premise, Side
from .scene import Fact


class _Slots(dict):
    """name -> slot of one key builder's keys in ``_Slots.store``, where a
    name seen first interns its key; ``instantiate`` binds and empties it,
    holding ``lock`` so that concurrent calls cannot share a binding."""

    store: Optional[BoundStore] = None
    lock = threading.Lock()

    def __init__(self, make: Callable[[str], InvariantKey]):
        super().__init__()
        self.make = make

    def __missing__(self, name: str) -> int:
        slot = self[name] = _Slots.store.slot(self.make(name))
        return slot


# Every key the catalog names is built by one of these, and each returns the
# key's slot.  cl(X) and L(init(X)) get one slot through the store, so the
# store's key list holds one object per distinct key.
_SLOTS = tuple(_Slots(make) for make in (
    model.key_L, model.key_Lcat, model.key_cl, model.key_cat, model.key_kl, model.key_kit))
key_L, key_Lcat, key_cl, key_cat, key_kl, key_kit = (slots.__getitem__ for slots in _SLOTS)

# -- conclusion shapes ---------------------------------------------------------
# A shape's field order is its step layout: a step is (shape, *fields) with
# a slot for a key and a tuple of slots for a tuple of keys, and ``fire``
# unpacks it.  The named tuples are the decoded view of a step.  Two
# conclusions with equal fields compare equal whatever their class, so
# dedup compares steps, which carry the class.

class UpperSum(NamedTuple):
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


class UpperProd(NamedTuple):
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


class Unify(NamedTuple):
    """interval(a) == interval(b): both sides meet both ways."""

    a: InvariantKey
    b: InvariantKey


class LowerMonus(NamedTuple):
    """lo(target) >= lo(base) - (sum of hi(subs) + const), truncated."""

    target: InvariantKey
    base: InvariantKey
    subs: tuple[InvariantKey, ...] = ()
    const: int = 0


class LowerMax(NamedTuple):
    """lo(target) >= max over lo(sources)."""

    target: InvariantKey
    sources: tuple[InvariantKey, ...]


class LowerInf(NamedTuple):
    """lo(target) = inf."""

    target: InvariantKey


class CondLower(NamedTuple):
    """If hi(gate) < lo(floor) then lo(target) >= lo(floor).

    The guard is stable: upper bounds only fall and lower bounds only
    rise, so once true it stays true.
    """

    target: InvariantKey
    gate: InvariantKey
    floor: InvariantKey


Conclusion = Union[UpperSum, UpperProd, Unify, LowerMonus, LowerMax, LowerInf, CondLower]


class RuleInstance(NamedTuple):
    rule_id: str
    facts: tuple[int, ...]  # indices of the facts bound by the match
    conclusions: tuple[Conclusion, ...]


# For each shape, the step position of every key field in field order, and
# whether the field holds a tuple of keys: the fields a step reads.
_KEY_FIELDS = {
    shape: tuple((i, hint != InvariantKey)
                 for i, hint in enumerate(get_type_hints(shape).values(), start=1)
                 if hint in (InvariantKey, tuple[InvariantKey, ...]))
    for shape in Conclusion.__args__}

# -- step constructors -----------------------------------------------------------
# The rows build steps with these, not with the shapes: ``upper_sum`` takes
# UpperSum's fields, slots for keys, with its defaults.

Step = tuple  # (shape, *fields), see "conclusion shapes"


def _step_constructor(shape: type) -> Callable[..., Step]:
    """A function of ``shape``'s fields and defaults that returns the step,
    generated as namedtuple generates ``__new__`` so that it runs as fast as
    one written out."""
    name, fields = shape.__name__, ", ".join(shape._fields)
    namespace = {"shape": shape}
    exec(f"def {name}({fields}): return (shape, {fields})", namespace)
    build = namespace[name]
    build.__defaults__ = tuple(shape._field_defaults.values()) or None
    return build


upper_sum, upper_prod, unify, lower_monus, lower_max, lower_inf, cond_lower = map(
    _step_constructor, Conclusion.__args__)

# A matcher yields each instance as (rule id, fact indices, steps).
Match = tuple[str, tuple[int, ...], tuple[Step, ...]]
Matcher = Callable[[ElaboratedScene], Iterator[Match]]


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
          build: Callable[[ElaboratedScene, object], list[Step]]) -> Rule:
    """One instance per item, with conclusions ``build(elab, item)``;
    ``items`` lists (fact indices bound by the match, item) pairs."""

    def match(elab: ElaboratedScene) -> Iterator[Match]:
        for facts, item in items(elab):
            yield rule_id, facts, tuple(build(elab, item))

    return Rule(rule_id, guard, law, match)


def _fact_rule(rule_id: str, guard: frozenset[str], law: str, kind: str,
               build: Callable[[ElaboratedScene, Fact], list[Step]]) -> Rule:
    return _rule(rule_id, guard, law,
                 lambda elab: [((i,), fact) for i, fact in elab.facts_of(kind)], build)


def _per_map_rule(rule_id: str, guard: frozenset[str], law: str,
                  build: Callable[[ElaboratedScene, str], list[Step]]) -> Rule:
    return _rule(rule_id, guard, law, lambda elab: [((), m) for m in elab.maps], build)


def _per_space_rule(rule_id: str, guard: frozenset[str], law: str,
                    build: Callable[[ElaboratedScene, str], list[Step]]) -> Rule:
    return _rule(rule_id, guard, law, lambda elab: [((), x) for x in elab.spaces], build)


def _per_kind(rule_id: str, guard: frozenset[str], law: str, fact_kind: str, target: int,
              adds: tuple[int, ...] = (), maxes: tuple[int, ...] = (),
              equivs: tuple[int, ...] = ()) -> Rule:
    """X(target) <= sum of X(adds) + max of X(maxes) for X in {L, Lcat},
    per fact of ``fact_kind``, once its ``equivs`` maps are equivalences
    (gated on hi L = 0).  Every other parameter is a position in the
    fact's arguments."""

    def build(elab: ElaboratedScene, fact: Fact) -> list[Step]:
        args = fact.args
        return [upper_sum(L(args[target]), adds=tuple(L(args[i]) for i in adds),
                          maxes=tuple(L(args[i]) for i in maxes),
                          gates=tuple(key_L(args[i]) for i in equivs))
                for L, cl, kl in KIND_KEYS]

    return _fact_rule(rule_id, guard, law, fact_kind, build)


def _unify_rule(rule_id: str, law: str, fact_kind: str) -> Rule:
    """L and Lcat of a fact's two maps are equal."""
    return _fact_rule(rule_id, ANY, law, fact_kind, lambda elab, fact: [
        unify(L(fact.args[0]), L(fact.args[1])) for L, cl, kl in KIND_KEYS])


def _cofiber_rule(rule_id: str, law: str,
                  build: Callable[[str, str, str, str, str], list[Step]]) -> Rule:
    """Conclusions ``build(f, j, A, B, C)`` per cofiber(f, j, C) with f: A -> B."""

    def conclusions(elab: ElaboratedScene, fact: Fact) -> list[Step]:
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
        lambda elab, map_id: [upper_sum(key_L(map_id), gates=(key_Lcat(map_id),))],
    ))

    add(_per_kind("AX-COMP", ANY, "compose(h, g, f): L(h) <= L(f) + L(g); same for Lcat",
                  "compose", 0, adds=(2, 1)))

    def mc_match(elab: ElaboratedScene) -> Iterator[Match]:
        for i, fact in elab.facts_of("cofiber"):
            cone = elab.sig(fact.args[0])[0]
            if cone in elab.members:
                yield ("AX-MC", (i, elab.member_fact[cone]),
                       (upper_sum(key_L(fact.args[1]), const=1),))

    add(Rule("AX-MC", ANY,
             "cofiber(f, j, C) with member(dom f): L(j) <= 1", mc_match))

    add(_fact_rule(
        "AX-DOM", ANY,
        "dominates(g, f): Lcat(f) <= Lcat(g), hence lo Lcat(g) >= lo Lcat(f)",
        "dominates",
        lambda elab, fact: [
            upper_sum(key_Lcat(fact.args[1]), adds=(key_Lcat(fact.args[0]),)),
            lower_monus(key_Lcat(fact.args[0]), base=key_Lcat(fact.args[1])),
        ],
    ))

    add(_unify_rule("AX-EQM", "equiv_maps(f, g): L(f) = L(g) and Lcat(f) = Lcat(g)",
                    "equiv_maps"))

    add(_per_map_rule(
        "REL-CL", ANY,
        "Lcat(f) <= L(f), hence lo L(f) >= lo Lcat(f)",
        lambda elab, map_id: [
            upper_sum(key_Lcat(map_id), adds=(key_L(map_id),)),
            lower_monus(key_L(map_id), base=key_Lcat(map_id)),
        ],
    ))

    add(_fact_rule(
        "REL-PI0", ANY,
        "pi0_not_onto(f): L(f) = Lcat(f) = inf",
        "pi0_not_onto",
        lambda elab, fact: [lower_inf(L(fact.args[0])) for L, cl, kl in KIND_KEYS],
    ))

    add(_fact_rule(
        "REL-MEM", ANY,
        "member(A): kl(A) <= 1",
        "member",
        lambda elab, fact: [upper_sum(key_kl(fact.args[0]), const=1)],
    ))

    add(_per_space_rule(
        "REL-ALL", ALL_SPACES,
        "every space X: kl(X) <= 1 and kit(X) <= 1",
        lambda elab, space: [upper_sum(kl(space), const=1) for L, cl, kl in KIND_KEYS],
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

    def c411_match(elab: ElaboratedScene) -> Iterator[Match]:
        for i, fact in elab.facts_of("pushout"):
            _, f, g, ib, ic, _ = fact.args
            for leg, opposite in ((ib, g), (ic, f)):
                yield "C41-1", (i,), tuple(
                    upper_sum(L(leg), adds=(L(opposite),)) for L, cl, kl in KIND_KEYS)

    add(Rule("C41-1", ANY,
             "pushout(A, f, g, ib, ic, d): X(ib) <= X(g) and X(ic) <= X(f) for X in {L, Lcat}",
             c411_match))

    add(_per_kind(
        "C41-4", W,
        "pushout(A, f, g, ib, ic, d): X(d) <= max(X(f), X(g)) for X in {L, Lcat}",
        "pushout", 5, maxes=(1, 2),
    ))

    def c42_build(elab: ElaboratedScene, fact: Fact) -> list[Step]:
        apex = fact.args[0]
        corner_b = elab.sig(fact.args[1])[1]
        corner_c = elab.sig(fact.args[2])[1]
        out = elab.sig(fact.args[3])[1]
        return [upper_sum(key(out), adds=(key(apex),), maxes=(key(corner_b), key(corner_c)))
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
        lambda f, j, a, b, c: [upper_sum(cl(c), adds=(L(f),)) for L, cl, kl in KIND_KEYS],
    ))
    add(_cofiber_rule(
        "C44-2", "cofiber(f, j, C) with cone A: L(j) <= kl(A) and Lcat(j) <= kit(A)",
        lambda f, j, a, b, c: [upper_sum(L(j), adds=(kl(a),)) for L, cl, kl in KIND_KEYS],
    ))
    add(_cofiber_rule(
        "C44-3", "cofiber over A -> B -> C: cl(C) <= kl(A) + cl(B); cat analog",
        lambda f, j, a, b, c: [
            upper_sum(cl(c), adds=(kl(a), cl(b))) for L, cl, kl in KIND_KEYS],
    ))
    add(_cofiber_rule(
        "C44-4", "cofiber over A -> B -> C: kl(B) <= kl(A) + kl(C); kit analog",
        lambda f, j, a, b, c: [
            upper_sum(kl(b), adds=(kl(a), kl(c))) for L, cl, kl in KIND_KEYS],
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
            upper_sum(cl(fact.args[0]), adds=(kl(fact.args[1]),)) for L, cl, kl in KIND_KEYS],
    ))

    # -- suspension-closed structural bounds -----------------------------------

    add(_per_map_rule(
        "C410-1", S,
        "any f: A -> B: L(f) <= cl(A) + cl(B) and Lcat(f) <= cat(A) + cat(B)",
        lambda elab, map_id: [upper_sum(L(map_id), adds=tuple(map(cl, elab.sig(map_id))))
                              for L, cl, kl in KIND_KEYS],
    ))

    add(_per_space_rule(
        "C410-2", S,
        "any space A: kl(A) <= cl(A) and kit(A) <= cat(A)",
        lambda elab, space: [upper_sum(kl(space), adds=(cl(space),)) for L, cl, kl in KIND_KEYS],
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
            upper_sum(key_Lcat(fact.args[1]),
                     adds=(key_cat(elab.sig(fact.args[1])[0]),)),
        ],
    ))

    add(_per_kind(
        "C410-5", S, "section(f, g): L(g) <= L(f) and Lcat(g) <= Lcat(f)",
        "section", 1, adds=(0,),
    ))

    def c411_build(elab: ElaboratedScene, map_id: str) -> list[Step]:
        dom, cod = elab.sig(map_id)
        return [
            lower_monus(key_L(map_id), base=key_kl(dom), subs=(key_kl(cod),)),
            lower_monus(key_L(map_id), base=key_kl(cod), subs=(key_kl(dom),)),
            lower_monus(key_Lcat(map_id), base=key_kit(dom), subs=(key_kit(cod),)),
            lower_monus(key_Lcat(map_id), base=key_kit(cod), subs=(key_kit(dom),)),
            lower_monus(key_L(map_id), base=key_cl(cod), subs=(key_cl(dom),)),
            lower_monus(key_Lcat(map_id), base=key_cat(cod), subs=(key_cat(dom),)),
        ]

    add(_per_map_rule(
        "C411", S,
        "any f: A -> B: L(f) >= |kl(B) - kl(A)|, L(f) >= cl(B) - cl(A); "
        "Lcat analogs with kit and cat",
        c411_build,
    ))

    # -- products ---------------------------------------------------------------

    def t51_build(elab: ElaboratedScene, fact: Fact) -> list[Step]:
        h, f, g = fact.args
        dom_f = elab.sig(f)[0]
        dom_g = elab.sig(g)[0]
        # the max part is cl for both kinds
        return [upper_sum(L(h), adds=(L(f), L(g)), maxes=(key_cl(dom_f), key_cl(dom_g)))
                for L, cl, kl in KIND_KEYS]

    add(_fact_rule(
        "T51", WJ,
        "product_map(h, f, g): X(h) <= X(f) + X(g) + max(cl(dom f), cl(dom g)) for X in {L, Lcat}",
        "product_map", t51_build,
    ))

    def c52_build(elab: ElaboratedScene, fact: Fact) -> list[Step]:
        prod, x, y = fact.args
        return [
            upper_sum(key_cl(prod), adds=(key_cl(x), key_cl(y))),
            upper_sum(key_kl(prod), adds=(key_kl(x), key_kl(y)),
                     maxes=(key_cl(x), key_cl(y))),
            upper_sum(key_cat(prod), adds=(key_cat(x), key_cat(y))),
            upper_sum(key_kit(prod), adds=(key_kit(x), key_kit(y)),
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
            upper_sum(kl(fact.args[0]), adds=(kl(fact.args[1]), kl(fact.args[2])))
            for L, cl, kl in KIND_KEYS
        ],
    ))

    add(_fact_rule(
        "P54-SM", SM,
        "smash_space(S, X, Y): kl(S) <= min(kl(X), kl(Y))",
        "smash_space",
        lambda elab, fact: [
            upper_sum(key_kl(fact.args[0]), adds=(key_kl(fact.args[1]),)),
            upper_sum(key_kl(fact.args[0]), adds=(key_kl(fact.args[2]),)),
        ],
    ))

    def l61_match(elab: ElaboratedScene) -> Iterator[Match]:
        firsts: dict[tuple[str, str], list[str]] = {}  # (product, second) -> first factors
        for _, prod_fact in elab.facts_of("product_space"):
            prod, first, second = prod_fact.args
            firsts.setdefault((prod, second), []).append(first)
        for i, fact in elab.facts_of("projection"):
            p = fact.args[0]
            dom, cod = elab.sig(p)
            for first in firsts.get((dom, cod), ()):
                if first in elab.members:
                    yield ("L61", (i, elab.member_fact[first]), (
                        upper_sum(key_L(p), adds=(key_cl(cod),), const=1),
                        upper_sum(key_Lcat(p), adds=(key_cat(cod),), const=1),
                    ))
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
            upper_prod(L(fact.args[4]), L(fact.args[7]), cl(fact.args[8]), minus_one=False)
            for L, cl, kl in KIND_KEYS
        ],
    ))

    def c63_build(elab: ElaboratedScene, fact: Fact) -> list[Step]:
        p, fiber = fact.args
        total, base = elab.sig(p)
        return [upper_prod(cl(total), cl(base), cl(fiber)) for L, cl, kl in KIND_KEYS]

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
            upper_sum(key_L(fact.args[0]),
                     maxes=(key_L(fact.args[1]), key_L(fact.args[2]))),
        ],
    ))

    def p72b_build(elab: ElaboratedScene, fact: Fact) -> list[Step]:
        w, f, g = (key_Lcat(m) for m in fact.args)
        return [
            upper_sum(w, maxes=(f, g)),
            lower_max(w, (f, g)),
            upper_sum(f, adds=(w,)),
            upper_sum(g, adds=(w,)),
            cond_lower(f, gate=g, floor=w),
            cond_lower(g, gate=f, floor=w),
        ]

    add(_fact_rule(
        "P72-B", W,
        "wedge_map(w, f, g): Lcat(w) = max(Lcat(f), Lcat(g)), propagated both ways "
        "with the conditional floor when one operand's hi drops below the wedge's lo",
        "wedge_map", p72b_build,
    ))

    def c73_build(elab: ElaboratedScene, fact: Fact) -> list[Step]:
        m = fact.args[0]
        dom, cod = elab.sig(m)
        lf, klx, clx = key_L(m), key_kl(dom), key_cl(cod)
        lcf, kitx, caty = key_Lcat(m), key_kit(dom), key_cat(cod)
        return [
            upper_sum(lf, maxes=(klx, clx)),
            upper_sum(lcf, maxes=(kitx, caty)),
            lower_max(lcf, (kitx, caty)),
            upper_sum(kitx, adds=(lcf,)),
            upper_sum(caty, adds=(lcf,)),
            cond_lower(kitx, gate=caty, floor=lcf),
            cond_lower(caty, gate=kitx, floor=lcf),
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


def instantiate(elab: ElaboratedScene,
                store: Optional[BoundStore] = None) -> Union[list[CompiledInstance],
                                                             list[RuleInstance]]:
    """The distinct guard-satisfying, shape-correct rule instances, in
    deterministic order: rules by id, instances in fact/registry order.

    One pass over the rows compiles every instance against ``store`` and
    interns each key it names there: the result is the ``CompiledInstance``
    list that the engine fires.  Without a store, the rows compile against
    a fresh one and the result is the decoded views, for callers that read
    conclusions.
    """
    target = BoundStore() if store is None else store
    flags = elab.profile.flags()
    with _Slots.lock:
        _Slots.store = target
        try:
            matches = dict.fromkeys(chain.from_iterable(
                rule.matcher(elab) for rule in catalog() if rule.guard <= flags))
        finally:
            _Slots.store = None
            for slots in _SLOTS:
                slots.clear()
    compiled = [CompiledInstance(match) for match in matches]
    return compiled if store is not None else [inst.decoded(target) for inst in compiled]


# -- compiled instances and firing ---------------------------------------------


def _convert_keys(step: tuple, convert: Callable) -> list:
    """``step``, (shape, *fields), with ``convert`` applied to every key."""
    out = list(step)
    for i, many in _KEY_FIELDS[step[0]]:
        out[i] = tuple(map(convert, out[i])) if many else convert(out[i])
    return out


class CompiledInstance:
    """A rule instance with every key replaced by its slot in one store.

    ``steps`` holds one step per conclusion: its class, then its fields in
    order, a key as its slot and a tuple of keys as the tuple of their
    slots.  ``reads`` lists the distinct slots that the steps name, in
    first-appearance order; the engine subscribes the instance to them.

    ``instantiate`` builds one from each match, (rule id, facts, steps).
    Given a store, the constructor instead recompiles a decoded view
    (``RuleInstance``) against it, interning unseen keys at their default;
    ``decoded`` reads the view back through the store's keys.
    """

    __slots__ = ("rule_id", "facts", "steps", "reads")

    def __init__(self, inst: Union[Match, RuleInstance], store: Optional[BoundStore] = None):
        rule_id, facts, steps = inst
        if store is not None:
            steps = tuple(tuple(_convert_keys((type(c), *c), store.slot)) for c in steps)
        self.rule_id, self.facts, self.steps = rule_id, facts, steps
        read: dict[int, None] = {}
        for step in steps:
            for i, many in _KEY_FIELDS[step[0]]:
                if many:
                    for slot in step[i]:
                        read[slot] = None
                else:
                    read[step[i]] = None
        self.reads = tuple(read)

    def decoded(self, store: BoundStore) -> RuleInstance:
        """The instance with the keys of ``store``, which it was compiled
        against, in place of slots."""
        key = store.keys.__getitem__
        return RuleInstance(self.rule_id, self.facts, tuple(
            step[0]._make(_convert_keys(step, key)[1:]) for step in self.steps))


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


def fire(inst: CompiledInstance, store: BoundStore,
         rearrange: bool = True) -> list[Justification]:
    """Evaluate an instance compiled against ``store``; returns only updates
    that would strictly tighten (no-ops are dropped).

    Values are read from the store's slot lists; the premises and the
    justification are built only for a conclusion that tightens.
    """
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
    would be a no-op.  ``inst`` is a decoded view, as ``instantiate(elab)``
    returns it, and is recompiled against ``store`` here, which gives
    unseen keys a slot at their default but no bound.  ``elab`` is not
    read; it stays because ``perfbench/oracle.py`` passes it positionally,
    and the benchmark's files do not change with the engine.
    """
    violations = []
    for update in fire(CompiledInstance(inst, store), store, rearrange=rearrange):
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
