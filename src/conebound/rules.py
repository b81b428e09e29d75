"""The rule catalog: guarded inequality schemas over the bound store.

Each rule is its law, the text that RULES.md shows: ``_compile`` turns it
into the rule's matcher.  Firing turns conclusions into meet updates;
every additive upper bound also yields its sound rearranged lower bounds
(p <= q + r gives lo(q) >= lo(p) - hi(r), truncated), and every bound
p + 1 <= (q+1)(r+1) the ceiling-division ones.  Rearrangement can be
switched off diagnostically; the clauses of a law are its direct content.

A law is a head, ``:``, and clauses separated by ``;``.  The head is a
fact pattern, one instance per fact, like ``cofiber(f: A -> B, j, C)``:
names by position, and ``f: A -> B`` names a map's dom and cod (``_``
binds nothing); or ``any f: A -> B`` per map, ``any space X`` per space.
K is L(f) or Lcat(f) of a map, cl, cat, kl or kit of a space; n a number.

    K <= K + max(K, K) + n [with hi K = 0 and ...]   UpperSum, gated
    K <= K * (K + 1)          UpperProd, minus_one=False
    K + 1 <= (K + 1)(K + 1)   UpperProd
    K = K                     Unify
    K = inf                   LowerInf
    K >= max(K, K)            LowerMax
    K >= K - K                LowerMonus
    K >= K if hi K < lo K     CondLower
    Lcat analog               the clauses since the last analog with Lcat,
                              cat, kit for L, cl, kl; gates unchanged
    ; also                    the clauses after it make a second instance

Each ``instantiate`` call hands the matchers a key table, ``Keys(store)``,
whose builders return a key's slot in that store, interning the key
there; an instance's keys are interned in the order its steps name them.
The (rule id, facts, steps) tuple is the only compiled instance form; the
named-tuple shapes and ``RuleInstance`` are only the decoded view.

Rule ids are stable public strings; traces and golden files show them.
"""

from __future__ import annotations

import re
from functools import partial
from itertools import chain
from operator import itemgetter
from typing import Callable, Iterator, NamedTuple, Optional, Sequence, Union, get_type_hints

from . import model
from .elaborate import ElaboratedScene
from .extnat import INF, ExtNat, ext_ceil_div, ext_monus, ext_mul
from .model import BoundStore, InvariantKey, Justification, Premise, Side
from .scene import FACT_SCHEMAS


class _Slots(dict):
    """name -> slot in ``store`` of one key builder's keys, where a name
    seen first interns its key."""

    def __init__(self, make: Callable[[str], InvariantKey], store: BoundStore):
        super().__init__()
        self.make, self.store = make, store

    def __missing__(self, name: str) -> int:
        slot = self[name] = self.store.slot(self.make(name))
        return slot


class Keys:
    """The key table of one ``instantiate`` call: six builders, each taking
    a name to its key's slot in ``store``.  cl(X) and L(init(X)) share a
    slot: the store holds one object per key."""

    __slots__ = ("L", "Lcat", "cl", "cat", "kl", "kit")

    def __init__(self, store: BoundStore):
        self.L, self.Lcat, self.cl, self.cat, self.kl, self.kit = (
            _Slots(make, store).__getitem__ for make in (
                model.key_L, model.key_Lcat, model.key_cl, model.key_cat, model.key_kl,
                model.key_kit))


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
    """minus_one=True:  hi(target) <= (hi(left)+1) * (hi(right)+1) - 1
    minus_one=False: hi(target) <=  hi(left) * (hi(right)+1)

    Both imply target+1 <= (left+1)(right+1), which backs the
    ceiling-division lower bounds on left and right."""

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


Step = tuple  # (shape, *fields), see "conclusion shapes"

# A matcher yields each instance as (rule id, fact indices, steps).
Match = tuple[str, tuple[int, ...], tuple[Step, ...]]
Matcher = Callable[[ElaboratedScene, Keys], Iterator[Match]]


class Rule(NamedTuple):
    """A guarded inequality schema.

    ``guard`` lists the collection closure flags required for soundness;
    an instance is only created when the scene's profile has them all.
    ``matcher`` is compiled from ``law``, except for AX-MC and L61.
    """

    id: str
    guard: frozenset[str]
    law: str
    matcher: Matcher


ANY, W, S, J, SM, ALL_SPACES = (frozenset(flags.split()) for flags in (
    "", "wedges", "suspensions", "joins", "smash_ideal", "all_spaces"))
WS, WJ, SMWS = W | S, W | J, SM | W | S

# -- the catalog -----------------------------------------------------------------

_LAWS = (
    ("AX-COMP", ANY, "compose(h, g, f): L(h) <= L(f) + L(g); Lcat analog"),
    ("AX-DOM", ANY, "dominates(g, f): Lcat(f) <= Lcat(g); Lcat(g) >= Lcat(f)"),
    ("AX-EQM", ANY, "equiv_maps(f, g): L(f) = L(g); Lcat analog"),
    ("AX-HTPY", ANY, "homotopic(f, g): L(f) = L(g); Lcat analog"),
    ("AX-NORM", ANY, "equiv(f): L(f) <= 0; Lcat analog"),
    ("C34", S, "pushout_map(A, A2, a, b, c, d): L(d) <= L(a) + L(b) + L(c); Lcat analog"),
    ("C34-NC", ANY,
     "pushout_map(A, A2, a, b, c, d): L(d) <= L(b) + L(c) with hi L(a) = 0; Lcat analog"),
    ("C41-1", ANY,
     "pushout(A, f, g, ib, ic, d): L(ib) <= L(g); Lcat analog; also L(ic) <= L(f); Lcat analog"),
    ("C41-4", W, "pushout(A, f, g, ib, ic, d): L(d) <= max(L(f), L(g)); Lcat analog"),
    ("C410-1", S, "any f: A -> B: L(f) <= cl(A) + cl(B); Lcat analog"),
    ("C410-2", S, "any space A: kl(A) <= cl(A); Lcat analog"),
    ("C410-3", S, "compose(h, g, f): L(g) <= L(f) + L(h); Lcat analog"),
    ("C410-4", S, "section(f, g: A -> _): Lcat(g) <= cat(A)"),
    ("C410-5", S, "section(f, g): L(g) <= L(f); Lcat analog"),
    ("C411", S, "any f: A -> B: L(f) >= kl(A) - kl(B); L(f) >= kl(B) - kl(A); Lcat analog; "
                "L(f) >= cl(B) - cl(A); Lcat analog"),
    ("C42", WS, "pushout(A, f: _ -> B, g: _ -> C, ib: _ -> D, ic, d): "
                "cl(D) <= cl(A) + max(cl(B), cl(C)); kl(D) <= kl(A) + max(kl(B), kl(C)); "
                "Lcat analog"),
    ("C44-1", ANY, "cofiber(f, j, C): cl(C) <= L(f); Lcat analog"),
    ("C44-2", ANY, "cofiber(f: A -> _, j, C): L(j) <= kl(A); Lcat analog"),
    ("C44-3", ANY, "cofiber(f: A -> B, j, C): cl(C) <= kl(A) + cl(B); Lcat analog"),
    ("C44-4", ANY, "cofiber(f: A -> B, j, C): kl(B) <= kl(A) + kl(C); Lcat analog"),
    ("C46", S, "cofiber_map(f, f2, al, be, ga): L(ga) <= L(al) + L(be); Lcat analog"),
    ("C48", ANY, "susp_space(S, B): cl(S) <= kl(B); Lcat analog"),
    ("C52", WJ, "product_space(P, X, Y): cl(P) <= cl(X) + cl(Y); "
                "kl(P) <= kl(X) + kl(Y) + max(cl(X), cl(Y)); cat(P) <= cat(X) + cat(Y); "
                "kit(P) <= kit(X) + kit(Y) + max(cl(X), cl(Y))"),
    ("C63", WJ, "fibration(p: E -> B, F): cl(E) + 1 <= (cl(B) + 1)(cl(F) + 1); Lcat analog"),
    ("C73", W, "null(f: X -> Y): L(f) <= max(kl(X), cl(Y)); Lcat analog; "
               "Lcat(f) >= max(kit(X), cat(Y)); kit(X) <= Lcat(f); cat(Y) <= Lcat(f); "
               "kit(X) >= Lcat(f) if hi cat(Y) < lo Lcat(f); "
               "cat(Y) >= Lcat(f) if hi kit(X) < lo Lcat(f)"),
    ("P54", SMWS, "product_space(P, X, Y): kl(P) <= kl(X) + kl(Y); Lcat analog"),
    ("P54-SM", SM, "smash_space(S, X, Y): kl(S) <= kl(X); kl(S) <= kl(Y)"),
    ("P7-EQ", ANY, "any f: L(f) <= 0 with hi Lcat(f) = 0"),
    ("P72-A", W, "wedge_map(w, f, g): L(w) <= max(L(f), L(g))"),
    ("P72-B", W, "wedge_map(w, f, g): Lcat(w) <= max(Lcat(f), Lcat(g)); "
                 "Lcat(w) >= max(Lcat(f), Lcat(g)); Lcat(f) <= Lcat(w); Lcat(g) <= Lcat(w); "
                 "Lcat(f) >= Lcat(w) if hi Lcat(g) < lo Lcat(w); "
                 "Lcat(g) >= Lcat(w) if hi Lcat(f) < lo Lcat(w)"),
    ("REL-ALL", ALL_SPACES, "any space X: kl(X) <= 1; Lcat analog"),
    ("REL-CL", ANY, "any f: Lcat(f) <= L(f); L(f) >= Lcat(f)"),
    ("REL-MEM", ANY, "member(A): kl(A) <= 1"),
    ("REL-PI0", ANY, "pi0_not_onto(f): L(f) = inf; Lcat analog"),
    ("T32", WS, "pushout_map(A, A2, a, b, c, d): L(d) <= L(a) + max(L(b), L(c)); Lcat analog"),
    ("T32-S", S, "pushout_map(A, A2, a, b, c, d): L(d) <= L(a) with hi L(b) = 0 and hi L(c) = 0; "
                 "Lcat analog"),
    ("T32-W", W,
     "pushout_map(A, A2, a, b, c, d): L(d) <= max(L(b), L(c)) with hi L(a) = 0; Lcat analog"),
    ("T51", WJ, "product_map(h, f: A -> _, g: B -> _): L(h) <= L(f) + L(g) + max(cl(A), cl(B)); "
                "Lcat(h) <= Lcat(f) + Lcat(g) + max(cl(A), cl(B))"),
    ("T62", WJ, "pullback(A, B, C, D, ab, ac, bd, cd, F): L(ab) <= L(cd) * (cl(F) + 1); "
                "Lcat analog"),
)


def _mc_match(elab: ElaboratedScene, k: Keys) -> Iterator[Match]:
    for i, fact in elab.facts_of("cofiber"):
        cone = elab.sig(fact.args[0])[0]
        if cone in elab.member_fact:
            step = UpperSum, k.L(fact.args[1]), (), (), 1, ()
            yield "AX-MC", (i, elab.member_fact[cone]), (step,)


def _l61_match(elab: ElaboratedScene, k: Keys) -> Iterator[Match]:
    firsts: dict[tuple[str, str], list[str]] = {}  # (product, second) -> first factors
    for _, prod_fact in elab.facts_of("product_space"):
        prod, first, second = prod_fact.args
        firsts.setdefault((prod, second), []).append(first)
    for i, fact in elab.facts_of("projection"):
        p = fact.args[0]
        dom, cod = elab.sig(p)
        for first in firsts.get((dom, cod), ()):
            if first in elab.member_fact:
                yield "L61", (i, elab.member_fact[first]), (
                    (UpperSum, k.L(p), (k.cl(cod),), (), 1, ()),
                    (UpperSum, k.Lcat(p), (k.cat(cod),), (), 1, ()),
                )
                break


_BY_HAND = (
    Rule("AX-MC", ANY, "cofiber(f, j, C) with member(dom f): L(j) <= 1", _mc_match),
    Rule("L61", J, "projection p: A x B -> B with member(A): L(p) <= cl(B) + 1 and "
                   "Lcat(p) <= cat(B) + 1", _l61_match),
)

# -- the law compiler --------------------------------------------------------------
# A law compiles to data: the function listing its matches as (fact
# indices, names), and per instance its constants, its key references
# (head, name position) in first-use order and an itemgetter per step over
# (*constants, *their slots).  A tuple field is a run of slots; a run that
# first use does not lay out repeats its keys.

_KEY_SORTS = dict(L="map", Lcat="map", cl="space", cat="space", kl="space", kit="space")
_ANALOG = {"L": "Lcat", "cl": "cat", "kl": "kit"}
# a character outside the notation is a token of its own, which no rule accepts
_LAW_TOKEN_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|[0-9]+|<=|>=|->|\S")


def _fact_items(kind: str, signed: tuple[int, ...], elab: ElaboratedScene) -> Iterator:
    facts = elab.facts
    for i in elab.by_kind.get(kind, ()):
        names = facts[i].args
        for at in signed:  # a signed map's dom and cod follow the arguments
            names += elab.sig(names[at])
        yield (i,), names


def _map_items(elab: ElaboratedScene) -> list:
    return [((), decl) for decl in elab.maps.values()]  # (f, A, B)


def _space_items(elab: ElaboratedScene) -> list:
    return [((), (space,)) for space in elab.spaces]


def _match(rule_id: str, items: Callable, instances: tuple, elab: ElaboratedScene,
           k: Keys) -> Iterator[Match]:
    bound = None
    for facts, names in items(elab):
        if bound is None:  # most rules match nothing in a small scene
            bound = [(consts, [(getattr(k, head), at) for head, at in refs], getters)
                     for consts, refs, getters in instances]
        for consts, refs, getters in bound:
            values = list(consts)  # plain loops: a comprehension costs a frame per instance
            for key, at in refs:
                values.append(key(names[at]))
            values = tuple(values)
            steps = []
            for get in getters:
                steps.append(get(values))
            yield rule_id, facts, tuple(steps)


def _analog(step: list) -> list:
    """``step`` with Lcat, cat and kit for L, cl and kl, except in its gates."""
    def swap(value: object) -> object:
        if type(value) is list:
            return list(map(swap, value))
        return (_ANALOG.get(value[0], value[0]), value[1]) if type(value) is tuple else value

    return [step[0], *(value if name == "gates" else swap(value)
                       for name, value in zip(step[0]._fields, step[1:]))]


def _layout(steps: list[list]) -> tuple[tuple, tuple, tuple]:
    """One instance's (constants, key references, step getters); in a step
    a key is a tuple, a tuple of keys is a list, and the rest are constants."""
    consts = list(dict.fromkeys((type(v), v) for step in steps for v in step
                                if type(v) not in (tuple, list)))
    refs: list[tuple[str, int]] = []
    first: dict[tuple[str, int], int] = {}

    def at(key: tuple[str, int]) -> int:
        if key not in first:
            first[key] = len(refs)
            refs.append(key)
        return len(consts) + first[key]

    getters = []
    for step in steps:
        items: list = []
        for v in step:
            if type(v) is list:
                run = [at(key) for key in v]
                start = run[0] if run else 0
                if run != list(range(start, start + len(run))):
                    start = len(consts) + len(refs)
                    refs.extend(v)
                items.append(slice(start, start + len(run)))
            else:
                items.append(at(v) if type(v) is tuple else consts.index((type(v), v)))
        getters.append(itemgetter(*items))
    return tuple(v for _, v in consts), tuple(refs), tuple(getters)


class _LawCompiler:
    """A position in one law's tokens, which end with "", and the names its
    head binds, each to its position in a match's names and its sort."""

    def __init__(self, rule_id: str, law: str):
        self.rule_id = rule_id
        self.texts = (*_LAW_TOKEN_RE.findall(law), "")
        self.idx = 0
        self.names: dict[str, tuple[int, str]] = {}

    def fail(self, message: str) -> ValueError:
        text = self.texts[self.idx]
        return ValueError(f"rule {self.rule_id}: {message}, "
                          f"at {repr(text) if text else 'the end'}")

    def at(self, *texts: str) -> bool:
        """Whether the next tokens read ``texts``."""
        return self.texts[self.idx:self.idx + len(texts)] == texts

    def accept(self, *texts: str) -> bool:
        found = self.at(*texts)
        self.idx += len(texts) if found else 0
        return found

    def word(self, *texts: str) -> None:
        if not self.accept(*texts):
            raise self.fail(f"expected {' '.join(texts)!r}")

    def bind(self, at: int, sort: str) -> None:
        name = self.texts[self.idx]
        if not name.isidentifier() or name in self.names or name in _KEY_SORTS:
            raise self.fail("expected a new name")
        if name != "_":
            self.names[name] = at, sort
        self.idx += 1

    def signature(self, at: int) -> None:
        """``: A -> B``, binding A at ``at`` and B after it."""
        self.word(":")
        self.bind(at, "space")
        self.word("->")
        self.bind(at + 1, "space")

    def compile(self) -> Matcher:
        if self.accept("any", "space"):
            self.bind(0, "space")
            items = _space_items
        elif self.accept("any"):
            self.bind(0, "map")
            if self.at(":") and self.texts[self.idx + 1] not in _KEY_SORTS:  # f: A -> B
                self.signature(1)
            items = _map_items
        else:
            items = self.fact_pattern()
        self.word(":")
        instances = [self.instance()]
        while self.accept("also"):
            instances.append(self.instance())
        if self.texts[self.idx]:
            raise self.fail("expected ';' or the end")
        return partial(_match, self.rule_id, items, tuple(map(_layout, instances)))

    def fact_pattern(self) -> Callable:
        kind = self.texts[self.idx]
        schema = FACT_SCHEMAS.get(kind)
        if schema is None:
            raise self.fail("expected a fact kind or 'any'")
        self.idx += 1
        self.word("(")
        signed: list[int] = []
        for at, role in enumerate(schema):
            if at and not self.accept(","):
                raise self.fail(f"{kind} takes {len(schema)} arguments")
            self.bind(at, role)
            if self.at(":") and role != "map":
                raise self.fail(f"argument {at + 1} of {kind} is a space")
            if self.at(":"):
                self.signature(len(schema) + 2 * len(signed))
                signed.append(at)
        if self.at(","):
            raise self.fail(f"{kind} takes {len(schema)} arguments")
        self.word(")")
        return partial(_fact_items, kind, tuple(signed))

    def instance(self) -> list[list]:
        """Clauses up to ``also`` or the end; ``Lcat analog`` repeats the
        clauses since the previous one."""
        steps: list[list] = []
        mark = 0
        while True:
            if self.accept("Lcat", "analog"):
                steps += map(_analog, steps[mark:])
                mark = len(steps)
            else:
                steps.append(self.clause())
            if not self.accept(";") or self.at("also"):
                return steps

    def clause(self) -> list:
        step = self.bound()
        if self.at("with") and step[0] is not UpperSum:
            raise self.fail("only an upper sum takes a gate")
        while step[0] is UpperSum and self.accept("and" if step[5] else "with"):
            self.word("hi")
            step[5].append(self.key())
            self.word("=", "0")
        return step

    def bound(self) -> list:
        target = self.key()
        if self.accept("+", "1", "<="):
            return [UpperProd, target, self.plus_one(), self.plus_one(), True]
        if self.accept("=", "inf"):
            return [LowerInf, target]
        if self.accept("="):
            return [Unify, target, self.key()]
        if self.accept(">="):
            if self.at("max"):
                return [LowerMax, target, self.max()]
            floor = self.key()
            if self.accept("if", "hi"):
                gate = self.key()
                self.word("<", "lo")
                if self.key() != floor:
                    raise self.fail("expected the bound's own floor")
                return [CondLower, target, gate, floor]
            subs = []
            while self.accept("-"):
                subs.append(self.key())
            return [LowerMonus, target, floor, subs, 0]
        self.word("<=")
        adds, maxes, const = [], [], 0
        while True:
            if self.at("max") and not maxes:
                maxes = self.max()
            elif self.texts[self.idx].isdigit():
                const += int(self.texts[self.idx])
                self.idx += 1
            else:
                adds.append(self.key())
                if len(adds) == 1 and not maxes and not const and self.accept("*"):
                    return [UpperProd, target, adds[0], self.plus_one(), False]
            if not self.accept("+"):
                return [UpperSum, target, adds, maxes, const, []]

    def max(self) -> list[tuple[str, int]]:
        self.word("max", "(")
        keys = [self.key()]
        while self.accept(","):
            keys.append(self.key())
        self.word(")")
        return keys

    def plus_one(self) -> tuple[str, int]:
        self.word("(")
        key = self.key()
        self.word("+", "1", ")")
        return key

    def key(self) -> tuple[str, int]:
        head = self.texts[self.idx]
        if head not in _KEY_SORTS:
            raise self.fail("expected an invariant")
        self.idx += 1
        self.word("(")
        name = self.names.get(self.texts[self.idx])
        if name is None:
            raise self.fail("unbound name")
        if name[1] != _KEY_SORTS[head]:
            raise self.fail(f"{head} takes a {_KEY_SORTS[head]}")
        self.idx += 1
        self.word(")")
        return head, name[0]


def _compile(rule_id: str, law: str) -> Matcher:
    """The matcher that ``law`` states.  A malformed law raises ValueError
    naming the rule and the token at fault."""
    return _LawCompiler(rule_id, law).compile()


_CATALOG: Optional[list[Rule]] = None


def catalog() -> list[Rule]:
    """All rules, sorted by id.  The list is built once and shared."""
    global _CATALOG
    if _CATALOG is None:
        _CATALOG = sorted([*(Rule(rule_id, guard, law, _compile(rule_id, law))
                             for rule_id, guard, law in _LAWS), *_BY_HAND], key=lambda r: r.id)
    return _CATALOG


def instantiate(elab: ElaboratedScene,
                store: Optional[BoundStore] = None) -> Union[list[Match], list[RuleInstance]]:
    """The distinct guard-satisfying, shape-correct rule instances, in
    deterministic order: rules by id, instances in fact/registry order.

    One pass over the matchers, given the key table ``Keys(store)``,
    compiles every instance against ``store`` and interns each key it
    names there: the result is the (rule id, facts, steps) matches that
    the engine fires.  Without a store, the matchers compile against a
    fresh one and the result is the decoded views, for callers that read
    conclusions.
    """
    target = BoundStore() if store is None else store
    flags = elab.profile.flags()
    k = Keys(target)
    matches = list(dict.fromkeys(chain.from_iterable(
        rule.matcher(elab, k) for rule in catalog() if rule.guard <= flags)))
    return matches if store is not None else [decode(inst, target) for inst in matches]


# -- compiled instances and firing ---------------------------------------------


def _convert_keys(step: tuple, convert: Callable) -> list:
    """``step``, (shape, *fields), with ``convert`` applied to every key."""
    out = list(step)
    for i, many in _KEY_FIELDS[step[0]]:
        out[i] = tuple(map(convert, out[i])) if many else convert(out[i])
    return out


# The slots a step reads, per shape: its ``_KEY_FIELDS`` in order, without a loop.
READS: dict[type, Callable[[Step], tuple[int, ...]]] = {
    UpperSum: lambda step: (step[1], *step[2], *step[3], *step[5]),
    UpperProd: itemgetter(1, 2, 3),
    Unify: itemgetter(1, 2),
    LowerMonus: lambda step: (step[1], step[2], *step[3]),
    LowerMax: lambda step: (step[1], *step[2]),
    LowerInf: lambda step: (step[1],),
    CondLower: itemgetter(1, 2, 3),
}


def reads(steps: Sequence[Step]) -> tuple[int, ...]:
    """The distinct slots that ``steps`` name, in first-appearance order;
    the engine subscribes the instance to them."""
    return tuple(dict.fromkeys(chain.from_iterable(READS[step[0]](step) for step in steps)))


def decode(inst: Match, store: BoundStore) -> RuleInstance:
    """The view of ``inst``, compiled against ``store``, with the store's
    keys in place of slots."""
    rule_id, facts, steps = inst
    key = store.keys.__getitem__
    return RuleInstance(rule_id, facts, tuple(
        step[0]._make(_convert_keys(step, key)[1:]) for step in steps))


def compile_view(decoded: RuleInstance, store: BoundStore) -> Match:
    """A decoded view compiled against ``store``, interning unseen keys
    at their default."""
    return decoded.rule_id, decoded.facts, tuple(
        tuple(_convert_keys((type(c), *c), store.slot)) for c in decoded.conclusions)


HI, LO = Side.HI, Side.LO


def _emit(out: list[Justification], inst: Match, store: BoundStore, slot: int, side: Side,
          value: ExtNat, compute: str, const: int, *groups: tuple) -> None:
    """Append one tightening's justification.  Its premises, per (slots, side,
    role) group, snapshot each value and log index, as later tightenings move them."""
    keys, premises = store.keys, []
    for slots, read, role in groups:
        values, sources = ((store.hi_values, store.hi_sources) if read is HI
                           else (store.lo_values, store.lo_sources))
        premises += [Premise(keys[s], read, values[s], role, sources[s]) for s in slots]
    out.append(Justification(inst[0], keys[slot], side, value, compute, const,
                             tuple(premises), inst[1]))


def fire(inst: Match, store: BoundStore, rearrange: bool = True) -> list[Justification]:
    """Evaluate an instance compiled against ``store``; returns only updates
    that would strictly tighten (no-ops are dropped).

    Values are read from the store's slot lists; the premises and the
    justification are built only for a conclusion that tightens.  Most
    calls tighten nothing: common shapes come first and leave early.
    """
    lo, hi = store.lo_values, store.hi_values
    out: list[Justification] = []
    for step in inst[2]:
        shape = step[0]
        if shape is LowerMonus:
            _, target, base, subs, const = step
            floor = lo[base]
            if not floor:  # 0 monus anything is 0, and no lo is below 0
                continue
            total = const
            for s in subs:
                total += hi[s]
            # floor monus total, where anything monus inf is 0
            if total < floor and floor - total > lo[target]:
                _emit(out, inst, store, target, LO, floor - total, "monus", const,
                      ((base,), LO, "base"), (subs, HI, "add"))
        elif shape is UpperSum:
            _, target, adds, maxes, const, gates = step
            if gates and any(map(hi.__getitem__, gates)):
                continue
            rest = const + max(map(hi.__getitem__, maxes)) if maxes else const
            value = rest
            for s in adds:
                value += hi[s]
            if value < hi[target]:
                _emit(out, inst, store, target, HI, value, "sum", const,
                      (adds, HI, "add"), (maxes, HI, "max"), (gates, HI, "gate"))
            # lo(target) = 0 leaves every term at lo 0, which never tightens
            if rearrange and lo[target]:
                for i, term in enumerate(adds):
                    others = adds[:i] + adds[i + 1:]
                    value = ext_monus(lo[target], sum(map(hi.__getitem__, others), rest))
                    if value > lo[term]:
                        _emit(out, inst, store, term, LO, value, "monus", const,
                              ((target,), LO, "base"), (others, HI, "add"), (maxes, HI, "max"),
                              (gates, HI, "gate"))
        elif shape is UpperProd:
            _, target, left, right, minus_one = step
            if minus_one:
                value = ext_monus(ext_mul(hi[left] + 1, hi[right] + 1), 1)
            else:
                value = ext_mul(hi[left], hi[right] + 1)
            if value < hi[target]:
                _emit(out, inst, store, target, HI, value, "prod1" if minus_one else "prod0", 0,
                      ((left,), HI, "left"), ((right,), HI, "right"))
            if rearrange:
                for factor, other in ((left, right), (right, left)):
                    value = ext_monus(ext_ceil_div(lo[target] + 1, hi[other] + 1), 1)
                    if value > lo[factor]:
                        _emit(out, inst, store, factor, LO, value, "ceil1", 0,
                              ((target,), LO, "base"), ((other,), HI, "div"))
        elif shape is Unify:
            _, a, b = step
            for key, src in ((a, b), (b, a)):
                if hi[src] < hi[key]:
                    _emit(out, inst, store, key, HI, hi[src], "copy", 0, ((src,), HI, "copy"))
                if lo[src] > lo[key]:
                    _emit(out, inst, store, key, LO, lo[src], "copy", 0, ((src,), LO, "copy"))
        elif shape is LowerMax:
            _, target, sources = step
            value = max(map(lo.__getitem__, sources))
            if value > lo[target]:
                _emit(out, inst, store, target, LO, value, "maxlo", 0, (sources, LO, "lo"))
        elif shape is LowerInf:
            if INF > lo[step[1]]:
                _emit(out, inst, store, step[1], LO, INF, "inf", 0)
        elif shape is CondLower:
            _, target, gate, floor = step
            if hi[gate] < lo[floor] and lo[floor] > lo[target]:
                _emit(out, inst, store, target, LO, lo[floor], "copy", 0,
                      ((gate,), HI, "gate"), ((floor,), LO, "base"))
    return out


# -- post-hoc verification -------------------------------------------------------


def check_instance(inst: RuleInstance, store: BoundStore, elab: ElaboratedScene,
                   rearrange: bool = True) -> list[str]:
    """Inequalities of this instance violated by the store's current values,
    which at a fixpoint must be none.  ``inst`` is a decoded view, as
    ``instantiate(elab)`` returns it, recompiled against ``store`` here:
    unseen keys get a slot at their default.  ``elab`` is not read; it
    stays because ``perfbench/oracle.py`` passes it positionally."""
    violations = []
    for update in fire(compile_view(inst, store), store, rearrange=rearrange):
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
        law = rule.law.replace("|", "\\|")  # a bare "|" would end the table cell
        lines.append(f"| `{rule.id}` | {guard} | {law} |")
    return "\n".join(lines) + "\n"
