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

A law is lexed by the parser's ``TOKEN_RE`` and read by a subclass of its
``Cursor``, whose errors name the rule and the token at fault.

A law compiles to data: a ``Matcher`` holds the function listing its
matches and, per instance, a ``Template``'s index and the key references
whose fields follow it.  Each ``instantiate`` call builds the scene's
key table once, ``Keys(elab, fields)``, whose dicts take a name to its
key's field: its slot in a store, or the key itself.  Every key a law
names is L or Lcat of a map of the scene, as cl, cat, kl and kit are of
its canonical maps, so the table holds them all before any match.  The
flat tuple ``(rule id, facts, template, *fields)`` is the only instance
form: ``template`` is the index in ``model.TEMPLATES`` of the step layout
that every instance of the law shares, and the instance's own slots or
keys follow it.  Over slots an instance holds only a str, a tuple of
ints and ints, so the cyclic collector stops tracking it.  Both ends run
generated code, built on first use by ``kernels``: a matcher's kernel
builds the instances, a template's kernel fires them, and is the one
evaluator of the steps.

Rule ids are stable public strings; traces and golden files show them.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Iterable, Iterator, NamedTuple, Optional

from .elaborate import ElaboratedScene
from .model import (TEMPLATES, BoundStore, InvariantKey, Kind, Side, Tightening, init_map,
                    term_map)
from .parser import Cursor
from .scene import FACT_SCHEMAS


# L then Lcat: a scene's keys, per map, in this order.  Each key is one tuple
# build: ``tuple.__new__`` skips the named tuple's Python-level __new__.
_KINDS = (Kind.CONE_LENGTH, Kind.CATEGORY)
_new = tuple.__new__


class Keys:
    """The key table of one ``instantiate`` call: six dicts, each taking a
    name to its key's instance field.  ``fields`` holds one field per key,
    for L(m) and then Lcat(m) of every map m in ``elab.maps`` order; a
    space's invariants are the fields of its canonical maps' keys, so cl(X)
    and L(init(X)) share one field.  ``facts`` interns the facts tuples of
    the call's instances: AX-COMP and C410-3 match the same compose facts."""

    __slots__ = ("L", "Lcat", "cl", "cat", "kl", "kit", "facts")

    def __init__(self, elab: ElaboratedScene, fields: list):
        self.facts: dict[tuple[int, ...], tuple[int, ...]] = {}
        self.L = L = dict(zip(elab.maps, fields[::2]))
        self.Lcat = Lcat = dict(zip(elab.maps, fields[1::2]))
        self.cl, self.cat, self.kl, self.kit = (
            dict(zip(elab.spaces, map(table.__getitem__, ids)))
            for ids in ([init_map(x) for x in elab.spaces], [term_map(x) for x in elab.spaces])
            for table in (L, Lcat))


# -- conclusion shapes ---------------------------------------------------------
# A shape's field order is its step layout: a template's step lists the
# shape, then per field a slot for a key, a run of slots for a tuple of keys,
# or a constant.  The named tuples name the fields, and the law compiler
# reads them; no step is ever built as one.

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
    """lo(target) >= lo(base) - sum of hi(subs), truncated."""

    target: InvariantKey
    base: InvariantKey
    subs: tuple[InvariantKey, ...] = ()


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


# An instance: (rule id, fact indices, template index, *slots), or keys for slots.
Match = tuple


class Rule(NamedTuple):
    """A guarded inequality schema.

    ``guard`` lists the collection closure flags required for soundness;
    an instance is only created when the scene's profile has them all.
    ``matcher`` is compiled from ``law``; AX-MC and L61 list their
    matches by hand.
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


def _mc_items(elab: ElaboratedScene) -> Iterator:
    for i, fact in elab.facts_of("cofiber"):
        cone = elab.sig(fact.args[0])[0]
        if cone in elab.member_fact:
            yield (i, elab.member_fact[cone]), (fact.args[1],)  # j


def _l61_items(elab: ElaboratedScene) -> Iterator:
    firsts: dict[tuple[str, str], list[str]] = {}  # (product, second) -> first factors
    for _, prod_fact in elab.facts_of("product_space"):
        prod, first, second = prod_fact.args
        firsts.setdefault((prod, second), []).append(first)
    for i, fact in elab.facts_of("projection"):
        p = fact.args[0]
        dom, cod = elab.sig(p)
        for first in firsts.get((dom, cod), ()):
            if first in elab.member_fact:
                yield (i, elab.member_fact[first]), (p, cod)
                break


# (id, guard, law, matches as (fact indices, names), steps in ``_layout``'s form)
_BY_HAND = (
    ("AX-MC", ANY, "cofiber(f, j, C) with member(dom f): L(j) <= 1", _mc_items,
     [[UpperSum, ("L", 0), [], [], 1, []]]),
    ("L61", J, "projection p: A x B -> B with member(A): L(p) <= cl(B) + 1 and "
               "Lcat(p) <= cat(B) + 1", _l61_items,
     [[UpperSum, ("L", 0), [("cl", 1)], [], 1, []],
      [UpperSum, ("Lcat", 0), [("cat", 1)], [], 1, []]]),
)

# -- the law compiler --------------------------------------------------------------
# A law compiles to data: the function listing its matches as (fact
# indices, names), and per instance its template and its key references
# (head, name position) in first-use order, whose slots follow the
# template in the instance.  A tuple field is a run of slots; a run that
# first use does not lay out repeats its keys.

_KEY_SORTS = dict(L="map", Lcat="map", cl="space", cat="space", kl="space", kit="space")
_ANALOG = {"L": "Lcat", "cl": "cat", "kl": "kit"}


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


class Matcher:
    """One law's matcher: called with a scene and a key table, it returns
    the law's instances, in item order and per item in instance order.

    ``items`` lists the law's matches as (fact indices, names); per
    instance, ``instances`` hold its template's index and its key
    references (head, name position), whose slots follow the index in the
    instance.
    ``match`` is the kernel, which ``kernels.compile_matcher`` makes from
    these on first use.
    """

    __slots__ = ("rule_id", "items", "instances", "match")

    def __init__(self, rule_id: str, items: Callable[[ElaboratedScene], Iterable],
                 instances: tuple[tuple[int, tuple], ...]):
        self.rule_id, self.items, self.instances = rule_id, items, instances
        self.match = self._compile

    def _compile(self, elab: ElaboratedScene, k: Keys) -> list[Match]:
        """The law's first match: compile its kernel, then run that.  Most
        laws match nothing in a small scene, and compile nothing there."""
        if next(iter(self.items(elab)), None) is None:
            return []
        from .kernels import compile_matcher

        self.match = compile_matcher(self)
        return self.match(elab, k)


def _analog(step: list) -> list:
    """``step`` with Lcat, cat and kit for L, cl and kl, except in its gates."""
    def swap(value: object) -> object:
        if type(value) is list:
            return list(map(swap, value))
        return (_ANALOG.get(value[0], value[0]), value[1]) if type(value) is tuple else value

    return [step[0], *(value if name == "gates" else swap(value)
                       for name, value in zip(step[0]._fields, step[1:]))]


def _layout(steps: list[list], templates: dict) -> tuple[int, tuple]:
    """One instance's (template index, key references).  In a step a key
    is a tuple, a tuple of keys is a list, and the rest are constants.
    ``templates`` holds the indices of the templates made so far by their
    layout; an equal layout reuses its template, and a new one joins the
    template table."""
    consts = list(dict.fromkeys((type(v), v) for step in steps for v in step
                                if type(v) not in (tuple, list)))
    refs: list[tuple[str, int]] = []
    first: dict[tuple[str, int], int] = {}
    base = len(consts) + 1  # the slots follow the template in the instance

    def at(key: tuple[str, int]) -> int:
        if key not in first:
            first[key] = len(refs)
            refs.append(key)
        return base + first[key]

    layout = []
    for step in steps:
        items: list = []
        for v in step:
            if type(v) is list:
                run = [at(key) for key in v]
                start = run[0] if run else 0
                if run != list(range(start, start + len(run))):
                    start = base + len(refs)
                    refs.extend(v)
                items.append(range(start, start + len(run)))
            else:
                items.append(at(v) if type(v) is tuple else consts.index((type(v), v)))
        layout.append(tuple(items))
    key = tuple(consts), tuple(layout)  # typed constants: True and 1 differ
    if key not in templates:
        templates[key] = len(TEMPLATES)
        TEMPLATES.append(Template(tuple(v for _, v in consts), key[1], len(refs)))
    return templates[key], tuple(refs)


class _LawCompiler(Cursor):
    """A position in one law's tokens and the names its head binds, each to
    its position in a match's names and its sort."""

    def __init__(self, rule_id: str, law: str, templates: dict):
        super().__init__(law)
        self.rule_id = rule_id
        self.names: dict[str, tuple[int, str]] = {}
        self.templates = templates

    def fail(self, message: str, idx: Optional[int] = None) -> ValueError:
        text = self.tokens[self.idx if idx is None else idx]
        return ValueError(f"rule {self.rule_id}: {message}, "
                          f"at {repr(text) if text else 'the end'}")

    def bind(self, at: int, sort: str) -> None:
        name = self.peek()
        if not name.isidentifier() or name in self.names or name in _KEY_SORTS:
            raise self.fail("expected a new name")
        if name != "_":
            self.names[name] = at, sort
        self.next()

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
            if self.at(":") and self.tokens[self.idx + 1] not in _KEY_SORTS:  # f: A -> B
                self.signature(1)
            items = _map_items
        else:
            items = self.fact_pattern()
        self.word(":")
        instances = [self.instance()]
        while self.accept("also"):
            instances.append(self.instance())
        if self.peek():
            raise self.fail("expected ';' or the end")
        return Matcher(self.rule_id, items,
                       tuple(_layout(steps, self.templates) for steps in instances))

    def fact_pattern(self) -> Callable:
        kind = self.peek()
        schema = FACT_SCHEMAS.get(kind)
        if schema is None:
            raise self.fail("expected a fact kind or 'any'")
        self.next()
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
            return [LowerMonus, target, floor, subs]
        self.word("<=")
        adds, maxes, const = [], [], 0
        while True:
            if self.at("max") and not maxes:
                maxes = self.max()
            elif self.peek().isdigit():
                const += int(self.next())
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
        head = self.peek()
        if head not in _KEY_SORTS:
            raise self.fail("expected an invariant")
        self.next()
        self.word("(")
        name = self.names.get(self.peek())
        if name is None:
            raise self.fail("unbound name")
        if name[1] != _KEY_SORTS[head]:
            raise self.fail(f"{head} takes a {_KEY_SORTS[head]}")
        self.next()
        self.word(")")
        return head, name[0]


def _compile(rule_id: str, law: str, templates: Optional[dict] = None) -> Matcher:
    """The matcher that ``law`` states, sharing the layouts in ``templates``.
    A malformed law raises ValueError naming the rule and the token at fault."""
    return _LawCompiler(rule_id, law, {} if templates is None else templates).compile()


_CATALOG: Optional[list[Rule]] = None


def catalog() -> list[Rule]:
    """All rules, sorted by id.  The list is built once and shared, and
    equal layouts across the whole catalog are one template."""
    global _CATALOG
    if _CATALOG is None:
        templates: dict = {}
        _CATALOG = sorted([
            *(Rule(rule_id, guard, law, _compile(rule_id, law, templates))
              for rule_id, guard, law in _LAWS),
            *(Rule(rule_id, guard, law, Matcher(rule_id, items, (_layout(steps, templates),)))
              for rule_id, guard, law, items, steps in _BY_HAND)], key=lambda r: r.id)
    return _CATALOG


def instantiate(elab: ElaboratedScene, store: Optional[BoundStore] = None) -> list[Match]:
    """The distinct guard-satisfying, shape-correct rule instances, in
    deterministic order: rules by id, instances in fact/registry order.

    The scene's keys, L(m) and then Lcat(m) of every map m in
    ``elab.maps`` order, are every key a law can name.  Given a store,
    they are interned there in that order, and one pass over the matchers
    with their slots as the key table compiles every instance against
    ``store``: the result is the (rule id, facts, template, *slots)
    instances that the engine fires, and ``store.keys`` maps an instance's
    slots back to its keys.  Without a store the keys themselves are the
    fields, one object per key.  Past its facts an instance compares by its
    template's index, one per layout, and its fields.  No two instances are
    equal: two matches differ in their rule, their facts or their first
    field, and a match kernel drops an ``also`` instance equal to an
    earlier one of its match.
    """
    keys = [_new(InvariantKey, (m, kind)) for m in elab.maps for kind in _KINDS]
    k = Keys(elab, keys if store is None else [*map(store.slot, keys)])
    flags = elab.profile.flags()
    matches: list[Match] = []
    for rule in catalog():
        if rule.guard <= flags:
            matches += rule.matcher.match(elab, k)
    return matches


# -- templates and their kernels ---------------------------------------------------


class Template:
    """The step layout that every instance of one law clause list shares.

    An instance is ``(rule id, facts, index, *slots)``, the index being
    the template's in ``TEMPLATES``.  ``items`` give each step as positions
    in ``consts + inst[2:]``: an int is a constant or a slot, a range a run
    of slots.  A step reads all its key fields and the steps name every
    slot position, so an instance reads each of its slots.  ``fire`` is the
    kernel, which ``kernels.compile_kernel`` makes from the items on first
    use, together with ``sites``, the table its Tightenings number their
    emitting sites in.
    """

    __slots__ = ("consts", "items", "width", "fire", "sites")

    def __init__(self, consts: tuple, items: tuple[tuple, ...], width: int):
        self.consts, self.items, self.width = consts, items, width
        self.fire = self._compile
        self.sites: list[tuple] = []

    def _compile(self, inst: Match, store: BoundStore, rearrange: bool) -> list[Tightening]:
        """The template's first fire: compile its kernel, then fire that."""
        from .kernels import compile_kernel

        self.fire, self.sites = compile_kernel(self)
        return self.fire(inst, store, rearrange)


def fire(inst: Match, store: BoundStore, rearrange: bool = True) -> list[Tightening]:
    """Evaluate an instance compiled against ``store`` through its
    template's kernel; returns only updates that would strictly tighten."""
    return TEMPLATES[inst[2]].fire(inst, store, rearrange)


# -- post-hoc verification -------------------------------------------------------


def check_instance(inst: Match, store: BoundStore, elab: ElaboratedScene,
                   rearrange: bool = True) -> list[str]:
    """Inequalities of this instance violated by the store's current values,
    which at a fixpoint must be none: the updates that firing it would
    make.  ``inst`` holds keys, as ``instantiate(elab)`` returns it, and is
    compiled against ``store`` here (unseen keys get a slot at their
    default) and fired through its template's kernel, as the engine fires
    it.  ``elab`` is not read; it stays because ``perfbench/oracle.py``
    passes it positionally."""
    violations = []
    compiled = (*inst[:3], *map(store.slot, inst[3:]))
    for update in map(store.justify, fire(compiled, store, rearrange)):
        side = "upper" if update.side is Side.HI else "lower"
        violations.append(
            f"{inst[0]}: {side} bound {update.value} on "
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
