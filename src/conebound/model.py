"""Invariant identities, justifications, and the monotone bound store.

Every bound the engine tracks is keyed by (map id, invariant kind).  The
four space-level invariants are aliases for bounds on the canonical maps
to and from the point:

    cl(X)  = L(init(X))      cat(X) = Lcat(init(X))
    kl(X)  = L(term(X))      kit(X) = Lcat(term(X))

where init(X): * -> X and term(X): X -> * always exist.  The store only
ever tightens: a lower bound never decreases and an upper bound never
increases across a run, and every tightening carries a Justification
recording the rule, the premise snapshots, and the facts it used.

A rule's tightening is logged as a ``Tightening``, a few ints beside its
instance, and its Justification is built only when ``BoundStore.log``
is read: the premise snapshots are found again from the log itself.
"""

from __future__ import annotations

import json
from enum import Enum
from collections.abc import Sequence
from typing import Iterable, Iterator, NamedTuple, Optional, Union

from .extnat import (INF, TOP, ExtNat, Interval, as_extnat, ext_ceil_div, ext_monus, ext_mul,
                     extnat_to_json)

POINT = "*"


class Kind(Enum):
    """The two map invariants: cone length L and category Lcat."""

    CONE_LENGTH = "L"
    CATEGORY = "Lcat"

    # members are singletons, so hash by identity; Enum's own __hash__ is a
    # Python-level call, and every key hash goes through it
    __hash__ = object.__hash__


class Side(Enum):
    LO = "lo"
    HI = "hi"


def init_map(space: str) -> str:
    return f"init({space})"


def term_map(space: str) -> str:
    return f"term({space})"


def canonical_space(map_id: str) -> Optional[tuple[str, str]]:
    """Split a canonical map id into ("init"|"term", space), else None.

    This is the only place that takes a canonical id apart.  No declared
    or synthesized map id other than a canonical one starts with "init("
    or "term(", so the closing parenthesis is not checked.
    """
    if map_id.startswith(("init(", "term(")):
        return map_id[:4], map_id[5:-1]
    return None


# The space invariants, each an alias for an invariant of a canonical map.
SPACE_ALIASES: dict[str, tuple[str, Kind]] = {
    "cl": ("init", Kind.CONE_LENGTH),
    "cat": ("init", Kind.CATEGORY),
    "kl": ("term", Kind.CONE_LENGTH),
    "kit": ("term", Kind.CATEGORY),
}
_ALIAS_OF = {target: alias for alias, target in SPACE_ALIASES.items()}


class InvariantKey(NamedTuple):
    """One bound's identity.  A tuple, so that hashing and comparing keys,
    which the store and the engine do on every lookup, runs in C."""

    map_id: str
    kind: Kind

    def surface(self) -> str:
        """Render in alias form: cl/cat/kl/kit for canonical maps."""
        split = canonical_space(self.map_id)
        if split is not None:
            head, space = split
            return f"{_ALIAS_OF[head, self.kind]}({space})"
        return f"{self.kind.value}({self.map_id})"

    def sort_key(self) -> tuple[str, str]:
        return (self.map_id, self.kind.value)


def alias_key(alias: str, space: str) -> InvariantKey:
    """The key a space invariant names: ``alias_key("kl", X)`` is L(term(X))."""
    head, kind = SPACE_ALIASES[alias]
    return tuple.__new__(InvariantKey, (f"{head}({space})", kind))  # no Python-level __new__


class Premise(NamedTuple):
    """One value read while computing a bound, with its provenance pointer.

    ``role`` tags how the value entered the computation (see RECOMPUTERS);
    ``source`` is the index into the store log of the justification that
    produced the value, or None for a default bound.
    """

    key: InvariantKey
    side: Side
    value: ExtNat
    role: str
    source: Optional[int] = None


# Computation kinds a Justification can carry.  `recompute` re-derives the
# produced value from the premise snapshots, which keeps derivation trees
# mechanically checkable.
#   const   -> const
#   sum     -> sum of "add" roles + max of "max" roles + const
#   monus   -> "base" role  minus  (sum of "add" + max of "max" + const)
#              (sum and monus ignore "gate" roles: hi = 0 conditions, not terms)
#   prod1   -> ("left"+1) * ("right"+1) - 1
#   prod0   -> "left" * ("right"+1)
#   ceil1   -> ceil(("base"+1) / ("div"+1)) - 1
#   copy    -> the single premise value
#   maxlo   -> max of premise values
#   inf     -> inf


def recompute(kind: str, const: int, premises: Iterable[Premise]) -> ExtNat:
    premises = list(premises)

    def roles(*names: str) -> list[ExtNat]:
        return [p.value for p in premises if p.role in names]

    def total() -> ExtNat:
        return sum(roles("add"), const) + max(roles("max"), default=0)

    if kind == "const":
        return const
    if kind == "sum":
        return total()
    if kind == "monus":
        (base,) = roles("base")
        return ext_monus(base, total())
    if kind == "prod1":
        (left,) = roles("left")
        (right,) = roles("right")
        return ext_monus(ext_mul(left + 1, right + 1), 1)
    if kind == "prod0":
        (left,) = roles("left")
        (right,) = roles("right")
        return ext_mul(left, right + 1)
    if kind == "ceil1":
        (base,) = roles("base")
        (div,) = roles("div")
        return ext_monus(ext_ceil_div(base + 1, div + 1), 1)
    if kind == "copy":
        (v,) = roles("base", "copy")
        return v
    if kind == "maxlo":
        return max((p.value for p in premises), default=0)
    if kind == "inf":
        return INF
    raise ValueError(f"unknown computation kind: {kind!r}")


class Justification(NamedTuple):
    """Why one side of one key took a particular value."""

    rule_id: str  # catalog rule id, or "asserted"
    key: InvariantKey
    side: Side
    value: ExtNat
    compute: str  # computation kind, see recompute()
    const: int = 0
    premises: tuple[Premise, ...] = ()
    facts: tuple[int, ...] = ()  # indices into ElaboratedScene.facts of the facts consumed

    def check(self) -> bool:
        """The recorded value matches re-running the computation."""
        if self.compute == "asserted":
            return True
        return recompute(self.compute, self.const, self.premises) == self.value


# The template table: every step layout that ``rules`` compiles, by the
# index that an instance holds third, after its rule id and facts.  It
# only grows, so an index stays valid for the life of the process.  A
# template's ``sites`` list the emitting sites of its kernel, each as
# (target position, side, compute kind, const, premises), a premise being
# (instance position, read side, role): the layout that
# ``BoundStore.justify`` rebuilds a Tightening's Justification from.
TEMPLATES: list = []


class Tightening(NamedTuple):
    """One update that a rule's kernel emits, as the store logs it.

    ``site`` numbers the emitting site in the site table of the instance's
    template, ``slot`` is the target's slot, and ``start`` the log's length
    when the ``fire`` call began: every premise was read at that length.
    """

    inst: tuple  # the instance: (rule id, facts, template index, *slots)
    site: int
    slot: int
    value: ExtNat
    start: int

    @property
    def rule_id(self) -> str:
        return self.inst[0]


class StoreConflict:
    """A failed meet: the attempted justification crossed the other side."""

    def __init__(self, key: InvariantKey, current: Interval, attempted: Justification,
                 opposing_source: Optional[int]):
        self.key = key
        self.current = current
        self.attempted = attempted
        self.opposing_source = opposing_source


_new = tuple.__new__  # a record checks no field: skip the named tuple's Python-level __new__
_POINT_MAPS = frozenset((init_map(POINT), term_map(POINT)))
_EXACT = Interval(0, 0)


class BoundStore:
    """Interval per key, with the full monotone tightening log.

    Each key the store has seen owns an int slot.  The lo and hi of a slot
    and the log indices of the justifications behind them live in flat
    per-slot lists, which compiled rule instances read directly
    (``rules.fire``).  The canonical maps of the point are
    exact by definition, so their keys default to [0, 0]; everything else
    defaults to the unconstrained [0, inf].

    ``entries`` holds each tightening in order, an asserted Justification
    or a rule's Tightening, and ``prior`` per entry the log index of the
    previous value of its side of its slot, None for the default.
    Following ``prior`` from a side's current source back below a fire
    call's ``start`` finds what that call read, so ``log`` builds every
    Justification on demand, with the premises it had when it fired.  This
    holds while every value in the lists came from an entry or a default.
    """

    def __init__(self) -> None:
        self.slots: dict[InvariantKey, int] = {}
        self.keys: list[InvariantKey] = []
        self.lo_values: list[ExtNat] = []
        self.hi_values: list[ExtNat] = []
        self.lo_sources: list[Optional[int]] = []
        self.hi_sources: list[Optional[int]] = []
        self.entries: list[Union[Justification, Tightening]] = []
        self.prior: list[Optional[int]] = []

    @property
    def log(self) -> Log:
        # a new view per read: a view kept on the store would make a cycle,
        # and free the store only at a cyclic collection
        return Log(self)

    @staticmethod
    def default_interval(key: InvariantKey) -> Interval:
        return _EXACT if key.map_id in _POINT_MAPS else TOP

    def slot(self, key: InvariantKey) -> int:
        """The key's slot; a key seen for the first time starts at its default."""
        slot = self.slots.get(key)
        if slot is None:
            slot = self.slots[key] = len(self.keys)
            self.keys.append(key)
            lo, hi = self.default_interval(key)
            self.lo_values.append(lo)
            self.hi_values.append(hi)
            self.lo_sources.append(None)
            self.hi_sources.append(None)
        return slot

    def interval(self, key: InvariantKey) -> Interval:
        slot = self.slots.get(key)
        if slot is None:
            return self.default_interval(key)
        return Interval(self.lo_values[slot], self.hi_values[slot])

    def source_of(self, key: InvariantKey, side: Side) -> Optional[int]:
        """The log index of the justification behind one side, if any."""
        sources = self.lo_sources if side is Side.LO else self.hi_sources
        return sources[self.slots[key]] if key in self.slots else None

    def justification_of(self, key: InvariantKey, side: Side) -> Optional[Justification]:
        """The justification backing the current value of one side, if any."""
        idx = self.source_of(key, side)
        return self.log[idx] if idx is not None else None

    def apply(self, update: Union[Justification, Tightening]) -> Union[bool, StoreConflict]:
        """Meet one side with a justified value: a Justification by its
        key, or a rule's Tightening by its slot and its site's side.

        Returns True if the store tightened, False for a no-op, or a
        StoreConflict when the new bound crosses the opposite side.
        """
        if type(update) is Tightening:
            inst, site, slot, value, _ = update
            side = TEMPLATES[inst[2]].sites[site][1]
        else:
            slot, side, value = self.slot(update.key), update.side, update.value
        lo, hi = self.lo_values[slot], self.hi_values[slot]
        if side is Side.HI:
            if value >= hi:
                return False
            if value < lo:
                return StoreConflict(self.keys[slot], Interval(lo, hi), self.justify(update),
                                     self.lo_sources[slot])
            self.hi_values[slot] = as_extnat(value)
            self.prior.append(self.hi_sources[slot])
            self.hi_sources[slot] = len(self.entries)
        else:
            if value <= lo:
                return False
            if value > hi:
                return StoreConflict(self.keys[slot], Interval(lo, hi), self.justify(update),
                                     self.hi_sources[slot])
            self.lo_values[slot] = as_extnat(value)
            self.prior.append(self.lo_sources[slot])
            self.lo_sources[slot] = len(self.entries)
        self.entries.append(update)
        return True

    def justify(self, update: Union[Justification, Tightening]) -> Justification:
        """``update`` as a Justification.  A Tightening's premises are what
        its fire call read: per read side of a slot, the entry behind it at
        ``start``, found from the side's current source through ``prior``,
        or the default."""
        if type(update) is not Tightening:
            return update
        inst, site, slot, value, start = update
        _, side, compute, const, reads = TEMPLATES[inst[2]].sites[site]
        keys, entries, prior = self.keys, self.entries, self.prior
        premises = []
        for at, read, role in reads:
            source = (self.lo_sources if read is Side.LO else self.hi_sources)[inst[at]]
            while source is not None and source >= start:
                source = prior[source]
            key = keys[inst[at]]
            was = (entries[source].value if source is not None
                   else self.default_interval(key).side(read.value))
            premises.append(_new(Premise, (key, read, was, role, source)))
        return _new(Justification, (inst[0], keys[slot], side, value, compute, const,
                                    tuple(premises), inst[1]))

    def serialize(self) -> str:
        """Canonical JSON of all non-default intervals, for byte comparison.

        An interval is non-default exactly when one of its sides has a
        justification: every tightening moves it off its default.
        """
        tightened = sorted(
            ((key, slot) for key, slot in self.slots.items()
             if self.lo_sources[slot] is not None or self.hi_sources[slot] is not None),
            key=lambda pair: pair[0].sort_key())
        payload = {
            f"{k.kind.value}({k.map_id})": [extnat_to_json(self.lo_values[slot]),
                                            extnat_to_json(self.hi_values[slot])]
            for k, slot in tightened
        }
        return json.dumps(payload, separators=(",", ":"))


class Log(Sequence):
    """A store's tightening log, read only: entry ``i`` is built as its
    Justification when it is read, and none is kept."""

    def __init__(self, store: BoundStore):
        self._store = store

    def __len__(self) -> int:
        return len(self._store.entries)

    def __getitem__(self, idx: int) -> Justification:
        return self._store.justify(self._store.entries[idx])

    def __iter__(self) -> Iterator[Justification]:
        return map(self._store.justify, self._store.entries)


def replay(log: Iterable[Justification]) -> BoundStore:
    """Rebuild a store by re-applying a justification log in order.

    Replaying recorded tightenings can never widen an interval, and on a
    log produced by a run it reconstructs the exact final store.
    """
    store = BoundStore()
    for just in log:
        result = store.apply(just)
        if isinstance(result, StoreConflict):
            raise ValueError(f"replay hit a conflict at {just.key.surface()}")
    return store
