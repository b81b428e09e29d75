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
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from functools import partial
from typing import Iterable, Optional, Union

from .extnat import INF, TOP, ExtNat, Interval, ext_ceil_div, ext_monus, ext_mul, extnat_to_json

POINT = "*"


class Kind(Enum):
    """The two map invariants: cone length L and category Lcat."""

    CONE_LENGTH = "L"
    CATEGORY = "Lcat"


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


@dataclass(frozen=True)
class InvariantKey:
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


def key_L(map_id: str) -> InvariantKey:
    return InvariantKey(map_id, Kind.CONE_LENGTH)


def key_Lcat(map_id: str) -> InvariantKey:
    return InvariantKey(map_id, Kind.CATEGORY)


def alias_key(alias: str, space: str) -> InvariantKey:
    """The key a space invariant names: ``alias_key("kl", X)`` is L(term(X))."""
    head, kind = SPACE_ALIASES[alias]
    return InvariantKey(f"{head}({space})", kind)


key_cl = partial(alias_key, "cl")
key_cat = partial(alias_key, "cat")
key_kl = partial(alias_key, "kl")
key_kit = partial(alias_key, "kit")


@dataclass(frozen=True)
class Premise:
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


@dataclass(frozen=True)
class Justification:
    """Why one side of one key took a particular value."""

    rule_id: str  # catalog rule id, or "asserted"
    key: InvariantKey
    side: Side
    value: ExtNat
    compute: str  # computation kind, see recompute()
    const: int = 0
    premises: tuple[Premise, ...] = ()
    facts: tuple[str, ...] = ()  # fact ids this firing consumed

    def check(self) -> bool:
        """The recorded value matches re-running the computation."""
        if self.compute == "asserted":
            return True
        return recompute(self.compute, self.const, self.premises) == self.value


class StoreConflict:
    """A failed meet: the attempted justification crossed the other side."""

    def __init__(self, key: InvariantKey, current: Interval, attempted: Justification,
                 opposing_source: Optional[int]):
        self.key = key
        self.current = current
        self.attempted = attempted
        self.opposing_source = opposing_source


class BoundStore:
    """Interval per key, with the full monotone tightening log.

    The canonical maps of the point are exact by definition, so their keys
    default to [0, 0]; everything else defaults to the unconstrained
    [0, inf].
    """

    def __init__(self) -> None:
        self._intervals: dict[InvariantKey, Interval] = {}
        self._last: dict[tuple[InvariantKey, Side], int] = {}
        self.log: list[Justification] = []

    @staticmethod
    def default_interval(key: InvariantKey) -> Interval:
        split = canonical_space(key.map_id)
        if split is not None and split[1] == POINT:
            return Interval(0, 0)
        return TOP

    def interval(self, key: InvariantKey) -> Interval:
        got = self._intervals.get(key)
        return got if got is not None else self.default_interval(key)

    def lo(self, key: InvariantKey) -> ExtNat:
        return self.interval(key).lo

    def hi(self, key: InvariantKey) -> ExtNat:
        return self.interval(key).hi

    def value(self, key: InvariantKey, side: Side) -> ExtNat:
        return self.lo(key) if side is Side.LO else self.hi(key)

    def source_of(self, key: InvariantKey, side: Side) -> Optional[int]:
        """Log index of the justification backing the current value, if any."""
        return self._last.get((key, side))

    def justification_of(self, key: InvariantKey, side: Side) -> Optional[Justification]:
        idx = self.source_of(key, side)
        return self.log[idx] if idx is not None else None

    def would_tighten(self, key: InvariantKey, side: Side, value: ExtNat) -> bool:
        cur = self.interval(key)
        if side is Side.HI:
            return value < cur.hi
        return value > cur.lo

    def apply(self, just: Justification) -> Union[bool, StoreConflict]:
        """Meet one side with a justified value.

        Returns True if the store tightened, False for a no-op, or a
        StoreConflict when the new bound crosses the opposite side.
        """
        cur = self.interval(just.key)
        if just.side is Side.HI:
            if just.value >= cur.hi:
                return False
            if just.value < cur.lo:
                return StoreConflict(just.key, cur, just,
                                     self.source_of(just.key, Side.LO))
            new = Interval(cur.lo, just.value)
        else:
            if just.value <= cur.lo:
                return False
            if just.value > cur.hi:
                return StoreConflict(just.key, cur, just,
                                     self.source_of(just.key, Side.HI))
            new = Interval(just.value, cur.hi)
        self._intervals[just.key] = new
        self.log.append(just)
        self._last[(just.key, just.side)] = len(self.log) - 1
        return True

    def serialize(self) -> str:
        """Canonical JSON of all non-default intervals, for byte comparison."""
        payload = {
            f"{k.kind.value}({k.map_id})": [extnat_to_json(v.lo), extnat_to_json(v.hi)]
            for k, v in sorted(self._intervals.items(), key=lambda kv: kv[0].sort_key())
        }
        return json.dumps(payload, separators=(",", ":"))


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
