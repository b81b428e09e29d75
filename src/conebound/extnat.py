"""Saturating arithmetic on the extended naturals and the interval type.

Every invariant handled by the engine takes values in N ∪ {inf}, and inf
is ``math.inf``.  Python's comparisons, ``min``, ``max``, ``sum`` and
``+`` are already exact on that set (n + inf == inf), so only the three
operations where float arithmetic would give nan or a finite float keep
a special case: ``ext_mul`` (0 * inf), ``ext_monus`` (inf - inf) and
``ext_ceil_div`` (floor division by or of inf).

An ``Interval`` records what is currently known about one such value:
``lo`` is the best proven lower bound and ``hi`` the best proven upper
bound.  The unconstrained interval [0, inf] means "nothing known", not
"the value is infinite".  Knowledge only ever grows (lo rises, hi falls).
"""

from __future__ import annotations

import math
from typing import NamedTuple, Union

INF = math.inf

ExtNat = Union[int, float]  # a float only when it is INF


def as_extnat(x: object) -> ExtNat:
    """Validate an extended natural; raises on negatives and non-integers.

    This also rejects a finite float, which is what a missing special case
    in the arithmetic below would leak.
    """
    if x == INF:
        return x
    if isinstance(x, bool) or not isinstance(x, int):
        raise TypeError(f"not an extended natural: {x!r}")
    if x < 0:
        raise ValueError(f"extended naturals are non-negative: {x!r}")
    return x


def ext_mul(a: ExtNat, b: ExtNat) -> ExtNat:
    """Saturating multiplication with the total convention 0 * inf = 0."""
    if a == 0 or b == 0:
        return 0
    return a * b


def ext_monus(a: ExtNat, b: ExtNat) -> ExtNat:
    """Truncated subtraction.

    Anything minus inf is 0 (including inf - inf): when the subtrahend is
    unbounded the only sound lower bound left is zero.
    """
    if b == INF:
        return 0
    return max(a - b, 0)


def ext_ceil_div(a: ExtNat, b: ExtNat) -> ExtNat:
    """Ceiling division; conservative at infinity (x / inf = 0).

    ``b`` must be at least 1; passing 0 is a caller bug, not a domain case.
    """
    if b < 1:
        raise ValueError("ext_ceil_div requires divisor >= 1")
    if b == INF:
        return 0
    if a == INF:
        return INF
    return -(-a // b)


def fmt_extnat(x: ExtNat) -> str:
    return "inf" if x == INF else str(x)


def extnat_to_json(x: ExtNat) -> object:
    """JSON has no infinity; the wire spelling is the string "inf"."""
    return "inf" if x == INF else x


class CheckedRecord:
    """Base, before the fields' ``NamedTuple``, of a record whose ``__new__``
    checks or normalizes its fields.  ``_make`` builds through that
    ``__new__``, and so do ``_replace`` and ``copy.replace``, which call
    ``_make``; pickling calls ``__new__`` itself."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class _IntervalFields(NamedTuple):
    lo: ExtNat
    hi: ExtNat


class Interval(CheckedRecord, _IntervalFields):
    """A pair lo <= hi of extended naturals; lo > hi is rejected outright."""

    __slots__ = ()

    def __new__(cls, lo: ExtNat, hi: ExtNat) -> "Interval":
        as_extnat(lo)
        as_extnat(hi)
        if lo > hi:
            raise ValueError(f"interval bounds out of order: {lo!r} > {hi!r}")
        return tuple.__new__(cls, (lo, hi))

    def side(self, side: str) -> ExtNat:
        return self.lo if side == "lo" else self.hi

    def __str__(self) -> str:
        return f"[{fmt_extnat(self.lo)}, {fmt_extnat(self.hi)}]"


TOP = Interval(0, INF)
