"""Scene data model: collection profile, declarations, facts, bounds, queries.

A scene declares spaces and maps, states structural facts about them
(cofiber sequences, pushouts, products, fibrations, ...), asserts interval
bounds, registers decomposition certificates, and asks queries.  The point
space "*" is implicitly declared and contractible; canonical maps
init(X): * -> X and term(X): X -> * are addressable without declaration.
"""

from __future__ import annotations

from typing import NamedTuple

from .extnat import CheckedRecord, ExtNat
from .model import POINT, InvariantKey


class _ProfileFields(NamedTuple):
    name: str
    all_spaces: bool = False
    wedges: bool = False
    suspensions: bool = False
    joins: bool = False
    smash_ideal: bool = False


class CollectionProfile(CheckedRecord, _ProfileFields):
    """Closure properties of the ambient collection of cone spaces.

    ``all_spaces`` means every space belongs, which forces every closure
    flag; exactly one profile exists per scene.
    """

    __slots__ = ()

    def __new__(cls, name: str, all_spaces: bool = False, wedges: bool = False,
                suspensions: bool = False, joins: bool = False,
                smash_ideal: bool = False) -> "CollectionProfile":
        if all_spaces:
            wedges = suspensions = joins = smash_ideal = True
        return tuple.__new__(cls, (name, all_spaces, wedges, suspensions, joins, smash_ideal))

    def flags(self) -> frozenset[str]:
        """The names of the set flags (every field after ``name``)."""
        return frozenset(flag for flag, on in zip(self._fields[1:], self[1:]) if on)


class MapDecl(NamedTuple):
    id: str
    dom: str
    cod: str


# Argument roles per fact kind.  The tuple order is the surface order.
#
#   compose(h, g, f)            h = g . f
#   cofiber(f, j, C)            f: A -> X, j: X -> C, C the cofiber of f
#   pushout(A, f, g, ib, ic, d) span f: A -> B, g: A -> C; induced
#                               ib: B -> D, ic: C -> D, d: A -> D
#   pushout_map(A, A2, a, b, c, d)
#                               verticals a: A -> A2 (apexes), b, c on the
#                               corners, d on the pushouts
#   cofiber_map(f, f2, al, be, ga)
#                               f, f2 open two cofiber sequences; al, be,
#                               ga are the three verticals
#   dominates(g, f)             g dominates f
#   section(f, g)               g . f = id, i.e. f is a section of g
#   projection(p)               p: A x B -> B, second-factor projection
#   fibration(p, F)             p: E -> B with fiber F
#   pullback(A, B, C, D, ab, ac, bd, cd, F)
#                               square over bd: B -> D, a fibration with
#                               fiber F; ab is the induced parallel map
FACT_SCHEMAS: dict[str, tuple[str, ...]] = {
    "member": ("space",),
    "contractible": ("space",),
    "equiv": ("map",),
    "homotopic": ("map", "map"),
    "equiv_maps": ("map", "map"),
    "compose": ("map", "map", "map"),
    "cofiber": ("map", "map", "space"),
    "pushout": ("space", "map", "map", "map", "map", "map"),
    "pushout_map": ("space", "space", "map", "map", "map", "map"),
    "cofiber_map": ("map", "map", "map", "map", "map"),
    "dominates": ("map", "map"),
    "section": ("map", "map"),
    "product_map": ("map", "map", "map"),
    "product_space": ("space", "space", "space"),
    "wedge_map": ("map", "map", "map"),
    "wedge_space": ("space", "space", "space"),
    "susp_space": ("space", "space"),
    "join_space": ("space", "space", "space"),
    "smash_space": ("space", "space", "space"),
    "smash_decomp": ("space", "space", "space", "space", "space"),
    "projection": ("map",),
    "fibration": ("map", "space"),
    "pullback": ("space", "space", "space", "space", "map", "map", "map", "map", "space"),
    "null": ("map",),
    "pi0_not_onto": ("map",),
}


class _FactFields(NamedTuple):
    kind: str
    args: tuple[str, ...]


class Fact(CheckedRecord, _FactFields):
    """A fact of a kind in ``FACT_SCHEMAS``, with as many arguments as its
    schema has roles."""

    __slots__ = ()

    def __new__(cls, kind: str, args: tuple[str, ...]) -> "Fact":
        schema = FACT_SCHEMAS.get(kind)
        if schema is None:
            raise ValueError(f"unknown fact kind: {kind!r}")
        if len(schema) != len(args):
            raise ValueError(f"{kind} expects {len(schema)} arguments, got {len(args)}")
        return tuple.__new__(cls, (kind, args))

    def render(self) -> str:
        return f"{self.kind}({', '.join(self.args)})"


class BoundDecl(NamedTuple):
    key: InvariantKey
    rel: str  # "<=", ">=", "="
    value: ExtNat


class QueryDecl(NamedTuple):
    key: InvariantKey


class DecompositionCert(NamedTuple):
    """Witness that the target map factors through n cone attachments.

    ``cone_spaces`` lists the attached cones in order.  Elaboration
    synthesizes the n - 1 intermediate spaces deterministically, named
    ``<target>.stage<i>``; the surface syntax has no way to name them.
    """

    target: InvariantKey
    cone_spaces: tuple[str, ...]


class Scene(NamedTuple):
    profile: CollectionProfile
    spaces: tuple[str, ...]  # sorted, "*" excluded (implicit)
    maps: tuple[MapDecl, ...]  # sorted by id
    facts: tuple[Fact, ...] = ()
    bounds: tuple[BoundDecl, ...] = ()
    queries: tuple[QueryDecl, ...] = ()
    certs: tuple[DecompositionCert, ...] = ()

    @staticmethod
    def build(profile, spaces, maps, facts=(), bounds=(), queries=(), certs=()) -> "Scene":
        """Normalize declaration order so structural equality ignores it."""
        return Scene(
            profile=profile,
            spaces=tuple(sorted(set(spaces) - {POINT})),
            maps=tuple(sorted(maps, key=lambda m: m.id)),
            facts=tuple(facts),
            bounds=tuple(bounds),
            queries=tuple(queries),
            certs=tuple(certs),
        )
