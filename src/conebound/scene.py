"""Scene data model: collection profile, declarations, facts, bounds, queries.

A scene declares spaces and maps, states structural facts about them
(cofiber sequences, pushouts, products, fibrations, ...), asserts interval
bounds, registers decomposition certificates, and asks queries.  The point
space "*" is implicitly declared and contractible; canonical maps
init(X): * -> X and term(X): X -> * are addressable without declaration.
"""

from __future__ import annotations

from dataclasses import dataclass
from .extnat import ExtNat
from .model import POINT, InvariantKey


@dataclass(frozen=True)
class CollectionProfile:
    """Closure properties of the ambient collection of cone spaces.

    ``all_spaces`` means every space belongs, which forces every closure
    flag; exactly one profile exists per scene.
    """

    name: str
    all_spaces: bool = False
    wedges: bool = False
    suspensions: bool = False
    joins: bool = False
    smash_ideal: bool = False

    def __post_init__(self) -> None:
        if self.all_spaces:
            object.__setattr__(self, "wedges", True)
            object.__setattr__(self, "suspensions", True)
            object.__setattr__(self, "joins", True)
            object.__setattr__(self, "smash_ideal", True)

    def flags(self) -> frozenset[str]:
        out = set()
        for name in ("all_spaces", "wedges", "suspensions", "joins", "smash_ideal"):
            if getattr(self, name):
                out.add(name)
        return frozenset(out)


@dataclass(frozen=True)
class MapDecl:
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


@dataclass(frozen=True)
class Fact:
    kind: str
    args: tuple[str, ...]

    def __post_init__(self) -> None:
        schema = FACT_SCHEMAS.get(self.kind)
        if schema is None:
            raise ValueError(f"unknown fact kind: {self.kind!r}")
        if len(schema) != len(self.args):
            raise ValueError(
                f"{self.kind} expects {len(schema)} arguments, got {len(self.args)}"
            )

    def render(self) -> str:
        return f"{self.kind}({', '.join(self.args)})"


@dataclass(frozen=True)
class BoundDecl:
    key: InvariantKey
    rel: str  # "<=", ">=", "="
    value: ExtNat


@dataclass(frozen=True)
class QueryDecl:
    key: InvariantKey


@dataclass(frozen=True)
class DecompositionCert:
    """Witness that the target map factors through n cone attachments.

    ``cone_spaces`` lists the attached cones in order.  Elaboration
    synthesizes the n - 1 intermediate spaces deterministically, named
    ``<target>.stage<i>``; the surface syntax has no way to name them.
    """

    target: InvariantKey
    cone_spaces: tuple[str, ...]


@dataclass(frozen=True)
class Scene:
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
