"""Interval-bound saturation engine for cone length and category invariants."""

from .elaborate import ElaboratedScene, ElaborationError, elaborate
from .engine import (
    DerivationTree,
    Limits,
    QueryAnswer,
    SaturationResult,
    explain,
    query,
    saturate,
)
from .extnat import INF, Interval, ext_ceil_div, ext_monus, ext_mul
from .model import BoundStore, InvariantKey, Justification, Kind, Side, replay
from .parser import ParseError, SceneParseError, parse_scene, render_scene, try_parse_scene
from .rules import Rule, catalog, check_instance, fire, instantiate
from .scene import (
    BoundDecl,
    CollectionProfile,
    DecompositionCert,
    Fact,
    MapDecl,
    QueryDecl,
    Scene,
)

__version__ = "0.1.0"

__all__ = [
    "INF",
    "BoundDecl",
    "BoundStore",
    "CollectionProfile",
    "DecompositionCert",
    "DerivationTree",
    "ElaboratedScene",
    "ElaborationError",
    "Fact",
    "Interval",
    "InvariantKey",
    "Justification",
    "Kind",
    "Limits",
    "MapDecl",
    "ParseError",
    "QueryAnswer",
    "QueryDecl",
    "Rule",
    "SaturationResult",
    "Scene",
    "SceneParseError",
    "Side",
    "catalog",
    "check_instance",
    "elaborate",
    "explain",
    "ext_ceil_div",
    "ext_monus",
    "ext_mul",
    "fire",
    "instantiate",
    "parse_scene",
    "query",
    "render_scene",
    "replay",
    "saturate",
    "try_parse_scene",
]
