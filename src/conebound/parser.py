"""Scene file parser and canonical renderer.

The surface syntax is line oriented with keyword heads: a line ends at a
line feed, a carriage return, or the two in that order, and '#' starts a
comment that runs to its end.  One regex, ``TOKEN_RE``, lexes a line
with ``findall``: a token is a plain string whose first character tells
its kind, and the blanks between tokens are spaces and tabs.  The rule
catalog reads its laws with the same regex and the same ``Cursor``.
Parsing recovers at the next statement after an error and reports every
diagnostic with a 1-based line and column; a column is computed only for
an error.  Identifiers must be declared before use.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from operator import attrgetter
from string import ascii_letters, digits
from typing import NamedTuple, Optional

from .extnat import INF, ExtNat, fmt_extnat
from .model import (POINT, SPACE_ALIASES, InvariantKey, Kind, alias_key, canonical_space,
                    init_map, term_map)
from .scene import (
    FACT_SCHEMAS,
    BoundDecl,
    CollectionProfile,
    DecompositionCert,
    Fact,
    MapDecl,
    QueryDecl,
    Scene,
)

STATEMENT_HEADS = ("collection", "space", "map", "fact", "bound", "query", "decomposition")
FLAG_NAMES = ("wedges", "suspensions", "joins", "smash_ideal")
INVARIANT_HEADS = (*(kind.value for kind in Kind), *SPACE_ALIASES)

RESERVED = frozenset(STATEMENT_HEADS) | frozenset(FLAG_NAMES) | frozenset(INVARIANT_HEADS) | {
    "via", "all", "inf", "init", "term",
}


class ParseError(NamedTuple):
    line: int
    col: int
    message: str

    def __str__(self) -> str:
        return f"line {self.line}, col {self.col}: {self.message}"


class SceneParseError(Exception):
    def __init__(self, errors: list[ParseError]):
        super().__init__("; ".join(str(e) for e in errors))
        self.errors = errors


# Blanks are spaces and tabs.  Every other character is a token or part of
# one: a name, a number, "->", "<=", ">=", or a character of its own.
TOKEN_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|[0-9]+|->|<=|>=|[^ \t]")

# A scene's lines end at "\n", "\r\n" or "\r"; any other separator, such as
# "\x0b" or "\u2028", is a character outside the notation.
_LINE_BREAK = re.compile(r"\r\n?|\n")

# the one-character tokens of a scene; any longer token is a name, a number,
# "->", "<=" or ">="
_SCENE_CHARS = frozenset(ascii_letters + digits + "_=(){}[],:*")


class _TokenError(Exception):
    """A diagnostic at token ``idx`` of a cursor's line."""

    def __init__(self, cursor: Cursor, idx: int, message: str):
        super().__init__(message)
        self.cursor, self.idx, self.message = cursor, idx, message

    def at_line(self, line_no: int) -> ParseError:
        return ParseError(line_no, self.cursor.column(self.idx), self.message)


class Cursor:
    """A position in the tokens of one line, ``TOKEN_RE``'s matches in
    ``code`` (by default the whole line), which end with "".

    A token is a string, and its first character tells its kind: a letter
    or "_" starts a name, a digit a number.  An error names the token at
    fault by its index; its column is found only when it is reported.
    """

    def __init__(self, line: str, code: Optional[str] = None):
        self.line = line
        self.tokens = (*TOKEN_RE.findall(line if code is None else code), "")
        self.idx = 0

    def peek(self) -> str:
        return self.tokens[self.idx]

    def next(self) -> str:
        tok = self.tokens[self.idx]
        if tok:
            self.idx += 1
        return tok

    def at(self, *texts: str) -> bool:
        """Whether the next tokens read ``texts``."""
        return self.tokens[self.idx:self.idx + len(texts)] == texts

    def accept(self, *texts: str) -> bool:
        # ``at`` inlined: word, key and bound call this once per token
        idx = self.idx
        end = idx + len(texts)
        if self.tokens[idx:end] != texts:
            return False
        self.idx = end
        return True

    def word(self, *texts: str) -> None:
        if not self.accept(*texts):
            raise self.fail(f"expected {' '.join(texts)!r}")

    def name(self, what: str = "identifier") -> str:
        if not self.peek().isidentifier():
            raise self.fail(f"expected {what}")
        return self.next()

    def end(self) -> None:
        if self.peek():
            raise self.fail(f"unexpected trailing input {self.peek()!r}")

    def fail(self, message: str, idx: Optional[int] = None) -> Exception:
        """The error at token ``idx``, by default the next one."""
        return _TokenError(self, self.idx if idx is None else idx, message)

    def column(self, idx: int) -> int:
        """The 1-based column of token ``idx``; the end's is past the line."""
        if idx == len(self.tokens) - 1:
            return len(self.line) + 1
        return [m.start() for m in TOKEN_RE.finditer(self.line)][idx] + 1


def _scene_cursor(line: str) -> Cursor:
    """A cursor on one line of a scene, its comment cut off.  Raises at the
    first token that no statement can hold: a character outside the
    notation, or a lone "-", "<" or ">"."""
    cur = Cursor(line, line.partition("#")[0])
    for idx, tok in enumerate(cur.tokens):
        if len(tok) == 1 and tok not in _SCENE_CHARS:
            raise cur.fail(f"unexpected character {tok!r}", idx)
    return cur


class _Parser:
    def __init__(self) -> None:
        self.errors: list[ParseError] = []
        self.profile: Optional[CollectionProfile] = None
        self.spaces: set[str] = set()  # Scene.build sorts them
        # the spaces of a parsed scene that an invariant is resolved against
        self.scene_spaces: tuple[str, ...] = ()
        self.maps: list[MapDecl] = []
        # map id -> (dom, cod); resolving an invariant against a parsed
        # scene needs only the ids, a _SceneMaps
        self.map_sigs: dict[str, tuple[str, str]] = {}
        self.facts: list[Fact] = []
        self.bounds: list[BoundDecl] = []
        self.queries: list[QueryDecl] = []
        self.certs: list[DecompositionCert] = []

    # -- identifier helpers -------------------------------------------------

    def has_space(self, name: str) -> bool:
        return name == POINT or name in self.spaces or name in self.scene_spaces

    def declare_name(self, cur: Cursor, what: str) -> str:
        name = cur.peek()
        if name in RESERVED:
            raise cur.fail(f"reserved identifier {name!r}")
        if name in self.spaces or name in self.map_sigs:
            raise cur.fail(f"duplicate declaration {name!r}")
        return cur.name(what)

    def space_ref(self, cur: Cursor) -> str:
        if cur.accept("*"):
            return POINT
        name = cur.name("space name")
        if not self.has_space(name):
            raise cur.fail(f"unknown space {name!r}", cur.idx - 1)
        return name

    def map_ref(self, cur: Cursor) -> str:
        """MAPREF := IDENT | init(IDENT) | term(IDENT)."""
        name = cur.name("map name")
        if name in ("init", "term"):
            cur.word("(")
            space = self.space_ref(cur)
            cur.word(")")
            return init_map(space) if name == "init" else term_map(space)
        if name not in self.map_sigs:
            raise cur.fail(f"unknown map {name!r}", cur.idx - 1)
        return name

    def sig(self, map_id: str) -> tuple[str, str]:
        got = self.map_sigs.get(map_id)
        if got is not None:
            return got
        # canonical maps resolve structurally
        head, space = canonical_space(map_id)
        return (POINT, space) if head == "init" else (space, POINT)

    # -- statement parsers --------------------------------------------------
    # A stmt_ method gets the cursor past its keyword, token 0 of the line.

    def parse_invariant(self, cur: Cursor) -> InvariantKey:
        head = cur.name("invariant")
        if head not in INVARIANT_HEADS:
            raise cur.fail(f"expected one of {', '.join(INVARIANT_HEADS)}", cur.idx - 1)
        cur.word("(")
        if head in SPACE_ALIASES:
            key = alias_key(head, self.space_ref(cur))
        else:
            key = InvariantKey(self.map_ref(cur), Kind(head))
        cur.word(")")
        return key

    def stmt_collection(self, cur: Cursor) -> None:
        if self.profile is not None:
            raise cur.fail("multiple collection declarations", 0)
        name = cur.name("collection name")
        cur.word("{")
        flags = dict.fromkeys(FLAG_NAMES, False)
        all_spaces = False
        if not cur.accept("}"):
            flag = cur.name("closure flag")
            if flag == "all":
                all_spaces = True
            else:
                while True:
                    if flag not in FLAG_NAMES:
                        raise cur.fail(f"unknown closure flag {flag!r}", cur.idx - 1)
                    flags[flag] = True
                    if not cur.accept(","):
                        break
                    flag = cur.name("closure flag")
            cur.word("}")
        cur.end()
        self.profile = CollectionProfile(name=name, all_spaces=all_spaces, **flags)

    def stmt_space(self, cur: Cursor) -> None:
        self.spaces.add(self.declare_name(cur, "space name"))
        while cur.accept(","):
            self.spaces.add(self.declare_name(cur, "space name"))
        cur.end()

    def stmt_map(self, cur: Cursor) -> None:
        name = self.declare_name(cur, "map name")
        cur.word(":")
        dom = self.space_ref(cur)
        cur.word("->")
        cod = self.space_ref(cur)
        cur.end()
        self.maps.append(MapDecl(name, dom, cod))
        self.map_sigs[name] = (dom, cod)

    def stmt_fact(self, cur: Cursor) -> None:
        kind = cur.name("fact kind")
        schema = FACT_SCHEMAS.get(kind)
        if schema is None:
            raise cur.fail(f"unknown fact kind {kind!r}", 1)
        cur.word("(")
        args: list[str] = []
        for i, role in enumerate(schema):
            if i > 0:
                cur.word(",")
            args.append(self.space_ref(cur) if role == "space" else self.map_ref(cur))
        cur.word(")")
        cur.end()
        fact = Fact(kind, tuple(args))
        self.check_fact_shape(fact, cur)
        self.facts.append(fact)

    def check_fact_shape(self, fact: Fact, cur: Cursor) -> None:
        """Domain/codomain consistency that is decidable within one fact;
        an error sits at the fact kind, token 1."""

        def bad(message: str) -> Exception:
            return cur.fail(message, 1)

        k, a = fact.kind, fact.args
        if k == "compose":
            h, g, f = (self.sig(m) for m in a)
            if h[0] != f[0] or h[1] != g[1] or f[1] != g[0]:
                raise bad(f"compose({a[0]}, {a[1]}, {a[2]}) is not shape-consistent")
        elif k == "cofiber":
            f, j = self.sig(a[0]), self.sig(a[1])
            if f[1] != j[0] or j[1] != a[2]:
                raise bad(f"cofiber({a[0]}, {a[1]}, {a[2]}) is not shape-consistent")
        elif k == "pushout":
            apex = a[0]
            f, g, ib, ic, diag = (self.sig(m) for m in a[1:])
            ok = (
                f[0] == apex and g[0] == apex
                and ib[0] == f[1] and ic[0] == g[1]
                and ib[1] == ic[1] and diag == (apex, ib[1])
            )
            if not ok:
                raise bad(f"pushout({', '.join(a)}) is not shape-consistent")
        elif k == "homotopic":
            if self.sig(a[0]) != self.sig(a[1]):
                raise bad("homotopic maps must share domain and codomain")
        elif k == "section":
            f, g = self.sig(a[0]), self.sig(a[1])
            if f[0] != g[1] or f[1] != g[0]:
                raise bad(f"section({a[0]}, {a[1]}) is not shape-consistent")
        elif k == "pullback":
            A, B, C, D = a[0], a[1], a[2], a[3]
            ab, ac, bd, cd = (self.sig(m) for m in a[4:8])
            ok = ab == (A, B) and ac == (A, C) and bd == (B, D) and cd == (C, D)
            if not ok:
                raise bad(f"pullback({', '.join(a)}) is not shape-consistent")
        elif k == "pushout_map":
            va = self.sig(a[2])
            if va != (a[0], a[1]):
                raise bad(f"pushout_map vertical {a[2]} must map apex {a[0]} to apex {a[1]}")

    def stmt_bound(self, cur: Cursor) -> None:
        key = self.parse_invariant(cur)
        rel = cur.peek()
        if rel not in ("<=", ">=", "="):
            raise cur.fail("expected one of <=, >=, =")
        cur.next()
        tok = cur.peek()
        value: ExtNat
        if tok.isdigit():
            value = int(tok)
        elif tok == "inf":
            value = INF
        else:
            raise cur.fail("expected natural number or 'inf'")
        cur.next()
        cur.end()
        self.bounds.append(BoundDecl(key, rel, value))

    def stmt_query(self, cur: Cursor) -> None:
        key = self.parse_invariant(cur)
        cur.end()
        self.queries.append(QueryDecl(key))

    def stmt_decomposition(self, cur: Cursor) -> None:
        target = self.parse_invariant(cur)
        if cur.name() != "via":
            raise cur.fail("expected 'via'", cur.idx - 1)
        cur.word("[")
        cones = [self.space_ref(cur)]
        while cur.accept(","):
            cones.append(self.space_ref(cur))
        cur.word("]")
        cur.end()
        self.certs.append(DecompositionCert(target, tuple(cones)))

    def parse(self, text: str) -> None:
        for line_no, line in enumerate(_LINE_BREAK.split(text), start=1):
            try:
                cur = _scene_cursor(line)
                if cur.peek():
                    head = cur.next()
                    if head not in STATEMENT_HEADS:
                        raise cur.fail(f"expected a statement keyword, got {head!r}", 0)
                    getattr(self, "stmt_" + head)(cur)
            except _TokenError as exc:
                self.errors.append(exc.at_line(line_no))
        if self.profile is None and not self.errors:
            self.errors.append(ParseError(1, 1, "missing collection declaration"))

    def scene(self) -> Scene:
        assert self.profile is not None
        return Scene.build(
            self.profile, self.spaces, self.maps,
            self.facts, self.bounds, self.queries, self.certs,
        )


def try_parse_scene(text: str) -> tuple[Optional[Scene], list[ParseError]]:
    parser = _Parser()
    parser.parse(text)
    if parser.errors:
        return None, parser.errors
    return parser.scene(), []


def parse_scene(text: str) -> Scene:
    scene, errors = try_parse_scene(text)
    if errors:
        raise SceneParseError(errors)
    assert scene is not None
    return scene


class _SceneMaps:
    """The map ids of a scene, whose maps are sorted by id: a membership
    test bisects them, so resolving an invariant copies no table."""

    def __init__(self, maps: tuple[MapDecl, ...]):
        self.maps = maps

    def __contains__(self, name: str) -> bool:
        at = bisect_left(self.maps, name, key=_MAP_ID)
        return at < len(self.maps) and self.maps[at].id == name


_MAP_ID = attrgetter("id")


def parse_invariant(text: str, scene: Scene) -> InvariantKey:
    """Parse one invariant such as ``kl(X)`` or ``L(f)`` against the
    declarations of ``scene``; raises SceneParseError."""
    parser = _Parser()
    parser.scene_spaces = scene.spaces
    parser.map_sigs = _SceneMaps(scene.maps)
    # a target is one line: a line break ends it, as a character outside the notation
    line, newline, _ = text.strip(" \t").partition("\n")
    try:
        cur = _scene_cursor(line)
        if newline:
            raise cur.fail(f"unexpected character {newline!r}", len(cur.tokens) - 1)
        key = parser.parse_invariant(cur)
        cur.end()
        return key
    except _TokenError as exc:
        raise SceneParseError([exc.at_line(1)]) from None


# -- rendering ---------------------------------------------------------------


def render_scene(scene: Scene) -> str:
    """Canonical text: declarations sorted by id, facts in insertion order.

    parse_scene(render_scene(s)) is structurally identical to s.
    """
    lines: list[str] = []
    p = scene.profile
    if p.all_spaces:
        flags = "all"
    else:
        enabled = [f for f in FLAG_NAMES if getattr(p, f)]
        flags = ", ".join(enabled)
    lines.append(f"collection {p.name} {{ {flags} }}" if flags else f"collection {p.name} {{ }}")
    for space in sorted(scene.spaces):
        lines.append(f"space {space}")
    for decl in sorted(scene.maps, key=lambda m: m.id):
        lines.append(f"map {decl.id} : {decl.dom} -> {decl.cod}")
    for fact in scene.facts:
        lines.append(f"fact {fact.render()}")
    for bound in scene.bounds:
        lines.append(f"bound {bound.key.surface()} {bound.rel} {fmt_extnat(bound.value)}")
    for cert in scene.certs:
        cones = ", ".join(cert.cone_spaces)
        lines.append(f"decomposition {cert.target.surface()} via [{cones}]")
    for query in scene.queries:
        lines.append(f"query {query.key.surface()}")
    return "\n".join(lines) + "\n"
