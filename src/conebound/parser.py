"""Scene file parser and canonical renderer.

The surface syntax is line oriented with keyword heads; '#' starts a
comment that runs to end of line.  Parsing recovers at the next statement
after an error and reports every diagnostic with a 1-based line and
column.  Identifiers must be declared before use.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from operator import attrgetter
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


class Token(NamedTuple):
    kind: str  # IDENT NAT PUNCT EOL
    text: str
    line: int
    col: int


# One match per token: the blanks before it, then a token, a comment, the
# line's end or a character outside the syntax; only tokens and it are named.
_TOKEN_RE = re.compile(
    r"""[ \t]*
      (?: (?P<IDENT>[A-Za-z_][A-Za-z0-9_]*)
        | (?P<NAT>[0-9]+)
        | (?P<PUNCT>->|<=|>=|=|[{}()\[\],:*])
        | \#[^\n]* | \Z
        | (?P<bad>.) )
    """,
    re.VERBOSE | re.DOTALL,
)


def _lex_line(text: str, line_no: int, errors: list[ParseError]) -> list[Token]:
    tokens: list[Token] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        kind = m.lastgroup
        if kind == "bad":
            errors.append(ParseError(line_no, m.start(kind) + 1,
                                     f"unexpected character {m.group(kind)!r}"))
            return []
        if kind is not None:
            tokens.append(Token(kind, m.group(kind), line_no, m.start(kind) + 1))
        pos = m.end()
    tokens.append(Token("EOL", "", line_no, len(text) + 1))
    return tokens


class _StatementError(Exception):
    def __init__(self, error: ParseError):
        super().__init__(str(error))
        self.error = error


class _Cursor:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.idx = 0

    def peek(self) -> Token:
        return self.tokens[self.idx]

    def next(self) -> Token:
        tok = self.tokens[self.idx]
        if tok.kind != "EOL":
            self.idx += 1
        return tok

    def fail(self, message: str) -> "_StatementError":
        tok = self.peek()
        return _StatementError(ParseError(tok.line, tok.col, message))

    def expect_punct(self, text: str) -> Token:
        tok = self.peek()
        if tok.kind == "PUNCT" and tok.text == text:
            return self.next()
        raise self.fail(f"expected {text!r}")

    def accept_punct(self, text: str) -> bool:
        tok = self.peek()
        if tok.kind == "PUNCT" and tok.text == text:
            self.next()
            return True
        return False

    def expect_ident(self, what: str = "identifier") -> Token:
        tok = self.peek()
        if tok.kind == "IDENT":
            return self.next()
        raise self.fail(f"expected {what}")

    def expect_end(self) -> None:
        tok = self.peek()
        if tok.kind != "EOL":
            raise self.fail(f"unexpected trailing input {tok.text!r}")


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

    def declare_name(self, cur: _Cursor, tok: Token) -> str:
        name = tok.text
        if name in RESERVED:
            raise _StatementError(ParseError(tok.line, tok.col, f"reserved identifier {name!r}"))
        if name in self.spaces or name in self.map_sigs:
            raise _StatementError(ParseError(tok.line, tok.col, f"duplicate declaration {name!r}"))
        return name

    def space_ref(self, cur: _Cursor) -> str:
        tok = cur.peek()
        if tok.kind == "PUNCT" and tok.text == "*":
            cur.next()
            return POINT
        tok = cur.expect_ident("space name")
        if not self.has_space(tok.text):
            raise _StatementError(ParseError(tok.line, tok.col, f"unknown space {tok.text!r}"))
        return tok.text

    def map_ref(self, cur: _Cursor) -> str:
        """MAPREF := IDENT | init(IDENT) | term(IDENT)."""
        tok = cur.expect_ident("map name")
        if tok.text in ("init", "term"):
            cur.expect_punct("(")
            space = self.space_ref(cur)
            cur.expect_punct(")")
            return init_map(space) if tok.text == "init" else term_map(space)
        if tok.text not in self.map_sigs:
            raise _StatementError(ParseError(tok.line, tok.col, f"unknown map {tok.text!r}"))
        return tok.text

    def sig(self, map_id: str) -> tuple[str, str]:
        got = self.map_sigs.get(map_id)
        if got is not None:
            return got
        # canonical maps resolve structurally
        head, space = canonical_space(map_id)
        return (POINT, space) if head == "init" else (space, POINT)

    # -- statement parsers --------------------------------------------------

    def parse_invariant(self, cur: _Cursor) -> InvariantKey:
        tok = cur.expect_ident("invariant")
        head = tok.text
        if head not in INVARIANT_HEADS:
            raise _StatementError(
                ParseError(tok.line, tok.col, f"expected one of {', '.join(INVARIANT_HEADS)}")
            )
        cur.expect_punct("(")
        if head in SPACE_ALIASES:
            key = alias_key(head, self.space_ref(cur))
        else:
            key = InvariantKey(self.map_ref(cur), Kind(head))
        cur.expect_punct(")")
        return key

    def stmt_collection(self, cur: _Cursor) -> None:
        head = cur.peek()
        cur.next()  # "collection"
        if self.profile is not None:
            raise _StatementError(
                ParseError(head.line, head.col, "multiple collection declarations")
            )
        name = cur.expect_ident("collection name").text
        cur.expect_punct("{")
        flags = {f: False for f in FLAG_NAMES}
        all_spaces = False
        if not cur.accept_punct("}"):
            tok = cur.expect_ident("closure flag")
            if tok.text == "all":
                all_spaces = True
            elif tok.text in FLAG_NAMES:
                flags[tok.text] = True
                while cur.accept_punct(","):
                    tok = cur.expect_ident("closure flag")
                    if tok.text not in FLAG_NAMES:
                        raise _StatementError(
                            ParseError(tok.line, tok.col, f"unknown closure flag {tok.text!r}")
                        )
                    flags[tok.text] = True
            else:
                raise _StatementError(
                    ParseError(tok.line, tok.col, f"unknown closure flag {tok.text!r}")
                )
            cur.expect_punct("}")
        cur.expect_end()
        self.profile = CollectionProfile(name=name, all_spaces=all_spaces, **flags)

    def stmt_space(self, cur: _Cursor) -> None:
        cur.next()
        while True:
            tok = cur.expect_ident("space name")
            name = self.declare_name(cur, tok)
            self.spaces.add(name)
            if not cur.accept_punct(","):
                break
        cur.expect_end()

    def stmt_map(self, cur: _Cursor) -> None:
        cur.next()
        tok = cur.expect_ident("map name")
        name = self.declare_name(cur, tok)
        cur.expect_punct(":")
        dom = self.space_ref(cur)
        cur.expect_punct("->")
        cod = self.space_ref(cur)
        cur.expect_end()
        self.maps.append(MapDecl(name, dom, cod))
        self.map_sigs[name] = (dom, cod)

    def stmt_fact(self, cur: _Cursor) -> None:
        cur.next()
        head = cur.expect_ident("fact kind")
        schema = FACT_SCHEMAS.get(head.text)
        if schema is None:
            raise _StatementError(ParseError(head.line, head.col, f"unknown fact kind {head.text!r}"))
        cur.expect_punct("(")
        args: list[str] = []
        for i, role in enumerate(schema):
            if i > 0:
                cur.expect_punct(",")
            args.append(self.space_ref(cur) if role == "space" else self.map_ref(cur))
        cur.expect_punct(")")
        cur.expect_end()
        fact = Fact(head.text, tuple(args))
        self.check_fact_shape(fact, head)
        self.facts.append(fact)

    def check_fact_shape(self, fact: Fact, head: Token) -> None:
        """Domain/codomain consistency that is decidable within one fact."""

        def bad(message: str) -> _StatementError:
            return _StatementError(ParseError(head.line, head.col, message))

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

    def stmt_bound(self, cur: _Cursor) -> None:
        cur.next()
        key = self.parse_invariant(cur)
        tok = cur.peek()
        if tok.kind == "PUNCT" and tok.text in ("<=", ">=", "="):
            cur.next()
            rel = tok.text
        else:
            raise cur.fail("expected one of <=, >=, =")
        tok = cur.peek()
        value: ExtNat
        if tok.kind == "NAT":
            cur.next()
            value = int(tok.text)
        elif tok.kind == "IDENT" and tok.text == "inf":
            cur.next()
            value = INF
        else:
            raise cur.fail("expected natural number or 'inf'")
        cur.expect_end()
        self.bounds.append(BoundDecl(key, rel, value))

    def stmt_query(self, cur: _Cursor) -> None:
        cur.next()
        key = self.parse_invariant(cur)
        cur.expect_end()
        self.queries.append(QueryDecl(key))

    def stmt_decomposition(self, cur: _Cursor) -> None:
        cur.next()
        target = self.parse_invariant(cur)
        tok = cur.expect_ident()
        if tok.text != "via":
            raise _StatementError(ParseError(tok.line, tok.col, "expected 'via'"))
        cur.expect_punct("[")
        cones = [self.space_ref(cur)]
        while cur.accept_punct(","):
            cones.append(self.space_ref(cur))
        cur.expect_punct("]")
        cur.expect_end()
        self.certs.append(DecompositionCert(target, tuple(cones)))

    def parse(self, text: str) -> None:
        dispatch = {
            "collection": self.stmt_collection,
            "space": self.stmt_space,
            "map": self.stmt_map,
            "fact": self.stmt_fact,
            "bound": self.stmt_bound,
            "query": self.stmt_query,
            "decomposition": self.stmt_decomposition,
        }
        for line_no, raw in enumerate(text.splitlines(), start=1):
            tokens = _lex_line(raw, line_no, self.errors)
            if not tokens or tokens[0].kind == "EOL":
                continue
            head = tokens[0]
            handler = dispatch.get(head.text) if head.kind == "IDENT" else None
            if handler is None:
                self.errors.append(
                    ParseError(head.line, head.col, f"expected a statement keyword, got {head.text!r}")
                )
                continue
            try:
                handler(_Cursor(tokens))
            except _StatementError as exc:
                self.errors.append(exc.error)
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
    tokens = _lex_line(text.strip(), 1, parser.errors)
    if not parser.errors:
        cursor = _Cursor(tokens)
        try:
            key = parser.parse_invariant(cursor)
            cursor.expect_end()
            return key
        except _StatementError as exc:
            parser.errors.append(exc.error)
    raise SceneParseError(parser.errors)


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
