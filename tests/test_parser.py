"""Parser diagnostics and the parse/render round-trip law."""

import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conebound.extnat import INF
from conebound.model import Kind, Side
from conebound.parser import (
    SceneParseError,
    _TokenError,
    _scene_cursor,
    parse_invariant,
    parse_scene,
    render_scene,
    try_parse_scene,
)

BASIC = """collection All { all }
space X
map f : X -> X
fact equiv(f)
query L(f)
"""


def test_basic_scene():
    scene = parse_scene(BASIC)
    assert scene.spaces == ("X",)
    assert [m.id for m in scene.maps] == ["f"]
    assert len(scene.facts) == 1
    assert len(scene.queries) == 1
    assert scene.queries[0].key.surface() == "L(f)"


def test_profile_all_forces_flags():
    scene = parse_scene(BASIC)
    p = scene.profile
    assert p.all_spaces and p.wedges and p.suspensions and p.joins and p.smash_ideal


def test_duplicate_space():
    _, errors = try_parse_scene("collection C { }\nspace X\nspace X\n")
    assert len(errors) == 1
    assert errors[0].line == 3
    assert "duplicate" in errors[0].message


def test_bound_value_diagnostic():
    _, errors = try_parse_scene(
        "collection C { }\nspace X\nbound cl(X) <= banana\n")
    assert len(errors) == 1
    assert errors[0].line == 3
    assert "expected natural number or 'inf'" in errors[0].message


def test_missing_arrow_diagnostic():
    _, errors = try_parse_scene("collection C { }\nspace X, Y\nmap f : X Y\n")
    assert errors and errors[0].line == 3
    assert "'->'" in errors[0].message


def test_unknown_identifier():
    _, errors = try_parse_scene("collection C { }\nmap f : X -> Y\n")
    assert errors and "unknown space 'X'" in errors[0].message


def test_multiple_collections():
    _, errors = try_parse_scene("collection A { }\ncollection B { all }\n")
    assert errors and "multiple collection" in errors[0].message


def test_missing_collection():
    _, errors = try_parse_scene("space X\n")
    assert errors and "missing collection" in errors[0].message


def test_recovery_reports_multiple_errors():
    text = "collection C { }\nspace X\nspace X\nbound cl(X) <= banana\n"
    _, errors = try_parse_scene(text)
    assert [e.line for e in errors] == [3, 4]


def test_reserved_identifier():
    _, errors = try_parse_scene("collection C { }\nspace init\n")
    assert errors and "reserved" in errors[0].message


def test_fact_shape_mismatch():
    text = (
        "collection C { }\n"
        "space X, Y, Z\n"
        "map f : X -> Y\n"
        "map g : X -> Z\n"
        "fact compose(g, g, f)\n"
    )
    _, errors = try_parse_scene(text)
    assert errors and "not shape-consistent" in errors[0].message


def test_fact_arity_mismatch():
    _, errors = try_parse_scene(
        "collection C { }\nspace X\nfact member(X, X)\n")
    assert errors and errors[0].line == 3


def test_lexical_error_position():
    _, errors = try_parse_scene("collection C { }\nspace X\nbound cl(X) <= 3 $\n")
    assert errors and errors[0].line == 3 and errors[0].col == 18


# Every diagnostic the parser makes, pinned with its exact position.
_DECLARED = ("collection C { }\nspace X, Y, Z\nmap f : X -> Y\nmap g : Y -> Z\nmap h : X -> Z\n"
             "map u : Y -> X\n")
# (line 7, col, message) of a statement after _DECLARED
_AFTER_DECLARATIONS = [
    ('space init', 7, "reserved identifier 'init'"),
    ('space X', 7, "duplicate declaration 'X'"),
    ('map X : X -> Y', 5, "duplicate declaration 'X'"),
    ('map f : X -> Y', 5, "duplicate declaration 'f'"),
    ('space W, init', 10, "reserved identifier 'init'"),
    ('space W, W', 10, "duplicate declaration 'W'"),
    ('map k : W -> X', 9, "unknown space 'W'"),
    ('map k : X -> W', 14, "unknown space 'W'"),
    ('query L(k)', 9, "unknown map 'k'"),
    ('query L(init(W))', 14, "unknown space 'W'"),
    ('query cl(W)', 10, "unknown space 'W'"),
    ('space', 6, 'expected space name'),
    ('space W,', 9, 'expected space name'),
    ('space 1', 7, 'expected space name'),
    ('space W W', 9, "unexpected trailing input 'W'"),
    ('map', 4, 'expected map name'),
    ('map 1', 5, 'expected map name'),
    ('map k', 6, "expected ':'"),
    ('map k :', 8, 'expected space name'),
    ('map k X', 7, "expected ':'"),
    ('map k : X', 10, "expected '->'"),
    ('map k : X Y', 11, "expected '->'"),
    ('map k : X ->', 13, 'expected space name'),
    ('map k : X -> ', 14, 'expected space name'),
    ('map k : X -> # note', 20, 'expected space name'),
    ('map k : X -> Y Y', 16, "unexpected trailing input 'Y'"),
    ('map k : 1 -> Y', 9, 'expected space name'),
    ('fact', 5, 'expected fact kind'),
    ('fact 1', 6, 'expected fact kind'),
    ('fact bogus(X)', 6, "unknown fact kind 'bogus'"),
    ('fact member X', 13, "expected '('"),
    ('fact member(X', 14, "expected ')'"),
    ('fact member(X, Y)', 14, "expected ')'"),
    ('fact equiv(f g)', 14, "expected ')'"),
    ('fact compose(f, f)', 18, "expected ','"),
    ('fact equiv(1)', 12, 'expected map name'),
    ('fact member(1)', 13, 'expected space name'),
    ('fact equiv(init)', 16, "expected '('"),
    ('fact equiv(init(X)', 19, "expected ')'"),
    ('fact equiv(init X)', 17, "expected '('"),
    ('fact equiv(term())', 17, 'expected space name'),
    ('fact member(X))', 15, "unexpected trailing input ')'"),
    ('fact compose(f, f, f)', 6, 'compose(f, f, f) is not shape-consistent'),
    ('fact cofiber(f, f, Z)', 6, 'cofiber(f, f, Z) is not shape-consistent'),
    ('fact pushout(X, f, f, f, f, f)', 6, 'pushout(X, f, f, f, f, f) is not shape-consistent'),
    ('fact homotopic(f, g)', 6, 'homotopic maps must share domain and codomain'),
    ('fact section(f, f)', 6, 'section(f, f) is not shape-consistent'),
    ('fact pullback(X, Y, Z, X, f, f, f, f, Z)', 6,
     'pullback(X, Y, Z, X, f, f, f, f, Z) is not shape-consistent'),
    ('fact pushout_map(X, Y, g, f, f, f)', 6, 'pushout_map vertical g must map apex X to apex Y'),
    ('bound', 6, 'expected invariant'),
    ('bound 1', 7, 'expected invariant'),
    ('bound foo(X)', 7, 'expected one of L, Lcat, cl, cat, kl, kit'),
    ('bound cl X', 10, "expected '('"),
    ('bound cl(X', 11, "expected ')'"),
    ('bound cl(X) 3', 13, 'expected one of <=, >=, ='),
    ('bound cl(X) <=', 15, "expected natural number or 'inf'"),
    ('bound cl(X) <= banana', 16, "expected natural number or 'inf'"),
    ('bound cl(X) <= 3 4', 18, "unexpected trailing input '4'"),
    ('bound cl(X) <= -1', 16, "unexpected character '-'"),
    ('bound L(X) <= 1', 9, "unknown map 'X'"),
    ('bound cl(f) <= 1', 10, "unknown space 'f'"),
    ('bound cl() <= 1', 10, 'expected space name'),
    ('query', 6, 'expected invariant'),
    ('query cl(X) cl(Y)', 13, "unexpected trailing input 'cl'"),
    ('query cl(X),', 12, "unexpected trailing input ','"),
    ('decomposition', 14, 'expected invariant'),
    ('decomposition kl(X)', 20, 'expected identifier'),
    ('decomposition kl(X) by [Y]', 21, "expected 'via'"),
    ('decomposition kl(X) via Y', 25, "expected '['"),
    ('decomposition kl(X) via [Y', 27, "expected ']'"),
    ('decomposition kl(X) via [Y,]', 28, 'expected space name'),
    ('decomposition kl(X) via [Y] Y', 29, "unexpected trailing input 'Y'"),
    ('decomposition kl(X) 1', 21, 'expected identifier'),
    ('decomposition kl(X) via [ ]', 27, 'expected space name'),
    ('collection D { }', 1, 'multiple collection declarations'),
    ('collection', 1, 'multiple collection declarations'),
    ('foo X', 1, "expected a statement keyword, got 'foo'"),
    ('( X', 1, "expected a statement keyword, got '('"),
    ('1 X', 1, "expected a statement keyword, got '1'"),
    ('-> X', 1, "expected a statement keyword, got '->'"),
    ('<= 1', 1, "expected a statement keyword, got '<='"),
    ('= X', 1, "expected a statement keyword, got '='"),
    ('FACT member(X)', 1, "expected a statement keyword, got 'FACT'"),
    ('bound cl(X) <= 3 $', 18, "unexpected character '$'"),
    ('map k : X - Y', 11, "unexpected character '-'"),
    ('bound cl(X) < 3', 13, "unexpected character '<'"),
    ('bound cl(X) > 3', 13, "unexpected character '>'"),
    ('bound cl(X) => 3', 14, "unexpected character '>'"),
    ('space\xa0W', 6, "unexpected character '\\xa0'"),
    ('space W\u3000V', 8, "unexpected character '\\u3000'"),
    ('\tspace W\t$', 10, "unexpected character '$'"),
    ('space W²', 8, "unexpected character '²'"),
    ('space é', 7, "unexpected character 'é'"),
    ('space W;', 8, "unexpected character ';'"),
    ('space W.', 8, "unexpected character '.'"),
    ('$ # comment', 1, "unexpected character '$'"),
    ('space W $ # $', 9, "unexpected character '$'"),
    ('bound cl(X) <= 3 -', 18, "unexpected character '-'"),
]
# whole scenes and every diagnostic of each
_SCENE_ERRORS = [
    ('collection', [(1, 11, 'expected collection name')]),
    ('collection C', [(1, 13, "expected '{'")]),
    ('collection C {', [(1, 15, 'expected closure flag')]),
    ('collection C { bogus }', [(1, 16, "unknown closure flag 'bogus'")]),
    ('collection C { wedges, bogus }', [(1, 24, "unknown closure flag 'bogus'")]),
    ('collection C { wedges, }', [(1, 24, 'expected closure flag')]),
    ('collection C { wedges joins }', [(1, 23, "expected '}'")]),
    ('collection C { all, wedges }', [(1, 19, "expected '}'")]),
    ('collection C { } x', [(1, 18, "unexpected trailing input 'x'")]),
    ('collection C { 1 }', [(1, 16, 'expected closure flag')]),
    ('collection 1 { }', [(1, 12, 'expected collection name')]),
    ('collection C { all }}', [(1, 21, "unexpected trailing input '}'")]),
    ('collection C { wedges, wedges, 1 }', [(1, 32, 'expected closure flag')]),
    ('', [(1, 1, 'missing collection declaration')]),
    ('\n# only a comment\n', [(1, 1, 'missing collection declaration')]),
    ('space X\n', [(1, 1, 'missing collection declaration')]),
    ('space X\nspace X\n', [(2, 7, "duplicate declaration 'X'")]),
    ('collection C { } $\nspace X\n', [(1, 18, "unexpected character '$'")]),
    ('collection C { }\nspace X\nspace X\nbound cl(X) <= banana\n',
     [(3, 7, "duplicate declaration 'X'"), (4, 16, "expected natural number or 'inf'")]),
    ('collection C { }\r\nspace X\r\nspace X $\r\n', [(3, 9, "unexpected character '$'")]),
    ('collection C { }\rspace X\rspace X $\r', [(3, 9, "unexpected character '$'")]),
    # only "\n", "\r\n" and "\r" end a line: other separators are characters
    ('collection C { }\nspace X\x0bspace Y\nspace $',
     [(2, 8, "unexpected character '\\x0b'"), (3, 7, "unexpected character '$'")]),
    ('collection C { }\nspace X\x85\nspace $',
     [(2, 8, "unexpected character '\\x85'"), (3, 7, "unexpected character '$'")]),
    ('collection C { }\nspace X, Y\u2028\nspace $',
     [(2, 11, "unexpected character '\\u2028'"), (3, 7, "unexpected character '$'")]),
]


@pytest.mark.parametrize("line, col, message", _AFTER_DECLARATIONS)
def test_statement_diagnostics_are_pinned(line, col, message):
    assert try_parse_scene(_DECLARED + line + "\n")[1] == [(7, col, message)]


@pytest.mark.parametrize("text, errors", _SCENE_ERRORS)
def test_scene_diagnostics_are_pinned(text, errors):
    assert try_parse_scene(text)[1] == errors


@pytest.mark.parametrize("line", ["space W # $ \xa0 é", "space W#$",
                                  "map k : X -> Y\t# a tab, then a comment", "space W # a\x0bb"])
def test_a_comment_may_hold_any_character(line):
    scene, errors = try_parse_scene(_DECLARED + line + "\n")
    assert errors == [] and scene is not None


def test_lines_end_at_a_newline_a_carriage_return_or_both():
    lines = BASIC.split("\n")[:-1]
    for breaks in (["\r\n"] * 5, ["\r"] * 5, ["\r", "\n", "\r\n", "\r", ""]):
        text = "".join(map(str.__add__, lines, breaks))
        assert parse_scene(text) == parse_scene(BASIC), breaks


_INVARIANTS = [
    ("  kl(X)  ", "kl(X)"), ("\tL(f)\t", "L(f)"),
    ("\xa0cl(*)\u3000", [(1, 1, "unexpected character '\\xa0'")]),  # only spaces and tabs trim
    ("kl (X)", "kl(X)"), ("kl(X) # a comment", "kl(X)"),
    (" kl(X) kl(Y) ", [(1, 7, "unexpected trailing input 'kl'")]),
    ("kl(X", [(1, 5, "expected ')'")]),
    ("", [(1, 1, "expected invariant")]),
    ("  ", [(1, 1, "expected invariant")]),
    ("kl(X) $", [(1, 7, "unexpected character '$'")]),
    ("kl(W)", [(1, 4, "unknown space 'W'")]),
    ("kl(X)\nfoo", [(1, 6, "unexpected character '\\n'")]),
    ("kl(X) # c\nfoo", [(1, 10, "unexpected character '\\n'")]),
    ("kl(X)\n", [(1, 6, "unexpected character '\\n'")]),
]


@pytest.mark.parametrize("text, expected", _INVARIANTS)
def test_invariant_diagnostics_are_pinned(text, expected):
    scene = parse_scene(_DECLARED)
    if isinstance(expected, str):
        assert parse_invariant(text, scene).surface() == expected
        return
    with pytest.raises(SceneParseError) as excinfo:
        parse_invariant(text, scene)
    assert excinfo.value.errors == expected


_TARGETS = [
    (" kl(X) :hi", ("kl(X)", Side.HI)), ("L(f):lo", ("L(f)", Side.LO)), (" L(f) ", ("L(f)", None)),
    ("kl(X) x:lo", "cannot parse target 'kl(X) x': line 1, col 7: unexpected trailing input 'x'"),
    ("kl(X) kl(Y)",
     "cannot parse target 'kl(X) kl(Y)': line 1, col 7: unexpected trailing input 'kl'"),
    ("kl(X):mid", "side must be lo or hi, got 'mid'"),
    ("cl(X) :", "side must be lo or hi, got ''"),
]


@pytest.mark.parametrize("text, expected", _TARGETS)
def test_target_diagnostics_are_pinned(text, expected):
    from conebound.cli import parse_target

    scene = parse_scene(_DECLARED)
    if isinstance(expected, tuple):
        key, side = parse_target(text, scene)
        assert (key.surface(), side) == expected
        return
    with pytest.raises(ValueError) as excinfo:
        parse_target(text, scene)
    assert str(excinfo.value) == expected


# the scene notation plus characters outside it, blanks of other scripts among them
_LINES = st.text(alphabet=" \t#abfXY_019-<>=(){}[],:*$;.é\xa0\u3000²", max_size=40)
_TOKEN_START = re.compile(r"[A-Za-z_0-9]|->|<=|>=|[=(){}\[\],:*]")


@given(_LINES)
def test_tokens_sit_at_their_columns_and_errors_at_the_first_bad_character(line):
    try:
        cur = _scene_cursor(line)
    except _TokenError as exc:
        error = exc.at_line(7)
    else:
        *tokens, end = cur.tokens
        assert (end, cur.column(len(tokens))) == ("", len(line) + 1)
        for idx, token in enumerate(tokens):
            col = cur.column(idx)
            assert line[col - 1:col - 1 + len(token)] == token
        # the tokens are the line's characters up to a comment, less the blanks:
        # spaces and tabs, and no other character
        assert "".join(tokens) == re.sub("[ \t]", "", line.split("#")[0])
        return
    assert error.line == 7
    bad = error.col - 1
    assert error.message == f"unexpected character {line[bad]!r}"
    assert line[bad] not in " \t#" and not _TOKEN_START.match(line, bad)
    _scene_cursor(line[:bad])  # the line up to it lexes


def test_parse_scene_raises():
    with pytest.raises(SceneParseError) as excinfo:
        parse_scene("space X\nspace X\n")
    assert excinfo.value.errors


def test_inf_bound_and_aliases():
    text = (
        "collection C { }\n"
        "space X\n"
        "bound kl(X) <= inf\n"
        "bound L(term(X)) >= 2\n"
        "query kit(X)\n"
    )
    scene = parse_scene(text)
    assert scene.bounds[0].value == INF
    # alias and canonical spellings hit the same key
    assert scene.bounds[0].key.map_id == "term(X)"
    assert scene.bounds[1].key.map_id == "term(X)"
    assert scene.queries[0].key.kind is Kind.CATEGORY


def test_invariants_resolve_against_the_scenes_sorted_maps():
    scene = parse_scene("collection C { }\nspace X, Y\nmap m : X -> Y\nmap c : Y -> X\n"
                        "map t : X -> X\n")
    for name in ("c", "m", "t"):  # the first, a middle and the last id
        assert parse_invariant(f"L({name})", scene).map_id == name
    assert parse_invariant("cl(Y)", scene).map_id == "init(Y)"
    for name in ("a", "d", "z", "mm"):  # before, between and after the ids
        with pytest.raises(SceneParseError, match=f"unknown map '{name}'"):
            parse_invariant(f"Lcat({name})", scene)


def test_point_space_is_addressable():
    text = "collection C { }\nspace X\nquery cl(*)\n"
    scene = parse_scene(text)
    assert scene.queries[0].key.surface() == "cl(*)"


def test_roundtrip_basic():
    scene = parse_scene(BASIC)
    rendered = render_scene(scene)
    assert parse_scene(rendered) == scene


def test_roundtrip_declaration_order_is_canonical():
    a = parse_scene("collection C { }\nspace B\nspace A\n")
    b = parse_scene("collection C { }\nspace A\nspace B\n")
    assert a == b
    assert render_scene(a) == render_scene(b)


def test_render_does_not_emit_point():
    scene = parse_scene("collection C { }\nspace X\nquery cl(*)\n")
    rendered = render_scene(scene)
    assert "space *" not in rendered
    assert "query cl(*)" in rendered


def test_render_empty_scene_is_single_collection_line():
    scene = parse_scene("collection OnlyMe { }\n")
    assert render_scene(scene) == "collection OnlyMe { }\n"


def test_roundtrip_all_corpus_files():
    from conebound.cli import corpus_dir

    for path in sorted(corpus_dir().glob("*.scene")):
        text = path.read_text(encoding="utf-8")
        scene = parse_scene(text)
        rendered = render_scene(scene)
        assert parse_scene(rendered) == scene, path.name


def test_roundtrip_generated_scenes():
    from helpers import random_scene

    for seed in range(60):
        scene = random_scene(seed)
        rendered = render_scene(scene)
        assert parse_scene(rendered) == scene, seed
