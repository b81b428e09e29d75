"""Parser diagnostics and the parse/render round-trip law."""

import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conebound.extnat import INF
from conebound.model import Kind
from conebound.parser import (
    SceneParseError,
    _lex_line,
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


# the scene notation plus characters outside it
_LINES = st.text(alphabet=" \t#abfXY_019-<>=(){}[],:*$;.é", max_size=40)
_TOKEN_START = re.compile(r"[A-Za-z_0-9]|->|<=|>=|[=(){}\[\],:*]")


@given(_LINES)
def test_tokens_sit_at_their_columns_and_errors_at_the_first_bad_character(line):
    errors = []
    tokens = _lex_line(line, 7, errors)
    if not errors:
        *tokens, eol = tokens
        assert (eol.kind, eol.col) == ("EOL", len(line) + 1)
        for token in tokens:
            assert line[token.col - 1:token.col - 1 + len(token.text)] == token.text
        # the tokens are the line's characters up to a comment, less the blanks
        assert "".join(token.text for token in tokens) == "".join(line.split("#")[0].split())
        return
    (error,) = errors
    assert tokens == [] and error.line == 7
    bad = error.col - 1
    assert error.message == f"unexpected character {line[bad]!r}"
    assert line[bad] not in " \t#" and not _TOKEN_START.match(line, bad)
    prefix_errors = []
    _lex_line(line[:bad], 7, prefix_errors)
    assert prefix_errors == []


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
