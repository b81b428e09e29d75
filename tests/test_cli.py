"""Command-line behavior: exit codes, output formats, golden corpus."""

import io
import json
import subprocess
import sys
from pathlib import Path

import pytest
from helpers import chain_scene

import conebound
from conebound.cli import build_arg_parser, corpus_dir, main
from conebound.engine import Limits

HOPF = corpus_dir() / "hopf.scene"
EXAMPLE74 = corpus_dir() / "example74.scene"


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(argv, out=out, out_err=err)
    return code, out.getvalue(), err.getvalue()


def test_check_json_schema():
    code, out, err = run_cli(["check", str(HOPF), "--format", "json"])
    assert code == 0, err
    payload = json.loads(out)
    assert payload["status"] == "fixpoint"
    assert isinstance(payload["rounds"], int)
    assert payload["bounds"]["cl(S3)"] == {
        "lo": 0, "hi": 3, "lo_rule": "default", "hi_rule": "C63",
    }
    assert "contradiction" not in payload


def test_check_text_matches_json_numbers():
    code_t, text, _ = run_cli(["check", str(HOPF)])
    code_j, raw, _ = run_cli(["check", str(HOPF), "--format", "json"])
    assert code_t == code_j == 0
    payload = json.loads(raw)
    assert f"status: {payload['status']}" in text
    assert f"rounds: {payload['rounds']}" in text
    for target, bound in payload["bounds"].items():
        lo = str(bound["lo"])
        hi = str(bound["hi"])
        assert f"{target} = [{lo}, {hi}]" in text
        assert bound["lo_rule"] in text
        assert bound["hi_rule"] in text


def test_contradiction_exit_code_and_chains():
    code, out, _ = run_cli(["query", str(EXAMPLE74), "--target", "kl(X)"])
    assert code == 1
    assert "contradiction" in out
    assert "lower chain:" in out and "upper chain:" in out
    assert "AX-COMP" in out


def test_contradiction_json_payload():
    code, out, _ = run_cli(["check", str(EXAMPLE74), "--format", "json"])
    assert code == 1
    payload = json.loads(out)
    report = payload["contradiction"]
    assert report["key"] == "kl(X)"
    assert report["lo"] == 10 and report["hi"] == 5
    assert report["hi_chain"]["rule"] == "AX-COMP"


def test_parse_error_exit_code_and_position(tmp_path):
    bad = tmp_path / "broken.scene"
    bad.write_text("collection C { }\nspace X, Y\nmap f : X Y\n", encoding="utf-8")
    code, out, err = run_cli(["check", str(bad)])
    assert code == 2
    assert "line 3" in err
    assert "'->'" in err


def test_elaboration_error_exit_code(tmp_path):
    bad = tmp_path / "badcert.scene"
    bad.write_text(
        "collection C { }\nspace X, A\ndecomposition kl(X) via [A]\n",
        encoding="utf-8",
    )
    code, _, err = run_cli(["check", str(bad)])
    assert code == 2
    assert "not derivably in the collection" in err


def test_budget_exit_code():
    code, out, _ = run_cli(["check", str(HOPF), "--max-rounds", "0"])
    assert code == 3
    assert "budget" in out


@pytest.mark.parametrize("flag", ["--max-rounds"])
def test_negative_budget_is_rejected(flag, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["check", str(HOPF), flag, "-1"])
    assert excinfo.value.code == 2
    assert f"argument {flag}: must be 0 or more, got -1" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["check", "s.scene"], ["query", "s.scene", "--target", "cl(X)"],
                                  ["explain", "s.scene", "--target", "cl(X)"], ["corpus"]])
def test_budget_flag_defaults_are_the_engine_limits(argv):
    args = build_arg_parser().parse_args(argv)
    assert Limits(args.max_rounds) == Limits()


def test_the_finite_cap_flag_is_gone(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["check", str(HOPF), "--max-finite", "5"])
    assert excinfo.value.code == 2
    assert "unrecognized arguments: --max-finite 5" in capsys.readouterr().err


@pytest.mark.parametrize("text, target, interval", [
    ("space X\nbound cat(X) >= 70000\n", "cl(X)", (70000, "inf")),
    ("space X, Y\nmap f : X -> Y\nbound cl(Y) >= 70000\nbound cl(X) <= 1\n",
     "L(f)", (69999, "inf")),
], ids=["cat", "compose"])
def test_large_asserted_lower_bounds_reach_a_fixpoint(tmp_path, text, target, interval):
    scene = tmp_path / "large.scene"
    scene.write_text(f"collection C {{ }}\n{text}query {target}\n", encoding="utf-8")
    code, out, err = run_cli(["check", str(scene), "--format", "json"])
    assert code == 0, err
    payload = json.loads(out)
    assert (payload["status"], payload["rounds"]) == ("fixpoint", 2)
    bound = payload["bounds"][target]
    assert (bound["lo"], bound["hi"]) == interval


def test_unknown_query_target():
    code, _, err = run_cli(["query", str(HOPF), "--target", "cl(Nope)"])
    assert code == 2
    assert "Nope" in err


def test_explain_command():
    code, out, _ = run_cli(["explain", str(HOPF), "--target", "cl(S3):hi"])
    assert code == 0
    assert out.startswith("hi cl(S3) = 3 by C63")
    assert "asserted" in out


def test_explain_json():
    code, out, _ = run_cli(
        ["explain", str(HOPF), "--target", "cl(S3):hi", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["target"] == "cl(S3)"
    assert payload["explain"]["hi"]["rule"] == "C63"


def test_deep_explain_json_at_the_default_recursion_limit(tmp_path, default_recursion_limit):
    scene = tmp_path / "chain.scene"
    scene.write_text(chain_scene(1500), encoding="utf-8")
    code, out, _ = run_cli(
        ["explain", str(scene), "--target", "cl(X1500):hi", "--format", "json"])
    assert code == 0
    tree = json.loads(out)["explain"]["hi"]
    assert (tree["key"], tree["value"], len(tree["nodes"])) == ("cl(X1500)", 1501, 4500)


@pytest.mark.parametrize("scene, argv, code, status", [
    (EXAMPLE74, ["--target", "kl(X)"], 1, "contradiction"),
    (HOPF, ["--target", "cl(S3)", "--max-rounds", "0"], 3, "budget_exhausted"),
], ids=["contradiction", "budget"])
def test_explain_json_without_fixpoint(scene, argv, code, status):
    got, out, _ = run_cli(["explain", str(scene), *argv, "--format", "json"])
    assert got == code
    payload = json.loads(out)
    assert payload["status"] == status
    assert payload["bounds"] == {}


def test_check_with_inline_explain_flag():
    code, out, _ = run_cli(["check", str(HOPF), "--explain", "cl(S3):hi"])
    assert code == 0
    assert "by C63" in out


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_check_with_unparsable_explain_target(fmt):
    # main() raising instead of returning is the traceback this guards against
    code, out, err = run_cli(
        ["check", str(HOPF), "--explain", "cl(NOPE):hi", "--format", fmt])
    assert code == 2
    assert out == ""
    assert "cannot parse target 'cl(NOPE)'" in err


def test_corpus_all_green():
    code, out, _ = run_cli(["corpus"])
    assert code == 0
    lines = [l for l in out.splitlines() if l.strip()]
    assert len(lines) == 8
    assert all(line.endswith(": ok") for line in lines)


def test_corpus_detects_mismatch(tmp_path):
    scene = (corpus_dir() / "hopf.scene").read_text(encoding="utf-8")
    (tmp_path / "hopf.scene").write_text(scene, encoding="utf-8")
    (tmp_path / "hopf.expected.json").write_text("{}\n", encoding="utf-8")
    code, out, _ = run_cli(["corpus", str(tmp_path)])
    assert code == 4
    assert "MISMATCH" in out


def test_corpus_missing_golden(tmp_path):
    scene = (corpus_dir() / "hopf.scene").read_text(encoding="utf-8")
    (tmp_path / "hopf.scene").write_text(scene, encoding="utf-8")
    code, out, _ = run_cli(["corpus", str(tmp_path)])
    assert code == 4
    assert "MISSING GOLDEN" in out


def test_no_rearrange_flag_is_accepted():
    code, out, _ = run_cli(["check", str(HOPF), "--no-rearrange", "--format", "json"])
    assert code == 0
    assert json.loads(out)["bounds"]["cl(S3)"]["hi"] == 3


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "conebound", "check", str(HOPF)],
        capture_output=True, text=True, timeout=60,
        # from the package's parent directory, `-m` finds it without an install
        cwd=Path(conebound.__file__).parents[1],
    )
    assert proc.returncode == 0
    assert "cl(S3) = [0, 3]" in proc.stdout
