"""Command-line front end.

Commands: ``check`` (saturate and report all queried bounds), ``query``
(one target), ``explain`` (derivation tree for one side of a target), and
``corpus`` (run the bundled scenarios against their golden files).

Exit codes: 0 fixpoint (and goldens match), 1 contradiction, 2 parse or
elaboration error, 3 budget exhausted, 4 golden mismatch, 141 standard
output closed early (the status a shell reports for SIGPIPE).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from importlib import resources
from pathlib import Path
from typing import Optional

from .elaborate import ElaborationError, elaborate
from .engine import Limits, SaturationResult, explain, query, saturate
from .extnat import extnat_to_json
from .model import InvariantKey, Side
from .parser import SceneParseError, parse_invariant, try_parse_scene
from .scene import Scene

EXIT_OK = 0
EXIT_CONTRADICTION = 1
EXIT_PARSE = 2
EXIT_BUDGET = 3
EXIT_GOLDEN = 4
EXIT_BROKEN_PIPE = 141


def parse_target(text: str, scene: Scene) -> tuple[InvariantKey, Optional[Side]]:
    """Parse "kl(X)" or "kl(X):hi" against a scene's declarations."""
    side: Optional[Side] = None
    if ":" in text:
        text, _, side_text = text.rpartition(":")
        if side_text not in ("lo", "hi"):
            raise ValueError(f"side must be lo or hi, got {side_text!r}")
        side = Side(side_text)
    try:
        return parse_invariant(text, scene), side
    except SceneParseError as exc:
        raise ValueError(f"cannot parse target {text!r}: {exc}") from exc


def result_payload(result: SaturationResult, targets: list[InvariantKey]) -> dict:
    payload: dict = {"status": result.status, "rounds": result.rounds}
    bounds: dict = {}
    # a contradiction poisons the whole store: no partial answers
    if result.status != "contradiction":
        for key in targets:
            answer = query(result, key)
            bounds[key.surface()] = {
                "lo": extnat_to_json(answer.interval.lo),
                "hi": extnat_to_json(answer.interval.hi),
                "lo_rule": answer.lo_rule,
                "hi_rule": answer.hi_rule,
            }
    payload["bounds"] = bounds
    if result.contradiction is not None:
        r = result.contradiction
        payload["contradiction"] = {
            "key": r.key.surface(),
            "lo": extnat_to_json(r.lo_value),
            "hi": extnat_to_json(r.hi_value),
            "lo_chain": r.lo_tree.to_json(),
            "hi_chain": r.hi_tree.to_json(),
        }
    if result.budget is not None:
        payload["budget"] = {
            "reason": result.budget.reason,
            "detail": result.budget.detail,
        }
    return payload


def render_text(result: SaturationResult, targets: list[InvariantKey]) -> str:
    lines = [f"status: {result.status}", f"rounds: {result.rounds}"]
    if result.status != "contradiction":
        for key in targets:
            answer = query(result, key)
            lines.append(
                f"{key.surface()} = {answer.interval}   "
                f"lo: {answer.lo_rule}   hi: {answer.hi_rule}"
            )
    if result.contradiction is not None:
        r = result.contradiction
        lines.append(f"contradiction: {r.describe()}")
        lines.append("lower chain:")
        lines.append(r.lo_tree.render(1))
        lines.append("upper chain:")
        lines.append(r.hi_tree.render(1))
    if result.budget is not None:
        lines.append(f"budget exhausted ({result.budget.reason}): {result.budget.detail}")
    return "\n".join(lines) + "\n"


def print_report(result: SaturationResult, targets: list[InvariantKey], fmt: str,
                 out) -> None:
    if fmt == "json":
        print(json.dumps(result_payload(result, targets), indent=2), file=out)
    else:
        print(render_text(result, targets), end="", file=out)


def exit_code_for(result: SaturationResult) -> int:
    if result.status == "contradiction":
        return EXIT_CONTRADICTION
    if result.status == "budget_exhausted":
        return EXIT_BUDGET
    return EXIT_OK


def solve(path: Path, args, target: Optional[str], out_err):
    """Load, parse, elaborate and saturate one scene file.

    ``target``, when given, is resolved against the scene before any
    elaboration.  Returns (scene, parsed target or None, result), or None
    after printing the diagnostics of a read, parse, target or
    elaboration error (all exit code 2).
    """
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        print(f"{path}: {exc}", file=out_err)
        return None
    scene, errors = try_parse_scene(text)
    if errors:
        for err in errors:
            print(f"{path.name}: {err}", file=out_err)
        return None
    parsed = None
    if target is not None:
        try:
            parsed = parse_target(target, scene)
        except ValueError as exc:
            print(str(exc), file=out_err)
            return None
    try:
        elab = elaborate(scene)
    except ElaborationError as exc:
        for message in exc.messages:
            print(f"{path.name}: {message}", file=out_err)
        return None
    limits = Limits(max_rounds=args.max_rounds)
    return scene, parsed, saturate(elab, limits, rearrange=not args.no_rearrange)


def cmd_check(args, out, out_err) -> int:
    solved = solve(Path(args.scene), args, args.explain, out_err)
    if solved is None:
        return EXIT_PARSE
    scene, target, result = solved
    targets = [q.key for q in scene.queries]
    tree = None
    if target is not None and result.status == "fixpoint":
        key, side = target
        tree = explain(result, key, side or Side.HI)
    if args.format == "json":
        payload = result_payload(result, targets)
        if tree is not None:
            payload["explain"] = tree.to_json()
        print(json.dumps(payload, indent=2), file=out)
    else:
        print(render_text(result, targets), end="", file=out)
        if tree is not None:
            print(tree.render(), file=out)
    return exit_code_for(result)


def cmd_query(args, out, out_err) -> int:
    solved = solve(Path(args.scene), args, args.target, out_err)
    if solved is None:
        return EXIT_PARSE
    _, (key, _), result = solved
    print_report(result, [key], args.format, out)
    return exit_code_for(result)


def cmd_explain(args, out, out_err) -> int:
    solved = solve(Path(args.scene), args, args.target, out_err)
    if solved is None:
        return EXIT_PARSE
    _, (key, side), result = solved
    if result.status != "fixpoint":
        print_report(result, [], args.format, out)
        return exit_code_for(result)
    sides = [side] if side is not None else [Side.LO, Side.HI]
    if args.format == "json":
        payload = {
            s.value: explain(result, key, s).to_json() for s in sides
        }
        print(json.dumps({"target": key.surface(), "explain": payload}, indent=2),
              file=out)
    else:
        for s in sides:
            print(explain(result, key, s).render(), file=out)
    return EXIT_OK


def corpus_dir() -> Path:
    return Path(str(resources.files("conebound").joinpath("corpus")))


def cmd_corpus(args, out, out_err) -> int:
    directory = Path(args.dir) if args.dir else corpus_dir()
    scene_paths = sorted(directory.glob("*.scene"))
    if not scene_paths:
        print(f"no scene files under {directory}", file=out_err)
        return EXIT_GOLDEN
    mismatches = 0
    for path in scene_paths:
        golden_path = path.with_suffix(".expected.json")
        solved = solve(path, args, None, out_err)
        if solved is None:
            return EXIT_PARSE
        scene, _, result = solved
        got = json.dumps(result_payload(result, [q.key for q in scene.queries]),
                         indent=2) + "\n"
        if not golden_path.exists():
            print(f"{path.name}: MISSING GOLDEN {golden_path.name}", file=out)
            mismatches += 1
            continue
        expected = golden_path.read_text(encoding="utf-8")
        if got == expected:
            print(f"{path.name}: ok", file=out)
        else:
            print(f"{path.name}: MISMATCH", file=out)
            print("--- expected ---", file=out)
            print(expected, end="", file=out)
            print("--- got ---", file=out)
            print(got, end="", file=out)
            mismatches += 1
    return EXIT_GOLDEN if mismatches else EXIT_OK


def budget(text: str) -> int:
    """A round budget: a non-negative integer."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be 0 or more, got {value}")
    return value


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conebound",
        description="Derive interval bounds on cone length and category invariants",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    defaults = Limits()

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--max-rounds", type=budget, default=defaults.max_rounds)
        p.add_argument("--no-rearrange", action="store_true",
                       help="diagnostic: disable rearranged lower bounds")

    p_check = sub.add_parser("check", help="saturate a scene and report queried bounds")
    p_check.add_argument("scene")
    p_check.add_argument("--explain", metavar="TARGET[:lo|hi]",
                         help="also print a derivation tree")
    common(p_check)

    p_query = sub.add_parser("query", help="report a single invariant")
    p_query.add_argument("scene")
    p_query.add_argument("--target", required=True, metavar="INV")
    common(p_query)

    p_explain = sub.add_parser("explain", help="print a derivation tree")
    p_explain.add_argument("scene")
    p_explain.add_argument("--target", required=True, metavar="TARGET[:lo|hi]")
    common(p_explain)

    p_corpus = sub.add_parser("corpus", help="run bundled scenarios against goldens")
    p_corpus.add_argument("dir", nargs="?", default=None)
    common(p_corpus)

    return parser


def main(argv: Optional[list[str]] = None, out=None, out_err=None) -> int:
    out = out if out is not None else sys.stdout
    out_err = out_err if out_err is not None else sys.stderr
    args = build_arg_parser().parse_args(argv)
    handlers = {
        "check": cmd_check,
        "query": cmd_query,
        "explain": cmd_explain,
        "corpus": cmd_corpus,
    }
    try:
        code = handlers[args.command](args, out, out_err)
        out.flush()  # a closed reader fails here, not in the exit flush
    except BrokenPipeError:
        # ``conebound check X.scene | head``: the rest of the output goes to
        # devnull, so the exit flush stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    return code


if __name__ == "__main__":
    sys.exit(main())
