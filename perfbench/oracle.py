"""Correctness checks run after each timed operation.

Answers come from outside the engine wherever they can: closed forms for
the generated families and the hand-written goldens for the corpus.
Random scenes have no known answer; they must pass the test suite's
soundness rechecks instead.  Only statuses and intervals are compared,
never ``lo_rule``/``hi_rule``, because which rule gets credit for a bound
may legitimately change.
"""

from __future__ import annotations

import math

from conebound.rules import check_instance, instantiate


def _num(value) -> float:
    return math.inf if value == "inf" else value


def _interval(entry: dict) -> list:
    return [entry["lo"], entry["hi"]]


def check_verdict(case, payload: dict, result) -> list[str]:
    """Problems with one check payload; an empty list means correct."""
    problems: list[str] = []
    status = payload["status"]
    bounds = payload["bounds"]
    if case.golden is not None:
        want_status = case.golden["status"]
        want = {k: _interval(v) for k, v in case.golden["bounds"].items()}
    elif case.expected:
        want_status = "fixpoint"
        want = case.expected
    else:
        want_status = None  # random scene: any verdict the rechecks accept
        want = {}
    if want_status is not None and status != want_status:
        return [f"status {status}, expected {want_status}"]
    for key, interval in want.items():
        got = _interval(bounds[key]) if key in bounds else None
        if got != interval:
            problems.append(f"{key} = {got}, expected {interval}")

    if status == "fixpoint":
        for key, entry in bounds.items():
            if _num(entry["lo"]) > _num(entry["hi"]):
                problems.append(f"{key}: lo {entry['lo']} > hi {entry['hi']} at a fixpoint")
        if want_status is None:
            problems += _fixpoint_rechecks(result)
    elif status == "contradiction":
        report = payload.get("contradiction")
        if report is None or not _num(report["lo"]) > _num(report["hi"]):
            problems.append(f"contradiction without lo > hi: {report}")
    else:
        problems.append(f"unexpected status {status}")
    problems += [f"log entry {i} ({just.rule_id} on {just.key.surface()}) does not recompute"
                 for i, just in enumerate(result.store.log) if not just.check()]
    return problems


def _fixpoint_rechecks(result) -> list[str]:
    """At a fixpoint no rule instance may still tighten the store."""
    problems: list[str] = []
    for inst in instantiate(result.elab):
        problems += check_instance(inst, result.store, result.elab)
    return problems


def check_explain(case, target: str, tree_json: dict, text: str, payload: dict) -> list[str]:
    """The tree's root must be the requested side with its closed-form value
    or, failing one, the value the check payload reported."""
    key, _, side = target.rpartition(":")
    value = tree_json.get("value")
    problems = []
    if tree_json.get("key") != key or tree_json.get("side") != side:
        problems.append(f"explain {target}: root is {tree_json.get('side')} {tree_json.get('key')}")
    want = case.expected_explain.get(target, payload["bounds"].get(key, {}).get(side))
    if value != want:
        problems.append(f"explain {target}: root value {value}, expected {want}")
    if not text.startswith(f"{side} {key} = {value}"):
        problems.append(f"explain {target}: text root line {text.splitlines()[0]!r}")
    return problems
