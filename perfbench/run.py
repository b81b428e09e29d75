"""Benchmark for conebound: time to verdict, time to explain, throughput.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload map-chain --seed 1 --seconds 20 --trace 0

A closed loop with one caller in one thread: the next scene is sent only
after the previous verdict.  Each scene goes through the same calls as
``conebound check --format json`` (parse_scene, elaborate, saturate,
cli.result_payload, json.dumps), then through ``explain`` and
``DerivationTree.render``/``to_json`` for its explain targets.  Every
operation is checked by ``oracle.py`` after its timing ends.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes over a fixed set of scenes and prints the
per-layer metrics, taken from spans recorded by ``tracing.py``; the spans
are written to ``perfbench/traces/``.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
The program runs at Python's default recursion limit.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from dataclasses import replace
from itertools import cycle
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CORPUS = SRC / "conebound" / "corpus"
TRACE_DIR = HERE / "traces"

sys.path.insert(0, str(HERE))

import scenes  # noqa: E402
from tracing import EMPTY_LAYER, Tracer, layer_totals  # noqa: E402

WORKLOADS = ("map-chain", "susp-tower", "product-tower", "scene-batch")
SETUP_REPEATS = 7
MIN_TRACED_PASSES = 2

END_TO_END_UNITS = {
    "setup_s": "s",
    "verdict_s": "s",
    "verdict_s_p90": "s",
    "scenes_per_s": "1/s",
    "explain_s": "s",
    "peak_rss_mb": "MB",
}

# Per traced pass: times are seconds summed over the pass, counts are sums.
PER_LAYER_UNITS = {
    "parser.parse_s": "s",
    "parser.lines": "count",
    "elaborate.elaborate_s": "s",
    "elaborate.facts": "count",
    "elaborate.maps": "count",
    "rules.instantiate_calls": "count",
    "rules.instantiate_s": "s",
    "rules.instances": "count",
    "rules.instances_returned": "count",
    "rules.fire_calls": "count",
    "rules.fire_s": "s",
    "rules.noop_fire_share": "ratio",
    "rules.fire_per_tightening": "ratio",
    "model.apply_calls": "count",
    "model.apply_s": "s",
    "model.tightenings": "count",
    "engine.saturate_s": "s",
    "engine.self_s": "s",
    "engine.rounds": "count",
    "engine.explain_build_s": "s",
    "engine.render_s": "s",
    "engine.tree_nodes": "count",
    "engine.explain_peak_alloc_mb": "MB",
    "cli.payload_s": "s",
    "cli.payload_bytes": "bytes",
    "bench.fail_share": "ratio",
    "bench.tracing_overhead_s": "s",
}

# Metrics that read a patched hook, so they are null when it never fires.
HOOKED = {
    "fire": ("rules.fire_calls", "rules.fire_s", "rules.noop_fire_share",
             "rules.fire_per_tightening", "engine.self_s"),
    "instantiate": ("rules.instantiate_calls", "rules.instantiate_s",
                    "rules.instances_returned", "engine.self_s"),
    "apply": ("model.apply_calls", "model.apply_s", "model.tightenings",
              "rules.fire_per_tightening", "engine.self_s"),
}

# Counters that must repeat exactly from one traced pass to the next.
DETERMINISTIC = ("rules.instances", "rules.instances_returned", "rules.instantiate_calls",
                 "rules.fire_calls", "model.apply_calls", "model.tightenings",
                 "engine.rounds", "engine.tree_nodes", "elaborate.facts")

# Work counters of map-chain as measured on the first version of the engine.
MAP_CHAIN_SEED_COUNTS = {"rules.instances": 6821, "model.tightenings": 2003,
                         "engine.rounds": 304, "rules.fire_calls": 18864}

SETUP_CODE = """\
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import conebound
conebound.catalog()
print(time.perf_counter() - start)
"""


def measure_setup() -> float:
    """Median time, in fresh interpreters, to import conebound and build the catalog."""
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)],
                              capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout))
    return statistics.median(times)


def workload_cases(name: str, seed: int) -> tuple[list, list]:
    """(cases of the timed loop, the fixed pass that the traced run replays)."""
    if name == "scene-batch":
        stream = scenes.scene_batch(seed, CORPUS)
        return stream, stream[:scenes.BATCH_HEAD]
    make = {"map-chain": scenes.map_chain, "susp-tower": scenes.susp_tower,
            "product-tower": scenes.product_tower}[name]
    case = make(seed)
    if name == "product-tower":
        # its verdict is ~80x cheaper than its explain: ten verdicts per
        # explain give verdict_s_p90 enough samples
        return [case] + [replace(case, explains=())] * 9, [case]
    return [case], [case]


class Runner:
    """Runs scenes through the check path and keeps the tallies.

    ``failed`` counts operations without a correct output (an exception or
    a wrong answer); ``wrong`` counts the wrong answers alone.
    """

    def __init__(self, tracer: Tracer):
        import conebound
        import oracle
        from conebound import cli

        self.cb = conebound
        self.cli = cli
        self.oracle = oracle
        self.tracer = tracer
        self.scene_names: dict[int, str] = {}
        self.clear()

    def clear(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.problems: list[str] = []
        self.reset()

    def reset(self) -> None:
        """Start a new pass: timings and per-pass counts."""
        self.verdict_times: list[float] = []
        self.explain_times: list[float] = []
        # median explain time of each verdict's explains
        self.explain_medians: list[float] = []
        self.counts: dict[str, int] = {}

    def count(self, name: str, value: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def fail(self, case, message: str, wrong: bool = False) -> None:
        self.failed += 1
        self.wrong += wrong
        self.problems.append(f"{case.name}: {message}")

    def run_case(self, case) -> None:
        """One verdict, then the explain targets when it is a fixpoint."""
        tracer, cb = self.tracer, self.cb
        tracer.scene = len(self.scene_names)
        self.scene_names[tracer.scene] = case.name
        self.attempted += 1
        start = time.perf_counter()
        try:
            with tracer.span("scene"):
                with tracer.span("parse"):
                    scene = cb.parse_scene(case.text)
                with tracer.span("elaborate"):
                    elab = cb.elaborate(scene)
                    facts, maps = len(elab.facts), len(elab.maps)
                with tracer.span("saturate"):
                    result = cb.saturate(elab)
                with tracer.span("payload"):
                    payload = self.cli.result_payload(result, [q.key for q in scene.queries])
                    text = json.dumps(payload, indent=2)
        except Exception as exc:  # a failed verdict is counted; the loop goes on
            self.fail(case, f"verdict raised {type(exc).__name__}: {exc}")
            return
        self.verdict_times.append(time.perf_counter() - start)
        with tracer.paused():
            problems = self.oracle.check_verdict(case, payload, result)
        if problems:
            self.fail(case, "; ".join(problems[:3]), wrong=True)
        self.count("parser.lines", case.text.count("\n"))
        self.count("elaborate.facts", facts)
        self.count("elaborate.maps", maps)
        self.count("rules.instances", len(result.instances))
        self.count("engine.rounds", result.rounds)
        self.count("cli.payload_bytes", len(text))
        if result.status != "fixpoint":
            return
        first = len(self.explain_times)
        for _ in range(case.explain_rounds):
            for target in case.explains:
                self.explain(case, scene, result, payload, target, "explain")
        if len(self.explain_times) > first:
            self.explain_medians.append(statistics.median(self.explain_times[first:]))
        for target in case.probes:
            self.explain(case, scene, result, payload, target, "probe")

    def explain(self, case, scene, result, payload, target: str, span: str) -> None:
        """Build and render one tree; only ``explain`` spans feed explain_s."""
        tracer = self.tracer
        self.attempted += 1
        start = time.perf_counter()
        try:
            with tracer.span(span):
                with tracer.span("build"):
                    key, side = self.cli.parse_target(target, scene)
                    tree = self.cb.explain(result, key, side)
                with tracer.span("render"):
                    text = tree.render()
                    tree_json = tree.to_json()
                    json.dumps(tree_json)
        except Exception as exc:  # RecursionError included; the loop goes on
            self.fail(case, f"{span} {target} raised {type(exc).__name__}")
            return
        if span == "explain":
            self.explain_times.append(time.perf_counter() - start)
            if tracer.enabled:
                self.count("engine.tree_nodes", tree.size())
        with tracer.paused():
            problems = self.oracle.check_explain(case, target, tree_json, text, payload)
        if problems:
            self.fail(case, "; ".join(problems[:3]), wrong=True)


def median_or_none(values: list) -> Optional[float]:
    return statistics.median(values) if values else None


def end_to_end(runner: Runner, cases: list, seconds: float) -> dict:
    """Cycle through ``cases`` until ``seconds`` have passed."""
    deadline = time.perf_counter() + seconds
    for case in cycle(cases):
        runner.run_case(case)
        if time.perf_counter() >= deadline:
            break
    verdicts = runner.verdict_times
    medians = runner.explain_medians
    if len(verdicts) > 1:
        tail = statistics.quantiles(verdicts, n=10)[-1]
    else:
        tail = median_or_none(verdicts)
    return {
        "verdict_s": median_or_none(verdicts),
        "verdict_s_p90": tail,
        "scenes_per_s": len(verdicts) / sum(verdicts) if verdicts else None,
        # The host's speed swings by a third over fractions of a second, and
        # the explains of one verdict run in one burst, so the median of all
        # explains follows a few bursts; a mean over the bursts does not.
        "explain_s": statistics.mean(medians) if medians else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def explain_peak_alloc(runner: Runner, cases: list) -> Optional[float]:
    """Largest tracemalloc peak of one explain (build and render), in MB."""
    cb, peak = runner.cb, None
    for case in cases:
        if not case.explains:
            continue
        scene = cb.parse_scene(case.text)
        result = cb.saturate(cb.elaborate(scene))
        if result.status != "fixpoint":
            continue
        for target in case.explains:
            key, side = runner.cli.parse_target(target, scene)
            tracemalloc.start()
            try:
                tree = cb.explain(result, key, side)
                tree.render()
                json.dumps(tree.to_json())
                got = tracemalloc.get_traced_memory()[1] / 2 ** 20
            except RecursionError:
                continue
            finally:
                tracemalloc.stop()
            peak = got if peak is None else max(peak, got)
    return peak


def pass_metrics(counts: dict, spans: list, missing: dict) -> tuple[dict, dict]:
    """Per-layer figures of one traced pass, and why any of them is null."""
    layers = layer_totals(spans)

    def layer(key: str) -> dict:
        return layers.get(key, EMPTY_LAYER)

    fire, inst, apply = (layer(f"saturate/{hook}") for hook in ("fire", "instantiate", "apply"))
    sat = layer("scene/saturate")
    out = {
        "parser.parse_s": layer("scene/parse")["total_s"],
        "parser.lines": counts.get("parser.lines", 0),
        "elaborate.elaborate_s": layer("scene/elaborate")["total_s"],
        "elaborate.facts": counts.get("elaborate.facts", 0),
        "elaborate.maps": counts.get("elaborate.maps", 0),
        "rules.instantiate_calls": inst["calls"],
        "rules.instantiate_s": inst["total_s"],
        "rules.instances": counts.get("rules.instances", 0),
        "rules.instances_returned": inst["n"],
        "rules.fire_calls": fire["calls"],
        "rules.fire_s": fire["total_s"],
        "rules.noop_fire_share": fire["zero"] / fire["calls"] if fire["calls"] else None,
        "rules.fire_per_tightening": fire["calls"] / apply["n"] if apply["n"] else None,
        "model.apply_calls": apply["calls"],
        "model.apply_s": apply["total_s"],
        "model.tightenings": apply["n"],
        "engine.saturate_s": sat["total_s"],
        "engine.self_s": sat["self_s"],
        "engine.rounds": counts.get("engine.rounds", 0),
        "engine.explain_build_s": layer("explain/build")["total_s"],
        "engine.render_s": layer("explain/render")["total_s"],
        "engine.tree_nodes": counts.get("engine.tree_nodes", 0),
        "cli.payload_s": layer("scene/payload")["total_s"],
        "cli.payload_bytes": counts.get("cli.payload_bytes", 0),
    }
    reasons = {}
    for hook, names in HOOKED.items():
        why = missing.get(hook)
        if why is None and layer(f"saturate/{hook}")["calls"] == 0:
            why = f"hook {hook} did not fire inside saturate"
        if why is not None:
            for name in names:
                out[name] = None
                reasons[name] = why
    return out, reasons


def per_layer(runner: Runner, tracer: Tracer, cases: list, seconds: float,
              workload: str, seed: int) -> dict:
    """Alternate untraced and traced passes over ``cases``; summarise the traced ones."""
    passes: list[dict] = []
    reasons: dict = {}
    untraced: list[float] = []
    traced: list[float] = []
    deadline = time.perf_counter() + seconds
    tracer.install()
    try:
        while len(passes) < MIN_TRACED_PASSES or time.perf_counter() < deadline:
            runner.reset()
            for case in cases:
                runner.run_case(case)
            untraced += runner.verdict_times
            runner.reset()
            first = len(tracer.spans)
            tracer.enabled = True
            try:
                for case in cases:
                    runner.run_case(case)
            finally:
                tracer.enabled = False
            traced += runner.verdict_times
            figures, reasons = pass_metrics(runner.counts, tracer.spans[first:], tracer.missing)
            passes.append(figures)
    finally:
        tracer.uninstall()

    for name in DETERMINISTIC:
        values = {p[name] for p in passes}
        if len(values) > 1:
            runner.wrong += 1
            runner.problems.append(
                f"counter {name} differs between traced passes: {sorted(values, key=str)}")
    metrics = {}
    for name in passes[0]:
        values = [p[name] for p in passes if p[name] is not None]
        # counts repeat exactly, so a count reads as one of its values
        is_count = PER_LAYER_UNITS[name] in ("count", "bytes")
        middle = statistics.median_low if is_count else statistics.median
        metrics[name] = middle(values) if values else None
    metrics["engine.explain_peak_alloc_mb"] = explain_peak_alloc(runner, cases)
    metrics["bench.fail_share"] = runner.failed / runner.attempted
    metrics["bench.tracing_overhead_s"] = (
        statistics.median(traced) - statistics.median(untraced)
        if traced and untraced else None)

    if workload == "map-chain":
        differ = {k: (v, metrics[k]) for k, v in MAP_CHAIN_SEED_COUNTS.items()
                  if metrics[k] != v}
        print("map-chain counters vs the seed engine: "
              + (f"differ {differ}" if differ else "match"), file=sys.stderr)
    path = TRACE_DIR / f"{workload}-seed{seed}.jsonl.gz"
    tracer.write(path, runner.scene_names)
    print(f"{len(tracer.spans)} spans from {len(passes)} traced passes written to {path}",
          file=sys.stderr)
    for name, why in sorted(reasons.items()):
        print(f"{name} is null: {why}", file=sys.stderr)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "conebound" / "__init__.py").is_file():
        print(f"conebound sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import conebound

    if Path(conebound.__file__).resolve().parent != SRC / "conebound":
        print(f"conebound was imported from {conebound.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2

    setup_s = None if args.trace else measure_setup()
    tracer = Tracer()
    runner = Runner(tracer)
    # untimed warm-up, so that lazy set-up lands in setup_s and not in verdict_s
    runner.run_case(scenes.corpus_cases(CORPUS)[0])
    runner.clear()

    cases, trace_pass = workload_cases(args.workload, args.seed)
    if args.trace:
        values = per_layer(runner, tracer, trace_pass, args.seconds, args.workload, args.seed)
        units = PER_LAYER_UNITS
    else:
        values = end_to_end(runner, cases, args.seconds)
        values["setup_s"] = setup_s
        units = END_TO_END_UNITS

    for problem, times in Counter(runner.problems).most_common(20):
        print(f"problem ({times}x): {problem}", file=sys.stderr)
    fail_share = runner.failed / runner.attempted
    print(f"{args.workload} seed {args.seed}: {len(runner.verdict_times)} verdicts and "
          f"{len(runner.explain_times)} explains timed"
          f"{' in the last traced pass' if args.trace else ''}; "
          f"{runner.failed} of {runner.attempted} operations failed "
          f"(fail_share {fail_share:.4f}), {runner.wrong} wrong answers")
    for name, unit in units.items():
        print(f"  {name:32s} {values[name]!s:>24s} {unit}")
    print(json.dumps({
        "correct": runner.wrong == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
