"""Seeded scene-text generators for the benchmark workloads.

Every generator returns scene *text* in the surface syntax, so the
program under test parses every input itself.  The random-scene builder
is a copy of the test suite's gadget generator, rewritten to emit text;
it is kept here so that edits to the test helpers cannot change the
workload.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional

MAP_CHAIN_N = 400
SUSP_TOWER_N = 150
PRODUCT_TOWER_N = 15
BATCH_RANDOM_SCENES = 33 * 62
BATCH_HEAD = 140
# A first query's tree is nearly always one node, explained in about 0.1 ms
# right after the verdict and its checks have filled the caches.  That lone
# cold sample swings with the host's cache traffic; over 8 rounds the median
# is a warm explain (IQR/median 0.04 instead of 0.12 over six runs).
BATCH_EXPLAIN_ROUNDS = 8

INF = "inf"


@dataclass
class SceneCase:
    """One input: its text, the explain targets and the expected answers.

    ``expected`` maps a queried surface key to its closed-form ``[lo, hi]``
    (JSON spelling, ``"inf"`` for infinity).  ``golden`` holds a corpus
    scene's hand-written payload.  Scenes with neither are checked by the
    soundness rechecks alone.
    """

    name: str
    text: str
    explains: tuple[str, ...] = ()      # timed explain targets, "key:side"
    # Rounds over ``explains`` per verdict.  Explain times drift with the
    # host over fractions of a second, so short explains are repeated until
    # they span about 0.5 s per verdict instead of a burst of a few ms.
    explain_rounds: int = 1
    probes: tuple[str, ...] = ()        # explain targets kept out of explain_s
    expected: dict = field(default_factory=dict)
    expected_explain: dict = field(default_factory=dict)
    golden: Optional[dict] = None


def _declare(rng: random.Random, head: str, names: list[str], per_line: int = 25) -> list[str]:
    """Declaration lines in a seeded order; the parser sorts them back."""
    names = list(names)
    rng.shuffle(names)
    return [f"{head} " + ", ".join(names[i:i + per_line])
            for i in range(0, len(names), per_line)]


def map_chain(seed: int, n: int = MAP_CHAIN_N) -> SceneCase:
    """f1..fn : X(i-1) -> X(i), L(fi) <= 1, cl(X0) = 1.

    cl(Xn) = kl(Xn) = [0, n+1].  The seed only permutes declaration lines,
    which the scene model normalises, so the engine's work is fixed.
    """
    rng = random.Random(seed)
    lines = ["collection Chain { suspensions }"]
    lines += _declare(rng, "space", [f"X{i}" for i in range(n + 1)])
    maps = [f"map f{i} : X{i - 1} -> X{i}" for i in range(1, n + 1)]
    rng.shuffle(maps)
    lines += maps
    lines += [f"bound L(f{i}) <= 1" for i in range(1, n + 1)]
    lines += ["bound cl(X0) = 1", f"query cl(X{n})", f"query kl(X{n})"]
    # Explains up to depth 3n/4 stay within the default recursion limit;
    # the probe at depth n does not, at the seed.
    depths = range(n // 4, 3 * n // 4 + 1, n // 16)
    return SceneCase(
        name=f"map-chain-{n}",
        text="\n".join(lines) + "\n",
        explains=tuple(f"cl(X{i}):hi" for i in depths),
        explain_rounds=6,
        probes=(f"cl(X{n}):hi",),
        expected={f"cl(X{n})": [0, n + 1], f"kl(X{n})": [0, n + 1]},
        expected_explain={f"cl(X{i}):hi": i + 1 for i in (*depths, n)},
    )


def susp_tower(seed: int, n: int = SUSP_TOWER_N) -> SceneCase:
    """S(i) = susp(S(i-1)), W(i) = W(i-1) v S(i) with W0 = S0, member(S0).

    Every tower space is in the collection, so kl(Wn) = [0, 1], while
    cl(Wn) stays [0, inf] (negative soundness).  The fact lines come in a
    seeded order, as a user might write them.
    """
    rng = random.Random(seed)
    lines = ["collection Tower { wedges, suspensions }"]
    spaces = [f"S{i}" for i in range(n + 1)] + [f"W{i}" for i in range(1, n + 1)]
    lines += _declare(rng, "space", spaces)
    facts = ["fact member(S0)"]
    for i in range(1, n + 1):
        facts.append(f"fact susp_space(S{i}, S{i - 1})")
        prev = "S0" if i == 1 else f"W{i - 1}"
        facts.append(f"fact wedge_space(W{i}, {prev}, S{i})")
    rng.shuffle(facts)
    lines += facts
    lines += [f"query cl(W{n})", f"query kl(W{n})"]
    targets = [f"kl(W{i}):hi" for i in range(1, n + 1)]
    return SceneCase(
        name=f"susp-tower-{n}",
        text="\n".join(lines) + "\n",
        explains=tuple(targets),
        explain_rounds=60,
        expected={f"cl(W{n})": [0, INF], f"kl(W{n})": [0, 1]},
        expected_explain={t: 1 for t in targets},
    )


def product_tower(seed: int, n: int = PRODUCT_TOWER_N) -> SceneCase:
    """P(i) = P(i-1) x P(i-1) over wedges and joins, cl(P0) = kl(P0) = 1.

    cl(Pn) = [0, 2^n] and kl(Pn) = [0, 2^(n-1) (n+2)].  The seed only
    permutes declaration lines.
    """
    rng = random.Random(seed)
    lines = ["collection Prod { wedges, joins }"]
    lines += _declare(rng, "space", [f"P{i}" for i in range(n + 1)])
    lines += [f"fact product_space(P{i}, P{i - 1}, P{i - 1})" for i in range(1, n + 1)]
    lines += ["bound cl(P0) = 1", "bound kl(P0) = 1", f"query cl(P{n})", f"query kl(P{n})"]
    return SceneCase(
        name=f"product-tower-{n}",
        text="\n".join(lines) + "\n",
        explains=(f"cl(P{n}):hi",),
        expected={f"cl(P{n})": [0, 2 ** n], f"kl(P{n})": [0, 2 ** (n - 1) * (n + 2)]},
        expected_explain={f"cl(P{n}):hi": 2 ** n},
    )


# -- random scenes ------------------------------------------------------------

KINDS_MAP = ("L", "Lcat")
KINDS_SPACE = ("cl", "cat", "kl", "kit")


class _Builder:
    def __init__(self, rng: random.Random, max_spaces: int = 8, max_maps: int = 12):
        self.rng = rng
        self.max_spaces = max_spaces
        self.max_maps = max_maps
        self.spaces: list[str] = []
        self.maps: list[tuple[str, str, str]] = []  # (id, dom, cod)
        self.facts: list[str] = []
        self.composites: set[tuple[str, str]] = set()  # (fact kind, space)
        self.counter = 0

    def fresh(self, prefix: str) -> str:
        self.counter += 1
        return f"{prefix}{self.counter}"

    def can_add(self, spaces: int, maps: int) -> bool:
        return (len(self.spaces) + spaces <= self.max_spaces
                and len(self.maps) + maps <= self.max_maps)

    def space(self) -> str:
        name = self.fresh("Sp")
        self.spaces.append(name)
        return name

    def map(self, dom: str, cod: str) -> str:
        name = self.fresh("m")
        self.maps.append((name, dom, cod))
        return name

    def fact(self, kind: str, *args: str) -> None:
        self.facts.append(f"{kind}({', '.join(args)})")

    def pick_space(self) -> str:
        return self.rng.choice(self.spaces)

    def pick_map(self) -> tuple[str, str, str]:
        return self.rng.choice(self.maps)


def _gadget_plain(b: _Builder) -> None:
    if b.can_add(2, 1):
        x, y = b.space(), b.space()
        b.map(x, y)


def _gadget_simple_facts(b: _Builder) -> None:
    if not b.maps or not b.spaces:
        return
    kind = b.rng.choice(
        ["member", "contractible", "equiv", "equiv_maps", "dominates",
         "null", "homotopic", "pi0"])
    if kind in ("member", "contractible"):
        b.fact(kind, b.pick_space())
    elif kind in ("equiv", "null"):
        b.fact(kind, b.pick_map()[0])
    elif kind in ("equiv_maps", "dominates"):
        b.fact(kind, b.pick_map()[0], b.pick_map()[0])
    elif kind == "homotopic":
        name, dom, cod = b.pick_map()
        if b.can_add(0, 1):
            b.fact("homotopic", name, b.map(dom, cod))
    elif kind == "pi0" and b.rng.random() < 0.3:
        b.fact("pi0_not_onto", b.pick_map()[0])


def _gadget_compose(b: _Builder) -> None:
    if not b.can_add(3, 3):
        return
    a, mid, c = b.space(), b.space(), b.space()
    f = b.map(a, mid)
    g = b.map(mid, c)
    h = b.map(a, c)
    b.fact("compose", h, g, f)


def _gadget_cofiber(b: _Builder) -> None:
    if not b.can_add(3, 2):
        return
    cone, total, cofib = b.space(), b.space(), b.space()
    f = b.map(cone, total)
    j = b.map(total, cofib)
    b.fact("cofiber", f, j, cofib)
    if b.rng.random() < 0.7:
        b.fact("member", cone)


def _gadget_section(b: _Builder) -> None:
    if not b.can_add(2, 2):
        return
    a, c = b.space(), b.space()
    f = b.map(a, c)
    g = b.map(c, a)
    b.fact("section", f, g)


def _gadget_pushout(b: _Builder) -> None:
    if not b.can_add(4, 5):
        return
    apex, corner_b, corner_c, out = b.space(), b.space(), b.space(), b.space()
    f = b.map(apex, corner_b)
    g = b.map(apex, corner_c)
    ib = b.map(corner_b, out)
    ic = b.map(corner_c, out)
    diag = b.map(apex, out)
    b.fact("pushout", apex, f, g, ib, ic, diag)


def _gadget_composite_spaces(b: _Builder) -> None:
    # Unlike the test helper, a space is never made the composite of two
    # different operand lists of one kind: the elaborator rejects such a
    # scene, and every scene of the stream is meant to be valid.
    kind = b.rng.choice(["susp_space", "wedge_space", "join_space", "smash_space"])
    if kind == "susp_space":
        if b.can_add(2, 0) or len(b.spaces) >= 2:
            if not b.can_add(2, 0):
                base, comp = b.pick_space(), b.pick_space()
            else:
                base, comp = b.space(), b.space()
            if base != comp and (kind, comp) not in b.composites:
                b.composites.add((kind, comp))
                b.fact("susp_space", comp, base)
    elif len(b.spaces) >= 3:
        comp, left, right = (b.pick_space() for _ in range(3))
        if comp not in (left, right) and (kind, comp) not in b.composites:
            b.composites.add((kind, comp))
            b.fact(kind, comp, left, right)


def _gadget_product_cluster(b: _Builder) -> None:
    if not b.can_add(3, 1):
        return
    x, y, p = b.space(), b.space(), b.space()
    b.fact("product_space", p, x, y)
    if b.rng.random() < 0.5:
        b.fact("projection", b.map(p, y))
        if b.rng.random() < 0.7:
            b.fact("member", x)


def _gadget_fibration(b: _Builder) -> None:
    if not b.can_add(3, 1):
        return
    total, base, fiber = b.space(), b.space(), b.space()
    b.fact("fibration", b.map(total, base), fiber)


def _gadget_pullback(b: _Builder) -> None:
    if not b.can_add(5, 4):
        return
    a, c2, d, b2, fiber = b.space(), b.space(), b.space(), b.space(), b.space()
    ab = b.map(a, b2)
    ac = b.map(a, c2)
    bd = b.map(b2, d)
    cd = b.map(c2, d)
    b.fact("pullback", a, b2, c2, d, ab, ac, bd, cd, fiber)


GADGETS = [
    _gadget_plain,
    _gadget_simple_facts,
    _gadget_simple_facts,
    _gadget_compose,
    _gadget_cofiber,
    _gadget_cofiber,
    _gadget_section,
    _gadget_pushout,
    _gadget_composite_spaces,
    _gadget_product_cluster,
    _gadget_fibration,
    _gadget_pullback,
]


FLAGS = ("wedges", "suspensions", "joins", "smash_ideal")



def _profile_line(flags: list[str]) -> str:
    return f"collection R {{ {', '.join(flags)} }}" if flags else "collection R { }"


# Every distinct collection profile: "all", then each subset of the flags.
PROFILES = ["collection R { all }"] + [
    _profile_line([f for bit, f in enumerate(FLAGS) if mask >> bit & 1])
    for mask in range(1 << len(FLAGS))
]

# Profiles with suspensions saturate about 3.5x slower than those without,
# so an even mix puts the median scene in the gap between the two modes,
# where it jumps from seed to seed.  Each profile without suspensions comes
# three times per cycle, so the median sits in the fast mode (the fixed
# per-scene costs) and the 90th percentile in the suspension mode.
SCHEDULE = [p for p in PROFILES
            for _ in range(1 if "suspensions" in p or "all" in p else 3)]


def random_scene(rng: random.Random, name: str, profile: str) -> SceneCase:
    """A valid scene grown from coherent gadgets (the test suite's recipe)."""
    b = _Builder(rng)
    _gadget_plain(b)
    for _ in range(rng.randint(2, 7)):
        rng.choice(GADGETS)(b)

    keys = [f"{rng.choice(KINDS_MAP)}({m})" for m, _, _ in b.maps]
    keys += [f"{rng.choice(KINDS_SPACE)}({s})" for s in b.spaces]
    rng.shuffle(keys)
    bounds = []
    for key in keys[: rng.randint(0, 4)]:
        rel = rng.choice(["<=", ">=", "="])
        value = INF if rng.random() < 0.1 else str(rng.randint(0, 4))
        bounds.append(f"bound {key} {rel} {value}")
    lines = [profile, "space " + ", ".join(b.spaces)]
    lines += [f"map {m} : {dom} -> {cod}" for m, dom, cod in b.maps]
    lines += [f"fact {f}" for f in b.facts]
    lines += bounds
    lines += [f"query {key}" for key in keys[:2]]
    return SceneCase(name=name, text="\n".join(lines) + "\n",
                     explains=tuple(f"{key}:hi" for key in keys[:1]),
                     explain_rounds=BATCH_EXPLAIN_ROUNDS)


def corpus_cases(corpus: Path) -> list[SceneCase]:
    """The bundled corpus scenes with their hand-written goldens."""
    cases = []
    for path in sorted(corpus.glob("*.scene")):
        golden = json.loads(path.with_suffix(".expected.json").read_text(encoding="utf-8"))
        queries = list(golden["bounds"])
        cases.append(SceneCase(
            name=f"corpus/{path.stem}",
            text=path.read_text(encoding="utf-8"),
            explains=tuple(f"{q}:hi" for q in queries[:1]),
            golden=golden,
        ))
    return cases


def scene_batch(seed: int, corpus: Path) -> list[SceneCase]:
    """A seeded stream of random scenes with the corpus scenes mixed in.

    Profiles cycle through ``SCHEDULE`` so that every prefix of the stream
    holds them in fixed shares; everything else about a scene is drawn
    from the seed.  The corpus scenes sit at seeded places among the first
    ``BATCH_HEAD`` scenes, which the traced run replays.
    """
    rng = random.Random(seed)
    cases = [random_scene(rng, f"random/{seed}/{i}", SCHEDULE[i % len(SCHEDULE)])
             for i in range(BATCH_RANDOM_SCENES)]
    corpus_list = [replace(case, explain_rounds=BATCH_EXPLAIN_ROUNDS)
                   for case in corpus_cases(corpus)]
    head = BATCH_HEAD - len(corpus_list)
    for case in corpus_list:
        head += 1
        cases.insert(rng.randrange(head), case)
    return cases
