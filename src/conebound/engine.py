"""Chaotic iteration of the rule catalog to a fixpoint over the bound store.

Asserted bounds are applied first.  One ``instantiate`` call then gives
every rule instance compiled against the store's slots, and instances fire
in deterministic order (rules by id, instances in match order).  After
the first full pass each round re-fires, in instance order, only the
instances that read a slot the previous round tightened; the meet lattice
makes the fixpoint independent of firing order.

Termination rests on well-foundedness, not on a round cap.  The keys are
fixed once ``instantiate`` has interned them, and every round after the
first follows a round that tightened a side, so there is at most one more
round than tightenings.  A hi only falls: it leaves inf at most once and
then descends through the naturals.  A lo only rises: it jumps to inf at
most once, and no finite lo exceeds the largest finite asserted lo (or 0),
because every computation that writes one returns at most a lo it reads:
``monus`` and ``ceil1`` are at most their base, ``copy`` and ``maxlo``
copy one.  So each side of each key tightens finitely often, and every run
ends at a fixpoint or a contradiction.  ``max_rounds`` is an opt-in
budget, off by default.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple, Optional

from .elaborate import ORIGIN_USER, ElaboratedScene
from .extnat import ExtNat, Interval, extnat_to_json, fmt_extnat
from .model import BoundStore, InvariantKey, Justification, Side, StoreConflict
from .rules import READS, Match, fire, instantiate

if TYPE_CHECKING:
    import random

ASSERTED = "asserted"


class Limits(NamedTuple):
    max_rounds: Optional[int] = None  # no cap by default, see the module docstring


class DerivationTree:
    """Justification DAG down to asserted facts.  A sub-derivation used
    twice is one node object, so nodes compare by identity, and the walks
    below visit each distinct node once, without recursion."""

    __slots__ = ("label", "key", "side", "value", "rule_id", "children")

    def __init__(self, label: str, key: Optional[str] = None, side: Optional[str] = None,
                 value: Optional[ExtNat] = None, rule_id: Optional[str] = None,
                 children: tuple["DerivationTree", ...] = ()):
        self.label, self.key, self.side, self.value = label, key, side, value
        self.rule_id, self.children = rule_id, children

    def __repr__(self) -> str:
        # the node alone: printing descendants recurses once per level and
        # repeats each shared sub-derivation at every use
        return f"<DerivationTree {self.label!r}, {len(self.children)} children>"

    def nodes(self) -> list["DerivationTree"]:
        """Distinct nodes in depth-first pre-order, each at its first visit."""
        seen: dict[int, DerivationTree] = {}
        stack = [self]
        while stack:
            node = stack.pop()
            if id(node) not in seen:
                seen[id(node)] = node
                stack += node.children[::-1]
        return list(seen.values())

    def size(self) -> int:
        return len(self.nodes())

    def leaves(self) -> list["DerivationTree"]:
        return [node for node in self.nodes() if not node.children]

    def render(self, indent: int = 0) -> str:
        """One line per node reached; an inner node reached twice prints
        its subtree once, tagged ``[#n]``, and later as ``(see #n)``."""
        lines: list[str] = []
        first: dict[int, int] = {}  # inner node -> index of its first line
        repeats: list[tuple[int, int]] = []  # (line index, inner node)
        stack = [(self, indent)]
        while stack:
            node, depth = stack.pop()
            if node.children:
                if id(node) in first:
                    repeats.append((len(lines), id(node)))
                else:
                    first[id(node)] = len(lines)
                    stack += [(child, depth + 1) for child in node.children[::-1]]
            lines.append("  " * depth + node.label)
        if repeats:
            shared = sorted({first[node] for _, node in repeats})
            numbers = {at: n for n, at in enumerate(shared, 1)}
            for at, n in numbers.items():
                lines[at] += f" [#{n}]"
            for at, node in repeats:
                lines[at] += f" (see #{numbers[first[node]]})"
        return "\n".join(lines)

    def json_fields(self) -> dict:
        payload: dict = {"label": self.label}
        if self.key is not None:
            payload["key"] = self.key
            payload["side"] = self.side
            payload["value"] = extnat_to_json(self.value)
        if self.rule_id is not None:
            payload["rule"] = self.rule_id
        return payload

    def to_json(self) -> dict:
        """The root's fields, with ``children`` as ids into a ``nodes`` table
        that lists every other distinct node once, numbered breadth-first."""
        order = [self]
        payloads = [self.json_fields()]
        ids: dict[int, int] = {}
        for node, payload in zip(order, payloads):  # both grow while read
            if node.children:
                payload["children"] = kids = []
                for child in node.children:
                    if id(child) not in ids:
                        ids[id(child)] = len(order) - 1
                        order.append(child)
                        payloads.append(child.json_fields())
                    kids.append(ids[id(child)])
        if self.children:
            payloads[0]["nodes"] = payloads[1:]
        return payloads[0]


class ContradictionReport(NamedTuple):
    key: InvariantKey
    lo_value: ExtNat
    hi_value: ExtNat
    lo_tree: DerivationTree
    hi_tree: DerivationTree

    def describe(self) -> str:
        return (
            f"{self.key.surface()}: lower bound {fmt_extnat(self.lo_value)} "
            f"exceeds upper bound {fmt_extnat(self.hi_value)}"
        )


class BudgetReport(NamedTuple):
    reason: str  # "max_rounds"
    detail: str


class SaturationResult(NamedTuple):
    store: BoundStore
    status: str  # "fixpoint" | "contradiction" | "budget_exhausted"
    rounds: int
    firings: int
    elab: ElaboratedScene
    instances: list[Match]
    trees: TreeBuilder  # the run's builder; explains reuse its nodes
    contradiction: Optional[ContradictionReport] = None
    budget: Optional[BudgetReport] = None


class QueryAnswer(NamedTuple):
    key: InvariantKey
    interval: Interval
    status: str
    lo_rule: str  # "default" | "asserted" | rule id
    hi_rule: str


class TreeBuilder:
    """Reconstructs derivation trees from the store log and the scene's facts.

    Each log entry becomes one node, built once and kept: the log only
    grows, so the nodes stay valid and later trees share them.
    """

    def __init__(self, store: BoundStore, elab: ElaboratedScene):
        self.store = store
        self.elab = elab
        self.built: dict[int, DerivationTree] = {}  # log index -> its node

    def of_entry(self, idx: int) -> DerivationTree:
        if idx not in self.built:
            self.built[idx] = self.of_justification(self.store.log[idx])
        return self.built[idx]

    def of_justification(self, just: Justification) -> DerivationTree:
        """Build the log entries ``just`` reaches that have no node yet.

        A premise's source precedes its user in the log, so ascending
        order builds every child before its parents, without recursion.
        """
        built, log = self.built, self.store.log
        reached: set[int] = set()
        stack = [just]
        while stack:
            for premise in stack.pop().premises:
                source = premise.source
                if source is not None and source not in built and source not in reached:
                    reached.add(source)
                    stack.append(log[source])
        for idx in sorted(reached):
            built[idx] = self.node(log[idx])
        return self.node(just)

    def node(self, just: Justification) -> DerivationTree:
        side = just.side.value
        surface = just.key.surface()
        value = fmt_extnat(just.value)
        if just.rule_id == ASSERTED:
            label = f"{side} {surface} = {value} (asserted)"
        else:
            label = f"{side} {surface} = {value} by {just.rule_id}"
        # a side with no justification still holds its default value
        children = [self.built[p.source] if p.source is not None
                    else self.default_leaf(p.key, p.side) for p in just.premises]
        children += [self.of_fact(i) for i in just.facts]
        return DerivationTree(
            label=label, key=surface, side=side, value=just.value,
            rule_id=just.rule_id, children=tuple(children),
        )

    def of_fact(self, index: int) -> DerivationTree:
        origin = self.elab.origins[index]
        tag = "" if origin == ORIGIN_USER else f" ({origin})"
        return DerivationTree(label=f"fact F{index + 1}: {self.elab.facts[index].render()}{tag}")

    def default_leaf(self, key: InvariantKey, side: Side) -> DerivationTree:
        default = BoundStore.default_interval(key)
        value = default.side(side.value)
        surface = key.surface()
        return DerivationTree(
            label=f"{side.value} {surface} = {fmt_extnat(value)} (default {default})",
            key=surface, side=side.value, value=value,
        )

    def side_tree(self, key: InvariantKey, side: Side) -> DerivationTree:
        idx = self.store.source_of(key, side)
        return self.default_leaf(key, side) if idx is None else self.of_entry(idx)

    def conflict_report(self, conflict: StoreConflict) -> ContradictionReport:
        attempted = conflict.attempted
        attempted_tree = self.of_justification(attempted)
        if conflict.opposing_source is not None:
            opposing_tree = self.of_entry(conflict.opposing_source)
        else:
            opposing_side = Side.LO if attempted.side is Side.HI else Side.HI
            opposing_tree = self.default_leaf(attempted.key, opposing_side)
        if attempted.side is Side.HI:
            return ContradictionReport(attempted.key, conflict.current.lo, attempted.value,
                                       opposing_tree, attempted_tree)
        return ContradictionReport(attempted.key, attempted.value, conflict.current.hi,
                                   attempted_tree, opposing_tree)


def saturate(elab: ElaboratedScene, limits: Limits = Limits(), *,
             rearrange: bool = True,
             shuffle: Optional[random.Random] = None) -> SaturationResult:
    """Saturate an elaborated scene.

    ``shuffle`` randomizes firing order inside each round; the final store
    must not depend on it (confluence), only logs and trees may differ.
    """
    store = BoundStore()
    trees = TreeBuilder(store, elab)
    rounds = firings = 0
    contradiction: Optional[ContradictionReport] = None
    budget: Optional[BudgetReport] = None
    sides = {"<=": (Side.HI,), ">=": (Side.LO,)}  # "=" sets both
    asserted = (Justification(ASSERTED, bound.key, side, bound.value, ASSERTED)
                for bound in elab.bounds for side in sides.get(bound.rel, (Side.LO, Side.HI)))
    for just in asserted:
        result = store.apply(just)
        if isinstance(result, StoreConflict):
            contradiction = trees.conflict_report(result)
            break
    # saturation never adds facts, so one instantiation serves the run;
    # asserted bounds in conflict leave nothing to fire
    compiled = [] if contradiction is not None else instantiate(elab, store)
    # subscribers[slot]: the instances that read the slot, ascending
    subscribers: list[list[int]] = [[] for _ in store.keys]
    for idx, (_, _, steps) in enumerate(compiled):
        for step in steps:
            for slot in READS[step[0]](step):
                readers = subscribers[slot]
                if not readers or readers[-1] != idx:  # once per instance
                    readers.append(idx)
    agenda = list(range(len(compiled)))
    while agenda:
        if limits.max_rounds is not None and rounds >= limits.max_rounds:
            budget = BudgetReport(
                reason="max_rounds",
                detail=f"no fixpoint after {limits.max_rounds} rounds",
            )
            break
        rounds += 1
        dirty: set[int] = set()  # slots tightened in this round
        conflicts: list[StoreConflict] = []
        if shuffle is not None:
            shuffle.shuffle(agenda)
        for idx in agenda:
            updates = fire(compiled[idx], store, rearrange)
            if not updates:
                continue
            for update in updates:
                result = store.apply(update)
                if isinstance(result, StoreConflict):
                    conflicts.append(result)
                elif result:
                    firings += 1
                    dirty.add(store.slots[update.key])
            if conflicts:
                break
        if conflicts:
            # one firing can cross bounds through several conclusions;
            # report the smallest provenance pair
            contradiction = min(
                (trees.conflict_report(c) for c in conflicts),
                key=lambda r: r.lo_tree.size() + r.hi_tree.size(),
            )
            break
        scheduled: set[int] = set()
        for slot in dirty:
            scheduled.update(subscribers[slot])
        agenda = sorted(scheduled)
    status = "fixpoint"
    if contradiction is not None:
        status = "contradiction"
    elif budget is not None:
        status = "budget_exhausted"
    return SaturationResult(
        store=store, status=status, rounds=rounds, firings=firings, elab=elab,
        instances=compiled, trees=trees, contradiction=contradiction, budget=budget,
    )


def query(result: SaturationResult, key: InvariantKey) -> QueryAnswer:
    """The stored interval for a key plus the classification of each side."""
    if key.map_id not in result.elab.maps:
        raise KeyError(f"unknown invariant target {key.surface()}")

    def classify(side: Side) -> str:
        just = result.store.justification_of(key, side)
        if just is None:
            return "default"
        return just.rule_id

    return QueryAnswer(
        key=key,
        interval=result.store.interval(key),
        status=result.status,
        lo_rule=classify(Side.LO),
        hi_rule=classify(Side.HI),
    )


def explain(result: SaturationResult, key: InvariantKey, side: Side) -> DerivationTree:
    """Minimal tree reconstructing the final value of one side of a key.

    A side still at its default bound yields a single default leaf.
    """
    if key.map_id not in result.elab.maps:
        raise KeyError(f"unknown invariant target {key.surface()}")
    return result.trees.side_tree(key, side)
