"""Chaotic iteration of the rule catalog to a fixpoint over the bound store.

Asserted bounds are applied first.  One ``instantiate`` call then gives
every rule instance compiled against the store's slots, through each
law's generated match kernel, and instances fire through their
templates' kernels in deterministic order (rules by id, instances in
match order).  After the first full pass each round re-fires, in
instance order, only the instances that read a slot the previous round
tightened; the meet lattice makes the fixpoint independent of firing
order.

A kernel's updates are ``model.Tightening`` records, which the store
applies and logs by slot, so saturating builds no Justification.
Derivation trees, queries and conflict reports read ``store.log``, the
view that builds each entry's Justification when it is read.

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
from .rules import Match, fire, instantiate

if TYPE_CHECKING:
    import random

ASSERTED = "asserted"
CUT_DEPTH = 32  # levels of a text explanation below a block's first line


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

    def render(self, indent: int = 0) -> str:
        """One line per node reached, two spaces deeper per level.  An inner
        node reached twice prints its subtree once, tagged ``[#n]``, then as
        ``(see #n)``; one ``CUT_DEPTH`` levels below its block's first line
        prints as ``(see #n)``, its subtree following as a block at ``indent``."""
        lines: list[str] = []
        first: dict[int, int] = {}  # inner node -> index of its first line
        repeats: list[tuple[int, int]] = []  # (line index, inner node)
        blocks = [self]
        for root in blocks:  # grows while read
            stack = [(root, indent)]
            while stack:
                node, depth = stack.pop()
                if node.children:
                    if node is root or id(node) not in first and depth - indent < CUT_DEPTH:
                        first[id(node)] = len(lines)
                        stack += [(child, depth + 1) for child in node.children[::-1]]
                    else:
                        repeats.append((len(lines), id(node)))
                        if id(node) not in first:
                            first[id(node)] = -1  # until its block prints
                            blocks.append(node)
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
    grows, so the nodes stay valid and later trees share them.  An entry's
    Justification is built from the log only for its node, and dropped.
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
        """The node of ``just``, with a node for every log entry it reaches
        that has none yet, built without recursion.

        A premise that first reaches an entry makes the entry's node,
        empty, and the walk fills it later from the entry read then: each
        entry is read from the log once, and one Justification is alive at
        a time.
        """
        log = self.store.log
        root = DerivationTree("")
        todo: list[tuple[DerivationTree, int]] = []
        self.fill(root, just, todo)
        while todo:
            node, idx = todo.pop()
            self.fill(node, log[idx], todo)
        return root

    def fill(self, node: DerivationTree, just: Justification,
             todo: list[tuple[DerivationTree, int]]) -> None:
        """Give ``node`` the fields and children of ``just``; a premise's
        source without a node gets an empty one, and joins ``todo``."""
        built = self.built
        children = []
        for p in just.premises:
            if p.source is None:
                # a side with no justification still holds its default value
                children.append(self.default_leaf(p.key, p.side))
            elif p.source in built:
                children.append(built[p.source])
            else:
                built[p.source] = child = DerivationTree("")
                todo.append((child, p.source))
                children.append(child)
        children += map(self.of_fact, just.facts)
        side = just.side.value
        surface = just.key.surface()
        value = fmt_extnat(just.value)
        how = "(asserted)" if just.rule_id == ASSERTED else f"by {just.rule_id}"
        label = f"{side} {surface} = {value} {how}"
        node.label, node.key, node.side, node.value = label, surface, side, just.value
        node.rule_id, node.children = just.rule_id, tuple(children)

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

    def side_tree(self, key: InvariantKey, side: Side, idx: Optional[int]) -> DerivationTree:
        return self.default_leaf(key, side) if idx is None else self.of_entry(idx)

    def conflict_report(self, conflict: StoreConflict) -> ContradictionReport:
        attempted = conflict.attempted
        attempted_tree = self.of_justification(attempted)
        opposing_side = Side.LO if attempted.side is Side.HI else Side.HI
        opposing_tree = self.side_tree(attempted.key, opposing_side, conflict.opposing_source)
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
    # subscribers[slot]: the instances that read the slot, ascending.  An
    # instance reads every slot in ``body[1:]`` (see ``rules.Template``).
    # Two positions can hold one slot, so an instance can be listed twice;
    # the round's ``scheduled`` set takes it once.
    subscribers: list[list[int]] = [[] for _ in store.keys]
    for idx, (_, _, body) in enumerate(compiled):
        for slot in body[1:]:
            subscribers[slot].append(idx)
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
                    dirty.add(update.slot)
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
        idx = result.store.source_of(key, side)
        return "default" if idx is None else result.store.entries[idx].rule_id

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
    return result.trees.side_tree(key, side, result.store.source_of(key, side))
