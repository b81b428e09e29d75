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
round than tightenings.  A hi is a natural or inf and only falls: it
leaves inf at most once and then descends through the naturals.  A lo only
rises: it jumps to inf at most once, and a finite lo above ``max_finite``
stops the run and reports the pumping chain instead of spinning.  So each
side of each key tightens finitely often, and every run ends at a
fixpoint, a contradiction or the ``max_finite`` stop.  ``max_rounds`` is
an opt-in budget, off by default.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from .elaborate import ORIGIN_USER, ElaboratedScene
from .extnat import INF, ExtNat, Interval, extnat_to_json, fmt_extnat
from .model import (
    BoundStore,
    InvariantKey,
    Justification,
    Premise,
    Side,
    StoreConflict,
)
from .rules import CompiledInstance, fire, instantiate

ASSERTED = "asserted"


@dataclass(frozen=True)
class Limits:
    max_rounds: Optional[int] = None  # no cap by default, see the module docstring
    max_finite: int = 65_536


@dataclass(frozen=True)
class DerivationTree:
    """Justification DAG rendered as a tree down to asserted facts."""

    label: str
    key: Optional[str] = None
    side: Optional[str] = None
    value: Optional[ExtNat] = None
    rule_id: Optional[str] = None
    children: tuple["DerivationTree", ...] = ()

    def size(self) -> int:
        return 1 + sum(child.size() for child in self.children)

    def leaves(self) -> list["DerivationTree"]:
        if not self.children:
            return [self]
        out: list[DerivationTree] = []
        for child in self.children:
            out.extend(child.leaves())
        return out

    def render(self, indent: int = 0) -> str:
        lines = ["  " * indent + self.label]
        for child in self.children:
            lines.append(child.render(indent + 1))
        return "\n".join(lines)

    def to_json(self) -> dict:
        payload: dict = {"label": self.label}
        if self.key is not None:
            payload["key"] = self.key
            payload["side"] = self.side
            payload["value"] = extnat_to_json(self.value)
        if self.rule_id is not None:
            payload["rule"] = self.rule_id
        if self.children:
            payload["children"] = [c.to_json() for c in self.children]
        return payload


@dataclass(frozen=True)
class ContradictionReport:
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


@dataclass(frozen=True)
class BudgetReport:
    reason: str  # "max_rounds" | "max_finite"
    detail: str
    tree: Optional[DerivationTree] = None


@dataclass
class SaturationResult:
    store: BoundStore
    status: str  # "fixpoint" | "contradiction" | "budget_exhausted"
    rounds: int
    firings: int
    elab: ElaboratedScene
    instances: list[CompiledInstance]
    contradiction: Optional[ContradictionReport] = None
    budget: Optional[BudgetReport] = None


@dataclass(frozen=True)
class QueryAnswer:
    key: InvariantKey
    interval: Interval
    status: str
    lo_rule: str  # "default" | "asserted" | rule id
    hi_rule: str


class TreeBuilder:
    """Reconstructs derivation trees from the store log and the scene's facts."""

    def __init__(self, store: BoundStore, elab: ElaboratedScene):
        self.store = store
        self.elab = elab

    def of_justification(self, just: Justification) -> DerivationTree:
        side = just.side.value
        surface = just.key.surface()
        value = fmt_extnat(just.value)
        if just.rule_id == ASSERTED:
            label = f"{side} {surface} = {value} (asserted)"
        else:
            label = f"{side} {surface} = {value} by {just.rule_id}"
        children = [self.of_premise(p) for p in just.premises]
        children += [self.of_fact(i) for i in just.facts]
        return DerivationTree(
            label=label, key=surface, side=side, value=just.value,
            rule_id=just.rule_id, children=tuple(children),
        )

    def of_premise(self, premise: Premise) -> DerivationTree:
        if premise.source is not None:
            return self.of_justification(self.store.log[premise.source])
        # a side with no justification still holds its default value
        return self.default_leaf(premise.key, premise.side)

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
        just = self.store.justification_of(key, side)
        if just is None:
            return self.default_leaf(key, side)
        return self.of_justification(just)

    def conflict_report(self, conflict: StoreConflict) -> ContradictionReport:
        attempted = conflict.attempted
        attempted_tree = self.of_justification(attempted)
        if conflict.opposing_source is not None:
            opposing_tree = self.of_justification(
                self.store.log[conflict.opposing_source])
        else:
            opposing_side = Side.LO if attempted.side is Side.HI else Side.HI
            opposing_tree = self.default_leaf(attempted.key, opposing_side)
        if attempted.side is Side.HI:
            return ContradictionReport(
                key=attempted.key,
                lo_value=conflict.current.lo, hi_value=attempted.value,
                lo_tree=opposing_tree, hi_tree=attempted_tree,
            )
        return ContradictionReport(
            key=attempted.key,
            lo_value=attempted.value, hi_value=conflict.current.hi,
            lo_tree=attempted_tree, hi_tree=opposing_tree,
        )


class _Run:
    def __init__(self, elab: ElaboratedScene, limits: Limits, rearrange: bool,
                 shuffle: Optional[random.Random]):
        self.elab = elab
        self.limits = limits
        self.rearrange = rearrange
        self.shuffle = shuffle
        self.store = BoundStore()
        self.trees = TreeBuilder(self.store, elab)
        self.instances: list[CompiledInstance] = []
        self.dirty: set[int] = set()  # slots tightened in this round
        self.rounds = 0
        self.firings = 0
        self.contradiction: Optional[ContradictionReport] = None
        self.budget: Optional[BudgetReport] = None

    def apply_bound(self, just: Justification) -> Optional[StoreConflict]:
        result = self.store.apply(just)
        if isinstance(result, StoreConflict):
            return result
        if result:
            self.firings += 1
            self.dirty.add(self.store.slots[just.key])
            if just.side is Side.LO and INF > just.value > self.limits.max_finite:
                self.budget = BudgetReport(
                    reason="max_finite",
                    detail=f"lower bound on {just.key.surface()} climbed past "
                           f"{self.limits.max_finite}; pumping chain follows",
                    tree=self.trees.of_justification(just),
                )
        return None

    def apply_asserted(self) -> None:
        for bound in self.elab.bounds:
            if bound.rel == "<=":
                sides = [Side.HI]
            elif bound.rel == ">=":
                sides = [Side.LO]
            else:
                sides = [Side.LO, Side.HI]
            for side in sides:
                just = Justification(
                    rule_id=ASSERTED, key=bound.key, side=side, value=bound.value,
                    compute=ASSERTED,
                )
                result = self.store.apply(just)
                if isinstance(result, StoreConflict):
                    self.contradiction = self.trees.conflict_report(result)
                    return

    def run(self) -> SaturationResult:
        self.apply_asserted()
        if self.contradiction is None:
            # saturation never adds facts, so one instantiation serves the run
            self.instances = compiled = instantiate(self.elab, self.store)
            # subscribers[slot]: the instances that read the slot, ascending
            subscribers: list[list[int]] = [[] for _ in self.store.keys]
            for idx, inst in enumerate(compiled):
                for slot in inst.reads:
                    subscribers[slot].append(idx)
            agenda = list(range(len(compiled)))
            while agenda:
                if self.limits.max_rounds is not None and self.rounds >= self.limits.max_rounds:
                    self.budget = BudgetReport(
                        reason="max_rounds",
                        detail=f"no fixpoint after {self.limits.max_rounds} rounds",
                    )
                    break
                self.rounds += 1
                self.dirty = set()
                if self.shuffle is not None:
                    self.shuffle.shuffle(agenda)
                for idx in agenda:
                    updates = fire(compiled[idx], self.store, rearrange=self.rearrange)
                    conflicts: list[StoreConflict] = []
                    for update in updates:
                        conflict = self.apply_bound(update)
                        if conflict is not None:
                            conflicts.append(conflict)
                        if self.budget is not None:
                            break
                    if conflicts:
                        # one firing can cross bounds through several
                        # conclusions; report the smallest provenance pair
                        reports = [self.trees.conflict_report(c) for c in conflicts]
                        self.contradiction = min(
                            reports,
                            key=lambda r: r.lo_tree.size() + r.hi_tree.size(),
                        )
                        break
                    if self.budget is not None:
                        break
                if self.contradiction is not None or self.budget is not None:
                    break
                scheduled: set[int] = set()
                for slot in self.dirty:
                    scheduled.update(subscribers[slot])
                agenda = sorted(scheduled)
        status = "fixpoint"
        if self.contradiction is not None:
            status = "contradiction"
        elif self.budget is not None:
            status = "budget_exhausted"
        return SaturationResult(
            store=self.store, status=status, rounds=self.rounds,
            firings=self.firings, elab=self.elab, instances=self.instances,
            contradiction=self.contradiction, budget=self.budget,
        )


def saturate(elab: ElaboratedScene, limits: Limits = Limits(), *,
             rearrange: bool = True,
             shuffle: Optional[random.Random] = None) -> SaturationResult:
    """Saturate an elaborated scene.

    ``shuffle`` randomizes firing order inside each round; the final store
    must not depend on it (confluence), only logs and trees may differ.
    """
    return _Run(elab, limits, rearrange, shuffle).run()


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
    return TreeBuilder(result.store, result.elab).side_tree(key, side)
