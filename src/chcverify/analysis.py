"""Convex polyhedral analysis of CHC programs.

`analyze` computes, for every predicate, one polyhedron over its canonical
argument names that over-approximates the predicate's least model, by chaotic
iteration over the strongly connected components of the dependency graph in
reverse topological order. Cyclic components are iterated to stability with
threshold widening after a short delay; acyclic ones stabilise in one
productive pass.

While iterating, a `WitnessTable` records, per predicate, the clause that
first made the approximation non-empty (or later grew it), together with the
step numbers of the body predicates' first facts. Chasing first facts from
any event therefore terminates, which is what lets a derivation skeleton for
FALSE be rebuilt from the table.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .chc_ast import Atom, Clause, FALSE, Program, dependency_graph
from .linalg import (ConstraintSet, ResourceLimitError, is_satisfiable,
                     project, simplify)
from .polyhedra import Polyhedron, ThresholdSet, canonical_args

__all__ = [
    "AbstractModel",
    "WitnessEvent",
    "WitnessTable",
    "compute_thresholds",
    "analyze",
    "check_safety",
    "is_inductive_model",
    "model_to_text",
]


@dataclass(frozen=True)
class AbstractModel:
    """One polyhedron per predicate; absent predicates are bottom."""

    facts: Mapping[str, Polyhedron]

    def value(self, pred: str, arity: int) -> Polyhedron:
        got = self.facts.get(pred)
        if got is None:
            return Polyhedron.bottom(canonical_args(arity))
        return got

    def leq(self, other: "AbstractModel") -> bool:
        return all(p.leq(other.value(name, len(p.space)))
                   for name, p in self.facts.items())

    def items(self):
        return self.facts.items()


@dataclass(frozen=True)
class WitnessEvent:
    """One growth step: `pred` grew via `clause_id` at global step `step`.

    `children` pairs each body atom (in body order) with the step number of
    that predicate's first event; child steps are strictly below `step`.
    """

    step: int
    pred: str
    clause_id: str
    children: Tuple[Tuple[str, int], ...]


class WitnessTable:
    """Growth events per predicate, in global step order."""

    def __init__(self) -> None:
        self._events: Dict[str, List[WitnessEvent]] = {}
        self._steps = 0

    def record(self, pred: str, clause: Clause,
               children: Sequence[Tuple[str, int]]) -> WitnessEvent:
        self._steps += 1
        ev = WitnessEvent(self._steps, pred, clause.id, tuple(children))
        self._events.setdefault(pred, []).append(ev)
        return ev

    def first(self, pred: str) -> Optional[WitnessEvent]:
        evs = self._events.get(pred)
        return evs[0] if evs else None

    def at_step(self, pred: str, step: int) -> WitnessEvent:
        for ev in self._events.get(pred, ()):
            if ev.step == step:
                return ev
        raise KeyError((pred, step))

    def all_events(self) -> List[WitnessEvent]:
        out = [ev for evs in self._events.values() for ev in evs]
        out.sort(key=lambda e: e.step)
        return out


def _contribution(clause: Clause, model: AbstractModel) -> Polyhedron:
    """Abstract consequence of one clause under `model`, in canonical space."""
    head = clause.head_atom
    space = canonical_args(head.arity)
    rows = list(clause.constraint)
    for b in clause.body:
        v = model.value(b.pred, b.arity)
        if v.is_bottom:
            return Polyhedron.bottom(space)
        rows.extend(v.constraints.rename(dict(zip(v.space, b.args))))
    cs = ConstraintSet.make(rows)
    if not is_satisfiable(cs):
        return Polyhedron.bottom(space)
    projected = project(cs, head.args)
    return Polyhedron.of(space, projected.rename(dict(zip(head.args, space))))


def compute_thresholds(program: Program, iterations: int = 3,
                       max_facts: int = 30) -> ThresholdSet:
    """Candidate widening bounds from a short concrete propagation.

    Runs the concrete consequence operator for `iterations` rounds starting
    from the all-top model, keeping per predicate a set of facts (capped at
    `max_facts`, excess dropped in clause/combination order) rather than a
    single hull, then splits the final facts into their atomic constraints.
    """
    preds = program.predicates
    facts: Dict[str, Tuple[ConstraintSet, ...]] = {
        p: (ConstraintSet.make(()),) for p in preds}
    for _ in range(iterations):
        new: Dict[str, List[ConstraintSet]] = {p: [] for p in preds}
        for cl in program.clauses:
            head = cl.head_atom
            bucket = new[head.pred]
            choices = [facts[b.pred] for b in cl.body]
            for combo in itertools.product(*choices):
                if len(bucket) >= max_facts:
                    break
                rows = list(cl.constraint)
                for b, f in zip(cl.body, combo):
                    rows.extend(f.rename(dict(zip(canonical_args(b.arity),
                                                  b.args))))
                cs = ConstraintSet.make(rows)
                if not is_satisfiable(cs):
                    continue
                got = simplify(project(cs, head.args)).rename(
                    dict(zip(head.args, canonical_args(head.arity))))
                if got not in bucket:
                    bucket.append(got)
        facts = {p: tuple(v) for p, v in new.items()}
    by_pred: Dict[str, Tuple] = {}
    for pred in preds:
        seen: List = []
        for cs in facts[pred]:
            for c in cs:
                if c not in seen:
                    seen.append(c)
        if seen:
            by_pred[pred] = tuple(seen)
    return ThresholdSet(by_pred)


def analyze(program: Program, thresholds: Optional[ThresholdSet] = None,
            widen_delay: int = 2, max_iterations: int = 1000
            ) -> Tuple[AbstractModel, WitnessTable]:
    """Over-approximate the least model; record how facts first grew.

    Raises ResourceLimitError if an SCC fails to stabilise within
    `max_iterations` rounds (cannot happen with widening enabled unless the
    delay or thresholds are made pathological; kept as a hard backstop).
    """
    if thresholds is None:
        thresholds = ThresholdSet.empty()
    graph = dependency_graph(program)
    values: Dict[str, Polyhedron] = {
        p: Polyhedron.bottom(canonical_args(a))
        for p, a in program.predicates.items()}
    witness = WitnessTable()
    first_steps: Dict[str, int] = {}

    by_pred: Dict[str, List[Clause]] = {}
    for cl in program.clauses:
        by_pred.setdefault(cl.head_atom.pred, []).append(cl)

    for scc in graph.sccs_reverse_topological():
        cyclic = graph.is_cyclic_scc(scc)
        iteration = 0
        while True:
            iteration += 1
            if iteration > max_iterations:
                raise ResourceLimitError(
                    f"analysis of component {scc} exceeded "
                    f"{max_iterations} iterations")
            snapshot = AbstractModel(dict(values))
            changed = False
            for pred in scc:
                old = values[pred]
                joined = Polyhedron.bottom(old.space)
                grower: Optional[Clause] = None
                for cl in by_pred.get(pred, ()):
                    contrib = _contribution(cl, snapshot)
                    if contrib.is_bottom:
                        continue
                    if grower is None and not contrib.leq(old):
                        grower = cl
                    joined = joined.hull(contrib)
                new = old.hull(joined)
                if cyclic and iteration > widen_delay:
                    new = old.widen_upto(new, thresholds.for_pred(pred))
                if not new.leq(old):
                    values[pred] = new
                    changed = True
                    if grower is not None:
                        children = [(b.pred, first_steps[b.pred])
                                    for b in grower.body]
                        ev = witness.record(pred, grower, children)
                        first_steps.setdefault(pred, ev.step)
            if not changed:
                break
    return AbstractModel(values), witness


def check_safety(model: AbstractModel) -> bool:
    """True iff the approximation derives nothing for FALSE."""
    return model.value(FALSE.pred, 0).is_bottom


def is_inductive_model(program: Program, model: AbstractModel) -> bool:
    """True iff every clause's consequence under `model` is below its head fact.

    Independent audit for Safe verdicts; does not rely on how `model` was
    produced.
    """
    for cl in program.clauses:
        head = cl.head_atom
        contrib = _contribution(cl, model)
        if not contrib.leq(model.value(head.pred, head.arity)):
            return False
    return True


def model_to_text(model: AbstractModel, program: Program) -> str:
    """Non-bottom facts as numbered clauses, in head-appearance order."""
    order: List[str] = []
    for cl in program.clauses:
        pred = cl.head_atom.pred
        if pred not in order:
            order.append(pred)
    for pred in sorted(model.facts):
        if pred not in order:
            order.append(pred)
    lines = []
    n = 0
    for pred in order:
        poly = model.facts.get(pred)
        if poly is None or poly.is_bottom:
            continue
        n += 1
        head = str(Atom(pred, poly.space))
        if poly.is_top:
            lines.append(f"f{n}. {head}.")
        else:
            lines.append(f"f{n}. {head} :- {poly.constraints}.")
    return "\n".join(lines) + ("\n" if lines else "")
