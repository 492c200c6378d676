"""Convex polyhedral analysis of CHC programs.

`analyze` computes, for every predicate, one polyhedron over its canonical
argument names that over-approximates the predicate's least model, by chaotic
iteration over the strongly connected components of the dependency graph in
reverse topological order. Cyclic components are iterated to stability with
threshold widening after a short delay; acyclic ones stabilise in one
productive pass. The iteration is semi-naive: every predicate carries a
version that goes up whenever its value is replaced, and a clause is
re-evaluated only when its body predicates' versions differ from those it was
last evaluated under. A contribution is a pure function of the body values,
and a predicate's value only grows, so a skipped clause adds nothing; of the
contributions that are evaluated, only those not already below the value are
hulled in. The widening thresholds are the head bounds that each clause's own
constraint implies (`compute_thresholds`). Only widening reads them, so a
predicate's bounds are mined when it is first widened, and never for a
predicate that no cyclic component widens.

`instantiate` is the one place where canonical facts are put on a clause's
atoms, conjoined with its constraint and checked for satisfiability; every
module that instantiates a clause calls it. The specialisers emit what it
returns: `specialise.strengthen` the clause with its head's answer placed,
`refine.polyvariant_specialise` the clause with its head cell and body
facts placed.

While iterating, a `WitnessTable` records, per predicate, the clause that
first made the approximation non-empty (or later grew it), together with the
step numbers of the body predicates' first facts. Chasing first facts from
any event therefore terminates, which is what lets a derivation skeleton for
FALSE be rebuilt from the table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .chc_ast import Atom, Clause, FALSE, Program, dependency_graph
from .linalg import (TRUE, ConstraintSet, LinearConstraint, ResourceLimitError,
                     is_satisfiable, project, simplify)
from .polyhedra import Polyhedron, ThresholdSet, canonical_args

__all__ = [
    "AbstractModel",
    "WitnessEvent",
    "WitnessTable",
    "instantiate",
    "consequence",
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


def instantiate(clause: Clause,
                body_facts: Sequence[Optional[ConstraintSet]],
                head_fact: Optional[ConstraintSet] = None
                ) -> Optional[ConstraintSet]:
    """The clause's constraint with each fact placed on its atom's arguments.

    Facts are over canonical argument names, one per body atom in body
    order, with `None` for bottom; `head_fact`, when given, is placed on the
    head's arguments. Returns None when a body fact is bottom or the
    conjunction is unsatisfiable.
    """
    rows = list(clause.constraint)
    placed = list(zip(clause.body, body_facts))
    if head_fact is not None:
        placed.append((clause.head_atom, head_fact))
    for atom, fact in placed:
        if fact is None:
            return None
        # Atom arguments are distinct, so the renaming is injective: every
        # renamed row stays canonical, and `make` sorts the rows once.
        onto = dict(zip(canonical_args(atom.arity), atom.args))
        rows.extend(c.rename(onto) for c in fact)
    cs = ConstraintSet.make(rows)
    return cs if is_satisfiable(cs) else None


def consequence(clause: Clause,
                body_facts: Sequence[Optional[ConstraintSet]]
                ) -> Optional[ConstraintSet]:
    """What the clause derives for its head under `body_facts`, over
    canonical names; None when it derives nothing."""
    cs = instantiate(clause, body_facts)
    if cs is None:
        return None
    head = clause.head_atom
    return project(cs, head.args).rename(
        dict(zip(head.args, canonical_args(head.arity))))


def _contribution(clause: Clause, model: AbstractModel) -> Polyhedron:
    """Abstract consequence of one clause under `model`, in canonical space."""
    got = consequence(clause, [model.value(b.pred, b.arity).constraints
                               for b in clause.body])
    space = canonical_args(clause.head_atom.arity)
    return Polyhedron.bottom(space) if got is None else Polyhedron.of(space, got)


def compute_thresholds(program: Program) -> ThresholdSet:
    """Candidate widening bounds read off the clause constraints.

    For every clause, the bounds its own constraint implies on its head's
    arguments: the atoms of its simplified consequence with every body atom
    at top. Atoms are kept per head predicate, without duplicates, in clause
    order. Only widening reads them, so here the clauses are only grouped by
    head predicate; a predicate's bounds are mined the first time they are
    asked for (see `_MinedBounds`), and kept.
    """
    by_pred: Dict[str, List[Clause]] = {}
    for cl in program.clauses:
        by_pred.setdefault(cl.head_atom.pred, []).append(cl)
    return ThresholdSet(_MinedBounds(by_pred))


def _head_bounds(clauses: Sequence[Clause]) -> Tuple[LinearConstraint, ...]:
    """The bounds that the clauses' own constraints imply on their heads."""
    seen: List[LinearConstraint] = []
    for cl in clauses:
        got = consequence(cl, [TRUE] * len(cl.body))
        if got is None:
            continue
        for c in simplify(got):
            if c not in seen:
                seen.append(c)
    return tuple(seen)


class _MinedBounds(Mapping[str, Tuple[LinearConstraint, ...]]):
    """Head predicate -> `_head_bounds` of its clauses, each computed on
    first lookup and memoised."""

    def __init__(self, by_pred: Dict[str, List[Clause]]) -> None:
        self._clauses = by_pred
        self._bounds: Dict[str, Tuple[LinearConstraint, ...]] = {}

    def __getitem__(self, pred: str) -> Tuple[LinearConstraint, ...]:
        got = self._bounds.get(pred)
        if got is None:
            got = self._bounds[pred] = _head_bounds(self._clauses[pred])
        return got

    def __iter__(self):
        return iter(self._clauses)

    def __len__(self) -> int:
        return len(self._clauses)


# Rounds of a cyclic component before its predicates are widened.
WIDEN_DELAY = 2
# Hard backstop on the rounds of one component (see `analyze`).
MAX_ITERATIONS = 1000


def analyze(program: Program, thresholds: Optional[ThresholdSet] = None
            ) -> Tuple[AbstractModel, WitnessTable]:
    """Over-approximate the least model; record how facts first grew.

    Raises ResourceLimitError if an SCC fails to stabilise within
    `MAX_ITERATIONS` rounds (cannot happen with widening enabled unless the
    delay or thresholds are made pathological; kept as a hard backstop), or
    if a projection exceeds `fm_limit`, mining the thresholds of a predicate
    that is widened included.
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

    # Semi-naive: per clause, the body versions it was last evaluated under.
    version: Dict[str, int] = dict.fromkeys(values, 0)
    evaluated: Dict[Clause, Tuple[int, ...]] = {}

    for scc in graph.sccs_reverse_topological():
        cyclic = graph.is_cyclic_scc(scc)
        iteration = 0
        while True:
            iteration += 1
            if iteration > MAX_ITERATIONS:
                raise ResourceLimitError(
                    f"analysis of component {scc} exceeded "
                    f"{MAX_ITERATIONS} iterations")
            snapshot = AbstractModel(dict(values))
            snapshot_version = dict(version)
            for pred in scc:
                old = values[pred]
                joined = Polyhedron.bottom(old.space)
                grower: Optional[Clause] = None
                for cl in by_pred.get(pred, ()):
                    stamp = tuple(snapshot_version[b.pred] for b in cl.body)
                    if evaluated.get(cl) == stamp:
                        continue
                    evaluated[cl] = stamp
                    contrib = _contribution(cl, snapshot)
                    if contrib.leq(old):
                        continue
                    if grower is None:
                        grower = cl
                    joined = joined.hull(contrib)
                if grower is None:
                    continue
                # The hull contains the grower's contribution, and widening
                # contains its second operand, so `new` is strictly above old.
                new = old.hull(joined)
                if cyclic and iteration > WIDEN_DELAY:
                    new = old.widen_upto(new, thresholds.for_pred(pred))
                values[pred] = new
                version[pred] += 1
                children = [(b.pred, first_steps[b.pred]) for b in grower.body]
                ev = witness.record(pred, grower, children)
                first_steps.setdefault(pred, ev.step)
            if version == snapshot_version:
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
