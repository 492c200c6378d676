"""Convex polyhedral analysis of CHC programs.

`analyze` computes, for every predicate, one
polyhedron over its canonical argument names that over-approximates the
predicate's least model, by chaotic iteration over the strongly connected
components of the dependency graph in reverse topological order, which it
takes from `chc_ast.components`. Cyclic components are iterated to stability
with threshold widening after a short delay; acyclic ones stabilise in one
productive pass. The iteration is semi-naive: every predicate carries a
version that goes up whenever its value is replaced, and a clause is
re-evaluated only when its body predicates' versions differ from those it was
last evaluated under. A contribution is a pure function of the body values,
and a predicate's value only grows, so a skipped clause adds nothing. An
update starts from the predicate's value and folds in each evaluated
contribution: one below the value is skipped, one above it replaces it, and
any other is hulled in, so each direction of inclusion is asked once per
contribution and no hull has an operand that includes the other. A
contribution is the clause's projection onto its head, not simplified:
inclusion and the hull depend only on its points, so it is simplified only
when it replaces the value, and every value, widening operand and model
holds simplified rows. The widening thresholds are the head bounds that
each clause's own constraint implies. `analyze` mines a predicate's bounds
from its clauses (`compute_thresholds`) the first time it widens that
predicate, and keeps them for the rest of the call; a predicate that no
cyclic component widens is never mined.

`place` is the one place where canonical facts are put on a clause's atoms
and conjoined with its constraint. `instantiate` also checks the conjunction
for satisfiability. The specialisers emit what they placed, simplified:
`specialise.strengthen` the clause with its head's answer placed, once
`instantiate` found it satisfiable with the body answers too, and
`refine.polyvariant_specialise` the clause with its head cell and body
facts placed, as `instantiate` returned it. A contribution projects the
unchecked conjunction onto the head instead: projection keeps emptiness,
so the cached tableau of that small set (`is_satisfiable`) is the one
decision, and `consequence` is that projection simplified.

While iterating, `analyze` keeps, per predicate, the clause that first made
its approximation non-empty. That clause contributed only because each of
its body predicates was already non-empty, so the body predicates' first
clauses were kept earlier, and chasing first clauses from any predicate
terminates: this is the derivation skeleton for FALSE that `extract_trace`
rebuilds.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from .chc_ast import Atom, Clause, FALSE, Program, components
from .linalg import (TRUE, ConstraintSet, LinearConstraint, ResourceLimitError,
                     is_satisfiable, project, renamed, simplify)
from .polyhedra import Polyhedron, canonical_args

__all__ = [
    "AbstractModel",
    "place",
    "instantiate",
    "consequence",
    "compute_thresholds",
    "analyze",
    "check_safety",
    "is_inductive_model",
    "model_to_text",
]


class AbstractModel(NamedTuple):
    """One polyhedron per predicate; absent predicates are bottom."""

    facts: Mapping[str, Polyhedron]

    def value(self, pred: str, arity: int) -> Polyhedron:
        got = self.facts.get(pred)
        if got is None:
            return Polyhedron.bottom(canonical_args(arity))
        return got


def place(clause: Clause,
          body_facts: Sequence[Optional[ConstraintSet]],
          head_fact: Optional[ConstraintSet] = None
          ) -> Optional[ConstraintSet]:
    """The clause's constraint with each fact placed on its atom's
    arguments, as `instantiate` describes, unchecked; None when a fact is
    bottom."""
    rows = list(clause.constraint)
    placed = list(zip(clause.body, body_facts))
    if head_fact is not None:
        placed.append((clause.head, head_fact))
    for atom, fact in placed:
        if fact is None:
            return None
        rows.extend(renamed(fact, canonical_args(atom.arity), atom.args))
    return ConstraintSet.make(rows)


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
    cs = place(clause, body_facts, head_fact)
    return cs if cs is not None and is_satisfiable(cs) else None


def _projected(clause: Clause,
               body_facts: Sequence[Optional[ConstraintSet]]
               ) -> Optional[ConstraintSet]:
    """The clause's placed conjunction projected onto its head, over
    canonical names and not simplified; None when it derives nothing.
    Projection keeps emptiness, so the cached tableau of the projection
    (`is_satisfiable`) is the one decision."""
    cs = place(clause, body_facts)
    if cs is None:
        return None
    head = clause.head
    got = renamed(project(cs, head.args), head.args, canonical_args(head.arity))
    return got if is_satisfiable(got) else None


def consequence(clause: Clause,
                body_facts: Sequence[Optional[ConstraintSet]]
                ) -> Optional[ConstraintSet]:
    """What the clause derives for its head under `body_facts`: the
    projection onto the head, over canonical names, simplified; None when
    it derives nothing."""
    got = _projected(clause, body_facts)
    return None if got is None else simplify(got)


def _contribution(clause: Clause, model: AbstractModel
                  ) -> Optional[ConstraintSet]:
    """What one clause derives for its head under `model`, over canonical
    names: the projection as `consequence` builds it, but not simplified,
    since inclusion and the hull read only its points; None for bottom."""
    return _projected(clause, [model.value(b.pred, b.arity).constraints
                               for b in clause.body])


def compute_thresholds(clauses: Sequence[Clause]) -> Tuple[LinearConstraint, ...]:
    """Candidate widening bounds read off the clause constraints.

    For every clause, the bounds its own constraint implies on its head's
    arguments: the atoms of its simplified consequence with every body atom
    at top. `analyze` passes one predicate's clauses, and gets that
    predicate's bounds over canonical names, without duplicates, in clause
    order.
    """
    seen: List[LinearConstraint] = []
    for cl in clauses:
        got = consequence(cl, [TRUE] * len(cl.body))
        if got is None:
            continue
        for c in got:
            if c not in seen:
                seen.append(c)
    return tuple(seen)


# Rounds of a cyclic component before its predicates are widened.
WIDEN_DELAY = 2
# Hard backstop on the rounds of one component (see `analyze`).
MAX_ITERATIONS = 1000


def analyze(program: Program) -> Tuple[AbstractModel, Dict[str, Clause]]:
    """Over-approximate the least model; keep each predicate's first clause.

    Returns the model and, for every predicate that became non-empty, the
    clause whose contribution first made it so. The components come from
    `components`, and widening is bounded by the thresholds that
    `compute_thresholds` mines from a predicate's clauses the first time
    that predicate is widened.

    Raises ResourceLimitError if an SCC fails to stabilise within
    `MAX_ITERATIONS` rounds (a hard backstop: every cyclic component is
    widened after `WIDEN_DELAY` rounds, and widening up to finitely many
    thresholds stabilises), or if a projection or a hull's double
    description exceeds `linalg.FM_LIMIT`, mining the thresholds of a
    predicate that is widened included.
    """
    thresholds: Dict[str, Tuple[LinearConstraint, ...]] = {}
    values: Dict[str, Polyhedron] = {
        p: Polyhedron.bottom(canonical_args(a))
        for p, a in program.predicates.items()}
    first: Dict[str, Clause] = {}

    # Semi-naive: per clause, the body versions it was last evaluated under.
    version: Dict[str, int] = dict.fromkeys(values, 0)
    evaluated: Dict[Clause, Tuple[int, ...]] = {}

    for scc, cyclic in components(program):
        iteration = 0
        while True:
            iteration += 1
            if iteration > MAX_ITERATIONS:
                raise ResourceLimitError(
                    f"analysis of component {list(scc)} exceeded "
                    f"{MAX_ITERATIONS} iterations")
            snapshot = AbstractModel(dict(values))
            snapshot_version = dict(version)
            for pred in scc:
                old = new = values[pred]
                grower: Optional[Clause] = None
                for cl in program.clauses_for(pred):
                    stamp = tuple(snapshot_version[b.pred] for b in cl.body)
                    if evaluated.get(cl) == stamp:
                        continue
                    evaluated[cl] = stamp
                    raw = _contribution(cl, snapshot)
                    if raw is None:
                        continue
                    contrib = Polyhedron(new.space, raw)
                    if contrib.leq(new):
                        continue
                    if grower is None:
                        grower = cl
                    # Only a contribution that takes the value's place is
                    # simplified: the hull's rows depend on its operands'
                    # points alone.
                    new = (Polyhedron(new.space, simplify(raw))
                           if new.leq(contrib) else new.hull(contrib))
                if grower is None:
                    continue
                # `new` contains the grower's contribution, and widening
                # contains its second operand, so `new` is strictly above old.
                if cyclic and iteration > WIDEN_DELAY:
                    bounds = thresholds.get(pred)
                    if bounds is None:
                        bounds = thresholds[pred] = compute_thresholds(
                            program.clauses_for(pred))
                    new = old.widen(new, bounds)
                values[pred] = new
                version[pred] += 1
                first.setdefault(pred, grower)
            if version == snapshot_version:
                break
    return AbstractModel(values), first


def check_safety(model: AbstractModel) -> bool:
    """True iff the approximation derives nothing for FALSE."""
    return model.value(FALSE.pred, 0).is_bottom


def is_inductive_model(program: Program, model: AbstractModel) -> bool:
    """True iff every clause's consequence under `model` is below its head fact.

    The re-check of a safe verdict: it asks the join's inclusion of each
    unsimplified `_contribution` again, through the kernel and the caches
    the analysis filled, so it catches a wrong model but not a wrong kernel
    answer.
    """
    for cl in program.clauses:
        raw = _contribution(cl, model)
        head = model.value(cl.head.pred, cl.head.arity)
        if raw is not None and not Polyhedron(head.space, raw).leq(head):
            return False
    return True


def model_to_text(model: AbstractModel, program: Program) -> str:
    """Non-bottom facts as numbered clauses, in head-appearance order.

    Only predicates that head a clause of `program` are printed: in a model
    of `program` from `analyze`, every other predicate is bottom.
    """
    lines = []
    n = 0
    for pred in program.by_head:
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
