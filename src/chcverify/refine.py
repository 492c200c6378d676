"""Predicate splitting and polyvariant specialisation.

`split_facts` decomposes each predicate's abstract fact along the atomic
constraints of its pooled tree interpolant.  The first cell keeps the whole
interpolant; the remaining cells each violate one atomic constraint, with
the violation relaxed to its closure so that the cells jointly cover the
fact, boundaries included.

`polyvariant_specialise` then rebuilds the program with one predicate per
reachable cell.  Versions are created on demand, starting from the clauses
defining `false`: a body atom is dispatched to the first cell that is
entailed by everything known about the clause (its constraint, the head
cell, and the abstract fact of every body atom), and to a fresh "whole
predicate" version when no cell is forced.  Each emitted clause's
constraint is that knowledge, simplified.  It is the clause conjoined with
the cells chosen for its head and body: it entails every chosen body cell,
and every cell lies inside its fact.  So the specialised program carries
the split facts in its constraints.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence, Set, Tuple

from .analysis import AbstractModel, instantiate
from .cex import TreeInterpolant
from .chc_ast import FALSE, Atom, Clause, Program
from .linalg import (
    ConstraintSet,
    ResourceLimitError,
    entails,
    renamed,
    simplify,
)
from .polyhedra import Polyhedron, canonical_args


class SplitModel(NamedTuple):
    """Ordered cells per predicate, each a polyhedron over canonical args,
    and the fact that each predicate's cells split (which is their hull)."""

    parts: Mapping[str, Tuple[Polyhedron, ...]]
    wholes: Mapping[str, Polyhedron]


def split_facts(program: Program, model: AbstractModel,
                interpolant: Optional[TreeInterpolant]) -> SplitModel:
    """Split every predicate's fact along its pooled interpolant.

    Predicates without an interpolant, and unreachable ones, keep a single
    cell.  For interpolant atoms i1..in the cells are

        fact & i1 & ... & in,
        fact & i1 & ... & i(k-1) & not(ik)    for each k,

    with every negation disjunct relaxed to its closure; empty cells are
    dropped.  Any point of the fact lands in the cell of the first atom it
    violates (or the first cell), so the cells cover the fact exactly, and
    a non-bottom fact keeps at least one cell, as `meet` decides emptiness
    exactly (RuntimeError otherwise).
    """
    pooled = interpolant.by_predicate() if interpolant is not None else {}
    parts: Dict[str, Tuple[Polyhedron, ...]] = {}
    wholes: Dict[str, Polyhedron] = {}
    for pred, arity in program.predicates.items():
        if pred == FALSE.pred:
            continue
        fact = wholes[pred] = model.value(pred, arity)
        atoms = tuple(pooled.get(pred, ()))
        if fact.is_bottom or not atoms:
            parts[pred] = (fact,)
            continue
        space = canonical_args(arity)
        cells = [fact.meet(Polyhedron(space, ConstraintSet.make(atoms)))]
        for k, atom in enumerate(atoms):
            prefix = atoms[:k]
            for neg in atom.negations():
                cell = fact.meet(Polyhedron(
                    space, ConstraintSet.make(prefix + (neg.closure(),))))
                cells.append(cell)
        kept = tuple(c for c in cells if not c.is_bottom)
        if not kept:
            raise RuntimeError(
                f"split_facts: every cell of the non-empty fact of {pred} is empty")
        parts[pred] = kept
    return SplitModel(parts, wholes)


def _fresh_name(base: str, numbers: Sequence[int], taken: Set[str]) -> str:
    """`base` followed by "_n" for each of the `numbers`, with "__", "___",
    ... as the separator until the name is not `taken`; it is then taken."""
    sep = "_"
    while (name := base + "".join(f"{sep}{n}" for n in numbers)) in taken:
        sep += "_"
    taken.add(name)
    return name


# Versions one source clause may be specialised into before the run gives up.
MAX_CLAUSES_PER_SOURCE = 512


def polyvariant_specialise(program: Program, split: SplitModel
                           ) -> Tuple[Program, Dict[str, Tuple[str, int]]]:
    """Split predicates into reachable versions, one per demanded cell.

    A version is named when a body atom is first dispatched to it, so the
    names follow first use, not the order in which the source names sort.
    Also returns, for each version in that order, its source predicate and
    1-based cell index; the index one past the last cell denotes the
    undivided predicate.
    """
    names: Dict[Tuple[str, int], str] = {}
    taken = set(program.predicates)

    def cell_of(pred: str, k: int) -> Polyhedron:
        cells = split.parts[pred]
        return cells[k] if k < len(cells) else split.wholes[pred]

    def dispatch(known: ConstraintSet, atom: Atom) -> int:
        cells = split.parts[atom.pred]
        for k, cell in enumerate(cells):
            if all(entails(known, c) for c in
                   renamed(cell.constraints, cell.space, atom.args)):
                return k
        return len(cells)

    emitted: List[Tuple[Tuple[int, ...], Clause]] = []
    emit_counts: Dict[str, int] = {}
    # A clause id is its source's with a "_n" per version it uses; only a
    # body-less false clause, specialised once, keeps its source's id.
    ids = {cl.id for cl in program.clauses_for(FALSE.pred) if not cl.body}
    source_index = {cl.id: i for i, cl in enumerate(program.clauses)}
    work: deque = deque()

    def specialise_clause(cl: Clause, head_version: Optional[int]) -> None:
        head_cell = (None if head_version is None else
                     cell_of(cl.head.pred, head_version).constraints)
        known = instantiate(
            cl, [split.wholes[b.pred].constraints for b in cl.body], head_cell)
        if known is None:
            return
        choices = tuple(dispatch(known, b) for b in cl.body)
        for b, k in zip(cl.body, choices):
            if (b.pred, k) not in names:
                names[(b.pred, k)] = _fresh_name(b.pred, (k + 1,), taken)
                work.append((b.pred, k))
        body = tuple(Atom(names[(b.pred, k)], b.args)
                     for b, k in zip(cl.body, choices))
        suffix = [k + 1 for k in choices]
        if head_version is not None:
            suffix.insert(0, head_version + 1)
            head: Atom = Atom(names[(cl.head.pred, head_version)],
                              cl.head.args)
        else:
            head = FALSE
        new_id = _fresh_name(cl.id, suffix, ids) if suffix else cl.id
        emit_counts[cl.id] = emit_counts.get(cl.id, 0) + 1
        if emit_counts[cl.id] > MAX_CLAUSES_PER_SOURCE:
            raise ResourceLimitError(
                f"clause {cl.id} specialised into more than "
                f"{MAX_CLAUSES_PER_SOURCE} versions")
        key = (source_index[cl.id],) + tuple(suffix)
        emitted.append((key, Clause(new_id, head, simplify(known), body)))

    for cl in program.clauses_for(FALSE.pred):
        specialise_clause(cl, None)
    while work:
        pred, k = work.popleft()
        for cl in program.clauses_for(pred):
            specialise_clause(cl, k)

    emitted.sort(key=lambda pair: pair[0])
    origin = {name: (p, k + 1) for (p, k), name in names.items()}
    return Program(tuple(cl for _, cl in emitted)), origin
