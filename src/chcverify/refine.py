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
predicate" version when no cell is forced.  Each emitted clause conjoins
the cells chosen for its head and body, so the specialised program carries
the split facts in its constraints.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Set, Tuple

from .analysis import AbstractModel, instantiate
from .cex import TreeInterpolant
from .chc_ast import FALSE, Atom, Clause, Program
from .linalg import (
    ConstraintSet,
    ResourceLimitError,
    entails,
    simplify,
)
from .polyhedra import Polyhedron, canonical_args


@dataclass(frozen=True)
class SplitModel:
    """Ordered cells per predicate, each a polyhedron over canonical args."""

    parts: Mapping[str, Tuple[Polyhedron, ...]]

    def whole(self, pred: str) -> Polyhedron:
        cells = self.parts[pred]
        out = cells[0]
        for cell in cells[1:]:
            out = out.hull(cell)
        return out


def split_facts(program: Program, model: AbstractModel,
                interpolant: Optional[TreeInterpolant]) -> SplitModel:
    """Split every predicate's fact along its pooled interpolant.

    Predicates without an interpolant, and unreachable ones, keep a single
    cell.  For interpolant atoms i1..in the cells are

        fact & i1 & ... & in,
        fact & i1 & ... & i(k-1) & not(ik)    for each k,

    with every negation disjunct relaxed to its closure; empty cells are
    dropped.  Any point of the fact lands in the cell of the first atom it
    violates (or the first cell), so the cells cover the fact exactly.
    """
    pooled = interpolant.by_predicate() if interpolant is not None else {}
    parts: Dict[str, Tuple[Polyhedron, ...]] = {}
    for pred, arity in program.predicates.items():
        if pred == FALSE.pred:
            continue
        fact = model.value(pred, arity)
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
        parts[pred] = kept if kept else (fact,)
    return SplitModel(parts)


@dataclass(frozen=True)
class VersionMap:
    """Versioned predicate name -> (source predicate, 1-based cell index).

    The index one past the last cell denotes the undivided predicate.
    """

    origin: Mapping[str, Tuple[str, int]]

    def source_pred(self, pred: str) -> str:
        return self.origin[pred][0] if pred in self.origin else pred


def _version_names(program: Program, split: SplitModel) -> Dict[Tuple[str, int], str]:
    taken = set(program.predicates)
    names: Dict[Tuple[str, int], str] = {}
    for pred in sorted(split.parts):
        for k in range(len(split.parts[pred]) + 1):
            sep = "_"
            while f"{pred}{sep}{k + 1}" in taken:
                sep += "_"
            name = f"{pred}{sep}{k + 1}"
            taken.add(name)
            names[(pred, k)] = name
    return names


# Versions one source clause may be specialised into before the run gives up.
MAX_CLAUSES_PER_SOURCE = 512


def polyvariant_specialise(program: Program, split: SplitModel
                           ) -> Tuple[Program, VersionMap]:
    """Split predicates into reachable versions, one per demanded cell."""
    names = _version_names(program, split)
    wholes = {pred: split.whole(pred) for pred in split.parts}

    def cell_of(pred: str, k: int) -> Polyhedron:
        cells = split.parts[pred]
        return cells[k] if k < len(cells) else wholes[pred]

    def renamed(poly: Polyhedron, args: Tuple[str, ...]) -> ConstraintSet:
        return poly.constraints.rename(dict(zip(poly.space, args)))

    def dispatch(known: ConstraintSet, atom: Atom) -> int:
        cells = split.parts[atom.pred]
        for k, cell in enumerate(cells):
            if cell.is_bottom:
                continue
            if all(entails(known, c) for c in renamed(cell, atom.args)):
                return k
        return len(cells)

    emitted: List[Tuple[Tuple[int, ...], Clause]] = []
    emit_counts: Dict[str, int] = {}
    source_index = {cl.id: i for i, cl in enumerate(program.clauses)}
    defined: Set[Tuple[str, int]] = set()
    work: deque = deque()

    def specialise_clause(cl: Clause, head_version: Optional[int]) -> None:
        head_cell = (None if head_version is None else
                     cell_of(cl.head_atom.pred, head_version).constraints)
        known = instantiate(cl, [wholes[b.pred].constraints for b in cl.body],
                            head_cell)
        if known is None:
            return
        choices = tuple(dispatch(known, b) for b in cl.body)
        body = tuple(Atom(names[(b.pred, k)], b.args)
                     for b, k in zip(cl.body, choices))
        kept = list(cl.constraint)
        if head_version is not None:
            kept.extend(renamed(cell_of(cl.head_atom.pred, head_version),
                                cl.head_atom.args))
        for b, k in zip(cl.body, choices):
            kept.extend(renamed(cell_of(b.pred, k), b.args))
        suffix = [k + 1 for k in choices]
        if head_version is not None:
            suffix.insert(0, head_version + 1)
            head: Atom = Atom(names[(cl.head_atom.pred, head_version)],
                              cl.head_atom.args)
        else:
            head = FALSE
        new_id = cl.id + "".join(f"_{n}" for n in suffix)
        emit_counts[cl.id] = emit_counts.get(cl.id, 0) + 1
        if emit_counts[cl.id] > MAX_CLAUSES_PER_SOURCE:
            raise ResourceLimitError(
                f"clause {cl.id} specialised into more than "
                f"{MAX_CLAUSES_PER_SOURCE} versions")
        key = (source_index[cl.id],) + tuple(suffix)
        emitted.append((key, Clause(new_id, head,
                                    simplify(ConstraintSet.make(kept)), body)))
        for b, k in zip(cl.body, choices):
            if (b.pred, k) not in defined:
                defined.add((b.pred, k))
                work.append((b.pred, k))

    for cl in program.clauses:
        if cl.is_false_head():
            specialise_clause(cl, None)
    while work:
        pred, k = work.popleft()
        for cl in program.clauses_for(pred):
            specialise_clause(cl, k)

    emitted.sort(key=lambda pair: pair[0])
    used = {(p, k) for (p, k) in names if (p, k) in defined}
    origin = {names[(p, k)]: (p, k + 1) for p, k in sorted(used)}
    return Program(tuple(cl for _, cl in emitted)), VersionMap(origin)
