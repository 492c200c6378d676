"""Counterexample traces, their AND-trees, and tree interpolation.

A trace is a term over clause identifiers describing which clause was used
at each node of a candidate derivation of `false`.  Expanding a trace into
an AND-tree instantiates each clause with fresh variables, identifying the
head arguments of a child clause with the corresponding body atom arguments
of its parent.  The conjunction of the instantiated constraints is then
satisfiable exactly when the trace corresponds to a real derivation.

For infeasible traces, `tree_interpolants` labels every non-root node with
a constraint over that node's interface variables that overapproximates the
subtree below it while remaining inconsistent with the rest of the tree.
All labels come from one Farkas refutation of the whole tree: a node's
label is the weighted sum of the rows in its subtree.
"""

from __future__ import annotations

from typing import Container, Dict, Iterable, List, Mapping, NamedTuple, Optional, Tuple

from .chc_ast import Atom, Clause, FreshNames, Program, Var
from .linalg import (
    FALSE_CONSTRAINT,
    ConstraintSet,
    FarkasCertificate,
    LinearConstraint,
    farkas_refutation,
    is_satisfiable,
)
from .polyhedra import canonical_args


class TraceTerm(NamedTuple):
    """A clause identifier applied to the traces of its body atoms."""

    clause_id: str
    children: Tuple["TraceTerm", ...] = ()

    def __str__(self) -> str:
        if not self.children:
            return self.clause_id
        return f"{self.clause_id}({','.join(str(c) for c in self.children)})"

    def size(self) -> int:
        return 1 + sum(c.size() for c in self.children)


def extract_trace(first: Mapping[str, Clause], pred: str = "false"
                  ) -> TraceTerm:
    """The first derivation of `pred` that `analyze` found, as a trace term.

    `first` maps each predicate to the clause that first made it non-empty
    (the second result of `analyze`). Each body atom is expanded with its
    own predicate's first clause. That clause was kept before the one
    whose body names it, so the recursion terminates.
    """
    if pred not in first:
        raise ValueError(f"no derivation of {pred} was recorded")

    def expand(cl: Clause) -> TraceTerm:
        return TraceTerm(cl.id, tuple(expand(first[b.pred]) for b in cl.body))

    return expand(first[pred])


class AndNode(NamedTuple):
    """One node of an instantiated derivation tree.

    `atom` is the instance being derived (the parent's body atom, or the
    renamed clause head at the root) and `clause` is the defining clause
    with all variables renamed apart, its head identified with `atom`.
    """

    atom: Atom
    clause: Clause
    children: Tuple["AndNode", ...]


def build_and_tree(program: Program, trace: TraceTerm) -> AndNode:
    """Instantiate `trace` over `program` with pairwise fresh variables."""
    fresh = FreshNames(prefix="T")

    def build(term: TraceTerm, target: Optional[Atom]) -> AndNode:
        cl = program.clause(term.clause_id)
        if len(term.children) != len(cl.body):
            raise ValueError(
                f"trace gives {len(term.children)} subtrees for clause "
                f"{cl.id} with {len(cl.body)} body atoms")
        mapping = {v: fresh.fresh() for v in sorted(cl.variables())}
        if target is not None:
            if cl.head.pred != target.pred:
                raise ValueError(
                    f"clause {cl.id} does not define {target.pred}")
            for formal, actual in zip(cl.head.args, target.args):
                mapping[formal] = actual
        renamed = cl.rename(mapping)
        atom = target if target is not None else renamed.head
        children = tuple(
            build(sub, renamed.body[i])
            for i, sub in enumerate(term.children))
        return AndNode(atom, renamed, children)

    return build(trace, None)


def tree_constraints(node: AndNode) -> ConstraintSet:
    """Conjunction of every instantiated clause constraint in the tree."""
    rows: List[LinearConstraint] = []

    def walk(n: AndNode) -> None:
        rows.extend(n.clause.constraint)
        for c in n.children:
            walk(c)

    walk(node)
    return ConstraintSet.make(rows)


def feasible(node: AndNode) -> bool:
    return is_satisfiable(tree_constraints(node))


def interpolate(cert: FarkasCertificate, subtree: Container[int],
                shared: Iterable[Var]) -> LinearConstraint:
    """The interpolant that `cert` gives for its parts in `subtree` against
    the other parts: their weighted sum, FALSE_CONSTRAINT when that is a
    false constant (a true constant is the label `true`).

    The subtree's parts imply the sum, as the weights are non-negative, and
    the sum contradicts the other parts, whose sum adds up with it to the
    certificate's false constant. A variable that no other part mentions
    cancels in the whole sum, so it cancels here: the sum mentions only
    variables the two sides share (RuntimeError otherwise).
    """
    itp = cert.sum_of(subtree)
    if itp.is_trivially_false():
        return FALSE_CONSTRAINT
    allowed = frozenset(shared)
    if not itp.variables() <= allowed:
        raise RuntimeError(
            f"interpolant {itp} mentions non-shared variables "
            f"{sorted(itp.variables() - allowed)}")
    return itp


class TreeInterpolant(NamedTuple):
    """Interpolants for the non-root nodes of an infeasible AND-tree.

    `facts` pairs each node's atom with its interpolant, in the order the
    nodes were solved (children before parents).
    """

    facts: Tuple[Tuple[Atom, ConstraintSet], ...]

    def by_predicate(self) -> Dict[str, ConstraintSet]:
        """Per-predicate conjunction of all facts, over canonical arguments."""
        pooled: Dict[str, List[LinearConstraint]] = {}
        for atom, cs in self.facts:
            onto = dict(zip(atom.args, canonical_args(len(atom.args))))
            pooled.setdefault(atom.pred, []).extend(cs.rename(onto))
        return {p: ConstraintSet.make(rows) for p, rows in pooled.items()}


def tree_interpolants(tree: AndNode) -> TreeInterpolant:
    """Label every non-root node of an infeasible tree with an interpolant.

    One refutation of the whole tree gives every label: its parts are the
    nodes' clause constraints in post-order, and a node's label is the
    weighted sum of the parts in its subtree (`interpolate`). So a node's
    label is its own rows' sum plus its children's labels, follows from
    the subtree below the node and contradicts everything outside it, and
    its variables are the node's atom arguments, the only variables the
    two sides share. ValueError when the tree is feasible.
    """
    order: List[AndNode] = []
    subtrees: List[range] = []

    def walk(n: AndNode) -> None:
        start = len(order)
        for c in n.children:
            walk(c)
        order.append(n)
        subtrees.append(range(start, len(order)))

    walk(tree)
    cert = farkas_refutation(*(n.clause.constraint for n in order))
    return TreeInterpolant(tuple(
        (n.atom, ConstraintSet.make([interpolate(cert, sub, n.atom.args)]))
        for n, sub in zip(order[:-1], subtrees[:-1])))
