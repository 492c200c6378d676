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

Every walk over a trace or a tree is a loop over an explicit stack, not a
recursion: a derivation may be deeper than Python's recursion limit.
"""

from __future__ import annotations

from typing import (Dict, Iterable, List, Mapping, NamedTuple, Optional, Tuple,
                    Union)

from .chc_ast import Atom, Clause, FreshNames, Program, Var
from .linalg import (
    FALSE_CONSTRAINT,
    LE,
    LT,
    ConstraintSet,
    LinearConstraint,
    Rat,
    farkas_refutation,
    is_satisfiable,
    renamed,
)
from .polyhedra import canonical_args


class TraceTerm(NamedTuple):
    """A clause identifier applied to the traces of its body atoms."""

    clause_id: str
    children: Tuple["TraceTerm", ...] = ()

    def __str__(self) -> str:
        out: List[str] = []
        todo: List[Union["TraceTerm", str]] = [self]
        while todo:
            item = todo.pop()
            if isinstance(item, str):
                out.append(item)
                continue
            out.append(item.clause_id)
            if item.children:
                out.append("(")
                todo.append(")")
                for k, child in enumerate(reversed(item.children)):
                    if k:
                        todo.append(",")
                    todo.append(child)
        return "".join(out)

    def size(self) -> int:
        n = 0
        todo = [self]
        while todo:
            n += 1
            todo.extend(todo.pop().children)
        return n


def extract_trace(first: Mapping[str, Clause], pred: str = "false"
                  ) -> TraceTerm:
    """The first derivation of `pred` that `analyze` found, as a trace term.

    `first` maps each predicate to the clause that first made it non-empty
    (the second result of `analyze`). Each body atom is expanded with its
    own predicate's first clause. That clause was kept before the one
    whose body names it, so the expansion terminates; a predicate's term is
    built once and shared wherever the predicate occurs.
    """
    if pred not in first:
        raise ValueError(f"no derivation of {pred} was recorded")
    terms: Dict[str, TraceTerm] = {}
    entered = set()
    todo = [pred]
    while todo:
        p = todo[-1]
        if p in terms:
            todo.pop()
            continue
        body = first[p].body
        missing = [b.pred for b in body if b.pred not in terms]
        if missing:
            if p in entered:
                raise ValueError(f"the first clauses through {p} form a cycle")
            entered.add(p)
            todo.extend(missing)
            continue
        terms[p] = TraceTerm(first[p].id, tuple(terms[b.pred] for b in body))
        todo.pop()
    return terms[pred]


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
    """Instantiate `trace` over `program` with pairwise fresh variables.

    Nodes are renamed in pre-order, then built bottom-up.
    """
    fresh = FreshNames(prefix="T")
    # (atom, renamed clause, child count) per node, in pre-order
    nodes: List[Tuple[Atom, Clause, int]] = []
    todo: List[Tuple[TraceTerm, Optional[Atom]]] = [(trace, None)]
    while todo:
        term, target = todo.pop()
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
        nodes.append((target if target is not None else renamed.head,
                      renamed, len(term.children)))
        todo.extend(zip(reversed(term.children), reversed(renamed.body)))
    # In reverse pre-order a node's children are the last n subtrees built,
    # its first child on top.
    built: List[AndNode] = []
    for atom, renamed, n in reversed(nodes):
        children = tuple(built.pop() for _ in range(n))
        built.append(AndNode(atom, renamed, children))
    return built[0]


def tree_constraints(node: AndNode) -> ConstraintSet:
    """Conjunction of every instantiated clause constraint in the tree."""
    rows: List[LinearConstraint] = []
    todo = [node]
    while todo:
        n = todo.pop()
        rows.extend(n.clause.constraint)
        todo.extend(reversed(n.children))
    return ConstraintSet.make(rows)


def feasible(node: AndNode) -> bool:
    return is_satisfiable(tree_constraints(node))


def interpolate(itp: LinearConstraint, shared: Iterable[Var]) -> LinearConstraint:
    """The interpolant that `itp`, the weighted sum of one side's rows of a
    refutation (`farkas_refutation`), gives against the other side:
    `itp` itself, or FALSE_CONSTRAINT when it is a false constant (a true
    constant is the label `true`).

    That side implies the sum, as the weights are non-negative, and the sum
    contradicts the other side, whose sum adds up with it to the
    certificate's false constant. A variable that the other side does not
    mention cancels in the whole sum, so it cancels here: the sum mentions
    only variables the two sides share (RuntimeError otherwise).
    """
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
            pooled.setdefault(atom.pred, []).extend(
                renamed(cs, atom.args, canonical_args(len(atom.args))))
        return {p: ConstraintSet.make(rows) for p, rows in pooled.items()}


def tree_interpolants(tree: AndNode) -> TreeInterpolant:
    """Label every non-root node of an infeasible tree with an interpolant.

    One refutation of the whole tree gives every label: its parts are the
    nodes' clause constraints in post-order, and a node's label is the
    weighted sum of the parts in its subtree (`interpolate`). So a node's
    label follows from the subtree below the node and contradicts
    everything outside it, and its variables are the node's atom
    arguments, the only variables the two sides share. The sums are built
    in post-order, each from the node's own rows and its children's sums,
    kept unnormalised until `LinearConstraint.make`: every label is
    exactly the weighted sum of its subtree's rows, and an n-level chain
    adds O(n) rows where summing each subtree afresh would add O(n^2).
    ValueError when the tree is feasible.
    """
    order: List[AndNode] = []
    todo: List[Tuple[AndNode, bool]] = [(tree, False)]
    while todo:  # post-order: a node is left after its children
        n, left = todo.pop()
        if left:
            order.append(n)
        else:
            todo.append((n, True))
            todo.extend((c, False) for c in reversed(n.children))
    cert = farkas_refutation(*(n.clause.constraint for n in order))
    # Per node, unnormalised: the coefficients, bound and strictness of the
    # weighted sum of its own rows, then of its subtree's.
    coeffs: List[Dict[Var, Rat]] = [{} for _ in order]
    bound = [Rat(0)] * len(order)
    strict = [False] * len(order)
    for row, part, lam in zip(cert.constraints, cert.parts, cert.multipliers):
        if lam:
            acc = coeffs[part]
            for v, c in row.coeffs:
                acc[v] = acc.get(v, 0) + lam * c
            bound[part] += lam * row.bound
            strict[part] = strict[part] or row.rel == LT
    facts = []
    pending: List[int] = []  # nodes whose parent is not left yet
    for i, n in enumerate(order):
        acc = coeffs[i]
        if n.children:
            for j in pending[-len(n.children):]:
                for v, c in coeffs[j].items():
                    acc[v] = acc.get(v, 0) + c
                bound[i] += bound[j]
                strict[i] = strict[i] or strict[j]
            del pending[-len(n.children):]
        pending.append(i)
        # Cancelled variables go, so a parent never adds its subtree's.
        coeffs[i] = {v: c for v, c in acc.items() if c}
        if n is not tree:
            itp = LinearConstraint.make(coeffs[i], LT if strict[i] else LE, bound[i])
            facts.append((n.atom, ConstraintSet.make([interpolate(itp, n.atom.args)])))
    return TreeInterpolant(tuple(facts))
