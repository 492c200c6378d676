"""Bounded ground-truth derivations by exhaustive tree enumeration.

The verifier's answers can be checked against this module on small inputs:
`bounded_derive` enumerates every AND-tree of bounded height whose
instantiated constraints are satisfiable, independently of the abstract
analysis, with which it shares only the instantiation step.  It is
deliberately naive; the fan-out cap turns pathological inputs into a loud
failure instead of an endless enumeration.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Set, Tuple

from .analysis import instantiate
from .cex import TraceTerm
from .chc_ast import Atom, Clause, Program
from .linalg import ConstraintSet, project, renamed, simplify
from .polyhedra import canonical_args

FAN_OUT_LIMIT = 10_000


def bounded_derive(program: Program, goal: Atom, depth: int
                   ) -> Set[Tuple[TraceTerm, ConstraintSet]]:
    """All derivations of `goal` of height at most `depth`.

    Returns pairs of the derivation's trace and its answer constraint,
    projected onto the goal predicate's arguments and renamed to the
    canonical argument tuple.  Only satisfiable derivations are kept, so
    `goal` is derivable within `depth` steps exactly when the result is
    non-empty.  Raises RuntimeError rather than silently truncating when
    more than FAN_OUT_LIMIT trees would be produced.

    Only the instantiation of a clause under its children's answers is
    shared with the analysis (`analysis.instantiate`); the enumeration of
    trees, the projection and the canonical renaming are this function's
    own. That step is pure, so its answer is computed once per clause and
    children's answers; the trees are still enumerated one by one.
    """
    memo: Dict[Tuple[str, int], Tuple[Tuple[TraceTerm, ConstraintSet], ...]] = {}
    steps: Dict[Tuple[Clause, Tuple[ConstraintSet, ...]],
                Optional[ConstraintSet]] = {}
    produced = 0

    def step(cl: Clause, answers: Tuple[ConstraintSet, ...]
             ) -> Optional[ConstraintSet]:
        key = (cl, answers)
        if key not in steps:
            full = instantiate(cl, answers)
            head_args = cl.head.args
            steps[key] = None if full is None else renamed(
                simplify(project(full, head_args)), head_args,
                canonical_args(len(head_args)))
        return steps[key]

    def derive(pred: str, d: int) -> Tuple[Tuple[TraceTerm, ConstraintSet], ...]:
        nonlocal produced
        if d <= 0:
            return ()
        key = (pred, d)
        if key in memo:
            return memo[key]
        out: List[Tuple[TraceTerm, ConstraintSet]] = []
        for cl in program.clauses_for(pred):
            options = [derive(b.pred, d - 1) for b in cl.body]
            for combo in itertools.product(*options):
                answer = step(cl, tuple(a for _, a in combo))
                if answer is None:
                    continue
                produced += 1
                if produced > FAN_OUT_LIMIT:
                    raise RuntimeError(
                        f"more than {FAN_OUT_LIMIT} derivations of height "
                        f"<= {depth}; narrow the query")
                out.append((TraceTerm(cl.id, tuple(t for t, _ in combo)),
                            answer))
        memo[key] = tuple(out)
        return memo[key]

    return set(derive(goal.pred, depth))
