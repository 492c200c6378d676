"""Query-answer transformation.

Rewrites a program so that a bottom-up analysis of the result simulates a
goal-directed, left-to-right computation of the original: each predicate p
gets a query version p__q (p is called) and an answer version p__a (p is
called and succeeds). A clause H :- C, B1, ..., Bn yields one answer clause

    H__a :- C, H__q, B1__a, ..., Bn__a

and, per body position i, a query clause

    Bi__q :- C, H__q, B1__a, ..., B(i-1)__a

the goal seeds the computation with goal__q :- true.
"""

from __future__ import annotations

from typing import List

from .chc_ast import ANSWER_SUFFIX, QUERY_SUFFIX, Atom, Clause, Program
from .linalg import ConstraintSet

__all__ = ["QUERY_SUFFIX", "ANSWER_SUFFIX", "query_pred", "answer_pred",
           "qa_transform"]


def query_pred(pred: str) -> str:
    return pred + QUERY_SUFFIX


def answer_pred(pred: str) -> str:
    return pred + ANSWER_SUFFIX


def qa_transform(program: Program, goal: Atom) -> Program:
    """The query-answer version of `program` with respect to `goal`.

    Output size is 1 + sum over clauses of (1 + body length). Raises
    ValueError if the goal predicate is absent or if a mangled name collides
    with an existing predicate (cannot happen for parsed programs, which
    reject the suffixes).
    """
    preds = program.predicates
    if goal.pred not in preds:
        raise ValueError(f"goal predicate {goal.pred!r} does not occur")
    for p in preds:
        for mangled in (query_pred(p), answer_pred(p)):
            if mangled in preds:
                raise ValueError(
                    f"predicate {mangled!r} collides with a query/answer name")

    def q(atom: Atom) -> Atom:
        return Atom(query_pred(atom.pred), atom.args)

    def a(atom: Atom) -> Atom:
        return Atom(answer_pred(atom.pred), atom.args)

    out: List[Clause] = [
        Clause("goal", q(goal), ConstraintSet.make(()), ())]
    for cl in program.clauses:
        head = cl.head
        answers = tuple(a(b) for b in cl.body)
        out.append(Clause(f"{cl.id}_ans", a(head), cl.constraint,
                          (q(head),) + answers))
        for i in range(len(cl.body)):
            out.append(Clause(f"{cl.id}_q{i + 1}", q(cl.body[i]),
                              cl.constraint, (q(head),) + answers[:i]))
    return Program(tuple(out))
