"""Constraint-propagation specialisation.

Given the polyhedral model of a program's query-answer version, every clause
is strengthened with the answer approximation of its head predicate: what the
head can actually return in any computation from the goal. Clauses whose
strengthened bodies are unsatisfiable, even just together with their body
atoms' answer approximations, can never fire and are removed.
"""

from __future__ import annotations

from typing import List

from .analysis import AbstractModel, instantiate
from .chc_ast import Clause, Program
from .linalg import simplify
from .qa import answer_pred

__all__ = ["strengthen", "early_safe"]


def strengthen(program: Program, qa_model: AbstractModel) -> Program:
    """Conjoin each head's answer constraint; delete clauses that cannot fire.

    Only the head's answer constraint is inserted into the clause; the body
    atoms' answer constraints participate in the deletion test only. Clause
    ids are preserved. A predicate with a bottom answer approximation is
    never derivable in a computation from the goal, so its clauses (and, for
    a bottom FALSE answer, all integrity clauses) are deleted.
    """
    out: List[Clause] = []
    for cl in program.clauses:
        head = cl.head_atom
        head_answer = qa_model.value(answer_pred(head.pred), head.arity)
        if head_answer.is_bottom:
            continue
        new_constraint = cl.constraint
        if not head_answer.is_top:
            new_constraint = new_constraint & head_answer.constraints.rename(
                dict(zip(head_answer.space, head.args)))
        body_answers = [qa_model.value(answer_pred(b.pred), b.arity).constraints
                        for b in cl.body]
        if instantiate(cl, body_answers, head_answer.constraints) is None:
            continue
        out.append(Clause(cl.id, cl.head, simplify(new_constraint), cl.body))
    return Program(tuple(out))


def early_safe(program: Program) -> bool:
    """True iff no integrity clause remains, which proves safety outright."""
    return not any(cl.is_false_head() for cl in program.clauses)
