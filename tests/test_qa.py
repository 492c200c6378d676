"""Query-answer transform: clause shapes, naming, goal seeding."""

import pytest

from conftest import T4
from chcverify.chc_ast import FALSE, Atom, parse_program, program_text
from chcverify.qa import qa_transform


def test_t4_transform_is_reproduced_exactly():
    qa = qa_transform(parse_program(T4), FALSE)
    assert program_text(qa) == """\
goal. false__q.
c1_ans. false__a :- 1*A = 0, 1*B = 0, 1*I = 0, -1*N < 0, false__q, l__a(I,A,B,N).
c1_q1. l__q(I,A,B,N) :- 1*A = 0, 1*B = 0, 1*I = 0, -1*N < 0, false__q.
c2_ans. l__a(I,A,B,N) :- 1*I+ -1*I1 = -1, 1*I+ -1*N < 0, l__q(I,A,B,N), l_body__a(A,B,A1,B1), l__a(I1,A1,B1,N).
c2_q1. l_body__q(A,B,A1,B1) :- 1*I+ -1*I1 = -1, 1*I+ -1*N < 0, l__q(I,A,B,N).
c2_q2. l__q(I1,A1,B1,N) :- 1*I+ -1*I1 = -1, 1*I+ -1*N < 0, l__q(I,A,B,N), l_body__a(A,B,A1,B1).
c3_ans. l__a(I,A,B,N) :- -1*A+ -1*B+ 3*N < 0, -1*I+ 1*N =< 0, l__q(I,A,B,N).
c4_ans. l__a(I,A,B,N) :- 1*A+ 1*B+ -3*N < 0, -1*I+ 1*N =< 0, l__q(I,A,B,N).
c5_ans. l_body__a(A0,B0,A1,B1) :- 1*A0+ -1*A1 = -1, 1*B0+ -1*B1 = -2, l_body__q(A0,B0,A1,B1).
c6_ans. l_body__a(A0,B0,A1,B1) :- 1*A0+ -1*A1 = -2, 1*B0+ -1*B1 = -1, l_body__q(A0,B0,A1,B1).
"""


def test_goal_clause_comes_first_and_is_a_fact():
    qa = qa_transform(parse_program(T4), FALSE)
    goal = qa.clauses[0]
    assert goal.id == "goal"
    assert goal.head.pred == "false__q"
    assert goal.body == () and len(goal.constraint) == 0


def test_clause_count_is_one_answer_plus_one_query_per_atom():
    prog = parse_program(T4)
    qa = qa_transform(prog, FALSE)
    expected = 1 + sum(1 + len(cl.body) for cl in prog.clauses)
    assert len(qa.clauses) == expected


def test_answer_clause_keeps_body_order_behind_the_head_query():
    qa = qa_transform(parse_program(T4), FALSE)
    ans = qa.clause("c2_ans")
    assert [a.pred for a in ans.body] == ["l__q", "l_body__a", "l__a"]
    # the head query uses the head's own argument tuple
    assert ans.body[0].args == ans.head.args


def test_query_clause_for_atom_k_sees_answers_of_atoms_before_it():
    qa = qa_transform(parse_program(T4), FALSE)
    q1 = qa.clause("c2_q1")
    assert q1.head.pred == "l_body__q"
    assert [a.pred for a in q1.body] == ["l__q"]
    q2 = qa.clause("c2_q2")
    assert q2.head.pred == "l__q"
    assert [a.pred for a in q2.body] == ["l__q", "l_body__a"]


def test_queries_start_from_the_requested_predicate():
    prog = parse_program("p(X) :- 1*X = 0.\nq(X) :- p(X).\nfalse :- q(X).")
    qa = qa_transform(prog, Atom("q", ("X",)))
    assert qa.clauses[0].head.pred == "q__q"
    # only the goal is seeded: every other query variant needs a derivation
    seeds = [cl for cl in qa.clauses if not cl.body and not cl.constraint]
    assert [cl.id for cl in seeds] == ["goal"]


def test_mangled_names_must_be_free():
    prog = parse_program("p(X) :- 1*X = 0.\nfalse :- p(X).")
    qa = qa_transform(prog, FALSE)
    assert set(qa.predicates) == {"false__a", "false__q", "p__a", "p__q"}
    with pytest.raises(ValueError):
        qa_transform(qa, FALSE)
