"""Constraint propagation: strengthening clauses with query-answer facts."""

from conftest import T4
from chcverify.analysis import analyze
from chcverify.chc_ast import FALSE, parse_program, program_text
from chcverify.linalg import entails_all
from chcverify.qa import qa_transform
from chcverify.specialise import early_safe, strengthen


def propagate(prog):
    qa = qa_transform(prog, FALSE)
    qa_model, _ = analyze(qa)
    return strengthen(prog, qa_model)


class TestTwoCounterLoop:
    def test_the_unreachable_branch_is_deleted(self):
        spec = propagate(parse_program(T4))
        assert [cl.id for cl in spec.clauses] == ["c1", "c2", "c3", "c5", "c6"]

    def test_the_goal_clause_is_untouched(self):
        prog = parse_program(T4)
        spec = propagate(prog)
        assert spec.clause("c1") == prog.clause("c1")

    def test_the_kept_branch_gains_the_loop_invariant(self):
        spec = propagate(parse_program(T4))
        lines = program_text(spec).splitlines()
        assert lines[2] == (
            "c3. l(I,A,B,N) :- -1*A+ -1*B+ 3*N < 0, -1*A+ 1*I =< 0, "
            "1*A+ 1*B+ -3*I = 0, 1*A+ -2*I =< 0, 1*I+ -1*N < 1, -1*N < 0.")

    def test_strengthening_only_adds_constraints(self):
        prog = parse_program(T4)
        spec = propagate(prog)
        for cl in spec.clauses:
            old = prog.clause(cl.id)
            assert cl.head == old.head and cl.body == old.body
            assert entails_all(cl.constraint, old.constraint)


class TestSafePrograms:
    def test_propagation_can_empty_the_program(self):
        # a counter that only counts up can never satisfy X < 0, and the
        # propagation discovers that without any fixpoint iteration upstream
        prog = parse_program(
            "p(X) :- 1*X = 0.\np(Y) :- 1*X+ -1*Y = -1, p(X).\n"
            "false :- 1*X < 0, p(X).")
        spec = propagate(prog)
        assert spec.clauses == ()
        assert early_safe(spec)

    def test_early_safe_means_no_false_clause(self):
        prog = parse_program(T4)
        assert not early_safe(prog)
        no_goal = parse_program("p(X) :- 1*X = 0.")
        assert early_safe(no_goal)

    def test_programs_equivalent_modulo_propagation(self):
        # both derivations of false survive in a genuinely unsafe program
        prog = parse_program(
            "p(X) :- 1*X = 0.\np(Y) :- 1*X+ -1*Y = -1, p(X).\n"
            "false :- 1*X = 2, p(X).")
        spec = propagate(prog)
        assert any(cl.is_false_head() for cl in spec.clauses)
        text = program_text(spec)
        assert "false" in text
