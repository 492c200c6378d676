"""Clause syntax: parsing, validation, renaming, dependencies."""

import random

import pytest

from conftest import random_program
from chcverify import chc_ast
from chcverify.chc_ast import (
    FALSE,
    Atom,
    Clause,
    FreshNames,
    ParseError,
    Program,
    dependency_graph,
    normalize_integrity,
    parse_clause,
    parse_program,
    program_text,
    rename_apart,
)
from chcverify.linalg import EQ, LE, LT, ConstraintSet, LinearConstraint, rat

T4 = open("tests/data/t4.pl").read()


def C(coeffs, rel, b):
    return LinearConstraint.make({k: rat(v) for k, v in coeffs.items()}, rel, rat(b))


class TestParser:
    def test_round_trip_is_stable(self):
        prog = parse_program(T4)
        text = program_text(prog)
        assert program_text(parse_program(text)) == text

    def test_clause_labels_and_order(self):
        prog = parse_program(T4)
        assert [cl.id for cl in prog.clauses] == ["c1", "c2", "c3", "c4", "c5", "c6"]
        assert prog.clause("c5").head_atom.pred == "l_body"
        with pytest.raises(KeyError):
            prog.clause("c99")

    def test_unlabelled_clauses_are_numbered(self):
        prog = parse_program("p(X) :- 1*X = 0.\nfalse :- 1*X < 0, p(X).")
        assert [cl.id for cl in prog.clauses] == ["c1", "c2"]

    def test_strict_nonstrict_and_equality_atoms(self):
        prog = parse_program("p(X,Y) :- 1*X < 1, 1*Y =< 2, 1*X+ -1*Y = 0.")
        rels = sorted(c.rel for c in prog.clause("c1").constraint)
        assert rels == [LT, LE, EQ]

    def test_repeated_argument_becomes_fresh_variable(self):
        # p(X, X) is sugar for p(X, V) with V = X
        prog = parse_program("false :- p(X, X).\np(X, Y) :- 1*X+ -1*Y =< 0.")
        goal = prog.clause("c1")
        args = goal.body[0].args
        assert len(set(args)) == 2
        eq = C({args[0]: 1, args[1]: -1}, EQ, 0)
        assert tuple(goal.constraint) == (eq,)

    def test_rational_bounds(self):
        prog = parse_program("p(X) :- 2*X =< 7.")
        (c,) = prog.clause("c1").constraint
        assert c.bound == rat(7) and c.coeff("X") == rat(2)

    def test_rejects_reserved_suffixes(self):
        with pytest.raises((ParseError, ValueError)):
            parse_program("p__a(X) :- 1*X = 0.")

    def test_rejects_garbage(self):
        with pytest.raises(ParseError):
            parse_program("p(X :- .")

    def test_comments_and_blank_lines_ignored(self):
        prog = parse_program("% a comment\n\nc7. p(X) :- 1*X = 0.\n")
        assert [cl.id for cl in prog.clauses] == ["c7"]


# (parser entry point, text, message) for every ParseError the parser raises.
PARSE_ERRORS = [
    (parse_program, "p(X) :- 1*X = 0 # .", "unexpected character '#' at offset 16"),
    (parse_program, "p(X) :- 1*X =", "unexpected end of input"),
    (parse_program, "p(X) :- (1*X = 0.", "expected ')', found '='"),
    (parse_program, "p(X, Y) :- X*Y = 0.", "non-linear term (product of two variables)"),
    (parse_program, "p(X) :- 1*foo = 0.", "expected a variable or number, found 'foo'"),
    (parse_program, "p(X) :- 1*X = ,.", "unexpected token ',' in term"),
    (parse_program, "p(X) :- 1*X, q(X).", "expected a relation, found ','"),
    (parse_program, "p__a(X) :- 1*X = 0.", "predicate 'p__a' uses the reserved suffix '__a'"),
    (parse_program, "p(X Y) :- 1*X = 0.", "expected ',' or ')' in atom, found 'Y'"),
    (parse_clause, "p(X) :- 1*X = 0. q(X).", "trailing input after clause"),
    (parse_clause, "", "expected a clause"),
    (parse_program, "p(X) :- 1*X = 0 q(X).", "expected ',' or '.', found 'q'"),
    (parse_program, "p(X) q(X).", "expected ':-' or '.', found 'q'"),
]


class TestLiterals:
    def test_integer_literals_need_no_rationals(self, monkeypatch):
        expected = program_text(parse_program(T4))

        def no_rationals(*args):
            raise AssertionError("an integer literal went through rat")

        monkeypatch.setattr(chc_ast, "rat", no_rationals)
        assert program_text(parse_program(T4)) == expected

    def test_decimal_literal_stays_exact(self):
        (c,) = parse_program("p(X) :- 0.25*X =< 1.").clause("c1").constraint
        assert str(c) == "1*X =< 4"

    def test_generator_programs_round_trip(self):
        # the programs of suite f's stream
        for attempt in range(1, 206):
            rng = random.Random(606 * 1_000_000 + attempt)
            text = program_text(random_program(rng, max_clauses=5))
            assert program_text(parse_program(text)) == text, f"attempt {attempt}"

    def test_parse_error_messages(self):
        for parse, text, message in PARSE_ERRORS:
            with pytest.raises(ParseError) as err:
                parse(text)
            assert str(err.value) == message, text


class TestProgramValidation:
    def test_false_cannot_appear_in_a_body(self):
        cl = Clause("c1", Atom("p", ("X",)), ConstraintSet.make([]), (FALSE,))
        with pytest.raises(ValueError, match="cannot occur in a body"):
            Program((cl,))

    def test_atom_arguments_must_be_distinct(self):
        cl = Clause("c1", Atom("p", ("X", "X")), ConstraintSet.make([]), ())
        with pytest.raises(ValueError, match="must be distinct"):
            Program((cl,))
        cl = Clause("c1", FALSE, ConstraintSet.make([]),
                    (Atom("p", ("X", "X")),))
        with pytest.raises(ValueError, match="must be distinct"):
            Program((cl,))

    def test_arities_must_agree(self):
        a = Clause("c1", Atom("p", ("X",)), ConstraintSet.make([]), ())
        b = Clause("c2", Atom("p", ("X", "Y")), ConstraintSet.make([]), ())
        with pytest.raises(ValueError):
            Program((a, b))

    def test_duplicate_clause_ids_rejected(self):
        a = Clause("c1", Atom("p", ("X",)), ConstraintSet.make([]), ())
        with pytest.raises(ValueError):
            Program((a, a))

    def test_predicates_map(self):
        prog = parse_program(T4)
        assert prog.predicates == {"false": 0, "l": 4, "l_body": 4}
        assert [cl.id for cl in prog.clauses_for("l_body")] == ["c5", "c6"]

    def test_predicates_map_is_computed_once(self):
        prog = parse_program(T4)
        assert prog.predicates is prog.predicates


class TestNormalizeIntegrity:
    def test_atom_heads_pass_through(self):
        prog = parse_program(T4)
        assert normalize_integrity(prog) == prog

    def test_inequality_head_negates_into_one_goal(self):
        head = C({"X": 1}, LE, 5)
        cl = Clause("c1", head, ConstraintSet.make([]), (Atom("p", ("X",)),))
        defn = Clause("c2", Atom("p", ("X",)), ConstraintSet.make([]), ())
        out = normalize_integrity(Program((cl, defn)))
        goals = [c for c in out.clauses if c.is_false_head()]
        assert len(goals) == 1 and goals[0].id == "c1"
        assert tuple(goals[0].constraint) == (C({"X": -1}, LT, -5),)

    def test_equality_head_splits_into_two_goals(self):
        head = C({"X": 1}, EQ, 0)
        cl = Clause("c1", head, ConstraintSet.make([]), (Atom("p", ("X",)),))
        defn = Clause("c2", Atom("p", ("X",)), ConstraintSet.make([]), ())
        out = normalize_integrity(Program((cl, defn)))
        assert [c.id for c in out.clauses if c.is_false_head()] == ["c1.1", "c1.2"]


class TestRenaming:
    def test_rename_apart_leaves_no_shared_variables(self):
        prog = parse_program(T4)
        fresh = FreshNames()
        got, mapping = rename_apart(prog.clause("c2"), fresh)
        assert not got.variables() & prog.clause("c2").variables()
        assert set(mapping) == prog.clause("c2").variables()

    def test_fresh_names_avoid_collisions(self):
        fresh = FreshNames(avoid=("V1", "V2"))
        assert fresh.fresh() not in {"V1", "V2"}

    def test_clause_rename_applies_to_all_parts(self):
        prog = parse_program("false :- 1*X < 0, p(X).\np(X) :- 1*X = 0.")
        cl = prog.clause("c1").rename({"X": "Z"})
        assert cl.body[0].args == ("Z",)
        assert cl.constraint.variables() == {"Z"}


class TestDependencyGraph:
    def test_edges_point_from_head_to_body(self):
        graph = dependency_graph(parse_program(T4))
        assert ("false", "l") in graph.edges
        assert ("l", "l_body") in graph.edges
        assert ("l", "l") in graph.edges

    def test_sccs_list_callees_first(self):
        graph = dependency_graph(parse_program(T4))
        order = graph.sccs_reverse_topological()
        assert order.index(["l_body"]) < order.index(["l"])
        assert order.index(["l"]) < order.index(["false"])

    def test_cyclic_scc_detection(self):
        graph = dependency_graph(parse_program(T4))
        assert graph.is_cyclic_scc(["l"])
        assert not graph.is_cyclic_scc(["l_body"])

    def test_mutual_recursion_is_one_component(self):
        prog = parse_program(
            "p(X) :- 1*X =< 0, q(X).\nq(X) :- p(X).\nfalse :- p(X).")
        graph = dependency_graph(prog)
        assert ["p", "q"] in graph.sccs_reverse_topological()
