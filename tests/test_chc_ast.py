"""Clause syntax: parsing, validation, renaming, dependencies."""

import random

import pytest

from conftest import DATA, REPO, T4, random_program
from chcverify import chc_ast
from chcverify.chc_ast import (
    FALSE,
    Atom,
    Clause,
    FreshNames,
    ParseError,
    Program,
    components,
    parse_clause,
    parse_program,
    program_text,
)
from chcverify.linalg import EQ, LE, LT, ConstraintSet, LinearConstraint, rat

SHIPPED = sorted(REPO.glob("bench/corpus/*.pl")) + [DATA / "t4.pl"]


def C(coeffs, rel, b):
    return LinearConstraint.make({k: rat(v) for k, v in coeffs.items()}, rel, rat(b))


class TestParser:
    def test_round_trip_is_stable(self):
        prog = parse_program(T4)
        text = program_text(prog)
        assert program_text(parse_program(text)) == text

    def test_split_integrity_constraint_round_trips(self):
        # the equality head prints as the labels c1.1 and c1.2
        prog = parse_program("c1. 1*X = 0 :- p(X).\nc2. p(X) :- 1*X = 0.")
        text = program_text(prog)
        assert text.startswith("c1.1. false :- ")
        assert parse_program(text) == prog
        assert program_text(parse_program(text)) == text

    def test_clause_labels_and_order(self):
        prog = parse_program(T4)
        assert [cl.id for cl in prog.clauses] == ["c1", "c2", "c3", "c4", "c5", "c6"]
        assert prog.clause("c5").head.pred == "l_body"
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
    # deeper than the stack: a RecursionError's traceback would exit 1
    (parse_program, "false :- " + "(" * 3000 + "1*X" + ")" * 3000 + " < 0.",
     "term nested too deeply"),
    (parse_program, "p(X) q(X).", "expected ':-' or '.', found 'q'"),
    (parse_clause, "1*X = 0 :- p(X).", "an equality head gives two clauses"),
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


class TestReader:
    """Lexical corners of the reader, and a seeded fuzz run over it."""

    def test_bad_character_offset_counts_the_comment_before_it(self):
        text = "% a # in a comment\np(X) :- 1*X = 0 # ."
        with pytest.raises(ParseError, match="^unexpected character '#' at offset 35$"):
            parse_program(text)
        assert text[35] == "#" and text.index("#") < 35

    def test_non_ascii_letter_is_a_bad_character(self):
        with pytest.raises(ParseError, match="^unexpected character 'é' at offset 3$"):
            parse_program("p(Xé) :- 1*X = 0.")

    def test_comment_on_the_last_line_without_newline(self):
        prog = parse_program("p(X) :- 1*X = 0.\n% done: q(X) # no newline")
        assert prog == parse_program("p(X) :- 1*X = 0.")

    def test_decimal_literals(self):
        prog = parse_program("p(X) :- 0.25*X + 1.5 = 0.5*X.")
        assert prog == parse_program("p(X) :- 1*X + 6 = 2*X.")
        # a decimal argument becomes a fresh variable equal to it
        (c,) = parse_program("p(0.5).").clause("c1").constraint
        assert str(c) == "2*V1 = 1"

    def test_split_and_suffixed_labels(self):
        prog = parse_program("c3.2_1. false :- p(X).\nc1_1__1. p(X) :- 1*X = 0.")
        assert [cl.id for cl in prog.clauses] == ["c3.2_1", "c1_1__1"]

    def test_fact_spelled_like_an_id_ends_the_input(self):
        prog = parse_program("p :- c1_2.\nc1_2.")
        assert [cl.id for cl in prog.clauses] == ["c1", "c2"]
        assert prog.clause("c2").head == Atom("c1_2", ())
        # anywhere else it labels the clause after it
        assert [cl.id for cl in parse_program("c1_2. p.").clauses] == ["c1_2"]

    def test_fresh_names_avoid_every_name_in_the_file(self):
        prog = parse_program("p(V1, X, X) :- 1*X = 0.")
        assert prog.clause("c1").head.args == ("V1", "X", "V2")
        # also the names of later clauses
        prog = parse_program("p(X, X) :- 1*X = 0.\nq(V1) :- 1*V1 = 0.")
        assert prog.clause("c1").head.args == ("X", "V2")

    def test_parse_clause_rejects_trailing_input(self):
        for text in ("p. )", "p(X) :- q(X). r.", "c1. p."):
            with pytest.raises(ParseError, match="^trailing input after clause$"):
                parse_clause(text)

    def test_token_soups_parse_or_raise_and_round_trip(self):
        # An index-based reader can run off the end of its tokens: no soup
        # may raise anything but ParseError or ValueError.
        pieces = ("X Y Z V1 _A p q true false c1 foo 0 1 2 0.25 10 ( ) * + - , . :- "
                  "= =< <= >= < > c1. c2_1. c3.2_1. c1_1__1. # é : ! p(X) q(X,Y) "
                  "r(X,X) 1*X -2*Y X+1").split() + ["%c\n"]
        rng = random.Random(5)
        parsed = 0
        for _ in range(3000):
            text = "".join(rng.choice(pieces) + rng.choice(("", " ", "\n"))
                           for _ in range(rng.randint(0, 12)))
            try:
                parse_clause(text)
            except (ParseError, ValueError):
                pass
            try:
                prog = parse_program(text)
            except (ParseError, ValueError):
                continue
            parsed += 1
            assert parse_program(program_text(prog)) == prog, text
        assert parsed > 100

    @pytest.mark.parametrize("path", SHIPPED, ids=lambda p: str(p.relative_to(REPO)))
    def test_shipped_programs_round_trip(self, path):
        prog = parse_program(path.read_text())
        text = program_text(prog)
        assert parse_program(text) == prog
        assert program_text(parse_program(text)) == text


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

    def test_constraint_head_rejected(self):
        # only the parser rewrites integrity constraints
        cl = Clause("c1", C({"X": 1}, LE, 5), ConstraintSet.make([]),
                    (Atom("p", ("X",)),))
        with pytest.raises(ValueError, match="head must be an atom"):
            Program((cl,))

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
    """The parser turns `phi :- C, B` into `false :- not_i(phi), C, B`."""

    def test_atom_heads_pass_through(self):
        prog = parse_program(T4)
        assert all(isinstance(cl.head, Atom) for cl in prog.clauses)
        mixed = parse_program("c1. 1*X =< 5 :- p(X).\nc2. p(X) :- 1*X = 0.")
        assert mixed.clause("c2") == parse_clause("p(X) :- 1*X = 0.", "c2")

    def test_inequality_head_negates_into_one_goal(self):
        prog = parse_program("c1. 1*X =< 5 :- p(X).\nc2. p(X).")
        goals = [c for c in prog.clauses if c.is_false_head()]
        assert len(goals) == 1 and goals[0].id == "c1"
        assert tuple(goals[0].constraint) == (C({"X": -1}, LT, -5),)
        assert goals[0].body == (Atom("p", ("X",)),)
        assert parse_clause("1*X =< 5 :- p(X).") == goals[0]

    def test_equality_head_splits_into_two_goals(self):
        prog = parse_program("c1. 1*X = 0 :- p(X).\nc2. p(X).")
        goals = [c for c in prog.clauses if c.is_false_head()]
        assert [c.id for c in goals] == ["c1.1", "c1.2"]
        assert [tuple(c.constraint) for c in goals] == [
            (C({"X": 1}, LT, 0),), (C({"X": -1}, LT, 0),)]
        assert [c.id for c in prog.clauses] == ["c1.1", "c1.2", "c2"]


class TestRenaming:
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
        # false -> l, l -> l_body and l -> l: callees first, l cyclic
        assert components(parse_program(T4)) == [
            (("l_body",), False), (("l",), True), (("false",), False)]

    def test_sccs_list_callees_first(self):
        # b first appears first (in a's body), so the visit starts there,
        # yet every component still follows the ones it calls
        prog = parse_program(
            "a(X) :- b(X).\nb(X) :- c(X).\nc(X) :- 1*X = 0.\nfalse :- a(X).")
        assert components(prog) == [
            (("c",), False), (("b",), False), (("a",), False),
            (("false",), False)]

    def test_cyclic_scc_detection(self):
        prog = parse_program(
            "p(X) :- 1*X = 0.\np(Y) :- 1*X+ -1*Y = -1, p(X).\n"
            "q(X) :- p(X).\nfalse :- q(X).")
        assert components(prog) == [
            (("p",), True), (("q",), False), (("false",), False)]

    def test_mutual_recursion_is_one_component(self):
        prog = parse_program(
            "p(X) :- 1*X =< 0, q(X).\nq(X) :- p(X).\nfalse :- p(X).")
        # q first appears before p (body atoms first), so it is listed first
        assert components(prog) == [(("q", "p"), True), (("false",), False)]
