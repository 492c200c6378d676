"""Bounded bottom-up derivation enumeration."""

import pytest

from conftest import T4
from chcverify.chc_ast import FALSE, Atom, parse_program
from chcverify.oracle import FAN_OUT_LIMIT, bounded_derive


def test_t4_needs_three_levels_to_reach_false():
    prog = parse_program(T4)
    assert bounded_derive(prog, FALSE, 2) == set()
    got = sorted(str(t) for t, _ in bounded_derive(prog, FALSE, 3))
    assert got == ["c1(c2(c5,c3))", "c1(c2(c6,c3))"]


def test_deeper_bounds_only_add_derivations():
    prog = parse_program(T4)
    d3 = {str(t) for t, _ in bounded_derive(prog, FALSE, 3)}
    d4 = {str(t) for t, _ in bounded_derive(prog, FALSE, 4)}
    assert d3 <= d4 and len(d4) > len(d3)


def test_answers_are_projected_onto_canonical_arguments():
    prog = parse_program("p(X) :- 1*X = 0.\np(Y) :- 1*X+ -1*Y = -1, p(X).")
    got = {str(t): str(cs) for t, cs in bounded_derive(prog, Atom("p", ("V",)), 2)}
    assert got == {"c1": "1*A = 0", "c2(c1)": "1*A = 1"}


def test_infeasible_trees_are_not_returned():
    prog = parse_program(
        "p(X) :- 1*X = 0.\np(X) :- 1*X = 1.\nfalse :- 1*X = 2, p(X).")
    assert bounded_derive(prog, FALSE, 2) == set()
    hit = parse_program(
        "p(X) :- 1*X = 0.\np(X) :- 1*X = 1.\nfalse :- 1*X = 1, p(X).")
    assert [str(t) for t, _ in bounded_derive(hit, FALSE, 2)] == ["c3(c2)"]


def test_fan_out_is_capped_loudly():
    # each level squares the number of trees: 2, 4, 16, 256, 65536
    prog = parse_program(
        "a(X) :- 1*X = 0.\n"
        "a(X) :- 1*X = 1.\n"
        "b(X) :- a(X), a(Y).\n"
        "c(X) :- b(X), b(Y).\n"
        "d(X) :- c(X), c(Y).\n"
        "e(X) :- d(X), d(Y).\n"
        "false :- e(X).")
    with pytest.raises(RuntimeError, match="derivations"):
        bounded_derive(prog, FALSE, 6)
    assert FAN_OUT_LIMIT == 10_000
