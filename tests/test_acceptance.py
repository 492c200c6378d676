"""End-to-end acceptance checks for the two-counter loop and the suites.

Each test prints one pass/fail line under `pytest -v`.  The two-counter
loop (tests/data/t4.pl) is the worked end-to-end example: unsafe, found
after exactly one predicate-splitting round.
"""

import os
import time
import warnings

from conftest import DATA, T4
from chcverify.analysis import analyze, check_safety
from chcverify.cex import build_and_tree, extract_trace, feasible, tree_constraints, tree_interpolants
from chcverify.chc_ast import FALSE, parse_program
from chcverify.driver import verify
from chcverify.linalg import (
    LE,
    ConstraintSet,
    LinearConstraint,
    entails_all,
    is_satisfiable,
    rat,
)
from chcverify.qa import qa_transform
from chcverify.specialise import strengthen

import suites


def first_round():
    prog = parse_program(T4)
    qa = qa_transform(prog, FALSE)
    qa_model, _ = analyze(qa)
    spec = strengthen(prog, qa_model)
    model, first = analyze(spec)
    return prog, spec, model, first


def test_two_counter_loop_unsafe_in_exactly_one_refinement():
    start = time.monotonic()
    verdict = verify(parse_program(T4))
    elapsed = time.monotonic() - start
    assert verdict.kind == "unsafe"
    assert verdict.refinements == 1
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    tree = build_and_tree(verdict.program, verdict.trace)
    assert is_satisfiable(tree_constraints(tree))


def test_first_round_counterexample_is_c1_c3_and_spurious():
    _, spec, model, first = first_round()
    assert not check_safety(model)
    trace = extract_trace(first)
    assert str(trace) == "c1(c3)"
    assert not feasible(build_and_tree(spec, trace))


def test_loop_interpolant_satisfies_the_three_conditions():
    _, spec, model, first = first_round()
    tree = build_and_tree(spec, extract_trace(first))
    interp = tree_interpolants(tree)
    assert len(interp.facts) == 1
    (atom, _), = interp.facts
    assert atom.pred == "l"
    suites.check_tree_interpolant_conditions(tree, interp, "two-counter loop")
    # the counter bound below is one valid separator; report, but do not
    # fail, when the Farkas certificate lands on a different one
    reference = ConstraintSet.make([LinearConstraint.make(
        {"A": rat(1), "B": rat(-3), "C": rat(1), "D": rat(1)}, LE, rat(0))])
    pooled = interp.by_predicate()["l"]
    if not (entails_all(pooled, reference) and entails_all(reference, pooled)):
        warnings.warn(f"interpolant {pooled} differs from the reference "
                      f"{reference} (both separate the trace)")


def test_propagation_deletes_the_unreachable_branch_and_keeps_the_goal():
    prog, spec, _, _ = first_round()
    kept = [cl.id for cl in spec.clauses]
    assert "c4" not in kept
    assert "c1" in kept
    assert spec.clause("c1") == prog.clause("c1")
    for cl in spec.clauses:
        old = prog.clause(cl.id)
        assert cl.head == old.head and cl.body == old.body
        assert entails_all(cl.constraint, old.constraint)


def test_randomized_suites_cover_at_least_200_cases_each(
        suite_a_report, suite_b_report, suite_c_report,
        suite_d_report, suite_e_report, suite_f_report):
    reports = {
        "a": suite_a_report, "b": suite_b_report, "c": suite_c_report,
        "d": suite_d_report, "e": suite_e_report, "f": suite_f_report,
    }
    for name, report in reports.items():
        assert report["cases"] >= 200, f"suite {name}: {report}"


def test_shipped_corpus_is_the_two_counter_loop_only():
    # larger benchmark sets need minutes-per-file budgets; the randomized
    # suites above stand in for them
    assert sorted(os.listdir(DATA)) == ["t4.pl"]
