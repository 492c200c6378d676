"""Fact splitting and polyvariant specialisation on the two-counter loop."""

import functools

import pytest

from conftest import T4
from chcverify.analysis import analyze
from chcverify.cex import build_and_tree, extract_trace, tree_interpolants
from chcverify.chc_ast import FALSE, parse_program, program_text
from chcverify.linalg import entails_all, is_satisfiable
from chcverify.polyhedra import Polyhedron
from chcverify.qa import qa_transform
from chcverify.refine import polyvariant_specialise, split_facts
from chcverify.specialise import strengthen

SPECIALISED_T4 = """\
c1_2. false :- 1*A = 0, 1*A+ 1*B+ -3*I = 0, 1*A+ -2*I = 0, -1*N < 0, l_2(I,A,B,N).
c2_2_1_3. l_2(I,A,B,N) :- -2*A+ 1*B =< 0, -1*A+ 1*A1 =< 2, 1*A+ -1*A1 =< -1, 1*A+ -1*A1+ 1*B+ -1*B1 = -3, 1*A+ -2*B =< 0, 1*A+ 1*B+ -3*I = 0, 1*A1+ 1*B1+ -3*I1 = 0, 1*I+ -1*N < 0, l_body_1(A,B,A1,B1), l_3(I1,A1,B1,N).
c2_3_1_3. l_3(I,A,B,N) :- -2*A+ 1*B =< 0, -1*A+ 1*A1 =< 2, 1*A+ -1*A1 =< -1, 1*A+ -1*A1+ 1*B+ -1*B1 = -3, 1*A+ -2*B =< 0, 1*A+ 1*B+ -3*I = 0, 1*A1+ 1*B1+ -3*I1 = 0, 1*I+ -1*N < 0, l_body_1(A,B,A1,B1), l_3(I1,A1,B1,N).
c3_3. l_3(I,A,B,N) :- -1*A+ -1*B+ 3*N < 0, -1*A+ 1*I =< 0, 1*A+ 1*B+ -3*I = 0, 1*A+ -2*I =< 0, 1*I+ -1*N < 1, -1*N < 0.
c5_1. l_body_1(A0,B0,A1,B1) :- -2*A0+ 1*B0 =< 0, 1*A0+ -1*A1 = -1, 1*A0+ -1*A1+ 1*B0+ -1*B1 = -3, 1*A0+ -2*B0 =< 0.
c6_1. l_body_1(A0,B0,A1,B1) :- -2*A0+ 1*B0 =< 0, 1*A0+ -1*A1 = -2, 1*A0+ -1*A1+ 1*B0+ -1*B1 = -3, 1*A0+ -2*B0 =< 0.
"""


def first_round():
    prog = parse_program(T4)
    qa = qa_transform(prog, FALSE)
    qa_model, _ = analyze(qa)
    spec = strengthen(prog, qa_model)
    model, first = analyze(spec)
    tree = build_and_tree(spec, extract_trace(first))
    return spec, model, tree_interpolants(tree)


class TestSplitFacts:
    def test_t4_counter_bound_splits_the_loop_fact(self):
        spec, model, interp = first_round()
        split = split_facts(spec, model, interp)
        l_cells = split.parts["l"]
        assert [str(c) for c in l_cells] == [
            "-2*A+ 1*B =< 0, -1*A+ 1*D < 0, 1*A+ -1*B =< 0, "
            "1*A+ -1*D < 1, 3*A+ -1*B+ -1*C = 0, -1*D < 0",
            "-2*A+ 1*B =< 0, 1*A+ -1*B =< 0, 1*A+ -1*D =< 0, "
            "3*A+ -1*B+ -1*C = 0, -1*D < 0",
        ]
        # no interpolant for the loop body: a single undivided cell
        (body_cell,) = split.parts["l_body"]
        assert body_cell == model.value("l_body", 4)

    def test_cells_stay_inside_the_fact(self):
        spec, model, interp = first_round()
        split = split_facts(spec, model, interp)
        for pred, cells in split.parts.items():
            fact = model.value(pred, len(cells[0].space))
            for cell in cells:
                assert cell.leq(fact)

    def test_whole_rejoins_the_cells(self):
        spec, model, interp = first_round()
        split = split_facts(spec, model, interp)
        whole = split.wholes["l"]
        for cell in split.parts["l"]:
            assert cell.leq(whole)
        assert whole.leq(functools.reduce(Polyhedron.hull, split.parts["l"]))

    def test_wholes_are_the_facts_that_were_split(self):
        spec, model, interp = first_round()
        split = split_facts(spec, model, interp)
        for pred, arity in spec.predicates.items():
            if pred != FALSE.pred:
                assert split.wholes[pred] == model.value(pred, arity)

    def test_without_interpolant_each_fact_is_one_cell(self):
        spec, model, _ = first_round()
        split = split_facts(spec, model, None)
        assert all(len(cells) == 1 for cells in split.parts.values())

    def test_a_fact_left_without_cells_raises(self, monkeypatch):
        # The cells cover the fact and `meet` decides emptiness exactly, so
        # a non-empty fact whose cells are all empty is a kernel fault, not
        # a reason to keep the fact whole.
        spec, model, interp = first_round()
        monkeypatch.setattr(Polyhedron, "meet",
                            lambda self, other: Polyhedron.bottom(self.space))
        with pytest.raises(RuntimeError, match="split_facts: .* of l "):
            split_facts(spec, model, interp)


class TestPolyvariantSpecialise:
    def test_t4_output_program(self):
        spec, model, interp = first_round()
        split = split_facts(spec, model, interp)
        out, origin = polyvariant_specialise(spec, split)
        assert program_text(out) == SPECIALISED_T4
        assert origin == {
            "l_2": ("l", 2), "l_3": ("l", 3), "l_body_1": ("l_body", 1)}

    def test_specialising_hulls_nothing(self, monkeypatch):
        spec, model, interp = first_round()
        split = split_facts(spec, model, interp)

        def no_hull(self, other):
            raise AssertionError("polyvariant_specialise computed a hull")

        monkeypatch.setattr(Polyhedron, "hull", no_hull)
        out, _ = polyvariant_specialise(spec, split)
        assert program_text(out) == SPECIALISED_T4

    def test_emitted_clauses_strengthen_their_sources(self):
        spec, model, interp = first_round()
        split = split_facts(spec, model, interp)
        out, _ = polyvariant_specialise(spec, split)
        for cl in out.clauses:
            src = spec.clause(cl.id.split("_")[0])
            assert entails_all(cl.constraint, src.constraint)
            assert is_satisfiable(cl.constraint)

    def test_unreachable_versions_are_not_emitted(self):
        spec, model, interp = first_round()
        split = split_facts(spec, model, interp)
        out, _ = polyvariant_specialise(spec, split)
        # the loop entry c3 is incompatible with the bounded cell, so only
        # its unbounded version survives
        ids = [cl.id for cl in out.clauses]
        assert "c3_3" in ids and "c3_2" not in ids and "c3_1" not in ids

    def test_version_names_dodge_existing_predicates(self):
        prog = parse_program(
            "p(X) :- 1*X = 0.\np_1(X) :- p(X).\nfalse :- 1*X = 0, p_1(X).")
        model, _ = analyze(prog)
        split = split_facts(prog, model, None)
        out, origin = polyvariant_specialise(prog, split)
        assert set(origin) <= {"p__1", "p_1_1"}
        for name in origin:
            assert name not in prog.predicates

    def test_clause_ids_dodge_each_other(self):
        # c1 with version 1 of p spells "c1_1", the id that the body-less
        # false clause keeps
        prog = parse_program("c1. false :- 1*X = 2, p(X).\n"
                             "c1_1. false :- 1*X = 5.\n"
                             "c2. p(X) :- -1*X =< 0.\n")
        model, _ = analyze(prog)
        out, _ = polyvariant_specialise(prog, split_facts(prog, model, None))
        assert [cl.id for cl in out.clauses] == ["c1__1", "c1_1", "c2_1"]
        assert program_text(parse_program(program_text(out))) == program_text(out)
