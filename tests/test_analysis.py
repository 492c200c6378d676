"""Fixpoint analysis: models, widening behavior, first derivations."""

import random
from collections import Counter

from conftest import T4, random_program
from chcverify import analysis
from chcverify.analysis import (
    AbstractModel,
    analyze,
    check_safety,
    compute_thresholds,
    consequence,
    instantiate,
    is_inductive_model,
    model_to_text,
)
from chcverify.chc_ast import (FALSE, Atom, Clause, Program, components, parse_clause,
                               parse_program)
from chcverify.linalg import (EQ, LE, TRUE, ConstraintSet, LinearConstraint,
                              entails_all, project, simplify)
from chcverify.polyhedra import Polyhedron, canonical_args
from chcverify.qa import qa_transform

SAFE_COUNTER = """\
p(X) :- 1*X = 0.
p(Y) :- 1*X+ -1*Y = -1, p(X).
false :- 1*X < 0, p(X).
"""

ACYCLIC_CHAIN = "p(X) :- 1*X = 0.\nq(Y) :- 1*X+ -1*Y = -1, p(X).\nfalse :- q(X)."


class TestModels:
    def test_acyclic_predicates_are_exact(self):
        prog = parse_program(ACYCLIC_CHAIN)
        model, _ = analyze(prog)
        assert str(model.value("p", 1)) == "1*A = 0"
        assert str(model.value("q", 1)) == "1*A = 1"

    def test_recursive_counter_stabilizes_on_the_invariant(self):
        prog = parse_program(SAFE_COUNTER)
        model, _ = analyze(prog)
        assert str(model.value("p", 1)) == "-1*A =< 0"
        assert check_safety(model)
        assert is_inductive_model(prog, model)

    def test_widening_loses_the_loop_body_correlations(self):
        # the two-counter loop grows in a direction no finite iterate bounds
        prog = parse_program(T4)
        model, _ = analyze(prog)
        assert model.value("l", 4).is_top
        body = model.value("l_body", 4).constraints
        reference = parse_clause(
            "l_body(A,B,C,D) :- -1*A+ 2*B+ 1*C+ -2*D =< 0, "
            "1*A+ 1*B+ -1*C+ -1*D = -3, 2*A+ -1*B+ -2*C+ 1*D =< 0.").constraint
        assert entails_all(body, reference) and entails_all(reference, body)
        assert not check_safety(model)
        assert is_inductive_model(prog, model)

    def test_absent_predicate_reads_as_bottom(self):
        model = AbstractModel({})
        assert model.value("p", 2).is_bottom

    def test_non_inductive_model_is_rejected(self):
        prog = parse_program(SAFE_COUNTER)
        wrong = AbstractModel({"p": Polyhedron.bottom(("A",))})
        assert not is_inductive_model(prog, wrong)

    def test_model_to_text_lists_every_predicate(self):
        prog = parse_program(SAFE_COUNTER)
        model, _ = analyze(prog)
        text = model_to_text(model, prog)
        assert "p" in text and "-1*A =< 0" in text


class TestSemiNaive:
    @staticmethod
    def _evaluations(monkeypatch, prog):
        calls = Counter()
        contribution = analysis._contribution

        def counting(cl, model):
            calls[cl.id] += 1
            return contribution(cl, model)

        monkeypatch.setattr(analysis, "_contribution", counting)
        analyze(prog)
        return calls

    def test_acyclic_clauses_are_evaluated_once(self, monkeypatch):
        prog = parse_program(ACYCLIC_CHAIN)
        calls = self._evaluations(monkeypatch, prog)
        assert calls == {cl.id: 1 for cl in prog.clauses}

    def test_fact_clause_of_a_loop_is_evaluated_once(self, monkeypatch):
        prog = parse_program(SAFE_COUNTER)
        fact = next(cl for cl in prog.clauses if not cl.body)
        calls = self._evaluations(monkeypatch, prog)
        assert calls[fact.id] == 1
        assert calls[prog.clauses[1].id] > 1

    def test_every_result_is_a_post_fixpoint(self):
        # whatever the verdict, each clause's consequence under the result
        # lies below its head's value: a clause skipped wrongly breaks this
        for attempt in range(1, 101):
            rng = random.Random(606 * 1_000_000 + attempt)
            prog = random_program(rng, max_clauses=5)
            for p in (prog, qa_transform(prog, FALSE)):
                model, _ = analyze(p)
                assert is_inductive_model(p, model), f"attempt {attempt}"


class TestWitness:
    def test_t4_growth_events(self):
        # the clause that first made each predicate non-empty; l's later
        # growth through c2 (and its widening to top) is not kept
        prog = parse_program(T4)
        _, first = analyze(prog)
        assert {p: cl.id for p, cl in first.items()} == {
            "l_body": "c5", "l": "c3", "false": "c1"}

    def test_body_predicates_are_recorded_first(self):
        # what makes `extract_trace` terminate: a first clause's body
        # predicates all have first clauses, kept before it
        progs = [parse_program(T4)]
        for attempt in range(1, 51):
            rng = random.Random(606 * 1_000_000 + attempt)
            prog = random_program(rng, max_clauses=5)
            progs += [prog, qa_transform(prog, FALSE)]
        for prog in progs:
            _, first = analyze(prog)
            order = list(first)
            for pred, cl in first.items():
                assert cl.head.pred == pred
                for b in cl.body:
                    assert order.index(b.pred) < order.index(pred)

    def test_lookup(self):
        prog = parse_program(T4)
        _, first = analyze(prog)
        assert first["false"] is prog.clause("c1")
        assert first["l"] is prog.clause("c3")
        assert "nothing" not in first

    def test_safe_program_never_grows_false(self):
        prog = parse_program(SAFE_COUNTER)
        _, first = analyze(prog)
        assert "false" not in first


class TestThresholds:
    def test_bounds_are_collected_per_predicate(self):
        # each clause's head bounds, per predicate, in clause order: c2 gives
        # I < N, c3 and c4 give I >= N (once) and their sum bounds, c5 and c6
        # the two l_body steps
        prog = parse_program(T4)
        thr = {p: compute_thresholds(prog.clauses_for(p)) for p in prog.by_head}
        assert [str(c) for c in thr["l"]] == [
            "1*A+ -1*D < 0", "-1*A+ 1*D =< 0",
            "-1*B+ -1*C+ 3*D < 0", "1*B+ 1*C+ -3*D < 0"]
        assert [str(c) for c in thr["l_body"]] == [
            "1*A+ -1*C = -1", "1*B+ -1*D = -2",
            "1*A+ -1*C = -2", "1*B+ -1*D = -1"]
        assert sum(map(len, thr.values())) == 8
        canonical = {"A", "B", "C", "D"}
        for pred in ("l", "l_body"):
            for c in thr[pred]:
                assert c.variables() <= canonical

    def test_unsatisfiable_clause_gives_no_bound(self):
        prog = parse_program(
            "p(X) :- 1*X =< 0, 1*X >= 1.\nq(X) :- 1*X =< 3.\n"
            "false :- p(X), q(X).")
        assert compute_thresholds(prog.clauses_for("p")) == ()
        assert [str(c) for c in compute_thresholds(prog.clauses_for("q"))
                ] == ["1*A =< 3"]

    def test_thresholds_keep_the_bound_the_plain_widen_loses(self):
        text = "p(X) :- 1*X = 0.\np(Y) :- 1*X+ -1*Y = -1, 1*Y =< 5, p(X).\n" \
               "false :- 1*X+ -1*X = 1, p(X)."
        prog = parse_program(text)
        model, _ = analyze(prog)
        assert str(model.value("p", 1)) == "-1*A =< 0, 1*A =< 5"
        # the widening that makes the third round, of 0 =< A =< 1 by
        # 0 =< A =< 2, keeps the bound only through the threshold
        space = canonical_args(1)
        old = Polyhedron(space, _cs(({"A": -1}, LE, 0), ({"A": 1}, LE, 1)))
        new = Polyhedron(space, _cs(({"A": -1}, LE, 0), ({"A": 1}, LE, 2)))
        assert str(old.widen(new)) == "-1*A =< 0"
        assert str(old.widen(new, compute_thresholds(prog.clauses_for("p")))
                   ) == "-1*A =< 0, 1*A =< 5"


class TestThresholdSet:
    """The set of bounds `compute_thresholds` mines from one predicate's
    clauses."""

    def test_lookup_by_predicate(self):
        prog = parse_program("p(X) :- 1*X =< 3.\nfalse :- p(X).")
        assert compute_thresholds(prog.clauses_for("p")) == (
            LinearConstraint.make({"A": 1}, LE, 3),)
        # an unknown predicate has no clauses, and so no bounds
        assert compute_thresholds(prog.clauses_for("q")) == ()

    def test_empty(self):
        assert compute_thresholds(parse_program("").clauses) == ()


class TestLazyThresholds:
    def test_acyclic_program_mines_nothing(self, monkeypatch):
        # no predicate of an acyclic program is widened, so none is mined
        def no_mining(clauses):
            raise AssertionError("thresholds mined without a widening")

        monkeypatch.setattr(analysis, "compute_thresholds", no_mining)
        prog = parse_program(ACYCLIC_CHAIN)
        model, _ = analyze(prog)
        assert str(model.value("q", 1)) == "1*A = 1"

    def test_each_predicate_is_mined_at_most_once(self, monkeypatch):
        calls = Counter()

        def counting(clauses):
            calls[clauses[0].head.pred] += 1
            return compute_thresholds(clauses)

        monkeypatch.setattr(analysis, "compute_thresholds", counting)
        analyze(parse_program(T4))
        assert calls == {"l": 1}
        # p is widened three times (X steps to 6, then Y grows) and mined once
        widened = Counter()
        widen = Polyhedron.widen

        def counting_widen(old, new, thresholds=()):
            widened[old.space] += 1
            return widen(old, new, thresholds)

        monkeypatch.setattr(Polyhedron, "widen", counting_widen)
        calls.clear()
        analyze(parse_program(
            "p(X, Y) :- 1*X = 0, 1*Y = 0.\n"
            "p(X1, Y) :- p(X, Y), 1*X1+ -1*X = 1, 1*X =< 5.\n"
            "p(X, Y1) :- p(X, Y), 1*Y1+ -1*Y = 1, 1*X >= 5.\n"
            "false :- p(X, Y), 1*Y < 0."))
        assert widened == {("A", "B"): 3}
        assert calls == {"p": 1}


def _prefixed(prog, prefix):
    # every predicate renamed, the clauses in their order
    def atom(a):
        return Atom(prefix + a.pred, a.args)

    return Program(tuple(cl._replace(head=atom(cl.head),
                                     body=tuple(map(atom, cl.body)))
                         for cl in prog.clauses))


class TestFixpointMemo:
    # Analyses once shared the fixpoints of their components through a memo.
    # No fixpoint outlives an analysis now: each one iterates every component
    # itself, once, and its result depends on the program alone.

    def test_an_open_memo_iterates_each_component_once(self, monkeypatch):
        # each program, the program again and a copy with every predicate
        # renamed: the same (renamed) model and first clauses, the same
        # clause evaluations, each component's in one run, in the order of
        # `components`, and each clause of an acyclic component once
        progs = [parse_program(T4)]
        for attempt in range(1, 101):
            rng = random.Random(606 * 1_000_000 + attempt)
            prog = random_program(rng, max_clauses=5)
            progs += [prog, qa_transform(prog, FALSE)]
        evaluated = []
        contribution = analysis._contribution

        def counting(cl, model):
            evaluated.append((cl.head.pred, cl.id))
            return contribution(cl, model)

        monkeypatch.setattr(analysis, "_contribution", counting)
        loops = 0
        for prog in progs:
            order = {p: n for n, (scc, _) in enumerate(components(prog))
                     for p in scc}
            acyclic = {p for scc, is_cyclic in components(prog)
                       if not is_cyclic for p in scc}
            loops += len(acyclic) < len(order)
            want = None
            for prefix in ("", "", "r_"):
                evaluated.clear()
                model, first = analyze(_prefixed(prog, prefix))
                got = ({p[len(prefix):]: v for p, v in model.facts.items()},
                       [(p[len(prefix):], cl.id) for p, cl in first.items()],
                       [(p[len(prefix):], cid) for p, cid in evaluated])
                if want is None:
                    want = got
                assert got == want
                steps = [order[p] for p, _ in got[2]]
                assert steps == sorted(steps)
                once = [e for e in got[2] if e[0] in acyclic]
                assert len(once) == len(set(once))
        assert loops > 100


def _cs(*rows):
    return ConstraintSet.make(LinearConstraint.make(coeffs, rel, bound)
                              for coeffs, rel, bound in rows)


def _clause(head, constraint, *body):
    return Clause("c", head, constraint, tuple(body))


class TestInstantiate:
    def test_bottom_body_fact_gives_none(self):
        cl = _clause(Atom("q", ("X",)), TRUE, Atom("p", ("X",)))
        assert instantiate(cl, [None]) is None
        assert consequence(cl, [None]) is None

    def test_unsatisfiable_conjunction_gives_none(self):
        # X =< 0 in the clause, A >= 1 placed on X by the body fact
        cl = _clause(Atom("q", ("X",)), _cs(({"X": 1}, LE, 0)),
                     Atom("p", ("X",)))
        assert instantiate(cl, [_cs(({"A": -1}, LE, -1))]) is None
        assert instantiate(cl, [TRUE]) == _cs(({"X": 1}, LE, 0))

    def test_head_fact_lands_on_the_head_arguments(self):
        cl = _clause(Atom("q", ("U", "V")), _cs(({"U": 1, "W": -1}, EQ, 0)),
                     Atom("p", ("W",)))
        got = instantiate(cl, [_cs(({"A": 1}, LE, 2))],
                          head_fact=_cs(({"B": 1}, LE, 7)))
        assert got == _cs(({"U": 1, "W": -1}, EQ, 0), ({"W": 1}, LE, 2),
                          ({"V": 1}, LE, 7))
        # the head fact takes part in the satisfiability check
        assert instantiate(cl, [TRUE], head_fact=_cs(({"A": -1}, LE, -3)),
                           ) == _cs(({"U": 1, "W": -1}, EQ, 0),
                                    ({"U": -1}, LE, -3))
        assert instantiate(cl, [_cs(({"A": 1}, LE, 2))],
                           head_fact=_cs(({"A": -1}, LE, -3))) is None

    def test_permuted_body_arguments(self):
        # p(Y, X): canonical A is Y and B is X
        cl = _clause(Atom("q", ("X", "Y")), TRUE, Atom("p", ("Y", "X")))
        fact = _cs(({"A": 1}, EQ, 1), ({"B": 1}, EQ, 5))
        assert instantiate(cl, [fact]) == _cs(({"Y": 1}, EQ, 1),
                                              ({"X": 1}, EQ, 5))
        assert consequence(cl, [fact]) == _cs(({"A": 1}, EQ, 5),
                                              ({"B": 1}, EQ, 1))

    def test_repeated_body_arguments(self):
        # p(X, X): both canonical arguments land on X
        cl = _clause(Atom("q", ("X",)), TRUE, Atom("p", ("X", "X")))
        diag = _cs(({"A": 1, "B": -1}, LE, 0), ({"A": 1}, LE, 4))
        assert instantiate(cl, [diag]) == _cs(({"X": 1}, LE, 4))
        apart = _cs(({"A": 1, "B": -1}, LE, -1))
        assert instantiate(cl, [apart]) is None
        # the consequence is simplified: X = 2 entails -X =< -1
        assert consequence(cl, [_cs(({"A": 1}, EQ, 2), ({"B": -1}, LE, -1))]
                           ) == _cs(({"A": 1}, EQ, 2))

    def test_consequence_agrees_with_the_checked_instantiation(self):
        # consequence decides emptiness on the projection only; on the
        # analysis' own facts it agrees with instantiating, checking,
        # projecting and simplifying
        for attempt in range(1, 101):
            rng = random.Random(606 * 1_000_000 + attempt)
            prog = random_program(rng, max_clauses=5)
            for p in (prog, qa_transform(prog, FALSE)):
                model, _ = analyze(p)
                for cl in p.clauses:
                    tag = f"attempt {attempt}: {cl}"
                    facts = [model.value(b.pred, b.arity).constraints
                             for b in cl.body]
                    got = consequence(cl, facts)
                    full = instantiate(cl, facts)
                    assert (got is None) == (full is None), tag
                    if got is None:
                        continue
                    head = cl.head
                    want = simplify(project(full, head.args)).rename(
                        dict(zip(head.args, canonical_args(head.arity))))
                    assert entails_all(got, want) and entails_all(want, got), tag
