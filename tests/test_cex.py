"""Counterexample traces, AND-trees, feasibility, interpolation."""

import pytest

import suites
from conftest import T4, chain_program, shallow_stack, tr
from oracles import sum_of
from chcverify import cex
from chcverify.analysis import analyze
from chcverify.cex import (
    TraceTerm,
    build_and_tree,
    extract_trace,
    feasible,
    interpolate,
    tree_constraints,
    tree_interpolants,
)
from chcverify.chc_ast import FALSE, Atom, Clause, parse_program
from chcverify.linalg import (
    EQ,
    FALSE_CONSTRAINT,
    LE,
    LT,
    TRUE,
    ConstraintSet,
    LinearConstraint,
    entails,
    entails_all,
    farkas_refutation,
    is_satisfiable,
    rat,
)
from chcverify.qa import qa_transform
from chcverify.specialise import strengthen


def C(coeffs, rel, b):
    return LinearConstraint.make({k: rat(v) for k, v in coeffs.items()}, rel, rat(b))


def t4_spurious():
    """The strengthened two-counter loop and its first counterexample."""
    prog = parse_program(T4)
    qa = qa_transform(prog, FALSE)
    qa_model, _ = analyze(qa)
    spec = strengthen(prog, qa_model)
    _, first = analyze(spec)
    return spec, first


class TestTraces:
    def test_terms_print_like_function_applications(self):
        t = TraceTerm("c1", (TraceTerm("c2", (TraceTerm("c5"), TraceTerm("c3"))),))
        assert str(t) == "c1(c2(c5,c3))"

    def test_t4_trace_replays_the_earliest_events(self):
        _, first = t4_spurious()
        assert str(extract_trace(first)) == "c1(c3)"

    def test_missing_derivation_is_an_error(self):
        prog = parse_program(
            "p(X) :- 1*X = 0.\nfalse :- 1*X < 0, p(X).")
        _, first = analyze(prog)
        with pytest.raises(ValueError, match="no derivation of false"):
            extract_trace(first)
        assert str(extract_trace(first, pred="p")) == "c1"


class TestAndTrees:
    def test_nodes_carry_renamed_clauses_with_shared_interfaces(self):
        spec, first = t4_spurious()
        tree = build_and_tree(spec, extract_trace(first))
        assert tree.atom == FALSE
        (leaf,) = tree.children
        assert leaf.atom.pred == "l"
        # the child's head arguments are exactly the parent's call arguments
        assert leaf.clause.head.args == leaf.atom.args
        body_atom = tree.clause.body[0]
        assert body_atom.args == leaf.atom.args

    def test_local_variables_stay_local(self):
        prog = parse_program(T4)
        t = TraceTerm("c1", (TraceTerm("c2", (TraceTerm("c5"), TraceTerm("c3"))),))
        tree = build_and_tree(prog, t)
        nodes = []

        def walk(n):
            nodes.append(n)
            for c in n.children:
                walk(c)

        walk(tree)
        for n in nodes:
            interface = set(n.atom.args)
            for c in n.children:
                interface |= set(c.atom.args)
            locals_ = n.clause.variables() - interface
            for m in nodes:
                if m is not n:
                    assert not locals_ & m.clause.variables(), \
                        "a local variable leaked into another node"

    def test_round_trip_recovers_the_trace(self):
        prog = parse_program(T4)
        t = TraceTerm("c1", (TraceTerm("c2", (TraceTerm("c5"), TraceTerm("c3"))),))
        assert tr(build_and_tree(prog, t)) == t

    def test_subtree_count_must_match_body(self):
        prog = parse_program(T4)
        with pytest.raises(ValueError):
            build_and_tree(prog, TraceTerm("c1"))
        with pytest.raises(KeyError):
            build_and_tree(prog, TraceTerm("c99"))

    def test_feasibility_matches_constraint_satisfiability(self):
        prog = parse_program(T4)
        t = TraceTerm("c1", (TraceTerm("c2", (TraceTerm("c5"), TraceTerm("c3"))),))
        tree = build_and_tree(prog, t)
        assert feasible(tree) == is_satisfiable(tree_constraints(tree))
        assert feasible(tree)

    def test_t4_first_counterexample_is_spurious(self):
        spec, first = t4_spurious()
        tree = build_and_tree(spec, extract_trace(first))
        assert not feasible(tree)


class TestInterpolation:
    def test_interpolant_separates_and_respects_the_interface(self):
        c1 = ConstraintSet.make([C({"X": 1, "U": -1}, LE, 0), C({"U": 1}, LE, 1)])
        c2 = ConstraintSet.make([C({"X": -1, "W": 1}, LE, -3), C({"W": -1}, LE, 0)])
        itp = interpolate(sum_of(farkas_refutation(c1, c2), {0}), ["X"])
        assert itp.variables() <= {"X"}
        assert entails(c1, itp)
        assert not is_satisfiable(c2.add(itp))

    def test_inconsistent_first_part_yields_false(self):
        c1 = ConstraintSet.make([C({"U": 1}, LT, 0), C({"U": -1}, LT, 0)])
        c2 = ConstraintSet.make([C({"X": 1}, LE, 5)])
        itp = interpolate(sum_of(farkas_refutation(c1, c2), {0}), ["X"])
        assert itp == FALSE_CONSTRAINT

    def test_satisfiable_conjunction_is_rejected(self):
        c1 = ConstraintSet.make([C({"X": 1}, LE, 1)])
        c2 = ConstraintSet.make([C({"X": -1}, LE, 0)])
        with pytest.raises(ValueError):
            interpolate(sum_of(farkas_refutation(c1, c2), {0}), ["X"])


class TestTreeInterpolants:
    def test_t4_interpolant_bounds_the_loop_counter(self):
        spec, first = t4_spurious()
        tree = build_and_tree(spec, extract_trace(first))
        interp = tree_interpolants(tree)
        assert len(interp.facts) == 1
        (atom, cs), = interp.facts
        assert atom.pred == "l"
        pooled = interp.by_predicate()
        assert str(pooled["l"]) == "-1*A+ 1*D < 0"

    def test_facts_are_ordered_children_first(self):
        prog = parse_program(
            "a(X) :- 1*X = 0.\nb(Y) :- 1*X+ -1*Y = -2, a(X).\n"
            "false :- 1*Y = 1, b(Y).")
        t = TraceTerm("c3", (TraceTerm("c2", (TraceTerm("c1"),)),))
        tree = build_and_tree(prog, t)
        assert not feasible(tree)
        interp = tree_interpolants(tree)
        assert [atom.pred for atom, _ in interp.facts] == ["a", "b"]
        for atom, cs in interp.facts:
            assert cs.variables() <= set(atom.args)

    def test_one_refutation_labels_a_branching_tree(self, monkeypatch):
        # c4 joins two subtrees: a counter stepped once and a constant.
        prog = parse_program(
            "p(X) :- 1*X = 0.\np(Y) :- 1*X+ -1*Y = -1, p(X).\n"
            "q(X) :- 1*X = 3.\nfalse :- 1*X+ 1*Y < 2, p(X), q(Y).")
        t = TraceTerm("c4", (TraceTerm("c2", (TraceTerm("c1"),)), TraceTerm("c3")))
        tree = build_and_tree(prog, t)
        assert not feasible(tree)
        calls = []

        def counted(*parts):
            calls.append(parts)
            return farkas_refutation(*parts)

        monkeypatch.setattr(cex, "farkas_refutation", counted)
        interp = tree_interpolants(tree)
        assert len(calls) == 1
        assert [atom.pred for atom, _ in interp.facts] == ["p", "p", "q"]
        suites.check_tree_interpolant_conditions(tree, interp, "branching tree")
        # Locally: a node's clause and its children's labels imply its own
        # label, and at the root they are inconsistent.
        step, const = tree.children
        (init,) = step.children
        label = dict(zip((init, step, const), (cs for _, cs in interp.facts)))

        def local(n):
            return n.clause.constraint.add(
                *(c for k in n.children for c in label[k]))

        for n in (init, step, const):
            assert entails_all(local(n), label[n])
        assert not is_satisfiable(local(tree))

    @pytest.mark.parametrize("which", ["t4", "branching", "chain"])
    def test_every_label_is_the_weighted_sum_of_its_subtree(self, which):
        # the labels are built bottom-up from the children's sums; each
        # must equal the sum over its whole subtree, byte for byte
        if which == "t4":
            spec, first = t4_spurious()
            tree = build_and_tree(spec, extract_trace(first))
        elif which == "branching":
            # r's node joins p's and q's below the root
            prog = parse_program(
                "p(X) :- 1*X = 0.\nq(Y) :- 1*Y = 1.\n"
                "r(X, Y) :- 1*X =< 1*Y, p(X), q(Y).\nfalse :- 1*X+ 1*Y > 5, r(X, Y).")
            tree = build_and_tree(prog, TraceTerm(
                "c4", (TraceTerm("c3", (TraceTerm("c1"), TraceTerm("c2"))),)))
        else:
            prog = parse_program(chain_program(40, "1*X < 0"))
            trace = TraceTerm("c1")
            for i in range(2, 42):
                trace = TraceTerm(f"c{i}", (trace,))
            tree = build_and_tree(prog, trace)
        order, subtrees = [], []

        def walk(n):
            start = len(order)
            for c in n.children:
                walk(c)
            order.append(n)
            subtrees.append(range(start, len(order)))

        walk(tree)
        cert = farkas_refutation(*(n.clause.constraint for n in order))
        want = tuple(
            (n.atom, ConstraintSet.make([interpolate(sum_of(cert, sub), n.atom.args)]))
            for n, sub in zip(order[:-1], subtrees[:-1]))
        assert len(want) == len(order) - 1 > 0
        assert tree_interpolants(tree).facts == want
        assert [str(cs) for _, cs in tree_interpolants(tree).facts] == \
            [str(cs) for _, cs in want]

    def test_feasible_tree_is_rejected(self):
        prog = parse_program(T4)
        t = TraceTerm("c1", (TraceTerm("c2", (TraceTerm("c5"), TraceTerm("c3"))),))
        with pytest.raises(ValueError):
            tree_interpolants(build_and_tree(prog, t))

    def test_pooling_merges_repeated_predicates(self):
        prog = parse_program(
            "p(X) :- 1*X = 0.\np(Y) :- 1*X+ -1*Y = -1, p(X).\n"
            "false :- 1*X = 5, p(X).")
        t = TraceTerm("c3", (TraceTerm("c2", (TraceTerm("c1"),)),))
        tree = build_and_tree(prog, t)
        assert not feasible(tree)
        pooled = tree_interpolants(tree).by_predicate()
        assert set(pooled) == {"p"}
        assert not is_satisfiable(
            pooled["p"].add(C({"A": 1}, EQ, 5), C({"A": 1}, LE, 1)))


class TestDeepTrees:
    # Deeper than the stack that `shallow_stack` leaves: no walk over a
    # trace or a tree may recurse once per level.
    N = 150

    def test_a_deep_first_derivation_is_extracted(self):
        prog = parse_program(chain_program(self.N, "1*X >= 0"))
        _, first = analyze(prog)
        with shallow_stack():
            trace = extract_trace(first)
            text, size = str(trace), trace.size()
            tree = build_and_tree(prog, trace)
            assert feasible(tree)
        ids = [f"c{i}" for i in range(self.N + 1, 0, -1)]
        assert text == "(".join(ids) + ")" * self.N
        assert size == self.N + 1

    def test_a_deep_infeasible_chain_is_interpolated(self):
        prog = parse_program(chain_program(self.N, "1*X < 0"))
        trace = TraceTerm("c1")
        for i in range(2, self.N + 2):
            trace = TraceTerm(f"c{i}", (trace,))
        with shallow_stack():
            tree = build_and_tree(prog, trace)
            assert not feasible(tree)
            facts = tree_interpolants(tree).facts
        nodes, node = [], tree
        while node.children:
            node = node.children[0]
            nodes.append(node)
        # children first: p0's node, then p1's, up to p(N-1)'s below the root
        assert [atom.pred for atom, _ in facts] == [f"p{i}" for i in range(self.N)]
        below = TRUE
        for n, (atom, label) in zip(reversed(nodes), facts):
            assert atom == n.atom and label.variables() <= set(atom.args)
            assert entails_all(n.clause.constraint.add(*below), label)
            below = label
        assert not is_satisfiable(tree.clause.constraint.add(*below))

    def test_first_clauses_in_a_cycle_are_an_error(self):
        p, q = Atom("p", ("X",)), Atom("q", ("X",))
        first = {"p": Clause("c1", p, TRUE, (q,)),
                 "q": Clause("c2", q, TRUE, (p,))}
        with pytest.raises(ValueError, match="cycle"):
            extract_trace(first, pred="p")
