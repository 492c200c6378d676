"""Randomized property suites, each at least 200 cases.

a: rational linear algebra against the vertex-enumeration oracle
b: polyhedral domain laws, hull geometry, widening stabilization
c: query-answer transform and constraint-propagation specialisation
d: counterexample trees and interpolation
e: fact splitting and polyvariant specialisation
f: the whole driver against bounded ground-truth derivation

Each suite returns a small report dict and raises AssertionError (naming
the case number) on the first violated law.  Pipeline suites regenerate a
case when a resource cap fires; the reports count how often that happened.
"""

import functools
import random
from fractions import Fraction

from oracles import (
    OracleRangeError,
    convex_hull_2d,
    evaluate_all,
    in_hull_2d,
    oracle_entails,
    oracle_sat,
    sum_of,
    vertices,
)

from conftest import random_constraint, random_constraint_set, random_program, tr
from chcverify.analysis import analyze, check_safety, is_inductive_model
from chcverify.cex import (
    TraceTerm,
    TreeInterpolant,
    build_and_tree,
    extract_trace,
    feasible,
    interpolate,
    tree_interpolants,
)
from chcverify.chc_ast import FALSE, Atom, Clause, Program, program_text
from chcverify.driver import Config, verify
from chcverify.linalg import (
    EQ,
    LE,
    LT,
    ConstraintSet,
    LinearConstraint,
    ResourceLimitError,
    entails,
    entails_all,
    farkas_refutation,
    is_satisfiable,
    project,
    rat,
    simplify,
)
from chcverify.oracle import bounded_derive
from chcverify.polyhedra import Polyhedron, canonical_args
from chcverify.qa import qa_transform
from chcverify.refine import polyvariant_specialise, split_facts
from chcverify.specialise import strengthen


def _frac(x) -> Fraction:
    return Fraction(int(x.numerator), int(x.denominator))


def _fanout(exc: RuntimeError) -> bool:
    return "derivations" in str(exc)


# ---------------------------------------------------------------------------
# Suite a: linear algebra.
# ---------------------------------------------------------------------------


def _check_certificate(cert, first, second, tag):
    total = {}
    bound = Fraction(0)
    strict = False
    for row, lam in zip(cert.constraints, cert.multipliers):
        lam = _frac(lam)
        assert lam >= 0, f"{tag}: negative multiplier"
        if lam == 0:
            continue
        assert row.rel in (LE, LT), f"{tag}: equality row in certificate"
        for v, c in row.coeffs:
            total[v] = total.get(v, Fraction(0)) + lam * _frac(c)
        bound += lam * _frac(row.bound)
        strict = strict or row.rel == LT
    assert all(c == 0 for c in total.values()), \
        f"{tag}: combination does not cancel the variables"
    assert bound < 0 or (strict and bound <= 0), \
        f"{tag}: combination is not contradictory"
    halves = [{h for c in part for h in c.split_equality()}
              for part in (first, second)]
    for row, part in zip(cert.constraints, cert.parts):
        assert row in halves[part], f"{tag}: certificate row not from its side"


def run_suite_a(n_cases=220, seed=101):
    rng = random.Random(seed)
    grid_points = 0
    refuted = 0
    for case in range(n_cases):
        tag = f"suite a case {case}"
        pool = ["X", "Y", "Z"][:rng.randint(1, 3)]
        cs = random_constraint_set(rng, pool, n=rng.randint(2, 6))
        sat = is_satisfiable(cs)
        assert sat == oracle_sat(cs), f"{tag}: sat mismatch on {cs}"
        probe = random_constraint(rng, pool)
        assert entails(cs, probe) == oracle_entails(cs, probe), \
            f"{tag}: entailment mismatch on {cs} |= {probe}"
        if sat:
            for c in list(cs)[:2]:
                assert entails(cs, c), f"{tag}: set does not entail its member"
            simp = simplify(cs)
            assert entails_all(simp, cs) and entails_all(cs, simp), \
                f"{tag}: simplify changed the meaning of {cs}"
            keep = sorted(rng.sample(pool, k=min(2, len(pool))))
            proj = project(cs, keep)
            assert proj.variables() <= set(keep), f"{tag}: projection kept extras"
            for pt in _int_grid(keep, -2, 2):
                ours = evaluate_all(proj, {v: rat(int(x)) for v, x in pt.items()})
                truth = oracle_sat(cs, pin=pt)
                assert ours == truth, f"{tag}: projection wrong at {pt}"
                grid_points += 1
        else:
            rows = list(cs)
            rng.shuffle(rows)
            k = rng.randint(0, len(rows))
            first = ConstraintSet.make(rows[:k])
            second = ConstraintSet.make(rows[k:])
            _check_refutation(first, second, tag)
            refuted += 1
    return {"cases": n_cases, "grid_points": grid_points, "refutations": refuted}


def _check_refutation(first, second, tag):
    cert = farkas_refutation(first, second)
    _check_certificate(cert, first, second, tag)
    itp = sum_of(cert, {0})
    assert oracle_entails(first, itp), f"{tag}: first part not implied"
    assert not oracle_sat(tuple(second) + (itp,)), \
        f"{tag}: first part consistent with the second set"
    return cert


def _int_grid(names, lo, hi):
    out = [{}]
    for v in names:
        out = [dict(d, **{v: Fraction(x)}) for d in out for x in range(lo, hi + 1)]
    return out


# ---------------------------------------------------------------------------
# Suite b: polyhedra.
# ---------------------------------------------------------------------------


def _random_poly(rng, space):
    return Polyhedron.of(space, random_constraint_set(rng, space))


def _equiv(p, q):
    return p.leq(q) and q.leq(p)


def run_suite_b(n_cases=220, seed=202):
    rng = random.Random(seed)
    hull_checked = 0
    for case in range(n_cases):
        tag = f"suite b case {case}"
        space = canonical_args(rng.randint(1, 3))
        p = _random_poly(rng, space)
        q = _random_poly(rng, space)
        m = p.meet(q)
        h = p.hull(q)
        assert m.leq(p) and m.leq(q), f"{tag}: meet not a lower bound"
        assert p.leq(h) and q.leq(h), f"{tag}: hull not an upper bound"
        assert _equiv(h, q.hull(p)), f"{tag}: hull not commutative"
        grown = p.hull(q)
        w = p.widen(grown)
        assert p.leq(w) and grown.leq(w), f"{tag}: widening lost ground"
        assert _equiv(p.widen(p), p), f"{tag}: widening at a fixpoint moved"
        thresholds = tuple(random_constraint(rng, space) for _ in range(3))
        wu = p.widen(grown, thresholds)
        assert wu.leq(w), f"{tag}: thresholds weakened the widening"
        assert grown.leq(wu), f"{tag}: thresholded widening below its argument"
        for t in thresholds:
            if not p.is_bottom and not grown.is_bottom \
                    and entails(p.constraints, t) and entails(grown.constraints, t):
                assert wu.is_bottom or entails(wu.constraints, t), \
                    f"{tag}: threshold {t} entailed by both sides was dropped"
        # Recycled widening chain must stabilize well within 50 steps.
        stream = [_random_poly(rng, space) for _ in range(4)]
        w = p
        quiet = 0
        for step in range(50):
            nxt = w.widen(w.hull(stream[step % len(stream)]))
            assert w.leq(nxt), f"{tag}: widening chain not increasing"
            quiet = quiet + 1 if _equiv(nxt, w) else 0
            w = nxt
            if quiet >= len(stream):
                break
        assert quiet >= len(stream), f"{tag}: widening chain did not stabilize"
        if len(space) == 2:
            hull_checked += _check_hull_geometry(rng, space, p, q, tag)
    return {"cases": n_cases, "hull_geometry_checks": hull_checked}


def _check_hull_geometry(rng, space, p, q, tag):
    box = Polyhedron.of(space, ConstraintSet.make(
        [LinearConstraint.make({v: rat(s)}, LE, rat(4))
         for v in space for s in (1, -1)]))
    pb = p.meet(box)
    qb = q.meet(box)
    if pb.is_bottom or qb.is_bottom:
        return 0
    ours = pb.hull(qb)
    pts = (vertices(tuple(pb.constraints), space)
           + vertices(tuple(qb.constraints), space))
    hull = convex_hull_2d([(x, y) for x, y in pts])
    closed = ConstraintSet.make([c.closure() for c in ours.constraints])
    for x in range(-5, 6):
        for y in range(-5, 6):
            inside = evaluate_all(closed, {space[0]: rat(x), space[1]: rat(y)})
            truth = in_hull_2d(hull, (Fraction(x), Fraction(y)))
            assert inside == truth, \
                f"{tag}: hull wrong at ({x},{y}): ours {inside}, oracle {truth}"
    return 1


# ---------------------------------------------------------------------------
# Suite c: query-answer transform and strengthening.
# ---------------------------------------------------------------------------


def _qa_trace(t: TraceTerm, parent_q: TraceTerm = TraceTerm("goal")) -> TraceTerm:
    answers = []
    for i, child in enumerate(t.children):
        child_q = TraceTerm(f"{t.clause_id}_q{i + 1}",
                            (parent_q,) + tuple(answers[:i]))
        answers.append(_qa_trace(child, child_q))
    return TraceTerm(f"{t.clause_id}_ans", (parent_q,) + tuple(answers))


def _erase_qa(t: TraceTerm) -> TraceTerm:
    assert t.clause_id.endswith("_ans")
    return TraceTerm(t.clause_id[:-4],
                     tuple(_erase_qa(c) for c in t.children[1:]))


def run_suite_c(n_cases=210, seed=303):
    done = attempts = skipped = 0
    erasures = constructions = 0
    while done < n_cases:
        attempts += 1
        assert attempts < 20 * n_cases, "suite c: too many resource-capped cases"
        rng = random.Random(seed * 1_000_000 + attempts)
        prog = random_program(rng)
        tag = f"suite c attempt {attempts}"
        try:
            qa = qa_transform(prog, FALSE)
            assert len(qa.clauses) == 1 + sum(
                1 + len(cl.body) for cl in prog.clauses), f"{tag}: clause count"
            goal = qa.clauses[0]
            assert goal.id == "goal" and goal.head.pred == "false__q" \
                and not goal.body and len(goal.constraint) == 0, f"{tag}: goal clause"
            for cl in prog.clauses:
                ans = qa.clause(f"{cl.id}_ans")
                assert ans.head.pred == cl.head.pred + "__a", f"{tag}: answer head"
                assert [b.pred for b in ans.body] == \
                    [cl.head.pred + "__q"] + \
                    [b.pred + "__a" for b in cl.body], f"{tag}: answer body"
                for i in range(len(cl.body)):
                    qcl = qa.clause(f"{cl.id}_q{i + 1}")
                    assert qcl.head.pred == cl.body[i].pred + "__q", f"{tag}: query head"
                    assert len(qcl.body) == 1 + i, f"{tag}: query body length"
            base = {t for t, _ in bounded_derive(prog, FALSE, 3)}
            for t in sorted(base, key=str)[:4]:
                tree = build_and_tree(qa, _qa_trace(t))
                assert feasible(tree), f"{tag}: image of {t} infeasible"
                constructions += 1
            try:
                qa_derived = bounded_derive(qa, Atom("false__a", ()), 7)
                deep = {t for t, _ in bounded_derive(prog, FALSE, 7)}
                for t, _ in sorted(qa_derived, key=lambda pair: str(pair[0]))[:6]:
                    assert _erase_qa(t) in deep, f"{tag}: erased {t} underivable"
                    erasures += 1
            except RuntimeError as exc:
                if not _fanout(exc):
                    raise
                skipped += 1
            qa_model, _ = analyze(qa)
            spec = strengthen(prog, qa_model)
            src_ids = [cl.id for cl in prog.clauses]
            kept = {cl.id for cl in spec.clauses}
            assert [cl.id for cl in spec.clauses] == \
                [i for i in src_ids if i in kept], f"{tag}: clause order changed"
            for cl in spec.clauses:
                src = prog.clause(cl.id)
                assert cl.head == src.head and cl.body == src.body, \
                    f"{tag}: strengthening rewrote structure"
                assert entails_all(cl.constraint, src.constraint), \
                    f"{tag}: clause {cl.id} was weakened"
            before = {t for t, _ in bounded_derive(prog, FALSE, 4)}
            after = {t for t, _ in bounded_derive(spec, FALSE, 4)}
            assert before == after, \
                f"{tag}: strengthening changed false derivations: " \
                f"{before ^ after}"
        except ResourceLimitError:
            skipped += 1
            continue
        except RuntimeError as exc:
            if not _fanout(exc):
                raise
            skipped += 1
            continue
        done += 1
    assert constructions >= n_cases // 4, "suite c: too few constructive checks"
    assert erasures >= 100, "suite c: too few erasure checks"
    return {"cases": done, "skipped": skipped,
            "constructions": constructions, "erasures": erasures}


# ---------------------------------------------------------------------------
# Suite d: counterexamples and interpolation.
# ---------------------------------------------------------------------------


def run_suite_d(n_cases=210, seed=404):
    done = attempts = skipped = 0
    pair_checks = tree_checks = labelled = 0
    while done < n_cases:
        attempts += 1
        assert attempts < 20 * n_cases, "suite d: too many resource-capped cases"
        rng = random.Random(seed * 1_000_000 + attempts)
        tag = f"suite d attempt {attempts}"
        try:
            pair_checks += _check_interpolation_pair(rng, tag)
            tree_checks += _check_trace_roundtrip(rng, tag)
            labelled += _check_pipeline_interpolants(rng, tag)
            labelled += _check_constructed_spurious(rng, tag)
            done += 1
        except ResourceLimitError:
            skipped += 1
        except RuntimeError as exc:
            if not _fanout(exc):
                raise
            skipped += 1
    assert pair_checks >= n_cases, "suite d: interpolation pairs missing"
    assert labelled >= n_cases, f"suite d: only {labelled} tree interpolants checked"
    return {"cases": done, "skipped": skipped, "pair_checks": pair_checks,
            "tree_checks": tree_checks, "tree_interpolants": labelled}


def _check_pipeline_interpolants(rng, tag):
    """Run one propagation round; label any spurious trace and check it."""
    prog = random_program(rng, max_clauses=5)
    qa = qa_transform(prog, FALSE)
    qa_model, _ = analyze(qa)
    spec = strengthen(prog, qa_model)
    if not any(cl.is_false_head() for cl in spec.clauses):
        return 0
    model, first = analyze(spec)
    if check_safety(model):
        return 0
    trace = extract_trace(first)
    tree = build_and_tree(spec, trace)
    if feasible(tree):
        return 0
    interp = tree_interpolants(tree)
    return check_tree_interpolant_conditions(tree, interp, tag)


def _off_grid_loop(rng):
    """A counter loop asked about a point between two reachable values.

    Concretely p holds exactly on the arithmetic progression a, a+s, ...,
    so the query point a + s*t + s/2 is unreachable; the convex hull of the
    progression contains it, which forces a spurious counterexample.  t >= 1
    keeps the gap past the first join, where the hull has lost the grid."""
    a, t = rng.randint(-5, 5), rng.randint(1, 3)
    s = rng.randint(1, 4) * rng.choice((1, -1))
    init = Clause("c1", Atom("p", ("X",)), ConstraintSet.make(
        [LinearConstraint.make({"X": rat(1)}, EQ, rat(a))]), ())
    step = Clause("c2", Atom("p", ("Y",)), ConstraintSet.make(
        [LinearConstraint.make({"Y": rat(1), "X": rat(-1)}, EQ, rat(s))]),
        (Atom("p", ("X",)),))
    goal = Clause("c3", FALSE, ConstraintSet.make(
        [LinearConstraint.make({"X": rat(2)}, EQ, rat(2 * a + 2 * s * t + s))]),
        (Atom("p", ("X",)),))
    return Program((init, step, goal))


def _check_constructed_spurious(rng, tag):
    """The off-grid loop must reach interpolation and satisfy the laws."""
    prog = _off_grid_loop(rng)
    qa = qa_transform(prog, FALSE)
    qa_model, _ = analyze(qa)
    spec = strengthen(prog, qa_model)
    model, first = analyze(spec)
    assert not check_safety(model), f"{tag}: hull unexpectedly avoids the gap"
    tree = build_and_tree(spec, extract_trace(first))
    assert not feasible(tree), f"{tag}: off-grid point claimed reachable"
    interp = tree_interpolants(tree)
    return check_tree_interpolant_conditions(tree, interp, tag)


def _check_interpolation_pair(rng, tag):
    shared = ["S1", "S2"][:rng.randint(1, 2)]
    c1 = random_constraint_set(rng, shared + ["U"])
    c2 = random_constraint_set(rng, shared + ["W"])
    if is_satisfiable(c1 & c2):
        v = rng.choice(shared)
        b = rng.randint(-3, 3)
        c1 = c1.add(LinearConstraint.make({v: rat(1)}, LE, rat(b)))
        c2 = c2.add(LinearConstraint.make({v: rat(-1)}, LE, rat(-(b + 1))))
    assert not oracle_sat(c1 & c2), f"{tag}: seeded pair still satisfiable"
    itp = interpolate(sum_of(farkas_refutation(c1, c2), {0}), shared)
    assert itp.variables() <= set(shared), f"{tag}: interpolant leaks locals"
    try:
        assert oracle_entails(c1, itp), f"{tag}: interpolant not implied"
        assert not oracle_sat(tuple(c2) + (itp,)), f"{tag}: interpolant too weak"
    except OracleRangeError:
        # Farkas combinations can overflow the oracle's exact range; the
        # simplex checks below are then backed by the certificate's exact
        # re-check in `farkas_refutation`.
        assert entails(c1, itp), f"{tag}: interpolant not implied"
        assert not is_satisfiable(c2.add(itp)), f"{tag}: interpolant too weak"
    return 1


def _check_trace_roundtrip(rng, tag):
    prog = random_program(rng)
    derivations = bounded_derive(prog, FALSE, 3)
    checked = 0
    for t, _ in sorted(derivations, key=lambda pair: str(pair[0]))[:3]:
        tree = build_and_tree(prog, t)
        assert tr(tree) == t, f"{tag}: trace round-trip failed for {t}"
        assert feasible(tree), f"{tag}: enumerated derivation infeasible"
        checked += 1
        broken = TraceTerm(t.clause_id,
                           t.children + (TraceTerm(t.clause_id),))
        try:
            build_and_tree(prog, broken)
        except (ValueError, KeyError):
            pass
        else:
            raise AssertionError(f"{tag}: arity mismatch accepted")
    try:
        build_and_tree(prog, TraceTerm("nonexistent"))
    except KeyError:
        pass
    else:
        raise AssertionError(f"{tag}: unknown clause id accepted")
    return checked


def check_tree_interpolant_conditions(tree, interp, tag, use_oracle=True):
    """The three conditions, checked against the whole tree."""
    order = []
    rows_of = {}

    def walk(n):
        for c in n.children:
            walk(c)
        order.append(n)
        rows_of[id(n)] = list(n.clause.constraint) + \
            [r for c in n.children for r in rows_of[id(c)]]

    walk(tree)
    assert len(interp.facts) == len(order) - 1, f"{tag}: wrong interpolant count"
    for (atom, cs), node in zip(interp.facts, order[:-1]):
        assert atom == node.atom, f"{tag}: interpolant order mismatch"
        assert cs.variables() <= set(atom.args), f"{tag}: interface violated"
        sub = ConstraintSet.make(rows_of[id(node)])
        sub_ids = set()

        def mark(n):
            sub_ids.add(id(n))
            for c in n.children:
                mark(c)

        mark(node)
        outside = [r for n in order if id(n) not in sub_ids
                   for r in n.clause.constraint]
        for c in cs:
            if use_oracle:
                try:
                    assert oracle_entails(sub, c), f"{tag}: subtree does not imply {c}"
                except OracleRangeError:
                    assert entails(sub, c), f"{tag}: subtree does not imply {c}"
            else:
                assert entails(sub, c), f"{tag}: subtree does not imply {c}"
        rest = ConstraintSet.make(outside + list(cs))
        assert not is_satisfiable(rest), \
            f"{tag}: interpolant at {atom} consistent with the rest"
        try:
            assert not oracle_sat(rest), \
                f"{tag}: oracle says interpolant at {atom} is consistent with the rest"
        except OracleRangeError:
            pass
    return len(interp.facts)


# ---------------------------------------------------------------------------
# Suite e: splitting and polyvariant specialisation.
# ---------------------------------------------------------------------------


def _random_interpolant(rng, program):
    facts = []
    preds = [(p, a) for p, a in program.predicates.items() if p != FALSE.pred]
    for p, arity in preds:
        if rng.random() < 0.6:
            args = canonical_args(arity)
            facts.append((Atom(p, args),
                          random_constraint_set(rng, args, n=rng.randint(1, 2))))
    if not facts:
        return None
    return TreeInterpolant(tuple(facts))


def _erase_versions(t: TraceTerm) -> TraceTerm:
    return TraceTerm(t.clause_id.split("_")[0],
                     tuple(_erase_versions(c) for c in t.children))


def run_suite_e(n_cases=210, seed=505):
    done = attempts = skipped = 0
    coverage_points = 0
    while done < n_cases:
        attempts += 1
        assert attempts < 20 * n_cases, "suite e: too many resource-capped cases"
        rng = random.Random(seed * 1_000_000 + attempts)
        tag = f"suite e attempt {attempts}"
        prog = random_program(rng)
        try:
            model, _ = analyze(prog)
            interp = _random_interpolant(rng, prog)
            split = split_facts(prog, model, interp)
            for pred, arity in prog.predicates.items():
                if pred == FALSE.pred:
                    continue
                fact = model.value(pred, arity)
                cells = split.parts[pred]
                assert cells, f"{tag}: no cells for {pred}"
                for cell in cells:
                    assert cell.leq(fact), f"{tag}: cell of {pred} outside its fact"
                assert _equiv(functools.reduce(Polyhedron.hull, cells), fact), \
                    f"{tag}: cells of {pred} hull differently from the fact"
                if not fact.is_bottom:
                    for pt in _int_grid(list(fact.space), -3, 3):
                        point = {v: rat(int(x)) for v, x in pt.items()}
                        if not evaluate_all(fact.constraints, point):
                            continue
                        coverage_points += 1
                        assert any(not c.is_bottom and evaluate_all(c.constraints, point)
                                   for c in cells), \
                            f"{tag}: point {point} of {pred} not covered"
            ps, origin = polyvariant_specialise(prog, split)
            ps2, _ = polyvariant_specialise(prog, split)
            assert program_text(ps) == program_text(ps2), f"{tag}: non-deterministic"
            for name, (src, k) in origin.items():
                assert ps.predicates[name] == prog.predicates[src], \
                    f"{tag}: version {name} changed arity"
                assert 1 <= k <= len(split.parts[src]) + 1, f"{tag}: bad cell index"
            before = {t for t, _ in bounded_derive(prog, FALSE, 4)}
            after = {_erase_versions(t)
                     for t, _ in bounded_derive(ps, FALSE, 4)}
            assert before == after, \
                f"{tag}: specialisation changed false derivations: {before ^ after}"
        except ResourceLimitError:
            skipped += 1
            continue
        except RuntimeError as exc:
            if not _fanout(exc):
                raise
            skipped += 1
            continue
        done += 1
    return {"cases": done, "skipped": skipped, "coverage_points": coverage_points}


# ---------------------------------------------------------------------------
# Suite f: the driver.
# ---------------------------------------------------------------------------


def run_suite_f(n_cases=205, seed=606):
    done = attempts = skipped = 0
    verdicts = {"safe": 0, "unsafe": 0, "unknown": 0}
    while done < n_cases:
        attempts += 1
        assert attempts < 20 * n_cases, "suite f: too many resource-capped cases"
        rng = random.Random(seed * 1_000_000 + attempts)
        tag = f"suite f attempt {attempts}"
        prog = random_program(rng, max_clauses=5)
        try:
            truth = bounded_derive(prog, FALSE, 5)
        except RuntimeError as exc:
            if not _fanout(exc):
                raise
            skipped += 1
            continue
        verdict = verify(prog, Config(max_refinements=2))
        verdicts[verdict.kind] += 1
        if truth:
            assert verdict.kind != "safe", \
                f"{tag}: program with a depth-5 derivation of false called safe"
        if verdict.kind == "safe":
            assert check_safety(verdict.model), f"{tag}: safe without a safe model"
            assert is_inductive_model(verdict.program, verdict.model), \
                f"{tag}: safe verdict with a non-inductive model"
        elif verdict.kind == "unsafe":
            tree = build_and_tree(verdict.program, verdict.trace)
            assert feasible(tree), f"{tag}: unsafe witness infeasible"
        done += 1
    return {"cases": done, "skipped": skipped, "verdicts": verdicts}
