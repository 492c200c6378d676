"""Exact rational constraints, satisfiability, projection, refutations."""

import itertools
import random
from fractions import Fraction

import pytest

from chcverify import linalg
from chcverify.linalg import (
    EQ,
    FALSE_CONSTRAINT,
    FALSE_SET,
    LE,
    LT,
    TRUE,
    ConstraintSet,
    LinearConstraint,
    ResourceLimitError,
    entails,
    entails_all,
    farkas_refutation,
    is_satisfiable,
    project,
    rat,
    renamed,
    simplify,
    solve_lp,
)

from oracles import evaluate, evaluate_all, oracle_entails, oracle_sat, sum_of


def C(coeffs, rel, b):
    return LinearConstraint.make({k: rat(v) for k, v in coeffs.items()}, rel, rat(b))


def S(*constraints):
    return ConstraintSet.make(constraints)


def implies_without(t, c, k):
    """Do the rows of `t`, less the k-th, entail `c`? Asked on a copy."""
    t = t.copy()
    t.relax(k)
    return t.implies(c)


class TestCanonicalForm:
    def test_coefficients_scaled_to_coprime_integers(self):
        c = LinearConstraint.make({"X": rat(2, 3), "Y": rat(-4, 3)}, LE, rat(2))
        assert str(c) == "1*X+ -2*Y =< 3"

    def test_equality_sign_is_normalized(self):
        a = C({"X": -2, "Y": 2}, EQ, -4)
        b = C({"X": 1, "Y": -1}, EQ, 2)
        assert a == b

    def test_zero_coefficients_dropped(self):
        c = LinearConstraint.make({"X": rat(0), "Y": rat(1)}, LE, rat(1))
        assert c.variables() == frozenset({"Y"})

    def test_relation_symbols(self):
        assert str(C({"X": 1}, LE, 0)) == "1*X =< 0"
        assert str(C({"X": 1}, LT, 0)) == "1*X < 0"
        assert str(C({"X": 1}, EQ, 0)) == "1*X = 0"

    def test_negations_cover_the_complement(self):
        le = C({"X": 1}, LE, 2)
        assert le.negations() == (C({"X": -1}, LT, -2),)
        eq = C({"X": 1}, EQ, 2)
        assert set(eq.negations()) == {C({"X": 1}, LT, 2), C({"X": -1}, LT, -2)}

    def test_closure_drops_strictness(self):
        assert C({"X": 1}, LT, 2).closure() == C({"X": 1}, LE, 2)
        assert C({"X": 1}, EQ, 2).closure() == C({"X": 1}, EQ, 2)

    def test_split_equality(self):
        halves = C({"X": 1, "Y": 1}, EQ, 3).split_equality()
        assert set(halves) == {C({"X": 1, "Y": 1}, LE, 3),
                               C({"X": -1, "Y": -1}, LE, -3)}

    def test_evaluate(self):
        c = C({"X": 2, "Y": -1}, LT, 5)
        assert evaluate(c, {"X": rat(1), "Y": rat(0)})
        assert not evaluate(c, {"X": rat(3), "Y": rat(1)})


class TestConstraintSet:
    def test_make_dedups_and_sorts(self):
        a, b = C({"X": 1}, LE, 1), C({"Y": 1}, LE, 2)
        assert tuple(S(a, b, a)) == tuple(S(b, a))

    def test_trivially_true_rows_are_dropped(self):
        assert len(S(C({}, LE, 5), C({"X": 1}, LE, 1))) == 1
        assert len(S(C({"X": 0}, LT, 1))) == 0

    def test_trivially_false_row_is_kept(self):
        false = C({}, LE, -1)
        assert false.is_trivially_false()
        assert S(false).constraints == (false,)
        assert FALSE_SET.constraints == (false,)

    def test_rename_is_simultaneous(self):
        cs = S(C({"X": 1, "Y": -1}, LE, 0))
        swapped = cs.rename({"X": "Y", "Y": "X"})
        assert str(swapped) == "-1*X+ 1*Y =< 0"

    def test_true_set_is_empty(self):
        assert len(TRUE) == 0
        assert is_satisfiable(TRUE)


class TestSatisfiability:
    def test_boundary_of_a_strict_inequality(self):
        # X <= 0 & X >= 0 is the point 0; making one side strict empties it
        assert is_satisfiable(S(C({"X": 1}, LE, 0), C({"X": -1}, LE, 0)))
        assert not is_satisfiable(S(C({"X": 1}, LT, 0), C({"X": -1}, LE, 0)))

    def test_strict_chain_with_no_witness(self):
        assert not is_satisfiable(S(C({"X": 1}, LT, 0), C({"X": -1}, LT, 0)))

    def test_equality_propagation(self):
        cs = S(C({"X": 1, "Y": -1}, EQ, 0), C({"Y": 1, "Z": -1}, EQ, 0),
               C({"X": 1, "Z": -1}, EQ, 1))
        assert not is_satisfiable(cs)

    def test_unbounded_directions_are_fine(self):
        assert is_satisfiable(S(C({"X": 1, "Y": 1}, LE, -100)))

    def test_agreement_with_vertex_oracle_on_a_tight_case(self):
        cs = S(C({"X": 2, "Y": 3}, LE, 6), C({"X": -1}, LT, 0),
               C({"Y": -1}, LT, 0), C({"X": -3, "Y": -2}, LE, -6))
        assert is_satisfiable(cs) == oracle_sat(cs)


class TestEntailment:
    def test_weakening_a_bound(self):
        assert entails(S(C({"X": 1}, LE, 1)), C({"X": 1}, LE, 2))
        assert not entails(S(C({"X": 1}, LE, 2)), C({"X": 1}, LE, 1))
        # a parallel twin with a tighter bound, next to an unrelated row
        x = {"X": 1, "Y": -2}
        for row, query in ((C(x, LE, 1), C(x, LE, 2)), (C(x, LT, 1), C(x, LT, 2)),
                           (C(x, LE, 1), C(x, LT, 2))):
            assert entails(S(row, C({"Y": 1}, LE, 7)), query)
        assert not entails(S(C(x, LE, 2), C({"Y": 1}, LE, 7)), C(x, LE, 1))

    def test_strict_from_nonstrict_fails(self):
        assert not entails(S(C({"X": 1}, LE, 1)), C({"X": 1}, LT, 1))
        assert entails(S(C({"X": 1}, LT, 1)), C({"X": 1}, LE, 1))
        x = {"X": 1, "Y": -2}
        assert not entails(S(C(x, LE, 1), C({"Y": 1}, LE, 7)), C(x, LT, 1))
        assert entails(S(C(x, LT, 1), C({"Y": 1}, LE, 7)), C(x, LE, 1))
        assert entails(S(C(x, LT, 1), C({"Y": 1}, LE, 7)), C(x, LT, 1))

    def test_combination_of_rows(self):
        cs = S(C({"X": 1, "Y": -1}, LE, 0), C({"Y": 1, "Z": -1}, LE, 0))
        assert entails(cs, C({"X": 1, "Z": -1}, LE, 0))
        assert oracle_entails(cs, C({"X": 1, "Z": -1}, LE, 0))

    def test_everything_follows_from_false(self):
        assert entails(FALSE_SET, C({"X": 1}, LT, -10))

    def test_entails_all(self):
        cs = S(C({"X": 1}, EQ, 3))
        assert entails_all(cs, S(C({"X": 1}, LE, 3), C({"X": -1}, LE, -3)))
        assert not entails_all(cs, S(C({"X": 1}, LT, 3)))
        # an equality against each of its halves, and against its twins
        assert entails_all(cs, S(C({"X": 1}, LT, 4), C({"X": 1}, EQ, 3)))
        assert not entails(cs, C({"X": -1}, LT, -3))
        assert not entails(cs, C({"X": 1}, EQ, 4))
        assert not entails(S(C({"X": 1}, LE, 3)), C({"X": 1}, EQ, 3))


class TestProjection:
    def test_interval_shadow_of_a_triangle(self):
        cs = S(C({"X": 1, "Y": 1}, LE, 2), C({"X": -1, "Y": 1}, LE, 0),
               C({"Y": -1}, LE, 0))
        shadow = project(cs, ("X",))
        assert str(shadow) == "-1*X =< 0, 1*X =< 2"

    def test_equalities_substitute_instead_of_doubling(self):
        cs = S(C({"X": 1, "Y": -2}, EQ, 0), C({"Y": 1}, LE, 3))
        assert str(project(cs, ("X",))) == "1*X =< 6"

    def test_strictness_survives_elimination(self):
        cs = S(C({"X": 1, "Y": -1}, LT, 0), C({"Y": 1, "Z": -1}, LE, 0))
        out = project(cs, ("X", "Z"))
        assert tuple(out) == (C({"X": 1, "Z": -1}, LT, 0),)

    def test_unconstrained_result_is_true(self):
        assert len(project(S(C({"Y": 1}, LE, 1)), ("X",))) == 0

    def test_projection_of_empty_set_is_empty(self):
        out = project(S(C({"X": 1}, LT, 0), C({"X": -1}, LT, 0)), ())
        assert not is_satisfiable(out)

    # dense rows over many variables blow past a tiny step budget
    DENSE = [C({f"V{i}": 1, f"V{i+1}": (-1) ** i, f"V{i+2}": 2}, LE, i)
             for i in range(12)]

    def test_step_limit_raises(self, monkeypatch):
        linalg.reset_caches()
        monkeypatch.setattr(linalg, "FM_LIMIT", 5)
        with pytest.raises(ResourceLimitError):
            project(S(*self.DENSE), ("V0",))

    def test_repeated_projection_is_a_cache_hit(self):
        linalg.reset_caches()
        cs = S(C({"X": 1, "Y": -2}, EQ, 0), C({"Y": 1}, LE, 3))
        first = project(cs, ("X",))
        assert project(cs, ["X"]) is first
        info = linalg._project_cached.cache_info()
        assert (info.misses, info.hits) == (1, 1)


class TestProjectionPruning:
    """Projections with an elimination step that leaves more than 12 rows,
    which `simplify` prunes, judged on an integer grid by vertex
    enumeration."""

    @pytest.fixture
    def pruned(self, monkeypatch):
        """The (input, output) of each `simplify` call, the prunes of
        `project` among them."""
        linalg.reset_caches()
        calls = []
        real = linalg.simplify

        def recording(cs):
            out = real(cs)
            calls.append((cs, out))
            return out

        monkeypatch.setattr(linalg, "simplify", recording)
        yield calls
        linalg.reset_caches()

    @staticmethod
    def judge(cs, keep, tag):
        """Check `project(cs, keep)` at every point of the grid -2..2 over
        `keep`; the number of points where it holds."""
        out = project(cs, keep)
        assert out.variables() <= set(keep), tag
        inside = 0
        for values in itertools.product(range(-2, 3), repeat=len(keep)):
            pt = {v: Fraction(x) for v, x in zip(keep, values)}
            truth = oracle_sat(cs, pin=pt)
            assert evaluate_all(out, pt) == truth, f"{tag}: wrong at {pt}"
            inside += truth
        return inside

    def test_random_sets(self, pruned):
        rng = random.Random(7)
        names = ("W", "X", "Y", "Z")
        branch = substituted = emptied = inside = outside = 0
        for case in range(32):
            keep = sorted(rng.sample(names, rng.randint(1, 2)))
            rows = [C({v: rng.randint(-3, 3) for v in names if rng.random() < 0.7},
                      rng.choice((LE, LE, LE, LT)), rng.randint(0, 6))
                    for _ in range(rng.randint(9, 12))]
            # Two opposite rows on an eliminated variable: an implied
            # equality that a prune may find, or with one of them strict,
            # a set whose closure is not empty but which has no point.
            var = rng.choice([v for v in names if v not in keep])
            b, extra = rng.randint(-2, 2), rng.choice(((), (LE, LE), (LT, LE)))
            rows += [C({var: sign}, rel, sign * b)
                     for sign, rel in zip((1, -1), extra)]
            cs = S(*rows)
            first = len(pruned)
            n = self.judge(cs, keep, f"case {case}: {cs} onto {keep}")
            inside += n
            outside += 5 ** len(keep) - n
            prunes = pruned[first:]
            branch += bool(prunes)
            emptied += any(out == FALSE_SET for _, out in prunes)
            substituted += any(c.rel == EQ and not c.variables() <= set(keep)
                               for _, out in prunes for c in out)
        assert all(len(cs) > 12 for cs, _ in pruned)
        assert branch >= 24 and substituted >= 5 and emptied >= 8
        assert inside >= 100 and outside >= 300

    def test_strictly_unsatisfiable_step_gives_false(self, pruned):
        # X < 0 and X >= 0 have the closure X = 0 and no point. Eliminating
        # Y, Z and W leaves them in place, beside more than 12 rows after
        # the first step; that step's prune finds the set empty.
        ups = [(1, 0), (0, 1), (2, 1), (1, 3), (-1, 2)]
        lows = [(-1, 1), (1, -1), (-2, -1), (0, -2), (3, 1)]
        cs = S(C({"X": 1}, LT, 0), C({"X": 1}, ">=", 0),
               *(C({"Y": 1, "Z": a, "W": b}, LE, 1) for a, b in ups),
               *(C({"Y": -1, "Z": a, "W": b}, LE, 1) for a, b in lows))
        assert self.judge(cs, ["X"], str(cs)) == 0
        assert project(cs, ["X"]) == FALSE_SET
        assert [out for _, out in pruned] == [FALSE_SET]


class TestDoubleDescription:
    def test_the_orthant_has_the_unit_rays(self):
        rows = [((-1, 0, 0), False), ((0, -1, 0), False), ((0, 0, -1), False)]
        lines, rays = linalg._double_description(3, rows)
        assert lines == () and sorted(rays) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]

    def test_a_half_plane_keeps_a_line(self):
        lines, rays = linalg._double_description(2, [((1, 1), False)])
        assert lines == ((-1, 1),) and rays == ((-1, 0),)

    def test_an_equality_leaves_no_ray(self):
        lines, rays = linalg._double_description(2, [((1, -1), True)])
        assert lines == ((1, 1),) and rays == ()

    # x, y, z in [-t, t]: the cone over a cube, with z <= t given twice
    CUBE = [((1, 0, 0, -1), False), ((-1, 0, 0, -1), False),
            ((0, 1, 0, -1), False), ((0, -1, 0, -1), False),
            ((0, 0, 1, -1), False), ((0, 0, 2, -2), False),
            ((0, 0, -1, -1), False)]

    def test_the_cube_has_its_corners(self):
        lines, rays = linalg._double_description(4, self.CUBE)
        assert lines == ()
        assert sorted(rays) == sorted(
            (x, y, z, 1) for x in (-1, 1) for y in (-1, 1) for z in (-1, 1))

    def test_a_cut_across_a_face_adds_no_ray(self):
        # x + y <= 0 cuts the top face along its diagonal. The two corners
        # on either side share two rows, the top face's, which is as many
        # as an edge needs here; only the two other corners of that face,
        # tight on both rows too, show that the pair is not an edge.
        cut = ((1, 1, 0, 0), False)
        lines, rays = linalg._double_description(4, self.CUBE + [cut])
        assert lines == ()
        assert sorted(rays) == sorted(
            (x, y, z, 1) for x, y in ((-1, -1), (-1, 1), (1, -1)) for z in (-1, 1))

    def test_the_cap_raises(self, monkeypatch):
        monkeypatch.setattr(linalg, "FM_LIMIT", 7)
        with pytest.raises(ResourceLimitError, match="double description"):
            linalg._double_description(4, self.CUBE)

    def test_generators_per_space_and_hulls_cached_per_pair(self):
        cs = S(C({"X": 1}, LE, 2), C({"X": -1}, LT, 0))
        lines, rays = linalg._generators(cs, ("X",))
        assert lines == () and sorted(rays) == [(0, 1), (2, 1)]  # 0 and 2
        assert linalg._generators(cs, ("X", "Y"))[0] == ((0, 1, 0),)
        # the hull is cached per ordered pair of sets and space
        linalg.reset_caches()
        five = S(C({"X": 1}, EQ, 5))
        first = linalg.convex_hull(cs, five, ("X",))
        assert linalg.convex_hull(cs, five, ("X",)) is first
        assert str(first) == "-1*X < 0, 1*X =< 5"  # both entail X > 0
        assert linalg.convex_hull(cs, five, ("X", "Y")) == first
        assert linalg.convex_hull(five, cs, ("X",)) == first
        info = linalg.convex_hull.cache_info()
        assert (info.misses, info.hits) == (3, 1)


class TestSimplify:
    def test_entailed_rows_are_removed(self):
        cs = S(C({"X": 1}, LE, 1), C({"X": 1}, LE, 2), C({"X": 2}, LE, 2))
        assert str(simplify(cs)) == "1*X =< 1"

    def test_opposing_inequalities_become_an_equality(self):
        cs = S(C({"X": 1, "Y": 1}, LE, 2), C({"X": -1, "Y": -1}, LE, -2))
        assert tuple(simplify(cs)) == (C({"X": 1, "Y": 1}, EQ, 2),)

    def test_unsatisfiable_input_collapses(self):
        cs = S(C({"X": 1}, LT, 0), C({"X": -1}, LT, 0))
        assert simplify(cs) == FALSE_SET


def lp_constraints(rows):
    """The LP's feasible region as constraints, sign bounds included."""
    out = [LinearConstraint.make({v: rat(k) for v, k in coeffs.items()}, rel, rat(b))
           for coeffs, rel, b in rows]
    out += [C({v: -1}, LE, 0) for v in sorted({v for c, _, _ in rows for v in c})]
    return out


class TestSolveLP:
    """The simplex kernel itself, judged by vertex enumeration; every
    variable is non-negative."""

    def check_point(self, rows, variables):
        assert oracle_sat(lp_constraints(rows))
        point = solve_lp(rows)
        assert set(point) == set(variables)
        assert evaluate_all(lp_constraints(rows), point)

    def test_fractional_rows_give_an_exact_point(self):
        rows = [({"X": rat(1, 2), "Y": rat(1, 3)}, EQ, rat(5, 6)),
                ({"X": 3, "Y": -2}, LE, rat(1, 4))]
        self.check_point(rows, ["X", "Y"])

    def test_infeasible(self):
        rows = [({"X": 1, "Y": 1}, LE, -1)]
        assert not oracle_sat(lp_constraints(rows))
        assert solve_lp(rows) is None

    def test_equality_with_negative_rhs(self):
        # X - Y = -2 enters with an artificial and a phase 1
        rows = [({"X": 1, "Y": -1}, EQ, -2), ({"X": 1, "Y": 1}, LE, 4),
                ({"X": -1}, LE, 3)]
        self.check_point(rows, ["X", "Y"])

    def test_leftover_artificial_driven_out_by_a_negative_entry(self):
        # An equality with right-hand side 0 ends its phase 1 with the
        # artificial basic at level 0. X + Y = 0 pivots it out on X; once
        # X >= 1 has made X basic, X - Y = 1 reduces to -Y + s = 0, and the
        # pivot entry on Y is negative.
        rows = [({"X": -1, "Y": -1}, EQ, 0), ({"X": 1, "Y": 1, "Z": 1}, LE, 2)]
        self.check_point(rows, ["X", "Y", "Z"])
        rows = [({"X": -1}, LE, -1), ({"X": 1, "Y": -1}, EQ, 1)]
        self.check_point(rows, ["X", "Y"])

    def test_degenerate_tie_in_the_ratio_test(self):
        # the phase 1 of X >= 1 enters X, and all three rows allow exactly
        # X = 1
        rows = [({"X": 1}, LE, 1), ({"X": 1, "Y": 1}, LE, 1), ({"X": -1}, LE, -1)]
        self.check_point(rows, ["X", "Y"])
        assert solve_lp(rows) == {"X": 1, "Y": 0}

    def test_point_satisfies_every_row(self):
        rows = [({"X": 1, "Y": 1}, EQ, 3), ({"X": 1, "Y": -1}, LE, -1)]
        self.check_point(rows, ["X", "Y"])

    def test_unknown_relation_is_rejected(self):
        with pytest.raises(ValueError):
            solve_lp([({"X": 1}, LT, 1)])

    def test_random_programs_agree_with_vertex_enumeration(self):
        rng = random.Random(2014)
        seen = set()
        for case in range(300):
            variables = sorted(rng.sample(("X", "Y", "Z"), rng.randint(1, 3)))
            rows = []
            for _ in range(rng.randint(1, 5)):
                coeffs = {v: rat(rng.randint(-3, 3)) for v in variables}
                rows.append((coeffs, rng.choice((LE, LE, EQ)),
                             rat(rng.randint(-4, 4))))
            point = solve_lp(rows)
            seen.add(point is None)
            tag = f"case {case}: {rows}"
            assert (point is None) == (not oracle_sat(lp_constraints(rows))), tag
            if point is not None:
                assert evaluate_all(lp_constraints(rows), point), tag
        assert seen == {True, False}


class TestFarkasRefutation:
    def test_multipliers_reproduce_the_contradiction(self):
        two = (S(C({"X": 1}, LE, 1)), S(C({"X": -1}, LE, -3)))
        # X = 0 is held by parts 0 and 2: it enters once for each, as halves.
        three = (S(C({"X": 1}, EQ, 0), C({"U": 1, "X": -1}, LE, 0)),
                 S(C({"U": -1}, LE, -1)),
                 S(C({"X": 1}, EQ, 0)))
        for parts in (two, three):
            cert = farkas_refutation(*parts)
            assert cert.derived.is_constant() and cert.derived.is_trivially_false()
            assert all(m >= 0 for m in cert.multipliers)
            assert len(cert.constraints) == len(cert.parts) == len(cert.multipliers)
            for k, part in enumerate(parts):
                rows = [r for r, p in zip(cert.constraints, cert.parts) if p == k]
                assert rows == [h for c in part for h in c.split_equality()]
        assert cert.parts == (0, 0, 0, 1, 2, 2)

    def test_first_part_is_an_interpolant(self):
        first = S(C({"X": 1, "U": 1}, LE, 0), C({"U": -1}, LE, 0))
        second = S(C({"X": -1, "W": 1}, LE, -1), C({"W": -1}, LE, 0))
        cert = farkas_refutation(first, second)
        itp = sum_of(cert, {0})
        assert itp.variables() <= {"X"}
        assert entails(first, itp)
        assert not is_satisfiable(second.add(itp))

    def test_equalities_enter_as_halves(self):
        cert = farkas_refutation(S(C({"X": 1}, EQ, 0)), S(C({"X": 1}, EQ, 1)))
        assert all(c.rel in (LE, LT) for c in cert.constraints)

    def test_satisfiable_union_is_rejected(self):
        with pytest.raises(ValueError):
            farkas_refutation(S(C({"X": 1}, LE, 1)), S(C({"X": -1}, LE, 0)))

    def test_a_certificate_that_does_not_refute_raises(self, monkeypatch):
        # all-zero multipliers derive 0 <= 0, which is no contradiction
        monkeypatch.setattr(linalg, "solve_lp", lambda rows: {})
        with pytest.raises(RuntimeError, match="re-multiply"):
            farkas_refutation(S(C({"X": 1}, LE, 1)), S(C({"X": -1}, LE, -3)))

    def test_a_negative_multiplier_raises(self, monkeypatch):
        # 2*(X =< 1) + (-X =< -3) - (X =< 5) derives 0 =< -6, but with a
        # negative weight, which no inequality may take
        monkeypatch.setattr(linalg, "solve_lp",
                            lambda rows: {"$l0": 2, "$l1": 1, "$l2": -1})
        with pytest.raises(RuntimeError, match="re-multiply"):
            farkas_refutation(S(C({"X": 1}, LE, 1)),
                              S(C({"X": -1}, LE, -3), C({"X": 1}, LE, 5)))

    def test_the_certificate_is_summed_once(self, monkeypatch):
        # The re-check reads the one stored sum instead of summing again.
        calls = []
        weighted_sum = linalg._weighted_sum
        monkeypatch.setattr(linalg, "_weighted_sum",
                            lambda *args: calls.append(args) or weighted_sum(*args))
        for k in (1, 2, 3):
            cert = farkas_refutation(S(C({"X": 1}, LE, 1)), S(C({"X": -1}, LE, -3)))
            assert len(calls) == k
        assert cert.derived == weighted_sum(cert.constraints, cert.multipliers)
        assert cert.derived == sum_of(cert)
        assert cert.derived.is_trivially_false()

    def test_no_certificate_raises(self, monkeypatch):
        # One LP decides both kinds of certificate, so a kernel that finds
        # none fails the same way with strict rows and without.
        monkeypatch.setattr(linalg, "solve_lp", lambda rows: None)
        with pytest.raises(RuntimeError, match="Motzkin"):
            farkas_refutation(S(C({"X": 1}, LT, 0)), S(C({"X": -1}, LT, 0)))
        with pytest.raises(RuntimeError, match="Motzkin"):
            farkas_refutation(S(C({"X": 1}, LE, 1)), S(C({"X": -1}, LE, -3)))

    @pytest.mark.parametrize("parts", [
        (S(C({"X": 1}, LE, 1)), S(C({"X": -1}, LE, -3))),
        (S(C({"X": 1}, LT, 0)), S(C({"X": -1}, LT, 0)))],
        ids=["negative-bound", "strict-only"])
    def test_one_refutation_is_one_lp(self, monkeypatch, parts):
        # Motzkin's two kinds of certificate are the solutions of one
        # system: the strict-only refutation, whose bounds sum to 0, needs
        # no second LP after the negative-bound one fails.
        calls = []
        solve_lp = linalg.solve_lp
        monkeypatch.setattr(linalg, "solve_lp",
                            lambda rows: calls.append(rows) or solve_lp(rows))
        cert = farkas_refutation(*parts)
        assert len(calls) == 1
        assert cert.derived.is_trivially_false()
        assert all(m >= 0 for m in cert.multipliers)


def test_false_constraint_is_constant_and_false():
    assert FALSE_CONSTRAINT.is_constant()
    assert FALSE_CONSTRAINT.is_trivially_false()
    assert not is_satisfiable(S(FALSE_CONSTRAINT))


def test_rat_accepts_pairs_and_strings():
    assert rat(1, 3) + rat(2, 3) == rat(1)
    assert rat("7/2") == rat(7, 2)
    assert rat(2, 3) == Fraction(2, 3)
    for text, value in (("3", Fraction(3)), ("-3", Fraction(-3)),
                        ("+3", Fraction(3)), ("-7/2", Fraction(-7, 2)),
                        ("0.25", Fraction(1, 4)), ("-0.25", Fraction(-1, 4)),
                        ("10.125", Fraction(81, 8)), (".5", Fraction(1, 2)),
                        ("-.5", Fraction(-1, 2)), ("1.", Fraction(1))):
        assert rat(text) == value, text


def assert_int_form(c):
    """Every coefficient, and the bound of a non-constant row, is an int."""
    assert all(type(k) is int for _, k in c.coeffs), c
    if c.coeffs:
        assert type(c.bound) is int, c


class TestIntegerStorage:
    def test_make_from_fractions_stores_ints(self):
        c = LinearConstraint.make(
            {"X": Fraction(1, 2), "Y": Fraction(-3, 4)}, LE, Fraction(5, 6))
        assert_int_form(c)
        assert c.coeffs == (("X", 6), ("Y", -9)) and c.bound == 10

    def test_make_from_strings_stores_ints(self):
        c = LinearConstraint.make({"X": "1/2", "Y": "0.25"}, ">=", "3")
        assert_int_form(c)
        assert c.coeffs == (("X", -2), ("Y", -1)) and c.bound == -12
        assert c.rel == LE

    def test_constant_row_keeps_its_rational_bound(self):
        c = LinearConstraint.make({"X": 0}, LT, Fraction(1, 2))
        assert c.is_constant() and c.bound == Fraction(1, 2)

    def test_transformations_keep_ints(self):
        c = C({"X": "1/3", "Y": -2}, LE, "5/6")
        eq = C({"X": 2, "Y": "2/3"}, EQ, 1)
        assert_int_form(c)
        assert_int_form(c.rename({"X": "Z"}))
        assert_int_form(linalg._combine(3, c, -2, eq, c.rel))
        for d in c.negations() + eq.negations() + eq.split_equality():
            assert_int_form(d)
        assert_int_form(c.closure())
        assert_int_form(c.strict())

    def test_project_simplify_and_hull_keep_ints(self):
        from chcverify.polyhedra import Polyhedron

        cs = S(C({"X": "1/2", "Y": 1}, LE, 3), C({"X": 1, "Z": "-2/3"}, EQ, 1),
               C({"Y": -1, "Z": 1}, LT, "7/4"), C({"Y": 1}, ">=", "1/3"))
        for out in (project(cs, {"X", "Y"}), project(cs, {"Y"}), simplify(cs)):
            assert out.constraints
            for c in out:
                assert_int_form(c)
        p = Polyhedron.of(("X", "Y"), S(C({"X": 1}, EQ, "1/2"), C({"Y": 1}, LE, 0)))
        q = Polyhedron.of(("X", "Y"), S(C({"X": 1}, EQ, 3), C({"Y": -1}, LE, -1)))
        hull = p.hull(q)
        assert hull.constraints.constraints
        for c in hull.constraints:
            assert_int_form(c)

    def test_int_and_fraction_inputs_compare_and_hash_equal(self):
        a = LinearConstraint.make({"X": 2, "Y": -3}, LT, 4)
        b = LinearConstraint.make({"X": Fraction(2), "Y": Fraction(-3)}, LT, Fraction(4))
        c = LinearConstraint.make(
            {"X": Fraction(1, 3), "Y": Fraction(-1, 2)}, LT, Fraction(2, 3))
        assert a == b == c
        assert hash(a) == hash(b) == hash(c)
        d = LinearConstraint.make({"X": 1}, EQ, 0)
        e = LinearConstraint.make({"X": Fraction(-5)}, EQ, Fraction(0))
        assert S(a, d) == S(e, c)
        assert hash(S(a, d)) == hash(S(e, c))
        assert a != d and S(a) != S(a, d)

    def test_equal_sets_share_a_cache_entry(self):
        a = S(C({"X": 1, "Y": 1}, LE, 7), C({"X": -1}, LT, -2))
        b = S(LinearConstraint.make({"X": Fraction(-3)}, LT, Fraction(-6)),
              LinearConstraint.make({"X": Fraction(1, 7), "Y": Fraction(1, 7)}, LE, 1))
        assert a is not b
        is_satisfiable(a)
        hits = is_satisfiable.cache_info().hits
        assert is_satisfiable(b)
        assert is_satisfiable.cache_info().hits == hits + 1

    def test_gaussian_substitution_divides_exactly(self):
        # 3X = Y + 1 and X <= 1 give Y <= 2; a float 1/3 would not.
        out = project(S(C({"X": 3, "Y": -1}, EQ, 1), C({"X": 1}, LE, 1)), {"Y"})
        assert out == S(C({"Y": 1}, LE, 2))
        assert_int_form(out.constraints[0])

    def test_pickling_rebuilds_the_cached_hash(self):
        import pickle

        cs = S(C({"X": 1, "Y": -2}, LT, 3), C({"Y": 1}, EQ, "1/2"))
        back = pickle.loads(pickle.dumps(cs))
        assert back == cs and hash(back) == hash(cs)
        assert back.constraints[0] == cs.constraints[0]
        assert hash(back.constraints[0]) == hash(cs.constraints[0])


class TestRename:
    def test_merging_names_sums_the_coefficients(self):
        c = C({"A": 1, "B": 1}, LE, 1).rename({"A": "B"})
        assert c == C({"B": 2}, LE, 1)
        assert c.coeffs == (("B", 2),) and c.bound == 1
        assert C({"A": 1, "B": -1}, LE, 1).rename({"A": "B"}) == C({}, LE, 1)

    def test_equality_is_sign_normalised_after_resorting(self):
        # 1*A - 2*B = 3 renamed A -> Z puts -2*B first: the sign flips.
        c = C({"A": 1, "B": -2}, EQ, 3).rename({"A": "Z"})
        assert c.coeffs == (("B", 2), ("Z", -1)) and c.bound == -3
        assert c == LinearConstraint.make({"Z": 1, "B": -2}, EQ, 3)

    def test_rename_agrees_with_make(self):
        rng = random.Random(7)
        names = ("A", "B", "C", "D")
        for _ in range(200):
            coeffs = {v: rng.randint(-3, 3) for v in names if rng.random() < 0.7}
            c = C(coeffs, rng.choice((LE, LT, EQ)), rng.randint(-4, 4))
            mapping = {v: rng.choice(names) for v in names if rng.random() < 0.5}
            expected = {}
            for v, k in c.coeffs:
                w = mapping.get(v, v)
                expected[w] = expected.get(w, 0) + k
            assert c.rename(mapping) == LinearConstraint.make(expected, c.rel, c.bound)


class TestSetRename:
    def test_names_merging_across_rows_shrink_the_set(self):
        cs = S(C({"X": 1}, LE, 1), C({"Y": 1}, LE, 1), C({"Z": 1}, LT, 0))
        assert cs.rename({"X": "Y"}) == S(C({"Y": 1}, LE, 1), C({"Z": 1}, LT, 0))

    def test_a_row_that_becomes_trivial_is_dropped(self):
        cs = S(C({"X": 1, "Y": -1}, LE, 0), C({"Y": 1}, LE, 2))
        assert cs.rename({"X": "Y"}) == S(C({"Y": 1}, LE, 2))

    def test_target_is_an_unmapped_variable_of_the_set(self):
        cs = S(C({"X": 1, "Z": 1}, LE, 1), C({"X": 1}, LE, 0), C({"Z": 1}, LE, 0))
        assert cs.rename({"X": "Z"}) == S(C({"Z": 2}, LE, 1), C({"Z": 1}, LE, 0))

    def test_rename_agrees_with_make(self):
        rng = random.Random(12)
        names = ("A", "B", "C", "D")
        injective = 0
        for _ in range(200):
            cs = S(*(random_row(rng, names) for _ in range(rng.randint(0, 4))))
            mapping = {v: rng.choice(names + ("E", "F")) for v in names
                       if rng.random() < 0.5}
            used = cs.variables()
            injective += len({mapping.get(v, v) for v in used}) == len(used)
            out = cs.rename(mapping)
            expected = ConstraintSet.make(c.rename(mapping) for c in cs)
            assert out.constraints == expected.constraints, (cs, mapping)
            assert hash(out) == hash(expected)
        assert 50 <= injective <= 150


class TestPositionalRename:
    def test_agrees_with_the_dict_rename_and_renames_back(self):
        # As the analysis renames facts: canonical names onto an atom's
        # distinct arguments, which may be canonical names in another
        # order, and back.
        rng = random.Random(32)
        canonical = ("A", "B", "C", "D")
        flipped = 0
        for _ in range(300):
            cs = S(*(random_row(rng, canonical) for _ in range(rng.randint(0, 4))))
            args = tuple(rng.sample(canonical + ("W", "X", "Y", "Z"), 4))
            onto = dict(zip(canonical, args))
            out = renamed(cs, canonical, args)
            assert out.constraints == cs.rename(onto).constraints, (cs, args)
            assert renamed(cs, canonical, args) is out
            assert renamed(out, args, canonical) == cs
            flipped += any(c.rel == EQ and c.coeffs and sorted(
                (onto[v], k) for v, k in c.coeffs)[0][1] < 0 for c in cs)
        assert flipped >= 20


class TestIncrementalTableau:
    """Targeted cases of the shared tableau: relaxing rows and dependent
    equalities."""

    def test_relaxing_an_equality_drops_it(self):
        rows = [C({"X": 1, "Y": -1}, EQ, 0), C({"X": 1}, LE, 3)]
        t = linalg._Tableau.of(rows)
        assert t.implies(C({"Y": 1}, LE, 3))
        assert not implies_without(t, C({"Y": 1}, LE, 3), 0)
        t.relax(0)
        assert not t.implies(rows[0])
        assert not t.implies(C({"Y": 1}, LE, 3))
        assert t.implies(rows[1])

    def test_dependent_equality_leaves_its_fixed_slack_basic(self):
        # X = Z is the sum of X = Y and Y = Z: no variable column is left to
        # pivot its artificial out on, so the row's fixed slack takes the
        # artificial's basic place.
        rows = [C({"X": 1, "Y": -1}, EQ, 0), C({"Y": 1, "Z": -1}, EQ, 0),
                C({"X": 1, "Z": -1}, EQ, 0)]
        t = linalg._Tableau.of(rows)
        assert linalg._ART not in t.kind
        assert [b for b in t.basis if t.kind[b] == linalg._FIXED] == [t.slacks[2][0]]
        # The other two rows still imply the first one.
        assert implies_without(t, rows[0], 0)
        assert t.others_imply(0)
        # ... and the third, the row whose fixed slack is basic.
        assert implies_without(t, rows[2], 2) and t.others_imply(2)
        t.relax(0)
        assert linalg._FIXED not in [t.kind[b] for b in t.basis]
        assert t.implies(rows[0]) and t.implies(rows[2])
        t.relax(1)
        assert not t.implies(rows[0]) and t.implies(rows[2])
        assert not t.implies(C({"X": 1}, LE, 0))

    def test_relaxing_the_dependent_equality_itself(self):
        rows = [C({"X": 1, "Y": -1}, EQ, 0), C({"Y": 1, "Z": -1}, EQ, 0),
                C({"X": 1, "Z": -1}, EQ, 1)]
        assert linalg._Tableau.of(rows) is None  # X - Z = 0 and = 1
        rows[2] = C({"X": 1, "Z": -1}, EQ, 0)
        t = linalg._Tableau.of(rows)
        t.relax(2)
        assert t.implies(rows[2])  # still implied by the first two
        t.relax(0)
        assert not t.implies(rows[2]) and t.implies(rows[1])

    def test_duplicate_equalities_prune_to_one(self):
        e = C({"X": 1, "Y": 2}, EQ, 1)
        rows = [e, e, C({"X": 1}, LE, 0)]
        assert linalg._drop_redundant(
            rows, range(len(rows)), linalg._Tableau.of(rows)) == [
            e, C({"X": 1}, LE, 0)]
        cs = S(C({"X": 1, "Y": -1}, EQ, 0), C({"Y": 1, "Z": -1}, EQ, 0),
               C({"X": 1, "Z": -1}, EQ, 0))
        out = simplify(cs)
        assert len(out) == 2 and all(c.rel == EQ for c in out)
        assert entails_all(out, cs) and entails_all(cs, out)

    def test_relaxed_strict_row_no_longer_needs_a_positive_slack(self):
        # X < 0 and X > 0: the closure is X = 0, so eps is 0 at best, and
        # `of` gives no tableau; one built row by row still has both rows.
        rows = [C({"X": 1}, LT, 0), C({"X": -1}, LT, 0)]
        assert linalg._Tableau.of(rows) is None
        t = linalg._Tableau()
        assert all(t.add(c) for c in rows)
        assert not t.copy().satisfiable()
        t.relax(0)
        assert t.copy().satisfiable()
        assert t.implies(C({"X": 1}, LE, 0)) is False
        assert t.implies(C({"X": -1}, LT, 0))

    def test_infeasible_rows_are_pruned_one_set_at_a_time(self):
        # The closure is empty, so there is no shared tableau, and
        # `simplify`, which also prunes a projection's intermediate sets,
        # gives FALSE_SET.
        rows = [C({"X": 1}, LE, 0), C({"X": -1}, LE, -1), C({"Y": 1}, LE, 5),
                C({"Y": 1}, LE, 6)]
        assert linalg._Tableau.of(rows) is None
        assert simplify(S(*rows)) == FALSE_SET


class TestOneTableauPerSet:
    """The queries on one constraint set build its tableau once."""

    @pytest.fixture
    def builds(self, monkeypatch):
        linalg.reset_caches()
        built = []
        real = linalg._Tableau.of

        def of(constraints):
            constraints = tuple(constraints)
            built.append(constraints)
            return real(constraints)

        monkeypatch.setattr(linalg._Tableau, "of", staticmethod(of))
        yield built
        linalg.reset_caches()

    def test_satisfiability_then_entailment(self, builds):
        cs = S(C({"X": 1, "Y": 1}, LE, 2), C({"X": 1, "Y": -1}, LT, 0))
        assert is_satisfiable(cs)
        assert entails(cs, C({"X": 1}, LT, 1))
        assert not entails(cs, C({"Y": 1}, LE, 1))
        assert builds == [cs.constraints]

    def test_simplify(self, builds):
        cs = S(C({"X": 1, "Y": 1}, LE, 2), C({"X": 1}, LE, 1), C({"Y": 1}, LE, 1))
        assert simplify(cs) == S(C({"X": 1}, LE, 1), C({"Y": 1}, LE, 1))
        assert is_satisfiable(cs)
        assert builds == [cs.constraints]


class TestReplacesARow:
    """The widening's swap test: one tableau of the rows, copied with each
    candidate added, answers for every row."""

    # the point A = B = 0
    ROWS = (C({"A": 1}, LE, 0), C({"A": -1}, LE, 0),
            C({"B": 1}, LE, 0), C({"B": -1}, LE, 0))

    def test_a_candidate_replaces_a_row_the_others_restore(self):
        diagonal, loose = C({"A": 1, "B": 1}, LE, 0), C({"A": 1}, LE, 5)
        assert linalg.replaces_a_row(self.ROWS, diagonal)
        assert not linalg.replaces_a_row(self.ROWS, loose)

    def test_one_tableau_of_the_rows_serves_every_candidate(self, monkeypatch):
        # the rows' tableau is built once, through the cache of `_tableau_of`,
        # and each candidate is added to a copy of it
        linalg.reset_caches()
        built = []
        real = linalg._Tableau.of

        def of(constraints):
            constraints = tuple(constraints)
            built.append(constraints)
            return real(constraints)

        monkeypatch.setattr(linalg._Tableau, "of", staticmethod(of))
        candidates = [C({"A": 1, "B": 1}, LE, 0), C({"A": 1}, LE, 5),
                      C({"A": 1, "B": -1}, LT, 1)]
        got = [linalg.replaces_a_row(self.ROWS, c) for c in candidates]
        assert got == [True, False, False]
        assert built == [S(*self.ROWS).constraints]
        linalg.reset_caches()

    def test_a_duplicate_row_counts_once(self):
        # with A =< 0 twice, the twin does not make the row replaceable
        loose = C({"A": 1}, LE, 5)
        assert not linalg.replaces_a_row(self.ROWS + self.ROWS[:1], loose)

    def test_a_candidate_the_rows_do_not_entail_is_refused(self):
        with pytest.raises(ValueError):
            linalg.replaces_a_row(self.ROWS, C({"A": 1}, LE, -1))


class TestImplies:
    """Entailment as a bounded maximisation on a strictly satisfiable
    tableau, with a face test only for a strict query at a tie."""

    def implies(self, rows, c, relax=None):
        t = linalg._Tableau.of(rows)
        return t.implies(c) if relax is None else implies_without(t, c, relax)

    def test_strict_row_implies_itself(self):
        assert self.implies([C({"X": 1}, LT, 1)], C({"X": 1}, LT, 1))

    def test_non_strict_bound_does_not_imply_the_strict_one(self):
        assert not self.implies([C({"X": 1}, LE, 1)], C({"X": 1}, LT, 1))
        assert self.implies([C({"X": 1}, LE, 1)], C({"X": 1}, LE, 1))

    def test_tie_reached_only_through_a_strict_row(self):
        # X + Y <= 1 and Y > 0: X reaches 1 only on the closure.
        rows = [C({"X": 1, "Y": 1}, LE, 1), C({"Y": 1}, ">", 0)]
        assert self.implies(rows, C({"X": 1}, LT, 1))
        # With the strict row elsewhere, X = 1 is reached.
        rows = [C({"X": 1}, LE, 1), C({"Y": 1}, ">", 0)]
        assert not self.implies(rows, C({"X": 1}, LT, 1))

    def test_equality_query_needs_both_directions(self):
        rows = [C({"X": 1, "Y": -1}, EQ, 0), C({"Y": 1}, LE, 2),
                C({"Y": 1}, ">=", 2)]
        assert self.implies(rows, C({"X": 1}, EQ, 2))
        assert not self.implies(rows, C({"X": 1}, EQ, 3))
        # X <= 2 holds, X >= 2 does not.
        assert not self.implies([C({"X": 1}, LE, 2)], C({"X": 1}, EQ, 2))

    def test_query_over_a_variable_the_set_does_not_mention(self):
        rows = [C({"X": 1}, LE, 1)]
        assert not self.implies(rows, C({"X": 1, "V": 1}, LE, 5))
        assert not self.implies(rows, C({"V": 1}, LT, 0))
        assert not entails(S(*rows), C({"V": 1}, EQ, 0))

    def test_constant_query(self):
        rows = [C({"X": 1}, LE, 1)]
        assert self.implies(rows, C({}, LE, 0))
        assert not self.implies(rows, FALSE_CONSTRAINT)

    def test_strictly_unsatisfiable_set_with_a_non_empty_closure(self):
        rows = [C({"X": 1}, LT, 0), C({"X": 1}, ">=", 0), C({"Y": 1}, LE, 1),
                C({"Y": 1}, LE, 2)]
        assert linalg._Tableau.of(rows) is None
        assert not is_satisfiable(S(*rows))
        assert entails(S(*rows[:2]), C({"X": 1}, LE, -5))
        # Not strictly satisfiable: no tableau, and `simplify` gives
        # FALSE_SET.
        assert simplify(S(*rows)) == FALSE_SET
        with pytest.raises(ValueError):
            linalg.replaces_a_row(tuple(rows[:-1]), rows[-1])

    def test_relaxed_queries(self):
        rows = [C({"X": 1, "Y": 1}, LE, 2), C({"X": 1}, LE, 1), C({"Y": 1}, LE, 1)]
        assert self.implies(rows, rows[0], relax=0)
        assert not self.implies(rows, rows[1], relax=1)
        t = linalg._Tableau.of(rows)
        assert t.others_imply(0) and not t.others_imply(1)

    def test_relaxed_queries_inside_simplify(self):
        cs = S(C({"X": 1, "Y": 1}, LE, 2), C({"X": 1}, LE, 1), C({"Y": 1}, LE, 1))
        assert simplify(cs) == S(C({"X": 1}, LE, 1), C({"Y": 1}, LE, 1))
        # X + Y < 2 goes at a tie reached only by the strict rows.
        cs = S(C({"X": 1, "Y": 1}, LT, 2), C({"X": 1}, LT, 1), C({"Y": 1}, LT, 1))
        assert simplify(cs) == S(C({"X": 1}, LT, 1), C({"Y": 1}, LT, 1))
        # With X <= 1 the tie X + Y = 2 is still out of reach: Y < 1.
        cs = S(C({"X": 1, "Y": 1}, LT, 2), C({"X": 1}, LE, 1), C({"Y": 1}, LT, 1))
        assert simplify(cs) == S(C({"X": 1}, LE, 1), C({"Y": 1}, LT, 1))


class TestCombine:
    """`_combine` against the rational route through `make`."""

    def test_agrees_with_the_fraction_combination(self):
        rng = random.Random(1701)
        names = ("X", "Y", "Z")
        constants = flipped = 0

        def operand():
            c = random_row(rng, names)
            return c if c.coeffs else operand()

        for _ in range(400):
            c, d = operand(), operand()
            if rng.random() < 0.3:
                c, d = (LinearConstraint.make(dict(e.coeffs), EQ, e.bound)
                        for e in (c, d))
            p = rng.randint(1, 5)
            q = rng.randint(1, 5) * (rng.choice((1, -1)) if d.rel == EQ else 1)
            if rng.random() < 0.25:
                # d parallel to c, with multipliers that cancel every
                # coefficient: a constant result.
                d = LinearConstraint.make({v: -k for v, k in c.coeffs},
                                          rng.choice((LE, LT, EQ)), rng.randint(-4, 4))
                c0, d0 = c.coeffs[0][1], d.coeffs[0][1]
                p, q = abs(d0), -c0 * (1 if d0 > 0 else -1)
            rels = {c.rel, d.rel}
            rel = EQ if rels == {EQ} else LT if LT in rels else LE
            combo = {}
            for row, m in ((c, Fraction(p)), (d, Fraction(q))):
                for v, k in row.coeffs:
                    combo[v] = combo.get(v, 0) + m * k
            bound = Fraction(p) * c.bound + Fraction(q) * d.bound
            expected = LinearConstraint.make(combo, rel, bound)
            got = linalg._combine(p, c, q, d, rel)
            tag = f"{p}*({c}) + {q}*({d})"
            assert got == expected, tag
            assert_int_form(got)
            if got.is_constant():
                constants += 1
                assert got.is_trivially_true() == expected.is_trivially_true(), tag
            elif rel == EQ and next(k for v, k in sorted(combo.items()) if k) < 0:
                flipped += 1
        assert constants >= 30 and flipped >= 10


def random_row(rng, variables):
    coeffs = {v: rng.randint(-3, 3) for v in variables if rng.random() < 0.6}
    return C(coeffs, rng.choice((LE, LE, LT, EQ)), rng.randint(-4, 4))


class TestKernelAgainstOracles:
    """The kernel's decisions and simplifications on random sets over 3-4
    variables, judged by vertex enumeration."""

    def test_random_sets(self):
        rng = random.Random(2006)
        unsat = dependent = 0
        for case in range(300):
            variables = ("W", "X", "Y", "Z")[:rng.randint(3, 4)]
            rows = [random_row(rng, variables) for _ in range(rng.randint(1, 4))]
            eqs = [c for c in rows if c.rel == EQ and c.coeffs]
            if len(eqs) >= 2 and rng.random() < 0.5:
                # a dependent equality: the sum of two others
                total = {}
                for c in eqs[:2]:
                    for v, k in c.coeffs:
                        total[v] = total.get(v, 0) + k
                rows.append(C(total, EQ, eqs[0].bound + eqs[1].bound))
                dependent += 1
            cs = S(*rows)
            tag = f"case {case}: {cs}"
            sat = oracle_sat(cs)
            unsat += not sat
            assert is_satisfiable(cs) == sat, tag
            # a query over a variable the set may not mention
            pool = variables + ("V",) if len(variables) == 3 else variables
            q = random_row(rng, pool)
            assert entails(cs, q) == oracle_entails(cs, q), f"{tag} |= {q}"
            # Rows kept from the input are entailed by it; only the rows
            # dropped or changed need the oracle.
            out = simplify(cs)
            if not sat:
                assert out == FALSE_SET, tag
            else:
                assert all(oracle_entails(out, c) for c in cs if c not in out), tag
                assert all(oracle_entails(cs, d) for d in out if d not in cs), tag
                for d in out:
                    rest = S(*(e for e in out if e != d))
                    assert not oracle_entails(rest, d), f"{tag}: {d} redundant"
                    if d.rel == LE:
                        reverse = C({v: -k for v, k in d.coeffs}, LE, -d.bound)
                        assert not oracle_entails(cs, reverse), f"{tag}: {d}"
            # `simplify`'s redundancy helper on the rows as they come, a
            # dependent equality and duplicates included.
            base = linalg._Tableau.of(rows)
            assert (base is None) == (not sat), tag
            pruned = (rows if base is None else
                      linalg._drop_redundant(rows, range(len(rows)), base))
            assert all(d in rows for d in pruned), tag
            if not sat:
                assert not oracle_sat(pruned), tag
            else:
                assert all(oracle_entails(S(*pruned), c)
                           for c in rows if c not in pruned), tag
        assert unsat >= 30 and dependent >= 10


class TestInPlaceQueries:
    """`implies` and `reverse_holds` pivot the tableau they are asked on,
    the cached one of a set included, and `others_imply` asks on a copy:
    every later query must still get the answer of a fresh tableau, and no
    row may be added or relaxed."""

    def test_random_query_streams(self, monkeypatch):
        ties = []
        satisfiable = linalg._Tableau.satisfiable

        def counting_satisfiable(t):
            ties.append(t)
            return satisfiable(t)

        rng = random.Random(1414)
        sets = relaxed = strict_sets = 0
        while sets < 150:
            variables = ("W", "X", "Y", "Z")[:rng.randint(3, 4)]
            rows = [random_row(rng, variables) for _ in range(rng.randint(1, 4))]
            t = linalg._Tableau.of(rows)
            if t is None:
                continue
            sets += 1
            # Each row, its closure and strict forms and its halves give
            # queries at a tie; the random ones mostly do not.
            queries = [q for c in rows for q in
                       (c, c.closure(), c.strict(), *c.split_equality())]
            queries += [random_row(rng, variables) for _ in range(4)]
            shape = (t.slacks[:], len(t.rows), t.kind[:], t.strict)
            for _ in range(12):
                q = rng.choice(queries)
                k = rng.randrange(len(rows)) if rng.random() < 0.3 else None
                if k is None:
                    want = linalg._Tableau.of(rows).implies(q)
                    # the face test of a strict query at a tie
                    monkeypatch.setattr(linalg._Tableau, "satisfiable",
                                        counting_satisfiable)
                    got = t.implies(q)
                    monkeypatch.setattr(linalg._Tableau, "satisfiable", satisfiable)
                else:
                    want = implies_without(linalg._Tableau.of(rows), q, k)
                    got = implies_without(t, q, k)
                    # the row's own test, on a copy that `t` does not see
                    assert t.others_imply(k) == implies_without(
                        linalg._Tableau.of(rows), rows[k], k)
                    if rows[k].rel == LE and rows[k].coeffs:
                        assert t.reverse_holds(k) == linalg._Tableau.of(
                            rows).implies(rows[k].negations()[0].closure())
                assert got == want, f"{rows} |= {q} less row {k}"
                assert (t.slacks, len(t.rows), t.kind, t.strict) == shape
                relaxed += k is not None
            strict_sets += bool(t.strict)
            for q in queries:
                assert t.implies(q) == linalg._Tableau.of(rows).implies(q)
        assert len(ties) >= 50 and relaxed >= 300 and strict_sets >= 40


class TestOwnRowQueries:
    """A test about one of the tableau's own rows reads its objective off
    the row's slack: the reduced row must be the one the coefficients give,
    and the answer that of a fresh tableau of the other rows."""

    @staticmethod
    def objectives(t, k, c):
        """Row k's own objective row and its coefficient objective row, for
        each direction, reduced on `t`."""
        entries = t._row_objective(k)
        coeffs = [(t.col[v], a) for v, a in c.coeffs]
        for s in ((1, -1) if c.rel == EQ else (1,)):
            yield (t._reduced([(j, s * a) for j, a in entries]),
                   t._reduced([(j, s * a) for j, a in coeffs], s * c.bound))

    @staticmethod
    def tableaux(rng, count):
        """`count` random sets with their tableaux, the sets that are not
        strictly satisfiable skipped; 40 % of them hold two equalities and
        their sum, the last of the three to enter a dependent equality."""
        sets = 0
        while sets < count:
            variables = ("W", "X", "Y", "Z")[:rng.randint(3, 4)]
            rows = [random_row(rng, variables) for _ in range(rng.randint(1, 4))]
            if rng.random() < 0.4:
                e, f = ({v: rng.randint(-3, 3) for v in variables} for _ in "ef")
                be, bf = rng.randint(-4, 4), rng.randint(-4, 4)
                rows += [C(e, EQ, be), C(f, EQ, bf)]
                rows.insert(rng.randint(0, len(rows)),
                            C({v: e[v] + f[v] for v in variables}, EQ, be + bf))
            t = linalg._Tableau.of(rows)
            if t is not None:
                sets += 1
                yield rows, t

    def test_no_artificial_outlives_add(self):
        # A dependent equality leaves its own fixed slack basic, at 0 on a
        # row over fixed columns only, where `relax` looks for it.
        basic_slacks = 0
        for rows, t in self.tableaux(random.Random(2442), 200):
            assert linalg._ART not in t.kind, rows
            slacks = {s for s, _ in t.slacks}
            for row, b in zip(t.rows, t.basis):
                if t.kind[b] == linalg._FIXED:
                    basic_slacks += 1
                    assert b in slacks and row[0] == 0, rows
                    assert all(t.kind[j] == linalg._FIXED
                               for j, x in enumerate(row) if x and j), rows
        assert basic_slacks >= 40

    def test_random_rows(self):
        basic_slacks = strict = equalities = relaxed = redundant = 0
        rng = random.Random(2442)
        for rows, t in self.tableaux(rng, 200):
            basic_slacks += sum(t.kind[b] == linalg._FIXED for b in t.basis)
            # Some in-place queries move the basis, and some rows are
            # dropped, as `_drop_redundant` leaves them.
            for q in rng.sample(rows, min(2, len(rows))):
                t.implies(q)
            gone = {k for k in range(len(rows)) if rng.random() < 0.25}
            for k in sorted(gone):
                t.relax(k)
            relaxed += len(gone)
            for k, c in enumerate(rows):
                if not c.coeffs:
                    continue
                strict += c.rel == LT
                equalities += c.rel == EQ
                u = t.copy()
                u.relax(k)
                for own, coefficients in (*self.objectives(t, k, c),
                                          *self.objectives(u, k, c)):
                    assert own == coefficients, f"{rows} row {k} less {gone}"
            for k, c in enumerate(rows):
                if k in gone:
                    continue
                others = [d for i, d in enumerate(rows) if i != k and i not in gone]
                want = linalg._Tableau.of(others).implies(c)
                assert t.others_imply(k) == want, f"{others} |= {c}"
                redundant += want
                if c.rel == LE and c.coeffs:
                    reverse = c.negations()[0].closure()
                    active = [d for i, d in enumerate(rows) if i not in gone]
                    assert t.reverse_holds(k) == linalg._Tableau.of(
                        active).implies(reverse), f"{active} |= {reverse}"
        assert basic_slacks >= 40 and strict >= 80 and equalities >= 150
        assert relaxed >= 100 and redundant >= 80


def test_own_row_objective_keeps_every_pivot_on_t4(monkeypatch):
    """A cold T4 run with every own-row test asked through the row's
    coefficients instead, as they were added: the same verdict, witness,
    events and pivots, and more eliminations."""
    from conftest import T4
    from chcverify.chc_ast import parse_program
    from chcverify.driver import verify

    def run():
        counts = {"pivots": 0, "eliminations": 0}
        pivot, eliminate = linalg._Tableau._pivot, linalg._eliminate

        def counting_pivot(*args):
            counts["pivots"] += 1
            return pivot(*args)

        def counting_eliminate(*args):
            counts["eliminations"] += 1
            return eliminate(*args)

        monkeypatch.setattr(linalg._Tableau, "_pivot", counting_pivot)
        monkeypatch.setattr(linalg, "_eliminate", counting_eliminate)
        verdict = verify(parse_program(T4))
        monkeypatch.undo()
        return (verdict.kind, verdict.refinements, verdict.trace,
                verdict.events), counts

    shipped, shipped_counts = run()

    # The constraints added to each tableau, by its id, kept across copies.
    given = {}
    init, add, copy = (linalg._Tableau.__init__, linalg._Tableau.add,
                       linalg._Tableau.copy)

    def recording_init(t):
        init(t)
        given[id(t)] = []

    def recording_add(t, c):
        given[id(t)].append(c)
        return add(t, c)

    def recording_copy(t):
        u = copy(t)
        given[id(u)] = given[id(t)][:]
        return u

    def coefficient_objective(t, k):
        c = given[id(t)][k]
        return [(t.col[v], a) for v, a in c.coeffs], c.bound

    def others_imply(t, k):
        s, rel = t.slacks[k]
        if not s:
            return True
        u = t.copy()
        u.relax(k)
        return u._bounded(rel, *coefficient_objective(u, k))

    def reverse_holds(t, k):
        entries, rhs = coefficient_objective(t, k)
        zrow = t._optimise(t._reduced([(j, -a) for j, a in entries], -rhs), 0)
        return zrow is not None and zrow[0] >= 0

    for name, fn in (("__init__", recording_init), ("add", recording_add),
                     ("copy", recording_copy), ("others_imply", others_imply),
                     ("reverse_holds", reverse_holds)):
        monkeypatch.setattr(linalg._Tableau, name, fn)
    coefficients, coefficient_counts = run()
    assert shipped == coefficients
    assert shipped[0] == "unsafe"
    assert shipped_counts["pivots"] == coefficient_counts["pivots"]
    assert shipped_counts["eliminations"] < coefficient_counts["eliminations"]


def negation_bounded(t, rel, entries, rhs):
    """`_Tableau._bounded` with the strict-tie step the kernel once took, the
    reference for its face test: a strict query at a tie, on a tableau with
    strict rows, adds its negation to a copy, and is entailed iff the strict
    rows then cannot hold strictly. The negation is written over the
    objective's columns: a column without a variable, such as a row's
    slack, gets a name on the copy."""
    for s in ((1, -1) if rel == EQ else (1,)):
        zrow = t._optimise(t._reduced(
            entries if s == 1 else [(j, -a) for j, a in entries], s * rhs), 0)
        if zrow is None or zrow[0] < 0:
            return False
        if zrow[0] == 0 and rel == LT:
            if not t.strict:
                return False
            u = t.copy()
            names = {j: v for v, j in u.col.items()}
            for j, _ in entries:
                u.col[names.setdefault(j, f"$column{j}")] = j
            negation = LinearConstraint.make(
                {names[j]: -a for j, a in entries}, LE, -rhs)
            return not (u.add(negation) and u.satisfiable())
    return True


def rebuild_upgrades(patch):
    """Make `simplify` build a new tableau of its rows when it upgrades one
    to an equality, as it once did, instead of fixing the row's slack on
    its copy; `patch` is a monkeypatch. The rows of each rebuild are listed
    in the list returned."""
    rebuilt, upgraded = [], set()
    drop = linalg._drop_redundant

    def rebuilding_drop(rows, order, base):
        if id(base) in upgraded:
            upgraded.discard(id(base))
            rebuilt.append(tuple(rows))
            base = linalg._Tableau.of(rows)
        return drop(rows, order, base)

    patch.setattr(linalg._Tableau, "fix", lambda t, k: upgraded.add(id(t)))
    patch.setattr(linalg, "_drop_redundant", rebuilding_drop)
    return rebuilt


class TestStrictTies:
    """A strict query whose maximum is 0 is decided on the optimal face of
    the tableau it is asked on, which gets its column kinds back; the query's
    negation added to a copy, as the kernel once did, is the reference."""

    def test_face_test_agrees_with_the_negation_row(self, monkeypatch):
        rng = random.Random(2626)
        satisfiable = linalg._Tableau.satisfiable
        strict = []  # per face test: does the tableau have strict rows?
        faces = []  # per face test: (strict rows?, entailed?)

        def counting_satisfiable(t):
            strict.append(bool(t.strict))
            return satisfiable(t)

        def check(rows, t, ask, tag):
            with monkeypatch.context() as m:
                m.setattr(linalg._Tableau, "_bounded", negation_bounded)
                want = ask(linalg._Tableau.of(rows))
            kind, n = t.kind[:], len(strict)
            with monkeypatch.context() as m:
                m.setattr(linalg._Tableau, "satisfiable", counting_satisfiable)
                got = ask(t)
            assert got == want, tag
            assert t.kind == kind, tag
            faces.extend((s, got) for s in strict[n:])

        sets = 0
        while sets < 200:
            variables = ("W", "X", "Y", "Z")[:rng.randint(3, 4)]
            rows = [random_row(rng, variables) for _ in range(rng.randint(1, 4))]
            if rng.random() < 0.5:
                # a twin of a row, strict or not: a tie for `others_imply`
                c = rng.choice(rows)
                rows.append(rng.choice((c.strict(), c.closure())))
            t = linalg._Tableau.of(rows)
            if t is None:
                continue
            sets += 1
            queries = [q for c in rows for q in
                       (c, c.closure(), c.strict(), *c.split_equality())]
            queries += [random_row(rng, variables) for _ in range(2)]
            for q in queries:
                check(rows, t, lambda u: u.implies(q), f"{rows} |= {q}")
            for k, c in enumerate(rows):
                check(rows, t, lambda u: u.others_imply(k),
                      f"{rows} less row {k} |= {c}")
        assert faces.count((True, True)) >= 250
        assert faces.count((True, False)) >= 50
        assert faces.count((False, False)) >= 75
        assert (False, True) not in faces


class TestImpliedEqualities:
    """`simplify` makes an implied equality by fixing its row's slack at 0
    on a copy of the set's tableau; a new tableau of the upgraded rows, as
    `simplify` once built, is the reference."""

    def test_a_basic_slack_leaves_the_basis_when_fixed(self):
        # Every slack enters basic. Held at 0 but left basic, the slack of
        # X + Y =< 0 would still rise as X falls, so with row 1 relaxed the
        # tableau would miss that X + Y = 0 and -Y =< 0 give X + 2Y >= 0.
        rows = [C({"X": 1, "Y": 1}, LE, 0), C({"X": -1}, LE, 0),
                C({"Y": -1}, LE, 0)]
        t = linalg._Tableau.of(rows)
        assert all(t.slacks[k][0] in t.basis for k in range(3))
        t.fix(0)
        assert t.slacks[0][0] not in t.basis
        t.relax(1)
        assert t.implies(C({"X": 1, "Y": 2}, ">=", 0))

    def test_a_fixed_row_is_asked_both_ways(self):
        # Fixed, X =< 0 reads X = 0: with X >= 0 relaxed, its twin X =< 0
        # entails it one way only.
        rows = [C({"X": 1}, LE, 0), C({"X": -1}, LE, 0), C({"X": 1}, LE, 0)]
        t = linalg._Tableau.of(rows)
        assert t.others_imply(0)
        t.fix(0)
        t.relax(1)
        assert not t.others_imply(0) and t.others_imply(2)

    def test_a_relaxed_row_takes_the_row_of_a_fixed_slack_left_basic(self):
        # -A+I =< 0 and A-2I =< 0 are upgraded. Both slacks are basic on
        # rows over fixed columns only, so they stay basic, as a dependent
        # equality's slack does. A slack freed later must become basic on
        # such a row, or the row moves with it and A-I = 0 is kept though
        # redundant. The caches go first: T4 holds these rows, and queries
        # that pivot the cached tableau can leave the slacks nonbasic.
        linalg.reset_caches()
        cs = S(C({"A": -1, "I": 1}, LE, 0), C({"A": 1}, EQ, 0),
               C({"A": 1, "B": 1, "I": -3}, EQ, 0), C({"A": 1, "I": -2}, LE, 0),
               C({"B": 1}, EQ, 0), C({"I": 1}, EQ, 0),
               C({"I": 1, "N": -1}, LT, 1), C({"N": -1}, LT, 0))
        t = linalg._Tableau.of(cs.constraints)
        for k in (0, 3):
            assert t.reverse_holds(k)
            t.fix(k)
            s = t.slacks[k][0]
            assert s in t.basis and t.kind[s] == linalg._FIXED
        assert simplify(cs) == S(
            C({"A": 1}, EQ, 0), C({"A": 1, "B": 1, "I": -3}, EQ, 0),
            C({"A": 1, "I": -2}, EQ, 0), C({"N": -1}, LT, 0))

    def test_fixing_in_place_agrees_with_a_rebuilt_tableau(self, monkeypatch):
        rng = random.Random(3131)
        rebuilds = 0
        for case in range(300):
            variables = ("W", "X", "Y", "Z")[:rng.randint(3, 4)]
            rows = [random_row(rng, variables) for _ in range(rng.randint(1, 4))]
            if rng.random() < 0.6:
                # the reverse of a combination of rows: each row of the
                # combination that is a <= row is an implied equality
                picked = rng.sample(rows, min(len(rows), rng.randint(1, 2)))
                total = {}
                for c in picked:
                    for v, k in c.coeffs:
                        total[v] = total.get(v, 0) - k
                rows.append(C(total, LE, -sum(c.bound for c in picked)))
            cs = S(*rows)
            got = simplify.__wrapped__(cs)
            with monkeypatch.context() as m:
                rebuilt = rebuild_upgrades(m)
                want = simplify.__wrapped__(cs)
            assert got == want, f"case {case}: {cs}"
            rebuilds += len(rebuilt)
        assert rebuilds >= 45


def test_no_query_adds_a_row_on_t4_and_updown(monkeypatch):
    """Cold T4 and updown runs with the strict-tie negation and the rebuild
    after upgrades put back: the same verdict, witness, reason and events,
    and the shipped runs add fewer rows and build fewer tableaux."""
    from conftest import REPO, T4
    from chcverify.chc_ast import parse_program
    from chcverify.driver import verify

    def run(text, old):
        counts = {"adds": 0, "builds": 0}
        add, of = linalg._Tableau.add, linalg._Tableau.of

        def counting_add(t, c):
            counts["adds"] += 1
            return add(t, c)

        def counting_of(constraints):
            counts["builds"] += 1
            return of(constraints)

        with monkeypatch.context() as m:
            if old:
                m.setattr(linalg._Tableau, "_bounded", negation_bounded)
                rebuild_upgrades(m)
            m.setattr(linalg._Tableau, "add", counting_add)
            m.setattr(linalg._Tableau, "of", staticmethod(counting_of))
            verdict = verify(parse_program(text))
        return (verdict.kind, verdict.refinements, verdict.trace, verdict.reason,
                verdict.events), counts

    updown = (REPO / "bench" / "corpus" / "updown.pl").read_text()
    for text, kind in ((T4, "unsafe"), (updown, "unknown")):
        shipped, shipped_counts = run(text, old=False)
        old, old_counts = run(text, old=True)
        assert shipped == old
        assert shipped[0] == kind
        assert shipped_counts["adds"] < old_counts["adds"]
        assert shipped_counts["builds"] < old_counts["builds"]


def test_no_pivot_is_a_no_op_on_t4_and_updown(monkeypatch):
    """Cold T4 and updown runs never pivot a column onto the row where it
    is already basic: `relax` frees a basic fixed slack in place."""
    from conftest import REPO, T4
    from chcverify.chc_ast import parse_program
    from chcverify.driver import verify

    pivot = linalg._Tableau._pivot
    pivots, no_ops = [], []

    def counting_pivot(t, i, j, *args):
        pivots.append(j)
        if t.basis[i] == j:
            no_ops.append(j)
        return pivot(t, i, j, *args)

    monkeypatch.setattr(linalg._Tableau, "_pivot", counting_pivot)
    updown = (REPO / "bench" / "corpus" / "updown.pl").read_text()
    for text, kind in ((T4, "unsafe"), (updown, "unknown")):
        del pivots[:]
        assert verify(parse_program(text)).kind == kind
        assert len(pivots) > 800 and not no_ops


def test_reset_caches_reaches_every_kernel_cache():
    cached = {fn for fn in vars(linalg).values() if hasattr(fn, "cache_info")}
    assert cached and cached <= set(linalg._CACHED)
    entails(S(C({"X": 1, "Y": 1}, LE, 1)), C({"X": 1}, LE, 5))
    simplify(S(C({"X": 1, "Y": 1}, LE, 1), C({"X": 1}, LE, 2)))
    linalg.reset_caches()
    assert all(fn.cache_info().currsize == 0 for fn in cached)
