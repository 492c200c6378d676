"""Convex polyhedra: lattice operations, hull, widening."""

from fractions import Fraction

from chcverify.linalg import EQ, LE, LT, ConstraintSet, LinearConstraint, rat
from chcverify.polyhedra import Polyhedron, canonical_args

from oracles import convex_hull_2d, in_hull_2d, vertices


def C(coeffs, rel, b):
    return LinearConstraint.make({k: rat(v) for k, v in coeffs.items()}, rel, rat(b))


def P(space, *constraints):
    return Polyhedron.of(space, ConstraintSet.make(constraints))


def test_canonical_args_are_stable():
    assert canonical_args(4) == ("A", "B", "C", "D")
    assert canonical_args(0) == ()
    assert canonical_args(26) == tuple("ABCDEFGHIJKLMNOPQRSTUVWXYZ")
    assert canonical_args(27) == canonical_args(26) + ("V27",)
    # Asking for more names leaves the shorter answers as they were.
    assert canonical_args(26) == tuple("ABCDEFGHIJKLMNOPQRSTUVWXYZ")


class TestLattice:
    def test_bottom_and_top(self):
        bot, top = Polyhedron.bottom(("X",)), Polyhedron.top(("X",))
        assert bot.is_bottom and not top.is_bottom
        assert str(bot) == "false" and str(top) == "true"
        assert bot.leq(top) and not top.leq(bot)

    def test_meet_intersects(self):
        a = P(("X",), C({"X": -1}, LE, 0))
        b = P(("X",), C({"X": 1}, LE, 5))
        assert str(a.meet(b)) == "-1*X =< 0, 1*X =< 5"

    def test_meet_can_empty(self):
        a = P(("X",), C({"X": 1}, LT, 0))
        b = P(("X",), C({"X": -1}, LE, 0))
        assert a.meet(b).is_bottom

    def test_leq_is_semantic(self):
        a = P(("X",), C({"X": 2}, LE, 2))
        b = P(("X",), C({"X": 1}, LE, 3))
        assert a.leq(b)


class TestHull:
    def test_two_points_make_a_segment(self):
        a = P(("X", "Y"), C({"X": 1}, EQ, 0), C({"Y": 1}, EQ, 0))
        b = P(("X", "Y"), C({"X": 1}, EQ, 1), C({"Y": 1}, EQ, 2))
        hull = a.hull(b)
        assert str(hull) == "-1*X =< 0, 1*X =< 1, 2*X+ -1*Y = 0"

    def test_hull_with_bottom_is_identity(self):
        a = P(("X",), C({"X": 1}, LE, 1))
        assert a.hull(Polyhedron.bottom(("X",))) == a
        assert Polyhedron.bottom(("X",)).hull(a) == a

    def test_strict_half_lines_keep_strictness(self):
        a = P(("X",), C({"X": -1}, LT, 0))
        b = P(("X",), C({"X": -1}, LT, -1))
        assert str(a.hull(b)) == "-1*X < 0"

    def test_mixed_strictness_relaxes_to_the_weaker_side(self):
        a = P(("X",), C({"X": -1}, LE, 0), C({"X": 1}, LE, 0))
        b = P(("X",), C({"X": -1}, LT, -1), C({"X": 1}, LE, 3))
        assert str(a.hull(b)) == "-1*X =< 0, 1*X =< 3"

    def test_hull_is_an_upper_bound(self):
        a = P(("X", "Y"), C({"X": 1, "Y": 1}, LE, 1), C({"X": -1}, LE, 0),
              C({"Y": -1}, LE, 0))
        b = P(("X", "Y"), C({"X": 1}, EQ, 3), C({"Y": 1}, EQ, 3))
        hull = a.hull(b)
        assert a.leq(hull) and b.leq(hull)

    def test_hull_matches_vertex_geometry(self):
        # hull vertices of the union must coincide with the 2-d convex hull
        # of the operands' vertex sets
        a = P(("X", "Y"), C({"X": -1}, LE, 0), C({"Y": -1}, LE, 0),
              C({"X": 1, "Y": 1}, LE, 2))
        b = P(("X", "Y"), C({"X": -1}, LE, -3), C({"X": 1}, LE, 4),
              C({"Y": -1}, LE, -1), C({"Y": 1}, LE, 2))
        hull = a.hull(b)
        pts = [tuple(v) for v in vertices(tuple(a.constraints), ("X", "Y"))]
        pts += [tuple(v) for v in vertices(tuple(b.constraints), ("X", "Y"))]
        expect = convex_hull_2d([(Fraction(x), Fraction(y)) for x, y in pts])
        got = vertices(tuple(hull.constraints), ("X", "Y"))
        assert sorted(expect) == sorted(tuple(v) for v in got)
        for p in pts:
            assert in_hull_2d(expect, (Fraction(p[0]), Fraction(p[1])))


class TestWidening:
    def test_growing_upper_bound_is_dropped(self):
        a = P(("X",), C({"X": -1}, LE, 0), C({"X": 1}, LE, 1))
        b = P(("X",), C({"X": -1}, LE, 0), C({"X": 1}, LE, 2))
        assert str(a.widen(b)) == "-1*X =< 0"

    def test_stable_rows_survive(self):
        sp = ("A", "B", "I")
        a = P(sp, C({"A": 1, "B": 1, "I": -3}, EQ, 0), C({"I": -1}, LE, 0),
              C({"I": 1}, LE, 1))
        b = P(sp, C({"A": 1, "B": 1, "I": -3}, EQ, 0), C({"I": -1}, LE, 0),
              C({"I": 1}, LE, 2))
        assert str(a.widen(b)) == "1*A+ 1*B+ -3*I = 0, -1*I =< 0"

    def test_mutually_redundant_rows_are_kept(self):
        # widening the half-line Y = X, X >= 0 by the wedge 0 <= Y <= X must
        # keep Y >= 0: on the half-line Y >= 0 and X >= 0 cut the same face,
        # so the wedge row replaces the stable one instead of being dropped
        sp = ("X", "Y")
        a = P(sp, C({"X": 1, "Y": -1}, EQ, 0), C({"X": -1}, LE, 0))
        b = P(sp, C({"Y": -1}, LE, 0), C({"Y": 1, "X": -1}, LE, 0))
        w = a.widen(b)
        assert str(w) == "-1*X+ 1*Y =< 0, -1*Y =< 0"
        assert b.leq(w)

    def test_widening_from_bottom_jumps_to_the_iterate(self):
        bot = Polyhedron.bottom(("X",))
        b = P(("X",), C({"X": 1}, LE, 2))
        assert bot.widen(b) == b

    def test_widen_is_an_upper_bound_of_the_second(self):
        a = P(("X", "Y"), C({"X": 1, "Y": 1}, LE, 1))
        b = P(("X", "Y"), C({"X": 1, "Y": 1}, LE, 3))
        assert b.leq(a.widen(b))

    def test_widen_upto_recovers_entailed_thresholds(self):
        a = P(("X",), C({"X": -1}, LE, 0), C({"X": 1}, LE, 1))
        b = P(("X",), C({"X": -1}, LE, 0), C({"X": 1}, LE, 2))
        thr = ConstraintSet.make([C({"X": 1}, LE, 2), C({"X": 1}, LE, 5)])
        assert str(a.widen(b, thr)) == "-1*X =< 0, 1*X =< 2"

    def test_thresholds_not_entailed_by_both_are_ignored(self):
        a = P(("X",), C({"X": -1}, LE, 0), C({"X": 1}, LE, 1))
        b = P(("X",), C({"X": -1}, LE, 0), C({"X": 1}, LE, 4))
        thr = ConstraintSet.make([C({"X": 1}, LE, 3)])
        assert str(a.widen(b, thr)) == "-1*X =< 0"
