"""Convex polyhedra: lattice operations, hull, widening."""

import random
from fractions import Fraction

import pytest

from chcverify import linalg
from chcverify.linalg import (EQ, LE, LT, TRUE, ConstraintSet, LinearConstraint,
                              ResourceLimitError, entails, entails_all,
                              is_satisfiable, rat, simplify)
from chcverify.polyhedra import Polyhedron, canonical_args

from oracles import convex_hull_2d, in_hull_2d, mixing_hull, vertices


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
        bot, top = Polyhedron.bottom(("X",)), Polyhedron(("X",), TRUE)
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


    def test_a_hull_with_a_line(self):
        # two parallel lines: the strip between them keeps their direction
        a = P(("X", "Y"), C({"X": 1, "Y": -1}, EQ, 0))
        b = P(("X", "Y"), C({"X": 1, "Y": -1}, EQ, 2))
        assert str(a.hull(b)) == "-1*X+ 1*Y =< 0, 1*X+ -1*Y =< 2"
        lines, rays = linalg._generators(a.constraints, ("X", "Y"))
        assert lines == ((1, 1, 0),) and rays == ((0, 0, 1),)

    def test_two_rays_span_a_cone(self):
        # the half-lines X >= 0 on Y = 0 and Y > 0 on X = 0: their hull is
        # the quadrant, strict only where both operands are
        a = P(("X", "Y"), C({"X": -1}, LE, 0), C({"Y": 1}, EQ, 0))
        b = P(("X", "Y"), C({"Y": -1}, LT, 0), C({"X": 1}, EQ, 0))
        assert str(a.hull(b)) == "-1*X =< 0, -1*Y =< 0"
        lines, rays = linalg._generators(a.constraints, ("X", "Y"))
        assert lines == () and sorted(rays) == [(0, 0, 1), (1, 0, 0)]

    def test_strictness_is_asked_of_facets_only(self):
        # Both operands satisfy 3*B+ 2*D < 13, but the closed hull touches
        # 3*B+ 2*D = 13 in a lower-dimensional face, so that row is no facet
        # and the hull keeps the face. Projecting the mixing encoding keeps
        # the row as a redundant one, and asking strictness of every
        # projected row cuts the face off: a smaller not-necessarily-closed
        # hull. The loss is accepted and pinned here; a hull that restores
        # strictness on every face would cut the face off too and flip the
        # `not entails(h, row)` assertion.
        sp = ("A", "B", "C", "D")
        p = P(sp, C({"B": -2, "D": -3}, LE, -2), C({"B": 1}, LT, 1),
              C({"B": 1, "D": -1}, EQ, -4), C({"B": 3, "C": 2, "D": 2}, LE, 0))
        q = P(sp, C({"B": -1, "C": 3}, LE, 3), C({"B": -1, "D": 1}, LT, 0),
              C({"B": 2, "C": -1}, EQ, 2), C({"B": 3, "D": 2}, EQ, -1))
        row = C({"B": 3, "D": 2}, LT, 13)
        assert entails(p.constraints, row) and entails(q.constraints, row)
        h = p.hull(q).constraints
        assert not entails(h, row)
        assert h == mixing_hull(p.constraints, q.constraints, sp)
        raw = mixing_hull(p.constraints, q.constraints, sp, simplified=False)
        assert row in raw and entails(raw, row) and entails_all(raw, h)

    def test_hull_with_itself_loses_a_strict_non_facet_row(self):
        # X + Y > 0 only cuts off the origin, a vertex of the closure, so
        # it is no facet, and the hull of p with itself keeps the origin;
        # `analyze` asks inclusion first and never hulls such a pair
        p = P(("X", "Y"), C({"X": -1}, LE, 0), C({"Y": -1}, LE, 0),
              C({"X": -1, "Y": -1}, LT, 0))
        assert str(p.hull(p)) == "-1*X =< 0, -1*Y =< 0"

    def test_a_hull_does_not_depend_on_how_an_operand_is_written(self):
        # `analyze` hulls a contribution as projected, not simplified: rows
        # that q entails (sums of two rows, loosened bounds, the halves of
        # an equality) change neither hull that has q as an operand
        rng = random.Random("hull rows")

        def rows(space):
            return [LinearConstraint.make(
                {v: rng.randint(-3, 3) for v in space if rng.random() < 0.7},
                rng.choice((LE, LE, LT, EQ)), rng.randint(-4, 4))
                for _ in range(rng.randint(1, 4))]

        def entailed(q_rows):
            if len(q_rows) >= 2 and rng.random() < 0.5:
                a, b = rng.sample(q_rows, 2)
                total = dict(a.coeffs)
                for v, k in b.coeffs:
                    total[v] = total.get(v, 0) + k
                rel = (EQ if a.rel == b.rel == EQ
                       else LT if LT in (a.rel, b.rel) else LE)
                return LinearConstraint.make(total, rel, a.bound + b.bound)
            half = rng.choice(rng.choice(q_rows).split_equality())
            slack = rng.randint(0, 3)
            rel = rng.choice((LE, LT)) if slack else half.rel
            return LinearConstraint.make(dict(half.coeffs), rel,
                                         half.bound + slack)

        compared = strict = equal = 0
        while compared < 200:
            space = canonical_args(rng.randint(1, 4))
            p_rows, q_rows = rows(space), rows(space)
            p, q = ConstraintSet.make(p_rows), ConstraintSet.make(q_rows)
            if not (q.constraints and is_satisfiable(p) and is_satisfiable(q)):
                continue
            q2 = q.add(*(entailed(q.constraints)
                         for _ in range(rng.randint(1, 3))))
            if q2 == q:
                continue
            assert entails_all(q, q2)
            hull = linalg.convex_hull
            assert hull(p, q2, space) == hull(p, q, space), (p, q, q2)
            assert hull(q2, p, space) == hull(q, p, space), (p, q, q2)
            compared += 1
            strict += any(c.rel == LT for c in q2)
            equal += any(c.rel == EQ for c in q2)
        assert strict >= 50 and equal >= 50

    def test_a_tiny_limit_stops_the_double_description(self, monkeypatch):
        a = P(("X", "Y"), C({"X": 1}, EQ, 0), C({"Y": 1}, EQ, 0))
        b = P(("X", "Y"), C({"X": 1}, EQ, 1), C({"Y": 1}, EQ, 2))
        linalg.reset_caches()
        monkeypatch.setattr(linalg, "FM_LIMIT", 1)
        with pytest.raises(ResourceLimitError, match="double description"):
            a.hull(b)

    # (relations drawn from, fewest and most rows per operand)
    SHAPES = {
        "mixed": ((LE, LE, LT, EQ), 1, 4),
        "equality-heavy": ((EQ, EQ, EQ, LE), 1, 4),
        "unbounded": ((LE, LT), 1, 2),
        "strict": ((LT, LT, LE, EQ), 1, 4),
    }

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_random_pairs_match_the_mixing_encoding(self, shape):
        # The double description against the projected mixing encoding,
        # as not-necessarily-closed sets; and no row of the result is
        # redundant or an unmarked implied equality.
        rels, fewest, most = self.SHAPES[shape]
        rng = random.Random(f"hull {shape}")

        def operand(space):
            return P(space, *(LinearConstraint.make(
                {v: rng.randint(-3, 3) for v in space if rng.random() < 0.7},
                rng.choice(rels), rng.randint(-4, 4))
                for _ in range(rng.randint(fewest, most))))

        compared = 0
        while compared < 150:
            space = canonical_args(rng.randint(1, 4))
            p, q = operand(space), operand(space)
            if p.is_bottom or q.is_bottom:
                continue
            h = p.hull(q).constraints
            ref = mixing_hull(p.constraints, q.constraints, space)
            assert entails_all(h, ref) and entails_all(ref, h), (p, q)
            assert simplify(h) == h, (p, q)
            compared += 1


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
