"""Independent reference implementations used to judge the package.

Everything here works over `fractions.Fraction` with Gaussian elimination
and exhaustive vertex enumeration, sharing no code with the simplex or the
projection in chcverify.linalg. The one exception is `mixing_hull`, the
reference for the double-description hull: it projects the mixing encoding
with `linalg.project`, which shares no code with the double description.

Strict inequalities are tightened by the fixed rational EPS before the
closed-polyhedron check.  That is exact when EPS is below every breakpoint
at which tightening can change a vertex decision.  A vertex is the solution
of d rows, so by Cramer's rule each slack is s0 + s1*eps with s0 a rational
whose denominator divides det * L (det an integer determinant, L the lcm of
the bound denominators) and s1 bounded by d! * maxc^d.  Any nonzero s0 then
exceeds s1 * EPS as long as (d! * maxc^d)^2 * L stays an order of magnitude
below 1/EPS; `_rows` verifies exactly that and raises OracleRangeError for
inputs outside the range instead of risking a wrong answer.
"""

import math
from fractions import Fraction
from itertools import combinations
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from chcverify.linalg import (EQ, LE, ConstraintSet, LinearConstraint, entails,
                              project, simplify)

MAX_DIM = 4
BOX = Fraction(10 ** 10)
EPS = Fraction(1, 10 ** 16)


class OracleRangeError(Exception):
    """Input outside the range for which the oracle is provably exact."""


def _frac(x) -> Fraction:
    return Fraction(int(x.numerator), int(x.denominator))


def _rows(constraints: Iterable[LinearConstraint],
          pin: Optional[Dict[str, Fraction]] = None
          ) -> Tuple[List[Tuple[Dict[str, Fraction], Fraction]], List[str]]:
    """Closed rows (coeffs, bound) meaning coeffs . x <= bound."""
    pin = pin or {}
    max_coeff = 1
    lcm_bound = 1
    rows: List[Tuple[Dict[str, Fraction], Fraction]] = []
    for c in constraints:
        coeffs: Dict[str, Fraction] = {}
        bound = _frac(c.bound)
        for v, k in c.coeffs:
            k = _frac(k)
            if k.denominator != 1:
                raise OracleRangeError(f"non-integer coefficient in {c}")
            if v in pin:
                bound -= k * pin[v]
            else:
                coeffs[v] = k
                max_coeff = max(max_coeff, abs(int(k)))
        lcm_bound = math.lcm(lcm_bound, bound.denominator)
        if c.rel == EQ:
            rows.append((coeffs, bound))
            rows.append(({v: -k for v, k in coeffs.items()}, -bound))
        elif c.rel == LE:
            rows.append((coeffs, bound))
        else:
            rows.append((coeffs, bound - EPS))
    variables = sorted({v for coeffs, _ in rows for v in coeffs})
    d = len(variables)
    if d > MAX_DIM:
        raise OracleRangeError(f"{d} free variables, oracle handles {MAX_DIM}")
    scale = (math.factorial(d) * max_coeff ** d) ** 2 * lcm_bound
    if scale * 10 > 10 ** 16:
        raise OracleRangeError(
            f"coefficients too large for an exact answer (scale {scale})")
    return rows, variables


def _solve_square(system: Sequence[Tuple[Dict[str, Fraction], Fraction]],
                  variables: Sequence[str]) -> Optional[Dict[str, Fraction]]:
    """Unique solution of `coeffs . x = bound` rows, or None if singular."""
    n = len(variables)
    mat = [[row[0].get(v, Fraction(0)) for v in variables] + [row[1]]
           for row in system]
    for col in range(n):
        pivot = next((r for r in range(col, n) if mat[r][col] != 0), None)
        if pivot is None:
            return None
        mat[col], mat[pivot] = mat[pivot], mat[col]
        inv = 1 / mat[col][col]
        mat[col] = [x * inv for x in mat[col]]
        for r in range(n):
            if r != col and mat[r][col] != 0:
                factor = mat[r][col]
                mat[r] = [a - factor * b for a, b in zip(mat[r], mat[col])]
    return {v: mat[i][n] for i, v in enumerate(variables)}


def oracle_sat(constraints: Iterable[LinearConstraint],
               pin: Optional[Dict[str, Fraction]] = None) -> bool:
    """Exact satisfiability by vertex enumeration inside a huge box."""
    rows, variables = _rows(constraints, pin)
    consts = [(c, b) for c, b in rows if not c]
    if any(b < 0 for _, b in consts):
        return False
    rows = [(c, b) for c, b in rows if c]
    if not variables:
        return True
    if len(variables) == 1:
        v = variables[0]
        lo, hi = -BOX, BOX
        for coeffs, b in rows:
            k = coeffs[v]
            if k > 0:
                hi = min(hi, b / k)
            else:
                lo = max(lo, b / k)
        return lo <= hi
    for v in variables:
        rows.append(({v: Fraction(1)}, BOX))
        rows.append(({v: Fraction(-1)}, BOX))
    d = len(variables)
    for subset in combinations(rows, d):
        point = _solve_square(subset, variables)
        if point is None:
            continue
        if all(sum(c.get(v, 0) * point[v] for v in variables) <= b
               for c, b in rows):
            return True
    return False


def oracle_entails(cs: ConstraintSet, c: LinearConstraint) -> bool:
    """cs implies c, decided as unsatisfiability of cs & not(c)."""
    return all(not oracle_sat(tuple(cs) + (neg,)) for neg in c.negations())


def vertices(constraints: Iterable[LinearConstraint],
             variables: Sequence[str]) -> List[Tuple[Fraction, ...]]:
    """Vertices of the closed boxed region, as tuples ordered by `variables`."""
    rows, _ = _rows([c.closure() for c in constraints])
    rows = [(c, b) for c, b in rows if c]
    for v in variables:
        rows.append(({v: Fraction(1)}, BOX))
        rows.append(({v: Fraction(-1)}, BOX))
    out = set()
    for subset in combinations(rows, len(variables)):
        point = _solve_square(subset, variables)
        if point is None:
            continue
        if all(sum(c.get(v, 0) * point[v] for v in variables) <= b
               for c, b in rows):
            out.add(tuple(point[v] for v in variables))
    return sorted(out)


def convex_hull_2d(points: Sequence[Tuple[Fraction, Fraction]]
                   ) -> List[Tuple[Fraction, Fraction]]:
    """Monotone chain; returns the hull counter-clockwise without repeats."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower: List[Tuple[Fraction, Fraction]] = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: List[Tuple[Fraction, Fraction]] = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def in_hull_2d(hull: Sequence[Tuple[Fraction, Fraction]],
               point: Tuple[Fraction, Fraction]) -> bool:
    if not hull:
        return False
    if len(hull) == 1:
        return point == hull[0]
    if len(hull) == 2:
        (x1, y1), (x2, y2) = hull
        px, py = point
        if (x2 - x1) * (py - y1) != (y2 - y1) * (px - x1):
            return False
        return (min(x1, x2) <= px <= max(x1, x2)
                and min(y1, y2) <= py <= max(y1, y2))
    n = len(hull)
    for i in range(n):
        ox, oy = hull[i]
        ax, ay = hull[(i + 1) % n]
        if (ax - ox) * (point[1] - oy) - (ay - oy) * (point[0] - ox) < 0:
            return False
    return True


def mixing_hull(p: ConstraintSet, q: ConstraintSet,
                space: Sequence[str], simplified: bool = True) -> ConstraintSet:
    """The hull of two satisfiable sets over `space` by the mixing encoding
    (Benoy, King & Mesnard, TPLP 2005), projected with `linalg.project`.

    Each row a.x rel b of an operand's closure becomes a.h - b*lam rel 0
    over its own copy h of the space, with lam1 + lam2 = 1, both lam >= 0,
    and each variable the sum of its two copies. The projection is the
    closed convex hull of the union; `simplify` leaves its facets and
    equalities. A facet is made strict when both operands entail its strict
    form. (Strictness is asked of facets only: a redundant row that
    Fourier-Motzkin happens to keep may hold strictly on both operands
    while touching the closed hull in a lower-dimensional face.)

    With `simplified=False` strictness is asked of every projected row, as
    the hull did when it projected this encoding itself; such a row can
    then cut that face off.
    """
    rows = [LinearConstraint.make({"$lam1": 1, "$lam2": 1}, EQ, 1),
            LinearConstraint.make({"$lam1": -1}, LE, 0),
            LinearConstraint.make({"$lam2": -1}, LE, 0)]
    rows += [LinearConstraint.make({f"$h1{v}": 1, f"$h2{v}": 1, v: -1}, EQ, 0)
             for v in space]
    for k, cs in ((1, p), (2, q)):
        for c in cs.closure():
            coeffs = {f"$h{k}{v}": a for v, a in c.coeffs}
            coeffs[f"$lam{k}"] = -c.bound
            rows.append(LinearConstraint.make(coeffs, c.rel, 0))
    out = []
    projected = project(ConstraintSet.make(rows), space)
    for c in simplify(projected) if simplified else projected:
        if c.rel == LE and entails(p, c.strict()) and entails(q, c.strict()):
            c = c.strict()
        out.append(c)
    return ConstraintSet.make(out)
