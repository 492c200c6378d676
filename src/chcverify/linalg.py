"""Exact linear rational arithmetic: constraints, satisfiability, projection,
entailment, simplification and Farkas certificates.

Everything in this module is exact. A constraint with variables is stored in
its canonical form: coprime Python `int` coefficients and bound. Rationals
(gmpy2.mpq when available, fractions.Fraction otherwise) appear only where a
value is not an integer: inputs to `LinearConstraint.make`, the bound of a
constant constraint, projection's substitutions, LP optima and points, and
Farkas multipliers. Satisfiability is decided by a two-phase simplex with
Bland's rule on a fraction-free integer tableau: an integer row enters it
as is, a rational one is scaled to integers once, and only the optimum and
its point are turned back into rationals. Strict inequalities are handled by
maximising a shared slack: a mixed system is strictly satisfiable iff the
optimum of the slack is positive (or unbounded).

Projection is Fourier-Motzkin elimination. Equalities are first used for
Gaussian substitution, which keeps the combinatorial part small; the number of
intermediate constraints is capped (see `fm_limit`) and exceeding the cap
raises ResourceLimitError so callers can degrade to an "unknown" verdict
instead of diverging.
"""

from __future__ import annotations

import itertools
import math
from contextvars import ContextVar
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

try:  # pragma: no cover - exercised implicitly by whichever backend is present
    from gmpy2 import mpq as Rat
except ImportError:  # pragma: no cover
    from fractions import Fraction as Rat

__all__ = [
    "Rat",
    "rat",
    "LinearConstraint",
    "ConstraintSet",
    "FarkasCertificate",
    "ResourceLimitError",
    "TRUE",
    "FALSE_CONSTRAINT",
    "FALSE_SET",
    "is_satisfiable",
    "entails",
    "entails_all",
    "project",
    "simplify",
    "farkas_refutation",
    "fm_limit",
    "reset_caches",
]

# Relation symbols kept after normalisation. ">=" and ">" are flipped into
# these at construction time.
LE = "<="
LT = "<"
EQ = "="

_ZERO = Rat(0)


def rat(num, den=1) -> Rat:
    """Build a rational from ints, strings ("3", "1/2", "0.25") or rationals."""
    if den != 1:
        return Rat(num) / Rat(den)
    if isinstance(num, str) and "." in num:
        whole, frac = num.split(".", 1)
        sign = -1 if whole.strip().startswith("-") else 1
        whole = whole.strip().lstrip("+-") or "0"
        scale = 10 ** len(frac)
        return Rat(sign * (int(whole) * scale + int(frac or "0")), scale)
    return Rat(num)


class ResourceLimitError(Exception):
    """A configured resource cap was exceeded (projection blow-up etc.)."""


# Cap on the number of constraints a single projection may build up.
# Held in a ContextVar so a driver can tighten it without threading a
# parameter through every geometric operation.
fm_limit: ContextVar[int] = ContextVar("fm_limit", default=10_000)


@dataclass(frozen=True)
class LinearConstraint:
    """A normalised linear constraint  sum(c_i * v_i)  rel  bound.

    Invariants: coefficients are non-zero and sorted by variable name, the
    relation is one of <=, <, =, and the whole constraint is scaled so that
    coefficients and bound are coprime integers, stored as `int`. Equalities
    are additionally sign-normalised (first coefficient positive).
    Inequalities keep their sign since scaling by a negative factor would
    flip them. A constant constraint (no variables) keeps its exact rational
    bound. The hash is computed once, at construction, so cache lookups keyed
    on constraints do not re-hash their coefficients.
    """

    coeffs: Tuple[Tuple[str, int], ...]
    rel: str
    bound: Rat
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.coeffs, self.rel, self.bound)))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if other.__class__ is not LinearConstraint:
            return NotImplemented
        return (self._hash == other._hash and self.coeffs == other.coeffs
                and self.rel == other.rel and self.bound == other.bound)

    def __reduce__(self):
        # Rebuild on unpickling: the cached hash of the variable names is
        # only valid in the process that computed it.
        return LinearConstraint, (self.coeffs, self.rel, self.bound)

    @staticmethod
    def make(coeffs: Mapping[str, Rat], rel: str, bound) -> "LinearConstraint":
        """The canonical constraint for  coeffs . vars  rel  bound.

        Coefficients and bound may be ints, rationals or rational strings;
        `rel` may also be ">=" or ">".
        """
        sign = 1
        if rel in (">=", ">"):
            sign = -1
            rel = LE if rel == ">=" else LT
        elif rel not in (LE, LT, EQ):
            raise ValueError(f"unknown relation {rel!r}")
        if isinstance(bound, str):
            bound = rat(bound)
        items = []
        for v, c in coeffs.items():
            if isinstance(c, str):
                c = rat(c)
            if c != 0:
                items.append((v, c))
        if not items:
            return LinearConstraint((), rel, Rat(-bound if sign < 0 else bound))
        items.sort()
        return LinearConstraint._canonical(items, rel, sign, bound)

    @staticmethod
    def _canonical(items: List[Tuple[str, Rat]], rel: str, sign: int, bound: Rat
                   ) -> "LinearConstraint":
        # The integer row of  sign * (items  rel  bound), straight from each
        # value's numerator and denominator, divided by its gcd.
        den = math.lcm(int(bound.denominator),
                       *(int(c.denominator) for _, c in items))
        nums = [int(c.numerator) * (den // int(c.denominator)) for _, c in items]
        b = int(bound.numerator) * (den // int(bound.denominator))
        g = math.gcd(b, *nums)
        if sign < 0 or (rel == EQ and nums[0] < 0):
            g = -g
        coeffs = tuple((v, n // g) for (v, _), n in zip(items, nums))
        return LinearConstraint(coeffs, rel, b // g)

    # -- simple queries ----------------------------------------------------

    def variables(self) -> frozenset:
        return frozenset(v for v, _ in self.coeffs)

    def coeff(self, var: str) -> Rat:
        for v, c in self.coeffs:
            if v == var:
                return c
        return 0

    def is_constant(self) -> bool:
        return not self.coeffs

    def is_trivially_true(self) -> bool:
        if self.coeffs:
            return False
        if self.rel == LE:
            return _ZERO <= self.bound
        if self.rel == LT:
            return _ZERO < self.bound
        return self.bound == 0

    def is_trivially_false(self) -> bool:
        return self.is_constant() and not self.is_trivially_true()

    def evaluate(self, point: Mapping[str, Rat]) -> bool:
        lhs = sum((c * point.get(v, _ZERO) for v, c in self.coeffs), _ZERO)
        if self.rel == LE:
            return lhs <= self.bound
        if self.rel == LT:
            return lhs < self.bound
        return lhs == self.bound

    # -- transformations ---------------------------------------------------

    def rename(self, mapping: Mapping[str, str]) -> "LinearConstraint":
        return LinearConstraint.make(
            {mapping.get(v, v): c for v, c in self.coeffs}, self.rel, self.bound
        )

    def substitute(self, var: str, expr_coeffs: Mapping[str, Rat], expr_const: Rat
                   ) -> "LinearConstraint":
        """Replace `var` by the affine expression  expr_coeffs . vars + expr_const."""
        c_v = self.coeff(var)
        if c_v == 0:
            return self
        out: Dict[str, Rat] = {v: c for v, c in self.coeffs if v != var}
        for v, c in expr_coeffs.items():
            out[v] = out.get(v, 0) + c_v * c
        return LinearConstraint.make(out, self.rel, self.bound - c_v * expr_const)

    def negations(self) -> Tuple["LinearConstraint", ...]:
        """Constraints whose disjunction is the negation of this one."""
        neg = {v: -c for v, c in self.coeffs}
        if self.rel == LE:  # not (t <= b)  ==  -t < -b
            return (LinearConstraint.make(neg, LT, -self.bound),)
        if self.rel == LT:  # not (t < b)   ==  -t <= -b
            return (LinearConstraint.make(neg, LE, -self.bound),)
        return (  # not (t = b)  ==  t < b  or  t > b
            LinearConstraint.make(dict(self.coeffs), LT, self.bound),
            LinearConstraint.make(neg, LT, -self.bound),
        )

    def closure(self) -> "LinearConstraint":
        if self.rel == LT:
            return LinearConstraint(self.coeffs, LE, self.bound)
        return self

    def strict(self) -> "LinearConstraint":
        if self.rel == LE:
            return LinearConstraint(self.coeffs, LT, self.bound)
        return self

    def split_equality(self) -> Tuple["LinearConstraint", ...]:
        """An equality as its two inequality halves; inequalities unchanged."""
        if self.rel != EQ:
            return (self,)
        neg = {v: -c for v, c in self.coeffs}
        return (
            LinearConstraint.make(dict(self.coeffs), LE, self.bound),
            LinearConstraint.make(neg, LE, -self.bound),
        )

    def scaled(self, factor: Rat) -> "LinearConstraint":
        """Scale by a positive rational (used when recombining certificates)."""
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        return LinearConstraint.make(
            {v: c * factor for v, c in self.coeffs}, self.rel, self.bound * factor
        )

    def __str__(self) -> str:
        lhs = "+ ".join(f"{c}*{v}" for v, c in self.coeffs) if self.coeffs else "0"
        rel = {LE: "=<", LT: "<", EQ: "="}[self.rel]
        return f"{lhs} {rel} {self.bound}"


FALSE_CONSTRAINT = LinearConstraint.make({}, LE, -1)


@dataclass(frozen=True)
class ConstraintSet:
    """An immutable conjunction of linear constraints.

    Constraints are deduplicated and kept in a fixed sorted order so that
    equal sets compare and hash equal; the empty set is `true`. As for a
    constraint, the hash is computed once, at construction.
    """

    constraints: Tuple[LinearConstraint, ...]
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.constraints,)))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if other.__class__ is not ConstraintSet:
            return NotImplemented
        return self._hash == other._hash and self.constraints == other.constraints

    def __reduce__(self):
        return ConstraintSet, (self.constraints,)

    @staticmethod
    def make(constraints: Iterable[LinearConstraint]) -> "ConstraintSet":
        kept = [c for c in constraints if not c.is_trivially_true()]
        uniq = sorted(set(kept), key=_constraint_key)
        return ConstraintSet(tuple(uniq))

    def __iter__(self):
        return iter(self.constraints)

    def __len__(self) -> int:
        return len(self.constraints)

    def __and__(self, other: "ConstraintSet") -> "ConstraintSet":
        return ConstraintSet.make(self.constraints + other.constraints)

    def add(self, *constraints: LinearConstraint) -> "ConstraintSet":
        return ConstraintSet.make(self.constraints + constraints)

    def variables(self) -> frozenset:
        out = frozenset()
        for c in self.constraints:
            out |= c.variables()
        return out

    def rename(self, mapping: Mapping[str, str]) -> "ConstraintSet":
        return ConstraintSet.make(c.rename(mapping) for c in self.constraints)

    def evaluate(self, point: Mapping[str, Rat]) -> bool:
        return all(c.evaluate(point) for c in self.constraints)

    def closure(self) -> "ConstraintSet":
        return ConstraintSet.make(c.closure() for c in self.constraints)

    def has_trivially_false(self) -> bool:
        return any(c.is_trivially_false() for c in self.constraints)

    def __str__(self) -> str:
        if not self.constraints:
            return "true"
        return ", ".join(str(c) for c in self.constraints)


def _constraint_key(c: LinearConstraint):
    return (c.coeffs, c.rel, c.bound)


TRUE = ConstraintSet(())
FALSE_SET = ConstraintSet((FALSE_CONSTRAINT,))


# ---------------------------------------------------------------------------
# Simplex. Two-phase tableau over integers, fraction-free, Bland's rule for
# termination. Every row, the objective row included, is held as a positive
# integer multiple of the true rational row; only the final point and value
# are read back as rationals. Positive scaling preserves every sign and every
# ratio order, so the pivot sequence is the one a rational tableau would
# take. Small systems only; this is the single hot spot of the whole verifier
# so the inner loops stay primitive.
# ---------------------------------------------------------------------------

_OPTIMAL = "optimal"
_UNBOUNDED = "unbounded"
_INFEASIBLE = "infeasible"


def _int_row(entries: Mapping[int, Rat], rhs: Rat, width: int
             ) -> Tuple[List[int], int]:
    """Dense integer row (rhs last) and the positive factor it was scaled by."""
    scale = math.lcm(int(rhs.denominator),
                     *(int(q.denominator) for q in entries.values()))
    row = [0] * (width + 1)
    for j, q in entries.items():
        row[j] = int(q.numerator) * (scale // int(q.denominator))
    row[width] = int(rhs.numerator) * (scale // int(rhs.denominator))
    return row, scale


def _eliminate(row: List[int], q: int, prow: List[int], p: int,
               support: Sequence[int]) -> List[int]:
    """p*row - q*prow over the pivot row's `support`, divided by its gcd.

    With p = 1 the result is `row` itself, updated in place.
    """
    if p != 1:
        row = [x * p for x in row]
    for j in support:
        row[j] -= q * prow[j]
    g = math.gcd(*row)
    if g > 1:
        row = [x // g for x in row]
    return row


def solve_lp(rows: Sequence[Tuple[Mapping[str, Rat], str, Rat]],
             objective: Mapping[str, Rat],
             nonneg: frozenset,
             want_point: bool = False):
    """Maximise `objective` subject to `rows`.

    Each row is (coeffs, rel, bound) with rel in {"<=", "="}. Variables in
    `nonneg` are constrained to be >= 0, all others are free. Returns
    (status, value, point) where status is one of "optimal", "unbounded",
    "infeasible"; point is None unless requested and status is "optimal".
    Value and point are exact rationals.
    """
    variables = sorted({v for coeffs, _, _ in rows for v in coeffs} | set(objective))
    # Column layout: for a free variable two columns (v+ and v-), for a
    # non-negative variable one, then one slack per inequality row, then the
    # right-hand side. Each row also has an artificial variable, numbered
    # art_first + row; no decision ever reads an artificial's column, so
    # only its place in the basis is kept.
    col_of: Dict[Tuple[str, int], int] = {}  # (var, sign) -> column
    for v in variables:
        col_of[(v, 1)] = len(col_of)
        if v not in nonneg:
            col_of[(v, -1)] = len(col_of)
    nstruct = len(col_of)
    nslack = sum(1 for _, rel, _ in rows if rel == LE)
    m = len(rows)
    art_first = nstruct + nslack

    def columns(coeffs: Mapping[str, Rat], sign: int) -> Dict[int, Rat]:
        # sign * coeffs by column; the v- column of a free v carries -c.
        out: Dict[int, Rat] = {}
        for v, c in coeffs.items():
            if c:
                out[col_of[(v, 1)]] = sign * c
                if v not in nonneg:
                    out[col_of[(v, -1)]] = -sign * c
        return out

    tableau: List[List[int]] = []
    scales: List[int] = []
    slack_i = 0
    for coeffs, rel, bound in rows:
        flip = -1 if bound < 0 else 1
        entries = columns(coeffs, flip)
        if rel == LE:
            entries[nstruct + slack_i] = flip
            slack_i += 1
        elif rel != EQ:
            raise ValueError(f"unknown LP relation {rel!r}")
        row, scale = _int_row(entries, flip * bound, art_first)
        tableau.append(row)
        scales.append(scale)
    basis = [art_first + i for i in range(m)]

    def pivot(prow_i: int, pcol: int, zrow: List[int]) -> List[int]:
        prow = tableau[prow_i]
        p = prow[pcol]
        if p < 0:  # keep the pivot row a positive multiple of the true row
            prow = tableau[prow_i] = [-x for x in prow]
            p = -p
        support = [j for j, x in enumerate(prow) if x]
        for i in range(m):
            if i != prow_i:
                q = tableau[i][pcol]
                if q:
                    tableau[i] = _eliminate(tableau[i], q, prow, p, support)
        basis[prow_i] = pcol
        q = zrow[pcol]
        return _eliminate(zrow, q, prow, p, support) if q else zrow

    def optimise(zrow: List[int]) -> Tuple[str, List[int]]:
        # Maximise; Bland's rule (lowest eligible column, lowest basic var).
        # Ratios rhs/a are compared by cross-multiplication (a > 0).
        while True:
            pcol = -1
            for j in range(art_first):
                if zrow[j] > 0:
                    pcol = j
                    break
            if pcol < 0:
                return _OPTIMAL, zrow
            prow, best_num, best_den = -1, 0, 1
            for i in range(m):
                row = tableau[i]
                a = row[pcol]
                if a > 0:
                    lhs, rhs = row[-1] * best_den, best_num * a
                    if prow < 0 or lhs < rhs or (
                            lhs == rhs and basis[i] < basis[prow]):
                        prow, best_num, best_den = i, row[-1], a
            if prow < 0:
                return _UNBOUNDED, zrow
            zrow = pivot(prow, pcol, zrow)

    # Phase 1: maximise -(sum of artificials). Its objective row is the sum
    # of the true rows, brought to a common integer scale.
    common = math.lcm(*scales)
    zrow = [0] * (art_first + 1)
    for row, s in zip(tableau, scales):
        f = common // s
        for j, x in enumerate(row):
            if x:
                zrow[j] += f * x
    status, zrow = optimise(zrow)
    if status != _OPTIMAL:
        raise RuntimeError("simplex: phase 1 objective is unbounded")
    if zrow[-1] != 0:
        return _INFEASIBLE, None, None
    # Drive leftover artificials out of the basis. Their rows have a zero
    # right-hand side, so a pivot entry of either sign keeps feasibility.
    for i in range(m):
        if basis[i] >= art_first:
            for j in range(art_first):
                if tableau[i][j] != 0:
                    pivot(i, j, zrow)  # the phase 1 row is done with
                    break
    # Phase 2: the objective, reduced against the current basis. A row whose
    # artificial is still basic is all zero in the stored columns, so it
    # reduces nothing.
    obj = columns(objective, 1)
    zrow, _ = _int_row(obj, _ZERO, art_first)
    for i, b in enumerate(basis):
        if b < art_first:
            q = zrow[b]
            if q:
                row = tableau[i]
                zrow = _eliminate(zrow, q, row, row[b],
                                  [j for j, x in enumerate(row) if x])
    status, zrow = optimise(zrow)
    if status == _UNBOUNDED:
        return _UNBOUNDED, None, None
    # Basic column b of row i has the value rhs/row[b]; the rest are zero.
    values: Dict[int, Rat] = {}
    for i, b in enumerate(basis):
        if b < nstruct:
            row = tableau[i]
            values[b] = Rat(row[-1], row[b])
    value = sum((c * values[j] for j, c in obj.items() if j in values), _ZERO)
    point = None
    if want_point:
        point = {}
        for v in variables:
            x = values.get(col_of[(v, 1)], _ZERO)
            if v not in nonneg:
                x -= values.get(col_of[(v, -1)], _ZERO)
            point[v] = x
    return _OPTIMAL, value, point


_EPS = "$eps"


def _lp_rows(constraints: Iterable[LinearConstraint]):
    """Encode constraints as LP rows, strict ones padded with the shared slack."""
    rows = []
    strict = False
    for c in constraints:
        coeffs = dict(c.coeffs)
        if c.rel == LT:
            coeffs[_EPS] = 1
            strict = True
            rows.append((coeffs, LE, c.bound))
        elif c.rel == LE:
            rows.append((coeffs, LE, c.bound))
        else:
            rows.append((coeffs, EQ, c.bound))
    return rows, strict


@lru_cache(maxsize=65536)
def is_satisfiable(cs: ConstraintSet) -> bool:
    """Exact satisfiability over the rationals (equivalently the reals)."""
    if not cs.constraints:
        return True
    only_single = True
    for c in cs.constraints:
        if c.is_trivially_false():
            return False
        if len(c.coeffs) > 1:
            only_single = False
    if only_single:
        return _interval_satisfiable(cs.constraints)
    rows, strict = _lp_rows(cs.constraints)
    status, value, _ = solve_lp(rows, {_EPS: 1}, frozenset({_EPS}))
    if status == _INFEASIBLE:
        return False
    if status == _UNBOUNDED:
        return True
    return bool(strict) is False or value > 0


def _interval_satisfiable(constraints: Sequence[LinearConstraint]) -> bool:
    # Every constraint mentions exactly one variable: intersect intervals.
    lo: Dict[str, Tuple[Rat, bool]] = {}  # var -> (bound, strict)
    hi: Dict[str, Tuple[Rat, bool]] = {}
    for c in constraints:
        (v, k) = c.coeffs[0]
        b = Rat(c.bound, k)
        if c.rel == EQ:
            _tighten(lo, v, b, False)
            _tighten_hi(hi, v, b, False)
            continue
        strict = c.rel == LT
        if k > 0:
            _tighten_hi(hi, v, b, strict)
        else:
            _tighten(lo, v, b, strict)
    for v in set(lo) & set(hi):
        l, ls = lo[v]
        h, hs = hi[v]
        if l > h or (l == h and (ls or hs)):
            return False
    return True


def _tighten(lo, v, b, strict):
    cur = lo.get(v)
    if cur is None or b > cur[0] or (b == cur[0] and strict):
        lo[v] = (b, strict)


def _tighten_hi(hi, v, b, strict):
    cur = hi.get(v)
    if cur is None or b < cur[0] or (b == cur[0] and strict):
        hi[v] = (b, strict)


@lru_cache(maxsize=65536)
def _entails_cached(cs: ConstraintSet, c: LinearConstraint) -> bool:
    if c.is_trivially_true():
        return True
    # Syntactic fast path: a constraint in the set with the same linear part
    # and an equal or tighter bound already implies c.
    for d in cs.constraints:
        if d.coeffs == c.coeffs:
            if c.rel == EQ:
                if d.rel == EQ and d.bound == c.bound:
                    return True
            elif d.rel == EQ:
                if d.bound < c.bound or (d.bound == c.bound and c.rel == LE):
                    return True
            elif d.bound < c.bound or (
                    d.bound == c.bound and (d.rel == c.rel or c.rel == LE)):
                return True
    for neg in c.negations():
        if is_satisfiable(cs.add(neg)):
            return False
    return True


# The cached functions themselves, so that `reset_caches` reaches their caches
# even when the module attributes are rebound (by a tracer, say).
_CACHED = (is_satisfiable, _entails_cached)


def reset_caches() -> None:
    """Empty the satisfiability and entailment caches and their counts.

    `verify` calls this when a run starts, so that what a run costs does
    not depend on what ran before it in the process. The entries stay until
    the next run starts, so `cache_info()` still describes the last run.
    """
    for fn in _CACHED:
        fn.cache_clear()


def entails(cs: ConstraintSet, c: LinearConstraint) -> bool:
    """Does the conjunction `cs` imply the single constraint `c`?"""
    return _entails_cached(cs, c)


def entails_all(cs: ConstraintSet, other: ConstraintSet) -> bool:
    return all(_entails_cached(cs, c) for c in other.constraints)


# ---------------------------------------------------------------------------
# Projection: Gaussian substitution for equalities, then Fourier-Motzkin.
# ---------------------------------------------------------------------------


def project(cs: ConstraintSet, keep: Iterable[str]) -> ConstraintSet:
    """Project onto `keep`: an equivalent constraint set over keep only.

    Exact for linear rational arithmetic. Returns FALSE_SET when `cs` is
    unsatisfiable. Raises ResourceLimitError when the intermediate constraint
    count exceeds the `fm_limit` cap.
    """
    keep = set(keep)
    drop = sorted(cs.variables() - keep)
    if not drop:
        if cs.has_trivially_false():
            return FALSE_SET
        return cs
    limit = fm_limit.get()
    work: List[LinearConstraint] = list(cs.constraints)

    # Gaussian pass: use equalities to substitute eliminable variables away.
    changed = True
    while changed:
        changed = False
        for idx, c in enumerate(work):
            if c.rel != EQ:
                continue
            var = next((v for v, _ in c.coeffs if v not in keep), None)
            if var is None:
                continue
            c_v = c.coeff(var)
            expr = {v: Rat(-k, c_v) for v, k in c.coeffs if v != var}
            const = Rat(c.bound, c_v)
            work = [
                d.substitute(var, expr, const)
                for j, d in enumerate(work)
                if j != idx
            ]
            changed = True
            break

    rows = [c for c in work if not c.is_trivially_true()]
    if any(c.is_trivially_false() for c in rows):
        return FALSE_SET

    remaining = sorted({v for c in rows for v in c.variables() if v not in keep})
    while remaining:
        # Cheapest variable first: fewest lower*upper combinations.
        def cost(v: str) -> Tuple[int, str]:
            pos = sum(1 for c in rows if c.coeff(v) > 0)
            neg = sum(1 for c in rows if c.coeff(v) < 0)
            return (pos * neg, v)

        var = min(remaining, key=cost)
        remaining.remove(var)
        uppers, lowers, rest = [], [], []
        for c in rows:
            k = c.coeff(var)
            if k > 0:
                uppers.append(c)
            elif k < 0:
                lowers.append(c)
            else:
                rest.append(c)
        new: List[LinearConstraint] = []
        for up, lo in itertools.product(uppers, lowers):
            ku, kl = up.coeff(var), -lo.coeff(var)
            combo: Dict[str, Rat] = {}
            for v, c in up.coeffs:
                combo[v] = combo.get(v, 0) + c * kl
            for v, c in lo.coeffs:
                combo[v] = combo.get(v, 0) + c * ku
            rel = LT if LT in (up.rel, lo.rel) else LE
            cand = LinearConstraint.make(combo, rel, up.bound * kl + lo.bound * ku)
            if cand.is_trivially_false():
                return FALSE_SET
            if not cand.is_trivially_true():
                new.append(cand)
        rows = _dominance_prune(rest + new)
        if len(rows) > limit:
            raise ResourceLimitError(
                f"projection exceeded {limit} constraints while eliminating {var}")
        if len(rows) > 12:
            rows = _semantic_prune(rows)

    out = ConstraintSet.make(rows)
    if out.has_trivially_false() or not is_satisfiable(out):
        return FALSE_SET
    return out


def _dominance_prune(rows: List[LinearConstraint]) -> List[LinearConstraint]:
    """Drop duplicates and constraints dominated by a parallel twin."""
    best: Dict[Tuple, LinearConstraint] = {}
    equalities: List[LinearConstraint] = []
    for c in rows:
        if c.rel == EQ:
            equalities.append(c)
            continue
        key = c.coeffs
        cur = best.get(key)
        if cur is None or c.bound < cur.bound or (
                c.bound == cur.bound and c.rel == LT):
            best[key] = c
    return equalities + list(best.values())


def _semantic_prune(rows: List[LinearConstraint]) -> List[LinearConstraint]:
    kept = list(rows)
    i = 0
    while i < len(kept):
        others = ConstraintSet.make(kept[:i] + kept[i + 1:])
        if entails(others, kept[i]):
            kept.pop(i)
        else:
            i += 1
    return kept


# ---------------------------------------------------------------------------
# Simplification.
# ---------------------------------------------------------------------------


def simplify(cs: ConstraintSet) -> ConstraintSet:
    """A logically equivalent, canonical, redundancy-free constraint set.

    Detects implied equalities (an inequality whose reverse is entailed),
    removes constraints entailed by the rest, and leaves every survivor in
    the canonical coprime-integer scaling.
    """
    if not is_satisfiable(cs):
        return FALSE_SET
    work = list(cs.constraints)
    # Upgrade inequalities to equalities when the reverse direction holds.
    upgraded: List[LinearConstraint] = []
    full = ConstraintSet.make(work)
    for c in work:
        if c.rel == LE:
            reverse = LinearConstraint.make(
                {v: -k for v, k in c.coeffs}, LE, -c.bound)
            if entails(full, reverse):
                upgraded.append(LinearConstraint.make(dict(c.coeffs), EQ, c.bound))
                continue
        upgraded.append(c)
    # Drop anything the remaining constraints already imply. Deterministic
    # order: strict before non-strict before equalities, then constraint key,
    # so the surviving basis is stable across runs.
    order = {EQ: 0, LT: 1, LE: 2}
    upgraded = sorted(set(upgraded), key=lambda c: (order[c.rel], _constraint_key(c)))
    i = len(upgraded) - 1
    while i >= 0:
        rest = ConstraintSet.make(upgraded[:i] + upgraded[i + 1:])
        if entails(rest, upgraded[i]):
            upgraded.pop(i)
        i -= 1
    return ConstraintSet.make(upgraded)


# ---------------------------------------------------------------------------
# Farkas certificates.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FarkasCertificate:
    """A non-negative combination of constraints deriving a contradiction.

    `constraints` are inequality rows (equalities of the input appear as
    their two halves), `from_first[i]` records whether row i came from the
    first of the two input sets, `multipliers[i]` is the weight of row i.
    `derived` is the weighted sum: a constant constraint that is false.
    """

    constraints: Tuple[LinearConstraint, ...]
    from_first: Tuple[bool, ...]
    multipliers: Tuple[Rat, ...]
    derived: LinearConstraint

    def combination(self, select=None) -> Tuple[Dict[str, Rat], Rat, bool]:
        """Weighted sum of (a subset of) the rows: coeffs, bound, any-strict."""
        coeffs: Dict[str, Rat] = {}
        bound = _ZERO
        strict = False
        for row, flag, lam in zip(self.constraints, self.from_first, self.multipliers):
            if lam == 0 or (select is not None and flag != select):
                continue
            for v, c in row.coeffs:
                coeffs[v] = coeffs.get(v, _ZERO) + lam * c
            bound += lam * row.bound
            strict = strict or row.rel == LT
        return coeffs, bound, strict

    def validate(self) -> bool:
        if any(lam < 0 for lam in self.multipliers):
            return False
        coeffs, bound, strict = self.combination()
        coeffs = {v: c for v, c in coeffs.items() if c != 0}
        rel = LT if strict else LE
        if LinearConstraint.make(coeffs, rel, bound) != self.derived:
            return False
        return self.derived.is_trivially_false()

    def first_part(self) -> LinearConstraint:
        """The first-set half of the combination, as a single constraint."""
        coeffs, bound, strict = self.combination(select=True)
        return LinearConstraint.make(coeffs, LT if strict else LE, bound)


def farkas_refutation(first: ConstraintSet, second: ConstraintSet
                      ) -> FarkasCertificate:
    """Certificate of unsatisfiability for `first & second`.

    Precondition: the union is unsatisfiable (ValueError otherwise). The
    returned multipliers are non-negative; rows coming from equalities are
    the two inequality halves so negative equality weights never arise.
    The certificate is re-checked before it is returned; RuntimeError
    means the LP kernel returned no valid one.
    """
    union = first & second
    if is_satisfiable(union):
        raise ValueError("farkas_refutation: constraint union is satisfiable")
    rows: List[LinearConstraint] = []
    origin: List[bool] = []
    for source, flag in ((first, True), (second, False)):
        for c in source.constraints:
            for half in c.split_equality():
                rows.append(half)
                origin.append(flag)
    lam = [f"$l{i}" for i in range(len(rows))]
    lp_rows = []
    for v in sorted({v for r in rows for v in r.variables()}):
        lp_rows.append(
            ({lam[i]: rows[i].coeff(v) for i in range(len(rows))
              if rows[i].coeff(v) != 0}, EQ, 0))
    bound_row = {lam[i]: rows[i].bound for i in range(len(rows)) if rows[i].bound != 0}
    nn = frozenset(lam)
    # Case A: sum of bounds strictly negative.
    status, _, point = solve_lp(
        lp_rows + [(bound_row, LE, -1)], {}, nn, want_point=True)
    if status != _OPTIMAL:
        # Case B: bounds sum to <= 0 with positive weight on a strict row.
        strict_row = {lam[i]: 1 for i in range(len(rows)) if rows[i].rel == LT}
        if not strict_row:
            raise RuntimeError(
                "farkas_refutation: no certificate with a negative bound sum "
                "for an unsatisfiable system without strict rows")
        status, _, point = solve_lp(
            lp_rows + [(bound_row, LE, 0),
                       ({k: -v for k, v in strict_row.items()}, LE, -1)],
            {}, nn, want_point=True)
        if status != _OPTIMAL:
            raise RuntimeError(
                "farkas_refutation: no certificate for an unsatisfiable system "
                "(Motzkin transposition guarantees one)")
    multipliers = tuple(point.get(l, _ZERO) for l in lam)
    cert = FarkasCertificate(tuple(rows), tuple(origin), multipliers, FALSE_CONSTRAINT)
    coeffs, bound, strict = cert.combination()
    cert = replace(cert, derived=LinearConstraint.make(
        coeffs, LT if strict else LE, bound))
    if not cert.validate():
        raise RuntimeError(
            "farkas_refutation: the multipliers do not re-multiply to a "
            "contradiction")
    return cert
