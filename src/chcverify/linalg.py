"""Exact linear rational arithmetic: constraints, satisfiability, projection,
convex hull, entailment, simplification and Farkas certificates.

Everything in this module is exact. A constraint with variables is stored in
its canonical form: coprime Python `int` coefficients and bound. Rationals
(`Rat`, which is `fractions.Fraction`) appear only where a value is not an
integer: inputs to `LinearConstraint.make`, the bound of a constant
constraint, LP points, and Farkas multipliers.

Satisfiability, entailment and redundancy are decided by one incremental
simplex with Bland's rule on a fraction-free integer tableau (`_Tableau`).
It is kept feasible while rows are added one at a time: a `<=` row whose
reduced right-hand side is non-negative enters with its slack basic, any
other row gets one artificial and a phase 1 over that row alone. The
artificial ends with that phase 1. When it cannot be pivoted out, its row is
an equality the other rows entail, and the row's own fixed slack takes its
basic place at 0. So every row is read through its own slack. A free
variable is one free column. A row is dropped again by freeing its slack.
Strict inequalities share one slack `$eps`: a mixed system is strictly
satisfiable iff `$eps` can be made positive. Entailment adds no row: on the
tableau of a strictly satisfiable set, `a.x rel b` is entailed iff the
maximum of a.x - b is below 0, or is 0 and the query is not strict, and the
maximisation stops as soon as the value passes 0. A strict query whose
maximum is exactly 0 is entailed iff the strict rows cannot hold strictly on
the optimal face, asked of the same tableau with the columns that would
lower the objective held at 0 for the moment. `_Tableau.of` returns a
tableau only for strictly satisfiable rows, so every tableau the kernel
holds meets that precondition. The queries on one constraint set share a
single phase 1: `_tableau_of` caches the tableau of a set, or None, and is
the only place where a set's satisfiability is decided. `is_satisfiable`
asks whether it exists, `entails` maximises on it in place (a set without
one entails everything), and `simplify` relaxes each row of a copy in turn
and tests it against the rest, as `_semantic_prune` does on the tableau of
its rows.
Most queries ask about one of the tableau's own rows: whether the others
entail it (`_drop_redundant`, `replaces_a_row`) or whether its reverse
holds (`simplify`'s upgrade pass). Their objective is read off the row's
own slack: the row a.x <= b reads a.x + s = b, so a.x - b is -s, one
column to reduce instead of one per coefficient, and the reduced row is
the one the coefficients give.
A maximisation only pivots, which keeps the tableau feasible and its rows
the same, so a query copies the tableau only when it relaxes a row. After
`_Tableau.of` no row is added: `simplify` makes an implied equality of a row
by fixing its slack at 0 on its copy.
The tableau is the only entailment procedure: no syntactic test answers
first. Every row enters the tableau as a canonical `LinearConstraint`, the
rows of an LP included, so a rational input is scaled to integers once, by
`LinearConstraint.make`, and only an LP point is turned back into
rationals.

Projection is Fourier-Motzkin elimination. Equalities are first used for
Gaussian substitution, which keeps the combinatorial part small. Both steps
build each new row as one integer combination of two rows (`_combine`),
made canonical as `LinearConstraint.make` makes its rows (`_canonical`). The
number of intermediate constraints is capped (`FM_LIMIT`) and exceeding
the cap raises ResourceLimitError so callers can degrade to an "unknown"
verdict instead of diverging.

The closed convex hull of two sets is computed by double description
(Motzkin et al. 1953; Fukuda & Prodon 1996), in integers throughout, and
cached per pair of sets (`closed_hull`). Each set's closure, homogenised
with a variable t >= 0, is a cone, converted to its lines and extreme rays
(`_generators`). The cone that the generators of both sets span is
converted back by the same method on its polar: polar lines are the hull's
equalities and polar rays its facets, so the result has no redundant row.
The facets are reduced modulo the equalities, so the rows do not depend on
the order in which the generators were found. `FM_LIMIT` caps the rays of
every intermediate step too.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction as Rat
from functools import lru_cache
from typing import (Container, Dict, Iterable, List, Mapping, NamedTuple, Optional,
                    Sequence, Tuple)

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
    "replaces_a_row",
    "project",
    "closed_hull",
    "simplify",
    "farkas_refutation",
    "reset_caches",
]

# Relation symbols kept after normalisation. ">=" and ">" are flipped into
# these at construction time.
LE = "<="
LT = "<"
EQ = "="

_ZERO = Rat(0)


def rat(num, den=1) -> Rat:
    """num / den as a `Fraction`; num may be an int, a rational or a string
    that `Fraction` reads, such as "3", "-7/2", "0.25" or ".5"."""
    return Rat(num) / den


class ResourceLimitError(Exception):
    """A resource cap was exceeded: the rows of one projection or the rays
    of one double-description step (`FM_LIMIT`), the rounds of one
    component's fixpoint (`analysis.MAX_ITERATIONS`) or the versions of one
    clause in a split (`refine.MAX_CLAUSES_PER_SOURCE`).
    """


# Cap on the number of constraints a single projection may build up, and on
# the number of rays a single step of a hull's double description may keep.
FM_LIMIT = 10_000


class LinearConstraint:
    """A normalised linear constraint  sum(c_i * v_i)  rel  bound.

    Invariants: coefficients are non-zero and sorted by variable name, the
    relation is one of <=, <, =, and the whole constraint is scaled so that
    coefficients and bound are coprime integers, stored as `int`. Equalities
    are additionally sign-normalised (first coefficient positive).
    Inequalities keep their sign since scaling by a negative factor would
    flip them. A constant constraint (no variables) keeps its exact bound, a
    `Fraction`. The hash is computed once, at construction, so cache lookups
    keyed on constraints do not re-hash their coefficients.
    """

    __slots__ = ("coeffs", "rel", "bound", "_hash")

    def __init__(self, coeffs: Tuple[Tuple[str, int], ...], rel: str,
                 bound: Rat) -> None:
        self.coeffs = coeffs
        self.rel = rel
        self.bound = bound
        self._hash = hash((coeffs, rel, bound))

    def __repr__(self) -> str:
        return (f"LinearConstraint(coeffs={self.coeffs!r}, rel={self.rel!r}, "
                f"bound={self.bound!r})")

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
        # Scale by the common denominator: an int's is 1.
        den = math.lcm(bound.denominator, *(c.denominator for _, c in items))
        return _canonical(
            [(v, c.numerator * (den // c.denominator)) for v, c in items],
            rel, bound.numerator * (den // bound.denominator), sign)

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
        # Renaming keeps the integers coprime: only the order by name and
        # the sign of an equality can change, unless two names merge.
        items = sorted((mapping.get(v, v), c) for v, c in self.coeffs)
        if any(a[0] == b[0] for a, b in zip(items, items[1:])):
            merged: Dict[str, int] = {}
            for v, c in items:
                merged[v] = merged.get(v, 0) + c
            return LinearConstraint.make(merged, self.rel, self.bound)
        bound = self.bound
        if self.rel == EQ and items and items[0][1] < 0:
            items = [(v, -c) for v, c in items]
            bound = -bound
        return LinearConstraint(tuple(items), self.rel, bound)

    def negations(self) -> Tuple["LinearConstraint", ...]:
        """Constraints whose disjunction is the negation of this one."""
        # Negated coprime integers stay coprime, and inequalities keep their
        # sign: every result is already canonical.
        neg = tuple((v, -c) for v, c in self.coeffs)
        if self.rel == LE:  # not (t <= b)  ==  -t < -b
            return (LinearConstraint(neg, LT, -self.bound),)
        if self.rel == LT:  # not (t < b)   ==  -t <= -b
            return (LinearConstraint(neg, LE, -self.bound),)
        return (  # not (t = b)  ==  t < b  or  t > b
            LinearConstraint(self.coeffs, LT, self.bound),
            LinearConstraint(neg, LT, -self.bound),
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
        # As in `negations`: both halves are already canonical.
        neg = tuple((v, -c) for v, c in self.coeffs)
        return (LinearConstraint(self.coeffs, LE, self.bound),
                LinearConstraint(neg, LE, -self.bound))

    def __str__(self) -> str:
        lhs = "+ ".join(f"{c}*{v}" for v, c in self.coeffs) if self.coeffs else "0"
        rel = {LE: "=<", LT: "<", EQ: "="}[self.rel]
        return f"{lhs} {rel} {self.bound}"


def _canonical(items: List[Tuple[str, int]], rel: str, bound: int,
               sign: int = 1) -> LinearConstraint:
    """The constraint  sign * (items . x  rel  bound)  from a non-empty
    integer row sorted by name: divided by its gcd, and negated to make an
    equality's first coefficient positive."""
    g = math.gcd(bound, *(a for _, a in items))
    if sign < 0 or (rel == EQ and items[0][1] < 0):
        g = -g
    return LinearConstraint(tuple((v, a // g) for v, a in items), rel, bound // g)


FALSE_CONSTRAINT = LinearConstraint.make({}, LE, -1)


class ConstraintSet:
    """An immutable conjunction of linear constraints.

    Constraints are deduplicated and kept in a fixed sorted order so that
    equal sets compare and hash equal; the empty set is `true`. As for a
    constraint, the hash is computed once, at construction.
    """

    __slots__ = ("constraints", "_hash")

    def __init__(self, constraints: Tuple[LinearConstraint, ...]) -> None:
        self.constraints = constraints
        self._hash = hash((constraints,))

    def __repr__(self) -> str:
        return f"ConstraintSet(constraints={self.constraints!r})"

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
        renamed = [c.rename(mapping) for c in self.constraints]
        names = {v for c in self.constraints for v, _ in c.coeffs}
        if len({mapping.get(v, v) for v in names}) < len(names):
            return ConstraintSet.make(renamed)
        # Injective on the variables: every row stays non-trivial and the
        # rows stay distinct, so only their order can change.
        return ConstraintSet(tuple(sorted(renamed, key=_constraint_key)))

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
# Simplex. One fraction-free integer tableau, kept feasible while rows are
# added one at a time and relaxed again: incremental simplex in the style of
# Dutertre and de Moura (CAV 2006), so that the queries on one constraint set
# share a single phase 1; an entailment query is one bounded maximisation
# on the tableau itself, with no row added. Every row, an objective row
# included, is held as a positive integer multiple of the true rational row,
# right-hand side first; positive scaling preserves every sign and every
# ratio order, so the pivots are the ones a rational tableau would take, and
# only the point `solve_lp` finds is read back as rationals. Bland's rule
# (lowest eligible column, lowest basic column on ties) ensures termination.
# Small systems only; this is the single hot spot of the whole verifier, so
# the inner loops stay primitive.
# ---------------------------------------------------------------------------

# Column kinds. A free column may enter the basis in either direction and,
# once basic, never blocks the ratio test. A fixed column (the slack of an
# equality row) never enters and stays at 0 until its row is relaxed;
# basic, it blocks like a non-negative one. An artificial column lives only
# inside the `_Tableau.add` call that made it, and never enters either.
_NONNEG, _FREE, _FIXED, _ART = range(4)

# The shared slack of the strict rows.
_EPS = "$eps"


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


def _support(row: List[int]) -> List[int]:
    return [j for j, x in enumerate(row) if x]


class _Tableau:
    """A feasible simplex tableau over a growing set of rows.

    Row i reads  sum_j rows[i][j] * x_j = rows[i][0]  and has the basic
    column basis[i], whose entry is positive. Nonbasic columns are at 0, so
    the value of a basic column is rows[i][0] / rows[i][basis[i]]; it is
    non-negative unless the column is free. The k-th added row  a.x <= b  or
    a.x = b  reads  a.x + s = b  with its own slack column s, non-negative or
    fixed at 0, and `slacks[k]` holds s with the row's relation; `relax(k)`
    frees s, which drops the row, and `fix(k)` fixes it, which makes a.x <=
    b an equality. A strict row  a.x < b  enters as  a.x + eps <= b  with the
    shared non-negative column `$eps`, and the rows hold with the strict
    ones strict iff eps can be made positive. A variable seen for the first
    time gets a free column. A fixed slack is basic, at 0, only on a row
    over fixed columns, as a dependent equality or `fix` leaves it.

    Adding, relaxing or fixing a row changes the tableau, so a shared one
    is copied first. Optimising only pivots: the tableau stays feasible and
    holds the same rows, so `implies` and `reverse_holds` run on a shared
    tableau in place (a strict tie fixes columns only for the moment), and
    `others_imply` copies it to relax the row it asks about. The last two
    test one of the added rows, with the row's slack as their objective.
    """

    __slots__ = ("rows", "basis", "kind", "col", "slacks", "strict")

    def __init__(self) -> None:
        self.rows: List[List[int]] = []
        self.basis: List[int] = []
        self.kind: List[int] = [_FIXED]  # column 0 holds the right-hand side
        self.col: Dict[str, int] = {}
        # Per added row: its slack column (0 for a constant row), relation
        self.slacks: List[Tuple[int, str]] = []
        self.strict = 0  # strict rows not relaxed

    @staticmethod
    def of(constraints: Iterable[LinearConstraint]) -> "Optional[_Tableau]":
        """The tableau of the constraints, or None when they are not
        strictly satisfiable: so every tableau built here meets the
        precondition of `implies`."""
        t = _Tableau()
        for c in constraints:
            if not t.add(c):
                return None
        return t if t.satisfiable() else None

    def copy(self) -> "_Tableau":
        t = _Tableau.__new__(_Tableau)
        t.rows = [row[:] for row in self.rows]
        t.basis = self.basis[:]
        t.kind = self.kind[:]
        t.col = self.col.copy()
        t.slacks = self.slacks[:]
        t.strict = self.strict
        return t

    def column(self, var: str, kind: int = _FREE) -> int:
        j = self.col.get(var)
        if j is None:
            j = self.col[var] = self._new_column(kind)
        return j

    def _new_column(self, kind: int) -> int:
        for row in self.rows:
            row.append(0)
        self.kind.append(kind)
        return len(self.kind) - 1

    def add(self, c: LinearConstraint) -> bool:
        """Add one constraint; False (and an unusable tableau) when the
        closure of the rows becomes empty."""
        if not c.coeffs:
            self.slacks.append((0, c.rel))
            return c.is_trivially_true()
        rows, basis, kind = self.rows, self.basis, self.kind
        entries = [(self.column(v), a) for v, a in c.coeffs]
        strict = c.rel == LT
        if strict:
            entries.append((self.column(_EPS, _NONNEG), 1))
        s = self._new_column(_FIXED if c.rel == EQ else _NONNEG)
        self.slacks.append((s, c.rel))
        self.strict += strict
        row = self._reduced([*entries, (s, 1)], c.bound)
        if c.rel != EQ and row[0] >= 0:
            rows.append(row)
            basis.append(s)
            return True
        # Otherwise an artificial column carries the row's violation and a
        # phase 1 over this row alone (maximise -art) drives it to 0.
        if row[0] < 0:
            row = [-x for x in row]
        art = self._new_column(_ART)
        row.append(1)
        rows.append(row)
        basis.append(art)
        zrow = row[:]
        zrow[art] = 0
        zrow = self._optimise(zrow, 1)
        if zrow is None:
            raise RuntimeError("simplex: phase 1 objective is unbounded")
        if zrow[0]:
            return False
        # Basic at 0, the artificial leaves the basis if it can. If not, its
        # row holds fixed columns only, a dependent equality, and the row's
        # own fixed slack takes the basic place at 0.
        if art in basis and not self._pivot_out(art):
            self._pivot(basis.index(art), s)
        for r in rows:  # the artificial is the last column
            r.pop()
        kind.pop()
        return True

    def relax(self, k: int) -> None:
        """Drop the k-th added row by freeing its slack; the basis stays
        feasible."""
        s, rel = self.slacks[k]
        kind = self.kind
        if not s or kind[s] == _FREE:
            return
        if kind[s] == _FIXED and s not in self.basis:
            # A row whose basic column is fixed holds fixed columns only,
            # and would move with a free s: make s basic there first (the
            # right-hand side is 0). A basic s is freed in place.
            for i, b in enumerate(self.basis):
                if kind[b] == _FIXED and self.rows[i][s]:
                    self._pivot(i, s)
                    break
        kind[s] = _FREE
        self.strict -= rel == LT

    def fix(self, k: int) -> None:
        """Make the k-th added row, a.x <= b, the equality a.x = b by fixing
        its slack at 0. Precondition: the rows entail a.x >= b, so the slack
        is 0 at every point; basic, it leaves the basis if it can."""
        s = self.slacks[k][0]
        self.slacks[k] = (s, EQ)
        self.kind[s] = _FIXED
        if s in self.basis:
            self._pivot_out(s)

    def _pivot_out(self, b: int) -> bool:
        """Pivot the basic column `b`, at 0, out of the basis on an entry of
        its row in a column that may move, which keeps the right-hand side
        0; False when its row has none."""
        i = self.basis.index(b)
        row = self.rows[i]
        for j in range(1, len(row)):
            if row[j] and self.kind[j] <= _FREE:
                self._pivot(i, j)
                return True
        return False

    def satisfiable(self) -> bool:
        """Do the rows hold, the strict ones strictly, at some point?"""
        if not self.strict:
            return True
        zrow = self._optimise(self._reduced([(self.col[_EPS], 1)]), 0)
        return zrow is None or zrow[0] < 0

    def implies(self, c: LinearConstraint) -> bool:
        """Do the rows entail `c`? Leaves the rows and their slacks as they
        are, though not the basis.

        Precondition: the rows are strictly satisfiable, as those of any
        tableau from `of` are. So `c` (a.x rel b) is entailed iff the maximum
        of a.x - b is below 0, or is 0 and `c` is not strict or the strict
        rows fail on the face where it is reached (see `_bounded`). A
        variable of `c` that no row mentions is free, so its maximum is
        unbounded.
        """
        if not c.coeffs:
            return c.is_trivially_true()
        col = self.col
        if any(v not in col for v, _ in c.coeffs):
            return False
        return self._bounded(c.rel, [(col[v], a) for v, a in c.coeffs], c.bound)

    def others_imply(self, k: int) -> bool:
        """Do the rows other than the k-th entail it? Asked on a copy with
        row k relaxed, with the objective read off row k's slack (see
        `_row_objective`); the tableau itself is left as it is."""
        s, rel = self.slacks[k]
        if not s:
            return True  # a constant row that `add` accepted holds
        t = self.copy()
        t.relax(k)
        return t._bounded(rel, t._row_objective(k), 0)

    def reverse_holds(self, k: int) -> bool:
        """Do the rows entail the reverse a.x >= b of the k-th row (a.x <= b,
        not constant): is the maximum of b - a.x, row k's slack, 0? Pivots
        the tableau in place, as `implies` does."""
        zrow = self._optimise(self._reduced([(self.slacks[k][0], 1)]), 0)
        return zrow is not None and zrow[0] >= 0

    def _row_objective(self, k: int) -> List[Tuple[int, int]]:
        """The objective a.x - b of the k-th added row (a.x rel b), as
        `_reduced` takes it with right-hand side 0: the row reads a.x + s =
        b, or a.x + eps + s = b when strict, so a.x - b is -s, or -s - eps.
        Reduced, that is the row the coefficients give, in one or two
        columns instead of one per coefficient."""
        s, rel = self.slacks[k]
        if rel == LT:
            return [(s, -1), (self.col[_EPS], -1)]
        return [(s, -1)]

    def _bounded(self, rel: str, entries: Sequence[Tuple[int, int]],
                 rhs: int) -> bool:
        """Is  a.x rel b  entailed, where  sum(a * x_j for j, a in entries) -
        rhs  is its a.x - b over the columns?

        Each direction of an equality is one maximisation, which stops once
        the value passes 0. Primal pivots keep the tableau feasible and its
        rows the same, so the maximisation runs on the tableau itself. A
        strict query whose maximum is 0 is entailed iff the strict rows
        cannot hold strictly on the optimal face, where every nonbasic
        column with a rate in the final objective row stays 0: asked, with
        those columns fixed for the moment, of the same tableau. Without
        strict rows every point of the face reaches the boundary.
        """
        for s in ((1, -1) if rel == EQ else (1,)):
            # zrow[0] is -(a.x - b) at the basic point, times a positive factor.
            zrow = self._optimise(self._reduced(
                entries if s == 1 else [(j, -a) for j, a in entries], s * rhs), 0)
            if zrow is None or zrow[0] < 0:
                return False
            if zrow[0] == 0 and rel == LT:
                saved = self.kind
                self.kind = [_FIXED if d else k for d, k in zip(zrow, saved)]
                try:
                    return not self.satisfiable()
                finally:
                    self.kind = saved
        return True

    def _reduced(self, entries: Sequence[Tuple[int, int]], rhs: int = 0
                 ) -> List[int]:
        """The row  sum(a * x_j for j, a in entries) = rhs  over the nonbasic
        columns; as an objective row (rhs 0), the objective reduced against
        the basis. Eliminating one basic column brings in no other, since
        its row is zero there."""
        row = [0] * len(self.kind)
        row[0] = rhs
        for j, a in entries:
            row[j] = a
        basis = self.basis
        for j, _ in entries:
            if j in basis:
                prow = self.rows[basis.index(j)]
                row = _eliminate(row, row[j], prow, prow[j], _support(prow))
        return row

    def _optimise(self, zrow: List[int], stop_below: int
                  ) -> Optional[List[int]]:
        """Maximise the objective row; the final row, or None if unbounded.

        zrow[j] is the rate at which nonbasic column j raises the objective
        and zrow[0] the negated objective value, both times one positive
        factor. Stop once zrow[0] < stop_below.
        """
        rows, basis, kind = self.rows, self.basis, self.kind
        while zrow[0] >= stop_below:
            pcol = 0
            for j in range(1, len(zrow)):
                d = zrow[j]
                if d and (kind[j] == _FREE or (d > 0 and kind[j] == _NONNEG)):
                    pcol = j
                    break
            if not pcol:
                break
            # Ratios rhs/a, a the rate at which the basic column falls, are
            # compared by cross-multiplication.
            up = zrow[pcol] > 0
            prow, best_num, best_den = -1, 0, 1
            for i, row in enumerate(rows):
                a = row[pcol] if up else -row[pcol]
                if a > 0 and kind[basis[i]] != _FREE:
                    lhs, rhs = row[0] * best_den, best_num * a
                    if prow < 0 or lhs < rhs or (
                            lhs == rhs and basis[i] < basis[prow]):
                        prow, best_num, best_den = i, row[0], a
            if prow < 0:
                return None
            zrow = self._pivot(prow, pcol, zrow)
        return zrow

    def _pivot(self, i: int, j: int, zrow: Optional[List[int]] = None
               ) -> Optional[List[int]]:
        rows = self.rows
        prow = rows[i]
        p = prow[j]
        if p < 0:  # keep the basic entry positive
            prow = rows[i] = [-x for x in prow]
            p = -p
        support = _support(prow)
        for k, row in enumerate(rows):
            if k != i:
                q = row[j]
                if q:
                    rows[k] = _eliminate(row, q, prow, p, support)
        self.basis[i] = j
        if zrow is not None:
            q = zrow[j]
            if q:
                zrow = _eliminate(zrow, q, prow, p, support)
        return zrow


def solve_lp(rows: Sequence[Tuple[Mapping[str, Rat], str, Rat]]
             ) -> Optional[Dict[str, Rat]]:
    """A point of `rows` with every variable >= 0, or None when none exists.

    Each row is (coeffs, rel, bound) with rel in {"<=", "="} and enters the
    tableau as its canonical constraint, over non-negative columns made in
    sorted order. The point is the basic one the phase 1 pivots reach, read
    back as exact rationals.
    """
    for _, rel, _ in rows:
        if rel not in (LE, EQ):
            raise ValueError(f"unknown LP relation {rel!r}")
    t = _Tableau()
    for v in sorted({v for coeffs, _, _ in rows for v in coeffs}):
        t.column(v, _NONNEG)
    for coeffs, rel, bound in rows:
        if not t.add(LinearConstraint.make(coeffs, rel, bound)):
            return None
    values = {b: Rat(row[0], row[b]) for row, b in zip(t.rows, t.basis)}
    return {v: values.get(j, _ZERO) for v, j in t.col.items()}


@lru_cache(maxsize=65536)
def is_satisfiable(cs: ConstraintSet) -> bool:
    """Exact satisfiability over the rationals (equivalently the reals),
    decided by the cached tableau of `cs` (see `_tableau_of`)."""
    return _tableau_of(cs) is not None


@lru_cache(maxsize=256)
def _tableau_of(cs: ConstraintSet) -> Optional[_Tableau]:
    """The tableau of `cs` that all its queries share, or None when `cs` is
    not strictly satisfiable: the one place where a set's satisfiability is
    decided. Its rows never change: `implies` only pivots it, and
    `simplify` fixes and relaxes rows of a copy."""
    return _Tableau.of(cs.constraints)


@lru_cache(maxsize=65536)
def _entails_cached(cs: ConstraintSet, c: LinearConstraint) -> bool:
    """Does the conjunction `cs` imply the single constraint `c`?"""
    t = _tableau_of(cs)
    return t is None or t.implies(c)


entails = _entails_cached


def entails_all(cs: ConstraintSet, other: ConstraintSet) -> bool:
    return all(_entails_cached(cs, c) for c in other.constraints)


@lru_cache(maxsize=65536)
def replaces_a_row(rows: Tuple[LinearConstraint, ...], c: LinearConstraint
                   ) -> bool:
    """Can `c` take the place of one of `rows`: is there a row r that the
    other rows together with c entail?

    Precondition: `rows` are strictly satisfiable and entail `c`, so each
    row relaxed leaves a strictly satisfiable set; ValueError when `rows`
    and `c` together are not strictly satisfiable. One tableau, of the rows
    and c, answers for every row, asked with `others_imply`.
    """
    t = _Tableau.of(rows + (c,))
    if t is None:
        raise ValueError(f"replaces_a_row: the rows contradict {c}")
    return any(t.others_imply(k) for k in range(len(rows)))


# ---------------------------------------------------------------------------
# Projection: Gaussian substitution for equalities, then Fourier-Motzkin.
# ---------------------------------------------------------------------------


def project(cs: ConstraintSet, keep: Iterable[str]) -> ConstraintSet:
    """Project onto `keep`: an equivalent constraint set over keep only.

    Exact for linear rational arithmetic: the result is FALSE_SET when
    elimination derives a false constant, and otherwise holds exactly where
    some values of the other variables satisfy `cs`. An unsatisfiable `cs`
    need not give FALSE_SET, but its projection is unsatisfiable too, so
    `simplify` of it gives FALSE_SET (as `analysis.consequence` uses). Raises
    ResourceLimitError when the intermediate constraint count exceeds
    `FM_LIMIT`.
    """
    return _project_cached(cs, frozenset(keep))


@lru_cache(maxsize=65536)
def _project_cached(cs: ConstraintSet, keep: frozenset) -> ConstraintSet:
    drop = sorted(cs.variables() - keep)
    if not drop:
        if cs.has_trivially_false():
            return FALSE_SET
        return cs
    work: List[LinearConstraint] = list(cs.constraints)

    # Gaussian pass: use equalities to substitute eliminable variables away.
    # Eliminating `var` with  e: a*var + ... = b  from a row d with
    # coefficient k is the row  |a|*d - sign(a)*k*e.
    while True:
        pick = next(((i, e, v, a) for i, e in enumerate(work) if e.rel == EQ
                     for v, a in e.coeffs if v not in keep), None)
        if pick is None:
            break
        idx, e, var, a = pick
        p, sign = abs(a), (1 if a > 0 else -1)
        work = [_combine(p, d, -sign * k, e, d.rel) if (k := d.coeff(var)) else d
                for d in work[:idx] + work[idx + 1:]]

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
                uppers.append((k, c))
            elif k < 0:
                lowers.append((-k, c))
            else:
                rest.append(c)
        new: List[LinearConstraint] = []
        for (ku, up), (kl, lo) in itertools.product(uppers, lowers):
            rel = LT if LT in (up.rel, lo.rel) else LE
            cand = _combine(kl, up, ku, lo, rel)
            if cand.is_trivially_false():
                return FALSE_SET
            if not cand.is_trivially_true():
                new.append(cand)
        rows = _dominance_prune(rest + new)
        if len(rows) > FM_LIMIT:
            raise ResourceLimitError(
                f"projection exceeded {FM_LIMIT} constraints while eliminating {var}")
        if len(rows) > 12:
            rows = _semantic_prune(rows)

    return ConstraintSet.make(rows)


def _combine(p: int, c: LinearConstraint, q: int, d: LinearConstraint,
             rel: str) -> LinearConstraint:
    """The canonical form of  p*c + q*d  with relation `rel`, computed from
    the integer rows of two non-constant constraints.

    p must be positive, and so must q unless d is an equality, so that the
    combination is implied by c and d.
    """
    out = {v: p * a for v, a in c.coeffs}
    for v, a in d.coeffs:
        out[v] = out.get(v, 0) + q * a
    items = sorted((v, a) for v, a in out.items() if a)
    bound = p * c.bound + q * d.bound
    if not items:
        return LinearConstraint((), rel, Rat(bound))
    return _canonical(items, rel, bound)


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
    """`rows` less the rows the others entail; unchanged when they are not
    strictly satisfiable, which `project` allows for an unsatisfiable
    input."""
    base = _Tableau.of(rows)
    if base is None:
        return rows
    return _drop_redundant(rows, range(len(rows)), base)


def _drop_redundant(rows: Sequence[LinearConstraint], order: Iterable[int],
                    base: _Tableau) -> List[LinearConstraint]:
    """`rows` less each row, visited in `order`, that the rows kept entail.

    `base` is the tableau of `rows`, added in order, from `_Tableau.of`; it
    is changed. Every query is one `others_imply(i)` on it, which relaxes
    row i on a copy and maximises the row's own slack. A row found
    redundant is then relaxed on `base` too and stays relaxed, so a
    parallel twin or a duplicate goes the same way as any other entailed
    row.
    """
    kept = [True] * len(rows)
    for i in order:
        if base.others_imply(i):
            kept[i] = False
            base.relax(i)
    return [c for c, k in zip(rows, kept) if k]


# ---------------------------------------------------------------------------
# Double description: constraints to generators and back.
# ---------------------------------------------------------------------------


def _mix(a: int, u: Tuple[int, ...], b: int, v: Tuple[int, ...]
         ) -> Tuple[int, ...]:
    """a*u + b*v, divided by its gcd."""
    w = [a * x + b * y for x, y in zip(u, v)]
    g = math.gcd(*w)
    return tuple(x // g for x in w) if g > 1 else tuple(w)


def _double_description(n: int, rows: Sequence[Tuple[Tuple[int, ...], bool]]
                        ) -> Tuple[Tuple[Tuple[int, ...], ...], ...]:
    """The lines and extreme rays of the cone of the y in Z^n with r.y = 0
    for each row (r, True) and r.y <= 0 for each row (r, False).

    The rows are added one at a time to the whole space, whose lines are the
    unit vectors. A row that a line crosses turns that line into a ray and
    moves the other generators onto the row's hyperplane. Otherwise the rays
    on the row's wrong side go, and each pair of adjacent rays on opposite
    sides gives one ray on the hyperplane. Two rays are adjacent when no
    third ray is tight on every row they are both tight on, the
    combinatorial test; each ray carries its tight rows as a bit mask. A
    pair tight together on fewer than n - 2 rows less the number of lines
    is not adjacent, which is checked first. Raises ResourceLimitError when
    the rays exceed `FM_LIMIT`.
    """
    mul = operator.mul
    lines = [(0,) * j + (1,) + (0,) * (n - j - 1) for j in range(n)]
    rays: List[Tuple[Tuple[int, ...], int]] = []  # (ray, mask of tight rows)
    for k, (row, eq) in enumerate(rows):
        bit = 1 << k
        dots = [sum(map(mul, row, line)) for line in lines]
        pick = next((i for i, d in enumerate(dots) if d), None)
        if pick is not None:
            line, s = lines.pop(pick), dots.pop(pick)
            if s > 0:
                line, s = tuple(-a for a in line), -s
            lines = [_mix(-s, l, d, line) if d else l for l, d in zip(lines, dots)]
            rays = [(_mix(-s, r, d, line) if (d := sum(map(mul, row, r))) else r,
                     m | bit) for r, m in rays]
            if not eq:
                rays.append((line, bit - 1))  # tight on every earlier row
        else:
            pos, neg, kept = [], [], []
            for r, m in rays:
                d = sum(map(mul, row, r))
                if d > 0:
                    pos.append((r, m, d))
                elif d < 0:
                    neg.append((r, m, d))
                    if not eq:
                        kept.append((r, m))
                else:
                    kept.append((r, m | bit))
            masks = [m for _, m in rays]
            need = n - len(lines) - 2
            for p, mp, dp in pos:
                for q, mq, dq in neg:
                    m = mp & mq
                    if m.bit_count() >= need and sum(
                            1 for o in masks if o & m == m) == 2:
                        kept.append((_mix(-dq, p, dp, q), m | bit))
            rays = kept
        if len(rays) > FM_LIMIT:
            raise ResourceLimitError(
                f"double description exceeded {FM_LIMIT} generators")
    return tuple(lines), tuple(r for r, _ in rays)


def _generators(cs: ConstraintSet, space: Tuple[str, ...]
                ) -> Tuple[Tuple[Tuple[int, ...], ...], ...]:
    """The lines and rays of the closure of `cs` homogenised over `space`
    and t: a row a.x <= b (or < b, or = b) reads a.x - b*t <= 0 (or = 0),
    and t >= 0. Equalities go first."""
    index = {v: i for i, v in enumerate(space)}
    rows = []
    for c in sorted(cs, key=lambda c: c.rel != EQ):
        vec = [0] * (len(space) + 1)
        for v, a in c.coeffs:
            vec[index[v]] = a
        vec[-1] = -c.bound
        rows.append((tuple(vec), c.rel == EQ))
    rows.append(((0,) * len(space) + (-1,), False))
    return _double_description(len(space) + 1, rows)


@lru_cache(maxsize=65536)
def closed_hull(p: ConstraintSet, q: ConstraintSet,
                space: Tuple[str, ...]) -> ConstraintSet:
    """The closed convex hull of two satisfiable sets over `space`, the
    closure of their union's convex hull, with no redundant row and every
    implied equality an equality. Cached, because a round's program
    analysis joins pairs that its query-answer analysis joined, and a later
    round joins pairs that an earlier one did.

    Its cone is generated by the generators of both closures
    (`_generators`), and its rows are the generators of the polar cone:
    each polar line c reads c.(x, t) = 0 at t = 1, an equality, and each
    polar ray an inequality. Each equality in turn eliminates its last
    variable from every other row, so that an inequality is read modulo the
    equalities; the ray of t >= 0 then reads 0 <= 1 and is dropped.
    """
    lines_p, rays_p = _generators(p, space)
    lines_q, rays_q = _generators(q, space)
    eqs, rows = _double_description(
        len(space) + 1, [(g, True) for g in dict.fromkeys(lines_p + lines_q)]
        + [(g, False) for g in dict.fromkeys(rays_p + rays_q)])
    for i in range(len(eqs)):
        e = eqs[i]
        k = max(j for j in range(len(space)) if e[j])
        if e[k] < 0:
            e = tuple(-a for a in e)
        eqs = [_mix(e[k], g, -g[k], e) if g[k] and j != i else g
               for j, g in enumerate(eqs)]
        rows = [_mix(e[k], g, -g[k], e) if g[k] else g for g in rows]
    out = []
    for rel, gens in ((EQ, eqs), (LE, rows)):
        for g in gens:
            items = sorted((v, a) for v, a in zip(space, g) if a)
            if items:
                out.append(_canonical(items, rel, -g[-1]))
    return ConstraintSet.make(out)


# ---------------------------------------------------------------------------
# Simplification.
# ---------------------------------------------------------------------------

_REL_RANK = {EQ: 0, LT: 1, LE: 2}


@lru_cache(maxsize=65536)
def simplify(cs: ConstraintSet) -> ConstraintSet:
    """A logically equivalent, canonical, redundancy-free constraint set.

    Detects implied equalities (an inequality whose reverse is entailed:
    its slack's maximum on the tableau of `cs` is 0, see `reverse_holds`)
    and fixes their slacks at 0 on a copy of that tableau, removes
    constraints entailed by the rest (`_drop_redundant`) on the same copy,
    and leaves every survivor in the canonical coprime-integer scaling.
    """
    base = _tableau_of(cs)
    if base is None:
        return FALSE_SET
    # Upgrade inequalities to equalities when the reverse direction holds:
    # row i of the tableau is cs.constraints[i].
    rows = list(cs.constraints)
    t = base.copy()
    for i, c in enumerate(rows):
        if c.rel == LE and t.reverse_holds(i):
            rows[i] = LinearConstraint.make(dict(c.coeffs), EQ, c.bound)
            t.fix(i)
    # Drop anything the remaining constraints already imply, last first in
    # a deterministic order: equalities before strict before non-strict,
    # then constraint key, so the surviving basis is stable across runs. A
    # row that an upgrade made a duplicate of another goes, as entailed by
    # its twin.
    order = sorted(range(len(rows)), reverse=True,
                   key=lambda i: (_REL_RANK[rows[i].rel], _constraint_key(rows[i])))
    return ConstraintSet.make(_drop_redundant(rows, order, t))


# The cached functions themselves, so that `reset_caches` reaches their caches
# even when the module attributes are rebound (by a tracer, say).
_CACHED = (is_satisfiable, _entails_cached, _tableau_of, _project_cached,
           simplify, replaces_a_row, closed_hull)


def reset_caches() -> None:
    """Empty the kernel's caches and their counts: satisfiability,
    entailment, the entailment tableaux, projection, `simplify`, the
    widening's row replacements and the closed hulls.

    `verify` calls this when a run starts, so that what a run costs does
    not depend on what ran before it in the process. The entries stay until
    the next run starts, so `cache_info()` still describes the last run.
    """
    for fn in _CACHED:
        fn.cache_clear()


# ---------------------------------------------------------------------------
# Farkas certificates.
# ---------------------------------------------------------------------------


def _weighted_sum(rows: Sequence[LinearConstraint], parts: Sequence[int],
                  multipliers: Sequence[Rat],
                  select: Optional[Container[int]] = None) -> LinearConstraint:
    """The sum of multipliers[i] * rows[i] over the rows whose part is in
    `select` (over every row when None), as a single constraint."""
    coeffs: Dict[str, Rat] = {}
    bound = _ZERO
    strict = False
    for row, part, lam in zip(rows, parts, multipliers):
        if lam == 0 or (select is not None and part not in select):
            continue
        for v, c in row.coeffs:
            coeffs[v] = coeffs.get(v, _ZERO) + lam * c
        bound += lam * row.bound
        strict = strict or row.rel == LT
    return LinearConstraint.make(coeffs, LT if strict else LE, bound)


class FarkasCertificate(NamedTuple):
    """A non-negative combination of constraints deriving a contradiction.

    `constraints` are inequality rows (equalities of the input appear as
    their two halves), `parts[i]` is the index of the input set that row i
    came from, `multipliers[i]` is the weight of row i. `derived` is the
    weighted sum: a constant constraint that is false.
    """

    constraints: Tuple[LinearConstraint, ...]
    parts: Tuple[int, ...]
    multipliers: Tuple[Rat, ...]
    derived: LinearConstraint

    def sum_of(self, select: Optional[Container[int]] = None) -> LinearConstraint:
        """The weighted sum of the rows of the parts in `select` (of every
        row when None), as a single constraint."""
        return _weighted_sum(self.constraints, self.parts, self.multipliers, select)


def farkas_refutation(*parts: ConstraintSet) -> FarkasCertificate:
    """Certificate of unsatisfiability for the conjunction of `parts`.

    Precondition: the conjunction is unsatisfiable (ValueError otherwise).
    Each part's rows enter in turn, so a row that two parts hold enters
    once for each. The returned multipliers are non-negative; rows coming
    from equalities are the two inequality halves so negative equality
    weights never arise. The certificate is re-checked before it is
    returned; RuntimeError means the LP kernel returned no valid one.
    """
    if is_satisfiable(ConstraintSet.make(c for part in parts for c in part)):
        raise ValueError("farkas_refutation: constraint union is satisfiable")
    rows: List[LinearConstraint] = []
    origin: List[int] = []
    for k, part in enumerate(parts):
        for c in part.constraints:
            for half in c.split_equality():
                rows.append(half)
                origin.append(k)
    lam = [f"$l{i}" for i in range(len(rows))]
    # One row per variable: sum of lam[i] * (its coefficient in rows[i]) = 0.
    by_var: Dict[str, Dict[str, int]] = {}
    for l, row in zip(lam, rows):
        for v, a in row.coeffs:
            by_var.setdefault(v, {})[l] = a
    lp_rows = [(by_var[v], EQ, 0) for v in sorted(by_var)]
    bound_row = {lam[i]: rows[i].bound for i in range(len(rows)) if rows[i].bound != 0}
    # Case A: sum of bounds strictly negative.
    point = solve_lp(lp_rows + [(bound_row, LE, -1)])
    if point is None:
        # Case B: bounds sum to <= 0 with positive weight on a strict row.
        strict_row = {lam[i]: 1 for i in range(len(rows)) if rows[i].rel == LT}
        if not strict_row:
            raise RuntimeError(
                "farkas_refutation: no certificate with a negative bound sum "
                "for an unsatisfiable system without strict rows")
        point = solve_lp(
            lp_rows + [(bound_row, LE, 0),
                       ({k: -v for k, v in strict_row.items()}, LE, -1)])
        if point is None:
            raise RuntimeError(
                "farkas_refutation: no certificate for an unsatisfiable system "
                "(Motzkin transposition guarantees one)")
    multipliers = tuple(point.get(l, _ZERO) for l in lam)
    derived = _weighted_sum(rows, origin, multipliers)
    if any(m < 0 for m in multipliers) or not derived.is_trivially_false():
        raise RuntimeError(
            "farkas_refutation: the multipliers do not re-multiply to a "
            "contradiction")
    return FarkasCertificate(tuple(rows), tuple(origin), multipliers, derived)
