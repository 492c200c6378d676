"""Convex polyhedra over named rational variables.

A `Polyhedron` is a satisfiable constraint set over a fixed variable tuple
(its space), or bottom. Polyhedra support the not-necessarily-closed
operations needed by the analysis: meet, inclusion, convex hull and widening.

The hull of two polyhedra is their closed convex hull, computed by double
description (`linalg.closed_hull`): each operand's closure is converted to
generators, and the generators of both back to constraints. A post-pass
re-strengthens a resulting inequality to strict whenever both operands
entail the strict form, which is sound because a convex combination of two
points satisfying a strict inequality satisfies it too. The result
therefore contains the union and is exact on closed operands.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Tuple

from .linalg import (LE, ConstraintSet, FALSE_SET, LinearConstraint,
                     closed_hull, entails, entails_all, replaces_a_row,
                     simplify)

__all__ = [
    "Polyhedron",
    "canonical_args",
]

# Canonical argument names, extended on demand by `canonical_args`.
_ARGS = tuple(chr(ord("A") + i) for i in range(26))


def _split_equalities(cs: ConstraintSet) -> Tuple[LinearConstraint, ...]:
    return tuple(half for c in cs for half in c.split_equality())


def canonical_args(n: int) -> Tuple[str, ...]:
    """Canonical argument names for an n-ary predicate: A..Z, then V27, V28, ..."""
    global _ARGS
    if n > len(_ARGS):
        _ARGS += tuple(f"V{i + 1}" for i in range(len(_ARGS), n))
    return _ARGS[:n]


class Polyhedron:
    """A polyhedron over `space`; `constraints is None` encodes bottom."""

    __slots__ = ("space", "constraints")

    def __init__(self, space: Tuple[str, ...],
                 constraints: Optional[ConstraintSet]) -> None:
        if constraints is not None:
            extra = constraints.variables() - set(space)
            if extra:
                raise ValueError(f"constraints mention {sorted(extra)} outside space")
        self.space = space
        self.constraints = constraints

    def __eq__(self, other) -> bool:
        if other.__class__ is not Polyhedron:
            return NotImplemented
        return self.space == other.space and self.constraints == other.constraints

    def __hash__(self) -> int:
        return hash((self.space, self.constraints))

    def __repr__(self) -> str:
        return f"Polyhedron(space={self.space!r}, constraints={self.constraints!r})"

    @classmethod
    def bottom(cls, space: Sequence[str]) -> "Polyhedron":
        return cls(tuple(space), None)

    @classmethod
    def top(cls, space: Sequence[str]) -> "Polyhedron":
        return cls(tuple(space), ConstraintSet.make(()))

    @classmethod
    def of(cls, space: Sequence[str], cs: ConstraintSet) -> "Polyhedron":
        # simplify returns FALSE_SET itself for an unsatisfiable input and
        # an equivalent (so satisfiable) set otherwise.
        cs = simplify(cs)
        if cs is FALSE_SET:
            return cls.bottom(space)
        return cls(tuple(space), cs)

    @property
    def is_bottom(self) -> bool:
        return self.constraints is None

    @property
    def is_top(self) -> bool:
        return self.constraints is not None and not self.constraints.constraints

    def meet(self, other: "Polyhedron") -> "Polyhedron":
        if self.space != other.space:
            raise ValueError("meet of polyhedra over different spaces")
        if self.is_bottom or other.is_bottom:
            return Polyhedron.bottom(self.space)
        return Polyhedron.of(self.space, self.constraints & other.constraints)

    def leq(self, other: "Polyhedron") -> bool:
        """Inclusion: every point of self lies in other."""
        if self.is_bottom:
            return True
        if other.is_bottom:
            return False
        return entails_all(self.constraints, other.constraints)

    def hull(self, other: "Polyhedron") -> "Polyhedron":
        """The closed convex hull of both, with each facet strict where
        both operands entail it strictly; the operand itself when one
        includes the other. The double description leaves no redundant row
        and no unmarked implied equality, and making a facet strict adds
        neither, so the rows need no `simplify`."""
        if self.space != other.space:
            raise ValueError("hull of polyhedra over different spaces")
        if self.is_bottom:
            return other
        if other.is_bottom:
            return self
        if self.leq(other):
            return other
        if other.leq(self):
            return self
        out = []
        for c in closed_hull(self.constraints, other.constraints, self.space):
            if c.rel == LE:
                s = c.strict()
                if entails(self.constraints, s) and entails(other.constraints, s):
                    c = s
            out.append(c)
        return Polyhedron(self.space, ConstraintSet.make(out))

    def widen(self, other: "Polyhedron",
              thresholds: Iterable[LinearConstraint] = ()) -> "Polyhedron":
        """Halbwachs widening, bounded by the thresholds both operands
        satisfy: drop the bounds of self that other has outgrown.

        Keeps (a) every constraint of self that other still entails,
        (b) every constraint c of other that is mutually redundant with self,
        i.e. can replace one of self's constraints without changing self,
        and (c) every threshold that both self and other entail. Self
        entails c in (b), so the swap keeps self exactly when self's other
        constraints together with c entail the one dropped
        (`linalg.replaces_a_row`, one tableau per c). Part (b) makes the
        result independent of which of several equivalent representations
        self happens to carry (a point written as I=0, A=0, B=0 keeps an
        implied relation like A+B=3I if other entails it), which plain
        constraint filtering loses. Equalities are split into their
        inequality halves first so one-sided bounds survive. The kept rows
        are simplified once, together.
        """
        if self.space != other.space:
            raise ValueError("widen of polyhedra over different spaces")
        if self.is_bottom:
            return other
        if other.is_bottom:
            return self
        p_rows = _split_equalities(self.constraints)
        q_rows = _split_equalities(other.constraints)
        kept = [c for c in p_rows if entails(other.constraints, c)]
        kept += [c for c in q_rows if c not in kept
                 and entails(self.constraints, c) and replaces_a_row(p_rows, c)]
        kept += [t for t in thresholds if entails(self.constraints, t)
                 and entails(other.constraints, t)]
        return Polyhedron.of(self.space, ConstraintSet.make(kept))

    def __str__(self) -> str:
        if self.is_bottom:
            return "false"
        return str(self.constraints)

