"""Syntax of constrained Horn clause programs.

A program is a sequence of clauses `H :- C, B1, ..., Bn` where H is an atom
or the distinguished propositional head `false`, C a conjunction of linear
constraints and the Bi atoms. Clauses are parsed from a small Prolog-like
surface syntax (see `parse_program`); atom arguments are normalised so that
every atom carries distinct variables, with constants and repeats compiled
into fresh variables plus equality constraints.

The extended input form additionally allows a constraint as clause head
("X = Y :- p(X, Y)"); `normalize_integrity` rewrites such clauses into FALSE
clauses by negating the head.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple, Union

from .linalg import (EQ, ConstraintSet, LinearConstraint, Rat, rat)

__all__ = [
    "Var",
    "Atom",
    "FALSE",
    "Clause",
    "Program",
    "DependencyGraph",
    "ParseError",
    "FreshNames",
    "parse_program",
    "parse_clause",
    "normalize_integrity",
    "rename_apart",
    "dependency_graph",
    "program_text",
    "clause_text",
]

# Variables are plain strings (uppercase-first identifiers in the surface
# syntax; internally generated names may be arbitrary).
Var = str

RESERVED_SUFFIXES = ("__q", "__a")


@dataclass(frozen=True)
class Atom:
    """A predicate applied to argument variables."""

    pred: str
    args: Tuple[Var, ...]

    @property
    def arity(self) -> int:
        return len(self.args)

    def rename(self, mapping: Mapping[Var, Var]) -> "Atom":
        return Atom(self.pred, tuple(mapping.get(a, a) for a in self.args))

    def __str__(self) -> str:
        if not self.args:
            return self.pred
        return f"{self.pred}({','.join(self.args)})"


FALSE = Atom("false", ())


@dataclass(frozen=True)
class Clause:
    """One constrained Horn clause.

    `head` is an Atom (FALSE for integrity constraints) or, transiently in
    the extended input form, a LinearConstraint that `normalize_integrity`
    removes. Atom heads always carry pairwise distinct variables.
    """

    id: str
    head: Union[Atom, LinearConstraint]
    constraint: ConstraintSet
    body: Tuple[Atom, ...]

    @property
    def head_atom(self) -> Atom:
        if not isinstance(self.head, Atom):
            raise TypeError(f"clause {self.id} has a constraint head")
        return self.head

    def is_false_head(self) -> bool:
        return isinstance(self.head, Atom) and self.head == FALSE

    def variables(self) -> Set[Var]:
        out: Set[Var] = set(self.constraint.variables())
        if isinstance(self.head, Atom):
            out.update(self.head.args)
        else:
            out.update(self.head.variables())
        for b in self.body:
            out.update(b.args)
        return out

    def rename(self, mapping: Mapping[Var, Var], new_id: Optional[str] = None
               ) -> "Clause":
        head = (self.head.rename(mapping) if isinstance(self.head, Atom)
                else self.head.rename(dict(mapping)))
        return Clause(
            new_id if new_id is not None else self.id,
            head,
            self.constraint.rename(dict(mapping)),
            tuple(b.rename(mapping) for b in self.body),
        )


@dataclass(frozen=True)
class Program:
    """An immutable clause list with consistent predicate arities."""

    clauses: Tuple[Clause, ...]
    # Predicate -> arity, in order of first occurrence (body atoms first).
    predicates: Dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        arities: Dict[str, int] = {}
        ids: Set[str] = set()
        for cl in self.clauses:
            if cl.id in ids:
                raise ValueError(f"duplicate clause id {cl.id!r}")
            ids.add(cl.id)
            atoms = list(cl.body)
            if isinstance(cl.head, Atom):
                atoms.append(cl.head)
            for at in atoms:
                if at.pred == FALSE.pred and at is not cl.head:
                    raise ValueError(f"clause {cl.id}: false cannot occur in a body")
                if len(set(at.args)) != len(at.args):
                    # the parser establishes this form; the query-answer
                    # transform needs it for every atom, not just heads
                    raise ValueError(
                        f"clause {cl.id}: arguments of {at.pred} must be "
                        f"distinct variables")
                seen = arities.setdefault(at.pred, at.arity)
                if seen != at.arity:
                    raise ValueError(
                        f"predicate {at.pred} used with arities {seen} and {at.arity}")
        object.__setattr__(self, "predicates", arities)

    def clauses_for(self, pred: str) -> Tuple[Clause, ...]:
        return tuple(cl for cl in self.clauses
                     if isinstance(cl.head, Atom) and cl.head.pred == pred)

    def clause(self, clause_id: str) -> Clause:
        for cl in self.clauses:
            if cl.id == clause_id:
                return cl
        raise KeyError(clause_id)


class FreshNames:
    """Deterministic fresh variable source: V1, V2, ... avoiding a base set."""

    def __init__(self, avoid: Iterable[Var] = (), prefix: str = "V") -> None:
        self._avoid = set(avoid)
        self._prefix = prefix
        self._next = 1

    def fresh(self, hint: str = "") -> Var:
        while True:
            name = f"{self._prefix}{self._next}"
            self._next += 1
            if name not in self._avoid:
                self._avoid.add(name)
                return name


def rename_apart(clause: Clause, fresh: FreshNames) -> Tuple[Clause, Dict[Var, Var]]:
    """A variant of `clause` whose variables are all fresh."""
    mapping = {v: fresh.fresh() for v in sorted(clause.variables())}
    return clause.rename(mapping), mapping


# ---------------------------------------------------------------------------
# Parsing.
# ---------------------------------------------------------------------------


class ParseError(Exception):
    pass


_TOKEN = re.compile(r"""
    (?P<ws>\s+|%[^\n]*)
  | (?P<num>\d+(?:\.\d+)?)
  | (?P<name>[a-zA-Z_][a-zA-Z0-9_]*)
  | (?P<op>:-|=<|<=|>=|[()*+,.<>=-])
""", re.VERBOSE)

_LABEL = re.compile(r"c\d+$")


def _tokenize(text: str) -> List[Tuple[str, str]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ParseError(f"unexpected character {text[pos]!r} at offset {pos}")
        pos = m.end()
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group()))
    return tokens


class _Parser:
    def __init__(self, tokens: List[Tuple[str, str]]) -> None:
        self.tokens = tokens
        self.pos = 0

    def peek(self, offset: int = 0) -> Optional[Tuple[str, str]]:
        i = self.pos + offset
        return self.tokens[i] if i < len(self.tokens) else None

    def next(self) -> Tuple[str, str]:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input")
        self.pos += 1
        return tok

    def expect(self, value: str) -> None:
        tok = self.next()
        if tok[1] != value:
            raise ParseError(f"expected {value!r}, found {tok[1]!r}")

    def at_end(self) -> bool:
        return self.pos >= len(self.tokens)

    # Linear terms are parsed into (coeffs, constant) pairs.

    def parse_term(self) -> Tuple[Dict[str, Rat], Rat]:
        coeffs, const = self.parse_factor()
        while (tok := self.peek()) and tok[1] in ("+", "-"):
            self.next()
            c2, k2 = self.parse_factor()
            sign = 1 if tok[1] == "+" else -1
            for v, c in c2.items():
                coeffs[v] = coeffs.get(v, rat(0)) + sign * c
            const += sign * k2
        return coeffs, const

    def parse_factor(self) -> Tuple[Dict[str, Rat], Rat]:
        coeffs, const = self.parse_primary()
        while (tok := self.peek()) and tok[1] == "*":
            self.next()
            c2, k2 = self.parse_primary()
            if coeffs and c2:
                raise ParseError("non-linear term (product of two variables)")
            if c2:
                coeffs, const, c2, k2 = c2, k2, coeffs, const
            coeffs = {v: c * k2 for v, c in coeffs.items()}
            const = const * k2
        return coeffs, const

    def parse_primary(self) -> Tuple[Dict[str, Rat], Rat]:
        tok = self.next()
        if tok[1] == "-":
            coeffs, const = self.parse_primary()
            return {v: -c for v, c in coeffs.items()}, -const
        if tok[1] == "+":
            return self.parse_primary()
        if tok[1] == "(":
            coeffs, const = self.parse_term()
            self.expect(")")
            return coeffs, const
        if tok[0] == "num":
            return {}, rat(tok[1])
        if tok[0] == "name":
            if not _is_variable(tok[1]):
                raise ParseError(f"expected a variable or number, found {tok[1]!r}")
            return {tok[1]: rat(1)}, rat(0)
        raise ParseError(f"unexpected token {tok[1]!r} in term")

    def parse_body_item(self, fresh: FreshNames, extra: List[LinearConstraint]
                        ) -> Union[Atom, LinearConstraint, None]:
        tok = self.peek()
        if tok and tok[0] == "name" and not _is_variable(tok[1]):
            nxt = self.peek(1)
            if nxt is None or nxt[1] in (",", ".", ")"):
                if tok[1] == "true":
                    self.next()
                    return None
                return self.parse_atom(fresh, extra)
            if nxt[1] == "(":
                return self.parse_atom(fresh, extra)
        return self.parse_constraint()

    def parse_constraint(self) -> LinearConstraint:
        lhs_c, lhs_k = self.parse_term()
        tok = self.next()
        if tok[1] not in ("=", "=<", "<=", ">=", "<", ">"):
            raise ParseError(f"expected a relation, found {tok[1]!r}")
        rel = "<=" if tok[1] == "=<" else tok[1]
        rhs_c, rhs_k = self.parse_term()
        coeffs = dict(lhs_c)
        for v, c in rhs_c.items():
            coeffs[v] = coeffs.get(v, rat(0)) - c
        return LinearConstraint.make(coeffs, rel, rhs_k - lhs_k)

    def parse_atom(self, fresh: FreshNames, extra: List[LinearConstraint]) -> Atom:
        tok = self.next()
        name = tok[1]
        for suffix in RESERVED_SUFFIXES:
            if name.endswith(suffix):
                raise ParseError(
                    f"predicate {name!r} uses the reserved suffix {suffix!r}")
        args: List[Var] = []
        if self.peek() and self.peek()[1] == "(":
            self.next()
            while True:
                coeffs, const = self.parse_term()
                var = _arg_to_var(coeffs, const, args, fresh, extra)
                args.append(var)
                tok = self.next()
                if tok[1] == ")":
                    break
                if tok[1] != ",":
                    raise ParseError(f"expected ',' or ')' in atom, found {tok[1]!r}")
        return Atom(name, tuple(args))


def _is_variable(name: str) -> bool:
    return name[0].isupper() or name[0] == "_"


def _arg_to_var(coeffs: Dict[str, Rat], const: Rat, seen: List[Var],
                fresh: FreshNames, extra: List[LinearConstraint]) -> Var:
    if len(coeffs) == 1 and const == 0:
        (v, c), = coeffs.items()
        if c == 1 and v not in seen:
            return v
    v = fresh.fresh()
    eq = dict(coeffs)
    eq[v] = eq.get(v, rat(0)) - 1
    extra.append(LinearConstraint.make(eq, EQ, -const))
    return v


def parse_clause(text: str, clause_id: str = "c1") -> Clause:
    """Parse a single clause given as text (label not allowed here)."""
    tokens = _tokenize(text)
    var_pool = {t[1] for t in tokens if t[0] == "name"}
    parser = _Parser(tokens)
    cl = _parse_clause(parser, clause_id, var_pool)
    if not parser.at_end():
        raise ParseError("trailing input after clause")
    return cl


def _parse_clause(parser: _Parser, clause_id: str, var_pool: Set[str]) -> Clause:
    fresh = FreshNames(avoid=var_pool)
    extra: List[LinearConstraint] = []
    head: Union[Atom, LinearConstraint]
    tok = parser.peek()
    if tok is None:
        raise ParseError("expected a clause")
    if tok[0] == "name" and tok[1] == "false":
        parser.next()
        head = FALSE
    elif tok[0] == "name" and not _is_variable(tok[1]):
        nxt = parser.peek(1)
        if nxt and nxt[1] in ("(", ".", ":-"):
            head = parser.parse_atom(fresh, extra)
        else:
            head = parser.parse_constraint()
    else:
        head = parser.parse_constraint()
    constraints: List[LinearConstraint] = []
    body: List[Atom] = []
    tok = parser.next()
    if tok[1] == ":-":
        while True:
            item = parser.parse_body_item(fresh, extra)
            if isinstance(item, Atom):
                body.append(item)
            elif item is not None:
                constraints.append(item)
            tok = parser.next()
            if tok[1] == ".":
                break
            if tok[1] != ",":
                raise ParseError(f"expected ',' or '.', found {tok[1]!r}")
    elif tok[1] != ".":
        raise ParseError(f"expected ':-' or '.', found {tok[1]!r}")
    return Clause(clause_id, head, ConstraintSet.make(constraints + extra),
                  tuple(body))


def parse_program(text: str) -> Program:
    """Parse a clause list. Raises ParseError on malformed input.

    Clause ids come from an optional leading label of the form "cN."; clauses
    without one are numbered c1, c2, ... in file order (a numbering conflict
    with explicit labels is an error, caught as a duplicate id).
    """
    tokens = _tokenize(text)
    # The variable pool must avoid every name in the file so generated
    # argument variables are genuinely fresh.
    var_pool = {t[1] for t in tokens if t[0] == "name"}
    parser = _Parser(tokens)
    clauses: List[Clause] = []
    auto = 1
    while not parser.at_end():
        tok = parser.peek()
        nxt = parser.peek(1)
        label = None
        if (tok[0] == "name" and _LABEL.match(tok[1])
                and nxt is not None and nxt[1] == "."
                and parser.peek(2) is not None):
            label = tok[1]
            parser.next()
            parser.next()
        if label is None:
            label = f"c{auto}"
        clauses.append(_parse_clause(parser, label, var_pool))
        auto += 1
    return Program(tuple(clauses))


# ---------------------------------------------------------------------------
# Integrity constraint normalisation.
# ---------------------------------------------------------------------------


def normalize_integrity(program: Program) -> Program:
    """Rewrite constraint-headed clauses  phi :- C, B  into FALSE clauses.

    Each disjunct of the negation of phi yields one clause
    `false :- not_i(phi), C, B`; an equality head therefore produces two
    clauses (suffixes .1, .2 on the clause id). Atom-headed clauses pass
    through unchanged.
    """
    out: List[Clause] = []
    for cl in program.clauses:
        if isinstance(cl.head, Atom):
            out.append(cl)
            continue
        negs = cl.head.negations()
        for i, neg in enumerate(negs, 1):
            new_id = cl.id if len(negs) == 1 else f"{cl.id}.{i}"
            out.append(Clause(new_id, FALSE, cl.constraint.add(neg), cl.body))
    return Program(tuple(out))


# ---------------------------------------------------------------------------
# Dependency graph.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DependencyGraph:
    """Head-to-body predicate dependencies of a program."""

    nodes: Tuple[str, ...]
    edges: frozenset  # of (head_pred, body_pred)

    def successors(self, pred: str) -> List[str]:
        return sorted(b for a, b in self.edges if a == pred)

    def sccs_reverse_topological(self) -> List[List[str]]:
        """Strongly connected components, callees before callers."""
        index: Dict[str, int] = {}
        low: Dict[str, int] = {}
        on_stack: Set[str] = set()
        stack: List[str] = []
        sccs: List[List[str]] = []
        counter = [0]
        succ = {n: self.successors(n) for n in self.nodes}

        def strongconnect(root: str) -> None:
            work = [(root, iter(succ[root]))]
            index[root] = low[root] = counter[0]
            counter[0] += 1
            stack.append(root)
            on_stack.add(root)
            while work:
                node, it = work[-1]
                advanced = False
                for nb in it:
                    if nb not in index:
                        index[nb] = low[nb] = counter[0]
                        counter[0] += 1
                        stack.append(nb)
                        on_stack.add(nb)
                        work.append((nb, iter(succ[nb])))
                        advanced = True
                        break
                    if nb in on_stack:
                        low[node] = min(low[node], index[nb])
                if advanced:
                    continue
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    comp = []
                    while True:
                        w = stack.pop()
                        on_stack.discard(w)
                        comp.append(w)
                        if w == node:
                            break
                    sccs.append(sorted(comp))

        for n in self.nodes:
            if n not in index:
                strongconnect(n)
        # Tarjan emits components in reverse topological order already
        # (an SCC is finished only after everything it reaches).
        return sccs

    def is_cyclic_scc(self, scc: Sequence[str]) -> bool:
        if len(scc) > 1:
            return True
        (p,) = scc
        return (p, p) in self.edges


def dependency_graph(program: Program) -> DependencyGraph:
    nodes = sorted(program.predicates)
    edges = set()
    for cl in program.clauses:
        if not isinstance(cl.head, Atom):
            raise ValueError("dependency graph requires a normalised program")
        for b in cl.body:
            edges.add((cl.head.pred, b.pred))
    return DependencyGraph(tuple(nodes), frozenset(edges))


# ---------------------------------------------------------------------------
# Printing. The output round-trips through parse_program.
# ---------------------------------------------------------------------------


def clause_text(cl: Clause, with_label: bool = True) -> str:
    head = str(cl.head)
    items = [str(c) for c in cl.constraint] + [str(b) for b in cl.body]
    label = f"{cl.id}. " if with_label else ""
    if not items:
        return f"{label}{head}."
    return f"{label}{head} :- {', '.join(items)}."


def program_text(program: Program, with_labels: bool = True) -> str:
    return "\n".join(clause_text(cl, with_labels) for cl in program.clauses) + "\n"
