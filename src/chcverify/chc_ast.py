"""Syntax of constrained Horn clause programs.

A program is a sequence of clauses `H :- C, B1, ..., Bn` where H is an atom
or the distinguished propositional head `false`, C a conjunction of linear
constraints and the Bi atoms. Clauses are parsed from a small Prolog-like
surface syntax (see `parse_program`); atom arguments are normalised so that
every atom carries distinct variables, with constants and repeats compiled
into fresh variables plus equality constraints.

The surface syntax also allows a constraint as clause head
("X = Y :- p(X, Y)"). The parser rewrites such an integrity constraint into
`false` clauses by negating the head, so every parsed head is an atom.

`components` gives a program's predicate dependency components, callees
first, in the order `analysis.analyze` iterates them.
"""

from __future__ import annotations

import re
from typing import (Dict, Iterable, Iterator, List, Mapping, NamedTuple, Optional, Set,
                    Tuple, Union)

from .linalg import (EQ, ConstraintSet, LinearConstraint, Rat, rat)

__all__ = [
    "Var",
    "Atom",
    "FALSE",
    "Clause",
    "Program",
    "ParseError",
    "FreshNames",
    "parse_program",
    "parse_clause",
    "components",
    "program_text",
    "clause_text",
]

# Variables are plain strings (uppercase-first identifiers in the surface
# syntax; internally generated names may be arbitrary).
Var = str

# The name suffixes of the query and answer versions of a predicate (see
# `qa`); parsed programs may not use them.
QUERY_SUFFIX = "__q"
ANSWER_SUFFIX = "__a"
RESERVED_SUFFIXES = (QUERY_SUFFIX, ANSWER_SUFFIX)


class Atom(NamedTuple):
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


class Clause(NamedTuple):
    """One constrained Horn clause.

    `head` is an Atom, FALSE for an integrity constraint. Every atom, head
    and body alike, carries pairwise distinct variables.
    """

    id: str
    head: Atom
    constraint: ConstraintSet
    body: Tuple[Atom, ...]

    def is_false_head(self) -> bool:
        return self.head == FALSE

    def variables(self) -> Set[Var]:
        out: Set[Var] = set(self.constraint.variables())
        out.update(self.head.args)
        for b in self.body:
            out.update(b.args)
        return out

    def rename(self, mapping: Mapping[Var, Var]) -> "Clause":
        return Clause(
            self.id,
            self.head.rename(mapping),
            self.constraint.rename(dict(mapping)),
            tuple(b.rename(mapping) for b in self.body),
        )


class Program:
    """An immutable clause list with atom heads and consistent predicate
    arities.

    `predicates` maps each predicate to its arity, in order of first
    occurrence (body atoms first); `by_head` maps a head predicate to its
    clauses in clause order and `by_id` an id to its clause.
    """

    __slots__ = ("clauses", "predicates", "by_head", "by_id")

    def __init__(self, clauses: Tuple[Clause, ...]) -> None:
        arities: Dict[str, int] = {}
        by_head: Dict[str, List[Clause]] = {}
        by_id: Dict[str, Clause] = {}
        for cl in clauses:
            if cl.id in by_id:
                raise ValueError(f"duplicate clause id {cl.id!r}")
            by_id[cl.id] = cl
            if not isinstance(cl.head, Atom):
                raise ValueError(f"clause {cl.id}: the head must be an atom")
            by_head.setdefault(cl.head.pred, []).append(cl)
            for at in cl.body + (cl.head,):
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
        self.clauses = clauses
        self.predicates = arities
        self.by_head = {p: tuple(cls) for p, cls in by_head.items()}
        self.by_id = by_id

    def __eq__(self, other) -> bool:
        if other.__class__ is not Program:
            return NotImplemented
        return self.clauses == other.clauses

    def __hash__(self) -> int:
        return hash((self.clauses,))

    def __repr__(self) -> str:
        return f"Program(clauses={self.clauses!r})"

    def clauses_for(self, pred: str) -> Tuple[Clause, ...]:
        return self.by_head.get(pred, ())

    def clause(self, clause_id: str) -> Clause:
        return self.by_id[clause_id]


class FreshNames:
    """Deterministic fresh variable source: V1, V2, ... avoiding a base set."""

    def __init__(self, avoid: Iterable[Var] = (), prefix: str = "V") -> None:
        self._avoid = set(avoid)
        self._prefix = prefix
        self._next = 1

    def fresh(self) -> Var:
        while True:
            name = f"{self._prefix}{self._next}"
            self._next += 1
            if name not in self._avoid:
                self._avoid.add(name)
                return name


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
  | (?P<bad>.)
""", re.VERBOSE | re.DOTALL)

# A clause id: cN, with the "_M" (or "__M", ...) suffixes that `refine`
# appends. After a split constraint head's "cN.K" (tokens cN . K), the
# suffixes are one more name token.
_LABEL = re.compile(r"c\d+(?:_+\d+)*$")
_LABEL_SUFFIX = re.compile(r"(?:_+\d+)+$")

# The token after the last one. The parser looks at most two tokens past
# a real one, so three of these end every token list it reads.
_END = ("end", "")


def _tokenize(text: str) -> List[Tuple[str, str]]:
    tokens = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "ws":
            continue
        if kind == "bad":
            raise ParseError(
                f"unexpected character {m.group()!r} at offset {m.start()}")
        tokens.append((kind, m.group()))
    return tokens


# A linear term: variable -> coefficient, and the constant. Integer literals
# stay `int`; only a decimal literal is a rational.
_Num = Union[int, Rat]
_Term = Tuple[Dict[str, _Num], _Num]


class _Parser:
    def __init__(self, tokens: List[Tuple[str, str]]) -> None:
        self.tokens = tokens + [_END] * 3
        self.pos = 0

    def peek(self, offset: int = 0) -> Tuple[str, str]:
        return self.tokens[self.pos + offset]

    def next(self) -> Tuple[str, str]:
        tok = self.tokens[self.pos]
        if tok is _END:
            raise ParseError("unexpected end of input")
        self.pos += 1
        return tok

    def expect(self, value: str) -> None:
        tok = self.next()
        if tok[1] != value:
            raise ParseError(f"expected {value!r}, found {tok[1]!r}")

    def at_end(self) -> bool:
        return self.tokens[self.pos] is _END

    def parse_term(self) -> _Term:
        coeffs, const = self.parse_factor()
        tokens = self.tokens
        while (op := tokens[self.pos][1]) == "+" or op == "-":
            self.pos += 1
            c2, k2 = self.parse_factor()
            sign = 1 if op == "+" else -1
            for v, c in c2.items():
                coeffs[v] = coeffs.get(v, 0) + sign * c
            const += sign * k2
        return coeffs, const

    def parse_factor(self) -> _Term:
        coeffs, const = self.parse_primary()
        tokens = self.tokens
        while tokens[self.pos][1] == "*":
            self.pos += 1
            c2, k2 = self.parse_primary()
            if coeffs and c2:
                raise ParseError("non-linear term (product of two variables)")
            if c2:
                coeffs, const, c2, k2 = c2, k2, coeffs, const
            coeffs = {v: c * k2 for v, c in coeffs.items()}
            const = const * k2
        return coeffs, const

    def parse_primary(self) -> _Term:
        kind, text = self.next()
        if kind == "num":
            return {}, rat(text) if "." in text else int(text)
        if kind == "name":
            if not _is_variable(text):
                raise ParseError(f"expected a variable or number, found {text!r}")
            return {text: 1}, 0
        if text == "-":
            coeffs, const = self.parse_primary()
            return {v: -c for v, c in coeffs.items()}, -const
        if text == "+":
            return self.parse_primary()
        if text == "(":
            coeffs, const = self.parse_term()
            self.expect(")")
            return coeffs, const
        raise ParseError(f"unexpected token {text!r} in term")

    def parse_body_item(self, fresh: FreshNames, extra: List[LinearConstraint]
                        ) -> Union[Atom, LinearConstraint, None]:
        tok = self.peek()
        if tok[0] == "name" and not _is_variable(tok[1]):
            nxt = self.peek(1)
            if nxt is _END or nxt[1] in (",", ".", ")"):
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
            coeffs[v] = coeffs.get(v, 0) - c
        return LinearConstraint.make(coeffs, rel, rhs_k - lhs_k)

    def parse_atom(self, fresh: FreshNames, extra: List[LinearConstraint]) -> Atom:
        tok = self.next()
        name = tok[1]
        for suffix in RESERVED_SUFFIXES:
            if name.endswith(suffix):
                raise ParseError(
                    f"predicate {name!r} uses the reserved suffix {suffix!r}")
        args: List[Var] = []
        if self.peek()[1] == "(":
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


def _arg_to_var(coeffs: Dict[str, _Num], const: _Num, seen: List[Var],
                fresh: FreshNames, extra: List[LinearConstraint]) -> Var:
    if len(coeffs) == 1 and const == 0:
        (v, c), = coeffs.items()
        if c == 1 and v not in seen:
            return v
    v = fresh.fresh()
    eq = dict(coeffs)
    eq[v] = eq.get(v, 0) - 1
    extra.append(LinearConstraint.make(eq, EQ, -const))
    return v


def parse_clause(text: str, clause_id: str = "c1") -> Clause:
    """Parse a single clause given as text (label not allowed here).

    Raises ParseError when the text is an integrity constraint with an
    equality head, which stands for two clauses.
    """
    tokens = _tokenize(text)
    var_pool = {t[1] for t in tokens if t[0] == "name"}
    parser = _Parser(tokens)
    clauses = _parse_clause(parser, clause_id, var_pool)
    if not parser.at_end():
        raise ParseError("trailing input after clause")
    if len(clauses) != 1:
        raise ParseError("an equality head gives two clauses")
    return clauses[0]


def _parse_clause(parser: _Parser, clause_id: str, var_pool: Set[str]
                  ) -> List[Clause]:
    """One clause, or for a constraint head `phi :- C, B` one clause
    `false :- not_i(phi), C, B` per disjunct of the negation of phi: the
    same id for an inequality head, suffixes .1 and .2 for an equality."""
    fresh = FreshNames(avoid=var_pool)
    extra: List[LinearConstraint] = []
    head = FALSE
    phi: Optional[LinearConstraint] = None
    tok = parser.peek()
    if tok is _END:
        raise ParseError("expected a clause")
    if tok[0] == "name" and tok[1] == "false":
        parser.next()
    elif (tok[0] == "name" and not _is_variable(tok[1])
          and parser.peek(1)[1] in ("(", ".", ":-")):
        head = parser.parse_atom(fresh, extra)
    else:
        phi = parser.parse_constraint()
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
    cs = ConstraintSet.make(constraints + extra)
    if phi is None:
        return [Clause(clause_id, head, cs, tuple(body))]
    negs = phi.negations()
    return [Clause(clause_id if len(negs) == 1 else f"{clause_id}.{i}",
                   FALSE, cs.add(neg), tuple(body))
            for i, neg in enumerate(negs, 1)]


def parse_program(text: str) -> Program:
    """Parse a clause list. Raises ParseError on malformed input.

    Clause ids come from an optional leading label of the form "cN." or
    "cN.K." (the ids of a split constraint head, as `program_text` prints
    them), either of them followed by "_M" suffixes as in "c2_2_1_3." or
    "c1.1_2." (the ids `refine.polyvariant_specialise` makes, which write
    "__M" for "_M" where that avoids a duplicate, as in "c1_1__1"); clauses
    without one are numbered c1, c2, ... in file order (a numbering
    conflict with explicit labels is an error, caught as a duplicate id).
    So a 0-ary fact spelled like such an id, such as "c1_2.", reads as the
    label of the clause after it, unless it ends the input. A constraint
    head is rewritten into `false` clauses (see `_parse_clause`).
    """
    tokens = _tokenize(text)
    # The variable pool must avoid every name in the file so generated
    # argument variables are genuinely fresh.
    var_pool = {t[1] for t in tokens if t[0] == "name"}
    parser = _Parser(tokens)
    clauses: List[Clause] = []
    auto = 1
    while not parser.at_end():
        label = f"c{auto}"
        tok = parser.peek()
        if tok[0] == "name" and _LABEL.match(tok[1]):
            # "cN.K_M." reads as the tokens cN . K _M . ; n counts those of
            # the id, and the label ends at the "." after them.
            n = 1
            if parser.peek(1)[1] == "." and parser.peek(2)[0] == "num":
                k = 4 if _LABEL_SUFFIX.match(parser.peek(3)[1]) else 3
                if parser.peek(k)[1] == ".":
                    n = k
            if parser.peek(n)[1] == "." and parser.peek(n + 1) is not _END:
                label = "".join(parser.next()[1] for _ in range(n))
                parser.next()
        clauses.extend(_parse_clause(parser, label, var_pool))
        auto += 1
    return Program(tuple(clauses))


# ---------------------------------------------------------------------------
# Dependency components.
# ---------------------------------------------------------------------------


def components(program: Program) -> List[Tuple[Tuple[str, ...], bool]]:
    """The strongly connected components of the head-to-body dependencies,
    callees before callers, each sorted and paired with whether it is
    cyclic (more than one predicate, or one that depends on itself).

    Iterative Tarjan over the predicates in sorted order, visiting each
    predicate's sorted successors; Tarjan finishes a component only after
    everything it reaches, so it emits them in reverse topological order.
    """
    succ = {p: sorted({b.pred for cl in program.clauses_for(p) for b in cl.body})
            for p in program.predicates}
    index: Dict[str, int] = {}
    low: Dict[str, int] = {}
    on_stack: Set[str] = set()
    stack: List[str] = []
    work: List[Tuple[str, Iterator[str]]] = []
    out: List[Tuple[Tuple[str, ...], bool]] = []

    def visit(node: str) -> None:
        index[node] = low[node] = len(index)
        stack.append(node)
        on_stack.add(node)
        work.append((node, iter(succ[node])))

    for root in sorted(succ):
        if root in index:
            continue
        visit(root)
        while work:
            node, it = work[-1]
            for nb in it:
                if nb not in index:
                    visit(nb)
                    break
                if nb in on_stack:
                    low[node] = min(low[node], index[nb])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    comp: List[str] = []
                    while not comp or comp[-1] != node:
                        comp.append(stack.pop())
                        on_stack.discard(comp[-1])
                    out.append((tuple(sorted(comp)),
                                len(comp) > 1 or node in succ[node]))
    return out


# ---------------------------------------------------------------------------
# Printing. The output round-trips through parse_program.
# ---------------------------------------------------------------------------


def clause_text(cl: Clause) -> str:
    head = str(cl.head)
    items = [str(c) for c in cl.constraint] + [str(b) for b in cl.body]
    if not items:
        return f"{cl.id}. {head}."
    return f"{cl.id}. {head} :- {', '.join(items)}."


def program_text(program: Program) -> str:
    return "\n".join(clause_text(cl) for cl in program.clauses) + "\n"
