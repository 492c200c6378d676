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

from .linalg import EQ, LE, LT, ConstraintSet, LinearConstraint, Rat, rat

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


# One match per token: the white space and comments before it, then the
# token, or nothing at the end of the input. So `findall` gives the token
# strings and then "" once or twice, and a reader that stops at "" never
# runs off the list. A bad character ends the list: its token runs to the
# end of the input, and then "" follows once.
_TOKEN = re.compile(r"""
    \s*(?:%[^\n]*\s*)*           # skipped: white space and comments
    ( [a-zA-Z_][a-zA-Z0-9_]*      # a name
    | [()*+,.-]                   # an operator
    | \d+(?:\.\d+)?               # a number
    | :-|=<|<=|>=|[<>=]           # an operator
    | .+                          # a bad character, and the rest
    )?""", re.VERBOSE | re.DOTALL)

# The characters that start a token, but for ":" (of ":-" only) and the
# non-ASCII digits that `\d` also matches.
_TOKEN_START = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_()*+,.-<>=")

_RELATIONS = {"=": EQ, "=<": LE, "<=": LE, ">=": ">=", "<": LT, ">": ">"}

# A clause id: cN, with the "_M" (or "__M", ...) suffixes that `refine`
# appends. After a split constraint head's "cN.K" (tokens cN . K), the
# suffixes are one more name token.
_LABEL = re.compile(r"c\d+(?:_+\d+)*$")
_LABEL_SUFFIX = re.compile(r"(?:_+\d+)+$")

# A coefficient or constant of a term. Integer literals stay `int`; only a
# decimal literal is a rational.
_Num = Union[int, Rat]


def _unexpected(tok: str, message: str) -> ParseError:
    return ParseError(message if tok else "unexpected end of input")


def _term(toks: List[str], i: int) -> Tuple[Dict[str, _Num], _Num, int]:
    """The linear term that starts at toks[i]: its coefficients, its
    constant and the index after it.

    A term is a sum of products of primaries (a number, a variable, a
    signed primary or a parenthesised term), and only one factor of a
    product may have variables.
    """
    coeffs: Optional[Dict[str, _Num]] = None
    scale: _Num = 1  # the sign and the constant factors of the product
    while True:
        vc: Optional[Dict[str, _Num]] = None  # its factor with variables
        while True:
            tok = toks[i]
            i += 1
            while tok == "-" or tok == "+":
                if tok == "-":
                    scale = -scale
                tok = toks[i]
                i += 1
            c = tok[:1]
            if "A" <= c <= "Z" or c == "_":
                fc, fk = {tok: 1}, 0
            elif c.isdecimal():
                fc, fk = None, rat(tok) if "." in tok else int(tok)
            elif c == "(":
                fc, fk, i = _term(toks, i)
                tok = toks[i]
                i += 1
                if tok != ")":
                    raise _unexpected(tok, f"expected ')', found {tok!r}")
            elif "a" <= c <= "z":
                raise ParseError(f"expected a variable or number, found {tok!r}")
            else:
                raise _unexpected(tok, f"unexpected token {tok!r} in term")
            if not fc:
                scale *= fk
            elif vc is None:
                vc, vk = fc, fk
            else:
                raise ParseError("non-linear term (product of two variables)")
            if toks[i] != "*":
                break
            i += 1
        if vc is None:
            vc, vk = {}, scale
        elif scale != 1:
            vc = {v: x * scale for v, x in vc.items()}
            vk *= scale
        if coeffs is None:
            coeffs, const = vc, vk
        else:
            for v, x in vc.items():
                coeffs[v] = coeffs.get(v, 0) + x
            const += vk
        tok = toks[i]
        if tok == "+":
            scale = 1
        elif tok == "-":
            scale = -1
        else:
            return coeffs, const, i
        i += 1


def _read(text: str, clause_id: Optional[str] = None) -> List[Clause]:
    """The clauses of `text`, labelled as `parse_program` describes; with a
    `clause_id`, those of the one unlabelled clause that `text` must hold.

    A constraint head `phi :- C, B` gives one clause
    `false :- not_i(phi), C, B` per disjunct of the negation of phi: with
    the same id for an inequality head, suffixes .1 and .2 for an equality.
    """
    toks = _TOKEN.findall(text)
    last = toks[-2] if len(toks) > 1 else ""
    if last and last[0] not in _TOKEN_START and last != ":-" and not last[0].isdecimal():
        raise ParseError(f"unexpected character {last[0]!r} at offset "
                         f"{len(text) - len(last)}")
    clauses: List[Clause] = []
    i = 0
    label = clause_id
    auto = 1
    while True:
        tok = toks[i]
        if clause_id is None:
            if not tok:
                return clauses
            label = f"c{auto}"
            auto += 1
            if _LABEL.match(tok):
                # "cN.K_M." reads as the tokens cN . K _M . ; n counts those
                # of the id, and the label ends at the "." after them.
                n = 1
                if toks[i + 1] == "." and toks[i + 2][:1].isdecimal():
                    k = 4 if _LABEL_SUFFIX.match(toks[i + 3]) else 3
                    if toks[i + k] == ".":
                        n = k
                if toks[i + n] == "." and toks[i + n + 1]:
                    label = "".join(toks[i:i + n])
                    i += n + 1
        elif clauses:
            if tok:
                raise ParseError("trailing input after clause")
            return clauses
        if not toks[i]:
            raise ParseError("expected a clause")
        head = FALSE
        phi: Optional[LinearConstraint] = None
        body: List[Atom] = []
        constraints: List[LinearConstraint] = []
        fresh: Optional[FreshNames] = None
        # The items: the head, then the body atoms and constraints; `sep`
        # is what may follow the item besides ".".
        sep = ":-"
        while True:
            tok = toks[i]
            if sep == ":-" and tok == "false":
                i += 1
            elif sep == "," and tok == "true" and toks[i + 1] in ("", ",", ".", ")"):
                i += 1
            elif "a" <= tok[:1] <= "z" and (
                    (nxt := toks[i + 1]) == "("
                    or nxt in ((".", ":-") if sep == ":-" else ("", ",", ".", ")"))):
                if tok.endswith(RESERVED_SUFFIXES):
                    suffix = next(s for s in RESERVED_SUFFIXES if tok.endswith(s))
                    raise ParseError(
                        f"predicate {tok!r} uses the reserved suffix {suffix!r}")
                i += 1
                args: List[Var] = []
                if nxt == "(":
                    i += 1
                    while True:
                        v = toks[i]
                        if (("A" <= v[:1] <= "Z" or v[:1] == "_")
                                and toks[i + 1] in (",", ")") and v not in args):
                            i += 1
                        else:
                            # An argument that is not a new variable becomes
                            # a fresh variable equal to it.
                            coeffs, const, i = _term(toks, i)
                            v = next(iter(coeffs)) if len(coeffs) == 1 else ""
                            if coeffs.get(v) != 1 or const != 0 or v in args:
                                if fresh is None:
                                    # avoiding every name in the file
                                    fresh = FreshNames(toks)
                                v = fresh.fresh()
                                coeffs[v] = -1
                                constraints.append(
                                    LinearConstraint.make(coeffs, EQ, -const))
                        args.append(v)
                        end = toks[i]
                        i += 1
                        if end == ")":
                            break
                        if end != ",":
                            raise _unexpected(
                                end, f"expected ',' or ')' in atom, found {end!r}")
                atom = Atom(tok, tuple(args))
                if sep == ":-":
                    head = atom
                else:
                    body.append(atom)
            else:
                lc, lk, i = _term(toks, i)
                tok = toks[i]
                rel = _RELATIONS.get(tok)
                if rel is None:
                    raise _unexpected(tok, f"expected a relation, found {tok!r}")
                rc, rk, i = _term(toks, i + 1)
                for v, x in rc.items():
                    lc[v] = lc.get(v, 0) - x
                c = LinearConstraint.make(lc, rel, rk - lk)
                if sep == ":-":
                    phi = c
                else:
                    constraints.append(c)
            tok = toks[i]
            i += 1
            if tok == ".":
                break
            if tok != sep:
                raise _unexpected(tok, f"expected {sep!r} or '.', found {tok!r}")
            sep = ","
        cs = ConstraintSet.make(constraints)
        if phi is None:
            clauses.append(Clause(label, head, cs, tuple(body)))
        else:
            negs = phi.negations()
            clauses.extend(
                Clause(label if len(negs) == 1 else f"{label}.{k}", FALSE, cs.add(neg),
                       tuple(body))
                for k, neg in enumerate(negs, 1))


def parse_clause(text: str, clause_id: str = "c1") -> Clause:
    """Parse a single clause given as text (label not allowed here).

    Raises ParseError when the text is an integrity constraint with an
    equality head, which stands for two clauses.
    """
    clauses = _read(text, clause_id)
    if len(clauses) != 1:
        raise ParseError("an equality head gives two clauses")
    return clauses[0]


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
    head is rewritten into `false` clauses (see `_read`).
    """
    return Program(tuple(_read(text)))


# ---------------------------------------------------------------------------
# Dependency components.
# ---------------------------------------------------------------------------


def components(program: Program) -> List[Tuple[Tuple[str, ...], bool]]:
    """The strongly connected components of the head-to-body dependencies,
    callees before callers, each paired with whether it is cyclic (more
    than one predicate, or one that depends on itself).

    Iterative Tarjan over the predicates in `program.predicates` order,
    visiting each predicate's successors in that order; Tarjan finishes a
    component only after everything it reaches, so it emits them in reverse
    topological order. Each component lists its predicates in that order
    too, so a renaming of the predicates renames the result and changes
    nothing else.
    """
    order = {p: i for i, p in enumerate(program.predicates)}
    succ = {p: sorted({b.pred for cl in program.clauses_for(p) for b in cl.body},
                      key=order.__getitem__)
            for p in order}
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

    for root in succ:
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
                    out.append((tuple(sorted(comp, key=order.__getitem__)),
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
