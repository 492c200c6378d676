"""Shared test fixtures: the worked example T4 and its k-accumulator family
T4-k, random program generation, deep derivation chains, the trace of an
AND-tree, and the property suites.

The six property suites are session-scoped fixtures so that the per-module
tests and the acceptance tests share one run.  Each suite raises on the
first violated law, naming the failing case seed.
"""

import random
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, List, Sequence

import pytest

from chcverify.cex import AndNode, TraceTerm
from chcverify.chc_ast import FALSE, Atom, Clause, Program
from chcverify.linalg import EQ, LE, LT, ConstraintSet, LinearConstraint, rat

# Paths from this file, so the tests run from any working directory.
REPO = Path(__file__).resolve().parent.parent
DATA = REPO / "tests" / "data"
T4 = (DATA / "t4.pl").read_text()

CLAUSE_VARS = ("X", "Y", "Z")
PRED_NAMES = ("p", "q", "r")


def chain_program(n: int, goal: str) -> str:
    """p0 holds at 0 and each p_i one above p_(i-1), so p_(n-1) holds at
    n-1 only; `false` asks for `goal` on it. The one derivation of `false`
    is n + 1 clauses deep: c(n+1) over c(n) ... over c1."""
    lines = ["p0(X) :- 1*X = 0."]
    lines += [f"p{i}(Y) :- 1*Y+ -1*X = 1, p{i - 1}(X)." for i in range(1, n)]
    lines.append(f"false :- {goal}, p{n - 1}(X).")
    return "\n".join(lines) + "\n"


def t4k_program(k: int) -> str:
    """T4 with k accumulators A0..A(k-1): the loop predicate is
    l(I, A0, ..., A(k-1), N), and body choice j (clause c(5+j)) adds 2 to
    Aj and 1 to every other accumulator. The exits compare the sum with
    (k+1)*N both ways, and the goal starts every accumulator at 0. Unsafe
    over the rationals for T4's reason: N = 1/2 runs the loop once and
    leaves the sum at k + 1 > (k+1)/2. k = 2 is T4 with c5 and c6 swapped."""
    acc = [f"A{j}" for j in range(k)]
    nxt = [f"B{j}" for j in range(k)]
    args, next_args, total = ", ".join(acc), ", ".join(nxt), " + ".join(acc)
    lines = [
        "c1. false :- N > 0, I = 0, " + ", ".join(f"{a} = 0" for a in acc)
        + f", l(I, {args}, N).",
        f"c2. l(I, {args}, N) :- I < N, l_body({args}, {next_args}), "
        f"I1 = I + 1, l(I1, {next_args}, N).",
        f"c3. l(I, {args}, N) :- I >= N, {total} > {k + 1} * N.",
        f"c4. l(I, {args}, N) :- I >= N, {total} < {k + 1} * N.",
    ]
    for j in range(k):
        steps = (f"{b} = {a} + {2 if i == j else 1}"
                 for i, (a, b) in enumerate(zip(acc, nxt)))
        lines.append(f"c{5 + j}. l_body({args}, {next_args}) :- "
                     + ", ".join(steps) + ".")
    return "\n".join(lines) + "\n"


@contextmanager
def shallow_stack(frames: int = 60):
    """Run the body with room for only `frames` more frames on the stack,
    so that a walk recursing once per level of a deeper tree fails."""
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + frames)
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


def tr(node: AndNode) -> TraceTerm:
    """The trace term an AND-tree was built from."""
    return TraceTerm(node.clause.id, tuple(tr(c) for c in node.children))


def random_constraint(rng: random.Random, pool: Sequence[str],
                      max_coeff: int = 3, max_bound: int = 4) -> LinearConstraint:
    coeffs = {}
    for v in pool:
        if rng.random() < 0.7:
            c = rng.randint(-max_coeff, max_coeff)
            if c:
                coeffs[v] = rat(c)
    rel = rng.choice((LE, LE, LT, EQ))
    return LinearConstraint.make(coeffs, rel, rat(rng.randint(-max_bound, max_bound)))


def random_constraint_set(rng: random.Random, pool: Sequence[str],
                          n: int = None) -> ConstraintSet:
    n = rng.randint(1, 4) if n is None else n
    return ConstraintSet.make([random_constraint(rng, pool) for _ in range(n)])


def random_program(rng: random.Random, max_clauses: int = 6,
                   ensure_false: bool = True) -> Program:
    """A small random program: <= 3 predicates of arity <= 2, <= 3 variables
    per clause, body length <= 2, ids c1..cN."""
    arity: Dict[str, int] = {
        PRED_NAMES[i]: rng.randint(1, 2) for i in range(rng.randint(1, 3))}
    preds = sorted(arity)
    pool = list(CLAUSE_VARS)
    clauses: List[Clause] = []
    n = rng.randint(2, max_clauses)
    for i in range(n):
        if rng.random() < 0.3:
            head = FALSE
        else:
            p = rng.choice(preds)
            head = Atom(p, tuple(pool[:arity[p]]))
        body = []
        for _ in range(rng.choices((0, 1, 2), weights=(5, 4, 2))[0]):
            bp = rng.choice(preds)
            body.append(Atom(bp, tuple(rng.sample(pool, arity[bp]))))
        rows = [random_constraint(rng, pool)
                for _ in range(rng.randint(0, 3))]
        if rng.random() < 0.5:
            a, b = rng.sample(pool, 2)
            rows.append(LinearConstraint.make(
                {a: rat(1), b: rat(-1)}, EQ, rat(rng.randint(-2, 2))))
        clauses.append(Clause(f"c{i + 1}", head,
                              ConstraintSet.make(rows), tuple(body)))
    if ensure_false and not any(cl.is_false_head() for cl in clauses):
        p = rng.choice(preds)
        atom = Atom(p, tuple(pool[:arity[p]]))
        clauses.append(Clause(f"c{n + 1}", FALSE,
                              ConstraintSet.make(
                                  [random_constraint(rng, atom.args)]),
                              (atom,)))
    return Program(tuple(clauses))


@pytest.fixture(scope="session")
def suite_a_report():
    import suites
    return suites.run_suite_a()


@pytest.fixture(scope="session")
def suite_b_report():
    import suites
    return suites.run_suite_b()


@pytest.fixture(scope="session")
def suite_c_report():
    import suites
    return suites.run_suite_c()


@pytest.fixture(scope="session")
def suite_d_report():
    import suites
    return suites.run_suite_d()


@pytest.fixture(scope="session")
def suite_e_report():
    import suites
    return suites.run_suite_e()


@pytest.fixture(scope="session")
def suite_f_report():
    import suites
    return suites.run_suite_f()
