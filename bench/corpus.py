"""Benchmark workloads: the programs, their configurations and their checks.

Every job carries the reference answer it is checked against.  None of the
references comes from `verify`:

* `t4-unsafe` and `updown-refine` have hand-written expected verdicts;
* `random-small` programs are judged like the randomized driver suite: a
  `safe` verdict is wrong when `false` has a derivation of height <= 5
  (`oracle.bounded_derive`), and every safe model and unsafe witness is
  re-checked by the worker.

The random program generator is a frozen copy of the one the test suite
uses, so that edits to the tests cannot change the workload.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
CORPUS_DIR = os.path.join(HERE, "corpus")

DECIDED = ("safe", "unsafe")

# random-small: the driver suite's generator settings and seed.  The draw
# is fixed: a different draw changes which programs form the heavy tail,
# which would swamp run-to-run noise.
RANDOM_DRAW_SEED = 606
# 125 programs fit a run and include one that refines (attempt 122), so
# the counterexample and splitting layers run on this workload too.
RANDOM_PROGRAMS = 125
RANDOM_MAX_CLAUSES = 5
ORACLE_DEPTH = 5


@dataclass(frozen=True)
class Job:
    """One program to verify, with what its verdict is checked against.

    `kinds` are the acceptable verdicts.  `derivable` is True when the
    bounded oracle found a derivation of false, which rules out `safe`.
    `witness` and `refinements` are the answer recorded when the workload
    was defined; a difference is reported, not failed.
    """

    name: str
    text: str
    config: Dict[str, object] = field(default_factory=dict)
    kinds: Tuple[str, ...] = ("safe", "unsafe", "unknown")
    derivable: bool = False
    witness: Optional[str] = None
    refinements: Optional[int] = None


def _read(name: str) -> str:
    with open(os.path.join(CORPUS_DIR, name)) as fh:
        return fh.read()


def _t4_jobs() -> List[Job]:
    # The two-counter loop: unsafe over the rationals (non-integer N).
    return [Job("t4", _read("t4.pl"), kinds=("unsafe",),
                witness="c1_2(c2_2_1_3(c5_1,c3_3))", refinements=1)]


def _updown_jobs() -> List[Job]:
    # Safe, but today the refinement budget runs out first: `unsafe` is the
    # only wrong answer.
    return [Job("updown", _read("updown.pl"), kinds=("safe", "unknown"),
                refinements=10)]


def _random_jobs() -> List[Job]:
    from chcverify.chc_ast import FALSE, parse_program, program_text
    from chcverify.oracle import bounded_derive

    jobs: List[Job] = []
    attempt = 0
    while len(jobs) < RANDOM_PROGRAMS:
        attempt += 1
        rng = random.Random(RANDOM_DRAW_SEED * 1_000_000 + attempt)
        text = program_text(random_program(rng, max_clauses=RANDOM_MAX_CLAUSES))
        try:
            truth = bounded_derive(parse_program(text), FALSE, ORACLE_DEPTH)
        except RuntimeError as exc:
            if "derivations" not in str(exc):
                raise
            continue  # fan-out cap: the driver suite skips these too
        jobs.append(Job(f"attempt{attempt}", text,
                        config={"max_refinements": 2}, derivable=bool(truth)))
    return jobs


WORKLOADS = {
    "t4-unsafe": _t4_jobs,
    "random-small": _random_jobs,
    "updown-refine": _updown_jobs,
}


def jobs_for(workload: str) -> List[Job]:
    """The workload's programs."""
    return WORKLOADS[workload]()


def check(job: Job, result: Dict[str, object]) -> Optional[str]:
    """Why `result` is wrong for `job`, or None when it passes."""
    if result.get("error"):
        return str(result["error"])
    kind = result.get("kind")
    if kind not in job.kinds:
        return f"verdict {kind}, expected {' or '.join(job.kinds)}"
    if kind == "safe":
        if job.derivable:
            return "safe, but false has a depth-5 derivation"
        if not result.get("model_ok"):
            return "safe with a model that is not safe and inductive"
    if kind == "unsafe" and not result.get("witness_feasible"):
        return "unsafe with an infeasible witness"
    return None


def changes(job: Job, result: Dict[str, object]) -> List[str]:
    """Differences from the recorded answer that do not fail the check."""
    out = []
    if job.witness is not None and result.get("witness") != job.witness:
        out.append(f"witness {result.get('witness')} (recorded {job.witness})")
    if job.refinements is not None and result.get("refinements") != job.refinements:
        out.append(f"refinements {result.get('refinements')} "
                   f"(recorded {job.refinements})")
    return out


# ---------------------------------------------------------------------------
# Frozen copy of the test suite's random program generator.  Keep the RNG
# call order unchanged: it defines the random-small workload.
# ---------------------------------------------------------------------------

CLAUSE_VARS = ("X", "Y", "Z")
PRED_NAMES = ("p", "q", "r")


def random_constraint(rng: random.Random, pool: Sequence[str],
                      max_coeff: int = 3, max_bound: int = 4):
    from chcverify.linalg import EQ, LE, LT, LinearConstraint, rat

    coeffs = {}
    for v in pool:
        if rng.random() < 0.7:
            c = rng.randint(-max_coeff, max_coeff)
            if c:
                coeffs[v] = rat(c)
    rel = rng.choice((LE, LE, LT, EQ))
    return LinearConstraint.make(coeffs, rel, rat(rng.randint(-max_bound, max_bound)))


def random_program(rng: random.Random, max_clauses: int = 6,
                   ensure_false: bool = True):
    """A small random program: <= 3 predicates of arity <= 2, <= 3 variables
    per clause, body length <= 2, ids c1..cN."""
    from chcverify.chc_ast import FALSE, Atom, Clause, Program
    from chcverify.linalg import EQ, ConstraintSet, LinearConstraint, rat

    arity: Dict[str, int] = {
        PRED_NAMES[i]: rng.randint(1, 2) for i in range(rng.randint(1, 3))}
    preds = sorted(arity)
    pool = list(CLAUSE_VARS)
    clauses = []
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
