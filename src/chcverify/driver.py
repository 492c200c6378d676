"""Verification loop and command line entry point.

Each round first specialises the program with the answer constraints of its
query-answer transform (constraint propagation), unless no clause derives
`false` already, then runs the polyhedral analysis once.  A safe model ends
the run; otherwise the first derivation of `false` that the analysis found
is replayed as an AND-tree.  Feasible trees are real counterexamples;
spurious ones drive one round of interpolant-guided predicate splitting, and
the loop starts over on the specialised program, unless that program
repeats an earlier round's.  `python -m chcverify` runs `main`.
"""

from __future__ import annotations

import json
import os
import sys
import time
from typing import Callable, List, NamedTuple, Optional, Tuple

from .analysis import (
    AbstractModel,
    analyze,
    check_safety,
    is_inductive_model,
    model_to_text,
)
from .cex import TraceTerm, build_and_tree, extract_trace, feasible, tree_interpolants
from .chc_ast import FALSE, ParseError, Program, parse_program, program_text
from .linalg import ResourceLimitError, reset_caches
from .qa import qa_transform
from .refine import polyvariant_specialise, split_facts
from .specialise import early_safe, strengthen

DUMP_KINDS = ("qa", "spec", "model", "ps")


class Config(NamedTuple):
    max_refinements: int = 10
    dump_dir: Optional[str] = None
    dump_kinds: Tuple[str, ...] = DUMP_KINDS


class Verdict(NamedTuple):
    """Outcome of a run: kind is "safe", "unsafe" or "unknown".

    `refinements` counts completed splitting rounds.  Unsafe verdicts carry
    the feasible trace; unknown ones carry a reason.  Safe verdicts keep the
    final program and its inductive model so callers can audit them.
    """

    kind: str
    refinements: int
    trace: Optional[TraceTerm] = None
    reason: Optional[str] = None
    events: Tuple[str, ...] = ()
    program: Optional[Program] = None
    model: Optional[AbstractModel] = None


def _dump(cfg: Config, name: str, kind: str, render: Callable[..., str],
          *args) -> None:
    """Write `render(*args)` when `kind` is dumped; otherwise render nothing."""
    if cfg.dump_dir is None or kind not in cfg.dump_kinds:
        return
    import tempfile  # only dumps need it, not `import chcverify`

    text = render(*args)
    os.makedirs(cfg.dump_dir, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=cfg.dump_dir, prefix=name + ".")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, os.path.join(cfg.dump_dir, name))
    except BaseException:
        os.unlink(tmp)
        raise


def _round_key(program: Program) -> tuple:
    """Everything a round reads of `program`, up to predicate names and
    clause ids.

    Each predicate, `false` included, is named by its index in
    `program.predicates` (first appearance, body atoms first), and the
    key holds the index of `false` and the clauses in program order, each
    as its head's index and arguments, its constraint and its body atoms'
    indices and arguments. So two programs have equal keys exactly when a
    renaming of the predicates that keeps `false` turns one into the
    other, clause ids aside.
    """
    index = {p: i for i, p in enumerate(program.predicates)}
    return (index.get(FALSE.pred),
            tuple((index[cl.head.pred], cl.head.args, cl.constraint,
                   tuple((index[b.pred], b.args) for b in cl.body))
                  for cl in program.clauses))


def verify(program: Program, config: Optional[Config] = None) -> Verdict:
    """Decide whether `program` derives `false`.

    A run starts by emptying the kernel's caches (`linalg.reset_caches`),
    so what it costs does not depend on what ran before it. Four budgets
    bound a run, and each ends it in `unknown` with a reason:
    `cfg.max_refinements` splitting rounds, `linalg.FM_LIMIT` rows in one
    projection or rays in one step of a hull's double description,
    `analysis.MAX_ITERATIONS` rounds of one component's fixpoint, and
    `refine.MAX_CLAUSES_PER_SOURCE` versions of one clause in a split. A
    loop ends it in `unknown` too, with the reason
    "round N repeats round M": from the first refinement on, each round's
    program is keyed (`_round_key`), and a round whose key an earlier
    round M had does not start.

    Stopping there loses no verdict. Round N's program is round M's under
    a renaming of the predicates that keeps `false`, up to clause ids. A
    round reads predicate names only as identities, and clause ids only to
    spell new ones: every order it puts predicates in is their first
    appearance (`chc_ast.components`, on the program and on its
    query-answer transform, and the versions of `refine`), and the kernel
    caches are exact. So round N would replay round M step for step: its
    counterexample is spurious again, and its split gives round M + 1's
    program up to names and ids. Each later round would replay one of
    rounds M ... N - 1 in the same way, until a budget ran out, into
    `unknown` as well.
    """
    cfg = config or Config()
    reset_caches()
    events: List[str] = []
    rounds = 0
    given = program
    # Kept from the first refinement on: before it, programs rarely recur,
    # and keying them costs more than the hits save.
    seen = None
    try:
        while True:
            if early_safe(program):
                proof = "no clause derives false"
            else:
                qa = qa_transform(program, FALSE)
                _dump(cfg, f"round{rounds}.qa", "qa", program_text, qa)
                qa_model, _ = analyze(qa)
                program = strengthen(program, qa_model)
                _dump(cfg, f"round{rounds}.spec", "spec", program_text, program)
                events.append(f"round {rounds}: propagation kept "
                              f"{len(program.clauses)} clauses")
                proof = ("propagation removed every false clause"
                         if early_safe(program)
                         else "model proves false unreachable")
            model, first = analyze(program)
            _dump(cfg, f"round{rounds}.model", "model", model_to_text, model,
                  program)
            if check_safety(model):
                events.append(f"round {rounds}: {proof}")
                if not is_inductive_model(program, model):
                    raise RuntimeError("analysis returned a non-inductive model")
                return Verdict("safe", rounds, events=tuple(events),
                               program=program, model=model)
            trace = extract_trace(first)
            tree = build_and_tree(program, trace)
            if feasible(tree):
                events.append(f"round {rounds}: counterexample {trace} is feasible")
                return Verdict("unsafe", rounds, trace=trace,
                               events=tuple(events), program=program, model=model)
            events.append(f"round {rounds}: counterexample {trace} is spurious")
            if rounds >= cfg.max_refinements:
                return Verdict("unknown", rounds,
                               reason="refinement limit reached",
                               events=tuple(events))
            interpolant = tree_interpolants(tree)
            split = split_facts(program, model, interpolant)
            program, _ = polyvariant_specialise(program, split)
            _dump(cfg, f"round{rounds}.ps", "ps", program_text, program)
            events.append(
                f"round {rounds}: split into {len(program.predicates)} "
                f"predicates, {len(program.clauses)} clauses")
            rounds += 1
            if seen is None:
                seen = {_round_key(given): 0}
            key = _round_key(program)
            if key in seen:
                repeats = f"round {rounds} repeats round {seen[key]}"
                events.append(f"round {rounds}: stopped: {repeats}")
                return Verdict("unknown", rounds, reason=repeats,
                               events=tuple(events))
            seen[key] = rounds
    except ResourceLimitError as exc:
        events.append(f"round {rounds}: gave up: {exc}")
        return Verdict("unknown", rounds, reason=str(exc), events=tuple(events))


_EXIT_CODES = {"safe": 0, "unsafe": 1, "unknown": 2}


def main(argv: Optional[List[str]] = None) -> int:
    import argparse  # only the command line needs it, not `import chcverify`

    ap = argparse.ArgumentParser(
        prog="chcverify",
        description="Decide safety of constrained Horn clauses over "
                    "linear rational arithmetic.")
    ap.add_argument("file", help="clause file to verify")
    ap.add_argument("--max-refinements", type=int,
                    default=Config._field_defaults["max_refinements"], metavar="N",
                    help="splitting rounds before giving up (default %(default)s)")
    ap.add_argument("--dump-dir", metavar="DIR",
                    help="write per-round artifacts into DIR")
    ap.add_argument("--dump", action="append", choices=DUMP_KINDS,
                    metavar="|".join(DUMP_KINDS),
                    help="artifact kinds to dump (default: all)")
    ap.add_argument("--format", choices=("human", "json"), default="human")
    try:
        args = ap.parse_args(argv)
        if args.max_refinements < 0:
            ap.error("--max-refinements must not be negative")
        if args.dump and args.dump_dir is None:
            ap.error("--dump needs --dump-dir")
    except SystemExit as exc:
        # argparse exits 2 on a usage error, which would read as "unknown".
        return 3 if exc.code else 0

    try:
        with open(args.file) as fh:
            program = parse_program(fh.read())
        if args.dump_dir is not None:
            os.makedirs(args.dump_dir, exist_ok=True)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ParseError, ValueError) as exc:
        print(f"error: {args.file}: {exc}", file=sys.stderr)
        return 3

    cfg = Config(
        max_refinements=args.max_refinements,
        dump_dir=args.dump_dir,
        dump_kinds=tuple(args.dump) if args.dump else DUMP_KINDS,
    )
    start = time.monotonic()
    try:
        verdict = verify(program, cfg)
    except Exception as exc:
        # Exit 1 would read as "unsafe".
        print(f"error: {args.file}: internal error: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 4
    elapsed_ms = int((time.monotonic() - start) * 1000)

    if args.format == "json":
        print(json.dumps({
            "verdict": verdict.kind,
            "iterations": verdict.refinements,
            "time_ms": elapsed_ms,
            "witness": str(verdict.trace) if verdict.trace else None,
            "reason": verdict.reason,
            "events": list(verdict.events),
        }))
    else:
        print(f"result:      {verdict.kind}")
        print(f"refinements: {verdict.refinements}")
        print(f"time:        {elapsed_ms} ms")
        if verdict.trace is not None:
            print(f"witness:     {verdict.trace}")
        if verdict.reason is not None:
            print(f"reason:      {verdict.reason}")
    return _EXIT_CODES[verdict.kind]


if __name__ == "__main__":
    sys.exit(main())
