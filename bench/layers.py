"""What the traced run wraps, and the per-layer metrics derived from spans.

Kernel functions (LP, projection, simplify, Farkas, hull, widening) are
reported by self time: the span minus its wrapped children, so each second
is counted once.  Driver phases (thresholds, analysis, transform,
propagation, counterexample check, interpolation, splitting) are reported
by inclusive time of their outermost spans.  Like the end-to-end times,
span times are scaled to reference speed (run.REFERENCE_S); they include
the worker's speed samples that fall inside them, about 1 % of a run.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List

LP = "linalg:solve_lp"
SAT = "linalg:is_satisfiable"
ENTAILS = "linalg:_entails_cached"
PROJECT = "linalg:project"
SIMPLIFY = "linalg:simplify"
FARKAS = "linalg:farkas_refutation"
HULL = "polyhedra:Polyhedron.hull"
WIDEN = "polyhedra:Polyhedron.widen"
OF = "polyhedra:Polyhedron.of"
THRESHOLDS = "analysis:compute_thresholds"
ANALYZE = "analysis:analyze"
SAFETY = "analysis:check_safety"
INDUCTIVE = "analysis:is_inductive_model"
QA = "qa:qa_transform"
PARSE = "chc_ast:parse_program"
STRENGTHEN = "specialise:strengthen"
EXTRACT = "cex:extract_trace"
BUILD_TREE = "cex:build_and_tree"
FEASIBLE = "cex:feasible"
INTERPOLATE = "cex:interpolate"
TREE_ITP = "cex:tree_interpolants"
SPLIT = "refine:split_facts"
SPECIALISE = "refine:polyvariant_specialise"
VERIFY = "driver:verify"

TARGETS = (LP, SAT, ENTAILS, PROJECT, SIMPLIFY, FARKAS, HULL, WIDEN, OF,
           THRESHOLDS, ANALYZE, SAFETY, INDUCTIVE, QA, PARSE, STRENGTHEN,
           EXTRACT, BUILD_TREE, FEASIBLE, INTERPOLATE, TREE_ITP, SPLIT,
           SPECIALISE, VERIFY)

# Driver phases and the whole run, reported by inclusive time.
INCLUSIVE = frozenset((THRESHOLDS, ANALYZE, SAFETY, INDUCTIVE, QA, PARSE,
                       STRENGTHEN, EXTRACT, BUILD_TREE, FEASIBLE, TREE_ITP,
                       SPLIT, SPECIALISE, VERIFY))

RESOURCE_LIMIT = "ResourceLimitError"


def _lp_shape(args, kwargs, result):
    rows = args[0] if args else kwargs["rows"]
    objective = args[1] if len(args) > 1 else kwargs.get("objective", {})
    names = set(objective)
    nnz = 0
    for coeffs, _, _ in rows:
        names.update(coeffs)
        nnz += sum(1 for c in coeffs.values() if c)
    return [len(rows), len(names), nnz]


PROBES = {
    LP: _lp_shape,
    PROJECT: lambda a, k, r: len(r),
    THRESHOLDS: lambda a, k, r: len(r),
    QA: lambda a, k, r: len(r.clauses),
    STRENGTHEN: lambda a, k, r: len(a[0].clauses) - len(r.clauses),
    EXTRACT: lambda a, k, r: r.size(),
    SPLIT: lambda a, k, r: sum(len(cells) for cells in r.parts.values()),
    SPECIALISE: lambda a, k, r: len(r[0].clauses),
    VERIFY: lambda a, k, r: r.refinements,
}


class Digest:
    """Counts, times and probe values summed over the spans of many runs."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = defaultdict(int)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.incl_s: Dict[str, float] = defaultdict(float)
        self.probes: Dict[str, List] = defaultdict(list)
        self.under: Dict[tuple, int] = defaultdict(int)  # (parent, child) -> calls
        self.resource_limit_errors = 0
        self.spans = 0

    def add(self, spans: Iterable[tuple], scale: float = 1.0) -> None:
        """Add one run's spans; `scale` converts its nanoseconds to seconds
        at reference speed."""
        spans = list(spans)
        scale /= 1e9
        child_ns = [0] * len(spans)
        raised_below = [False] * len(spans)
        names = [s[2] for s in spans]
        for _, par, _, t0, t1, exc, _ in spans:
            if par >= 0:
                child_ns[par] += t1 - t0
                if exc == RESOURCE_LIMIT:
                    raised_below[par] = True
        for idx, par, name, t0, t1, exc, probe in spans:
            dur = t1 - t0
            self.calls[name] += 1
            self.self_s[name] += (dur - child_ns[idx]) * scale
            if name in INCLUSIVE and not self._nested_in_same(spans, idx, name):
                self.incl_s[name] += dur * scale
            if probe is not None:
                self.probes[name].append(probe)
            if par >= 0:
                self.under[(names[par], name)] += 1
            if exc == RESOURCE_LIMIT and not raised_below[idx]:
                self.resource_limit_errors += 1
        self.spans += len(spans)

    @staticmethod
    def _nested_in_same(spans, idx: int, name: str) -> bool:
        par = spans[idx][1]
        while par >= 0:
            if spans[par][2] == name:
                return True
            par = spans[par][1]
        return False

    def secs(self, name: str, inclusive: bool = False) -> float:
        return (self.incl_s if inclusive else self.self_s)[name]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _pct(values: List[float], q: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return float(ordered[int(rank) - 1])


def per_layer_metrics(d: Digest, caches: Dict[str, Dict[str, int]],
                      traced_s: float, untraced_s: float) -> Dict[str, float]:
    """The per-layer metric values of one traced pass.

    `caches` holds lru_cache hits and misses summed over the pass;
    `traced_s` and `untraced_s` are the total verify wall times of the
    traced pass and of the untraced pass over the same programs, at
    reference speed.
    """
    run_s = d.secs(PARSE, inclusive=True) + d.secs(VERIFY, inclusive=True)
    shapes = d.probes[LP]
    rows = [s[0] for s in shapes]
    names = [s[1] for s in shapes]
    nnz = [s[2] for s in shapes]

    def hit_ratio(target: str) -> float:
        info = caches.get(target)
        if not info:
            return 0.0
        return _ratio(info["hits"], info["hits"] + info["misses"])

    return {
        "linalg.lp_calls": d.calls[LP],
        "linalg.lp_s": d.secs(LP),
        "linalg.lp_share": _ratio(d.secs(LP), run_s),
        "linalg.lp_rows.p50": _pct(rows, 50),
        "linalg.lp_rows.p90": _pct(rows, 90),
        "linalg.lp_vars.p50": _pct(names, 50),
        "linalg.lp_nnz.p50": _pct(nnz, 50),
        "linalg.sat_calls": d.calls[SAT],
        "linalg.sat_lp_ratio": _ratio(d.under[(SAT, LP)], d.calls[SAT]),
        "linalg.sat_cache_hit_ratio": hit_ratio(SAT),
        "linalg.entails_calls": d.calls[ENTAILS],
        "linalg.entails_cache_hit_ratio": hit_ratio(ENTAILS),
        "linalg.project_calls": d.calls[PROJECT],
        "linalg.project_s": d.secs(PROJECT),
        "linalg.project_rows_out.max": max(d.probes[PROJECT], default=0),
        "linalg.simplify_calls": d.calls[SIMPLIFY],
        "linalg.simplify_s": d.secs(SIMPLIFY),
        "linalg.farkas_calls": d.calls[FARKAS],
        "linalg.farkas_s": d.secs(FARKAS),
        "linalg.resource_limit_errors": d.resource_limit_errors,
        "polyhedra.hull_calls": d.calls[HULL],
        "polyhedra.hull_s": d.secs(HULL),
        "polyhedra.widen_calls": d.calls[WIDEN],
        "polyhedra.widen_s": d.secs(WIDEN),
        "polyhedra.of_calls": d.calls[OF],
        "analysis.thresholds_s": d.secs(THRESHOLDS, inclusive=True),
        "analysis.threshold_count": sum(d.probes[THRESHOLDS]),
        "analysis.analyze_calls": d.calls[ANALYZE],
        "analysis.analyze_s": d.secs(ANALYZE, inclusive=True),
        "analysis.inductive_check_s": sum(d.secs(n, inclusive=True)
                                          for n in (SAFETY, INDUCTIVE)),
        "qa.transform_s": d.secs(QA, inclusive=True),
        "qa.clauses_out": sum(d.probes[QA]),
        "chc_ast.parse_s": d.secs(PARSE, inclusive=True),
        "specialise.strengthen_s": d.secs(STRENGTHEN, inclusive=True),
        "specialise.clauses_removed": sum(d.probes[STRENGTHEN]),
        "cex.check_s": sum(d.secs(n, inclusive=True)
                           for n in (EXTRACT, BUILD_TREE, FEASIBLE)),
        "cex.trace_size.max": max(d.probes[EXTRACT], default=0),
        "cex.interpolate_calls": d.calls[INTERPOLATE],
        "cex.interpolate_s": d.secs(TREE_ITP, inclusive=True),
        "refine.split_s": d.secs(SPLIT, inclusive=True),
        "refine.cells": sum(d.probes[SPLIT]),
        "refine.specialise_s": d.secs(SPECIALISE, inclusive=True),
        "refine.clauses_out": sum(d.probes[SPECIALISE]),
        "driver.rounds": sum(d.probes[VERIFY]),
        "trace.spans": d.spans,
        "trace.overhead_s": traced_s - untraced_s,
        "trace.overhead_share": _ratio(traced_s - untraced_s, untraced_s),
    }
