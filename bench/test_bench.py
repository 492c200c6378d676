"""Tests of the benchmark harness itself: checker, isolation and tracing.

Run with:  python3 -m pytest -q bench
"""

import json
import os
import sys

from pytest import approx

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import corpus  # noqa: E402
import run  # noqa: E402
from layers import LP, PROJECT, Digest, per_layer_metrics  # noqa: E402
from tracer import Tracer, read_spans  # noqa: E402

TINY_UNSAFE = "c1. p(X) :- X = 0.\nc2. false :- p(X), X < 1.\n"


def fake_worker(result) -> list:
    """A worker command that skips verification and reports `result`."""
    code = ("import sys; print('ready', flush=True); sys.stdin.read(); "
            f"print({json.dumps(json.dumps(result))})")
    return [sys.executable, "-c", code]


def t4_job():
    (job,) = corpus.jobs_for("t4-unsafe")
    return job


def test_safe_verdict_for_t4_counts_as_failed():
    harness = run.Harness(fake_worker(
        {"kind": "safe", "refinements": 0, "wall_s": 0.01, "cpu_s": 0.01,
         "model_ok": True}))
    rec = run.judge(t4_job(), harness.run(t4_job()))
    assert rec["failure"] == "verdict safe, expected unsafe"
    assert run.shares([rec])[1] > 0


def test_unsafe_updown_counts_as_failed():
    (job,) = corpus.jobs_for("updown-refine")
    assert corpus.check(job, {"kind": "unsafe", "witness_feasible": True})
    assert corpus.check(job, {"kind": "unknown"}) is None


def test_safe_contradicting_the_oracle_counts_as_failed():
    job = corpus.Job("p", TINY_UNSAFE, derivable=True)
    assert "derivation" in corpus.check(job, {"kind": "safe", "model_ok": True})
    job = corpus.Job("p", TINY_UNSAFE)
    assert "inductive" in corpus.check(job, {"kind": "safe", "model_ok": False})
    assert "infeasible" in corpus.check(
        job, {"kind": "unsafe", "witness_feasible": False})


def test_worker_crash_counts_as_failed_and_the_run_goes_on():
    crash = [sys.executable, "-c",
             "import sys; print('ready', flush=True); sys.exit(3)"]
    rec = run.judge(t4_job(), run.Harness(crash).run(t4_job()))
    assert rec["failure"].startswith("worker exited with code 3")
    ok = run.judge(t4_job(), run.Harness(fake_worker(
        {"kind": "unsafe", "refinements": 1, "wall_s": 0.01,
         "witness_feasible": True})).run(t4_job()))
    assert ok["failure"] is None
    assert run.shares([rec, ok]) == (0.5, 0.5)


def test_overrun_counts_as_failed():
    sleeper = [sys.executable, "-c",
               "import time; print('ready', flush=True); time.sleep(30)"]
    rec = run.judge(t4_job(), run.Harness(sleeper, wall_limit=1.0).run(t4_job()))
    assert "wall limit" in rec["failure"]


def test_real_worker_verifies_and_traces(tmp_path):
    job = corpus.Job("tiny", TINY_UNSAFE, kinds=("unsafe",))
    harness = run.Harness()
    plain = run.judge(job, harness.run(job))
    assert plain["failure"] is None and plain["witness"] == "c2(c1)"
    spans = str(tmp_path / "tiny.tsv")
    traced = run.judge(job, harness.run(job, spans))
    assert traced["failure"] is None and traced["absent"] == []
    digest = Digest()
    digest.add(read_spans(spans))
    metrics = per_layer_metrics(digest, traced["caches"],
                                traced["wall_s"], plain["wall_s"])
    assert metrics["driver.rounds"] == 0
    assert metrics["chc_ast.parse_s"] > 0
    assert len(harness.setup_s) == 2


def test_removed_names_are_reported_absent():
    tracer = Tracer()
    tracer.install(["linalg:no_such_function", "polyhedra:Nowhere.hull",
                    "no_such_module:f", "analysis:check_safety"])
    assert tracer.absent == ["linalg:no_such_function", "polyhedra:Nowhere.hull",
                             "no_such_module:f"]
    metrics = per_layer_metrics(Digest(), {}, 1.0, 1.0)
    assert metrics["linalg.lp_calls"] == 0
    assert metrics["linalg.sat_cache_hit_ratio"] == 0.0


def test_digest_splits_self_and_inclusive_time():
    # verify > project (raises) > solve_lp; the error is counted once.
    spans = [
        (0, -1, "driver:verify", 0, 100, None, 0),
        (1, 0, PROJECT, 10, 60, "ResourceLimitError", None),
        (2, 1, LP, 20, 50, None, [3, 2, 5]),
        (3, 0, "analysis:analyze", 60, 90, None, None),
    ]
    d = Digest()
    d.add(spans)
    assert d.secs(PROJECT) == approx(20e-9) and d.secs(LP) == approx(30e-9)
    assert d.secs("driver:verify") == approx(20e-9)
    assert d.secs("analysis:analyze", inclusive=True) == approx(30e-9)
    assert d.resource_limit_errors == 1
    metrics = per_layer_metrics(d, {}, 1e-7, 1e-7)
    assert metrics["linalg.lp_rows.p50"] == 3 and metrics["linalg.lp_nnz.p50"] == 5
    assert metrics["linalg.lp_share"] == approx(0.3)


def test_tail_leaves_ten_values_beyond():
    assert run.tail(list(range(100))) == (89, 90.0, 10)
    assert run.tail([3.0]) == (3.0, 100.0, 0)


def test_reference_time_weights_the_span_and_resists_preemption():
    from worker import reference_time

    # Long span: harmonic mean, so one preempted sample moves it little.
    span = [2.0] * 19 + [20.0]
    assert reference_time(span, [9.0] * 6) == approx(20 / (19 / 2.0 + 1 / 20.0))
    assert reference_time(span, []) < 2.11
    # Short span: the median of all samples.
    assert reference_time([2.0], [2.2, 2.4, 20.0, 2.1, 2.3, 2.2]) == 2.2
