"""Benchmark worker: verifies one program in a fresh process.

Protocol: the worker imports chcverify from the checkout's `src`, prints
"ready" and reads one JSON request from stdin:

    {"text": ..., "config": {...}, "spans": path or null}

It times `parse_program` + `verify` (wall and CPU), then, outside the timed
span, re-checks the verdict's evidence and prints one JSON line with the
facts the checker needs.  An empty request only reports the reference
speed (see Speedometer); the harness uses that to time set-up alone.  With "spans" set, the functions
listed in `layers.TARGETS` are traced and the spans written to that path.
"""

import gc
import json
import os
import random
import resource
import signal
import statistics
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import chcverify  # noqa: E402  (set-up ends here)


# Speed sampling.  On a shared host the speed of a CPU can drift by +-20 %
# over seconds to minutes, so every worker also times a frozen reference
# computation: three times just before the timed span, every
# SAMPLE_PERIOD_S inside it (from a SIGALRM handler) and three times
# after it.  The harness scales the program's times by the worker's
# reference time (see reference_time and run.REFERENCE_S); the reference
# time spent inside the span is taken out of it.  The chunk runs with the
# cyclic GC off, so that a collection of the program's heap is not timed as
# host speed.
SAMPLE_PERIOD_S = 0.25
# Spans with fewer samples than this are scaled by the median of all samples.
MIN_SPAN_SAMPLES = 4
_REF_RNG = random.Random(1)
_REF_MATRIX = [[Fraction(_REF_RNG.randint(-9, 9), _REF_RNG.randint(1, 9))
                for _ in range(9)] for _ in range(8)]


def reference_chunk() -> None:
    """Gauss-Jordan elimination of a fixed 8x9 rational matrix (~2.5 ms)."""
    m = [row[:] for row in _REF_MATRIX]
    for c in range(8):
        p = next(r for r in range(c, 8) if m[r][c])
        m[c], m[p] = m[p], m[c]
        inv = 1 / m[c][c]
        m[c] = [x * inv for x in m[c]]
        for r in range(8):
            if r != c and m[r][c]:
                f = m[r][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]


def reference_time(span: list, outside: list) -> float:
    """The chunk time that stands for the host's speed over the timed span.

    With MIN_SPAN_SAMPLES or more samples in the span, this is the harmonic
    mean of those samples: each sample stands for one sampling period of
    the program, so the speeds are weighted by time, as the program's own
    time is, and a preempted (long) sample moves it little.  A shorter
    span is scaled by the median of all samples.
    """
    if len(span) >= MIN_SPAN_SAMPLES:
        return statistics.harmonic_mean(span)
    return statistics.median(span + outside)


class Speedometer:
    def __init__(self) -> None:
        self.samples = []

    def sample(self, *_) -> None:
        gc_was_on = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            reference_chunk()
            self.samples.append(time.perf_counter() - t0)
        finally:
            if gc_was_on:
                gc.enable()

    def __enter__(self) -> "Speedometer":
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def rat_backend() -> str:
    rat = chcverify.linalg.Rat
    return f"{rat.__module__}.{rat.__name__}"


def main() -> int:
    print("ready", flush=True)
    raw = sys.stdin.read()
    speed = Speedometer()
    reference_chunk()  # warm-up, not recorded
    for _ in range(3):
        speed.sample()
    ref_before = statistics.median(speed.samples)
    if not raw.strip():
        print(json.dumps({"ref_before_s": ref_before}), flush=True)
        return 0
    req = json.loads(raw)
    tracer = None
    if req.get("spans"):
        sys.path.insert(0, HERE)
        from layers import PROBES, TARGETS
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(TARGETS, PROBES)
        tracer.active = True

    config = chcverify.Config(**req.get("config", {}))
    before = len(speed.samples)
    with speed:
        wall0, cpu0 = time.perf_counter(), time.process_time()
        program = chcverify.parse_program(req["text"])
        verdict = chcverify.verify(program, config)
        wall = time.perf_counter() - wall0
        cpu = time.process_time() - cpu0
        span = speed.samples[before:]
    sampling = sum(span)
    for _ in range(3):
        speed.sample()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    out = {
        "kind": verdict.kind,
        "refinements": verdict.refinements,
        "witness": str(verdict.trace) if verdict.trace is not None else None,
        "reason": verdict.reason,
        "wall_s": wall - sampling,
        "cpu_s": cpu - sampling,
        "ref_s": reference_time(span, speed.samples[:before]
                                + speed.samples[before + len(span):]),
        "ref_before_s": ref_before,
        "rss_mb": rss_mb,
        "rat": rat_backend(),
    }
    if tracer is not None:
        tracer.active = False
        out["caches"] = tracer.cache_stats()
        out["absent"] = tracer.absent
        out["spans"] = tracer.write(req["spans"])

    # Evidence checks, outside the timed span.
    if verdict.kind == "safe":
        out["model_ok"] = bool(
            verdict.model is not None
            and chcverify.check_safety(verdict.model)
            and chcverify.is_inductive_model(verdict.program, verdict.model))
    elif verdict.kind == "unsafe":
        tree = chcverify.build_and_tree(verdict.program, verdict.trace)
        out["witness_feasible"] = bool(chcverify.feasible(tree))
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
