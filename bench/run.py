"""Cold verdict-time benchmark for chcverify.

    python3 bench/run.py --workload t4-unsafe --seed 1 --seconds 30 --trace 0

Every program is verified cold: in a fresh worker process (bench/worker.py)
with empty caches, one worker at a time.  The harness repeats passes over
the workload's programs while another pass still fits in `--seconds` (at
least one pass), checks every verdict (corpus.check) and prints, as its last
line, one JSON object with the keys correct, attempted, failed and metrics.

With `--trace 0` the metrics are end to end:

    total_verify_s  per pass, the sum of per-program parse+verify wall time
                    (median over passes)
    cpu_s           the same span in worker CPU seconds (median over passes)
    verify_s.p50    median per-program wall time, where a program's wall
                    time is its median over the passes
    verify_s.tail   per-program wall time at the highest percentile with at
                    least ten programs beyond it (the maximum below 11)
    answered_share  share of runs that ended in a checked verdict,
                    i.e. 1 - failed_share
    verdict_score   mean per run of 1 (safe or unsafe), 0.5 (unknown) and
                    0 (failed): falls when a verdict is lost or a run fails
    peak_rss_mb     largest worker resident set
    setup_s         median time from worker spawn to chcverify imported,
                    over every worker of the run and SETUP_PROBES more

The verify and set-up times are reported at reference speed: each worker
times a frozen reference computation before and during the program (see
worker.Speedometer) and the harness scales the program's times to the
speed at which that computation takes REFERENCE_S.  This cancels most of
the drift in CPU speed that a shared host shows over a run.  Raw times are
printed per program and kept in bench/out.

decided_share and failed_share are printed in the summary lines; they are
not metrics of the JSON line because they are 0 on some workloads.

With `--trace 1` the harness makes one untraced pass and one traced pass
over the same programs and reports the per-layer metrics of layers.py,
derived from the spans the traced workers write under bench/out/spans.

`--seed` fixes the order in which the programs run.  The programs
themselves are fixed per workload (see corpus.py), so that runs with
different seeds measure the same work.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import select
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
WORKER = [sys.executable, os.path.join(HERE, "worker.py")]

# Per-program wall limit: well above the slowest program today (~34 s).
WALL_LIMIT_S = 90.0
# No program starts later than this after the harness starts, and none runs
# past it, so that a run always ends within three minutes.
RUN_BUDGET_S = 165.0
# Set-up-only spawns per run, on top of one per verified program.
SETUP_PROBES = 5
# Program times are reported at the speed at which one reference chunk
# (worker.reference_chunk) takes this long: a time t measured at a
# reference time r (worker.reference_time) is reported as t * REFERENCE_S / r.
REFERENCE_S = 0.0025

END_TO_END_UNITS = {
    "total_verify_s": "s",
    "cpu_s": "s",
    "verify_s.p50": "s",
    "verify_s.tail": "s",
    "answered_share": "share",
    "verdict_score": "share",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import corpus  # noqa: E402
from corpus import DECIDED, Job  # noqa: E402


class Harness:
    """Runs jobs in fresh workers against a global time budget."""

    def __init__(self, worker_cmd: List[str] = WORKER,
                 wall_limit: float = WALL_LIMIT_S,
                 budget: float = RUN_BUDGET_S) -> None:
        self.worker_cmd = worker_cmd
        self.wall_limit = wall_limit
        self.deadline = time.perf_counter() + budget
        self.setup_s: List[float] = []

    def _limit(self) -> float:
        return min(self.wall_limit, self.deadline - time.perf_counter())

    def _spawn(self):
        """Start a worker and wait for "ready".

        Returns the process, whether it got ready, and the seconds taken.
        """
        t0 = time.perf_counter()
        proc = subprocess.Popen(self.worker_cmd, cwd=ROOT, bufsize=0,
                                stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE)
        line = b""
        while not line.endswith(b"\n"):
            left = self._limit() - (time.perf_counter() - t0)
            if left <= 0 or not select.select([proc.stdout], [], [], left)[0]:
                break
            chunk = proc.stdout.read(1)
            if not chunk:
                break
            line += chunk
        return proc, line == b"ready\n", time.perf_counter() - t0

    def _record_setup(self, setup: float, result: Dict) -> None:
        if result.get("ref_before_s"):
            self.setup_s.append(setup * REFERENCE_S / result["ref_before_s"])

    @staticmethod
    def _reap(proc) -> None:
        if proc.poll() is None:
            proc.kill()
        proc.communicate()

    def probe_setup(self) -> bool:
        """Time one worker start-up alone; False if the worker cannot start."""
        proc, ok, setup = self._spawn()
        try:
            if not ok:
                return False
            out, _ = proc.communicate(b"", timeout=max(self._limit(), 1.0))
            if proc.returncode != 0:
                return False
            self._record_setup(setup, json.loads(out))
            return True
        except (subprocess.TimeoutExpired, ValueError):
            return False
        finally:
            self._reap(proc)

    def run(self, job: Job, spans: Optional[str] = None) -> Dict[str, object]:
        """Verify one job in a fresh worker; failures become an "error"."""
        if self._limit() < 1.0:
            return {"error": "not started: run time budget spent", "wall_s": 0.0}
        proc, ok, setup = self._spawn()
        try:
            if not ok:
                return {"error": "worker did not start", "wall_s": setup}
            limit = self._limit()
            request = json.dumps({"text": job.text, "config": job.config,
                                  "spans": spans}).encode()
            started = time.perf_counter()
            try:
                out, err = proc.communicate(request, timeout=max(limit, 0.0))
            except subprocess.TimeoutExpired:
                return {"error": f"overran the {limit:.0f} s wall limit",
                        "wall_s": time.perf_counter() - started}
            elapsed = time.perf_counter() - started
            lines = out.decode(errors="replace").strip().splitlines()
            if proc.returncode != 0 or not lines:
                tail = err.decode(errors="replace").strip().splitlines()[-1:]
                return {"error": f"worker exited with code {proc.returncode}"
                                 + (f": {tail[0]}" if tail else ""),
                        "wall_s": elapsed}
            try:
                result = json.loads(lines[-1])
            except ValueError:
                return {"error": "worker printed no result", "wall_s": elapsed}
            self._record_setup(setup, result)
            return dict(result, setup_s=setup)
        finally:
            self._reap(proc)


def judge(job: Job, result: Dict[str, object]) -> Dict[str, object]:
    """The run record: the worker's facts plus the check's outcome."""
    record = dict(result, program=job.name)
    record["failure"] = corpus.check(job, result)
    record["changes"] = corpus.changes(job, result)
    return record


def tail(values: List[float]):
    """(value, percentile, values beyond) at the highest percentile that
    leaves at least ten values beyond it; the maximum below 11 values."""
    ordered = sorted(values)
    n = len(ordered)
    k = n - 11 if n >= 11 else n - 1
    return ordered[k], 100.0 * (k + 1) / n, n - 1 - k


def shares(records: List[Dict]):
    """(decided_share, failed_share) over run records."""
    failed = sum(1 for r in records if r["failure"])
    decided = sum(1 for r in records if not r["failure"] and r.get("kind") in DECIDED)
    return decided / len(records), failed / len(records)


def scaled(rec: Dict, key: str = "wall_s") -> float:
    """A worker time at reference speed; failed runs keep their raw time."""
    value = rec.get(key, rec["wall_s"])
    return value * REFERENCE_S / rec["ref_s"] if rec.get("ref_s") else value


def program_walls(passes: List[List[Dict]]) -> List[float]:
    """Each program's wall time: its median over the passes."""
    return [statistics.median(scaled(p[i]) for p in passes)
            for i in range(len(passes[0]))]


def end_to_end(passes: List[List[Dict]], setup_s: List[float]) -> Dict[str, float]:
    runs = [r for p in passes for r in p]
    walls = program_walls(passes)
    scores = [0.0 if r["failure"] else 1.0 if r.get("kind") in DECIDED else 0.5
              for r in runs]
    return {
        "total_verify_s": statistics.median(
            sum(scaled(r) for r in p) for p in passes),
        "cpu_s": statistics.median(
            sum(scaled(r, "cpu_s") for r in p) for p in passes),
        "verify_s.p50": statistics.median(walls),
        "verify_s.tail": tail(walls)[0],
        "answered_share": sum(1 for r in runs if not r["failure"]) / len(runs),
        "verdict_score": sum(scores) / len(scores),
        "peak_rss_mb": max((r.get("rss_mb", 0.0) for r in runs), default=0.0),
        "setup_s": statistics.median(setup_s),
    }


def per_layer(jobs: List[Job], untraced: List[Dict], traced: List[Dict],
              spans_dir: str):
    from layers import Digest, per_layer_metrics
    from tracer import read_spans

    digest = Digest()
    caches: Dict[str, Dict[str, int]] = {}
    absent = set()
    for job, rec in zip(jobs, traced):
        if rec["failure"] or "spans" not in rec:
            continue
        digest.add(read_spans(os.path.join(spans_dir, f"{job.name}.tsv")),
                   scale=REFERENCE_S / rec["ref_s"])
        absent.update(rec.get("absent", ()))
        for target, info in rec.get("caches", {}).items():
            acc = caches.setdefault(target, {"hits": 0, "misses": 0})
            acc["hits"] += info["hits"]
            acc["misses"] += info["misses"]
    metrics = per_layer_metrics(
        digest, caches,
        traced_s=sum(scaled(r) for r in traced),
        untraced_s=sum(scaled(r) for r in untraced))
    return metrics, sorted(absent)


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_s"):
        return "s"
    if "ratio" in name or "share" in name:
        return "ratio"
    return "count"


def environment(records: List[Dict]) -> Dict[str, object]:
    rat = next((r["rat"] for r in records if r.get("rat")), "unknown")
    return {"python": platform.python_version(), "rat": rat,
            "nproc": len(os.sched_getaffinity(0))}


def describe(rec: Dict) -> str:
    if rec["failure"]:
        return f"  {rec['program']}: FAILED: {rec['failure']}"
    line = (f"  {rec['program']}: {rec['kind']} after {rec['refinements']} "
            f"refinements, {rec['wall_s']:.3f} s wall, {rec['cpu_s']:.3f} s cpu, "
            f"{scaled(rec):.3f} s wall at reference speed")
    if rec.get("witness"):
        line += f", witness {rec['witness']}"
    if rec["changes"]:
        line += f" [changed: {'; '.join(rec['changes'])}]"
    return line


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(corpus.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "chcverify", "__init__.py")):
        print("error: no chcverify sources under src/ next to bench/",
              file=sys.stderr)
        return 2
    harness = Harness()
    if not harness.probe_setup():
        print("error: the worker cannot import chcverify", file=sys.stderr)
        return 2
    for _ in range(SETUP_PROBES - 1):
        harness.probe_setup()

    jobs = corpus.jobs_for(args.workload)
    random.Random(args.seed).shuffle(jobs)

    passes: List[List[Dict]] = []
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        passes.append([judge(job, harness.run(job)) for job in jobs])
        now = time.perf_counter()
        if args.trace or now - start + (now - pass_start) > args.seconds:
            break

    records = [r for p in passes for r in p]
    spans_dir = os.path.join(OUT_DIR, "spans", args.workload)
    if args.trace:
        os.makedirs(spans_dir, exist_ok=True)
        for name in os.listdir(spans_dir):
            os.unlink(os.path.join(spans_dir, name))
        traced = [judge(job, harness.run(job, os.path.join(spans_dir, f"{job.name}.tsv")))
                  for job in jobs]
        records += traced
        metrics, absent = per_layer(jobs, passes[0], traced, spans_dir)
    else:
        metrics, absent = end_to_end(passes, harness.setup_s), []

    env = environment(records)
    failed = sum(1 for r in records if r["failure"])
    decided_share, failed_share = shares(records)
    print(f"env: python {env['python']}, rat {env['rat']}, nproc {env['nproc']}")
    print(f"workload {args.workload}: {len(jobs)} programs, {len(passes)} untraced "
          f"pass(es){', 1 traced pass' if args.trace else ''}, seed {args.seed}")
    for rec in passes[0]:
        print(describe(rec))
    value, pct, beyond = tail(program_walls(passes))
    print(f"decided_share {decided_share:.4f} share, "
          f"failed_share {failed_share:.4f} share")
    print(f"verify_s.tail is the p{pct:.1f} wall time ({value:.4f} s) with "
          f"{beyond} of {len(jobs)} programs beyond it")
    if absent:
        print(f"absent (not traced): {', '.join(absent)}")
    for name, v in metrics.items():
        print(f"  {name} = {v:.6g} {unit_of(name)}")

    os.makedirs(OUT_DIR, exist_ok=True)
    suffix = ".trace" if args.trace else ""
    with open(os.path.join(OUT_DIR, f"{args.workload}{suffix}.json"), "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "env": env,
                   "decided_share": decided_share, "failed_share": failed_share,
                   "absent": absent, "metrics": metrics, "runs": records},
                  fh, indent=1)

    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": v, "unit": unit_of(name)}
                    for name, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
