"""The corpus, pinned: each of the benchmark's programs and BOUNDARY_COUNTER,
run with its benchmark configuration and a dump directory, gives the
recorded verdict, refinements, witness, reason and events, and writes dump
files with the recorded sha256 digests.

The record is `tests/data/corpus_results.json`. A change meant to alter a
result rewrites it, and says which results moved and why:

    PYTHONPATH=src python tests/test_corpus.py
"""

import hashlib
import json
import runpy
import sys
from pathlib import Path

from conftest import BOUNDARY_COUNTER, DATA, REPO
from chcverify.chc_ast import parse_program
from chcverify.driver import Config, verify

RECORD = DATA / "corpus_results.json"


def corpus():
    """(name, text, config) of every pinned program: the benchmark's jobs,
    read from `bench/corpus.py`, and BOUNDARY_COUNTER."""
    bench = runpy.run_path(str(REPO / "bench" / "corpus.py"))
    runs = [(job.name, job.text, job.config)
            for workload in sorted(bench["WORKLOADS"])
            for job in bench["jobs_for"](workload)]
    return runs + [("BOUNDARY_COUNTER", BOUNDARY_COUNTER, {})]


def results(dump_root: Path) -> dict:
    out = {}
    for name, text, config in corpus():
        dumps = dump_root / name
        verdict = verify(parse_program(text),
                         Config(**config, dump_dir=str(dumps)))
        out[name] = {
            "kind": verdict.kind,
            "refinements": verdict.refinements,
            "witness": None if verdict.trace is None else str(verdict.trace),
            "reason": verdict.reason,
            "events": list(verdict.events),
            "dumps": {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                      for p in sorted(dumps.iterdir())} if dumps.exists() else {},
        }
    return out


def test_every_corpus_program_gives_its_recorded_result(tmp_path):
    want = json.loads(RECORD.read_text())
    got = results(tmp_path)
    assert len(got) == 128
    assert sorted(got) == sorted(want)
    moved = [name for name in got if got[name] != want[name]]
    assert not moved, f"results differ from {RECORD.name}: {moved}"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        record = results(Path(tmp))
    RECORD.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(record)} results to {RECORD}", file=sys.stderr)
