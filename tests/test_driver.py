"""End-to-end verification loop and the command line front end."""

import json
import os

import pytest

from chcverify import driver
from chcverify.analysis import AbstractModel, is_inductive_model
from chcverify.chc_ast import parse_program, program_text
from chcverify.driver import Config, Verdict, main, verify
from chcverify.linalg import _entails_cached, _tableau_of, is_satisfiable, simplify

T4 = open("tests/data/t4.pl").read()
UPDOWN = open("bench/corpus/updown.pl").read()

SAFE_COUNTER = """\
p(X) :- 1*X = 0.
p(Y) :- 1*X+ -1*Y = -1, p(X).
false :- 1*X < 0, p(X).
"""

UNSAFE_COUNTER = """\
p(X) :- 1*X = 0.
p(Y) :- 1*X+ -1*Y = -1, p(X).
false :- 1*X =< 0, p(X).
"""

BOUNDARY_COUNTER = """\
p(X) :- 1*X = 0.
p(Y) :- 1*X+ -1*Y = -1, p(X).
false :- 1*X = 2, p(X).
"""


class TestVerify:
    def test_two_counter_loop_is_unsafe_after_one_split(self):
        verdict = verify(parse_program(T4))
        assert verdict.kind == "unsafe"
        assert verdict.refinements == 1
        assert str(verdict.trace) == "c1_2(c2_2_1_3(c5_1,c3_3))"

    def test_safe_counter_needs_no_refinement(self):
        verdict = verify(parse_program(SAFE_COUNTER))
        assert verdict.kind == "safe"
        assert verdict.refinements == 0
        assert verdict.trace is None
        assert any("removed every false clause" in e for e in verdict.events)

    def test_a_run_costs_the_same_whatever_ran_before(self):
        def cache_counts():
            return (is_satisfiable.cache_info(), _entails_cached.cache_info(),
                    simplify.cache_info(), _tableau_of.cache_info())

        verify(parse_program(UNSAFE_COUNTER))
        verify(parse_program(BOUNDARY_COUNTER), Config(max_refinements=1))
        after_other_runs = cache_counts()
        verify(parse_program(UNSAFE_COUNTER))
        verify(parse_program(BOUNDARY_COUNTER), Config(max_refinements=1))
        assert cache_counts() == after_other_runs
        assert after_other_runs[0].misses > 0

    def test_an_early_safe_model_is_re_checked(self, monkeypatch):
        # No integrity clause: safe before any analysis, but the model that
        # ships must still be inductive. Here p is bottom although c1
        # derives p(0).
        monkeypatch.setattr(driver, "analyze",
                            lambda program, thresholds=None: (AbstractModel({}), None))
        with pytest.raises(RuntimeError, match="non-inductive"):
            verify(parse_program("p(X) :- 1*X = 0.\n"))

    def test_a_model_after_propagation_is_re_checked(self, monkeypatch):
        # Propagation deletes the integrity clause and keeps c1; the analysis
        # after that returns a model in which p is bottom.
        real = driver.analyze
        calls = []

        def analyze(program, thresholds=None):
            calls.append(program)
            if len(calls) == 1:
                return real(program, thresholds)
            return AbstractModel({}), None

        monkeypatch.setattr(driver, "analyze", analyze)
        with pytest.raises(RuntimeError, match="non-inductive"):
            verify(parse_program("p(X) :- 1*X = 0.\n"
                                 "q(X) :- 1*X = 1.\n"
                                 "false :- p(X), q(X).\n"))
        assert len(calls) == 2 and len(calls[1].clauses) == 1

    def test_safe_verdicts_carry_an_inductive_model(self):
        verdict = verify(parse_program(SAFE_COUNTER))
        assert verdict.program is not None and verdict.model is not None
        assert is_inductive_model(verdict.program, verdict.model)

    def test_unsafe_counter_found_without_refinement(self):
        verdict = verify(parse_program(UNSAFE_COUNTER))
        assert verdict.kind == "unsafe"
        assert verdict.refinements == 0
        assert str(verdict.trace) == "c3(c1)"

    def test_boundary_goal_exhausts_the_budget(self):
        # the split cells are closed, so a cut at X <= 0 keeps the initial
        # state in both halves and the same shallow counterexample recurs;
        # a goal reachable only across such a cut stays undecided
        verdict = verify(parse_program(BOUNDARY_COUNTER), Config(max_refinements=3))
        assert verdict.kind == "unknown"
        assert verdict.refinements == 3
        assert all("feasible" not in e or "spurious" in e
                   for e in verdict.events)

    def test_refinement_budget_exhaustion_is_unknown(self):
        verdict = verify(parse_program(T4), Config(max_refinements=0))
        assert verdict.kind == "unknown"
        assert verdict.reason == "refinement limit reached"
        assert any("spurious" in e for e in verdict.events)

    def test_projection_budget_exhaustion_is_unknown(self):
        verdict = verify(parse_program(T4), Config(fm_step_limit=1))
        assert verdict.kind == "unknown"
        assert "gave up" in verdict.events[-1]

    def test_events_tell_the_refinement_story(self):
        verdict = verify(parse_program(T4))
        assert verdict.events == (
            "round 0: propagation kept 5 clauses",
            "round 0: counterexample c1(c3) is spurious",
            "round 0: split into 4 predicates, 6 clauses",
            "round 1: propagation kept 6 clauses",
            "round 1: counterexample c1_2(c2_2_1_3(c5_1,c3_3)) is feasible",
        )

    def test_goal_free_program_is_safe_immediately(self):
        verdict = verify(parse_program("p(X) :- 1*X = 0."))
        assert verdict.kind == "safe"
        assert verdict.events == ("round 0: no clause derives false",)

    def test_defaults(self):
        cfg = Config()
        assert cfg.max_refinements == 10
        assert cfg.fm_step_limit == 10_000
        assert cfg.use_thresholds and cfg.dump_dir is None


class TestDumps:
    def test_each_round_writes_its_artifacts(self, tmp_path):
        out = tmp_path / "dumps"
        verify(parse_program(T4), Config(dump_dir=str(out)))
        assert sorted(os.listdir(out)) == [
            "round0.model", "round0.ps", "round0.qa", "round0.spec",
            "round1.model", "round1.qa", "round1.spec",
        ]
        qa = (out / "round0.qa").read_text()
        assert qa.startswith("goal. false__q.")
        spec = (out / "round1.spec").read_text()
        assert "l_3" in spec

    def test_kind_filter(self, tmp_path):
        out = tmp_path / "dumps"
        verify(parse_program(T4), Config(dump_dir=str(out), dump_kinds=("qa",)))
        assert sorted(os.listdir(out)) == ["round0.qa", "round1.qa"]

    def test_nothing_is_rendered_without_a_dump_dir(self, monkeypatch):
        rendered = []
        monkeypatch.setattr(driver, "program_text",
                            lambda *args: rendered.append("program"))
        monkeypatch.setattr(driver, "model_to_text",
                            lambda *args: rendered.append("model"))
        verdict = verify(parse_program(T4))
        assert verdict.kind == "unsafe" and verdict.refinements == 1
        assert rendered == []

    def test_partition_dumps_parse_back(self, tmp_path):
        # the ids that specialisation makes (c1_2, c2_2_1_3, c1.1_2) read
        # back as labels, so each roundN.ps file is the program it prints
        for name, text in (("t4", T4), ("updown", UPDOWN)):
            out = tmp_path / name
            verify(parse_program(text), Config(dump_dir=str(out),
                                               dump_kinds=("ps",)))
            dumps = sorted(out.iterdir())
            assert dumps, name
            for path in dumps:
                ps = path.read_text()
                assert program_text(parse_program(ps)) == ps, path.name

    def test_no_partial_files_remain(self, tmp_path):
        out = tmp_path / "dumps"
        verify(parse_program(T4), Config(dump_dir=str(out)))
        assert all("." in name and name.split(".")[0].startswith("round")
                   for name in os.listdir(out))


class TestCli:
    def test_json_output_shape(self, tmp_path, capsys):
        f = tmp_path / "t4.pl"
        f.write_text(T4)
        code = main([str(f), "--format", "json"])
        data = json.loads(capsys.readouterr().out)
        assert code == 1
        assert set(data) == {"verdict", "iterations", "time_ms", "witness", "events"}
        assert data["verdict"] == "unsafe"
        assert data["iterations"] == 1
        assert data["witness"] == "c1_2(c2_2_1_3(c5_1,c3_3))"
        assert isinstance(data["time_ms"], int)
        assert data["events"][0] == "round 0: propagation kept 5 clauses"

    def test_human_output_and_exit_codes(self, tmp_path, capsys):
        safe = tmp_path / "safe.pl"
        safe.write_text(SAFE_COUNTER)
        assert main([str(safe)]) == 0
        out = capsys.readouterr().out
        assert "result:      safe" in out
        assert "refinements: 0" in out

        unsafe = tmp_path / "t4.pl"
        unsafe.write_text(T4)
        assert main([str(unsafe)]) == 1
        assert "witness:     c1_2" in capsys.readouterr().out

        assert main([str(unsafe), "--max-refinements", "0"]) == 2
        assert "reason:      refinement limit reached" in capsys.readouterr().out

    def test_missing_file_is_a_usage_error(self, tmp_path, capsys):
        assert main([str(tmp_path / "nope.pl")]) == 3
        assert "error:" in capsys.readouterr().err

    def test_parse_error_is_a_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.pl"
        bad.write_text("p(X :- .")
        assert main([str(bad)]) == 3
        assert "error:" in capsys.readouterr().err

    def test_reserved_predicate_suffix_is_rejected(self, tmp_path, capsys):
        bad = tmp_path / "bad.pl"
        bad.write_text("p__a(X) :- 1*X = 0.")
        assert main([str(bad)]) == 3
        capsys.readouterr()

    def test_dump_flags(self, tmp_path):
        f = tmp_path / "t4.pl"
        f.write_text(T4)
        out = tmp_path / "dumps"
        assert main([str(f), "--dump-dir", str(out), "--dump", "spec"]) == 1
        assert sorted(os.listdir(out)) == ["round0.spec", "round1.spec"]

    def test_thresholds_can_be_disabled(self, tmp_path, capsys):
        f = tmp_path / "safe.pl"
        f.write_text(SAFE_COUNTER)
        assert main([str(f), "--thresholds", "off"]) == 0
        capsys.readouterr()


def test_verdict_dataclass_shape():
    v = Verdict("safe", 0)
    assert v.trace is None and v.reason is None and v.events == ()
