"""End-to-end verification loop and the command line front end."""

import json
import os
import random
import re
import subprocess
import sys

import pytest

from conftest import (DATA, REPO, T4, chain_program, random_program, shallow_stack,
                      t4k_program)
from chcverify import analysis, driver, linalg
from chcverify.analysis import AbstractModel, analyze, check_safety, is_inductive_model
from chcverify.cex import build_and_tree, extract_trace, feasible, tree_interpolants
from chcverify.chc_ast import (FALSE, Atom, Program, components, parse_program,
                               program_text)
from chcverify.driver import Config, Verdict, main, verify
from chcverify.linalg import (_entails_cached, _tableau_of, closed_hull,
                              is_satisfiable, simplify)
from chcverify.qa import answer_pred, qa_transform, query_pred
from chcverify.refine import polyvariant_specialise, split_facts

UPDOWN = (REPO / "bench" / "corpus" / "updown.pl").read_text()

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

# With FM_LIMIT = 1 round 0 fits the cap and round 1 exceeds it, in the
# projection that eliminates Z.
CAPPED_AFTER_A_SPLIT = """\
c1. q(X) :- -2*X+ 3*Z =< -2, q(Y).
c2. q(X) :- 2*X+ 3*Z = 0, -1*Y+ -1*Z =< 3, 1*Z =< 1.
c3. false :- 1*X =< -4, q(X).
"""

# A source label that a specialised id also spells: c1 with versions 1, 1
# and c1_1 with version 1 both extend to "c1_1_1".
LABELLED_COUNTER = """\
c1. p(Y) :- 1*X+ -1*Y = -1, p(X).
c1_1. p(X) :- 1*X >= 0, 1*X =< 1.
c3. false :- 1*X = 2, p(X).
"""


def _count_evaluations(monkeypatch):
    """A list whose last entry counts clause evaluations (`_contribution`
    calls); append a 0 to start a new count."""
    counts = []
    contribution = analysis._contribution

    def counting(cl, model):
        counts[-1] += 1
        return contribution(cl, model)

    monkeypatch.setattr(analysis, "_contribution", counting)
    return counts


class TestVerify:
    def test_two_counter_loop_is_unsafe_after_one_split(self):
        verdict = verify(parse_program(T4))
        assert verdict.kind == "unsafe"
        assert verdict.refinements == 1
        assert str(verdict.trace) == "c1_2(c2_2_1_3(c5_1,c3_3))"

    def test_specialised_clause_ids_never_collide(self):
        verdict = verify(parse_program(LABELLED_COUNTER))
        assert verdict.kind == "unsafe"
        assert verdict.refinements == 1
        assert str(verdict.trace) == "c3_2(c1_2_1(c1_1__1))"
        assert feasible(build_and_tree(verdict.program, verdict.trace))

    def test_safe_counter_needs_no_refinement(self):
        verdict = verify(parse_program(SAFE_COUNTER))
        assert verdict.kind == "safe"
        assert verdict.refinements == 0
        assert verdict.trace is None
        assert any("removed every false clause" in e for e in verdict.events)

    def test_a_run_costs_the_same_whatever_ran_before(self, monkeypatch):
        def cache_counts():
            return (is_satisfiable.cache_info(), _entails_cached.cache_info(),
                    simplify.cache_info(), _tableau_of.cache_info(),
                    closed_hull.cache_info())

        evaluations = _count_evaluations(monkeypatch)

        def runs():
            for text, config in ((UNSAFE_COUNTER, None),
                                 (BOUNDARY_COUNTER, Config(max_refinements=1))):
                evaluations.append(0)
                verify(parse_program(text), config)

        runs()
        after_other_runs = cache_counts()
        runs()
        assert cache_counts() == after_other_runs
        assert after_other_runs[0].misses > 0 and after_other_runs[4].misses > 0
        assert evaluations[:2] == evaluations[2:] and evaluations[1] > 0

    def test_updown_hulls_most_operands_again(self):
        # The analyses of a run join many pairs of sets again, most of all
        # in the rounds after a split. So most hull lookups of a run hit
        # (34 of 60 on updown), which is what the hull cache is for.
        verify(parse_program(UPDOWN))
        info = closed_hull.cache_info()
        assert info.hits > info.misses > 0

    def test_an_early_safe_model_is_re_checked(self, monkeypatch):
        # No integrity clause: safe before any analysis, but the model that
        # ships must still be inductive. Here p is bottom although c1
        # derives p(0).
        monkeypatch.setattr(driver, "analyze",
                            lambda program: (AbstractModel({}), None))
        with pytest.raises(RuntimeError, match="non-inductive"):
            verify(parse_program("p(X) :- 1*X = 0.\n"))

    def test_a_model_after_propagation_is_re_checked(self, monkeypatch):
        # Propagation deletes the integrity clause and keeps c1; the analysis
        # after that returns a model in which p is bottom.
        real = driver.analyze
        calls = []

        def analyze(program):
            calls.append(program)
            if len(calls) == 1:
                return real(program)
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

    def test_boundary_goal_stops_when_round_2_repeats_round_1(self):
        # the split cells are closed, so a cut at X <= 0 keeps the initial
        # state in both halves and the same shallow counterexample recurs;
        # a goal reachable only across such a cut stays undecided, and the
        # second split gives back the first one's program under new names
        verdict = verify(parse_program(BOUNDARY_COUNTER))
        assert verdict.kind == "unknown"
        assert verdict.refinements == 2
        assert verdict.reason == "round 2 repeats round 1"
        assert verdict.events[-1] == "round 2: stopped: round 2 repeats round 1"
        assert all("feasible" not in e or "spurious" in e
                   for e in verdict.events)

    @pytest.mark.parametrize("text, config, fm_limit, kind, refinements, reason", [
        (SAFE_COUNTER, Config(), None, "safe", 0, None),
        (T4, Config(), None, "unsafe", 1, None),
        # the limit comes before round 2, which would repeat round 1
        (BOUNDARY_COUNTER, Config(max_refinements=1), None, "unknown", 1,
         "refinement limit reached"),
        (CAPPED_AFTER_A_SPLIT, Config(), 1, "unknown", 1, "projection"),
    ], ids=["safe", "unsafe", "refinement-limit", "fm-step-limit"])
    def test_each_way_a_run_ends(self, monkeypatch, text, config, fm_limit,
                                 kind, refinements, reason):
        if fm_limit is not None:
            monkeypatch.setattr(linalg, "FM_LIMIT", fm_limit)
        # a second run of the same program ends as the first did
        for _ in range(2):
            verdict = verify(parse_program(text), config)
            assert (verdict.kind, verdict.refinements) == (kind, refinements)
            assert (verdict.reason is None) == (reason is None)
            assert reason is None or reason in verdict.reason

    def test_refinement_budget_exhaustion_is_unknown(self):
        verdict = verify(parse_program(T4), Config(max_refinements=0))
        assert verdict.kind == "unknown"
        assert verdict.reason == "refinement limit reached"
        assert any("spurious" in e for e in verdict.events)

    def test_projection_budget_exhaustion_is_unknown(self, monkeypatch):
        monkeypatch.setattr(linalg, "FM_LIMIT", 1)
        verdict = verify(parse_program(T4))
        assert verdict.kind == "unknown"
        assert "gave up" in verdict.events[-1]

    def test_hull_budget_exhaustion_is_unknown(self, monkeypatch):
        # round 0 joins the points A = 2 and A = 1, and the segment's two
        # facets are one more than the cap allows
        monkeypatch.setattr(linalg, "FM_LIMIT", 1)
        verdict = verify(parse_program(BOUNDARY_COUNTER))
        assert (verdict.kind, verdict.refinements) == ("unknown", 0)
        assert verdict.reason == "double description exceeded 1 generators"
        assert verdict.events[-1] == (
            "round 0: gave up: double description exceeded 1 generators")

    @pytest.mark.parametrize("k", [3, 5])
    def test_t4k_is_unsafe_after_one_split(self, k):
        verdict = verify(parse_program(t4k_program(k)))
        assert (verdict.kind, verdict.refinements) == ("unsafe", 1)
        assert str(verdict.trace) == "c1_2(c2_2_1_3(c5_1,c3_3))"
        assert feasible(build_and_tree(verdict.program, verdict.trace))

    def test_events_tell_the_refinement_story(self):
        verdict = verify(parse_program(T4))
        assert verdict.events == (
            "round 0: propagation kept 5 clauses",
            "round 0: counterexample c1(c3) is spurious",
            "round 0: split into 4 predicates, 6 clauses",
            "round 1: propagation kept 6 clauses",
            "round 1: counterexample c1_2(c2_2_1_3(c5_1,c3_3)) is feasible",
        )

    def test_a_derivation_deeper_than_the_stack_is_unsafe(self):
        n = 150
        prog = parse_program(chain_program(n, "1*X >= 0"))
        with shallow_stack():
            verdict = verify(prog)
        assert (verdict.kind, verdict.refinements) == ("unsafe", 0)
        assert verdict.trace.size() == n + 1

    def test_goal_free_program_is_safe_immediately(self):
        verdict = verify(parse_program("p(X) :- 1*X = 0."))
        assert verdict.kind == "safe"
        assert verdict.events == ("round 0: no clause derives false",)

    def test_defaults(self):
        cfg = Config()
        assert Config._fields == ("max_refinements", "dump_dir", "dump_kinds")
        assert cfg.max_refinements == 10
        assert cfg.dump_dir is None
        assert linalg.FM_LIMIT == 10_000


def _renamed(program, names):
    # every predicate in `names` renamed, the clauses and their labels kept
    def atom(a):
        return Atom(names.get(a.pred, a.pred), a.args)

    return Program(tuple(
        cl._replace(head=atom(cl.head), body=tuple(map(atom, cl.body)))
        for cl in program.clauses))


def _renamed_and_shuffled(program, rng):
    # every predicate but false renamed at random, the clauses shuffled and
    # their labels kept
    preds = sorted(set(program.predicates) - {FALSE.pred})
    names = dict(zip(preds, (f"q{k}" for k in rng.sample(range(10**6), len(preds)))))
    clauses = list(_renamed(program, names).clauses)
    rng.shuffle(clauses)
    return Program(tuple(clauses))


def test_verdicts_do_not_depend_on_predicate_names_or_clause_order():
    # a run reads predicate names only as identities and clause ids only to
    # spell new ones, so a renamed copy takes the same path; the shuffle
    # also changes the clause order and the first appearance that the
    # components, the versions and the round key follow, and a verdict
    # must not depend on those either
    cases = [(parse_program(T4), Config()), (parse_program(UPDOWN), Config()),
             (parse_program(BOUNDARY_COUNTER), Config(max_refinements=3))]
    for attempt in range(1, 31):  # suite f's first programs
        rng = random.Random(606 * 1_000_000 + attempt)
        cases.append((random_program(rng, max_clauses=5),
                      Config(max_refinements=2)))
    rng = random.Random(21)
    outcomes = []
    for k, (prog, cfg) in enumerate(cases):
        want = verify(prog, cfg)
        got = verify(_renamed_and_shuffled(prog, rng), cfg)
        assert ((got.kind, got.refinements, got.reason)
                == (want.kind, want.refinements, want.reason)), k
        outcomes.append((want.kind, want.refinements))
    assert {kind for kind, _ in outcomes} == {"safe", "unsafe", "unknown"}
    assert [refinements for _, refinements in outcomes[:3]] == [1, 5, 2]


def _scrambled_names(program, rng):
    # a random injective renaming of every predicate but false that, for
    # two or more of them, does not keep their sorted order
    preds = sorted(set(program.predicates) - {FALSE.pred})
    while True:
        new = [rng.choice("agmz") + str(k)
               for k in rng.sample(range(1000), len(preds))]
        if len(preds) < 2 or new != sorted(new):
            return dict(zip(preds, new))


def _one_round(program):
    # the analysis, the split and the specialisation that one refinement of
    # `program` makes, and whether a spurious counterexample gave an
    # interpolant
    model, first = analyze(program)
    interpolant = None
    if not check_safety(model):
        tree = build_and_tree(program, extract_trace(first))
        if not feasible(tree):
            interpolant = tree_interpolants(tree)
    split = split_facts(program, model, interpolant)
    return ((model.facts, [(p, cl.id) for p, cl in first.items()]), split,
            polyvariant_specialise(program, split), interpolant is not None)


def test_a_round_commutes_with_renaming_the_predicates():
    # what the round-repeat stop rests on: components, the round key and
    # one split with its specialisation read predicate names only as
    # identities, so renaming the input renames the output and nothing else
    rng = random.Random(25)
    interpolated = 0
    # suite f's first programs: four of them (122, 129, 223 and 296) have a
    # spurious counterexample, whose interpolant splits some predicates
    for attempt in range(1, 301):
        prog = random_program(random.Random(606 * 1_000_000 + attempt),
                              max_clauses=5)
        names = _scrambled_names(prog, rng)
        renamed = _renamed(prog, names)
        names[FALSE.pred] = FALSE.pred
        assert driver._round_key(renamed) == driver._round_key(prog), attempt
        assert components(renamed) == [
            (tuple(names[p] for p in comp), cyclic)
            for comp, cyclic in components(prog)], attempt
        qa_names = {f(p): f(q) for p, q in names.items()
                    for f in (query_pred, answer_pred)}
        assert components(qa_transform(renamed, FALSE)) == [
            (tuple(qa_names[p] for p in comp), cyclic)
            for comp, cyclic in components(qa_transform(prog, FALSE))], attempt
        try:
            want = _one_round(prog)
        except linalg.ResourceLimitError:
            with pytest.raises(linalg.ResourceLimitError):
                _one_round(renamed)
            continue
        (facts, first), split, (out, origin), has_interpolant = want
        ((got_facts, got_first), got_split, (got, got_origin),
         got_interpolant) = _one_round(renamed)
        # the analysis of the renamed program is the renamed analysis
        assert got_facts == {names[p]: v for p, v in facts.items()}, attempt
        assert got_first == [(names[p], cid) for p, cid in first], attempt
        assert got_interpolant == has_interpolant, attempt
        assert got_split.parts == {names[p]: c for p, c in split.parts.items()}
        assert got_split.wholes == {names[p]: c for p, c in split.wholes.items()}
        # the same versions, named in the same order of first use
        assert list(got_origin.values()) == [
            (names[p], k) for p, k in origin.values()], attempt
        assert _renamed(got, dict(zip(got_origin, origin))) == out, attempt
        interpolated += has_interpolant
    assert interpolated >= 3


@pytest.mark.parametrize("text, config", [
    (T4, Config()), (UPDOWN, Config()),
    (BOUNDARY_COUNTER, Config(max_refinements=3)),
], ids=["t4", "updown", "boundary"])
def test_reversing_the_name_order_changes_only_names(tmp_path, text, config):
    prog = parse_program(text)
    preds = sorted(set(prog.predicates) - {FALSE.pred})
    # vz > vy > ...: the renamed predicates sort in reverse
    names = {p: "v" + chr(ord("z") - i) for i, p in enumerate(preds)}
    back = {new: old for old, new in names.items()}
    runs = []
    for k, program in enumerate((prog, _renamed(prog, names))):
        out = tmp_path / str(k)
        verdict = verify(program, config._replace(dump_dir=str(out)))
        runs.append(((verdict.kind, verdict.refinements, str(verdict.trace),
                      verdict.reason, verdict.events),
                     {f: (out / f).read_text() for f in sorted(os.listdir(out))}))
    (want, want_dumps), (got, got_dumps) = runs
    assert got == want
    # each version's name starts with its renamed base name
    base = re.compile(r"\b(v[a-z])(?=[_(])")
    assert {f: base.sub(lambda m: back[m[1]], dump)
            for f, dump in got_dumps.items()} == want_dumps
    assert any(f.endswith(".ps") for f in want_dumps)


class TestFixpointMemo:
    # Analyses once shared the fixpoints of their components through a memo.
    # No fixpoint outlives an analysis now; what a second run reuses is the
    # caches of linalg, and it must end as the first did.

    def test_updown_reuses_fixpoints_with_the_same_results(
            self, monkeypatch, tmp_path):
        evaluations = _count_evaluations(monkeypatch)

        def run(name):
            evaluations.append(0)
            out = tmp_path / name
            verdict = verify(parse_program(UPDOWN), Config(dump_dir=str(out)))
            return verdict, {p.name: p.read_text() for p in out.iterdir()}

        first = run("first")
        again = run("again")
        assert first == again
        assert first[0].kind == "unknown" and first[0].refinements == 5
        assert first[0].reason == "round 5 repeats round 4"
        assert len(first[1]) == 20  # 4 kinds in rounds 0-4; round 5 repeats
        assert evaluations[0] == evaluations[1] > 0


class TestRoundKey:
    # p, r, s and false first appear in that order
    PROGRAM = """\
c1. p(X) :- 1*X = 0.
c2. r(Y) :- 1*X+ -1*Y = -1, p(X).
c3. s(Y) :- 1*Y >= 0, r(Y).
c4. false :- 1*X = 2, s(X).
"""

    @classmethod
    def key(cls, names=None, ids=None, goal="1*X = 2"):
        text = re.sub(r"\b([prs])\(", lambda m: (names or {}).get(m[1], m[1]) + "(",
                      cls.PROGRAM.replace("1*X = 2", goal))
        text = re.sub(r"^c(\d)\.", lambda m: (ids or "c{}").format(m[1]) + ".",
                      text, flags=re.M)
        return driver._round_key(parse_program(text))

    def test_an_order_preserving_renaming_with_new_ids_keeps_the_key(self):
        renamed = self.key({"p": "g_1", "r": "h_2", "s": "h_3"}, ids="c{}_1_2")
        assert renamed == self.key()

    def test_a_renaming_that_swaps_the_order_of_two_predicates_keeps_it(self):
        # r and s change places in the sorted order: g < h < z
        assert self.key({"p": "g", "r": "z", "s": "h"}) == self.key()

    def test_a_renaming_that_reorders_the_query_and_answer_names_keeps_it(self):
        # p < p1 and p < q, but p1__a sorts before p__a and q__a after it
        assert self.key({"r": "p1", "s": "t"}) == self.key({"r": "q", "s": "t"})

    def test_a_changed_constraint_row_changes_it(self):
        assert self.key(goal="1*X = 3") != self.key()

    def test_no_key_is_built_before_the_first_refinement(self, monkeypatch):
        keyed = []
        real = driver._round_key
        monkeypatch.setattr(driver, "_round_key",
                            lambda program: keyed.append(program) or real(program))
        verify(parse_program(SAFE_COUNTER))
        verify(parse_program(UNSAFE_COUNTER))
        assert keyed == []
        # T4 is refined once: round 0's program and round 1's
        given = parse_program(T4)
        verdict = verify(given)
        assert verdict.refinements == 1 and len(keyed) == 2 and keyed[0] is given


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
        for name, text in (("t4", T4), ("updown", UPDOWN),
                           ("labelled", LABELLED_COUNTER)):
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
        assert set(data) == {"verdict", "iterations", "time_ms", "witness",
                             "reason", "events"}
        assert data["verdict"] == "unsafe"
        assert data["iterations"] == 1
        assert data["witness"] == "c1_2(c2_2_1_3(c5_1,c3_3))"
        assert data["reason"] is None
        assert isinstance(data["time_ms"], int)
        assert data["events"][0] == "round 0: propagation kept 5 clauses"

        code = main([str(f), "--format", "json", "--max-refinements", "0"])
        data = json.loads(capsys.readouterr().out)
        assert code == 2
        assert data["verdict"] == "unknown" and data["witness"] is None
        assert data["reason"] == "refinement limit reached"

    def test_python_m_runs_the_cli(self):
        src = os.path.dirname(os.path.dirname(driver.__file__))
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ,
                   PYTHONPATH=src if not path else src + os.pathsep + path)
        done = subprocess.run(
            [sys.executable, "-m", "chcverify", str(DATA / "t4.pl")],
            capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == 1
        assert done.stderr == ""
        assert "result:      unsafe" in done.stdout

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

        boundary = tmp_path / "boundary.pl"
        boundary.write_text(BOUNDARY_COUNTER)
        assert main([str(boundary)]) == 2
        out = capsys.readouterr().out
        assert "refinements: 2" in out
        assert "reason:      round 2 repeats round 1" in out

    def test_an_internal_error_exits_4(self, tmp_path, capsys, monkeypatch):
        # not 1, which means unsafe
        def fail(program, config=None):
            raise RuntimeError("no certificate")

        monkeypatch.setattr(driver, "verify", fail)
        f = tmp_path / "safe.pl"
        f.write_text(SAFE_COUNTER)
        assert main([str(f)]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {f}: internal error: "
                                "RuntimeError: no certificate\n")

    def test_a_derivation_deeper_than_the_stack_exits_1(self, tmp_path, capsys):
        f = tmp_path / "chain.pl"
        f.write_text(chain_program(300, "1*X >= 0"))
        assert main([str(f)]) == 1
        assert "result:      unsafe" in capsys.readouterr().out

    def test_an_unusable_dump_dir_is_a_usage_error(self, tmp_path, capsys):
        # an existing file, and a path under one
        f = tmp_path / "t4.pl"
        f.write_text(T4)
        for dump_dir in (f, f / "dumps"):
            assert main([str(f), "--dump-dir", str(dump_dir)]) == 3
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: ")
            assert "internal error" not in captured.err

    def test_missing_file_is_a_usage_error(self, tmp_path, capsys):
        assert main([str(tmp_path / "nope.pl")]) == 3
        assert "error:" in capsys.readouterr().err

    def test_bad_options_are_usage_errors(self, tmp_path, capsys):
        # not 2, which means unknown
        f = tmp_path / "t4.pl"
        f.write_text(T4)
        assert main(["--bogus", str(f)]) == 3
        assert "unrecognized arguments: --bogus" in capsys.readouterr().err
        assert main([str(f), "--max-refinements", "-3"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--max-refinements must not be negative" in captured.err
        # without a dump directory it would write nothing and say nothing
        assert main([str(f), "--dump", "qa"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--dump needs --dump-dir" in captured.err
        assert main(["--help"]) == 0
        assert "usage: chcverify" in capsys.readouterr().out

    def test_parse_error_is_a_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.pl"
        bad.write_text("p(X :- .")
        assert main([str(bad)]) == 3
        assert "error:" in capsys.readouterr().err
        # not 1 from a RecursionError's traceback, which would read as unsafe
        bad.write_text("false :- " + "(" * 3000 + "1*X" + ")" * 3000 + " < 0.")
        assert main([str(bad)]) == 3
        assert capsys.readouterr().err == f"error: {bad}: term nested too deeply\n"

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



def test_verdict_dataclass_shape():
    v = Verdict("safe", 0)
    assert v.trace is None and v.reason is None and v.events == ()
