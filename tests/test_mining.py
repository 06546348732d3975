"""Minimal-size search loop, verification, and failure reporting."""

import itertools
import re
import tempfile
import tracemalloc
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sepdfa import automata, mining
from sepdfa.automata import (
    ThreeValuedDFA,
    build_apta,
    build_ddfa,
    build_min_3dfa_incremental,
    run,
)
from sepdfa.encoding import VarMap, build_formula
from sepdfa.generators import gen_random_dfa, gen_samples_from_dfa
from sepdfa.mining import (
    MODES,
    MiningError,
    MiningReport,
    NoSeparatorError,
    SizeAttempt,
    SizeRangeError,
    _incompatible_sets,
    incompatible_clique,
    mine_min_dfa,
    verify_separating,
)
from sepdfa.samples import NEGATIVE, POSITIVE, SampleSet, parse_abbadingo
from sepdfa.solver import SolverError, SolverTimeoutError, solve
from test_encoding import separates, shaped_dfas

words = st.lists(st.integers(0, 1), max_size=5).map(tuple)
small_sets = st.tuples(
    st.sets(words, min_size=1, max_size=6),
    st.sets(words, max_size=6),
).map(lambda pn: SampleSet(2, pn[0], pn[1] - pn[0]))


def dfa(k, n, table, accepting):
    """The DFA over k letters with n states, state 0 initial."""
    accepting = frozenset(accepting)
    return ThreeValuedDFA(k, n, (0,), table, accepting,
                          frozenset(range(n)) - accepting)


def brute_force_minimal_size(samples, limit=4):
    """Smallest n admitting a separating DFA, by direct enumeration.

    A transition table has a separating labelling exactly when no state
    ends both a positive and a negative word, so only tables are tried.
    """
    k = samples.alphabet_size
    for n in range(1, limit + 1):
        for targets in itertools.product(range(n), repeat=n * k):
            def end(word):
                q = 0
                for a in word:
                    q = targets[q * k + a]
                return q
            if not ({end(w) for w in samples.positives}
                    & {end(w) for w in samples.negatives}):
                return n
    return None


class TestVerify:
    def test_ok(self):
        d = dfa(2, 2, {(0, 0): 1, (0, 1): 0, (1, 0): 1, (1, 1): 0}, {1})
        out = verify_separating(d, SampleSet(2, {(0,)}, {(1,), ()}))
        assert not out
        assert out == []

    def test_violations_sorted(self):
        d = dfa(2, 1, {(0, 0): 0, (0, 1): 0}, ())
        out = verify_separating(d, SampleSet(2, {(1,), (0,)}, {()}))
        assert out
        assert out == [((0,), "+"), ((1,), "+")]

    def test_violations_of_both_labels(self):
        # accepts exactly the words ending in 1
        d = dfa(2, 2, {(0, 0): 0, (0, 1): 1, (1, 0): 0, (1, 1): 1}, {1})
        out = verify_separating(
            d, SampleSet(2, {(1,), (1, 0), ()}, {(0,), (0, 1)}))
        assert out == [((), POSITIVE), ((0, 1), NEGATIVE), ((1, 0), POSITIVE)]

    @given(small_sets, st.integers(1, 4), st.integers(0, 50))
    def test_matches_a_replay_by_run(self, samples, n, seed):
        d = gen_random_dfa(n, 2, seed)
        expected = sorted((w, label)
                          for words, label in ((samples.positives, POSITIVE),
                                               (samples.negatives, NEGATIVE))
                          for w in words if run(d, w) != label)
        assert verify_separating(d, samples) == expected

    def test_alphabet_mismatch(self):
        d = dfa(1, 1, {(0, 0): 0}, ())
        with pytest.raises(ValueError):
            verify_separating(d, SampleSet(2, {(0,)}, set()))

    def test_requires_a_dfa(self):
        samples = SampleSet(1, {(0,)}, set())
        partial = ThreeValuedDFA(1, 1, (0,), {}, frozenset({0}), frozenset())
        with pytest.raises(ValueError, match="complete"):
            verify_separating(partial, samples)
        dontcare = ThreeValuedDFA(
            1, 2, (0,), {(0, 0): 1, (1, 0): 1}, frozenset({0}), frozenset())
        with pytest.raises(ValueError, match="don't-care"):
            verify_separating(dontcare, samples)
        double = ThreeValuedDFA(1, 2, (0, 1), {(0, 0): 0, (1, 0): 1},
                                frozenset({0}), frozenset({1}))
        with pytest.raises(ValueError, match="single initial"):
            verify_separating(double, samples)


class TestUpperBound:
    @given(small_sets)
    @settings(max_examples=30)
    def test_completion_construction_witnesses_bound(self, samples):
        # completing the min3dfa acceptor with a rejecting sink separates
        # the samples, so the search never needs more than its states + 1
        acceptor = build_min_3dfa_incremental(samples)
        sink = acceptor.state_count
        table = {}
        for q in range(acceptor.state_count):
            for a in range(samples.alphabet_size):
                table[(q, a)] = acceptor.transitions.get((q, a), sink)
        for a in range(samples.alphabet_size):
            table[(sink, a)] = sink
        completed = dfa(samples.alphabet_size, sink + 1, table,
                        acceptor.accepting)
        assert not verify_separating(completed, samples)


class TestMining:
    def test_single_letter_split(self, solver_cmd):
        report = mine_min_dfa(SampleSet(2, {(0,)}, {(1,)}),
                              solver_command=solver_cmd)
        assert report.minimal_size == 2
        assert [(a.n, a.outcome) for a in report.attempts] == [
            (1, "unsat"), (2, "sat")]
        assert "verified yes" in report.to_text()
        assert not verify_separating(report.dfa, SampleSet(2, {(0,)}, {(1,)}))

    def test_empty_sample_set(self, solver_cmd):
        report = mine_min_dfa(SampleSet(2, set(), set()),
                              solver_command=solver_cmd)
        assert report.minimal_size == 1

    def test_empty_word_positive(self, solver_cmd):
        report = mine_min_dfa(SampleSet(1, {()}, {(0,)}),
                              solver_command=solver_cmd)
        assert report.minimal_size == 2
        assert run(report.dfa, ()) == POSITIVE
        assert run(report.dfa, (0,)) != POSITIVE

    def test_parity_needs_three_states(self, solver_cmd):
        # multiples of three over a one-letter alphabet
        samples = SampleSet(1, {(), (0, 0, 0)}, {(0,), (0, 0)})
        report = mine_min_dfa(samples, solver_command=solver_cmd)
        assert report.minimal_size == 3

    @pytest.mark.parametrize("mode", MODES)
    def test_modes_agree(self, solver_cmd, mode):
        samples = SampleSet(2, {(0, 1), ()}, {(1, 1), (0,)})
        report = mine_min_dfa(samples, mode=mode, solver_command=solver_cmd)
        assert report.mode == mode
        assert report.minimal_size == brute_force_minimal_size(samples)

    @given(small_sets)
    @settings(max_examples=15, deadline=None)
    def test_matches_brute_force(self, solver_cmd, samples):
        expected = brute_force_minimal_size(samples)
        if expected is None:
            return
        report = mine_min_dfa(samples, solver_command=solver_cmd)
        assert report.minimal_size == expected

    @given(small_sets, st.booleans(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_modes_try_the_same_sizes(self, solver_cmd, samples, safety,
                                      data):
        # both bounds come from the min3dfa acceptor, so the mode changes
        # neither the sizes tried, nor their outcomes, nor what is refused
        m = build_min_3dfa_incremental(samples).state_count
        n_start = data.draw(st.none() | st.integers(2 if safety else 1,
                                                    m + 3))
        results = []
        for mode in MODES:
            try:
                report = mine_min_dfa(samples, mode, safety=safety,
                                      n_start=n_start,
                                      solver_command=solver_cmd)
                result = [report.minimal_size]
            except (MiningError, SizeRangeError) as err:
                report = getattr(err, "report", None)  # none on a refusal
                result = [type(err), str(err)]
            if report is not None:
                result.append([(a.n, a.outcome) for a in report.attempts])
            results.append(result)
        assert results[0] == results[1] == results[2]

    @pytest.mark.parametrize("mode", MODES)
    def test_one_pass_over_the_words(self, solver_cmd, monkeypatch, mode):
        # the min3dfa build is the only word-by-word construction on all
        # the samples; a refining mine also builds on each proper subset,
        # and the mode's acceptor, derived from a min3dfa one, is the
        # mode's builder's of the samples or of the subset encoded
        builders = {"apta": build_apta, "min3dfa": build_min_3dfa_incremental,
                    "ddfa": build_ddfa}
        incremental, build = automata._incremental, mining.build_formula
        for samples in (SampleSet(2, {(0, 1), (1,), ()},
                                  {(1, 1), (0,), (0, 0, 1)}),
                        random_row(6, 103)):
            subsets = samples.size > 6
            monkeypatch.setattr(mining, "_FIRST_WORDS", 10)
            reads, acceptors = [], []

            def counted(part):
                reads.append(part)
                return incremental(part)

            def seen(n, acceptor, **kwargs):
                acceptors.append(acceptor)
                return build(n, acceptor, **kwargs)

            monkeypatch.setattr(automata, "_incremental", counted)
            monkeypatch.setattr(mining, "build_formula", seen)
            report = mine_min_dfa(samples, mode, solver_command=solver_cmd)
            monkeypatch.setattr(automata, "_incremental", incremental)
            assert reads[0] is samples and samples not in reads[1:]
            assert report.acceptor_size == builders[mode](
                samples).state_count
            handed = [a for i, a in enumerate(acceptors)
                      if not any(a is b for b in acceptors[:i])]
            parts = reads[1:] if subsets else [samples]
            assert len(handed) == len(parts) == 1 + sum(
                att.outcome == "spurious" for att in report.attempts)
            assert (len(parts) > 1) == subsets
            for acceptor, part in zip(handed, parts):
                assert part.positives <= samples.positives
                assert part.negatives <= samples.negatives
                expected = builders[mode](part)
                assert list(acceptor.transitions.items()) == list(
                    expected.transitions.items())
                assert acceptor == expected

    def test_unused_letters_are_not_encoded(self, solver_cmd):
        # letters 0 and 5 of 10^5: the formulas are those of two letters,
        # and the other letters lead to state 0 in the DFA returned
        wide = parse_abbadingo("2 100000\n1 1 0\n0 1 5\n")
        narrow = SampleSet(2, {(0,)}, {(1,)})
        for mode in MODES:
            report = mine_min_dfa(wide, mode, solver_command=solver_cmd)
            expected = mine_min_dfa(narrow, mode, solver_command=solver_cmd)
            assert [(a.n, a.outcome, a.variables, a.clauses)
                    for a in report.attempts] == [
                (a.n, a.outcome, a.variables, a.clauses)
                for a in expected.attempts]
            got = report.dfa
            assert got.alphabet_size == 100_000
            assert not verify_separating(got, wide)
            assert {got.transitions[q, a] for q in range(got.state_count)
                    for a in range(100_000) if a not in (0, 5)} == {0}

    def test_safety_encodes_every_colour(self, solver_cmd):
        # colour 2 labels no sample, but the safety shape pins it
        samples = SampleSet(3, {(0,)}, {(1, 1)})
        report = mine_min_dfa(samples, safety=True,
                              solver_command=solver_cmd)
        acceptor = build_min_3dfa_incremental(samples)
        assert [a.variables for a in report.attempts] == [
            VarMap(a.n, 3, acceptor.state_count, True).variable_count
            for a in report.attempts]
        assert not verify_separating(report.dfa, samples)

    def test_unknown_mode(self, solver_cmd):
        with pytest.raises(ValueError):
            mine_min_dfa(SampleSet(1, {()}, set()), mode="nope",
                         solver_command=solver_cmd)

    def test_bad_n_start(self, solver_cmd):
        with pytest.raises(ValueError):
            mine_min_dfa(SampleSet(1, {()}, set()), n_start=0,
                         solver_command=solver_cmd)
        with pytest.raises(ValueError):
            mine_min_dfa(SampleSet(1, {()}, set()), safety=True, n_start=1,
                         solver_command=solver_cmd)

    def test_empty_size_range(self):
        # rejected before any solver call, so no solver is needed
        for n_max, safety in ((0, False), (1, True)):
            with pytest.raises(SizeRangeError, match="n_max"):
                mine_min_dfa(SampleSet(1, {()}, set()), n_max=n_max,
                             safety=safety, solver_command=["no-solver"])

    def test_safety_needs_two_letters(self, fake_solver, tmp_path,
                                      monkeypatch):
        # the parity shape needs two colours; refused before any build
        def no_build(samples):
            raise AssertionError("acceptor built")

        for name in ("build_apta", "build_min_3dfa_incremental",
                     "build_ddfa"):
            monkeypatch.setattr(automata, name, no_build)
        ran = tmp_path / "ran"
        script = fake_solver(f'touch "{ran}"\nexit 1\n')
        samples = SampleSet(1, {(0,)}, {(0, 0)})
        for mode in MODES:
            with pytest.raises(SizeRangeError,
                               match="at least 2 letters.* have 1$"):
                mine_min_dfa(samples, mode, safety=True,
                             solver_command=[script])
        assert not ran.exists()

    def test_n_start_above_bound(self, fake_solver, tmp_path):
        # rejected once the acceptor gives the bound, before any solver call
        ran = tmp_path / "ran"
        script = fake_solver(f'touch "{ran}"\nexit 1\n')
        samples = SampleSet(2, {(0,)}, {(1,)})
        for safety in (False, True):
            with pytest.raises(SizeRangeError, match="size bound 4"):
                mine_min_dfa(samples, safety=safety, n_start=10,
                             solver_command=[script])
        assert not ran.exists()
        # n_start at the bound still searches that one size
        unsat = fake_solver('echo "s UNSATISFIABLE"\nexit 20\n', "unsat")
        with pytest.raises(MiningError, match="at fault") as exc:
            mine_min_dfa(samples, n_start=4, solver_command=[unsat])
        assert [a.n for a in exc.value.report.attempts] == [4]

    def test_n_start_refused_before_mode_build(self, monkeypatch):
        # the bound comes from the min3dfa acceptor, built first
        def no_build(samples):
            raise AssertionError("mode acceptor built")

        for name in ("build_apta", "build_ddfa"):
            monkeypatch.setattr(automata, name, no_build)
        for mode in ("apta", "ddfa"):
            with pytest.raises(SizeRangeError, match="size bound 4"):
                mine_min_dfa(SampleSet(2, {(0,)}, {(1,)}), mode, n_start=5,
                             solver_command=["no-solver"])

    def test_n_max_exhaustion(self, solver_cmd):
        # an explicit n_start searches below the lower bound of 3 as asked
        samples = SampleSet(1, {(), (0, 0, 0)}, {(0,), (0, 0)})
        with pytest.raises(MiningError) as exc:
            mine_min_dfa(samples, solver_command=solver_cmd, n_start=1,
                         n_max=2)
        assert str(exc.value) == "no separating DFA found at sizes 1..2"
        report = exc.value.report
        assert [a.outcome for a in report.attempts] == ["unsat", "unsat"]
        assert report.dfa is None

    @pytest.mark.parametrize("safety", [False, True])
    def test_n_max_below_lower_bound(self, fake_solver, tmp_path, safety):
        # refused once the clique is known, before any solver call
        ran = tmp_path / "ran"
        script = fake_solver(f'touch "{ran}"\nexit 1\n')
        # two letters, as safety mode needs, though only letter 0 is used
        samples = SampleSet(2, {(), (0, 0, 0)}, {(0,), (0, 0)})
        with pytest.raises(NoSeparatorError) as exc:
            mine_min_dfa(samples, safety=safety, n_max=2,
                         solver_command=[script])
        assert str(exc.value) == (
            "no separating DFA up to the requested size 2: the search needs "
            "at least 3 states, as 3 acceptor states are pairwise "
            "incompatible")
        assert exc.value.report.lower_bound == 3
        assert exc.value.report.attempts == []
        assert not ran.exists()

    def test_starts_below_lower_bound(self, solver_cmd):
        # the size below the minimum is still tried, the ones under it not
        samples = SampleSet(1, {(), (0, 0, 0)}, {(0,), (0, 0)})
        for mode in MODES:
            report = mine_min_dfa(samples, mode=mode,
                                  solver_command=solver_cmd)
            assert report.lower_bound == 3
            assert [(a.n, a.outcome) for a in report.attempts] == [
                (2, "unsat"), (3, "sat")]

    def test_solver_failure_carries_partial_report(self, fake_solver):
        bad = fake_solver('exit 3\n')
        with pytest.raises(SolverError) as exc:
            mine_min_dfa(SampleSet(2, {(0,)}, {(1,)}), solver_command=[bad])
        assert exc.value.report.attempts == []

    def test_timeout_propagates(self, fake_solver):
        slow = fake_solver("sleep 60\n")
        with pytest.raises(SolverTimeoutError):
            mine_min_dfa(SampleSet(2, {(0,)}, {(1,)}), solver_command=[slow],
                         timeout=0.3)

    @pytest.mark.parametrize("timeout", [0, -1, float("nan"),
                                         float("inf")])
    def test_bad_timeout_refused_before_any_build(self, fake_solver,
                                                  tmp_path, monkeypatch,
                                                  timeout):
        def no_build(samples):
            raise AssertionError("acceptor built")

        for name in ("build_apta", "build_min_3dfa_incremental",
                     "build_ddfa"):
            monkeypatch.setattr(automata, name, no_build)
        ran = tmp_path / "ran"
        script = fake_solver(f'touch "{ran}"\nexit 1\n')
        with pytest.raises(ValueError,
                           match="finite positive number of seconds"):
            mine_min_dfa(SampleSet(2, {(0,)}, {(1,)}),
                         solver_command=[script], timeout=timeout)
        assert not ran.exists()

    def test_always_unsat_solver_exhausts_bound(self, fake_solver):
        # the completion bound proves a solution exists, so a solver
        # that keeps answering unsat is exposed as faulty
        script = fake_solver('echo "s UNSATISFIABLE"\nexit 20\n')
        with pytest.raises(MiningError, match="at fault"):
            mine_min_dfa(SampleSet(2, {(0,)}, {(1,)}),
                         solver_command=[script])

    @pytest.mark.parametrize("solver", [
        "sat", "refine", "echo 's UNSATISFIABLE'\nexit 20\n", "exit 1\n"])
    def test_mine_closes_its_formula(self, solver_cmd, fake_solver,
                                     monkeypatch, solver):
        # every formula's text file is closed when the mine ends, found,
        # exhausted or failed, and a refining mine's discarded ones too;
        # the formulas are kept alive here, so that their collection
        # cannot close the files instead
        formulas, build = [], mining.build_formula

        def keep(*args, **kwargs):
            grown = build(*args, **kwargs)
            formulas.append(grown[1])
            return grown

        files, make = [], tempfile.TemporaryFile

        def temporary_file(*args, **kwargs):
            files.append(make(*args, **kwargs))
            return files[-1]

        monkeypatch.setattr(mining, "build_formula", keep)
        monkeypatch.setattr(tempfile, "TemporaryFile", temporary_file)
        command = ([fake_solver(solver)] if solver.startswith(("echo", "exit"))
                   else solver_cmd)
        samples, n_max = SampleSet(2, {(0,)}, {(1,)}), 2
        if solver == "refine":
            samples, n_max = random_row(6, 103), 6
            monkeypatch.setattr(mining, "_FIRST_WORDS", 10)
        try:
            report = mine_min_dfa(samples, solver_command=command, n_start=1,
                                  n_max=n_max)
        except (NoSeparatorError, SolverError) as err:
            report = err.report
        assert (report.dfa is not None) == (solver in ("sat", "refine"))
        refined = sum(att.outcome == "spurious" for att in report.attempts)
        assert (refined > 0) == (solver == "refine")
        # one formula per subset, grown through its sizes
        assert len({id(f) for f in formulas}) == 1 + refined and files
        assert all(file.closed for file in files)


def acceptor_of(mode, samples):
    return {"apta": build_apta, "min3dfa": build_min_3dfa_incremental,
            "ddfa": build_ddfa}[mode](samples)


class TestSubsets:
    """The search on a subset of the samples that grows from the replay's
    counterexamples."""

    @given(st.tuples(st.sets(words, min_size=1, max_size=10),
                     st.sets(words, max_size=10)).map(
               lambda pn: SampleSet(2, pn[0], pn[1] - pn[0])),
           st.sampled_from(MODES), st.booleans(), st.integers(1, 4))
    @settings(max_examples=60, deadline=None)
    def test_unsat_holds_for_all_samples(self, solver_cmd, samples, mode,
                                         safety, first):
        # every size refuted on a subset is refuted on all the samples, the
        # subset doubles at most after each failed replay and holds every
        # sample at most, and the acceptor size is that of all samples
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(mining, "_FIRST_WORDS", first)
            patch.setattr(mining, "_SHARED", samples.size + 1)
            try:
                report = mine_min_dfa(samples, mode, safety=safety,
                                      solver_command=solver_cmd)
            except NoSeparatorError as err:
                report = err.report
        assert report.acceptor_size == acceptor_of(mode, samples).state_count
        attempts = report.attempts
        assert attempts[0].words == min(first, samples.size)
        for att, after in zip(attempts, attempts[1:]):
            if att.outcome == "unsat":
                assert (after.n, after.words) == (att.n + 1, att.words)
            else:
                assert att.outcome == "spurious"
                assert after.n == att.n
                assert att.words < after.words <= min(2 * att.words,
                                                      samples.size)
        assert report.dfa is None or attempts[-1].outcome == "sat"
        if report.dfa is not None:
            assert not verify_separating(report.dfa, samples)
        acceptor = acceptor_of(mode, samples)
        for att in attempts:
            if att.outcome == "unsat":
                _, formula = build_formula(att.n, acceptor, safety=safety)
                try:
                    assert solve(formula, solver_cmd).outcome == "unsat"
                finally:
                    formula.close()

    def test_first_subset_is_the_shortest_words(self, parity_corpus):
        # in (length, ascending) order, 50 words or a share of a large set,
        # or every word when the acceptor is small against the samples
        for samples in (random_row(8, 105), parity_corpus(4, 7)):
            states = -(-samples.size // mining._SHARED)
            part = mining._first_subset(samples, states)
            count = max(mining._FIRST_WORDS,
                        samples.size // mining._FIRST_SHARE)
            chosen = sorted(samples.entries(),
                            key=lambda e: (len(e[0]), e[0]))[:count]
            assert part.size == count < samples.size
            assert part.positives == {w for w, label in chosen
                                      if label == POSITIVE}
            assert part.negatives == {w for w, label in chosen
                                      if label == NEGATIVE}
            assert mining._first_subset(samples, states - 1) is samples
        assert parity_corpus(4, 7).size // mining._FIRST_SHARE > 50

    def test_mislabelled_subset_word_is_internal_error(self, solver_cmd,
                                                       monkeypatch):
        # a decoded DFA that rejects everything mislabels the positive word
        # (0,), the first of the subset: the formula excludes that, so the
        # encoding or the solver is at fault
        def reject_all(model, vm):
            return ThreeValuedDFA(
                vm.alphabet_size, 1, (0,),
                {(0, a): 0 for a in range(vm.alphabet_size)},
                frozenset(), frozenset({0}))

        samples = SampleSet(2, {(0,), (0, 0, 1)}, {(1,), (1, 1), (0, 1, 1)})
        monkeypatch.setattr(mining, "_FIRST_WORDS", 1)
        monkeypatch.setattr(mining, "_SHARED", samples.size + 1)
        monkeypatch.setattr(mining, "decode_model", reject_all)
        with pytest.raises(MiningError, match="^internal error: mined DFA "
                           "violates 1 samples$") as exc:
            mine_min_dfa(samples, solver_command=solver_cmd, n_start=2)
        assert [(a.n, a.outcome, a.words)
                for a in exc.value.report.attempts] == [(2, "sat", 1)]

    def test_mislabelled_outside_words_refine(self, solver_cmd, monkeypatch):
        # a DFA that accepts everything separates the one positive word of
        # the first subset, so its negatives join, shortest first, until the
        # subset mislabels one of its own
        def accept_all(model, vm):
            return ThreeValuedDFA(
                vm.alphabet_size, 1, (0,),
                {(0, a): 0 for a in range(vm.alphabet_size)},
                frozenset({0}), frozenset())

        samples = SampleSet(2, {()}, {(1,), (0, 0), (1, 1), (0, 1, 1)})
        monkeypatch.setattr(mining, "_FIRST_WORDS", 1)
        monkeypatch.setattr(mining, "_SHARED", samples.size + 1)
        monkeypatch.setattr(mining, "decode_model", accept_all)
        with pytest.raises(MiningError, match="violates 1 samples$") as exc:
            mine_min_dfa(samples, solver_command=solver_cmd, n_start=2)
        assert [(a.n, a.outcome, a.words)
                for a in exc.value.report.attempts] == [
            (2, "spurious", 1), (2, "sat", 2)]

    def test_apta_never_builds_the_whole_tree(self, solver_cmd, parity_corpus,
                                              monkeypatch):
        # parity (4,8) has a prefix tree of 30,988 states; the subsets'
        # trees settle the safety minimum far below that
        samples = parity_corpus(4, 8)
        built, unfold = [], mining._DERIVATIONS["apta"]

        def counted(*args):
            tree = unfold(*args)
            built.append(tree.state_count)
            return tree

        def no_apta(samples):
            raise AssertionError("prefix tree built from the words")

        monkeypatch.setitem(mining._DERIVATIONS, "apta", counted)
        monkeypatch.setattr(automata, "build_apta", no_apta)
        report = mine_min_dfa(samples, "apta", safety=True, n_max=5,
                              solver_command=solver_cmd)
        assert report.minimal_size == 5 and report.claim == "minimal size 5"
        assert report.acceptor_size == 30988
        assert built and max(built) < 30988 // 4


class TestSafetyMining:
    def test_starts_at_two(self, solver_cmd):
        samples = SampleSet(2, {(0, 0)}, {(1,)})
        report = mine_min_dfa(samples, safety=True,
                              solver_command=solver_cmd)
        assert report.attempts[0].n == 2
        assert report.attempts[0].outcome == "unsat"
        assert report.minimal_size == 3

    def test_safety_shape_of_result(self, solver_cmd, parity_corpus):
        samples = parity_corpus(2, 3)
        report = mine_min_dfa(samples, safety=True,
                              solver_command=solver_cmd)
        assert report.minimal_size == 3
        dfa = report.dfa
        sink = dfa.state_count - 1
        assert dfa.transitions[(0, 1)] == 0       # winning colour loops
        for a in range(2):
            assert dfa.transitions[(sink, a)] == sink
        # highest colour odd: rejecting everywhere but the sink accepts
        assert dfa.accepting == frozenset({sink})

    def test_no_safety_separator_reported(self, solver_cmd):
        # accepted and rejected word swap roles under the safety shape
        samples = SampleSet(2, {(0,)}, {(1,)})
        with pytest.raises(MiningError, match="safety"):
            mine_min_dfa(samples, safety=True, solver_command=solver_cmd)

    @pytest.mark.parametrize("n_max", [None, 4])
    def test_n_start_claims_nothing_below_it(self, solver_cmd, n_max):
        # 3 states separate, but with symmetry breaking n = 4 is unsat: the
        # sizes below n_start were not searched, so the error names only
        # the sizes that were
        samples = SampleSet(2, {(0, 0)}, set())
        assert mine_min_dfa(samples, safety=True,
                            solver_command=solver_cmd).minimal_size == 3
        with pytest.raises(NoSeparatorError) as exc:
            mine_min_dfa(samples, safety=True, solver_command=solver_cmd,
                         n_start=4, n_max=n_max)
        assert str(exc.value) == (
            "no safety-shaped separating DFA found at sizes 4..4")
        assert [(a.n, a.outcome) for a in exc.value.report.attempts] == [
            (4, "unsat")]


def shaped_minimal_size(samples, limit=4):
    """Smallest n admitting a safety-shaped separating DFA, by enumerating
    the shape (n <= limit), reachable states or not."""
    for n in range(2, limit + 1):
        if any(separates(transitions, accepting, samples)
               for transitions, accepting in shaped_dfas(
                   n, samples.alphabet_size)):
            return n
    return None


class TestClaims:
    @given(small_sets, st.none() | st.integers(1, 3),
           st.none() | st.integers(1, 4), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_claims_are_true(self, solver_cmd, samples, n_start, n_max,
                             safety):
        # a claimed minimum is the enumerated one, of the safety shape in
        # safety mode, and "up to B" means that no DFA of the kind named
        # has B states or fewer; sizes beyond the enumeration's 4 states
        # are checked only as far as it goes
        try:
            report = mine_min_dfa(samples, safety=safety, n_start=n_start,
                                  n_max=n_max, solver_command=solver_cmd)
        except SizeRangeError:
            return
        except NoSeparatorError as err:
            refuted = re.search(r" up to (?:the requested )?size (\d+)",
                                str(err))
            oracle = (shaped_minimal_size if "safety-shaped" in str(err)
                      else brute_force_minimal_size)
            if refuted:
                assert oracle(samples, min(int(refuted[1]), 4)) is None
            return
        n = report.minimal_size
        oracle = shaped_minimal_size if safety else brute_force_minimal_size
        if report.claim == f"minimal size {n}":
            assert oracle(samples, min(n, 4)) == (n if n <= 4 else None)
        else:  # after an explicit n_start, nothing below it is claimed
            assert n_start is not None


class TestReportText:
    def test_to_text(self, solver_cmd):
        samples = SampleSet(2, {(0,)}, {(1,)})
        report = mine_min_dfa(samples, solver_command=solver_cmd)
        text = report.to_text()
        assert "mode min3dfa" in text
        assert "acceptor size 3\nlower bound 2\nn=1 unsat" in text
        assert "minimal size 2" in text
        assert "verified yes" in text

    def test_n_start_above_the_minimum_claims_none(self, solver_cmd):
        # n=2 is never tried, so nothing shows that 3 states are needed
        report = mine_min_dfa(SampleSet(2, {(0,)}, {(1,)}), n_start=3,
                              solver_command=solver_cmd)
        text = report.to_text()
        assert "minimal size" not in text
        assert text.endswith("separating size 3\n"
                             "minimality not shown: n=2 not tried\n"
                             "verified yes\n")
        assert report.minimal_size == 3

    @pytest.mark.parametrize("n, safety, lower, tried, shown", [
        (3, False, 3, [], True),  # the lower bound needs 3 states
        (3, False, 2, [(2, "unsat")], True),  # n=2 refuted
        (3, False, 2, [], False),
        (3, True, 1, [], False),
    ])
    def test_minimal_only_when_shown(self, n, safety, lower, tried, shown):
        # the search decides the claim; to_text prints it as set
        sink = dfa(2, n, {(q, a): n - 1 for q in range(n) for a in range(2)},
                   {0})
        attempts = [SizeAttempt(m, outcome, 1, 1, 1, 0.0, 0.0)
                    for m, outcome in tried + [(n, "sat")]]
        report = MiningReport("min3dfa", safety, True, n, lower, attempts,
                              sink)
        report.claim = mining._claim(report)
        assert report.claim == (
            f"minimal size {n}" if shown else f"separating size {n}\n"
            f"minimality not shown: n={n - 1} not tried")
        assert report.to_text().endswith(f"\n{report.claim}\nverified yes\n")

    def test_attempt_line_shows_encode_time(self, solver_cmd):
        report = MiningReport("apta", False, True, 3, 2, [
            SizeAttempt(1, "unsat", 40, 5, 7, encode_seconds=0.0123,
                        solve_seconds=0.5)])
        # perfbench/checks.py reads "n=<n> <sat|unsat> " off each line
        assert report.to_text().splitlines()[-1] == (
            "n=1 unsat words=40 vars=5 clauses=7 encode=0.012s time=0.500s")
        mined = mine_min_dfa(SampleSet(2, {(0,)}, {(1,)}),
                             solver_command=solver_cmd)
        assert len(mined.attempts) == 2
        assert all(att.encode_seconds > 0 for att in mined.attempts)


def incompatible_pairs_by_fixpoint(acceptor):
    """Unordered incompatible state pairs, by iterating over all pairs."""
    pairs = {frozenset((p, q)) for p in acceptor.accepting
             for q in acceptor.rejecting}
    changed = True
    while changed:
        changed = False
        for p, q in itertools.combinations(range(acceptor.state_count), 2):
            if frozenset((p, q)) in pairs:
                continue
            for a in range(acceptor.alphabet_size):
                pa = acceptor.transitions.get((p, a))
                qa = acceptor.transitions.get((q, a))
                if pa is not None and qa is not None and \
                        frozenset((pa, qa)) in pairs:
                    pairs.add(frozenset((p, q)))
                    changed = True
                    break
    return pairs


def access_words(acceptor):
    """A shortest word reaching each state, first by letters ascending."""
    words = {acceptor.initials[0]: ()}
    queue = deque(words)
    while queue:
        q = queue.popleft()
        for a in range(acceptor.alphabet_size):
            r = acceptor.transitions.get((q, a))
            if r is not None and r not in words:
                words[r] = words[q] + (a,)
                queue.append(r)
    return words


def distinguished(samples, u, v):
    """Whether some suffix s makes u.s and v.s samples of opposite labels."""
    for words, others in ((samples.positives, samples.negatives),
                          (samples.negatives, samples.positives)):
        for w in words:
            if w[:len(u)] == u and v + w[len(u):] in others:
                return True
    return False


def greedy_clique(acceptor):
    """incompatible_clique without its colouring bound, as it was before
    the bound: every seed whose degree could give a larger clique is
    grown."""
    incompatible = _incompatible_sets(acceptor)
    degrees = [bits.bit_count() for bits in incompatible]
    best = [0]
    for v in sorted(range(len(incompatible)), key=lambda q: -degrees[q]):
        if degrees[v] < len(best):
            break
        clique = [v]
        candidates = incompatible[v]
        while candidates and len(clique) + candidates.bit_count() > len(best):
            pick, most = -1, -1
            rest = candidates
            while rest:
                low = rest & -rest
                c = low.bit_length() - 1
                rest ^= low
                degree = (incompatible[c] & candidates).bit_count()
                if degree > most:
                    pick, most = c, degree
            clique.append(pick)
            candidates &= incompatible[pick]
        if len(clique) > len(best):
            best = clique
    return tuple(sorted(best))


def random_row(n_states, seed):
    """The acceptance suite's corpus of a hidden random DFA."""
    return gen_samples_from_dfa(gen_random_dfa(n_states, 2, seed),
                                50 * n_states, 2 * n_states + 3, seed=seed)


class TestIncompatibleClique:
    @given(small_sets)
    @settings(max_examples=100)
    def test_colouring_keeps_the_greedy_clique(self, samples):
        for build in (build_apta, build_min_3dfa_incremental, build_ddfa):
            acceptor = build(samples)
            assert incompatible_clique(acceptor) == greedy_clique(acceptor)

    @pytest.mark.parametrize("row", [
        ("random", 4, 101), ("random", 5, 102), ("random", 6, 103),
        ("random", 7, 104), ("random", 8, 105), ("random", 10, 1001),
        ("random", 12, 1201), ("random", 14, 1401), ("random", 16, 1601),
        ("random", 20, 2001), ("parity", 3, 5), ("parity", 4, 7),
        ("parity", 4, 8)], ids=str)
    def test_colouring_keeps_the_greedy_clique_on_rows(self, parity_corpus,
                                                       row):
        kind, a, b = row
        samples = parity_corpus(a, b) if kind == "parity" else random_row(a, b)
        acceptor = build_min_3dfa_incremental(samples)
        assert incompatible_clique(acceptor) == greedy_clique(acceptor)

    @given(small_sets)
    @settings(max_examples=60)
    def test_pairs_match_all_pairs_fixpoint(self, samples):
        for build in (build_apta, build_min_3dfa_incremental, build_ddfa):
            acceptor = build(samples)
            sets = _incompatible_sets(acceptor)
            got = {frozenset((p, q)) for p, bits in enumerate(sets)
                   for q in range(acceptor.state_count) if bits >> q & 1}
            assert got == incompatible_pairs_by_fixpoint(acceptor)

    @given(small_sets)
    @settings(max_examples=60)
    def test_clique_pairs_have_sample_witnesses(self, samples):
        acceptor = build_min_3dfa_incremental(samples)
        clique = incompatible_clique(acceptor)
        assert list(clique) == sorted(set(clique))
        words = access_words(acceptor)
        for p, q in itertools.combinations(clique, 2):
            assert distinguished(samples, words[p], words[q])

    @given(small_sets)
    @settings(max_examples=15, deadline=None)
    def test_minimum_is_at_least_the_clique(self, solver_cmd, samples):
        clique = incompatible_clique(build_min_3dfa_incremental(samples))
        report = mine_min_dfa(samples, solver_command=solver_cmd, n_start=1)
        assert report.minimal_size >= len(clique)
        assert report.lower_bound == len(clique)

    @given(small_sets)
    @settings(max_examples=60)
    def test_double_dfa_clique_is_at_most_two(self, samples):
        # each part has one polarity, so incompatible pairs cross the parts:
        # a bound from build_ddfa would be useless
        assert len(incompatible_clique(build_ddfa(samples))) <= 2

    def test_unused_letters_cost_nothing(self):
        # the predecessor index holds the transitions that exist, not one
        # entry per letter and state
        samples = parse_abbadingo("2 1000000\n1 1 0\n0 1 5\n")
        acceptor = build_min_3dfa_incremental(samples)
        tracemalloc.start()
        try:
            clique = incompatible_clique(acceptor)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(clique) == 2
        assert peak < 10_000_000

    def test_no_labels_give_one_state(self):
        acceptor = build_apta(SampleSet(2, set(), set()))
        assert incompatible_clique(acceptor) == (0,)

    @pytest.mark.parametrize("n_states,seed,at_least", [
        (4, 101, 4), (5, 102, 4), (6, 103, 6), (7, 104, 7), (8, 105, 8)])
    def test_random_benchmarks_reach_their_minima(self, n_states, seed,
                                                  at_least):
        hidden = gen_random_dfa(n_states, 2, seed)
        samples = gen_samples_from_dfa(
            hidden, 50 * n_states, 2 * n_states + 3, seed=seed)
        acceptor = build_min_3dfa_incremental(samples)
        assert len(incompatible_clique(acceptor)) >= at_least
