"""Minimal-size search loop, verification, and failure reporting."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sepdfa.automata import (
    LearnedDFA,
    build_apta,
    build_ddfa,
    build_min_3dfa_incremental,
)
from sepdfa.mining import (
    MODES,
    MiningError,
    SizeRangeError,
    mine_min_dfa,
    upper_bound,
    verify_separating,
)
from sepdfa.samples import SampleSet
from sepdfa.solver import SolverError, SolverTimeoutError

words = st.lists(st.integers(0, 1), max_size=5).map(tuple)
small_sets = st.tuples(
    st.sets(words, min_size=1, max_size=6),
    st.sets(words, max_size=6),
).map(lambda pn: SampleSet(2, pn[0], pn[1] - pn[0]))


def brute_force_minimal_size(samples, limit=4):
    """Smallest n admitting a separating DFA, by direct enumeration."""
    k = samples.alphabet_size
    for n in range(1, limit + 1):
        keys = [(i, a) for i in range(n) for a in range(k)]
        for targets in itertools.product(range(n), repeat=len(keys)):
            table = dict(zip(keys, targets))
            for bits in itertools.product((False, True), repeat=n):
                dfa = LearnedDFA(k, n, table,
                                 frozenset(i for i in range(n) if bits[i]))
                if verify_separating(dfa, samples).ok:
                    return n
    return None


class TestVerify:
    def test_ok(self):
        dfa = LearnedDFA(2, 2, {(0, 0): 1, (0, 1): 0, (1, 0): 1, (1, 1): 0},
                         frozenset({1}))
        out = verify_separating(dfa, SampleSet(2, {(0,)}, {(1,), ()}))
        assert out.ok
        assert out.violations == ()

    def test_violations_sorted(self):
        dfa = LearnedDFA(2, 1, {(0, 0): 0, (0, 1): 0}, frozenset())
        out = verify_separating(dfa, SampleSet(2, {(1,), (0,)}, {()}))
        assert not out.ok
        assert out.violations == (((0,), "+"), ((1,), "+"))

    def test_alphabet_mismatch(self):
        dfa = LearnedDFA(1, 1, {(0, 0): 0}, frozenset())
        with pytest.raises(ValueError):
            verify_separating(dfa, SampleSet(2, {(0,)}, set()))


class TestUpperBound:
    @given(small_sets)
    @settings(max_examples=30)
    def test_completion_construction_witnesses_bound(self, samples):
        # completing the prefix tree with a rejecting sink must separate
        apta = build_apta(samples)
        bound = upper_bound(apta)
        assert bound == apta.state_count + 1
        sink = apta.state_count
        table = {}
        for q in range(apta.state_count):
            for a in range(samples.alphabet_size):
                table[(q, a)] = apta.transitions.get((q, a), sink)
        for a in range(samples.alphabet_size):
            table[(sink, a)] = sink
        completed = LearnedDFA(samples.alphabet_size, bound, table,
                               apta.accepting)
        assert verify_separating(completed, samples).ok

    @given(small_sets)
    @settings(max_examples=30)
    def test_ddfa_bound_uses_positive_part(self, samples):
        positives = SampleSet(samples.alphabet_size, samples.positives, set())
        pos = build_min_3dfa_incremental(positives)
        assert upper_bound(build_ddfa(samples)) == pos.state_count + 1


class TestMining:
    def test_single_letter_split(self, solver_cmd):
        report = mine_min_dfa(SampleSet(2, {(0,)}, {(1,)}),
                              solver_command=solver_cmd)
        assert report.minimal_size == 2
        assert [(a.n, a.outcome) for a in report.attempts] == [
            (1, "unsat"), (2, "sat")]
        assert report.verified
        assert verify_separating(report.dfa, SampleSet(2, {(0,)}, {(1,)})).ok

    def test_empty_sample_set(self, solver_cmd):
        report = mine_min_dfa(SampleSet(2, set(), set()),
                              solver_command=solver_cmd)
        assert report.minimal_size == 1

    def test_empty_word_positive(self, solver_cmd):
        report = mine_min_dfa(SampleSet(1, {()}, {(0,)}),
                              solver_command=solver_cmd)
        assert report.minimal_size == 2
        assert report.dfa.accepts(())
        assert not report.dfa.accepts((0,))

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

    def test_n_max_exhaustion(self, solver_cmd):
        samples = SampleSet(1, {(), (0, 0, 0)}, {(0,), (0, 0)})
        with pytest.raises(MiningError) as exc:
            mine_min_dfa(samples, solver_command=solver_cmd, n_max=2)
        assert str(exc.value) == (
            "no separating DFA up to the requested size 2")
        report = exc.value.report
        assert [a.outcome for a in report.attempts] == ["unsat", "unsat"]
        assert report.dfa is None

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

    def test_always_unsat_solver_exhausts_bound(self, fake_solver):
        # the completion bound proves a solution exists, so a solver
        # that keeps answering unsat is exposed as faulty
        script = fake_solver('echo "s UNSATISFIABLE"\nexit 20\n')
        with pytest.raises(MiningError, match="at fault"):
            mine_min_dfa(SampleSet(2, {(0,)}, {(1,)}),
                         solver_command=[script])


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


class TestReportText:
    def test_to_text(self, solver_cmd):
        samples = SampleSet(2, {(0,)}, {(1,)})
        report = mine_min_dfa(samples, solver_command=solver_cmd)
        text = report.to_text()
        assert "mode min3dfa" in text
        assert "minimal size 2" in text
        assert "verified yes" in text
