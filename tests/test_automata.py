"""Acceptor constructions: prefix tree, minimisation, incremental, double DFA."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sepdfa.automata import (
    AutomatonFormatError,
    _IncrementalBuilder,
    LearnedDFA,
    ThreeValuedDFA,
    as_learned_dfa,
    build_apta,
    build_ddfa,
    build_min_3dfa_incremental,
    canonical_form,
    dump_automaton,
    isomorphic,
    minimize_acyclic,
    parse_automaton,
    run,
)
from sepdfa.samples import DONT_CARE, NEGATIVE, POSITIVE, SampleSet

words = st.lists(st.integers(0, 2), max_size=7).map(tuple)
sample_sets = st.tuples(
    st.sets(words, max_size=12), st.sets(words, max_size=12)).map(
        lambda pn: SampleSet(3, pn[0], pn[1] - pn[0]))


def all_words(alphabet_size, max_len):
    stack = [()]
    while stack:
        w = stack.pop()
        yield w
        if len(w) < max_len:
            stack.extend(w + (a,) for a in range(alphabet_size))


class TestThreeValuedDFA:
    def test_validation(self):
        a = ThreeValuedDFA(2, 2, (0,), {(0, 0): 1}, frozenset({1}), frozenset())
        assert a.status(0) == DONT_CARE
        assert a.status(1) == POSITIVE

    @pytest.mark.parametrize("initials", [(), (2,), (-1,), (0, 0)])
    def test_bad_initials_rejected(self, initials):
        with pytest.raises(ValueError):
            ThreeValuedDFA(1, 2, initials, {}, frozenset(), frozenset())

    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            ThreeValuedDFA(1, 1, (0,), {}, frozenset({0}), frozenset({0}))

    def test_bad_transition_rejected(self):
        with pytest.raises(ValueError):
            ThreeValuedDFA(1, 1, (0,), {(0, 0): 1}, frozenset(), frozenset())
        with pytest.raises(ValueError):
            ThreeValuedDFA(1, 1, (0,), {(0, 1): 0}, frozenset(), frozenset())

    def test_run_partial(self):
        a = ThreeValuedDFA(2, 2, (0,), {(0, 0): 1}, frozenset({1}), frozenset())
        assert run(a, ()) == DONT_CARE
        assert run(a, (0,)) == POSITIVE
        assert run(a, (1,)) is None
        with pytest.raises(ValueError):
            run(a, (5,))

    def test_run_checks_letters_after_undefined_move(self):
        a = ThreeValuedDFA(2, 1, (0,), {}, set(), set())
        with pytest.raises(ValueError):
            run(a, (1, 5))

    def test_run_tries_each_initial(self):
        # state 0 leads to don't-care on 0, state 2 to rejecting on 1
        a = ThreeValuedDFA(2, 4, (0, 2), {(0, 0): 1, (2, 1): 3},
                           frozenset(), frozenset({3}))
        assert run(a, (1,)) == NEGATIVE
        assert run(a, (0,)) == DONT_CARE
        assert run(a, (0, 0)) is None


class TestApta:
    def test_tiny(self):
        s = SampleSet(2, {(0, 0)}, {(0, 1)})
        a = build_apta(s)
        # states: eps, 0, 00, 01
        assert a.state_count == 4
        assert run(a, (0, 0)) == POSITIVE
        assert run(a, (0, 1)) == NEGATIVE
        assert run(a, (0,)) == DONT_CARE
        assert run(a, (1,)) is None

    def test_empty_sample_set(self):
        s = SampleSet(2, set(), set())
        a = build_apta(s)
        assert a.state_count == 1
        assert a.transitions == {}

    @given(sample_sets)
    def test_classifies_exactly_the_samples(self, s):
        a = build_apta(s)
        for w in s.positives:
            assert run(a, w) == POSITIVE
        for w in s.negatives:
            assert run(a, w) == NEGATIVE
        # state count equals number of distinct prefixes
        prefixes = {w[:i] for w in s.positives | s.negatives
                    for i in range(len(w) + 1)} | {()}
        assert a.state_count == len(prefixes)


class TestMinimizeAcyclic:
    def test_rejects_cyclic(self):
        a = ThreeValuedDFA(1, 1, (0,), {(0, 0): 0}, frozenset({0}), frozenset())
        with pytest.raises(ValueError):
            minimize_acyclic(a)

    def test_merges_equal_leaves(self):
        s = SampleSet(2, {(0,), (1,)}, set())
        m = minimize_acyclic(build_apta(s))
        assert m.state_count == 2

    @given(sample_sets)
    def test_language_preserved(self, s):
        a = build_apta(s)
        m = minimize_acyclic(a)
        assert m.state_count <= a.state_count
        for w in all_words(3, 4):
            assert run(m, w) == run(a, w)

    @given(sample_sets)
    def test_idempotent(self, s):
        m = minimize_acyclic(build_apta(s))
        again = minimize_acyclic(m)
        assert isomorphic(m, again)
        assert again.state_count == m.state_count

    @given(sample_sets)
    def test_double_dfa_language_preserved(self, s):
        dd = build_ddfa(s)
        m = minimize_acyclic(dd)
        assert m.state_count <= dd.state_count
        for w in all_words(3, 4):
            assert run(m, w) == run(dd, w)

    def test_double_dfa_of_no_samples_keeps_one_initial(self):
        # both parts are a lone don't-care state, so they merge
        m = minimize_acyclic(build_ddfa(SampleSet(2, set(), set())))
        assert m.initials == (0,)
        assert m.state_count == 1


class TestIncremental:
    @given(sample_sets)
    def test_matches_batch_minimisation(self, s):
        inc = build_min_3dfa_incremental(s)
        batch = minimize_acyclic(build_apta(s))
        assert isomorphic(inc, batch)

    @given(sample_sets)
    def test_peak_live_bounded_by_prefix_count(self, s):
        builder = _IncrementalBuilder()
        for w, label in s.entries():
            builder.add(w, label)
        builder.finish()
        prefixes = {w[:i] for w in s.positives | s.negatives
                    for i in range(len(w) + 1)} | {()}
        assert builder.peak_live <= len(prefixes)

    def test_empty_word_first_sample(self):
        s = SampleSet(2, {()}, {(0,)})
        a = build_min_3dfa_incremental(s)
        assert run(a, ()) == POSITIVE
        assert run(a, (0,)) == NEGATIVE

    def test_no_samples(self):
        s = SampleSet(2, set(), set())
        a = build_min_3dfa_incremental(s)
        assert a.state_count == 1


class TestDoubleDFA:
    def test_tiny(self):
        s = SampleSet(2, {(0,)}, {(1,)})
        dd = build_ddfa(s)
        # each polarity: initial state plus one accepting leaf
        assert dd.state_count == 4
        assert dd.initials == (0, 2)
        assert run(dd, (0,)) == POSITIVE
        assert run(dd, (1,)) == NEGATIVE
        assert run(dd, ()) == DONT_CARE

    @given(sample_sets)
    def test_classifies_the_samples(self, s):
        dd = build_ddfa(s)
        for w in s.positives:
            assert run(dd, w) == POSITIVE
        for w in s.negatives:
            assert run(dd, w) == NEGATIVE

    @given(sample_sets)
    def test_parts_have_no_rejecting_states(self, s):
        dd = build_ddfa(s)
        split = dd.initials[1]
        assert dd.initials == (0, split)
        # the positive part owns exactly the states below the split
        assert all(q < split for q in dd.accepting)
        assert all(q >= split for q in dd.rejecting)
        for (q, _), r in dd.transitions.items():
            assert (q < split) == (r < split)

    @given(sample_sets)
    def test_positive_part_is_its_own_minimal_acceptor(self, s):
        dd = build_ddfa(s)
        pos = build_min_3dfa_incremental(
            SampleSet(s.alphabet_size, s.positives, set()))
        assert dd.initials[1] == pos.state_count
        assert {k: r for k, r in dd.transitions.items()
                if k[0] < pos.state_count} == pos.transitions


def reachable_states(a):
    seen = set(a.initials)
    frontier = list(a.initials)
    while frontier:
        q = frontier.pop()
        for letter in range(a.alphabet_size):
            r = a.transitions.get((q, letter))
            if r is not None and r not in seen:
                seen.add(r)
                frontier.append(r)
    return seen


class TestReachability:
    @given(sample_sets)
    def test_every_state_reachable(self, s):
        # The encoder gives every acceptor state a row of product
        # variables; this keeps those rows free of unreachable junk.
        for a in (build_apta(s), build_min_3dfa_incremental(s), build_ddfa(s)):
            assert reachable_states(a) == set(range(a.state_count))


class TestCanonical:
    def test_isomorphic_after_renaming(self):
        a = ThreeValuedDFA(2, 3, (0,), {(0, 0): 1, (0, 1): 2, (1, 0): 2},
                           frozenset({2}), frozenset({1}))
        b = ThreeValuedDFA(2, 3, (0,), {(0, 0): 2, (0, 1): 1, (2, 0): 1},
                           frozenset({1}), frozenset({2}))
        assert isomorphic(a, b)

    def test_not_isomorphic_when_status_differs(self):
        a = ThreeValuedDFA(1, 2, (0,), {(0, 0): 1}, frozenset({1}), frozenset())
        b = ThreeValuedDFA(1, 2, (0,), {(0, 0): 1}, frozenset(), frozenset({1}))
        assert not isomorphic(a, b)

    def test_unreachable_state_rejected(self):
        a = ThreeValuedDFA(1, 2, (0,), {}, frozenset({1}), frozenset())
        with pytest.raises(ValueError):
            canonical_form(a)

    @given(sample_sets)
    def test_double_dfa_renumbered_from_both_initials(self, s):
        dd = build_ddfa(s)
        c = canonical_form(dd)
        assert c.initials == (0, 1)
        assert isomorphic(dd, c)
        for w in all_words(3, 3):
            assert run(c, w) == run(dd, w)


class TestDumpParse:
    @given(sample_sets)
    def test_round_trip(self, s):
        a = minimize_acyclic(build_apta(s))
        again = parse_automaton(dump_automaton(a))
        assert again == a

    def test_double_dfa_has_no_dump_form(self):
        with pytest.raises(ValueError):
            dump_automaton(build_ddfa(SampleSet(2, {(0,)}, {(1,)})))

    def test_dump_learned(self):
        d = LearnedDFA(1, 2, {(0, 0): 1, (1, 0): 1}, frozenset({1}))
        text = dump_automaton(d)
        assert "states 2 initial 0 alphabet 1" in text
        parsed = parse_automaton(text)
        assert as_learned_dfa(parsed).accepting == frozenset({1})

    @pytest.mark.parametrize("text", [
        "",
        "states x initial 0 alphabet 1\n",
        "states 1 initial 0 alphabet 1\nstate 0 Z\n",
        "states 1 initial 0 alphabet 1\nstate 0 A\ntrans 0 0 5\n",
        "states 1 initial 2 alphabet 1\nstate 0 A\n",
        "states 2 initial 0 alphabet 1\nstate 0 A\n",   # missing state line
        "states 1 initial 0 alphabet 1\nstate 0 A\nstate 0 R\n",
        "states 1 initial 0 alphabet 1\nstate 0 A\ntrans 0 0 0\ntrans 0 0 0\n",
    ])
    def test_malformed_rejected(self, text):
        with pytest.raises(AutomatonFormatError):
            parse_automaton(text)

    def test_huge_declared_state_count_is_cheap(self):
        # the count is compared before any per-state list is built
        with pytest.raises(AutomatonFormatError, match="every state"):
            parse_automaton(
                "states 1000000000000 initial 0 alphabet 2\nstate 0 A\n")

    @given(st.text() | st.lists(st.lists(st.sampled_from(
        ["states", "initial", "alphabet", "state", "trans", "A", "R", "Z",
         "0", "1", "2", "-1", "\u0663", "x", "9" * 5000]
    ), max_size=6).map(" ".join), max_size=4).map("\n".join))
    def test_fuzz_raises_only_format_errors(self, text):
        try:
            parse_automaton(text)
        except AutomatonFormatError:
            pass


class TestLearnedDFA:
    def test_accepts(self):
        d = LearnedDFA(2, 2, {(0, 0): 1, (0, 1): 0, (1, 0): 1, (1, 1): 0},
                       frozenset({1}))
        assert d.accepts((0,))
        assert not d.accepts((0, 1))
        assert not d.accepts(())

    def test_must_be_total(self):
        with pytest.raises(ValueError):
            LearnedDFA(2, 1, {(0, 0): 0}, frozenset())

    def test_conversion_requires_total_two_valued(self):
        partial = ThreeValuedDFA(1, 1, (0,), {}, frozenset({0}), frozenset())
        with pytest.raises(ValueError):
            as_learned_dfa(partial)
        dontcare = ThreeValuedDFA(
            1, 2, (0,), {(0, 0): 1, (1, 0): 1}, frozenset({0}), frozenset())
        with pytest.raises(ValueError):
            as_learned_dfa(dontcare)
        double = ThreeValuedDFA(1, 2, (0, 1), {(0, 0): 0, (1, 0): 1},
                                frozenset({0}), frozenset({1}))
        with pytest.raises(ValueError):
            as_learned_dfa(double)
