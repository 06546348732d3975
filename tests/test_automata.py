"""Acceptor constructions: prefix tree, minimisation, incremental, double DFA.

minimize_acyclic, the batch minimisation of an acyclic acceptor, is the
reference the incremental construction is held to here and in
test_acceptance.  trie_apta and two_builder_ddfa, a trie grown word by word
and one incremental builder per polarity, are the references the prefix
tree and the double automaton derived from the incremental register are
held to, stored transition order included.
"""

import time
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sepdfa.automata import (
    AutomatonFormatError,
    _IncrementalBuilder,
    _numbered,
    _signatures,
    _split,
    _successors,
    _unfold,
    ThreeValuedDFA,
    build_apta,
    build_ddfa,
    build_min_3dfa_incremental,
    canonical_form,
    dump_automaton,
    parse_automaton,
    run,
)
from sepdfa.generators import (
    ParityConfig,
    gen_parity_samples,
    gen_random_dfa,
    gen_samples_from_dfa,
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


def minimize_acyclic(a: ThreeValuedDFA) -> ThreeValuedDFA:
    """Minimal three-valued automaton for the same classification function.

    States are merged when they share a status and, letter by letter,
    either both lack a successor or lead to already-merged successors.
    A reachable state is keyed once all its successors are: each counts
    its outgoing transitions down as their targets are keyed, starting
    from the leaves (Kahn's order on the reversed edges).  A state left
    unkeyed lies on or leads to a cycle, and the input must be acyclic.
    Initial states whose classifications coincide merge into one.
    """
    succ = _successors(a)
    pending = {q: len(succ[q]) for q in a.initials}  # successors unkeyed
    preds: list[list[int]] = [[] for _ in succ]
    reached = list(a.initials)
    for q in reached:  # grows while it is walked: all reachable states
        for _, r in succ[q]:
            preds[r].append(q)
            if r not in pending:
                pending[r] = len(succ[r])
                reached.append(r)
    register: dict[tuple, int] = {}
    rep: dict[int, int] = {}
    ready = [q for q in reached if not pending[q]]
    for q in ready:  # grows while it is walked
        sig = (a.status(q), tuple((letter, rep[r]) for letter, r in succ[q]))
        rep[q] = register.setdefault(sig, len(register))
        for p in preds[q]:
            pending[p] -= 1
            if not pending[p]:
                ready.append(p)
    if len(rep) != len(reached):
        raise ValueError("automaton contains a cycle")
    return _numbered(a.alphabet_size, list(register),
                     tuple(dict.fromkeys(rep[q] for q in a.initials)))


def trie_apta(samples: SampleSet) -> ThreeValuedDFA:
    """The prefix tree as a trie grown from the ascending words.

    A new prefix takes the next number, so states come in preorder,
    letters ascending, and transitions are stored by state, then letter.
    """
    children: list[dict[int, int]] = [{}]
    ends: dict[str, set[int]] = {POSITIVE: set(), NEGATIVE: set()}
    for w, label in samples.entries():
        cur = 0
        for a in w:
            nxt = children[cur].get(a)
            if nxt is None:
                nxt = len(children)
                children[cur][a] = nxt
                children.append({})
            cur = nxt
        ends[label].add(cur)
    transitions = {(q, a): r for q, kids in enumerate(children)
                   for a, r in kids.items()}
    return ThreeValuedDFA(samples.alphabet_size, len(children), (0,),
                          transitions, frozenset(ends[POSITIVE]),
                          frozenset(ends[NEGATIVE]))


def two_builder_ddfa(samples: SampleSet) -> ThreeValuedDFA:
    """One incremental builder per polarity, fed in one pass over the
    entries, their registers joined and numbered by canonical_form's rule."""
    builders = {POSITIVE: _IncrementalBuilder(),
                NEGATIVE: _IncrementalBuilder()}
    for w, label in samples.entries():
        builders[label].add(w, label)
    signatures, pos_root = builders[POSITIVE].finish()
    negatives, neg_root = builders[NEGATIVE].finish()
    off = len(signatures)
    signatures += [(status, tuple((a, r + off) for a, r in kids))
                   for status, kids in negatives]
    return _numbered(samples.alphabet_size, signatures,
                     (pos_root, neg_root + off))


def stored(a: ThreeValuedDFA) -> tuple:
    """Every field, the transitions as stored: the encoder reads them in
    that order, so it decides the DIMACS bytes."""
    return (list(a.transitions.items()), a.initials, a.accepting,
            a.rejecting, a.state_count)


class TestThreeValuedDFA:
    def test_validation(self):
        a = ThreeValuedDFA(2, 2, (0,), {(0, 0): 1}, frozenset({1}), frozenset())
        assert a.status(0) == DONT_CARE
        assert a.status(1) == POSITIVE

    @pytest.mark.parametrize("initials", [(), (2,), (-1,), (0, 0)])
    def test_bad_initials_rejected(self, initials):
        with pytest.raises(ValueError):
            ThreeValuedDFA(1, 2, initials, {}, frozenset(), frozenset())

    def test_bad_sizes_rejected(self):
        with pytest.raises(ValueError, match="at least one state"):
            ThreeValuedDFA(1, 0, (0,), {}, frozenset(), frozenset())
        with pytest.raises(ValueError, match="status state 1 out of range"):
            ThreeValuedDFA(1, 1, (0,), {}, frozenset({1}), frozenset())
        with pytest.raises(ValueError, match="status state -1 out of range"):
            ThreeValuedDFA(1, 1, (0,), {}, frozenset(), frozenset({-1}))

    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            ThreeValuedDFA(1, 1, (0,), {}, frozenset({0}), frozenset({0}))

    def test_bad_transition_rejected(self):
        with pytest.raises(ValueError):
            ThreeValuedDFA(1, 1, (0,), {(0, 0): 1}, frozenset(), frozenset())
        with pytest.raises(ValueError):
            ThreeValuedDFA(1, 1, (0,), {(0, 1): 0}, frozenset(), frozenset())

    def test_equal_whatever_the_transition_order(self):
        moves = {(0, 0): 1, (0, 1): 0, (1, 0): 1, (1, 1): 0}
        a = ThreeValuedDFA(2, 2, [0], moves, {1}, {0})
        b = ThreeValuedDFA(2, 2, (0,), dict(reversed(moves.items())),
                           frozenset({1}), frozenset({0}))
        assert list(a.transitions) != list(b.transitions)
        assert a == b
        assert a != ThreeValuedDFA(2, 2, (0,), moves, {0}, {1})

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

    def test_run_total_dfa(self):
        d = ThreeValuedDFA(2, 2, (0,), {(0, 0): 1, (0, 1): 0, (1, 0): 1,
                                        (1, 1): 0},
                           frozenset({1}), frozenset({0}))
        assert run(d, (0,)) == POSITIVE
        assert run(d, (0, 1)) == NEGATIVE
        assert run(d, ()) == NEGATIVE

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
        with pytest.raises(ValueError, match="cycle"):
            minimize_acyclic(a)

    @pytest.mark.parametrize("transitions", [
        {(1, 0): 2, (2, 0): 2},                   # a loop below state 1
        {(0, 0): 3, (1, 0): 2, (2, 1): 1},        # 1 and 2 close a cycle
        {(1, 0): 3, (1, 1): 2, (2, 0): 1},        # beside a leaf edge
    ])
    def test_rejects_cycle_reached_from_second_initial(self, transitions):
        a = ThreeValuedDFA(2, 4, (0, 1), transitions, frozenset({3}),
                           frozenset())
        with pytest.raises(ValueError, match="cycle"):
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
        assert again == m
        assert list(again.transitions.items()) == list(m.transitions.items())

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


# Corner cases: empty polarities and the empty word.
CORNER_SETS = {
    "no-samples": SampleSet(2, set(), set()),
    "positives-only": SampleSet(2, {(0,), (1, 0), (1, 1)}, set()),
    "negatives-only": SampleSet(2, set(), {(1,), (0, 0, 1)}),
    "empty-word-positive": SampleSet(2, {()}, {(0,), (1, 1)}),
    "empty-word-negative": SampleSet(3, {(2,), (0, 1)}, {()}),
    "only-the-empty-word": SampleSet(1, set(), {()}),
}


# The rows the benchmark mines: parity (colours, length) and random
# (hidden DFA size, seed), as perfbench/workloads.py generates them.
BENCHMARK_ROWS = [("parity", 3, 5), ("parity", 4, 7), ("parity", 4, 8),
                  ("random", 4, 101), ("random", 5, 102), ("random", 6, 103),
                  ("random", 7, 104), ("random", 8, 105)]


class TestDerivations:
    """build_apta and build_ddfa unfold and split the incremental register;
    a mine derives the same from the min3dfa acceptor, whose breadth-first
    numbers are no topological order."""

    @staticmethod
    def check(s: SampleSet) -> None:
        apta, ddfa = stored(trie_apta(s)), stored(two_builder_ddfa(s))
        assert stored(build_apta(s)) == apta
        assert stored(build_ddfa(s)) == ddfa
        m = build_min_3dfa_incremental(s)
        args = (s.alphabet_size, _signatures(m), m.initials[0])
        assert stored(_unfold(*args)) == apta
        assert stored(_split(*args)) == ddfa

    @given(sample_sets)
    def test_match_the_word_by_word_oracles(self, s):
        self.check(s)

    @pytest.mark.parametrize("s", CORNER_SETS.values(), ids=CORNER_SETS)
    def test_corner_cases(self, s):
        self.check(s)

    @pytest.mark.parametrize(
        "kind, a, b", BENCHMARK_ROWS,
        ids=[f"{k}-{a}-{b}" for k, a, b in BENCHMARK_ROWS])
    def test_benchmark_rows(self, kind, a, b):
        if kind == "parity":
            s = gen_parity_samples(ParityConfig(a, b))
        else:
            s = gen_samples_from_dfa(gen_random_dfa(a, 2, b), 50 * a,
                                     2 * a + 3, seed=b)
        self.check(s)

    @given(sample_sets, st.randoms(use_true_random=False))
    def test_any_state_numbering(self, s, rnd):
        m = build_min_3dfa_incremental(s)
        perm = list(range(m.state_count))
        rnd.shuffle(perm)
        shuffled = renamed(m, perm,
                           lambda items: rnd.sample(items, len(items)))
        args = (s.alphabet_size, _signatures(shuffled), shuffled.initials[0])
        assert stored(_unfold(*args)) == stored(trie_apta(s))
        assert stored(_split(*args)) == stored(two_builder_ddfa(s))

    def test_long_word_memory_goes_by_tree_size(self):
        # A long word makes a chain of acceptor states; keeping each
        # state's whole unfolding would hold length squared / 2 entries.
        length = 20_000
        s = SampleSet(2, {tuple(i % 2 for i in range(length))}, {(1,)})
        peaks = []
        tracemalloc.start()
        try:
            for build in (trie_apta, build_apta):
                tracemalloc.reset_peak()
                a = build(s)
                peaks.append(tracemalloc.get_traced_memory()[1])
                assert a.state_count == length + 2
                del a
        finally:
            tracemalloc.stop()
        trie, derived = peaks
        assert derived < 3 * trie


class TestIncremental:
    @given(sample_sets)
    def test_matches_batch_minimisation(self, s):
        inc = build_min_3dfa_incremental(s)
        batch = minimize_acyclic(build_apta(s))
        # field for field, stored transition order included: both end in
        # canonical_form
        assert inc == batch
        assert list(inc.transitions.items()) == list(batch.transitions.items())

    @given(sample_sets)
    def test_peak_live_bounded_by_prefix_count(self, s):
        class Builder(_IncrementalBuilder):
            peak_live = 1  # registered plus stacked states, at most

            def add(self, w, label):
                super().add(w, label)
                self.peak_live = max(self.peak_live,
                                     len(self.register) + len(self.stack))

        builder = Builder()
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

    @given(sample_sets)
    def test_parts_are_the_polarity_builds(self, s):
        dd = build_ddfa(s)
        split = dd.initials[1]
        pos = build_min_3dfa_incremental(
            SampleSet(s.alphabet_size, s.positives, set()))
        neg = build_min_3dfa_incremental(
            SampleSet(s.alphabet_size, set(), s.negatives))
        assert pos == ThreeValuedDFA(
            s.alphabet_size, split, (0,),
            {(q, a): r for (q, a), r in dd.transitions.items() if q < split},
            dd.accepting, frozenset())
        assert neg == ThreeValuedDFA(
            s.alphabet_size, dd.state_count - split, (0,),
            {(q - split, a): r - split
             for (q, a), r in dd.transitions.items() if q >= split},
            frozenset(), frozenset(q - split for q in dd.rejecting))


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


def renamed(a, perm, items_order):
    """a with state q renamed perm[q], transitions stored in a given order."""
    items = [((perm[q], letter), perm[r])
             for (q, letter), r in a.transitions.items()]
    return ThreeValuedDFA(
        a.alphabet_size, a.state_count, tuple(perm[q] for q in a.initials),
        dict(items_order(items)), frozenset(perm[q] for q in a.accepting),
        frozenset(perm[q] for q in a.rejecting))


class TestCanonical:
    def test_isomorphic_after_renaming(self):
        a = ThreeValuedDFA(2, 3, (0,), {(0, 0): 1, (0, 1): 2, (1, 0): 2},
                           frozenset({2}), frozenset({1}))
        b = ThreeValuedDFA(2, 3, (0,), {(0, 0): 2, (0, 1): 1, (2, 0): 1},
                           frozenset({1}), frozenset({2}))
        assert a != b
        assert canonical_form(a) == canonical_form(b)

    def test_not_isomorphic_when_status_differs(self):
        a = ThreeValuedDFA(1, 2, (0,), {(0, 0): 1}, frozenset({1}), frozenset())
        b = ThreeValuedDFA(1, 2, (0,), {(0, 0): 1}, frozenset(), frozenset({1}))
        assert canonical_form(a) != canonical_form(b)

    @given(sample_sets, st.randoms(use_true_random=False))
    def test_shuffled_input_stored_by_state_then_letter(self, s, rnd):
        for a in (build_apta(s), build_ddfa(s)):
            perm = list(range(a.state_count))
            rnd.shuffle(perm)
            shuffled = renamed(a, perm,
                               lambda items: rnd.sample(items, len(items)))
            c = canonical_form(shuffled)
            assert list(c.transitions) == sorted(c.transitions)
            assert c == canonical_form(a)
            again = canonical_form(c)
            assert list(again.transitions.items()) == list(
                c.transitions.items())
            assert again == c

    @given(sample_sets)
    def test_builders_output_is_canonical(self, s):
        for a in (minimize_acyclic(build_apta(s)),
                  build_min_3dfa_incremental(s), build_ddfa(s),
                  minimize_acyclic(build_ddfa(s))):
            c = canonical_form(a)
            assert list(c.transitions.items()) == list(a.transitions.items())
            assert c == a

    def test_second_initial_reached_from_first_keeps_its_number(self):
        # 2 -> 1 on letter 0 and 2 -> 0 on letter 1: the walk from 2
        # numbers 0 third, before the second initial state's turn
        a = ThreeValuedDFA(2, 3, (2, 0), {(1, 0): 0, (2, 1): 0, (2, 0): 1},
                           frozenset({0}), frozenset({1}))
        c = canonical_form(a)
        assert c.initials == (0, 2)
        assert list(c.transitions.items()) == [((0, 0), 1), ((0, 1), 2),
                                               ((1, 0), 2)]
        assert (c.accepting, c.rejecting) == ({2}, {1})

    def test_disjoint_second_part_follows_the_first(self):
        # parts {3, 2} and {0, 1}: the second initial state becomes 2
        a = ThreeValuedDFA(1, 4, (3, 0), {(0, 0): 1, (3, 0): 2},
                           frozenset({2}), frozenset({1}))
        c = canonical_form(a)
        assert c.initials == (0, 2)
        assert list(c.transitions.items()) == [((0, 0), 1), ((2, 0), 3)]
        assert (c.accepting, c.rejecting) == ({1}, {3})

    def test_unreachable_state_rejected(self):
        a = ThreeValuedDFA(1, 2, (0,), {}, frozenset({1}), frozenset())
        with pytest.raises(ValueError):
            canonical_form(a)

    @given(sample_sets)
    def test_double_dfa_renumbered_from_both_initials(self, s):
        dd = build_ddfa(s)
        positive_part = build_min_3dfa_incremental(
            SampleSet(s.alphabet_size, s.positives, set()))
        assert dd.initials == (0, positive_part.state_count)
        assert canonical_form(dd) == dd

    @pytest.mark.parametrize("make, build", [
        (lambda s: s, build_apta),
        (lambda s: s, build_min_3dfa_incremental),
        (lambda s: s, build_ddfa),
        (build_apta, minimize_acyclic),
        (build_ddfa, canonical_form),
    ], ids=["apta", "min3dfa", "ddfa", "minimize_acyclic", "canonical_form"])
    def test_one_construction_per_call(self, monkeypatch, make, build):
        arg = make(SampleSet(2, {(0,), (1, 0), (1, 1, 0)}, {(1,), (0, 1)}))
        built = []
        init = ThreeValuedDFA.__init__

        def counted(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(ThreeValuedDFA, "__init__", counted)
        build(arg)
        assert len(built) == 1


class TestLargeAlphabet:
    # Four words over 10^7 letters: the walks read only the transitions
    # that exist, never the whole declared alphabet per state.
    samples = SampleSet(10**7, {(1,), (0, 5)}, {(0,), (9_999_999, 3)})

    @pytest.mark.parametrize("build", [
        lambda s: canonical_form(build_apta(s)),
        lambda s: minimize_acyclic(build_apta(s)),
        build_min_3dfa_incremental,
        build_ddfa,
    ], ids=["canonical_form", "minimize_acyclic", "min3dfa", "ddfa"])
    def test_cost_does_not_grow_with_alphabet(self, build):
        started = time.monotonic()
        a = build(self.samples)
        assert time.monotonic() - started < 1.0
        for w in self.samples.positives:
            assert run(a, w) == POSITIVE
        for w in self.samples.negatives:
            assert run(a, w) == NEGATIVE


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
        d = ThreeValuedDFA(1, 2, (0,), {(0, 0): 1, (1, 0): 1},
                           frozenset({1}), frozenset({0}))
        text = dump_automaton(d)
        assert "states 2 initial 0 alphabet 1" in text
        parsed = parse_automaton(text)
        assert parsed.accepting == frozenset({1})
        assert parsed == d

    @pytest.mark.parametrize("text", [
        "",
        "states x initial 0 alphabet 1\n",
        "states 1 initial 0 alphabet 1\nstate 0 Z\n",
        "states 1 initial 0 alphabet 1\nstate 0 A\ntrans 0 0 5\n",
        "states 1 initial 2 alphabet 1\nstate 0 A\n",
        "states 2 initial 0 alphabet 1\nstate 0 A\n",   # missing state line
        "states 1 initial 0 alphabet 1\nstate 0 A\nstate 0 R\n",
        "states 1 initial 0 alphabet 1\nstate 0 A\ntrans 0 0 0\ntrans 0 0 0\n",
        # numbers are runs of ASCII digits, as in sample files
        "states 1_0 initial 0 alphabet 1\n" + "".join(
            f"state {q} A\n" for q in range(10)),
        "states 1 initial 0 alphabet 1\nstate 0 A\ntrans 0 0 +0\n",
        "states 1 initial 0 alphabet 1\nstate \u0660 A\n",
        "states 1 initial 0 alphabet 1\nstate 0 A\ntrans 0 0 -0\n",
        "states \u0661 initial 0 alphabet 1\nstate 0 A\n",
        "states 1 initial 0 alphabet 1\nstate " + "1" * 5000 + " A\n",
    ])
    def test_malformed_rejected(self, text):
        with pytest.raises(AutomatonFormatError):
            parse_automaton(text)

    def test_unknown_line_kind_rejected(self):
        with pytest.raises(AutomatonFormatError,
                           match="bad line: 'edge 0 0 0'"):
            parse_automaton(
                "states 1 initial 0 alphabet 1\nstate 0 A\nedge 0 0 0\n")

    def test_unknown_status_code_refused_on_its_line(self):
        # state 1's line is missing too, but the code is checked first
        with pytest.raises(AutomatonFormatError,
                           match="^unknown status code 'Z'$"):
            parse_automaton("states 2 initial 0 alphabet 1\nstate 0 Z\n")

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

