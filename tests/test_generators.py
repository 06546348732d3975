"""Parity-word labelling and benchmark corpus generation.

classify_parity_word, the word-by-word parity labelling, is the reference
the corpus generator's per-prefix walk is held to.
"""

import hashlib
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sepdfa import generators
from sepdfa.generators import (
    LETTER_BUDGET,
    WORD_BUDGET,
    BudgetExceededError,
    ParityConfig,
    gen_parity_samples,
    gen_random_dfa,
    gen_samples_from_dfa,
    parity_stats,
    _check_request,
)
from sepdfa.automata import dump_automaton, run
from sepdfa.samples import (DONT_CARE, NEGATIVE, POSITIVE, Word,
                            write_abbadingo)


def classify_parity_word(w: Word, colours: int) -> str:
    """Label a colour word by the cycles its repeated colours close.

    Scanning left to right, each colour remembers its most recent
    position.  Seeing a colour again closes a cycle: the segment after
    the previous occurrence up to and including the current position.  A
    cycle is winning when its highest colour is even.  Words whose cycles
    are all winning are positive, all losing negative; mixed or cycle-free
    words stay don't-care.
    """
    if colours < 1:
        raise ValueError("colour count must be at least 1")
    last: dict[int, int] = {}
    saw_cycle = False
    all_winning = True
    all_losing = True
    for pos, colour in enumerate(w):
        if not 0 <= colour < colours:
            raise ValueError(f"colour {colour} out of range")
        prev = last.get(colour)
        if prev is not None:
            saw_cycle = True
            if max(w[prev + 1:pos + 1]) % 2 == 0:
                all_losing = False
            else:
                all_winning = False
        last[colour] = pos
    if not saw_cycle:
        return DONT_CARE
    if all_winning:
        return POSITIVE
    if all_losing:
        return NEGATIVE
    return DONT_CARE


def classify_by_consecutive_occurrences(w, colours):
    """Independent labelling: cycles are consecutive occurrence pairs."""
    positions = {}
    for idx, colour in enumerate(w):
        positions.setdefault(colour, []).append(idx)
    verdicts = []
    for colour, where in positions.items():
        for prev, cur in zip(where, where[1:]):
            verdicts.append(max(w[prev + 1:cur + 1]) % 2 == 0)
    if not verdicts:
        return DONT_CARE
    if all(verdicts):
        return POSITIVE
    if not any(verdicts):
        return NEGATIVE
    return DONT_CARE


class TestClassify:
    def test_all_cycles_winning(self):
        assert classify_parity_word((0, 0, 1, 2, 1, 2), 3) == POSITIVE

    def test_all_cycles_losing(self):
        assert classify_parity_word((1, 3, 1, 2, 3, 3, 1, 2), 4) == NEGATIVE

    def test_mixed_cycles(self):
        assert classify_parity_word((2, 1, 2, 3, 2), 4) == DONT_CARE

    def test_cycle_free(self):
        assert classify_parity_word((0, 1, 2), 3) == DONT_CARE
        assert classify_parity_word((), 2) == DONT_CARE

    def test_single_colour_runs(self):
        assert classify_parity_word((0, 0), 2) == POSITIVE
        assert classify_parity_word((1, 1, 1), 2) == NEGATIVE

    def test_colour_out_of_range(self):
        with pytest.raises(ValueError):
            classify_parity_word((2,), 2)

    @given(st.integers(2, 4).flatmap(
        lambda c: st.tuples(st.just(c),
                            st.lists(st.integers(0, c - 1), max_size=9))))
    def test_matches_independent_labelling(self, case):
        colours, letters = case
        w = tuple(letters)
        assert classify_parity_word(w, colours) == \
            classify_by_consecutive_occurrences(w, colours)


class TestParityConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ParityConfig(1, 3)
        with pytest.raises(ValueError):
            ParityConfig(3, 3)


class TestGenParity:
    def test_smallest_corpus_exact(self):
        s = gen_parity_samples(ParityConfig(2, 3))
        assert s.positives == frozenset({
            (0, 0, 0), (0, 0, 1), (1, 0, 0)})
        assert s.negatives == frozenset({
            (0, 1, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0), (1, 1, 1)})

    def test_counts_three_colours(self):
        s = gen_parity_samples(ParityConfig(3, 4))
        assert (len(s.positives), len(s.negatives)) == (51, 20)

    def test_partition_covers_labelled_words(self):
        cfg = ParityConfig(2, 4)
        s = gen_parity_samples(cfg)
        for w in itertools.product(range(2), repeat=4):
            label = classify_parity_word(w, 2)
            assert (w in s.positives) == (label == POSITIVE)
            assert (w in s.negatives) == (label == NEGATIVE)
        assert all(len(w) == 4 for w in s.positives | s.negatives)

    @pytest.mark.parametrize("colours,length", [(2, 3), (3, 5), (3, 6),
                                                (4, 6)])
    def test_matches_word_oracle(self, colours, length):
        # the per-prefix walk labels every word as the O(L^2) classifier does
        s = gen_parity_samples(ParityConfig(colours, length))
        positives, negatives = set(), set()
        for w in itertools.product(range(colours), repeat=length):
            label = classify_parity_word(w, colours)
            if label == POSITIVE:
                positives.add(w)
            elif label == NEGATIVE:
                negatives.add(w)
        assert s.positives == positives
        assert s.negatives == negatives

    def test_budget(self):
        # 2^27 words exceed WORD_BUDGET; refused before any is built
        with pytest.raises(BudgetExceededError, match=r"^2\^27 words"):
            gen_parity_samples(ParityConfig(2, 27))


class TestRandomDfa:
    def test_deterministic_per_seed(self):
        assert gen_random_dfa(5, 2, 42) == gen_random_dfa(5, 2, 42)
        # not a guarantee, but these seeds do differ
        assert gen_random_dfa(5, 2, 1) != gen_random_dfa(5, 2, 2)

    @pytest.mark.parametrize("size", [1, 2, 5, 9])
    def test_all_states_reachable(self, size):
        dfa = gen_random_dfa(size, 2, 7)
        seen = {0}
        frontier = [0]
        while frontier:
            q = frontier.pop()
            for a in range(2):
                r = dfa.transitions[(q, a)]
                if r not in seen:
                    seen.add(r)
                    frontier.append(r)
        assert seen == set(range(size))

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            gen_random_dfa(0)
        with pytest.raises(ValueError):
            gen_random_dfa(2, 0)

    # Seed 2 draws four 5-state DFAs, of 15 rng.randrange calls each,
    # before one has every state reachable.
    @pytest.mark.parametrize("budget", [14, 15, 29, 59])
    def test_draws_stop_at_the_letter_budget(self, monkeypatch, budget):
        monkeypatch.setattr(generators, "LETTER_BUDGET", budget)
        with pytest.raises(BudgetExceededError, match=(
                "^no 5-state DFA with every state reachable within the "
                f"budget of {budget} letters$")):
            gen_random_dfa(5, 2, 2)

    def test_draw_within_the_budget_is_unchanged(self, monkeypatch):
        expected = gen_random_dfa(5, 2, 2)
        monkeypatch.setattr(generators, "LETTER_BUDGET", 60)
        assert gen_random_dfa(5, 2, 2) == expected


# sha256 of the sample file followed by the hidden DFA dump that
# `gen-random --dfa-size N --seed S` writes (50 N words of length at most
# 2 N + 3), for the hidden DFAs of the random-search benchmark.
GEN_RANDOM_SHA256 = {
    (4, 101): "2262044b2bb0edf3f19fb972aeb66db76fd59ae1160cc4c9d0b7d5ef03262ec6",
    (4, 102): "956015a80e64ed1b8b72ec7d27c4a0274d16990e988f48883f4e280044288fcc",
    (4, 103): "b552d2b4013f8f2ce251eccb4f9ed6f4e8ce7003b4eeaea41c4f7d477e3ea2ab",
    (4, 104): "11a647ea4c8a092c72d484c4a25b52c5c5c13c7a46aef355eb2f908923a91570",
    (4, 105): "ca389dd6ab99e81984a51078ed8bf4d5e886143e928dbcef30ae6001868db25c",
    (5, 101): "1a097e2e6a021d3eb19bfc4b5b5ab7a64c951060b8cfcdc7af1fa908dfc6a277",
    (5, 102): "9222f05bf01327afd8b4b012789116bcecf5ccee7116d25bcd3846e689c877ad",
    (5, 103): "f968550af6d6ac235b1cec33706a5a62bd3f8b3f1264fbc23b9b5da35b43abc2",
    (5, 104): "ef55c1ca0f016ce3ff8e2f81454437251535c94a2782988c2c162086cc4ad388",
    (5, 105): "95c6f69c7d100884f58e753c089094540be86391be7414fee4410c80f2a275ce",
    (6, 101): "b59ee77763ecfdf86e2c16553863fbd8caa8198ad9d47f593fa4739304861006",
    (6, 102): "21a42b656a692efe5ee8e5f17351d9bd80ffbb673ca3dfe7f5cc71fe0074a421",
    (6, 103): "e9650559eec7dd4c0c1f23d614e6f309cd3dbb0f91d3f110416326d01a930cb9",
    (6, 104): "64c67d56449e6471321cdfe9332045934374465e0145872572de67a1cd1b3938",
    (6, 105): "96f20629f9b88f9020bd50518f3f75e6e1285a6c9bfa4adac979300b92df8def",
    (7, 101): "cec9a3ae7352997b35a4603f68ab81e1e955bc2f84025579fa7d0d671352553f",
    (7, 102): "c4578eb8a86fdb507b056d87f819fad9f372912200c5e2bccc71c0d415f08d8f",
    (7, 103): "91d00bfa3fb2c0bba8dca4b94f4e09dc095f407fb4e50a0e9fab74262095c2f1",
    (7, 104): "fbf776fa8e47a34604e866d5c10d165dfa72cdb30afff1b2da446b9cbb74d32d",
    (7, 105): "0775437056507c6dbbe2b77aba869c852d132851bf2c3f936621091224fa31c9",
    (8, 101): "1dc12afa9630697240067201568b09bb88bb192d5c35b80e1ee482f37986499b",
    (8, 102): "44f936fa941cdb935a2c5dd64197f72e045dc00197027331e31d36f2e8b72b58",
    (8, 103): "803255a33ca9700f1599f778821f4bddef73b5713d4598c25994120bf4396318",
    (8, 104): "313de278dd15ca4e727d69f92c0ba7aa89b9cc38fcc766f36f138c7302d748fa",
    (8, 105): "2d32f5b2e36b53e6b758a13bb05975a84ac5d854e9dfa5608e0fa5eb51c73ee8",
}


@pytest.mark.parametrize("size,seed", sorted(GEN_RANDOM_SHA256))
def test_gen_random_output_is_pinned(size, seed):
    dfa = gen_random_dfa(size, 2, seed)
    samples = gen_samples_from_dfa(dfa, 50 * size, 2 * size + 3, seed=seed)
    text = write_abbadingo(samples) + dump_automaton(dfa)
    assert (hashlib.sha256(text.encode()).hexdigest()
            == GEN_RANDOM_SHA256[(size, seed)])


# sha256 of the sample file that `gen-parity --colours C --length L` writes,
# for the corpora of the parity-safety benchmark: the walk lists the words
# ascending, and the file keeps that order.
GEN_PARITY_SHA256 = {
    (3, 5): "a9c8ee54e39031c983cc11fa4ad25cc510a66d3da1ee54d510f4e8809c43cde6",
    (4, 7): "d176f8c5f9d36ff3262ef1c97ead2e8d9c3f943fe379b90c52e377300fe7fb02",
    (4, 8): "83e55678155b89fa2262eaf29ac8b4f427fbac2d2e5c67e6e5dbb82084559178",
}


@pytest.mark.parametrize("colours,length", sorted(GEN_PARITY_SHA256))
def test_gen_parity_output_is_pinned(colours, length):
    text = write_abbadingo(gen_parity_samples(ParityConfig(colours, length)))
    assert (hashlib.sha256(text.encode()).hexdigest()
            == GEN_PARITY_SHA256[(colours, length)])


class TestSamplesFromDfa:
    def test_labels_match_hidden_dfa(self):
        dfa = gen_random_dfa(4, 2, 3)
        s = gen_samples_from_dfa(dfa, 60, 6, seed=3)
        assert s.size == 60
        for w in s.positives:
            assert run(dfa, w) == POSITIVE
        for w in s.negatives:
            assert run(dfa, w) != POSITIVE
        assert all(len(w) <= 6 for w in s.positives | s.negatives)

    def test_deterministic_per_seed(self):
        dfa = gen_random_dfa(3, 2, 0)
        a = gen_samples_from_dfa(dfa, 30, 5, seed=11)
        b = gen_samples_from_dfa(dfa, 30, 5, seed=11)
        assert a == b

    def test_full_pool_enumeration(self):
        # pool of words up to length 2 over two letters has 7 entries
        dfa = gen_random_dfa(2, 2, 0)
        s = gen_samples_from_dfa(dfa, 7, 2, seed=0)
        assert s.size == 7

    def test_pool_overflow(self):
        dfa = gen_random_dfa(2, 2, 0)
        with pytest.raises(ValueError):
            gen_samples_from_dfa(dfa, 8, 2)

    def test_draw_budget(self):
        dfa = gen_random_dfa(2, 2, 0)
        with pytest.raises(BudgetExceededError, match="budget"):
            gen_samples_from_dfa(dfa, 150, 10 ** 8)
        with pytest.raises(BudgetExceededError):
            gen_samples_from_dfa(dfa, 1, WORD_BUDGET + 1)
        # no letters are drawn, however long the words might have been
        assert gen_samples_from_dfa(dfa, 0, 10 ** 12).size == 0

    def test_letter_budget(self):
        # random draws have a budget of their own, far below WORD_BUDGET
        assert LETTER_BUDGET == 10 ** 7
        _check_request(100, 100_000, 2)
        with pytest.raises(BudgetExceededError,
                           match="exceed the budget of 10000000 letters"):
            _check_request(100, 100_001, 2)
        # the largest default gen-random request: 50 * 315 words of up to
        # 2 * 315 + 3 letters
        _check_request(50 * 315, 2 * 315 + 3, 2)
        with pytest.raises(BudgetExceededError):
            _check_request(50 * 316, 2 * 316 + 3, 2)

    @given(st.integers(0, 7), st.integers(0, 100))
    @settings(max_examples=25)
    def test_requested_count_is_exact(self, count, seed):
        dfa = gen_random_dfa(3, 2, 5)
        s = gen_samples_from_dfa(dfa, count, 4, seed=seed)
        assert s.size == count


class TestStats:
    def test_smallest_corpus_line(self):
        stats = parity_stats(ParityConfig(2, 3))
        assert stats == (2, 3, 3, 5, 15, 8, 12)

    def test_three_colour_line(self):
        stats = parity_stats(ParityConfig(3, 4))
        assert stats == (3, 4, 51, 20, 111, 23, 28)
