"""Sample-set container, ordering, and Abbadingo round trips."""

import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

import sepdfa
from sepdfa.samples import (
    NEGATIVE,
    POSITIVE,
    ConflictingLabelsError,
    SampleError,
    SampleSet,
    _parse_numbers,
    parse_abbadingo,
    write_abbadingo,
)

words = st.lists(st.integers(0, 2), max_size=6).map(tuple)


class TestSampleSet:
    def test_basic(self):
        s = SampleSet(2, {(0,), (0, 1)}, {(1,)})
        assert s.size == 3
        assert (0,) in s.positives
        assert (1,) in s.negatives
        assert () not in s.positives | s.negatives

    def test_conflict_rejected(self):
        with pytest.raises(ConflictingLabelsError):
            SampleSet(2, {(0,)}, {(0,)})

    def test_letter_out_of_range(self):
        with pytest.raises(SampleError):
            SampleSet(2, {(2,)}, set())
        with pytest.raises(SampleError):
            SampleSet(2, set(), {(0, -1)})

    def test_alphabet_must_be_positive(self):
        with pytest.raises(SampleError):
            SampleSet(0, set(), set())

    def test_empty_word_allowed(self):
        s = SampleSet(1, {()}, set())
        assert () in s.positives


def ascending(*ws):
    """Whether entries() lists exactly these words, in this order."""
    return [w for w, _ in SampleSet(3, ws, ()).entries()] == list(ws)


class TestWordOrder:
    def test_prefix_comes_first(self):
        assert ascending((0,), (0, 0))
        assert not ascending((0, 0), (0,))

    def test_first_difference(self):
        assert ascending((0, 1), (1,))
        assert not ascending((1,), (0, 1, 1))

    def test_equal(self):
        assert not ascending((), ())
        assert not ascending((2, 1), (2, 1))

    @given(words, words)
    def test_matches_tuple_order(self, u, v):
        assert ascending(u, v) == (u < v)


class TestOrdering:
    def test_sorted_entries(self):
        s = SampleSet(2, {(1,), (0, 0)}, {(0,)})
        entries = s.entries()
        assert [w for w, _ in entries] == [(0,), (0, 0), (1,)]
        assert [l for _, l in entries] == [NEGATIVE, POSITIVE, POSITIVE]
        # built afresh, never cached on the set
        assert s.entries() == entries and s.entries() is not entries

    @given(st.sets(words, max_size=8), st.sets(words, max_size=8))
    def test_sorting_random_sets(self, pos, neg):
        neg = neg - pos
        s = SampleSet(3, pos, neg)
        entries = s.entries()
        ws = [w for w, _ in entries]
        assert ws == sorted(ws)
        assert len(ws) == s.size
        assert all(w in (s.positives if label == POSITIVE else s.negatives)
                   for w, label in entries)


ABBADINGO_EXAMPLE = "3 2\n1 2 0 1\n0 0\n1 3 1 1 0\n"


class TestAbbadingo:
    def test_parse(self):
        s = parse_abbadingo(ABBADINGO_EXAMPLE)
        assert s.alphabet_size == 2
        assert s.positives == frozenset({(0, 1), (1, 1, 0)})
        assert s.negatives == frozenset({()})

    def test_write_is_sorted_and_exact(self):
        s = SampleSet(2, {(0, 1), (1, 1, 0)}, {()})
        assert write_abbadingo(s) == "3 2\n0 0\n1 2 0 1\n1 3 1 1 0\n"

    @given(st.sets(words, max_size=10), st.sets(words, max_size=10))
    def test_round_trip(self, pos, neg):
        neg = neg - pos
        s = SampleSet(3, pos, neg)
        again = parse_abbadingo(write_abbadingo(s))
        assert again == s
        # writing is deterministic
        assert write_abbadingo(again) == write_abbadingo(s)

    def test_duplicate_same_label_collapses(self):
        s = parse_abbadingo("2 1\n1 1 0\n1 1 0\n")
        assert s.positives == frozenset({(0,)})

    def test_duplicate_cross_label_conflicts(self):
        with pytest.raises(ConflictingLabelsError):
            parse_abbadingo("2 1\n1 1 0\n0 1 0\n")

    @pytest.mark.parametrize("text", [
        "",
        "x 2\n",
        "1\n",
        "2 2\n1 1 0\n",          # count mismatch (too few)
        "1 2\n1 1 0\n0 0\n",     # count mismatch (too many)
        "1 2\n2 1 0\n",          # bad label
        "1 2\n1 2 0\n",          # length mismatch
        "1 2\n1 1 2\n",          # letter out of range
        "1 2\n1 1 -1\n",
        "1 0\n1 0\n",            # empty alphabet
        "1 2\n1 x\n",
        "1 2\n01 1 0\n",         # label with a leading zero
        "1 2 2\n1 1 0\n",        # header of three numbers
    ])
    def test_malformed_rejected(self, text):
        with pytest.raises(SampleError):
            parse_abbadingo(text)

    @pytest.mark.parametrize("text,word", [
        ("2 2\n1 1 0\n0 2 0 2\n", (0, 2)),      # letter out of range
        ("3 2\n1 1 1\n0 0\n0 1 1\n", (1,)),    # both labels
    ])
    def test_refusal_names_the_word(self, text, word):
        with pytest.raises(SampleError, match=re.escape(repr(word))):
            parse_abbadingo(text)

    def test_number_helper_is_not_public(self):
        # perfbench/tracer.py wraps every function in sepdfa.__all__, and a
        # wrapper around this per-line helper would take time out of the
        # span of parse_abbadingo
        assert _parse_numbers.__name__ not in sepdfa.__all__

    @pytest.mark.parametrize("text", [
        "1 2\n1 1 \u00b2\n",          # superscript two
        "1 4\n1 1 \u0663\n",          # Arabic-Indic three
        "1 2\n1 1 " + "1" * 5000 + "\n",  # beyond int()'s digit limit
        "1 2\n1 \u0661 0\n",          # non-ASCII length
    ])
    def test_only_ascii_numbers(self, text):
        with pytest.raises(SampleError, match="^line 2: "):
            parse_abbadingo(text)

    @given(st.text() | st.lists(st.lists(st.sampled_from(
        ["0", "1", "2", "-1", "x", "\u00b2", "\u0663", "9" * 5000]
    ), max_size=4).map(" ".join), max_size=4).map("\n".join))
    def test_fuzz_raises_only_sample_errors(self, text):
        try:
            parse_abbadingo(text)
        except SampleError:
            pass

    @pytest.mark.parametrize("tail", ["\n", "\n\n", "  \n\t\n", " "])
    def test_trailing_blank_lines_ignored(self, tail):
        s = parse_abbadingo("2 2\n1 1 0\n0 1 1\n" + tail)
        assert s == SampleSet(2, {(0,)}, {(1,)})

    @pytest.mark.parametrize("text", [
        "2 2\n1 1 0\n\n0 1 1\n",    # blank line between samples
        "3 2\n1 1 0\n\n0 1 1\n",    # ... even when the count allows it
        "3 2\n1 1 0\n0 1 1\n\n",    # trailing blank is not a sample
        "\n\n",
    ])
    def test_blank_lines_still_rejected(self, text):
        with pytest.raises(SampleError):
            parse_abbadingo(text)
