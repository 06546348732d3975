"""Benchmark corpora: parity-game words and random hidden DFAs.

Parity corpora label every fixed-length word over the colour alphabet by
the cycles it closes; random corpora label sampled words with a hidden
random DFA, a total two-valued ThreeValuedDFA, so the miner's result can
be compared against its size.
"""

from __future__ import annotations

import itertools
import random

from .automata import (
    ThreeValuedDFA,
    _incremental,
    _split,
    _unfold,
    canonical_form,
    run,
)
from .samples import NEGATIVE, POSITIVE, SampleSet, Word, _Record


# Work limits of the corpus generators: parity words enumerated, and
# letters drawn at most (count times max_len) for a random corpus, where
# each letter is one rng.randrange call; the same count of calls bounds
# the draws of a random DFA.
WORD_BUDGET = 100_000_000
LETTER_BUDGET = 10_000_000


class BudgetExceededError(ValueError):
    """Generating the corpus would exceed the word or letter budget."""


class ParityConfig(_Record):
    """A parity corpus: all words of one length over the colour alphabet."""

    __slots__ = ("colours", "length")

    def __init__(self, colours: int, length: int) -> None:
        if colours < 2:
            raise ValueError("parity corpora need at least two colours")
        if length <= colours:
            raise ValueError("word length must exceed the colour count")
        self.colours = colours
        self.length = length


def _parity_step(state: tuple, colour: int) -> tuple:
    """The per-prefix state of a parity word after one more colour.

    A state holds, per colour, None while the colour is unseen, else the
    highest colour seen since its last occurrence (-1 for none yet),
    followed by the flags "closed a winning cycle" and "closed a losing
    cycle".  The label of a word depends on its final state alone.
    """
    *since, winning, losing = state
    top = since[colour]
    if top is not None:
        if max(top, colour) % 2 == 0:
            winning = True
        else:
            losing = True
    since = [c if c is None or c >= colour else colour for c in since]
    since[colour] = -1
    return (*since, winning, losing)


def gen_parity_samples(cfg: ParityConfig) -> SampleSet:
    """Classify every length-cfg.length colour word; drop the don't-cares.

    Words are walked depth first on their per-prefix state (_parity_step,
    memoised), so each label costs O(1) rather than the O(L^2) of
    scanning the word's cycles, and a prefix that has closed both a
    winning and a losing cycle is dropped with all its completions.  The
    walk takes the colours in ascending order, so it lists the words
    ascending, and the sample set keeps them in that order unsorted.  A
    request for more than WORD_BUDGET words is refused before any is
    built, with a message that names the count as a power: colours**length
    may have too many digits to print.
    """
    count = 1
    for _ in range(cfg.length):
        count *= cfg.colours
        if count > WORD_BUDGET:
            raise BudgetExceededError(
                f"{cfg.colours}^{cfg.length} words exceed the budget of "
                f"{WORD_BUDGET}")
    colours = range(cfg.colours)
    successors: dict[tuple, list[tuple[int, tuple]]] = {}

    def live_successors(state: tuple) -> list[tuple[int, tuple]]:
        found = successors.get(state)
        if found is None:
            found = successors[state] = []
            for colour in colours:
                nxt = _parity_step(state, colour)
                if not (nxt[-2] and nxt[-1]):
                    found.append((colour, nxt))
        return found

    entries: list[tuple[Word, str]] = []  # ascending: the walk's order

    def walk(prefix: Word, state: tuple, remaining: int) -> None:
        if remaining == 1:
            for colour, (*_, winning, losing) in live_successors(state):
                if winning:
                    entries.append((prefix + (colour,), POSITIVE))
                elif losing:
                    entries.append((prefix + (colour,), NEGATIVE))
            return
        for colour, nxt in live_successors(state):
            walk(prefix + (colour,), nxt, remaining - 1)

    walk((), (None,) * cfg.colours + (False, False), cfg.length)
    return SampleSet._of(cfg.colours, entries)


def gen_random_dfa(size: int, alphabet_size: int = 2,
                   seed: int = 0) -> ThreeValuedDFA:
    """Uniformly random complete DFA, resampled until all states are
    reachable from state 0.  Deterministic for a given seed.

    Each draw makes size * (alphabet_size + 1) rng.randrange calls, and
    the share of draws with every state reachable shrinks exponentially
    with the size, so the draws stop at LETTER_BUDGET calls.
    """
    if size < 1:
        raise ValueError("size must be at least 1")
    if alphabet_size < 1:
        raise ValueError("alphabet size must be at least 1")
    rng = random.Random(seed)
    for _ in range(LETTER_BUDGET // (size * (alphabet_size + 1))):
        transitions = {(q, a): rng.randrange(size)
                       for q in range(size) for a in range(alphabet_size)}
        accepting = frozenset(q for q in range(size) if rng.randrange(2))
        dfa = ThreeValuedDFA(alphabet_size, size, (0,), transitions,
                             accepting, frozenset(range(size)) - accepting)
        try:
            canonical_form(dfa)  # raises if a state is unreachable
        except ValueError:
            continue
        return dfa
    raise BudgetExceededError(
        f"no {size}-state DFA with every state reachable within the budget "
        f"of {LETTER_BUDGET} letters")


def _check_request(count: int, max_len: int, alphabet_size: int) -> int:
    """Refuse a random-corpus request before anything is drawn.

    count words of length up to max_len must be distinct, and count times
    max_len may not exceed LETTER_BUDGET letters.  Returns the number of
    words of length 0..max_len, counted only up to one past count's bit
    length: only whether the pool holds count and 2 * count words
    matters, which with two or more letters it does from there on, and a
    huge integer is not built.
    """
    if count < 0:
        raise ValueError("count must not be negative")
    if max_len < 0:
        raise ValueError("max_len must not be negative")
    if count * max_len > LETTER_BUDGET:
        raise BudgetExceededError(
            f"{count} words of length up to {max_len} exceed the budget of "
            f"{LETTER_BUDGET} letters")
    k = alphabet_size
    span = min(max_len, count.bit_length() + 1)
    pool = max_len + 1 if k == 1 else (k ** (span + 1) - 1) // (k - 1)
    if count > pool:
        raise ValueError(
            f"cannot draw {count} distinct words from a pool of {pool}")
    return pool


def gen_samples_from_dfa(dfa: ThreeValuedDFA, count: int, max_len: int,
                         seed: int = 0) -> SampleSet:
    """Draw count distinct words and label each with the hidden DFA.

    Word lengths are uniform on [0, max_len], letters uniform over the
    alphabet.  When the request covers most of the word pool the pool is
    enumerated and shuffled instead, so the draw always terminates.
    Requests that _check_request refuses raise before any draw.
    """
    k = dfa.alphabet_size
    pool = _check_request(count, max_len, k)
    rng = random.Random(seed)
    words: set[Word] = set()
    if count * 2 > pool:
        everything = [w for length in range(max_len + 1)
                      for w in itertools.product(range(k), repeat=length)]
        rng.shuffle(everything)
        words = set(everything[:count])
    else:
        while len(words) < count:
            length = rng.randint(0, max_len)
            words.add(tuple(rng.randrange(k) for _ in range(length)))
    return SampleSet._of(k, [
        (w, POSITIVE if run(dfa, w) == POSITIVE else NEGATIVE) for w in words])


def parity_stats(cfg: ParityConfig) -> tuple:
    """Corpus statistics: colours, length, sample counts, acceptor sizes.

    The sizes of the apta, min3dfa and ddfa acceptors, all three from one
    incremental construction: its register holds the min3dfa's states.
    """
    samples = gen_parity_samples(cfg)
    k = samples.alphabet_size
    signatures, root = _incremental(samples)
    return (cfg.colours, cfg.length, len(samples.positives),
            len(samples.negatives), _unfold(k, signatures, root).state_count,
            len(signatures), _split(k, signatures, root).state_count)

