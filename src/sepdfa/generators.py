"""Benchmark corpora: parity-game words and random hidden DFAs.

Parity corpora label every fixed-length word over the colour alphabet by
the cycles it closes; random corpora label sampled words with a hidden
random DFA so the miner's result can be compared against its size.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .automata import LearnedDFA, build_apta, build_ddfa, build_min_3dfa_incremental
from .samples import DONT_CARE, NEGATIVE, POSITIVE, SampleSet, Word


class BudgetExceededError(ValueError):
    """Enumerating the corpus would exceed the word budget."""


@dataclass(frozen=True)
class ParityConfig:
    """A parity corpus: all words of one length over the colour alphabet."""

    colours: int
    length: int

    def __post_init__(self) -> None:
        if self.colours < 2:
            raise ValueError("parity corpora need at least two colours")
        if self.length <= self.colours:
            raise ValueError("word length must exceed the colour count")

    @property
    def word_count(self) -> int:
        return self.colours ** self.length


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


def gen_parity_samples(cfg: ParityConfig,
                       budget: int = 100_000_000) -> SampleSet:
    """Classify every length-cfg.length colour word; drop the don't-cares."""
    if cfg.word_count > budget:
        raise BudgetExceededError(
            f"{cfg.colours}^{cfg.length} = {cfg.word_count} words exceed "
            f"the budget of {budget}")
    positives = []
    negatives = []
    for w in itertools.product(range(cfg.colours), repeat=cfg.length):
        label = classify_parity_word(w, cfg.colours)
        if label == POSITIVE:
            positives.append(w)
        elif label == NEGATIVE:
            negatives.append(w)
    return SampleSet(cfg.colours, frozenset(positives), frozenset(negatives))


def _all_reachable(transitions: dict[tuple[int, int], int], size: int,
                   alphabet_size: int) -> bool:
    seen = {0}
    frontier = [0]
    while frontier:
        q = frontier.pop()
        for a in range(alphabet_size):
            r = transitions[(q, a)]
            if r not in seen:
                seen.add(r)
                frontier.append(r)
    return len(seen) == size


def gen_random_dfa(size: int, alphabet_size: int = 2,
                   seed: int = 0) -> LearnedDFA:
    """Uniformly random complete DFA, resampled until all states are
    reachable from state 0.  Deterministic for a given seed."""
    if size < 1:
        raise ValueError("size must be at least 1")
    if alphabet_size < 1:
        raise ValueError("alphabet size must be at least 1")
    rng = random.Random(seed)
    while True:
        transitions = {(q, a): rng.randrange(size)
                       for q in range(size) for a in range(alphabet_size)}
        accepting = frozenset(q for q in range(size) if rng.randrange(2))
        if _all_reachable(transitions, size, alphabet_size):
            return LearnedDFA(alphabet_size, size, transitions, accepting)


def gen_samples_from_dfa(dfa: LearnedDFA, count: int, max_len: int,
                         seed: int = 0) -> SampleSet:
    """Draw count distinct words and label each with the hidden DFA.

    Word lengths are uniform on [0, max_len], letters uniform over the
    alphabet.  When the request covers most of the word pool the pool is
    enumerated and shuffled instead, so the draw always terminates.
    """
    if count < 0:
        raise ValueError("count must not be negative")
    if max_len < 0:
        raise ValueError("max_len must not be negative")
    k = dfa.alphabet_size
    pool = sum(k ** i for i in range(max_len + 1))
    if count > pool:
        raise ValueError(
            f"cannot draw {count} distinct words from a pool of {pool}")
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
    positives = frozenset(w for w in words if dfa.accepts(w))
    return SampleSet(k, positives, frozenset(words) - positives)


def parity_stats(cfg: ParityConfig, budget: int = 100_000_000) -> tuple:
    """Corpus statistics: colours, length, sample counts, acceptor sizes."""
    samples = gen_parity_samples(cfg, budget)
    return (cfg.colours, cfg.length, len(samples.positives),
            len(samples.negatives), build_apta(samples).state_count,
            build_min_3dfa_incremental(samples).state_count,
            build_ddfa(samples).state_count)


def format_stats_line(stats: tuple) -> str:
    return "\t".join(str(x) for x in stats)
