"""Labelled word samples and the Abbadingo One text format.

Words are tuples of letter indices drawn from a fixed-size alphabet.  A
SampleSet, the one sample type from parser to acceptor builders, keeps
disjoint positive and negative example words; every word mentioned in
neither set is implicitly a don't-care.  SampleSet.entries() lists the
labelled words in ascending order, the order the builders consume.
"""

from __future__ import annotations

from dataclasses import dataclass

Word = tuple[int, ...]

POSITIVE = "+"
NEGATIVE = "-"
DONT_CARE = "?"


class SampleError(ValueError):
    """Malformed sample data, in a file or an in-memory set."""


class ConflictingLabelsError(SampleError):
    """The same word carries both a positive and a negative label."""


def _check_word(w: Word, alphabet_size: int) -> None:
    for a in w:
        if not 0 <= a < alphabet_size:
            raise SampleError(
                f"letter {a} out of range for alphabet size {alphabet_size}")


@dataclass(frozen=True)
class SampleSet:
    """Positive and negative example words over a fixed alphabet."""

    alphabet_size: int
    positives: frozenset[Word]
    negatives: frozenset[Word]

    def __post_init__(self) -> None:
        if self.alphabet_size < 1:
            raise SampleError("alphabet size must be at least 1")
        object.__setattr__(self, "positives", frozenset(self.positives))
        object.__setattr__(self, "negatives", frozenset(self.negatives))
        overlap = self.positives & self.negatives
        if overlap:
            w = sorted(overlap)[0]
            raise ConflictingLabelsError(
                f"word {w!r} labelled both positive and negative")
        for w in self.positives:
            _check_word(w, self.alphabet_size)
        for w in self.negatives:
            _check_word(w, self.alphabet_size)

    @property
    def size(self) -> int:
        return len(self.positives) + len(self.negatives)

    def entries(self) -> list[tuple[Word, str]]:
        """(word, label) pairs, words ascending as tuples.

        The first differing letter decides, and a proper prefix comes
        before its extensions.  The list is built afresh on every call.
        """
        entries = [(w, POSITIVE) for w in self.positives]
        entries += [(w, NEGATIVE) for w in self.negatives]
        entries.sort(key=lambda e: e[0])  # words only: faster, and distinct
        return entries


def classify(s: SampleSet, w: Word) -> str:
    """Label of w relative to the sample set: '+', '-' or '?'."""
    w = tuple(w)
    if w in s.positives:
        return POSITIVE
    if w in s.negatives:
        return NEGATIVE
    return DONT_CARE


def _parse_int(token: str, what: str, line_no: int) -> int:
    if not (token.isascii() and token.isdigit()):
        raise SampleError(f"line {line_no}: {what} is not a number: {token!r}")
    try:
        return int(token)
    except ValueError:  # more digits than int() converts
        raise SampleError(
            f"line {line_no}: {what} has too many digits") from None


def parse_abbadingo(text: str) -> SampleSet:
    """Parse Abbadingo One sample text.

    The header line carries the sample count and the alphabet size; each
    following line is "<label> <length> <letters...>" with label 1 for
    positive and 0 for negative.  Blank lines at the end are ignored.
    """
    lines = text.splitlines()
    while lines and not lines[-1].strip():
        lines.pop()
    if not lines:
        raise SampleError("empty sample file")
    header = lines[0].split()
    if len(header) != 2:
        raise SampleError("header must hold sample count and alphabet size")
    count = _parse_int(header[0], "sample count", 1)
    alphabet_size = _parse_int(header[1], "alphabet size", 1)
    if alphabet_size < 1:
        raise SampleError("alphabet size must be at least 1")
    if len(lines) - 1 != count:
        raise SampleError(
            f"header declares {count} samples, file holds {len(lines) - 1}")
    positives: set[Word] = set()
    negatives: set[Word] = set()
    for line_no, line in enumerate(lines[1:], start=2):
        fields = line.split()
        if len(fields) < 2:
            raise SampleError(f"line {line_no}: expected label and length")
        if fields[0] not in ("0", "1"):
            raise SampleError(f"line {line_no}: label must be 0 or 1")
        length = _parse_int(fields[1], "word length", line_no)
        if len(fields) - 2 != length:
            raise SampleError(
                f"line {line_no}: declared length {length}, "
                f"found {len(fields) - 2} letters")
        word = tuple(_parse_int(f, "letter", line_no) for f in fields[2:])
        _check_word(word, alphabet_size)
        if fields[0] == "1":
            if word in negatives:
                raise ConflictingLabelsError(
                    f"line {line_no}: word {word!r} already labelled negative")
            positives.add(word)
        else:
            if word in positives:
                raise ConflictingLabelsError(
                    f"line {line_no}: word {word!r} already labelled positive")
            negatives.add(word)
    return SampleSet(alphabet_size, frozenset(positives), frozenset(negatives))


def write_abbadingo(s: SampleSet) -> str:
    """Render a sample set as Abbadingo One text, words in ascending order.

    Inverse of parse_abbadingo up to duplicate collapsing: parsing the
    result reproduces the sample set exactly.
    """
    lines = [f"{s.size} {s.alphabet_size}"]
    for w, label in s.entries():
        bit = "1" if label == POSITIVE else "0"
        parts = [bit, str(len(w))] + [str(a) for a in w]
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"
