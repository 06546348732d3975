"""Labelled word samples and the Abbadingo One text format.

Words are tuples of letter indices drawn from a fixed-size alphabet.  A
SampleSet, the one sample type from parser to acceptor builders, keeps
disjoint positive and negative example words; every word mentioned in
neither set is implicitly a don't-care.  SampleSet.entries() lists the
labelled words in ascending order, the order the builders consume.
SampleSet is the one checker of letters and labels; parse_abbadingo checks
only the file format, whose numbers, like those of automaton dumps, are
runs of ASCII digits.
"""

from __future__ import annotations

from itertools import chain

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
            raise SampleError(f"word {w!r}: letter {a} out of range for "
                              f"alphabet size {alphabet_size}")


class _Record:
    """Base of the package's value types, in place of dataclasses, whose
    import would cost every command line more than parsing its arguments.

    A subclass names its fields in __slots__ and sets each of them once, in
    its __init__; setting a field again, or deleting one, raises
    AttributeError.  Two instances are equal when their classes and fields
    are, the hash is the fields' (so a dict field makes it unhashable), and
    the repr reads Class(field=value, ...).
    """

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name: str, value) -> None:
        if hasattr(self, name):
            raise AttributeError(f"cannot assign to field {name!r}")
        object.__setattr__(self, name, value)

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"


class SampleSet(_Record):
    """Positive and negative example words over a fixed alphabet."""

    __slots__ = ("alphabet_size", "positives", "negatives")

    def __init__(self, alphabet_size: int, positives: frozenset[Word],
                 negatives: frozenset[Word]) -> None:
        if alphabet_size < 1:
            raise SampleError("alphabet size must be at least 1")
        self.alphabet_size = alphabet_size
        self.positives = frozenset(positives)
        self.negatives = frozenset(negatives)
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


def _parse_numbers(fields: list[str]) -> tuple[int, ...]:
    """The fields, one or more as str.split() gives them, as ints.

    The number rule of both text formats: raises ValueError unless every
    field is a run of ASCII digits with no more digits than int() converts.
    """
    digits = "".join(fields)  # one isascii() and isdigit() call per line
    if not (digits.isascii() and digits.isdigit()):
        bad = next(f for f in fields if not (f.isascii() and f.isdigit()))
        raise ValueError(f"not a number: {bad!r}")
    try:
        return tuple(map(int, fields))
    except ValueError:  # more digits than int() converts
        raise ValueError("too many digits") from None


# Sample lines per parse chunk.  A chunk's fields are checked and
# converted at once, and only a chunk that fails is parsed again line by
# line, for the exact message; the bound keeps its copies small.
_CHUNK_LINES = 1024
# The numbers below 1024 by their text without leading zeros: looking a
# field up here converts it and shows it ASCII digits, at a third of int()'s
# cost.
_SMALL = {str(i): i for i in range(1024)}


def parse_abbadingo(text: str) -> SampleSet:
    """Parse Abbadingo One sample text.

    The header line carries the sample count and the alphabet size; each
    following line is "<label> <length> <letters...>" with label 1 for
    positive and 0 for negative.  Blank lines at the end are ignored.
    The alphabet size, the letters and the labels are SampleSet's to check.
    """
    lines = text.splitlines()
    while lines and not lines[-1].strip():
        lines.pop()
    if not lines:
        raise SampleError("empty sample file")
    header = lines[0].split()
    if len(header) != 2:
        raise SampleError("header must hold sample count and alphabet size")
    try:
        count, alphabet_size = _parse_numbers(header)
    except ValueError as err:
        raise SampleError(f"line 1: {err}") from None
    if len(lines) - 1 != count:
        raise SampleError(
            f"header declares {count} samples, file holds {len(lines) - 1}")
    words: dict[str, set[Word]] = {"1": set(), "0": set()}
    for start in range(1, len(lines), _CHUNK_LINES):
        chunk = lines[start:start + _CHUNK_LINES]
        if not _add_chunk(chunk, words):
            _add_lines(chunk, start + 1, words)  # raises at the first fault
    return SampleSet(alphabet_size, words["1"], words["0"])


def _add_chunk(chunk: list[str], words: dict[str, set[Word]]) -> bool:
    """Add the words of well-formed sample lines to words by label.

    One table lookup, or else one digit check and one int conversion,
    covers all of the chunk's fields.  False if some line is malformed,
    perhaps after adding the words of the lines before it.
    """
    rows = [line.split() for line in chunk]
    try:
        values = list(map(_SMALL.__getitem__, chain.from_iterable(rows)))
    except KeyError:
        digits = "".join(chain.from_iterable(rows))
        if not (digits.isascii() and digits.isdigit()):
            return False
        try:
            values = list(map(int, chain.from_iterable(rows)))
        except ValueError:  # more digits than int() converts
            return False
    end = 0
    for fields in rows:
        start, end = end, end + len(fields)
        labelled = words.get(fields[0]) if len(fields) > 1 else None
        if labelled is None or values[start + 1] != len(fields) - 2:
            return False
        labelled.add(tuple(values[start + 2:end]))
    return True


def _add_lines(lines: list[str], line_no: int,
               words: dict[str, set[Word]]) -> None:
    """_add_chunk one line at a time, the first numbered line_no, raising
    SampleError at the first malformed line."""
    for line_no, line in enumerate(lines, start=line_no):
        fields = line.split()
        if len(fields) < 2:
            raise SampleError(f"line {line_no}: expected label and length")
        labelled = words.get(fields[0])
        if labelled is None:
            raise SampleError(f"line {line_no}: label must be 0 or 1")
        try:
            numbers = _parse_numbers(fields[1:])
        except ValueError as err:
            raise SampleError(f"line {line_no}: {err}") from None
        if len(numbers) - 1 != numbers[0]:
            raise SampleError(
                f"line {line_no}: declared length {numbers[0]}, "
                f"found {len(numbers) - 1} letters")
        labelled.add(numbers[1:])


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
