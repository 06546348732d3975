"""Labelled word samples and the Abbadingo One text format.

Words are tuples of letter indices drawn from a fixed-size alphabet.  A
SampleSet, the one sample type from parser to acceptor builders, holds
labelled example words, no word under both labels; every word mentioned
under neither label is implicitly a don't-care.  Its one representation is
the list of (word, label) pairs, words ascending, that entries() returns:
the order the builders, the writer and the replay consume.  It is sorted
once, when the set is made, and not at all when its producer already gave
ascending words, as the parser does on a sorted file and the parity
generator always does; the positive and negative frozensets are derived
from it on first use.  SampleSet is the one checker of letters and labels;
parse_abbadingo checks only the file format, whose numbers, like those of
automaton dumps, are runs of ASCII digits.
"""

from __future__ import annotations

from collections.abc import Iterable
from itertools import chain, islice, repeat
from operator import itemgetter, lt

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


_word = itemgetter(0)


def _ascending(words: list[Word]) -> bool:
    """Whether the words ascend strictly: one C-level pass over the
    adjacent pairs."""
    return all(map(lt, words, islice(words, 1, None)))


class SampleSet(_Record):
    """Labelled example words over a fixed alphabet.

    Made from positive and negative words, any iterables, a word repeated
    under one label counting once; SampleSet._of makes one from a list of
    (word, label) pairs.  Equal and hashed by its alphabet size and its
    positives and negatives frozensets.
    """

    __slots__ = ("alphabet_size", "_entries", "_positives", "_negatives")

    def __init__(self, alphabet_size: int, positives: Iterable[Word],
                 negatives: Iterable[Word]) -> None:
        self._settle(alphabet_size,
                     [*zip(positives, repeat(POSITIVE)),
                      *zip(negatives, repeat(NEGATIVE))])

    @classmethod
    def _of(cls, alphabet_size: int,
            entries: list[tuple[Word, str]]) -> SampleSet:
        """The set of the (word, label) pairs, labels POSITIVE or NEGATIVE.

        The set keeps the list, sorting it in place unless its words
        already ascend: the caller hands it over.
        """
        samples = cls.__new__(cls)
        samples._settle(alphabet_size, entries)
        return samples

    def _settle(self, alphabet_size: int,
                entries: list[tuple[Word, str]]) -> None:
        """Check and keep the entries, sorted by word if they are not.

        Sorting makes a repeated word its own neighbour: a repeat under the
        same label is dropped, and one under the other label raises,
        naming the smallest such word.  The letters are checked at once,
        by the least and greatest of the set of all of them; only a fault
        is looked for word by word, to name the first word that holds it.
        """
        if alphabet_size < 1:
            raise SampleError("alphabet size must be at least 1")
        words = list(map(_word, entries))
        if not _ascending(words):
            entries.sort(key=_word)  # stable, and by the words alone
            words = list(map(_word, entries))
            if not _ascending(words):
                entries = _distinct(entries)
                words = list(map(_word, entries))
        letters = set().union(*words)
        if letters and not 0 <= min(letters) <= max(letters) < alphabet_size:
            for w in words:
                _check_word(w, alphabet_size)
        self.alphabet_size = alphabet_size
        self._entries = entries

    def _fields(self) -> tuple:
        return self.alphabet_size, self.positives, self.negatives

    def __repr__(self) -> str:
        return (f"SampleSet(alphabet_size={self.alphabet_size!r}, "
                f"positives={self.positives!r}, "
                f"negatives={self.negatives!r})")

    @property
    def positives(self) -> frozenset[Word]:
        try:
            return self._positives
        except AttributeError:
            self._positives = self._labelled(POSITIVE)
            return self._positives

    @property
    def negatives(self) -> frozenset[Word]:
        try:
            return self._negatives
        except AttributeError:
            self._negatives = self._labelled(NEGATIVE)
            return self._negatives

    def _labelled(self, label: str) -> frozenset[Word]:
        return frozenset([w for w, of in self._entries if of == label])

    @property
    def size(self) -> int:
        return len(self._entries)

    def entries(self) -> list[tuple[Word, str]]:
        """(word, label) pairs, words ascending as tuples.

        The first differing letter decides, and a proper prefix comes
        before its extensions.  The list is the set's own, sorted when the
        set was made: read it, do not change it.
        """
        return self._entries


def _distinct(entries: list[tuple[Word, str]]) -> list[tuple[Word, str]]:
    """Entries sorted by word, each word once; raises
    ConflictingLabelsError at the first word under both labels."""
    kept = entries[:1]
    for entry in islice(entries, 1, None):
        last = kept[-1]
        if entry[0] != last[0]:
            kept.append(entry)
        elif entry[1] != last[1]:
            raise ConflictingLabelsError(
                f"word {entry[0]!r} labelled both positive and negative")
    return kept


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
    entries: list[tuple[Word, str]] = []
    for start in range(1, len(lines), _CHUNK_LINES):
        chunk = lines[start:start + _CHUNK_LINES]
        if not _add_chunk(chunk, entries):
            _add_lines(chunk, start + 1, entries)  # raises at the first fault
    return SampleSet._of(alphabet_size, entries)


# A sample line's label field -> its label.
_LABELS = {"1": POSITIVE, "0": NEGATIVE}


def _add_chunk(chunk: list[str], entries: list[tuple[Word, str]]) -> bool:
    """Append the (word, label) pairs of well-formed sample lines.

    One table lookup, or else one digit check and one int conversion,
    covers all of the chunk's fields.  False if some line is malformed,
    perhaps after appending the pairs of the lines before it.
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
        label = _LABELS.get(fields[0]) if len(fields) > 1 else None
        if label is None or values[start + 1] != len(fields) - 2:
            return False
        entries.append((tuple(values[start + 2:end]), label))
    return True


def _add_lines(lines: list[str], line_no: int,
               entries: list[tuple[Word, str]]) -> None:
    """_add_chunk one line at a time, the first numbered line_no, raising
    SampleError at the first malformed line."""
    for line_no, line in enumerate(lines, start=line_no):
        fields = line.split()
        if len(fields) < 2:
            raise SampleError(f"line {line_no}: expected label and length")
        label = _LABELS.get(fields[0])
        if label is None:
            raise SampleError(f"line {line_no}: label must be 0 or 1")
        try:
            numbers = _parse_numbers(fields[1:])
        except ValueError as err:
            raise SampleError(f"line {line_no}: {err}") from None
        if len(numbers) - 1 != numbers[0]:
            raise SampleError(
                f"line {line_no}: declared length {numbers[0]}, "
                f"found {len(numbers) - 1} letters")
        entries.append((numbers[1:], label))


def write_abbadingo(s: SampleSet) -> str:
    """Render a sample set as Abbadingo One text, words in ascending order.

    Inverse of parse_abbadingo up to duplicate collapsing: parsing the
    result reproduces the sample set exactly.
    """
    lines = [f"{s.size} {s.alphabet_size}"]
    for w, label in s.entries():
        bit = "1" if label == POSITIVE else "0"
        lines.append(f"{bit} {len(w)} {' '.join(map(str, w))}" if w
                     else f"{bit} 0")
    lines.append("")  # the final newline
    return "\n".join(lines)
