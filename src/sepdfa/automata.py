"""Three-valued automata, the one automaton type from acceptor to replay.

Provides the prefix-tree acceptor, an incremental construction that
keeps the working automaton minimal while samples stream in ascending
order, and the double automaton that places one minimal acceptor per
polarity side by side, each with its own initial state.  The three
builders take a SampleSet, read its entries() in ascending order, and
return a ThreeValuedDFA.  Every minimal acceptor is numbered by
canonical_form's one rule: breadth first from each initial state in
turn, letters ascending, transitions stored in that order.  The same
type holds the DFA decoded from a solver model, a hidden random DFA and
a parsed dump, whose numbers follow the sample files' rule.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

from .samples import (DONT_CARE, NEGATIVE, POSITIVE, SampleSet, Word,
                      _parse_numbers)

_STATUS_CODES = {POSITIVE: "A", NEGATIVE: "R", DONT_CARE: "D"}
_CODE_STATUS = {v: k for k, v in _STATUS_CODES.items()}


class AutomatonFormatError(ValueError):
    """Malformed automaton dump text."""


@dataclass(frozen=True)
class ThreeValuedDFA:
    """Deterministic acceptor whose states accept, reject or don't care.

    The transition map may be partial; a run that hits a missing entry is
    undefined.  States are numbered 0 .. state_count - 1.  Most automata
    have one initial state; the double automaton has two, one per
    polarity.  A DFA is total, with one initial state and no don't-care
    state.
    """

    alphabet_size: int
    state_count: int
    initials: tuple[int, ...]
    transitions: dict[tuple[int, int], int]
    accepting: frozenset[int]
    rejecting: frozenset[int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "initials", tuple(self.initials))
        object.__setattr__(self, "accepting", frozenset(self.accepting))
        object.__setattr__(self, "rejecting", frozenset(self.rejecting))
        if self.state_count < 1:
            raise ValueError("automaton needs at least one state")
        if not self.initials:
            raise ValueError("automaton needs an initial state")
        if len(set(self.initials)) != len(self.initials):
            raise ValueError("initial states repeat")
        for q in self.initials:
            if not 0 <= q < self.state_count:
                raise ValueError(f"initial state {q} out of range")
        if self.accepting & self.rejecting:
            raise ValueError("accepting and rejecting state sets overlap")
        for q in self.accepting | self.rejecting:
            if not 0 <= q < self.state_count:
                raise ValueError(f"status state {q} out of range")
        for (q, a), r in self.transitions.items():
            if not (0 <= q < self.state_count and 0 <= r < self.state_count
                    and 0 <= a < self.alphabet_size):
                raise ValueError(f"bad transition ({q}, {a}) -> {r}")

    def status(self, q: int) -> str:
        if q in self.accepting:
            return POSITIVE
        if q in self.rejecting:
            return NEGATIVE
        return DONT_CARE


def _check_dfa(a: ThreeValuedDFA) -> None:
    """Raise AutomatonFormatError unless a is a DFA: one initial state, a
    transition for every state and letter, and no don't-care state."""
    if len(a.initials) != 1:
        raise AutomatonFormatError("a DFA has a single initial state")
    if len(a.transitions) != a.state_count * a.alphabet_size:
        raise AutomatonFormatError("automaton is not complete")
    if len(a.accepting) + len(a.rejecting) != a.state_count:
        raise AutomatonFormatError("automaton has don't-care states")


def run(a: ThreeValuedDFA, w: Word) -> str | None:
    """Classify w with the acceptor, trying each initial state in turn.

    The first run that ends in an accepting or rejecting state decides.
    Otherwise the result is don't-care when some run ends in a state, and
    None when every run becomes undefined.
    """
    for letter in w:
        if not 0 <= letter < a.alphabet_size:
            raise ValueError(f"letter {letter} outside alphabet")
    outcome = None
    for q in a.initials:
        for letter in w:
            q = a.transitions.get((q, letter))
            if q is None:
                break
        else:
            outcome = a.status(q)
            if outcome != DONT_CARE:
                return outcome
    return outcome


def build_apta(samples: SampleSet) -> ThreeValuedDFA:
    """Prefix-tree acceptor: one state per distinct prefix of the samples."""
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


def _successors(a: ThreeValuedDFA) -> list[list[tuple[int, int]]]:
    """Per-state (letter, successor) lists, letters ascending."""
    succ: list[list[tuple[int, int]]] = [[] for _ in range(a.state_count)]
    for (q, letter), r in a.transitions.items():
        succ[q].append((letter, r))
    for kids in succ:
        kids.sort()
    return succ


def _numbered(alphabet_size: int, signatures: list[tuple],
              roots: tuple[int, ...]) -> ThreeValuedDFA:
    """Acceptor of (status, ((letter, successor), ...)) signatures, one per
    state, letters ascending, renumbered by canonical_form's rule."""
    order: dict[int, int] = {}
    seq: list[int] = []
    for root in roots:
        if root not in order:
            part = [root]
            order[root] = len(seq)
            for q in part:  # grows while it is walked: a breadth-first queue
                for _, r in signatures[q][1]:
                    if r not in order:
                        order[r] = len(seq) + len(part)
                        part.append(r)
            seq += part
    if len(seq) != len(signatures):
        raise ValueError("automaton has unreachable states")
    transitions = {(order[q], letter): order[r]
                   for q in seq for letter, r in signatures[q][1]}
    statuses = [signatures[q][0] for q in seq]
    return ThreeValuedDFA(
        alphabet_size, len(seq), tuple(order[r] for r in roots), transitions,
        frozenset(i for i, s in enumerate(statuses) if s == POSITIVE),
        frozenset(i for i, s in enumerate(statuses) if s == NEGATIVE))


def canonical_form(a: ThreeValuedDFA) -> ThreeValuedDFA:
    """Renumber states breadth first from each initial state in turn.

    The first initial state becomes 0 and the states it reaches follow
    in discovery order, letters ascending; then the next initial state,
    unless already numbered, and the states only it reaches.  Parts
    that share no state are thus numbered on their own, one after the
    other.  Transitions are stored by new state, then letter.  Raises if
    any state is unreachable from the initial states; callers that
    tolerate junk states must prune them first.
    """
    succ = _successors(a)
    return _numbered(a.alphabet_size,
                     [(a.status(q), kids) for q, kids in enumerate(succ)],
                     a.initials)


class _IncrementalBuilder:
    """Grows a minimal acyclic automaton from ascending samples.

    Only the latest word's path is unminimised: a stack of [status,
    children] entries, root first.  The register numbers every other
    state by its (status, children) signature, for good.  A new word
    folds the stacked states below its common prefix with the previous
    word into the register and pushes its suffix.  The registered and
    stacked states never outnumber the distinct prefixes of the words
    added so far.
    """

    def __init__(self):
        self.register: dict[tuple, int] = {}
        self.stack: list[list] = [[DONT_CARE, {}]]
        self.prev: Word = ()

    def _fold(self, depth: int) -> int | None:
        """Register the stacked states below depth, deepest first.

        Each becomes its parent's last child, keeping children in letter
        order.  Returns the root's number once the root is folded.
        """
        stack, register = self.stack, self.register
        while len(stack) > depth:
            status, kids = stack.pop()
            q = register.setdefault((status, tuple(kids.items())),
                                    len(register))
            if not stack:
                return q
            stack[-1][1][self.prev[len(stack) - 1]] = q
        return None

    def add(self, w: Word, label: str) -> None:
        common = 0
        for a, b in zip(w, self.prev):
            if a != b:
                break
            common += 1
        self._fold(common + 1)
        self.stack.extend([DONT_CARE, {}] for _ in range(common, len(w)))
        self.stack[-1][0] = label
        self.prev = w

    def finish(self) -> tuple[int, list[tuple]]:
        """Fold the last word in; return the root and the signatures.

        Signature q is state q's (status, ((letter, successor), ...)),
        letters ascending, for each state reachable from the root; the
        builders renumber them by canonical_form's rule.
        """
        root = self._fold(0)
        return root, list(self.register)


def build_min_3dfa_incremental(samples: SampleSet) -> ThreeValuedDFA:
    """Minimal three-valued automaton for the samples, built incrementally.

    The minimal form of build_apta(samples), numbered by canonical_form's
    rule, built in one pass without the prefix tree (Daciuk et al., 2000):
    the working automaton, a register of minimised states plus the
    stacked path of the latest word, never grows beyond the number of
    distinct sample prefixes.  The tests hold it to a backward
    minimisation of the prefix tree, field for field.
    """
    builder = _IncrementalBuilder()
    for w, label in samples.entries():
        builder.add(w, label)
    root, signatures = builder.finish()
    return _numbered(samples.alphabet_size, signatures, (root,))


def build_ddfa(samples: SampleSet) -> ThreeValuedDFA:
    """Minimal per-polarity acceptors side by side, one initial state each.

    States 0 .. P - 1 are the minimal acceptor of the positive words with
    initial state 0.  The minimal acceptor of the negative words follows,
    shifted by P, with initial state P; its accepting states are the
    rejecting ones.  One pass over the entries feeds both builders, and
    canonical_form's rule numbers their joined registers at once.
    """
    builders = {POSITIVE: _IncrementalBuilder(),
                NEGATIVE: _IncrementalBuilder()}
    for w, label in samples.entries():
        builders[label].add(w, label)
    pos_root, signatures = builders[POSITIVE].finish()
    neg_root, negatives = builders[NEGATIVE].finish()
    off = len(signatures)
    signatures += [(status, tuple((a, r + off) for a, r in kids))
                   for status, kids in negatives]
    return _numbered(samples.alphabet_size, signatures,
                     (pos_root, neg_root + off))


def dump_automaton(a: ThreeValuedDFA) -> str:
    """Line-oriented text dump: header, status per state, transitions."""
    if len(a.initials) != 1:
        raise ValueError("the dump format holds a single initial state")
    # One text buffer and a sorted list of the keys, not of the items:
    # a dump of millions of transitions holds no copy of them.
    out = io.StringIO()
    out.write(f"states {a.state_count} initial {a.initials[0]} "
              f"alphabet {a.alphabet_size}\n")
    for q in range(a.state_count):
        out.write(f"state {q} {_STATUS_CODES[a.status(q)]}\n")
    transitions = a.transitions
    for key in sorted(transitions):
        out.write(f"trans {key[0]} {key[1]} {transitions[key]}\n")
    return out.getvalue()


def _numbers(fields: list[str], line: str) -> tuple[int, ...]:
    try:
        return _parse_numbers(fields)
    except ValueError as err:
        raise AutomatonFormatError(f"{err} in {line!r}") from None


def parse_automaton(text: str) -> ThreeValuedDFA:
    """Parse the dump format back into a three-valued automaton."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise AutomatonFormatError("empty automaton dump")
    head = lines[0].split()
    if (len(head) != 6 or head[0] != "states" or head[2] != "initial"
            or head[4] != "alphabet"):
        raise AutomatonFormatError(f"bad header line: {lines[0]!r}")
    state_count, initial, alphabet_size = _numbers(head[1::2], lines[0])
    statuses: dict[int, str] = {}
    transitions: dict[tuple[int, int], int] = {}
    for ln in lines[1:]:
        fields = ln.split()
        if fields[0] == "state" and len(fields) == 3:
            (q,) = _numbers(fields[1:2], ln)
            if q in statuses:
                raise AutomatonFormatError(f"duplicate state line for {q}")
            if fields[2] not in _CODE_STATUS:
                raise AutomatonFormatError(
                    f"unknown status code {fields[2]!r}")
            statuses[q] = fields[2]
        elif fields[0] == "trans" and len(fields) == 4:
            q, letter, r = _numbers(fields[1:], ln)
            if (q, letter) in transitions:
                raise AutomatonFormatError(
                    f"duplicate transition for state {q} letter {letter}")
            transitions[q, letter] = r
        else:
            raise AutomatonFormatError(f"bad line: {ln!r}")
    if (len(statuses) != state_count
            or sorted(statuses) != list(range(state_count))):
        raise AutomatonFormatError("state lines do not cover every state once")
    try:
        return ThreeValuedDFA(
            alphabet_size, state_count, (initial,), transitions,
            frozenset(q for q, code in statuses.items() if code == "A"),
            frozenset(q for q, code in statuses.items() if code == "R"))
    except ValueError as err:
        raise AutomatonFormatError(str(err)) from None

