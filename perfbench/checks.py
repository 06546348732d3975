"""Output checks that do not trust the program under test.

Sample files and automaton dumps are read and replayed here with a few
lines of code of the benchmark's own; sepdfa's parsers and its
verify_separating are never called.
"""

from __future__ import annotations

import re

_ATTEMPT_RE = re.compile(r"^n=(\d+) (sat|unsat) ")


def read_samples(path: str) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """Positive and negative words of a sample file."""
    with open(path, encoding="ascii") as handle:
        lines = handle.read().splitlines()
    count = int(lines[0].split()[0])
    if count != len(lines) - 1:
        raise ValueError(f"{path}: header says {count} samples, "
                         f"file holds {len(lines) - 1}")
    positives, negatives = [], []
    for line in lines[1:]:
        fields = [int(x) for x in line.split()]
        word = tuple(fields[2:])
        if fields[1] != len(word) or fields[0] not in (0, 1):
            raise ValueError(f"{path}: bad sample line {line!r}")
        (positives if fields[0] == 1 else negatives).append(word)
    return positives, negatives


def read_dfa(path: str) -> tuple[int, int, dict[tuple[int, int], int], set[int]]:
    """State count, initial state, transitions and accepting states."""
    with open(path, encoding="ascii") as handle:
        lines = handle.read().split("\n")
    head = lines[0].split()
    states, initial = int(head[1]), int(head[3])
    transitions: dict[tuple[int, int], int] = {}
    accepting: set[int] = set()
    for line in lines[1:]:
        fields = line.split()
        if fields[:1] == ["state"] and fields[2] == "A":
            accepting.add(int(fields[1]))
        elif fields[:1] == ["trans"]:
            transitions[(int(fields[1]), int(fields[2]))] = int(fields[3])
    return states, initial, transitions, accepting


def minimal_states(dfa_path: str) -> int:
    """States of the minimal DFA equivalent to a complete dumped DFA.

    Moore's partition refinement over the states reachable from the
    initial state.
    """
    _, initial, transitions, accepting = read_dfa(dfa_path)
    letters = sorted({a for _, a in transitions})
    reachable, frontier = {initial}, [initial]
    while frontier:
        q = frontier.pop()
        for a in letters:
            r = transitions[(q, a)]
            if r not in reachable:
                reachable.add(r)
                frontier.append(r)
    block = {q: int(q in accepting) for q in reachable}
    while True:
        signature = {q: (block[q], *(block[transitions[(q, a)]] for a in letters))
                     for q in reachable}
        numbering = {sig: i for i, sig in enumerate(sorted(set(signature.values())))}
        refined = {q: numbering[signature[q]] for q in reachable}
        if len(numbering) == len(set(block.values())):
            return len(numbering)
        block = refined


def replay_violations(dfa_path: str, samples_path: str) -> int:
    """Words the dumped DFA labels differently from the sample file."""
    _, initial, transitions, accepting = read_dfa(dfa_path)
    positives, negatives = read_samples(samples_path)
    wrong = 0
    for words, wanted in ((positives, True), (negatives, False)):
        for word in words:
            q = initial
            for letter in word:
                q = transitions.get((q, letter))
                if q is None:
                    break
            if q is None or (q in accepting) != wanted:
                wrong += 1
    return wrong


def mine_result(stdout: str) -> tuple[dict[int, str], int | None, bool]:
    """Verdict per attempted size, the minimal size, and 'verified yes'."""
    attempts: dict[int, str] = {}
    minimal = None
    verified = False
    for line in stdout.splitlines():
        match = _ATTEMPT_RE.match(line)
        if match:
            attempts[int(match.group(1))] = match.group(2)
        elif line.startswith("minimal size "):
            minimal = int(line.split()[2])
        elif line == "verified yes":
            verified = True
    return attempts, minimal, verified


def check_mine(stdout: str, dfa_path: str, samples_path: str,
               floor: int, expected: int | None = None,
               at_most: int | None = None) -> tuple[int | None, str | None]:
    """Check one `mine` run; return its minimum and a problem, if any.

    The minimum must be verified, its dump must have that many states and
    separate the samples, the size below it (when at least `floor`) must
    have been tried and found unsatisfiable, and it must equal `expected`
    or not exceed `at_most` when those are given.
    """
    attempts, minimal, verified = mine_result(stdout)
    if minimal is None or not verified:
        return None, "no verified minimal size in the output"
    if attempts.get(minimal) != "sat":
        return minimal, f"no sat line at n={minimal}"
    if minimal - 1 >= floor and attempts.get(minimal - 1) != "unsat":
        return minimal, f"no unsat line at n={minimal - 1}"
    if expected is not None and minimal != expected:
        return minimal, f"minimal size {minimal}, expected {expected}"
    if at_most is not None and minimal > at_most:
        return minimal, f"minimal size {minimal} exceeds {at_most}"
    states = read_dfa(dfa_path)[0]
    if states != minimal:
        return minimal, f"dump holds {states} states, minimum is {minimal}"
    wrong = replay_violations(dfa_path, samples_path)
    if wrong:
        return minimal, f"dump mislabels {wrong} sample words"
    return minimal, None


def check_counts(samples_path: str, positives: int, negatives: int) -> str | None:
    """Problem with a written sample file's header or label counts, if any."""
    with open(samples_path, encoding="ascii") as handle:
        header = handle.readline().split()
        labels = [line[:2] for line in handle]
    got = (labels.count("1 "), labels.count("0 "))
    if len(header) != 2 or header[0] != str(len(labels)) or len(labels) != sum(got):
        return f"{samples_path}: malformed header or sample lines"
    if got != (positives, negatives):
        return (f"{samples_path}: {got[0]} positive and {got[1]} negative "
                f"words, expected {positives} and {negatives}")
    return None
