"""Search for the smallest DFA separating a sample set.

The miner builds the minimal three-valued acceptor of the samples, which
bounds the search at both ends: a clique of pairwise-incompatible states
proves the lower bound, and completing the acceptor with a rejecting sink
gives a separator one state larger.  It then asks the SAT solver for
candidate DFAs of growing size until one exists.  The mode picks the
acceptor the formula ties the candidate to, not the sizes: the raw prefix
tree, the incrementally minimised three-valued automaton, or the
per-polarity double automaton with one initial state per polarity; the
first and last are derived from a minimal one.  The formula is built on
the mode's acceptor of a subset of the samples, which grows from the
words that a candidate mislabels: an unsat verdict on a subset refutes
its size for every sample, and a candidate is reported only once it is
replayed on every sample.  The decoded DFA is a ThreeValuedDFA too.
"""

from __future__ import annotations

import time
from itertools import compress, count, islice
from operator import itemgetter

from . import automata
from .automata import (AutomatonFormatError, ThreeValuedDFA, _check_dfa,
                       _signatures, _split, _split_registers, _tree_size,
                       _unfold)
from .encoding import build_formula, decode_model
from .samples import NEGATIVE, POSITIVE, SampleSet, Word, _Record
from .solver import DEFAULT_SOLVER_COMMAND, _check_timeout, solve

# Mode -> how its acceptor follows from the min3dfa acceptor, the one
# word-by-word construction of a mine, which the bounds need anyway: the
# prefix tree unfolds it and the double automaton splits it by polarity.
# The builder is looked up in automata on each call, so a wrapper bound
# over the module attribute (perfbench/tracer.py's spans) sees the build.
_DERIVATIONS = {"apta": _unfold, "min3dfa": None, "ddfa": _split}
MODES = tuple(_DERIVATIONS)
# Mode -> the state count of its acceptor, from the min3dfa acceptor's
# signatures and root, without building it: a report's acceptor size.
_SIZES = {"apta": _tree_size,
          "min3dfa": lambda signatures, root: len(signatures),
          "ddfa": lambda signatures, root: len(
              _split_registers(signatures, root)[0])}

# The subset policy, measured in CHANGES.md.  The first subset holds the
# _FIRST_WORDS shortest words, or the shortest 1/_FIRST_SHARE of them when
# that is more, and a failed replay adds at most as many of the shortest
# mislabelled words as the subset holds.  But when the mode's acceptor of
# all the samples has fewer than 1/_SHARED as many states as there are
# samples, the search encodes all of them from the start: the words share
# so much that its formulas stay small, while each failed replay reads
# every word.  In process, the benchmark's 9 parity-safety and 15
# random-search mines took 0.63 and 0.32 s of CPU under this policy, 0.82
# and 0.43 s without the last rule, and 1.18 and 0.59 s on all samples.
_FIRST_WORDS = 50
_FIRST_SHARE = 16
_SHARED = 4


class SizeRangeError(ValueError):
    """The requested candidate sizes are invalid or empty.

    Also raised for safety mode on a one-letter alphabet, where the
    parity shape it pins needs two colours.
    """


class MiningError(RuntimeError):
    """Mining could not complete; .report holds the attempts so far."""


class NoSeparatorError(MiningError):
    """No DFA of the permitted sizes and shape separates the samples.

    An answer, not a fault: the user's n_max was too small, or safety mode
    found no safety-shaped separator up to the bound.
    """


class SizeAttempt(_Record):
    """One candidate size tried against the solver."""

    __slots__ = ("n", "outcome", "words", "variables", "clauses",
                 "encode_seconds", "solve_seconds")

    def __init__(self, n: int, outcome: str, words: int, variables: int,
                 clauses: int, encode_seconds: float,
                 solve_seconds: float) -> None:
        self.n = n
        # "unsat", "sat", or "spurious": the solver's model separates the
        # subset but not every sample, so n is solved again on more words
        self.outcome = outcome
        self.words = words  # the size of the sample subset encoded
        self.variables = variables
        self.clauses = clauses
        # wall time of build_formula growing to size n
        self.encode_seconds = encode_seconds
        self.solve_seconds = solve_seconds


class MiningReport(_Record):
    """The attempts of one mine so far, and its verified DFA once found."""

    __slots__ = ("mode", "safety", "symmetry_breaking", "acceptor_size",
                 "lower_bound", "attempts", "dfa", "claim")
    __setattr__ = object.__setattr__  # filled in as the mine runs
    __hash__ = None

    def __init__(self, mode: str, safety: bool, symmetry_breaking: bool,
                 acceptor_size: int, lower_bound: int,
                 attempts: list[SizeAttempt] | None = None,
                 dfa: ThreeValuedDFA | None = None, claim: str = "") -> None:
        self.mode = mode
        self.safety = safety
        self.symmetry_breaking = symmetry_breaking
        self.acceptor_size = acceptor_size
        # size of incompatible_clique on the min3dfa acceptor
        self.lower_bound = lower_bound
        self.attempts = [] if attempts is None else attempts
        self.dfa = dfa  # set only once it is verified
        # set with dfa, by _claim: "minimal size n" or why not
        self.claim = claim

    @property
    def minimal_size(self) -> int | None:
        """The verified DFA's size, proven minimal or not (the claim says
        which): perfbench/test_refsolver.py reads it after pinning
        n_start = n_max = n."""
        return self.dfa.state_count if self.dfa is not None else None

    def to_text(self) -> str:
        lines = [
            f"mode {self.mode}",
            f"safety {'on' if self.safety else 'off'}",
            f"symmetry-breaking {'on' if self.symmetry_breaking else 'off'}",
            f"acceptor size {self.acceptor_size}",
            f"lower bound {self.lower_bound}",
        ]
        for att in self.attempts:
            lines.append(
                f"n={att.n} {att.outcome} words={att.words} "
                f"vars={att.variables} "
                f"clauses={att.clauses} encode={att.encode_seconds:.3f}s "
                f"time={att.solve_seconds:.3f}s")
        if self.dfa is not None:
            lines += [self.claim, "verified yes"]
        return "\n".join(lines) + "\n"


def _claim(report: MiningReport) -> str:
    """What the report's attempts show of its verified DFA of n states.

    The DFA is minimal when the clique already demands n states, or the
    solver refuted n - 1; nothing else counts as evidence.
    """
    n = report.dfa.state_count
    if n <= report.lower_bound or any(
            att.n == n - 1 and att.outcome == "unsat"
            for att in report.attempts):
        return f"minimal size {n}"
    return f"separating size {n}\nminimality not shown: n={n - 1} not tried"


def _incompatible_sets(acceptor: ThreeValuedDFA) -> list[int]:
    """Per state, the bitset of states incompatible with it.

    Seeded with every (accepting, rejecting) pair, then propagated
    backwards: p and q are incompatible when some letter takes them to an
    incompatible pair.
    """
    n = acceptor.state_count
    # into[r][a]: the bitset of states whose letter-a transition enters r,
    # for the letters that enter r at all.
    into: list[dict[int, int]] = [{} for _ in range(n)]
    for (q, a), r in acceptor.transitions.items():
        into[r][a] = into[r].get(a, 0) | 1 << q
    incompatible = [0] * n
    accepting = sum(1 << q for q in acceptor.accepting)
    rejecting = sum(1 << q for q in acceptor.rejecting)
    for q in acceptor.accepting:
        incompatible[q] = rejecting
    for q in acceptor.rejecting:
        incompatible[q] = accepting
    work = [(p, q) for p in acceptor.accepting for q in acceptor.rejecting]
    while work:
        p, q = work.pop()
        into_q = into[q]
        for a, p_bits in into[p].items():
            q_bits = into_q.get(a)
            if q_bits is None:
                continue
            while p_bits:
                low = p_bits & -p_bits
                pp = low.bit_length() - 1
                p_bits ^= low
                fresh = q_bits & ~incompatible[pp]
                if not fresh:
                    continue
                incompatible[pp] |= fresh
                while fresh:
                    low = fresh & -fresh
                    qq = low.bit_length() - 1
                    fresh ^= low
                    incompatible[qq] |= 1 << pp
                    work.append((pp, qq))
    return incompatible


def incompatible_clique(acceptor: ThreeValuedDFA) -> tuple[int, ...]:
    """States that pairwise lead, on some suffix, to opposite labels.

    Two states are incompatible when one suffix takes the first to an
    accepting state and the second to a rejecting one, or the other way
    round (Heule & Verwer, ICGI 2010).  The words reaching them must end in
    different states of any DFA that labels the acceptor's words alike, so
    a clique of c such states proves that no DFA with fewer than c states
    separates the samples.  The clique is grown greedily inside each
    state's neighbourhood, always by the candidate with the most neighbours
    among the remaining candidates (the lowest on a tie); the largest is
    returned, sorted.

    Seeds that cannot give a larger clique are skipped.  The states are
    first coloured greedily, in seed order, into classes of pairwise
    compatible states; a clique meets each class at most once, so a seed
    whose neighbourhood meets fewer classes than the best clique has
    members is passed over, and the search ends when the best clique
    meets every class.  Only a strictly larger clique replaces the best,
    so the skips leave the returned clique as it is.
    """
    incompatible = _incompatible_sets(acceptor)
    degrees = [bits.bit_count() for bits in incompatible]
    # Seeds by falling degree, so a large clique soon prunes the rest.
    seeds = sorted(range(len(incompatible)), key=lambda q: -degrees[q])
    classes: list[int] = []  # bitsets of pairwise compatible states
    for v in seeds:
        for c, members in enumerate(classes):
            if not members & incompatible[v]:
                classes[c] |= 1 << v
                break
        else:
            classes.append(1 << v)
    best = [0]
    for v in seeds:
        if degrees[v] < len(best) or len(best) == len(classes):
            break
        if sum(1 for members in classes
               if members & incompatible[v]) < len(best):
            continue
        clique = [v]
        candidates = incompatible[v]
        # A clique from v cannot outgrow v's neighbourhood plus v itself.
        while candidates and len(clique) + candidates.bit_count() > len(best):
            pick, most = -1, -1
            rest = candidates
            while rest:
                low = rest & -rest
                c = low.bit_length() - 1
                rest ^= low
                degree = (incompatible[c] & candidates).bit_count()
                if degree > most:
                    pick, most = c, degree
            clique.append(pick)
            candidates &= incompatible[pick]
        if len(clique) > len(best):
            best = clique
    return tuple(sorted(best))


def _renamed(acceptor: ThreeValuedDFA,
             letter: dict[int, int]) -> ThreeValuedDFA:
    """The acceptor over the letters that letter maps, as their indices;
    the renaming keeps the letters' order."""
    if len(letter) == acceptor.alphabet_size:  # every letter is kept
        return acceptor
    return ThreeValuedDFA(
        len(letter), acceptor.state_count, acceptor.initials,
        {(q, letter[a]): r for (q, a), r in acceptor.transitions.items()},
        acceptor.accepting, acceptor.rejecting)


def _shortest(entries: list[tuple[Word, str]],
              size: int) -> list[tuple[Word, str]]:
    """The size shortest of the ascending (word, label) entries in
    (length, ascending) order, still ascending.

    Counts the lengths, not the words: the cut is the length of the
    size-th shortest word, every shorter word is kept, and of the words
    of the cut's length the first ones, as many as the count leaves room
    for.
    """
    lengths = list(map(len, map(itemgetter(0), entries)))
    if size >= len(lengths):
        return list(entries)
    ordered = sorted(lengths)
    cut = ordered[size - 1]
    keep = list(map(cut.__gt__, lengths))
    at_cut = compress(count(), map(cut.__eq__, lengths))
    for i in islice(at_cut, ordered[:size].count(cut)):
        keep[i] = True
    return list(compress(entries, keep))


def _joined(samples: SampleSet, part: SampleSet,
            entries: list[tuple[Word, str]], size: int) -> SampleSet:
    """part and the size shortest of the ascending (word, label) entries,
    words outside part, in (length, ascending) order; samples itself once
    that is all of them."""
    picked = _shortest(entries, size)
    if part.size + len(picked) == samples.size:
        return samples
    return SampleSet._of(samples.alphabet_size, part.entries() + picked)


def _first_subset(samples: SampleSet, states: int) -> SampleSet:
    """The samples the search encodes first, for a mode whose acceptor of
    all of them has the given number of states."""
    if states * _SHARED < samples.size:
        return samples
    return _joined(samples, SampleSet(samples.alphabet_size, (), ()),
                   samples.entries(),
                   max(_FIRST_WORDS, samples.size // _FIRST_SHARE))


def verify_separating(dfa: ThreeValuedDFA,
                      samples: SampleSet) -> list[tuple[Word, str]]:
    """Sorted (word, label) pairs the DFA classifies wrongly; [] if none.

    Raises AutomatonFormatError unless dfa is a DFA (automata._check_dfa)
    over the samples' alphabet.
    """
    _check_dfa(dfa)
    if dfa.alphabet_size != samples.alphabet_size:
        raise AutomatonFormatError(
            f"alphabet mismatch: automaton has {dfa.alphabet_size}, "
            f"samples have {samples.alphabet_size}")
    # The samples' letters lie in the alphabet and the DFA is complete, so
    # each word replays through per-state rows of targets, unchecked, to a
    # state that accepts or rejects.  The entries ascend, and so do the
    # violations.
    rows = [[0] * dfa.alphabet_size for _ in range(dfa.state_count)]
    for (q, a), r in dfa.transitions.items():
        rows[q][a] = r
    labels = [NEGATIVE] * dfa.state_count
    for q in dfa.accepting:
        labels[q] = POSITIVE
    start = dfa.initials[0]
    violations = []
    for entry in samples.entries():
        q = start
        for a in entry[0]:
            q = rows[q][a]
        if labels[q] != entry[1]:
            violations.append(entry)
    return violations


def mine_min_dfa(samples: SampleSet, mode: str = "min3dfa", *,
                 safety: bool = False, symmetry_breaking: bool = True,
                 solver_command=DEFAULT_SOLVER_COMMAND,
                 timeout: float | None = None, n_start: int | None = None,
                 n_max: int | None = None) -> MiningReport:
    """Find a smallest separating DFA for the samples.

    Both ends of the size range come from the min3dfa acceptor of all the
    samples, whatever the mode, which only picks the acceptor the formula
    is built on.  The search starts one below the lower bound of
    incompatible_clique, never below 1, or 2 in safety mode, where the
    sink must differ from the initial state, unless n_start says where.
    It ends at n_max, by default the state count plus one: completing the
    acceptor with a rejecting sink separates the samples.  In safety mode
    that default is at least 3, as no safety-shaped DFA has 2 states.
    Outside safety mode, letters that no sample uses are left out of the
    formula and lead to state 0 in the returned DFA.

    Each formula is built on the mode's acceptor of a subset of the
    samples (_first_subset), derived from the subset's min3dfa acceptor
    over the letters of all the samples.  An unsat verdict moves the
    search to n + 1 on the same subset, and one formula grows with the
    sizes.  A sat model is decoded and replayed on every sample.  A DFA
    that labels them all is returned; one that mislabels words outside
    the subset makes the attempt "spurious": the shortest of those words,
    in (length, ascending) order and at most as many as the subset holds,
    join it, the formula is closed, and n is solved again on the larger
    subset's acceptor.  The subset grows at every such round and is at
    most every sample, where the search is the one on all of them.  A
    mislabelled word inside the subset is a MiningError: the formula
    excludes it, so the encoding or the solver is at fault.

    Why an unsat verdict on a subset refutes n for all the samples: take
    a model of the formula of size n on all of them.  Its e and f give a
    DFA that separates every sample, so it separates the subset too.
    Keep e, f and the symmetry variables, and set d(p, i) for exactly
    the pairs of a subset acceptor state p and a DFA state i that some
    word reaches together from an initial pair.  The pairs reached are
    closed under the transitions, and a word that reaches an accepting
    or rejecting acceptor state is a subset word of that label, which the
    DFA gives it: so the product clauses hold.  The shape, symmetry and
    safety clauses never read the acceptor, and the safety shape's fixed
    values hold in the model, so the product clauses they shorten hold
    too.  The subset's formula thus has a model whenever the samples'
    formula has one.

    Every claim rests on what the search refuted: the clique refutes the
    sizes below it, and each unsat verdict its size, in safety mode only
    for safety-shaped DFAs.  The floor only bounds where the search may
    start.  The DFA of the first satisfiable size is minimal when the
    clique demands its size or the solver refuted n - 1.  With no size
    left, NoSeparatorError names what was refuted, only the sizes searched
    after an explicit n_start; refuting the completion bound outside
    safety mode is a MiningError.  Sizes that cannot be searched, safety
    mode on fewer than two letters and a timeout that solve() refuses
    raise SizeRangeError or ValueError before any solver call.  Past those
    checks, any exception that leaves the search, a solver failure, a
    signal's SystemExit or a KeyboardInterrupt alike, carries the partial
    report as .report.
    """
    floor = 2 if safety else 1
    if n_start is not None and n_start < floor:
        raise SizeRangeError("safety mode needs n_start >= 2" if safety
                             else "n_start must be at least 1")
    first = floor if n_start is None else n_start
    if n_max is not None and n_max < first:
        raise SizeRangeError(
            f"n_max must be at least the smallest candidate size ({first})"
            if n_start is None else f"n_max must be at least n_start ({first})")
    if safety and samples.alphabet_size < 2:
        raise SizeRangeError(
            f"safety mode needs an alphabet of at least 2 letters (parity "
            f"colours); the samples have {samples.alphabet_size}")
    _check_timeout(timeout)
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}, expected one of {MODES}")
    acceptor = automata.build_min_3dfa_incremental(samples)
    lower = len(incompatible_clique(acceptor))
    bound = max(acceptor.state_count, floor) + 1 if n_max is None else n_max
    if n_start is not None and n_start > bound:
        raise SizeRangeError(
            f"n_start {n_start} exceeds the size bound {bound}; "
            f"give n_max to search beyond it")
    # Letters no sample uses are left out of the formula, but safety mode
    # keeps every colour: its shape clauses pin them all.
    used = (range(samples.alphabet_size) if safety
            else sorted({a for _, a in acceptor.transitions}) or [0])
    letter = {a: i for i, a in enumerate(used)}
    acceptor = _renamed(acceptor, letter)
    derive = _DERIVATIONS[mode]

    def mode_acceptor(part: SampleSet) -> ThreeValuedDFA:
        """The formula's acceptor of part, over the letters in used."""
        m3 = (acceptor if part is samples else
              _renamed(automata.build_min_3dfa_incremental(part), letter))
        if derive is None:
            return m3
        return derive(len(used), _signatures(m3), m3.initials[0])

    report = MiningReport(
        mode=mode,
        safety=safety,
        symmetry_breaking=symmetry_breaking,
        acceptor_size=_SIZES[mode](_signatures(acceptor), acceptor.initials[0]),
        lower_bound=lower,
    )
    if n_start is None:  # one below the lower bound; none under the cap
        first = max(lower - 1, floor) if bound >= lower else bound + 1
    grown = None  # one formula grows through the sizes of one subset
    try:
        part = _first_subset(samples, report.acceptor_size)
        formula_acceptor = mode_acceptor(part)
        n = first
        while n <= bound:
            started = time.perf_counter()
            grown = build_formula(n, formula_acceptor,
                                  symmetry=symmetry_breaking, safety=safety,
                                  base=grown)
            encode_seconds = time.perf_counter() - started
            vm, formula = grown
            verdict = solve(formula, solver_command, timeout=timeout)
            attempt = (n, verdict.outcome, part.size, formula.variable_count,
                       formula.clause_count, encode_seconds,
                       verdict.wall_time)
            report.attempts.append(SizeAttempt(*attempt))
            if verdict.outcome == "unsat":  # refutes n for every sample
                n += 1
                continue
            dfa = decode_model(verdict.model, vm)
            k = samples.alphabet_size  # unused letters lead to state 0
            dfa = ThreeValuedDFA(k, dfa.state_count, dfa.initials, {
                (q, a): dfa.transitions[q, letter[a]] if a in letter
                else 0 for q in range(dfa.state_count) for a in range(k)},
                dfa.accepting, dfa.rejecting)
            violations = verify_separating(dfa, samples)
            if not violations:
                report.dfa = dfa
                report.claim = _claim(report)
                return report
            inside = sum(w in part.positives or w in part.negatives
                         for w, _ in violations)
            if inside:  # the formula excludes these words' mislabelling
                raise MiningError(
                    f"internal error: mined DFA violates {inside} samples")
            # Solve n again, on the subset and the shortest words it missed.
            report.attempts[-1] = SizeAttempt(n, "spurious", *attempt[2:])
            part = _joined(samples, part, violations, part.size)
            formula.close()
            grown = vm = formula = None
            formula_acceptor = mode_acceptor(part)
        # No size is left.  The solver refuted each size it was given, in
        # safety mode only for the safety shape, and without n_start the
        # clique refutes the sizes below the first.
        if n_max is None and not safety:
            raise MiningError(
                f"no separating DFA up to size {bound}; the bound should have "
                f"sufficed, so the encoding or solver is at fault")
        if n_start is not None:  # claim nothing of the sizes below it
            sizes = f"found at sizes {first}..{bound}"
        elif n_max is None:  # the completion bound needs no safety shape
            sizes = (f"up to size {bound}; the sample set may admit none of "
                     f"any size")
        elif report.attempts:
            sizes = f"up to the requested size {bound}"
        else:
            sizes = (f"up to the requested size {bound}: the search needs at "
                     f"least {lower} states, as {lower} acceptor states are "
                     f"pairwise incompatible")
        shape = "safety-shaped " if safety and report.attempts else ""
        raise NoSeparatorError(f"no {shape}separating DFA {sizes}")
    except BaseException as err:
        err.report = report
        raise
    finally:
        if grown is not None:
            grown[1].close()
