"""Search for the smallest DFA separating a sample set.

The miner builds the minimal three-valued acceptor of the samples, which
bounds the search at both ends: a clique of pairwise-incompatible states
proves the lower bound, and completing the acceptor with a rejecting sink
gives a separator one state larger.  It then asks the SAT solver for
candidate DFAs of growing size until one exists.  The mode picks the
acceptor the formula ties the candidate to, not the sizes: the raw prefix
tree, the incrementally minimised three-valued automaton, or the
per-polarity double automaton with one initial state per polarity.  The
decoded DFA is a ThreeValuedDFA too, and it is replayed on every sample
before it is reported.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

from . import automata
from .automata import AutomatonFormatError, ThreeValuedDFA, _check_dfa, run
from .encoding import build_formula, decode_model
from .samples import NEGATIVE, POSITIVE, SampleSet, Word
from .solver import DEFAULT_SOLVER_COMMAND, _check_timeout, solve

# Mode -> name of its SampleSet -> ThreeValuedDFA builder in automata.  The
# name is resolved on each call, so a wrapper bound over the module
# attribute (perfbench/tracer.py's spans) sees the build.
_BUILDERS = {"apta": "build_apta", "min3dfa": "build_min_3dfa_incremental",
             "ddfa": "build_ddfa"}
MODES = tuple(_BUILDERS)


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


@dataclass(frozen=True)
class SizeAttempt:
    """One candidate size tried against the solver."""

    n: int
    outcome: str  # "sat" or "unsat"
    variables: int
    clauses: int
    encode_seconds: float  # wall time of build_formula growing to size n
    solve_seconds: float


@dataclass
class MiningReport:
    mode: str
    safety: bool
    symmetry_breaking: bool
    acceptor_size: int
    lower_bound: int  # size of incompatible_clique on the min3dfa acceptor
    attempts: list[SizeAttempt] = field(default_factory=list)
    dfa: ThreeValuedDFA | None = None  # set only once it is verified
    claim: str = ""  # set with dfa, by _claim: "minimal size n" or why not

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
                f"n={att.n} {att.outcome} vars={att.variables} "
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
    """
    incompatible = _incompatible_sets(acceptor)
    degrees = [bits.bit_count() for bits in incompatible]
    best = [0]
    # Seeds by falling degree, so a large clique soon prunes the rest.
    for v in sorted(range(len(incompatible)), key=lambda q: -degrees[q]):
        if degrees[v] < len(best):
            break
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
    violations = [(w, label)
                  for words, label in ((samples.positives, POSITIVE),
                                       (samples.negatives, NEGATIVE))
                  for w in words if run(dfa, w) != label]
    violations.sort()
    return violations


def mine_min_dfa(samples: SampleSet, mode: str = "min3dfa", *,
                 safety: bool = False, symmetry_breaking: bool = True,
                 solver_command=DEFAULT_SOLVER_COMMAND,
                 timeout: float | None = None, n_start: int | None = None,
                 n_max: int | None = None) -> MiningReport:
    """Find a smallest separating DFA for the samples.

    Both ends of the size range come from the min3dfa acceptor, whatever
    the mode, which only picks the acceptor the formula is built on.  The
    search starts one below the lower bound of incompatible_clique, never
    below 1, or 2 in safety mode, where the sink must differ from the
    initial state, unless n_start says where.  It ends at n_max, by
    default the state count plus one: completing the acceptor with a
    rejecting sink separates the samples.  In safety mode that default is
    at least 3, as no safety-shaped DFA has 2 states.  Sizes grow one by
    one, and one formula grows with them.  Outside safety mode, letters
    that no sample uses are left out of the formula and lead to state 0 in
    the returned DFA, which has been re-checked against the samples.

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
    builder = _BUILDERS.get(mode)
    if builder is None:
        raise ValueError(f"unknown mode {mode!r}, expected one of {MODES}")
    acceptor = getattr(automata, _BUILDERS["min3dfa"])(samples)
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
    if mode != "min3dfa":
        acceptor = getattr(automata, builder)(samples)  # drops the min3dfa
    if len(used) < samples.alphabet_size:
        acceptor = replace(acceptor, alphabet_size=len(used), transitions={
            (q, letter[a]): r for (q, a), r in acceptor.transitions.items()})
    report = MiningReport(
        mode=mode,
        safety=safety,
        symmetry_breaking=symmetry_breaking,
        acceptor_size=acceptor.state_count,
        lower_bound=lower,
    )
    if n_start is None:  # one below the lower bound; none under the cap
        first = max(lower - 1, floor) if bound >= lower else bound + 1
    grown = None  # one formula grows through the sizes
    try:
        for n in range(first, bound + 1):
            started = time.perf_counter()
            grown = build_formula(n, acceptor, symmetry=symmetry_breaking,
                                  safety=safety, base=grown)
            encode_seconds = time.perf_counter() - started
            vm, formula = grown
            verdict = solve(formula, solver_command, timeout=timeout)
            report.attempts.append(SizeAttempt(
                n=n,
                outcome=verdict.outcome,
                variables=formula.variable_count,
                clauses=formula.clause_count,
                encode_seconds=encode_seconds,
                solve_seconds=verdict.wall_time,
            ))
            if verdict.outcome == "sat":
                dfa = decode_model(verdict.model, vm)
                k = samples.alphabet_size  # unused letters lead to state 0
                dfa = replace(dfa, alphabet_size=k, transitions={
                    (q, a): dfa.transitions[q, letter[a]] if a in letter
                    else 0 for q in range(dfa.state_count) for a in range(k)})
                violations = verify_separating(dfa, samples)
                if violations:
                    raise MiningError(
                        f"internal error: mined DFA violates "
                        f"{len(violations)} samples")
                report.dfa = dfa
                report.claim = _claim(report)
                return report
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
