"""Search for the smallest DFA separating a sample set.

The miner builds a three-valued acceptor for the samples, then asks the
SAT solver for candidate DFAs of growing size until one exists.  Acceptor
choice is the mode: the raw prefix tree, the incrementally minimised
three-valued automaton, or the per-polarity double automaton with one
initial state per polarity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import automata
from .automata import LearnedDFA, ThreeValuedDFA
from .encoding import build_formula, decode_model
from .samples import NEGATIVE, POSITIVE, SampleSet, Word
from .solver import DEFAULT_SOLVER_COMMAND, SolverError, solve

# Mode -> name of its SampleSet -> ThreeValuedDFA builder in automata.  The
# name is resolved on each call, so a wrapper bound over the module
# attribute (perfbench/tracer.py's spans) sees the build.
_BUILDERS = {"apta": "build_apta", "min3dfa": "build_min_3dfa_incremental",
             "ddfa": "build_ddfa"}
MODES = tuple(_BUILDERS)


class SizeRangeError(ValueError):
    """The requested candidate sizes are invalid or empty."""


class MiningError(RuntimeError):
    """Mining could not complete; .report holds the attempts so far."""

    def __init__(self, message: str, report: "MiningReport | None" = None):
        super().__init__(message)
        self.report = report


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
    solve_seconds: float


@dataclass(frozen=True)
class VerificationOutcome:
    ok: bool
    violations: tuple[tuple[Word, str], ...]


@dataclass
class MiningReport:
    mode: str
    safety: bool
    symmetry_breaking: bool
    acceptor_size: int
    attempts: list[SizeAttempt] = field(default_factory=list)
    dfa: LearnedDFA | None = None
    verified: bool = False

    @property
    def minimal_size(self) -> int | None:
        return self.dfa.state_count if self.dfa is not None else None

    def to_text(self) -> str:
        lines = [
            f"mode {self.mode}",
            f"safety {'on' if self.safety else 'off'}",
            f"symmetry-breaking {'on' if self.symmetry_breaking else 'off'}",
            f"acceptor size {self.acceptor_size}",
        ]
        for att in self.attempts:
            lines.append(
                f"n={att.n} {att.outcome} vars={att.variables} "
                f"clauses={att.clauses} time={att.solve_seconds:.3f}s")
        if self.dfa is not None:
            lines.append(f"minimal size {self.dfa.state_count}")
            lines.append(f"verified {'yes' if self.verified else 'no'}")
        return "\n".join(lines) + "\n"


def upper_bound(acceptor: ThreeValuedDFA) -> int:
    """Size at which a separating DFA certainly exists.

    Completing the acceptor with one rejecting sink separates the samples,
    so the bound is its state count plus one.  For a double automaton only
    the positive part, the states below the second initial state, needs
    completing.
    """
    if len(acceptor.initials) > 1:
        return acceptor.initials[1] + 1
    return acceptor.state_count + 1


def verify_separating(dfa: LearnedDFA, samples: SampleSet) -> VerificationOutcome:
    """Check the DFA accepts every positive and rejects every negative word."""
    if dfa.alphabet_size != samples.alphabet_size:
        raise ValueError(
            f"alphabet mismatch: automaton has {dfa.alphabet_size}, "
            f"samples have {samples.alphabet_size}")
    violations = []
    for w in samples.positives:
        if not dfa.accepts(w):
            violations.append((w, POSITIVE))
    for w in samples.negatives:
        if dfa.accepts(w):
            violations.append((w, NEGATIVE))
    violations.sort()
    return VerificationOutcome(not violations, tuple(violations))


def mine_min_dfa(samples: SampleSet, mode: str = "min3dfa", *,
                 safety: bool = False, symmetry_breaking: bool = True,
                 solver_command=DEFAULT_SOLVER_COMMAND,
                 timeout: float | None = None, n_start: int | None = None,
                 n_max: int | None = None) -> MiningReport:
    """Find a smallest separating DFA for the samples.

    Candidate sizes grow one by one from n_start (1 by default, 2 in
    safety mode, where the sink must differ from the initial state); the
    first satisfiable size yields the answer.  Every returned DFA has
    been re-checked against the samples.  Sizes that cannot be searched
    raise SizeRangeError before any work.  Solver failures propagate with
    the partial report attached as .report; exhausting n_max (default:
    the acceptor's size bound) raises MiningError with the same .report,
    NoSeparatorError when the cap was the user's or safety mode's.
    """
    if n_start is None:
        n_start = 2 if safety else 1
    elif safety and n_start < 2:
        raise SizeRangeError("safety mode needs n_start >= 2")
    if n_start < 1:
        raise SizeRangeError("n_start must be at least 1")
    if n_max is not None and n_max < n_start:
        raise SizeRangeError(f"n_max must be at least n_start ({n_start})")
    builder = _BUILDERS.get(mode)
    if builder is None:
        raise ValueError(f"unknown mode {mode!r}, expected one of {MODES}")
    acceptor = getattr(automata, builder)(samples)
    report = MiningReport(
        mode=mode,
        safety=safety,
        symmetry_breaking=symmetry_breaking,
        acceptor_size=acceptor.state_count,
    )
    bound = upper_bound(acceptor) if n_max is None else n_max
    n = n_start
    while n <= bound:
        vm, formula = build_formula(n, acceptor, symmetry=symmetry_breaking,
                                    safety=safety)
        try:
            verdict = solve(formula, solver_command, timeout=timeout)
        except SolverError as err:
            err.report = report
            raise
        report.attempts.append(SizeAttempt(
            n=n,
            outcome=verdict.outcome,
            variables=formula.variable_count,
            clauses=formula.clause_count,
            solve_seconds=verdict.wall_time,
        ))
        if verdict.outcome == "sat":
            dfa = decode_model(verdict.model, vm)
            check = verify_separating(dfa, samples)
            if not check.ok:
                raise MiningError(
                    f"internal error: mined DFA violates "
                    f"{len(check.violations)} samples", report)
            report.dfa = dfa
            report.verified = True
            return report
        n += 1
    if n_max is not None:
        raise NoSeparatorError(
            f"no separating DFA up to the requested size {bound}", report)
    if safety:
        # The completion bound only promises an unconstrained separator.
        raise NoSeparatorError(
            f"no safety-shaped separating DFA up to size {bound}; the "
            f"sample set may admit none of any size", report)
    raise MiningError(
        f"no separating DFA up to size {bound}; the bound should have "
        f"sufficed, so the encoding or solver is at fault", report)
