"""Command line interface.

Subcommands: mine, gen-parity, gen-random, verify, stats.  Exit codes: 0
success, 1 usage error or refused value (a size, count or budget out of
range), 2 unreadable or unparsable input, 3 solver failure, 4 solver
timeout, 5 verification failure, 6 internal error, 7 no separating DFA of
the permitted sizes (an exhausted --n-max, one below the lower bound, or
none of safety shape).  Every refusal and failure prints one line
starting with "error: " on stderr; a mine that fails, or is stopped by
SIGTERM, SIGHUP or Ctrl-C, first prints the attempts it finished.
SIGTERM or SIGHUP stops a running solver, removes its temporary file and
exits with status 128 plus the signal number: 143 or 129.  An ignored
SIGHUP, as under nohup, stays ignored.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import signal
import sys

from .automata import AutomatonFormatError, dump_automaton, parse_automaton
from .encoding import EncodingError
from .generators import (
    ParityConfig,
    _check_request,
    gen_parity_samples,
    gen_random_dfa,
    gen_samples_from_dfa,
    parity_stats,
)
from .mining import (
    MODES,
    MiningError,
    NoSeparatorError,
    mine_min_dfa,
    verify_separating,
)
from .samples import POSITIVE, SampleError, parse_abbadingo, write_abbadingo
from .solver import (
    DEFAULT_SOLVER_COMMAND,
    MAX_TIMEOUT,
    SolverError,
    SolverTimeoutError,
    _check_timeout,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_SOLVER = 3
EXIT_TIMEOUT = 4
EXIT_VERIFICATION = 5
EXIT_INTERNAL = 6
EXIT_NO_SEPARATOR = 7


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage failures exit with status 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def _claim_for_writing(path: str) -> bool:
    """Raise OSError unless path can be written; leave its content as it is.

    Returns whether this call created the (empty) file.
    """
    try:
        open(path, "x").close()
    except FileExistsError:
        open(path, "a").close()
        return False
    return True


def cmd_mine(args) -> int:
    samples = parse_abbadingo(_read_text(args.samples))
    # An unwritable --dfa-out fails here, before the search, not after it.
    created = bool(args.dfa_out) and _claim_for_writing(args.dfa_out)
    try:
        report = mine_min_dfa(
            samples,
            mode=args.mode,
            safety=args.safety,
            symmetry_breaking=not args.no_symmetry_breaking,
            solver_command=args.solver,
            timeout=args.timeout,
            n_start=args.n_start,
            n_max=args.n_max,
        )
    except BaseException:
        if created:
            with contextlib.suppress(OSError):
                os.remove(args.dfa_out)
        raise
    sys.stdout.write(report.to_text())
    if args.dfa_out:
        _write_text(args.dfa_out, dump_automaton(report.dfa))
    return EXIT_OK


def cmd_gen_parity(args) -> int:
    samples = gen_parity_samples(ParityConfig(args.colours, args.length))
    _write_text(args.out, write_abbadingo(samples))
    positives = [label for _, label in samples.entries()].count(POSITIVE)
    print(f"wrote {samples.size} samples ({positives} positive, "
          f"{samples.size - positives} negative) to {args.out}")
    return EXIT_OK


def cmd_gen_random(args) -> int:
    if args.dfa_size < 1:  # before the defaults derived from it
        raise ValueError("size must be at least 1")
    count = args.sample_count
    if count is None:
        count = 50 * args.dfa_size
    max_len = args.max_len
    if max_len is None:
        max_len = 2 * args.dfa_size + 3
    _check_request(count, max_len, 2)  # the draw below may take long
    dfa = gen_random_dfa(args.dfa_size, 2, args.seed)
    samples = gen_samples_from_dfa(dfa, count, max_len, seed=args.seed)
    _write_text(args.out, write_abbadingo(samples))
    dfa_path = args.dfa_out if args.dfa_out else args.out + ".dfa"
    _write_text(dfa_path, dump_automaton(dfa))
    print(f"wrote {samples.size} samples to {args.out}; "
          f"hidden {args.dfa_size}-state DFA to {dfa_path}")
    return EXIT_OK


def cmd_verify(args) -> int:
    dfa = parse_automaton(_read_text(args.dfa))
    samples = parse_abbadingo(_read_text(args.samples))
    violations = verify_separating(dfa, samples)
    for word, expected in violations:
        rendered = " ".join(str(a) for a in word) if word else "(empty)"
        wanted = "accept" if expected == POSITIVE else "reject"
        print(f"violation: should {wanted}: {rendered}")
    if not violations:
        print("verification OK")
        return EXIT_OK
    print(f"verification FAILED with {len(violations)} violations")
    return EXIT_VERIFICATION


def cmd_stats(args) -> int:
    stats = parity_stats(ParityConfig(args.colours, args.length))
    print("\t".join(str(x) for x in stats))
    return EXIT_OK


def _seconds(text: str) -> float:
    """A timeout that solve() accepts, for argparse's type=."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan  # refused below, like every other non-number
    try:
        return _check_timeout(value)
    except ValueError as err:
        raise argparse.ArgumentTypeError(f"{err}, got {text!r}") from None


def build_parser() -> _Parser:
    parser = _Parser(
        prog="sepdfa",
        description="Learn a smallest separating DFA from labelled words.")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    mine = sub.add_parser("mine", help="mine a minimal separating DFA")
    mine.add_argument("samples", help="sample file in Abbadingo format")
    mine.add_argument("--mode", choices=MODES, default="min3dfa",
                      help="acceptor construction (default min3dfa)")
    mine.add_argument("--safety", action="store_true",
                      help="restrict candidates to safety/co-safety shape "
                           "(needs an alphabet of at least 2 letters)")
    mine.add_argument("--no-symmetry-breaking", action="store_true",
                      help="drop the breadth-first-tree ordering clauses")
    mine.add_argument("--solver", default=DEFAULT_SOLVER_COMMAND,
                      help="solver command line (default: cadical)")
    mine.add_argument("--timeout", type=_seconds, default=None,
                      help="per-call solver timeout in seconds, at most "
                           f"{MAX_TIMEOUT}")
    mine.add_argument("--n-start", type=int, default=None,
                      help="first candidate size to try (default: one "
                           "below the lower bound)")
    mine.add_argument("--n-max", type=int, default=None,
                      help="last candidate size to try (default: the "
                           "min3dfa acceptor's state count plus one)")
    mine.add_argument("--dfa-out", default=None,
                      help="write the learned DFA dump here")
    mine.set_defaults(func=cmd_mine)

    gen_parity = sub.add_parser("gen-parity",
                                help="enumerate a parity-game corpus")
    gen_parity.add_argument("--colours", type=int, required=True)
    gen_parity.add_argument("--length", type=int, required=True)
    gen_parity.add_argument("--out", required=True,
                            help="sample file to write")
    gen_parity.set_defaults(func=cmd_gen_parity)

    gen_random = sub.add_parser("gen-random",
                                help="sample words from a random hidden DFA")
    gen_random.add_argument("--dfa-size", type=int, required=True)
    gen_random.add_argument("--seed", type=int, default=0)
    gen_random.add_argument("--sample-count", type=int, default=None,
                            help="default: 50 times the DFA size")
    gen_random.add_argument("--max-len", type=int, default=None,
                            help="default: twice the DFA size plus 3")
    gen_random.add_argument("--out", required=True,
                            help="sample file to write")
    gen_random.add_argument("--dfa-out", default=None,
                            help="hidden DFA dump (default: <out>.dfa)")
    gen_random.set_defaults(func=cmd_gen_random)

    verify = sub.add_parser("verify",
                            help="check a DFA dump against a sample file")
    verify.add_argument("dfa", help="automaton dump file")
    verify.add_argument("samples", help="sample file in Abbadingo format")
    verify.set_defaults(func=cmd_verify)

    stats = sub.add_parser("stats", help="parity corpus statistics")
    stats.add_argument("--colours", type=int, required=True)
    stats.add_argument("--length", type=int, required=True)
    stats.set_defaults(func=cmd_stats)

    return parser


# Exit status by exception type; the first match wins.  Unreadable input
# is 2; every other ValueError is a refused request, whichever module
# raised it.
_EXIT_CODES = (
    ((SampleError, AutomatonFormatError, OSError, UnicodeError), EXIT_PARSE),
    (SolverTimeoutError, EXIT_TIMEOUT),
    (SolverError, EXIT_SOLVER),
    (ValueError, EXIT_USAGE),
    (NoSeparatorError, EXIT_NO_SEPARATOR),
    ((MiningError, EncodingError), EXIT_INTERNAL),
)


def _exit_on_signal(signum, _frame) -> None:
    """Exit by exception, so the solver is killed and its file removed."""
    sys.exit(128 + signum)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    previous = {sig: signal.getsignal(sig)
                for sig in (signal.SIGTERM, signal.SIGHUP)}
    for sig, handler in previous.items():
        if handler != signal.SIG_IGN:  # under nohup, SIGHUP stays ignored
            signal.signal(sig, _exit_on_signal)
    try:
        return args.func(args)
    except BaseException as err:
        # The attempts a mine finished, whatever stopped it.
        report = getattr(err, "report", None)
        if report is not None:
            sys.stdout.write(report.to_text())
        if not isinstance(err, Exception):
            raise  # a signal's SystemExit, or KeyboardInterrupt
        for types, code in _EXIT_CODES:
            if isinstance(err, types):
                print(f"error: {err}", file=sys.stderr)
                return code
        import traceback  # last resort; no other branch needs it
        traceback.print_exc()
        return EXIT_INTERNAL
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)


if __name__ == "__main__":
    sys.exit(main())
