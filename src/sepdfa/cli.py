"""Command line interface.

Subcommands: mine, gen-parity, gen-random, verify, stats.  Exit codes: 0
success, 1 usage error, 2 input parse error, 3 solver failure, 4 solver
timeout, 5 verification failure, 6 internal error, 7 no separating DFA of
the permitted sizes (an exhausted --n-max, or none of safety shape).  A
failed mine prints the attempts made so far before the error line.
"""

from __future__ import annotations

import argparse
import sys
import traceback

from .automata import (
    AutomatonFormatError,
    as_learned_dfa,
    dump_automaton,
    parse_automaton,
)
from .encoding import EncodingError
from .generators import (
    BudgetExceededError,
    ParityConfig,
    format_stats_line,
    gen_parity_samples,
    gen_random_dfa,
    gen_samples_from_dfa,
    parity_stats,
)
from .mining import (
    MODES,
    MiningError,
    NoSeparatorError,
    SizeRangeError,
    mine_min_dfa,
    verify_separating,
)
from .samples import POSITIVE, SampleError, parse_abbadingo, write_abbadingo
from .solver import DEFAULT_SOLVER_COMMAND, SolverError, SolverTimeoutError

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


def cmd_mine(args) -> int:
    samples = parse_abbadingo(_read_text(args.samples))
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
    sys.stdout.write(report.to_text())
    if args.dfa_out:
        _write_text(args.dfa_out, dump_automaton(report.dfa))
    return EXIT_OK


def cmd_gen_parity(args) -> int:
    try:
        cfg = ParityConfig(args.colours, args.length)
    except ValueError as err:
        print(f"gen-parity: {err}", file=sys.stderr)
        return EXIT_USAGE
    samples = gen_parity_samples(cfg, args.budget)
    _write_text(args.out, write_abbadingo(samples))
    print(f"wrote {samples.size} samples "
          f"({len(samples.positives)} positive, "
          f"{len(samples.negatives)} negative) to {args.out}")
    return EXIT_OK


def cmd_gen_random(args) -> int:
    count = args.sample_count
    if count is None:
        count = 50 * args.dfa_size
    max_len = args.max_len
    if max_len is None:
        max_len = 2 * args.dfa_size + 3
    try:
        dfa = gen_random_dfa(args.dfa_size, 2, args.seed)
        samples = gen_samples_from_dfa(dfa, count, max_len, seed=args.seed)
    except ValueError as err:
        print(f"gen-random: {err}", file=sys.stderr)
        return EXIT_USAGE
    _write_text(args.out, write_abbadingo(samples))
    dfa_path = args.dfa_out if args.dfa_out else args.out + ".dfa"
    _write_text(dfa_path, dump_automaton(dfa))
    print(f"wrote {samples.size} samples to {args.out}; "
          f"hidden {args.dfa_size}-state DFA to {dfa_path}")
    return EXIT_OK


def cmd_verify(args) -> int:
    dfa = as_learned_dfa(parse_automaton(_read_text(args.dfa)))
    samples = parse_abbadingo(_read_text(args.samples))
    outcome = verify_separating(dfa, samples)
    for word, expected in outcome.violations:
        rendered = " ".join(str(a) for a in word) if word else "(empty)"
        wanted = "accept" if expected == POSITIVE else "reject"
        print(f"violation: should {wanted}: {rendered}")
    if outcome.ok:
        print("verification OK")
        return EXIT_OK
    print(f"verification FAILED with {len(outcome.violations)} violations")
    return EXIT_VERIFICATION


def cmd_stats(args) -> int:
    try:
        cfg = ParityConfig(args.colours, args.length)
    except ValueError as err:
        print(f"stats: {err}", file=sys.stderr)
        return EXIT_USAGE
    print(format_stats_line(parity_stats(cfg, args.budget)))
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(
        prog="sepdfa",
        description="Learn a smallest separating DFA from labelled words.")
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    mine = sub.add_parser("mine", help="mine a minimal separating DFA")
    mine.add_argument("samples", help="sample file in Abbadingo format")
    mine.add_argument("--mode", choices=MODES, default="min3dfa",
                      help="acceptor construction (default min3dfa)")
    mine.add_argument("--safety", action="store_true",
                      help="restrict candidates to safety/co-safety shape")
    mine.add_argument("--no-symmetry-breaking", action="store_true",
                      help="drop the breadth-first-tree ordering clauses")
    mine.add_argument("--solver", default=DEFAULT_SOLVER_COMMAND,
                      help="solver command line (default: cadical)")
    mine.add_argument("--timeout", type=float, default=None,
                      help="per-call solver timeout in seconds")
    mine.add_argument("--n-start", type=int, default=None,
                      help="first candidate size to try")
    mine.add_argument("--n-max", type=int, default=None,
                      help="last candidate size to try")
    mine.add_argument("--dfa-out", default=None,
                      help="write the learned DFA dump here")
    mine.set_defaults(func=cmd_mine)

    gen_parity = sub.add_parser("gen-parity",
                                help="enumerate a parity-game corpus")
    gen_parity.add_argument("--colours", type=int, required=True)
    gen_parity.add_argument("--length", type=int, required=True)
    gen_parity.add_argument("--out", required=True,
                            help="sample file to write")
    gen_parity.add_argument("--budget", type=int, default=100_000_000,
                            help="word enumeration budget")
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
    stats.add_argument("--budget", type=int, default=100_000_000)
    stats.set_defaults(func=cmd_stats)

    return parser


def _fail(err: Exception, code: int) -> int:
    """Print the attempts an error carries, then the error; return code."""
    report = getattr(err, "report", None)
    if report is not None:
        sys.stdout.write(report.to_text())
    print(f"error: {err}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if getattr(args, "func", None) is None:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except (BudgetExceededError, SizeRangeError) as err:
        return _fail(err, EXIT_USAGE)
    except (SampleError, AutomatonFormatError, OSError) as err:
        return _fail(err, EXIT_PARSE)
    except SolverTimeoutError as err:
        return _fail(err, EXIT_TIMEOUT)
    except SolverError as err:
        return _fail(err, EXIT_SOLVER)
    except ValueError as err:
        return _fail(err, EXIT_PARSE)
    except NoSeparatorError as err:
        return _fail(err, EXIT_NO_SEPARATOR)
    except (MiningError, EncodingError) as err:
        return _fail(err, EXIT_INTERNAL)
    except Exception:  # pragma: no cover - last resort
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
