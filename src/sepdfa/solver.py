"""Bridge to an external DIMACS SAT solver subprocess.

The solver is a black box: it gets the path of a temporary DIMACS CNF
file as its last argument.  The file is the header, a copy of the
formula's own DIMACS text of its stable part, and the tail freshly
formatted from the formula's literal buffer.  The solver must answer
with SAT-competition output, an "s" status line plus "v" value lines,
and exit status 10 for satisfiable or 20 for unsatisfiable.
Both channels are cross-checked.  The values of a satisfiable answer
are read in bulk into one byte table of the formula's variable_count + 1
bytes, indexed by variable (1 false, 2 true), which must list each of
the formula's variables once and no other; an unsatisfiable answer's
values are not read.  A satisfying model is checked against the literal
buffer through that table before anyone gets to rely on it, and
decode_model reads the DFA from the same table.  A timeout is a finite
positive number of seconds, at most MAX_TIMEOUT.
"""

from __future__ import annotations

import contextlib
import os
import re
import shlex
import signal
import time
from collections.abc import Sequence

from .encoding import CnfFormula, emit_dimacs
from .samples import _Record

DEFAULT_SOLVER_COMMAND = "cadical"
# The longest timeout, in seconds, that solve() accepts: waiting for the
# solver polls its pipes with a timeout in milliseconds held in a C int.
MAX_TIMEOUT = (2**31 - 1) // 1000

_ANSI_RE = re.compile(r"\x1b\[[0-9;?]*[A-Za-z]|\x1b.|[\r\x07]")
_STATUS_RE = re.compile(r"^s\s+(SATISFIABLE|UNSATISFIABLE)\b")
# The characters that start the escapes _ANSI_RE strips.
_ESCAPE_STARTS = "\x1b\r\x07"
# Value lines read in bulk at a time: a few hundred KiB of tokens.
_LINES = 256


class SolverError(RuntimeError):
    """The solver failed, lied, or spoke an unknown dialect."""


class SolverTimeoutError(SolverError):
    """The solver exceeded its wall-clock budget and was killed."""


class SolverVerdict(_Record):
    __slots__ = ("outcome", "model", "wall_time")

    def __init__(self, outcome: str, model: bytes | None,
                 wall_time: float) -> None:
        self.outcome = outcome  # "sat" or "unsat"
        # byte per variable: 1 false, 2 true (0 at index 0)
        self.model = model
        self.wall_time = wall_time


def parse_solver_output(text: str,
                        variable_count: int) -> tuple[str, bytes | None]:
    """Extract the status and variable assignment from solver stdout.

    Comment lines are skipped, status and value lines may come in any
    order, terminal escape noise is stripped, and decorated status lines
    ("s SATISFIABLE: file.cnf") still count.  Several status lines must
    agree.  A "sat" answer's assignment is the table _model_table makes of
    the values on the "v" lines for a formula of variable_count variables;
    an "unsat" answer's values are not read, and its assignment is None.
    """
    outcome: str | None = None
    values: list[str] = []
    if any(start in text for start in _ESCAPE_STARTS):
        text = _ANSI_RE.sub("", text)
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("v"):
            values += line.split(None, 1)[1:]  # all but the first word
            continue
        status = _STATUS_RE.match(line)
        if status is not None:
            found = "sat" if status.group(1) == "SATISFIABLE" else "unsat"
            if outcome is not None and outcome != found:
                raise SolverError("solver printed conflicting status lines")
            outcome = found
    if outcome is None:
        raise SolverError("no status line in solver output")
    if outcome == "unsat":
        return outcome, None
    return outcome, _model_table(values, variable_count)


def _literals(tokens: list[str]) -> list[int]:
    """The literals that tokens spell, up to and including the first 0.

    A literal is an optional "-" and ASCII digits that int() reads.  The
    tokens are read in bulk; if that fails, the first malformed one raises
    SolverError unless a 0 before it ends the values.
    """
    # Besides a literal's characters, int() reads only "+", "_" and
    # digits that are not ASCII.
    joined = "".join(tokens)
    if joined.isascii() and "+" not in joined and "_" not in joined:
        try:
            lits = list(map(int, tokens))
        except ValueError:  # a misplaced "-", or more digits than int() reads
            pass
        else:
            if 0 in lits:
                del lits[lits.index(0) + 1:]
            return lits
    for at, token in enumerate(tokens):
        digits = token.removeprefix("-")
        try:
            if not (digits.isascii() and digits.isdigit()):
                raise ValueError
            if int(token) == 0:
                break
        except ValueError:
            raise SolverError(
                f"malformed literal in value line: {token!r}") from None
    return list(map(int, tokens[:at + 1]))


def _model_table(values: list[str], variable_count: int) -> bytes:
    """The assignment that the value lines' literals up to the first 0
    make, as a table indexed by variable: 1 false, 2 true, 0 at index 0.

    The lines are read _LINES at a time into a table of variable_count + 1
    bytes.  Each of the variables 1..variable_count must appear once, and
    no other.  A fault is reported once every value has been read, so a
    malformed literal anywhere comes first.
    """
    table = bytearray(variable_count + 1)
    unknown = twice = 0
    for first in range(0, len(values), _LINES):
        lits = _literals(" ".join(values[first:first + _LINES]).split())
        done = 0 in lits
        if done:
            lits.pop()
        for lit in lits:
            var = lit if lit > 0 else -lit
            if var > variable_count:
                unknown = unknown or var
                continue
            if table[var] and not twice:
                twice = var
            table[var] = 2 if lit > 0 else 1
        if done:
            break
    if unknown:
        raise SolverError(f"model assigns unknown variable {unknown}")
    if twice:
        raise SolverError(f"model assigns variable {twice} twice")
    missing = table.find(0, 1)
    if missing >= 0:
        raise SolverError(f"model leaves variable {missing} unassigned")
    return bytes(table)


def _check_timeout(timeout: float | None) -> float | None:
    """Return timeout, or raise ValueError unless it is None or a finite
    positive number of seconds up to MAX_TIMEOUT."""
    if timeout is not None and not 0 < timeout <= MAX_TIMEOUT:  # nan too
        raise ValueError(
            f"the solver timeout must be a finite positive number of "
            f"seconds, at most the longest wait of {MAX_TIMEOUT}")
    return timeout


def solve(formula: CnfFormula, solver_command: str | Sequence[str] = DEFAULT_SOLVER_COMMAND,
          timeout: float | None = None) -> SolverVerdict:
    """Run the solver on the formula and return its checked verdict.

    The DIMACS text is streamed into a temporary file by emit_dimacs, and
    the file's path is appended to the command line.  On timeout the
    whole solver process group is killed and SolverTimeoutError is
    raised; on any other exception during the wait, KeyboardInterrupt
    included, it is killed and the exception propagates.
    Output that is not UTF-8 text raises SolverError once the solver has
    exited.  A timeout that _check_timeout refuses raises ValueError
    before anything is written or run.
    """
    command = (shlex.split(solver_command) if isinstance(solver_command, str)
               else list(solver_command))
    if not command:
        raise SolverError("empty solver command")
    _check_timeout(timeout)
    import subprocess  # here, so that only a mine pays for their imports
    import tempfile
    fd, temp_path = tempfile.mkstemp(prefix="sepdfa-", suffix=".cnf")
    try:
        with os.fdopen(fd, "wb") as handle:
            emit_dimacs(formula, handle)
        started = time.monotonic()
        try:
            proc = subprocess.Popen(
                command + [temp_path],
                stdin=subprocess.DEVNULL,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                start_new_session=True,
            )
        except FileNotFoundError:
            raise SolverError(f"solver command not found: {command[0]}") from None
        except OSError as err:
            raise SolverError(
                f"cannot run solver {command[0]}: {err.strerror or err}") from None
        try:
            stdout, stderr = proc.communicate(timeout=timeout)
        except BaseException as err:
            # The solver has a session of its own, which a Ctrl-C at the
            # terminal does not reach: whatever ends the wait ends it too.
            # A new session's process group id is its leader's pid.
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            proc.stdout.close()
            proc.stderr.close()
            if isinstance(err, subprocess.TimeoutExpired):
                raise SolverTimeoutError(
                    f"solver exceeded {timeout} seconds") from None
            raise
        wall_time = time.monotonic() - started
    finally:
        with contextlib.suppress(OSError):
            os.unlink(temp_path)

    outcome = {10: "sat", 20: "unsat"}.get(proc.returncode)
    if outcome is None:
        detail = (stderr or stdout).decode(errors="replace").strip()
        tail = detail.splitlines()[-1] if detail else "no output"
        raise SolverError(
            f"solver exited with status {proc.returncode}: {tail}")
    try:
        text = stdout.decode()
    except UnicodeDecodeError as err:
        raise SolverError(f"solver output is not UTF-8 text: {err}") from None
    printed, model = parse_solver_output(text, formula.variable_count)
    if printed != outcome:
        raise SolverError(
            f"status line says {printed} but exit code says {outcome}")
    if model is not None and not formula.satisfied_by(model):
        raise SolverError("model does not satisfy the formula")
    return SolverVerdict(outcome, model, wall_time)
