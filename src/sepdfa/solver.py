"""Bridge to an external DIMACS SAT solver subprocess.

The solver is a black box: it gets the path of a temporary DIMACS CNF
file, streamed from the formula's literal buffer (the part a growing
formula keeps copied from a DimacsCache), as its last argument
and must answer with SAT-competition output, an "s" status line plus "v"
value lines, and exit status 10 for satisfiable or 20 for unsatisfiable.
Both channels are cross-checked, and satisfying models are checked
against the literal buffer before anyone gets to rely on them.  A timeout
is a finite positive number of seconds, at most MAX_TIMEOUT.
"""

from __future__ import annotations

import contextlib
import os
import re
import shlex
import signal
import subprocess
import tempfile
import time
from dataclasses import dataclass
from typing import Sequence

from .encoding import CnfFormula, DimacsCache, emit_dimacs

DEFAULT_SOLVER_COMMAND = "cadical"
# The longest timeout, in seconds, that solve() accepts: waiting for the
# solver polls its pipes with a timeout in milliseconds held in a C int.
MAX_TIMEOUT = (2**31 - 1) // 1000

_ANSI_RE = re.compile(r"\x1b\[[0-9;?]*[A-Za-z]|\x1b.|[\r\x07]")
_STATUS_RE = re.compile(r"^s\s+(SATISFIABLE|UNSATISFIABLE)\b")


class SolverError(RuntimeError):
    """The solver failed, lied, or spoke an unknown dialect."""


class SolverTimeoutError(SolverError):
    """The solver exceeded its wall-clock budget and was killed."""


@dataclass(frozen=True)
class SolverVerdict:
    outcome: str  # "sat" or "unsat"
    model: dict[int, bool] | None
    wall_time: float


def parse_solver_output(text: str) -> tuple[str, dict[int, bool]]:
    """Extract the status and variable assignment from solver stdout.

    Comment lines are skipped, status and value lines may come in any
    order, terminal escape noise is stripped, and decorated status lines
    ("s SATISFIABLE: file.cnf") still count.  Several status lines must
    agree.
    """
    outcome: str | None = None
    assignment: dict[int, bool] = {}
    done_values = False
    for raw in _ANSI_RE.sub("", text).splitlines():
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        status = _STATUS_RE.match(line)
        if status is not None:
            found = "sat" if status.group(1) == "SATISFIABLE" else "unsat"
            if outcome is not None and outcome != found:
                raise SolverError("solver printed conflicting status lines")
            outcome = found
            continue
        if line.startswith("v"):
            if done_values:
                continue
            for token in line.split()[1:]:
                digits = token.removeprefix("-")
                try:
                    if not (digits.isascii() and digits.isdigit()):
                        raise ValueError
                    lit = int(token)
                except ValueError:
                    raise SolverError(
                        f"malformed literal in value line: {token!r}") from None
                if lit == 0:
                    done_values = True
                    break
                assignment[abs(lit)] = lit > 0
    if outcome is None:
        raise SolverError("no status line in solver output")
    return outcome, assignment


def _kill_process_tree(proc: subprocess.Popen) -> None:
    try:
        os.killpg(os.getpgid(proc.pid), signal.SIGKILL)
    except (ProcessLookupError, PermissionError, OSError):
        proc.kill()


def _check_timeout(timeout: float | None) -> float | None:
    """Return timeout, or raise ValueError unless it is None or a finite
    positive number of seconds up to MAX_TIMEOUT."""
    if timeout is not None and not 0 < timeout <= MAX_TIMEOUT:  # nan too
        raise ValueError(
            f"the solver timeout must be a finite positive number of "
            f"seconds, at most the longest wait of {MAX_TIMEOUT}")
    return timeout


def solve(formula: CnfFormula, solver_command: str | Sequence[str] = DEFAULT_SOLVER_COMMAND,
          timeout: float | None = None,
          cache: DimacsCache | None = None) -> SolverVerdict:
    """Run the solver on the formula and return its checked verdict.

    The DIMACS text is streamed into a temporary file, by emit_dimacs with
    the given cache, whose path is appended to the command line.  On
    timeout the whole solver process group is killed and
    SolverTimeoutError is raised; on any other exception during the wait,
    KeyboardInterrupt included, it is killed and the exception propagates.
    Output that is not UTF-8 text raises SolverError once the solver has
    exited.  A timeout that _check_timeout refuses raises ValueError
    before anything is written or run.
    """
    command = (shlex.split(solver_command) if isinstance(solver_command, str)
               else list(solver_command))
    if not command:
        raise SolverError("empty solver command")
    _check_timeout(timeout)
    fd, temp_path = tempfile.mkstemp(prefix="sepdfa-", suffix=".cnf")
    try:
        with os.fdopen(fd, "wb") as handle:
            emit_dimacs(formula, handle, cache)
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
            _kill_process_tree(proc)
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
    printed, assignment = parse_solver_output(text)
    if printed != outcome:
        raise SolverError(
            f"status line says {printed} but exit code says {outcome}")
    if outcome == "unsat":
        return SolverVerdict("unsat", None, wall_time)
    for var in range(1, formula.variable_count + 1):
        if var not in assignment:
            raise SolverError(f"model leaves variable {var} unassigned")
    for var in assignment:
        if var > formula.variable_count:
            raise SolverError(f"model assigns unknown variable {var}")
    if not formula.satisfied_by(assignment):
        raise SolverError("model does not satisfy the formula")
    return SolverVerdict("sat", assignment, wall_time)
