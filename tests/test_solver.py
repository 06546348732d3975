"""External solver subprocess handling and output parsing."""

import itertools
import os
import random
import signal
import subprocess
import tempfile
import time
import tracemalloc
from array import array

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sepdfa import solver
from sepdfa.encoding import CnfFormula
from sepdfa.solver import (
    MAX_TIMEOUT,
    SolverError,
    SolverTimeoutError,
    parse_solver_output,
    solve,
)

SAT_2VAR = CnfFormula(2, array("i", (1, 2, 0, -1, 2, 0)))  # forces 2 true
UNSAT_1VAR = CnfFormula(1, array("i", (1, 0, -1, 0)))


class TestParseOutput:
    def test_plain_sat(self):
        outcome, assignment = parse_solver_output(
            "c comment\ns SATISFIABLE\nv 1 -2 0\n", 2)
        assert outcome == "sat"
        assert assignment == b"\0\2\1"  # by variable: 1 false, 2 true

    def test_values_across_lines(self):
        outcome, assignment = parse_solver_output(
            "s SATISFIABLE\nv 1 -2\nv 3\nv 0\n", 3)
        assert assignment == b"\0\2\1\2"

    def test_values_before_status(self):
        outcome, _ = parse_solver_output("v 1 0\ns SATISFIABLE\n", 1)
        assert outcome == "sat"

    def test_unsat(self):
        # an unsat answer has no model, so its value lines go unread
        for values in ("", "v 1 banana 0\n", "v 1 -1 7 0\n"):
            outcome, assignment = parse_solver_output(
                f"{values}s UNSATISFIABLE\n", 2)
            assert outcome == "unsat"
            assert assignment is None

    def test_ansi_decorated_banner(self):
        text = "\x1b[1m\x1b[31ms UNSATISFIABLE: /tmp/x.cnf\x1b[0m\r\n"
        assert parse_solver_output(text, 1)[0] == "unsat"

    def test_no_status_line(self):
        with pytest.raises(SolverError):
            parse_solver_output("c chatter only\n", 1)

    def test_conflicting_status_lines(self):
        with pytest.raises(SolverError):
            parse_solver_output("s SATISFIABLE\ns UNSATISFIABLE\n", 1)

    def test_malformed_literal(self):
        with pytest.raises(SolverError):
            parse_solver_output("s SATISFIABLE\nv 1 banana 0\n", 2)

    def test_literals_after_terminator_ignored(self):
        _, assignment = parse_solver_output(
            "s SATISFIABLE\nv 1 0\nv 2 0\n", 1)
        assert assignment == b"\0\2"

    @pytest.mark.parametrize("values", [
        "v \u0661 0",      # Arabic-Indic one
        "v -2_0 0",
        "v +1 0",
        "v --1 0",
        "v 1 -\u0662 0",
        "v " + "9" * 5000 + " 0",  # more digits than int() reads
    ])
    def test_literals_are_ascii_numbers(self, values):
        with pytest.raises(SolverError, match="malformed literal"):
            parse_solver_output(f"s SATISFIABLE\n{values}\n", 2)

    @pytest.mark.parametrize("values,table", [
        ("v 1 -0 banana\nv 2 0", b"\0\2"),  # a 0 spelt "-0" ends them
        ("v 1 00 +3\nv \u0661", b"\0\2"),
        ("v 1 -2 0 x", b"\0\2\1"),
        ("v 1\u2003-2\t3 0", b"\0\2\1\2"),  # any whitespace separates
        ("v 1 2", b"\0\2\2"),                 # no 0 at all
        ("vx 1 2 0", b"\0\2\2"),              # the first word is skipped
    ])
    def test_values_end_at_the_first_zero(self, values, table):
        _, assignment = parse_solver_output(f"s SATISFIABLE\n{values}\n",
                                            len(table) - 1)
        assert assignment == table

    def test_values_across_many_lines(self):
        # more lines than one bulk read takes; variables in any order
        order = list(range(1, 3001))
        random.Random(5).shuffle(order)
        lits = [var if var % 3 else -var for var in order]
        lines = ["v " + " ".join(map(str, lits[at:at + 7]))
                 for at in range(0, len(lits), 7)]
        _, assignment = parse_solver_output(
            "s SATISFIABLE\n" + "\n".join(lines) + "\nv 0\n", 3000)
        assert assignment == bytes(
            [0] + [2 if var % 3 else 1 for var in range(1, 3001)])
        lines[-1] += " x"  # a malformed literal in the last bulk read
        with pytest.raises(SolverError, match="malformed literal.*'x'"):
            parse_solver_output("s SATISFIABLE\n" + "\n".join(lines), 3000)

    @pytest.mark.parametrize("values,message", [
        ("v 1 -1 2 0", "variable 1 twice"),
        ("v 2 1 -2 0", "variable 2 twice"),
        ("v 1 3 0", "unknown variable 3"),
        ("v 4 1 0", "unknown variable 4"),
        ("v 1 " + "9" * 30 + " 0", "unknown variable " + "9" * 30),
        ("v -9 9 0", "unknown variable 9"),
        ("v 1 1 3 0", "unknown variable 3"),
        ("v 1 0", "leaves variable 2 unassigned"),
        ("v -2 0", "leaves variable 1 unassigned"),
    ])
    def test_each_variable_once_and_none_beyond(self, values, message):
        # the model of a 2-variable formula names variables 1 and 2, each
        # once; an unknown variable is named before one listed twice
        with pytest.raises(SolverError, match=f"^model .*{message}"):
            parse_solver_output(f"s SATISFIABLE\n{values}\n", 2)

    @given(st.lists(st.lists(st.sampled_from(
        ["1", "-1", "2", "-2", "3", "-3", "4", "0", "-0", "00", "x", "+1",
         "1_0", "\u0663", "--1", "2-", "9" * 5000]), max_size=5), max_size=6),
        st.sampled_from([" ", "\t", " \u2003"]), st.integers(1, 3),
        st.integers(0, 4))
    def test_reads_what_one_token_at_a_time_reads(self, lines, space, chunk,
                                                  count):
        # The values are read in bulk, _LINES lines at a time; reading them
        # token by token gives the same literals, refuses the same tokens,
        # and any list but a permutation of 1..count is refused.
        text = "s SATISFIABLE\n" + "".join(
            "v" + "".join(space + token for token in tokens) + "\n"
            for tokens in lines)
        lits, malformed = [], None
        for token in itertools.chain.from_iterable(lines):
            digits = token.removeprefix("-")
            try:
                if not (digits.isascii() and digits.isdigit()):
                    raise ValueError
                lit = int(token)
            except ValueError:
                malformed = token
                break
            if lit == 0:
                break
            lits.append(lit)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(solver, "_LINES", chunk)
            if malformed is not None:
                with pytest.raises(SolverError, match="malformed literal"):
                    parse_solver_output(text, count)
            elif sorted(map(abs, lits)) != list(range(1, count + 1)):
                with pytest.raises(SolverError,
                                   match="unknown|twice|unassigned"):
                    parse_solver_output(text, count)
            else:
                table = bytearray(count + 1)
                for lit in lits:
                    table[abs(lit)] = 2 if lit > 0 else 1
                assert parse_solver_output(text, count) == ("sat", table)

    @given(st.text() | st.lists(st.lists(st.sampled_from(
        ["s", "v", "c", "SATISFIABLE", "UNSATISFIABLE", "0", "1", "-2",
         "\u0663", "x", "\x1b[0m", "9" * 5000]
    ), max_size=4).map(" ".join), max_size=4).map("\n".join))
    def test_fuzz_raises_only_solver_errors(self, text):
        try:
            parse_solver_output(text, 2)
        except SolverError:
            pass


class TestSolveWithRealSolver:
    def test_sat(self, solver_cmd):
        verdict = solve(SAT_2VAR, solver_cmd)
        assert verdict.outcome == "sat"
        assert verdict.model[2] == 2  # true
        assert verdict.wall_time >= 0

    def test_unsat(self, solver_cmd):
        verdict = solve(UNSAT_1VAR, solver_cmd)
        assert verdict.outcome == "unsat"
        assert verdict.model is None

    def test_command_as_string(self, solver_cmd):
        joined = " ".join(solver_cmd)
        assert solve(SAT_2VAR, joined).outcome == "sat"

    def test_missing_binary(self):
        with pytest.raises(SolverError, match="not found"):
            solve(SAT_2VAR, ["definitely-not-a-solver-xyz"])

    def test_empty_command(self):
        with pytest.raises(SolverError, match="empty"):
            solve(SAT_2VAR, [])

    def test_non_executable_file(self, tmp_path):
        script = tmp_path / "solver.sh"
        script.write_text("#!/bin/sh\nexit 10\n")
        with pytest.raises(SolverError, match="cannot run"):
            solve(SAT_2VAR, [str(script)])


class TestSolveWithFakeSolver:
    def test_exit_code_without_status_line(self, fake_solver):
        script = fake_solver("exit 10\n")
        with pytest.raises(SolverError, match="no status line"):
            solve(SAT_2VAR, [script])

    def test_status_exit_mismatch(self, fake_solver):
        script = fake_solver('echo "s UNSATISFIABLE"\nexit 10\n')
        with pytest.raises(SolverError, match="status line"):
            solve(SAT_2VAR, [script])

    def test_unexpected_exit_code(self, fake_solver):
        script = fake_solver('echo "boom" >&2\nexit 3\n')
        with pytest.raises(SolverError, match="status 3"):
            solve(SAT_2VAR, [script])

    def test_undecodable_output(self, fake_solver, tmp_path):
        # a byte that is not UTF-8 is a solver failure, reported once the
        # solver has exited
        done = tmp_path / "done"
        script = fake_solver(f"printf 's SATISFIABLE\\nv 1 \\377 0\\n'\n"
                             f'touch "{done}"\nexit 10\n')
        with pytest.raises(SolverError, match="not UTF-8"):
            solve(SAT_2VAR, [script])
        assert done.exists()

    def test_incomplete_model(self, fake_solver):
        script = fake_solver('echo "s SATISFIABLE"\necho "v 2 0"\nexit 10\n')
        with pytest.raises(SolverError, match="unassigned"):
            solve(SAT_2VAR, [script])
        # a complete model, but of a 1-variable formula
        script = fake_solver('echo "s SATISFIABLE"\necho "v 1 0"\nexit 10\n')
        with pytest.raises(SolverError,
                           match="^model leaves variable 2 unassigned$"):
            solve(SAT_2VAR, [script])

    def test_variable_assigned_twice(self, fake_solver):
        # {1: False, 2: True} would satisfy both clauses of SAT_2VAR
        script = fake_solver(
            'echo "s SATISFIABLE"\necho "v 1 -1 2 0"\nexit 10\n')
        with pytest.raises(SolverError, match="variable 1 twice"):
            solve(SAT_2VAR, [script])

    def test_unknown_variable_in_model(self, fake_solver):
        script = fake_solver(
            'echo "s SATISFIABLE"\necho "v 1 2 3 0"\nexit 10\n')
        with pytest.raises(SolverError, match="unknown variable"):
            solve(SAT_2VAR, [script])

    def test_unknown_variable_is_named(self, fake_solver):
        # read against the formula's 2 variables, not the output's length
        script = fake_solver(
            'echo "s SATISFIABLE"\necho "v 1 99999 0"\nexit 10\n')
        with pytest.raises(SolverError,
                           match="^model assigns unknown variable 99999$"):
            solve(SAT_2VAR, [script])

    def test_unsat_values_are_ignored(self, fake_solver):
        script = fake_solver(
            'echo "s UNSATISFIABLE"\necho "v 1 banana 0"\nexit 20\n')
        verdict = solve(SAT_2VAR, [script])
        assert (verdict.outcome, verdict.model) == ("unsat", None)

    def test_model_must_satisfy_formula(self, fake_solver):
        # claims sat but sets variable 2 false, violating both clauses
        script = fake_solver(
            'echo "s SATISFIABLE"\necho "v 1 -2 0"\nexit 10\n')
        with pytest.raises(SolverError, match="not satisfy"):
            solve(SAT_2VAR, [script])

    def test_model_check_reads_negative_literals(self, fake_solver):
        formula = CnfFormula(3, array("i", (1, -2, 0, -1, 3, 0,
                                            -3, 2, -1, 0)))
        good = fake_solver(
            'echo "s SATISFIABLE"\necho "v -1 -2 3 0"\nexit 10\n')
        assert solve(formula, [good]).model == b"\0\1\1\2"
        # breaks only the last clause
        bad = fake_solver(
            'echo "s SATISFIABLE"\necho "v 1 -2 3 0"\nexit 10\n', name="bad")
        with pytest.raises(SolverError, match="not satisfy"):
            solve(formula, [bad])

    def test_lying_unsat_is_trusted(self, fake_solver):
        # an unsat verdict carries no certificate we could check
        script = fake_solver('echo "s UNSATISFIABLE"\nexit 20\n')
        assert solve(SAT_2VAR, [script]).outcome == "unsat"

    def test_timeout_kills_solver(self, fake_solver):
        script = fake_solver("sleep 60\n")
        with pytest.raises(SolverTimeoutError):
            solve(SAT_2VAR, [script], timeout=0.3)

    def test_timeout_kills_solver_children(self, fake_solver, tmp_path):
        # the whole process group dies, not only the solver's own process
        pid_file = tmp_path / "child.pid"
        script = fake_solver(f'sleep 60 &\necho $! > "{pid_file}"\nwait\n')
        with pytest.raises(SolverTimeoutError):
            solve(SAT_2VAR, [script], timeout=0.5)
        child = int(pid_file.read_text())
        deadline = time.monotonic() + 5
        while True:
            try:
                with open(f"/proc/{child}/stat") as handle:
                    state = handle.read().rpartition(")")[2].split()[0]
            except FileNotFoundError:
                break  # gone and reaped
            if state == "Z":
                break  # dead, not yet reaped by its new parent
            if time.monotonic() > deadline:
                os.kill(child, signal.SIGKILL)  # still alive: clean up
                pytest.fail("the solver's child outlived the timeout")
            time.sleep(0.05)

    def test_longest_timeout(self, fake_solver, tmp_path, monkeypatch):
        # a longer wait cannot be polled for: refused before the temp file
        # is written or the solver started
        temp_dir = tmp_path / "tmp"
        temp_dir.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(temp_dir))
        ran = tmp_path / "ran"
        script = fake_solver(f'touch "{ran}"\n'
                             'echo "s SATISFIABLE"\necho "v -1 2 0"\nexit 10\n')
        with pytest.raises(ValueError, match="longest wait"):
            solve(SAT_2VAR, [script], timeout=MAX_TIMEOUT + 1)
        assert not ran.exists()
        assert not any(temp_dir.iterdir())
        assert solve(SAT_2VAR, [script], timeout=MAX_TIMEOUT).outcome == "sat"
        assert ran.exists()

    @pytest.mark.parametrize("timeout", [0, -1, float("nan"),
                                         float("inf")])
    def test_timeout_refused_up_front(self, fake_solver, tmp_path,
                                      monkeypatch, timeout):
        temp_dir = tmp_path / "tmp"
        temp_dir.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(temp_dir))
        ran = tmp_path / "ran"
        script = fake_solver(f'touch "{ran}"\nexit 1\n')
        with pytest.raises(ValueError,
                           match="finite positive number of seconds"):
            solve(SAT_2VAR, [script], timeout=timeout)
        assert not ran.exists()
        assert not any(temp_dir.iterdir())

    def test_interrupt_kills_solver(self, fake_solver, tmp_path,
                                    monkeypatch):
        # the solver has a session of its own, so Ctrl-C never reaches it
        pid_file = tmp_path / "pid"
        script = fake_solver(f'echo $$ > "{pid_file}"\nexec sleep 60\n')

        def interrupted(self, *args, **kwargs):
            deadline = time.monotonic() + 10
            while not pid_file.exists() or not pid_file.read_text().strip():
                if time.monotonic() > deadline:
                    raise AssertionError("fake solver did not start")
                time.sleep(0.01)
            raise KeyboardInterrupt

        monkeypatch.setattr(subprocess.Popen, "communicate", interrupted)
        with pytest.raises(KeyboardInterrupt):
            solve(SAT_2VAR, [script])
        pid = int(pid_file.read_text())
        with pytest.raises(ProcessLookupError):  # killed and reaped
            os.kill(pid, 0)

    def test_file_path_appended(self, fake_solver):
        script = fake_solver(
            'test -f "$1" || exit 3\n'
            'grep -q "p cnf 2 2" "$1" || exit 4\n'
            'echo "s SATISFIABLE"\necho "v 1 2 0"\nexit 10\n')
        assert solve(SAT_2VAR, [script]).outcome == "sat"


def test_model_memory_below_four_times_the_output():
    # The model of a 150,000-variable formula as perfbench/refsolver.c
    # prints it, 16 values per line, checked against one unit clause per
    # variable.  Parsed into a dict[int, bool], it peaked at 11.95 MB, 11.9
    # times the 1.0 MB output; as one byte table, at 3.05 MB (the lines and
    # their values, copied once, and the table).
    variables = 150_000
    lits = [var if var % 3 else -var for var in range(1, variables + 1)]
    lines = ["v" + "".join(f" {lit}" for lit in lits[at:at + 16])
             for at in range(0, variables, 16)]
    text = "s SATISFIABLE\n" + "\n".join(lines) + "\nv 0\n"
    formula = CnfFormula(variables, array(
        "i", [x for lit in lits for x in (lit, 0)]))
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        _, model = parse_solver_output(text, variables)
        assert formula.satisfied_by(model)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * len(text)
