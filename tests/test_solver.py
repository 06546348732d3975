"""External solver subprocess handling and output parsing."""

import os
import subprocess
import tempfile
import time
from array import array

import pytest
from hypothesis import given
from hypothesis import strategies as st

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
            "c comment\ns SATISFIABLE\nv 1 -2 0\n")
        assert outcome == "sat"
        assert assignment == {1: True, 2: False}

    def test_values_across_lines(self):
        outcome, assignment = parse_solver_output(
            "s SATISFIABLE\nv 1 -2\nv 3\nv 0\n")
        assert assignment == {1: True, 2: False, 3: True}

    def test_values_before_status(self):
        outcome, _ = parse_solver_output("v 1 0\ns SATISFIABLE\n")
        assert outcome == "sat"

    def test_unsat(self):
        outcome, assignment = parse_solver_output("s UNSATISFIABLE\n")
        assert outcome == "unsat"
        assert assignment == {}

    def test_ansi_decorated_banner(self):
        text = "\x1b[1m\x1b[31ms UNSATISFIABLE: /tmp/x.cnf\x1b[0m\r\n"
        assert parse_solver_output(text)[0] == "unsat"

    def test_no_status_line(self):
        with pytest.raises(SolverError):
            parse_solver_output("c chatter only\n")

    def test_conflicting_status_lines(self):
        with pytest.raises(SolverError):
            parse_solver_output("s SATISFIABLE\ns UNSATISFIABLE\n")

    def test_malformed_literal(self):
        with pytest.raises(SolverError):
            parse_solver_output("s SATISFIABLE\nv 1 banana 0\n")

    def test_literals_after_terminator_ignored(self):
        _, assignment = parse_solver_output(
            "s SATISFIABLE\nv 1 0\nv 2 0\n")
        assert assignment == {1: True}

    @pytest.mark.parametrize("values", [
        "v \u0661 0",      # Arabic-Indic one
        "v -2_0 0",
        "v +1 0",
        "v --1 0",
        "v 1 -\u0662 0",
    ])
    def test_literals_are_ascii_numbers(self, values):
        with pytest.raises(SolverError, match="malformed literal"):
            parse_solver_output(f"s SATISFIABLE\n{values}\n")

    @given(st.text() | st.lists(st.lists(st.sampled_from(
        ["s", "v", "c", "SATISFIABLE", "UNSATISFIABLE", "0", "1", "-2",
         "\u0663", "x", "\x1b[0m", "9" * 5000]
    ), max_size=4).map(" ".join), max_size=4).map("\n".join))
    def test_fuzz_raises_only_solver_errors(self, text):
        try:
            parse_solver_output(text)
        except SolverError:
            pass


class TestSolveWithRealSolver:
    def test_sat(self, solver_cmd):
        verdict = solve(SAT_2VAR, solver_cmd)
        assert verdict.outcome == "sat"
        assert verdict.model[2] is True
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

    def test_unknown_variable_in_model(self, fake_solver):
        script = fake_solver(
            'echo "s SATISFIABLE"\necho "v 1 2 3 0"\nexit 10\n')
        with pytest.raises(SolverError, match="unknown variable"):
            solve(SAT_2VAR, [script])

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
        assert solve(formula, [good]).model == {1: False, 2: False, 3: True}
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
