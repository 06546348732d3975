"""Command line behaviour: exit codes, outputs, file round trips."""

import contextlib
import os
import re
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest

from sepdfa import cli, generators, mining
from sepdfa.automata import ThreeValuedDFA, parse_automaton
from sepdfa.cli import main
from sepdfa.samples import parse_abbadingo, write_abbadingo


@pytest.fixture
def solver_arg(solver_cmd):
    return " ".join(solver_cmd)


def write(path, text):
    path.write_text(text)
    return str(path)


PID_FILE = "solver.pid"


def mine_until_signalled(tmp_path, samples, solver, sig):
    """Run mine in a child process and signal it once its solver has
    written PID_FILE; return (exit status, stdout).

    Also checks that the solver is gone and that the mine left nothing in
    its TMPDIR, neither a formula file nor the formula's own text.
    """
    pid_file = tmp_path / PID_FILE
    temp_dir = tmp_path / "tmp"
    temp_dir.mkdir()
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, TMPDIR=str(temp_dir),
               PYTHONPATH=os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen(
        [sys.executable, "-m", "sepdfa.cli", "mine", samples,
         "--solver", solver], env=env, text=True,
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    solver_pid = None
    try:
        deadline = time.monotonic() + 30
        while not pid_file.exists() or not pid_file.read_text().strip():
            assert time.monotonic() < deadline, "solver never started"
            assert proc.poll() is None, "mine ended before its solver"
            time.sleep(0.05)
        solver_pid = int(pid_file.read_text())
        proc.send_signal(sig)
        out, _ = proc.communicate(timeout=30)
        with pytest.raises(ProcessLookupError):
            os.kill(solver_pid, 0)
        assert list(temp_dir.iterdir()) == []
        return proc.returncode, out
    finally:
        proc.kill()
        proc.communicate()
        if solver_pid is not None:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(solver_pid, signal.SIGKILL)


class TestUsageErrors:
    def test_no_arguments(self, capsys):
        assert main([]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: sepdfa ")
        assert err.endswith("\nsepdfa: error: the following arguments are "
                            "required: command\n")

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_unknown_flag(self, capsys):
        assert main(["stats", "--colours", "2", "--length", "3",
                     "--bogus"]) == 1

    def test_bad_mode_choice(self, tmp_path, capsys):
        samples = write(tmp_path / "s.txt", "1 2\n1 1 0\n")
        assert main(["mine", samples, "--mode", "nonsense"]) == 1

    @pytest.mark.parametrize("flags,message", [
        (["--n-start", "0"], "n_start must be at least 1"),
        (["--safety", "--n-start", "1"], "safety mode needs n_start >= 2"),
        (["--n-max", "0"], "n_max must be at least the smallest candidate "
                           "size (1)"),
        (["--safety", "--n-max", "1"], "n_max must be at least the smallest "
                                       "candidate size (2)"),
        (["--n-start", "3", "--n-max", "2"],
         "n_max must be at least n_start (3)"),
    ])
    def test_bad_size_range(self, tmp_path, capsys, flags, message):
        samples = write(tmp_path / "s.txt", "1 2\n1 1 0\n")
        assert main(["mine", samples, *flags]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("flags", [[], ["--safety"]])
    def test_n_start_above_size_bound(self, tmp_path, fake_solver, capsys,
                                      flags):
        # no size is left to try, so no solver runs and nothing is reported
        ran = tmp_path / "ran"
        script = fake_solver(f'touch "{ran}"\nexit 1\n')
        samples = write(tmp_path / "s.txt", "2 2\n1 1 0\n0 1 1\n")
        assert main(["mine", samples, "--n-start", "10", "--solver", script,
                     *flags]) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            "error: n_start 10 exceeds the size bound 4; "
            "give n_max to search beyond it\n")
        assert captured.out == ""
        assert not ran.exists()

    @pytest.mark.parametrize("seconds", ["0", "-1", "nan", "inf", "x",
                                         "2147484"])
    def test_bad_timeout(self, tmp_path, fake_solver, capsys, seconds):
        # rejected while parsing the command line, before any solver runs
        ran = tmp_path / "ran"
        script = fake_solver(f'touch "{ran}"\nexit 1\n')
        samples = write(tmp_path / "s.txt", "1 2\n1 1 0\n")
        assert main(["mine", samples, "--solver", script,
                     "--timeout", seconds]) == 1
        err = capsys.readouterr().err
        assert "finite positive number of seconds" in err
        assert not ran.exists()

    def test_safety_on_one_letter(self, tmp_path, fake_solver, capsys):
        # refused with the size checks, before any solver runs
        ran = tmp_path / "ran"
        script = fake_solver(f'touch "{ran}"\nexit 1\n')
        samples = write(tmp_path / "k1.txt", "2 1\n1 1 0\n0 2 0 0\n")
        assert main(["mine", samples, "--safety", "--solver", script]) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            "error: safety mode needs an alphabet of at least 2 letters "
            "(parity colours); the samples have 1\n")
        assert captured.out == ""
        assert not ran.exists()

    @pytest.mark.parametrize("argv", [
        ["gen-parity", "--colours", "1", "--length", "3"],
        ["gen-parity", "--colours", "2", "--length", "27"],
        ["gen-random", "--dfa-size", "0"],
        ["gen-random", "--dfa-size", "2", "--max-len", "3000000"],
        ["stats", "--colours", "1", "--length", "3"],
        ["stats", "--colours", "2", "--length", "27"],
        ["mine", "SAMPLES", "--n-start", "0"],
    ])
    def test_refusal_is_one_error_line(self, tmp_path, capsys, argv):
        # whichever module refuses the value, main() words it alike
        samples = write(tmp_path / "s.txt", "1 2\n1 1 0\n")
        out = str(tmp_path / "out.txt")
        argv = [samples if a == "SAMPLES" else a for a in argv]
        if argv[0].startswith("gen-"):
            argv += ["--out", out]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
        assert not os.path.exists(out)

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert main(["mine", "--help"]) == 0


class TestMine:
    def test_happy_path(self, tmp_path, solver_arg, capsys):
        samples = write(tmp_path / "s.txt", "2 2\n1 1 0\n0 1 1\n")
        dfa_out = tmp_path / "result.dfa"
        code = main(["mine", samples, "--solver", solver_arg,
                     "--dfa-out", str(dfa_out)])
        out = capsys.readouterr().out
        assert code == 0
        assert "minimal size 2" in out
        assert "verified yes" in out
        assert "acceptor size 3\nlower bound 2\nn=1 unsat" in out
        dumped = parse_automaton(dfa_out.read_text())
        assert dumped.state_count == 2

    def test_missing_sample_file(self, tmp_path, capsys):
        assert main(["mine", str(tmp_path / "absent.txt")]) == 2

    def test_malformed_samples(self, tmp_path, capsys):
        samples = write(tmp_path / "bad.txt", "not a header\n")
        assert main(["mine", samples]) == 2

    def test_non_utf8_samples(self, tmp_path, capsys):
        # a UnicodeDecodeError is a ValueError, but unreadable input: 2
        samples = tmp_path / "latin1.txt"
        samples.write_bytes(b"1 2\n1 1 0\n\xff\n")
        assert main(["mine", str(samples)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_conflicting_samples(self, tmp_path, capsys):
        samples = write(tmp_path / "conflict.txt", "2 2\n1 1 0\n0 1 0\n")
        assert main(["mine", samples]) == 2

    def test_missing_solver(self, tmp_path, capsys):
        samples = write(tmp_path / "s.txt", "1 2\n1 1 0\n")
        assert main(["mine", samples, "--solver",
                     "no-such-solver-binary"]) == 3

    def test_non_executable_solver(self, tmp_path, capsys):
        samples = write(tmp_path / "s.txt", "1 2\n1 1 0\n")
        script = write(tmp_path / "solver.sh", "#!/bin/sh\nexit 10\n")
        assert main(["mine", samples, "--solver", script]) == 3

    @pytest.mark.parametrize("flags,code,first", [
        (["--n-start", "1", "--n-max", "1"], 7, "n=1 unsat"),
        (["--safety"], 7, "n=2 unsat"),
        ([], 6, "n=1 unsat"),       # the computed bound should suffice
    ])
    def test_search_without_dfa(self, tmp_path, fake_solver, capsys, flags,
                                code, first):
        samples = write(tmp_path / "s.txt", "2 2\n1 1 0\n0 1 1\n")
        unsat = fake_solver("echo 's UNSATISFIABLE'\nexit 20\n")
        assert main(["mine", samples, "--solver", unsat, *flags]) == code
        captured = capsys.readouterr()
        assert captured.out.startswith("mode min3dfa\n")
        assert first in captured.out
        assert captured.err.startswith("error: no ")

    def test_n_max_below_lower_bound(self, tmp_path, fake_solver, capsys):
        # refused before any solver call; the partial report names the bound
        ran = tmp_path / "ran"
        script = fake_solver(f'touch "{ran}"\nexit 1\n')
        samples = write(tmp_path / "s.txt", "2 2\n1 1 0\n0 1 1\n")
        assert main(["mine", samples, "--n-max", "1", "--solver",
                     script]) == 7
        captured = capsys.readouterr()
        assert captured.out == (
            "mode min3dfa\nsafety off\nsymmetry-breaking on\n"
            "acceptor size 3\nlower bound 2\n")
        assert captured.err == (
            "error: no separating DFA up to the requested size 1: the "
            "search needs at least 2 states, as 2 acceptor states are "
            "pairwise incompatible\n")
        assert not ran.exists()

    def test_unwritable_dfa_out_refused_before_search(self, tmp_path,
                                                      fake_solver, capsys):
        ran = tmp_path / "ran"
        script = fake_solver(f'touch "{ran}"\nexit 1\n')
        samples = write(tmp_path / "s.txt", "2 2\n1 1 0\n0 1 1\n")
        dfa_out = tmp_path / "absent-dir" / "x.dfa"
        assert main(["mine", samples, "--solver", script,
                     "--dfa-out", str(dfa_out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "No such file or directory" in captured.err
        assert not ran.exists()
        assert not dfa_out.parent.exists()

    def test_mined_dfa_violating_samples_is_internal_error(
            self, tmp_path, solver_arg, capsys, monkeypatch):
        # a decoded DFA that rejects everything mislabels the positive word
        def reject_all(model, vm):
            return ThreeValuedDFA(
                vm.alphabet_size, 1, (0,),
                {(0, a): 0 for a in range(vm.alphabet_size)},
                frozenset(), frozenset({0}))

        monkeypatch.setattr(mining, "decode_model", reject_all)
        samples = write(tmp_path / "s.txt", "2 2\n1 1 0\n0 1 1\n")
        dfa_out = tmp_path / "result.dfa"
        assert main(["mine", samples, "--solver", solver_arg,
                     "--dfa-out", str(dfa_out)]) == 6
        captured = capsys.readouterr()
        assert captured.err == (
            "error: internal error: mined DFA violates 1 samples\n")
        assert "\nn=1 unsat " in captured.out
        assert "\nn=2 sat " in captured.out
        assert "verified yes" not in captured.out
        assert not dfa_out.exists()

    @pytest.mark.parametrize("existing", [None, "old dump\n"])
    def test_failed_mine_leaves_dfa_out_as_found(self, tmp_path, fake_solver,
                                                 capsys, existing):
        # the early check neither truncates a file nor leaves one behind
        samples = write(tmp_path / "s.txt", "2 2\n1 1 0\n0 1 1\n")
        unsat = fake_solver("echo 's UNSATISFIABLE'\nexit 20\n")
        dfa_out = tmp_path / "result.dfa"
        if existing is not None:
            dfa_out.write_text(existing)
        assert main(["mine", samples, "--solver", unsat, "--n-start", "1",
                     "--n-max", "1", "--dfa-out", str(dfa_out)]) == 7
        if existing is None:
            assert not dfa_out.exists()
        else:
            assert dfa_out.read_text() == existing

    def test_solver_failure_shows_report(self, tmp_path, fake_solver, capsys):
        samples = write(tmp_path / "s.txt", "2 2\n1 1 0\n0 1 1\n")
        broken = fake_solver("exit 1\n")
        assert main(["mine", samples, "--solver", broken]) == 3
        captured = capsys.readouterr()
        assert captured.out.startswith("mode min3dfa\n")
        assert captured.err.startswith("error: solver exited with status 1")

    def test_undecodable_solver_output(self, tmp_path, fake_solver, capsys):
        samples = write(tmp_path / "s.txt", "2 2\n1 1 0\n0 1 1\n")
        bad = fake_solver("printf 's SATISFIABLE\\nv 1 \\377 0\\n'\n"
                          "exit 10\n")
        assert main(["mine", samples, "--solver", bad]) == 3
        captured = capsys.readouterr()
        assert captured.out.startswith("mode min3dfa\n")
        assert "lower bound 2\n" in captured.out
        assert captured.err.startswith("error: solver output is not UTF-8")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("solver,code", [
        ("sat", 0),
        ("echo 's UNSATISFIABLE'\nexit 20\n", 7),
        ("exit 1\n", 3),
    ])
    def test_mine_leaves_temp_dir_empty(self, tmp_path, fake_solver,
                                        solver_arg, monkeypatch, capsys,
                                        solver, code):
        # neither the solver's formula file nor the formula's own text of
        # its stable part outlives a finished or a failed mine
        temp_dir = tmp_path / "tmp"
        temp_dir.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(temp_dir))
        samples = write(tmp_path / "s.txt", "2 2\n1 1 0\n0 1 1\n")
        command = solver_arg if solver == "sat" else fake_solver(solver)
        assert main(["mine", samples, "--solver", command, "--n-start", "1",
                     "--n-max", "2"]) == code
        # the failing solver stops the mine at n=1, the others reach n=2
        assert ("\nn=2 " in capsys.readouterr().out) == (code != 3)
        assert list(temp_dir.iterdir()) == []

    def test_timeout(self, tmp_path, fake_solver, capsys):
        samples = write(tmp_path / "s.txt", "2 2\n1 1 0\n0 1 1\n")
        slow = fake_solver("sleep 60\n")
        assert main(["mine", samples, "--solver", slow,
                     "--timeout", "0.3"]) == 4

    @pytest.mark.parametrize("sig", [signal.SIGTERM, signal.SIGHUP])
    def test_signal_stops_solver_and_removes_formula(self, tmp_path,
                                                     fake_solver, sig):
        samples = write(tmp_path / "s.txt", "2 2\n1 1 0\n0 1 1\n")
        sleeper = fake_solver(f'echo $$ > "{tmp_path / PID_FILE}"\n'
                              f'exec sleep 60\n')
        status, _ = mine_until_signalled(tmp_path, samples, sleeper, sig)
        assert status == 128 + sig

    @pytest.mark.parametrize("sig", [signal.SIGTERM, signal.SIGHUP])
    def test_signal_prints_finished_attempts(self, tmp_path, fake_solver,
                                             sig):
        # n=1 is unsat; the signal comes while the solver works on n=2
        samples = write(tmp_path / "s.txt", "2 2\n1 1 0\n0 1 1\n")
        called = tmp_path / "called"
        solver = fake_solver(f"""\
            if [ ! -e "{called}" ]; then
                touch "{called}"
                echo 's UNSATISFIABLE'
                exit 20
            fi
            echo $$ > "{tmp_path / PID_FILE}"
            exec sleep 60
            """)
        status, out = mine_until_signalled(tmp_path, samples, solver, sig)
        assert status == 128 + sig
        header, attempt = out.split("lower bound 2\n")
        assert header == ("mode min3dfa\nsafety off\nsymmetry-breaking on\n"
                          "acceptor size 3\n")
        assert attempt.startswith("n=1 unsat ")
        assert attempt.count("\n") == 1

    def test_ctrl_c_prints_header_then_raises(self, tmp_path, fake_solver,
                                              capsys):
        samples = write(tmp_path / "s.txt", "2 2\n1 1 0\n0 1 1\n")
        # the pause lets solve() reach its wait, which kills the sleep
        script = fake_solver("sleep 0.1\nkill -INT $PPID\nexec sleep 60\n")
        previous = signal.signal(signal.SIGINT, signal.default_int_handler)
        try:
            with pytest.raises(KeyboardInterrupt):
                main(["mine", samples, "--solver", script])
        finally:
            signal.signal(signal.SIGINT, previous)
        assert capsys.readouterr().out == (
            "mode min3dfa\nsafety off\nsymmetry-breaking on\n"
            "acceptor size 3\nlower bound 2\n")

    def test_ignored_sighup_stays_ignored(self, tmp_path, fake_solver,
                                          capsys):
        # the solver hangs up on its parent, this process, and then fails
        samples = write(tmp_path / "s.txt", "2 2\n1 1 0\n0 1 1\n")
        script = fake_solver("kill -HUP $PPID\nexit 1\n")
        term = signal.getsignal(signal.SIGTERM)
        hup = signal.signal(signal.SIGHUP, signal.SIG_IGN)
        try:
            assert main(["mine", samples, "--solver", script]) == 3
            assert signal.getsignal(signal.SIGHUP) == signal.SIG_IGN
            assert signal.getsignal(signal.SIGTERM) == term
        finally:
            signal.signal(signal.SIGHUP, hup)

    def test_safety_flag(self, tmp_path, solver_arg, capsys):
        samples = write(tmp_path / "s.txt",
                        "8 2\n1 3 0 0 0\n1 3 0 0 1\n1 3 1 0 0\n"
                        "0 3 0 1 0\n0 3 0 1 1\n0 3 1 0 1\n"
                        "0 3 1 1 0\n0 3 1 1 1\n")
        code = main(["mine", samples, "--safety", "--solver", solver_arg])
        out = capsys.readouterr().out
        assert code == 0
        assert "safety on" in out
        assert "minimal size 3" in out

    def test_no_symmetry_flag(self, tmp_path, solver_arg, capsys):
        samples = write(tmp_path / "s.txt", "2 2\n1 1 0\n0 1 1\n")
        code = main(["mine", samples, "--no-symmetry-breaking",
                     "--solver", solver_arg])
        out = capsys.readouterr().out
        assert code == 0
        assert "symmetry-breaking off" in out
        assert "minimal size 2" in out


# Sample files of the claim table: TWO needs 2 states, and 2 states are
# pairwise incompatible; LOOSE needs 3 states, though its clique has 2;
# CLIQUE3 has a clique of 3; PAIR is one positive word over 2 colours,
# whose smallest safety-shaped separator has 3 states.
TWO = "2 2\n1 1 0\n0 1 1\n"
LOOSE = "2 2\n1 1 0\n0 3 0 0 0\n"
CLIQUE3 = "4 2\n1 0\n1 3 0 0 0\n0 1 0\n0 2 0 0\n"
PAIR = "1 2\n1 2 0 0\n"


class TestClaims:
    """Every claim a mine can end with, as the command line prints it.

    An attempt line keeps only its size and outcome: the formula's size is
    pinned elsewhere, and its timings vary.
    """

    @staticmethod
    def check(capsys, err, tail):
        # the five header lines end with the lower bound; the claim follows
        captured = capsys.readouterr()
        lines = re.sub(r" vars=.*", "", captured.out).splitlines(True)
        assert lines[4].startswith("lower bound ")
        assert "".join(lines[5:]) == tail
        assert captured.err == (f"error: {err}\n" if err else "")

    @pytest.mark.parametrize("samples,flags,code,err,tail", [
        pytest.param(TWO, ["--n-start", "2"], 0, "",
                     "n=2 sat\nminimal size 2\nverified yes\n",
                     id="minimal-by-clique"),
        pytest.param(LOOSE, [], 0, "",
                     "n=1 unsat\nn=2 unsat\nn=3 sat\nminimal size 3\n"
                     "verified yes\n", id="minimal-by-refutation"),
        pytest.param(TWO, ["--n-start", "3"], 0, "",
                     "n=3 sat\nseparating size 3\n"
                     "minimality not shown: n=2 not tried\nverified yes\n",
                     id="minimality-not-shown"),
        pytest.param(TWO, ["--n-max", "1"], 7,
                     "no separating DFA up to the requested size 1: the "
                     "search needs at least 2 states, as 2 acceptor states "
                     "are pairwise incompatible", "", id="clique-refutes"),
        pytest.param(CLIQUE3, ["--safety", "--n-max", "2"], 7,
                     "no separating DFA up to the requested size 2: the "
                     "search needs at least 3 states, as 3 acceptor states "
                     "are pairwise incompatible", "",
                     id="clique-refutes-safety"),
        pytest.param(LOOSE, ["--n-max", "2"], 7,
                     "no separating DFA up to the requested size 2",
                     "n=1 unsat\nn=2 unsat\n", id="refuted-up-to-cap"),
        pytest.param(PAIR, ["--safety", "--n-max", "2"], 7,
                     "no safety-shaped separating DFA up to the requested "
                     "size 2", "n=2 unsat\n", id="safety-refuted-up-to-cap"),
        pytest.param(TWO, ["--safety"], 7,
                     "no safety-shaped separating DFA up to size 4; the "
                     "sample set may admit none of any size",
                     "n=2 unsat\nn=3 unsat\nn=4 unsat\n",
                     id="safety-refuted-up-to-bound"),
        # no safety-shaped DFA has 2 states, so a one-state acceptor's
        # bound is 3, not 2; over 3 colours none rejects the empty word
        pytest.param("0 2\n", ["--safety"], 0, "",
                     "n=2 unsat\nn=3 sat\nminimal size 3\nverified yes\n",
                     id="safety-bound-past-one-state"),
        pytest.param("1 3\n0 0\n", ["--safety"], 7,
                     "no safety-shaped separating DFA up to size 3; the "
                     "sample set may admit none of any size",
                     "n=2 unsat\nn=3 unsat\n",
                     id="safety-refuted-up-to-three"),
        pytest.param(TWO, ["--n-start", "1", "--n-max", "1"], 7,
                     "no separating DFA found at sizes 1..1", "n=1 unsat\n",
                     id="refuted-at-sizes"),
        pytest.param(PAIR, ["--safety", "--n-start", "4"], 7,
                     "no safety-shaped separating DFA found at sizes 4..4",
                     "n=4 unsat\n", id="safety-refuted-at-sizes"),
        # the completion bound separates, so refuting it is a fault
        pytest.param(TWO, ["--solver", "UNSAT"], 6,
                     "no separating DFA up to size 4; the bound should have "
                     "sufficed, so the encoding or solver is at fault",
                     "n=1 unsat\nn=2 unsat\nn=3 unsat\nn=4 unsat\n",
                     id="bound-should-have-sufficed"),
    ])
    def test_claim(self, tmp_path, solver_arg, fake_solver, capsys, samples,
                   flags, code, err, tail):
        # UNSAT stands for a solver that refutes every size; the last
        # --solver given wins
        unsat = fake_solver("echo 's UNSATISFIABLE'\nexit 20\n")
        flags = [unsat if f == "UNSAT" else f for f in flags]
        path = write(tmp_path / "s.txt", samples)
        assert main(["mine", path, "--solver", solver_arg, *flags]) == code
        self.check(capsys, err, tail)

    def test_safety_claim_names_the_shape(self, tmp_path, solver_arg,
                                          parity_corpus, capsys):
        # the solver refutes only safety-shaped DFAs up to 6 states, and
        # plain mining finds one of 5
        path = write(tmp_path / "p34.txt",
                     write_abbadingo(parity_corpus(3, 4)))
        assert main(["mine", path, "--safety", "--n-max", "6",
                     "--solver", solver_arg]) == 7
        captured = capsys.readouterr()
        assert captured.err == ("error: no safety-shaped separating DFA up "
                                "to the requested size 6\n")
        assert main(["mine", path, "--solver", solver_arg]) == 0
        assert "\nminimal size 5\n" in capsys.readouterr().out


class TestGenParity:
    def test_writes_corpus(self, tmp_path, capsys):
        out = tmp_path / "corpus.txt"
        assert main(["gen-parity", "--colours", "2", "--length", "3",
                     "--out", str(out)]) == 0
        s = parse_abbadingo(out.read_text())
        assert (len(s.positives), len(s.negatives)) == (3, 5)

    def test_needs_out_or_stats(self, capsys):
        assert main(["gen-parity", "--colours", "2", "--length", "3"]) == 1

    def test_bad_config(self, tmp_path, capsys):
        out = tmp_path / "corpus.txt"
        assert main(["gen-parity", "--colours", "1", "--length", "3",
                     "--out", str(out)]) == 1
        assert main(["gen-parity", "--colours", "3", "--length", "3",
                     "--out", str(out)]) == 1
        assert not out.exists()

    def test_budget_exceeded(self, tmp_path, capsys):
        out = tmp_path / "corpus.txt"
        # the large counts have too many digits to print: named as powers
        for flags, count in ((["--colours", "2", "--length", "27"], "2^27"),
                             (["--colours", "2", "--length", "20000"],
                              "2^20000"),
                             (["--colours", "1000000", "--length", "1000001"],
                              "1000000^1000001")):
            assert main(["gen-parity", *flags, "--out", str(out)]) == 1
            assert capsys.readouterr().err.startswith(
                f"error: {count} words exceed the budget of ")
            assert not out.exists()


class TestGenRandomAndVerify:
    def test_round_trip(self, tmp_path, solver_arg, capsys):
        out = tmp_path / "random.txt"
        assert main(["gen-random", "--dfa-size", "3", "--seed", "5",
                     "--out", str(out)]) == 0
        assert main(["verify", str(out) + ".dfa", str(out)]) == 0
        assert "verification OK" in capsys.readouterr().out
        code = main(["mine", str(out), "--solver", solver_arg])
        mined = capsys.readouterr().out
        assert code == 0
        assert "minimal size" in mined

    def test_custom_dfa_out(self, tmp_path, capsys):
        out = tmp_path / "r.txt"
        dfa_out = tmp_path / "hidden.dfa"
        assert main(["gen-random", "--dfa-size", "2", "--out", str(out),
                     "--dfa-out", str(dfa_out),
                     "--sample-count", "10", "--max-len", "4"]) == 0
        assert parse_automaton(dfa_out.read_text()).state_count == 2
        assert parse_abbadingo(out.read_text()).size == 10

    def test_bad_size(self, tmp_path, capsys):
        out = tmp_path / "x.txt"
        for flags, message in (
                (["--dfa-size", "0"], "size must be at least 1"),
                # the size, not the sample count derived from it
                (["--dfa-size", "-1"], "size must be at least 1"),
                (["--dfa-size", "2", "--sample-count", "-1"],
                 "count must not be negative"),
                (["--dfa-size", "2", "--max-len", "-1"],
                 "max_len must not be negative"),
                # 50 distinct words from the 3 of length <= 1
                (["--dfa-size", "2", "--max-len", "1", "--sample-count",
                  "50"], "cannot draw 50 distinct words from a pool of 3"),
                # 100 * 3000000 letters exceed the letter budget
                (["--dfa-size", "2", "--max-len", "3000000"],
                 "100 words of length up to 3000000 exceed the budget"),
                # refused before the slow draw of a 2000-state DFA
                (["--dfa-size", "2000"],
                 "100000 words of length up to 4003 exceed the budget"),
                # 50 * 316 words of up to 635 letters: over 10^7
                (["--dfa-size", "316"],
                 "15800 words of length up to 635 exceed the budget")):
            assert main(["gen-random", *flags, "--out", str(out)]) == 1
            assert capsys.readouterr().err.startswith(f"error: {message}")
            assert not out.exists()

    def test_draw_over_the_budget_writes_nothing(self, tmp_path, capsys,
                                                 monkeypatch):
        # seed 2 rejects its first 5-state draw; 29 letters allow one draw
        monkeypatch.setattr(generators, "LETTER_BUDGET", 29)
        out = tmp_path / "r.txt"
        assert main(["gen-random", "--dfa-size", "5", "--seed", "2",
                     "--sample-count", "1", "--max-len", "1",
                     "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: no 5-state DFA with every state reachable within the "
            "budget of 29 letters\n")
        assert list(tmp_path.iterdir()) == []

    def test_verify_failure_lists_violations(self, tmp_path, capsys):
        dfa = write(tmp_path / "d.dfa",
                    "states 1 initial 0 alphabet 2\nstate 0 R\n"
                    "trans 0 0 0\ntrans 0 1 0\n")
        samples = write(tmp_path / "s.txt", "2 2\n1 1 0\n0 1 1\n")
        assert main(["verify", dfa, samples]) == 5
        out = capsys.readouterr().out
        assert "violation: should accept: 0" in out
        assert "verification FAILED with 1 violations" in out

    def test_verify_rejects_partial_automaton(self, tmp_path, capsys):
        dfa = write(tmp_path / "d.dfa",
                    "states 1 initial 0 alphabet 2\nstate 0 A\n"
                    "trans 0 0 0\n")
        samples = write(tmp_path / "s.txt", "1 2\n1 1 0\n")
        assert main(["verify", dfa, samples]) == 2

    def test_verify_rejects_dont_care_automaton(self, tmp_path, capsys):
        dfa = write(tmp_path / "d.dfa",
                    "states 1 initial 0 alphabet 1\nstate 0 D\n"
                    "trans 0 0 0\n")
        samples = write(tmp_path / "s.txt", "1 1\n1 1 0\n")
        assert main(["verify", dfa, samples]) == 2

    def test_verify_non_utf8_dump(self, tmp_path, capsys):
        dfa = tmp_path / "d.dfa"
        dfa.write_bytes(b"states 1 initial 0 alphabet 1\nstate 0 \xc1\n")
        samples = write(tmp_path / "s.txt", "1 1\n1 1 0\n")
        assert main(["verify", str(dfa), samples]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_verify_alphabet_mismatch(self, tmp_path, capsys):
        dfa = write(tmp_path / "d.dfa",
                    "states 1 initial 0 alphabet 1\nstate 0 A\n"
                    "trans 0 0 0\n")
        samples = write(tmp_path / "s.txt", "1 2\n1 1 1\n")
        assert main(["verify", dfa, samples]) == 2


class TestStats:
    def test_line(self, capsys):
        assert main(["stats", "--colours", "3", "--length", "4"]) == 0
        assert capsys.readouterr().out.strip() == "3\t4\t51\t20\t111\t23\t28"

    def test_smallest_corpus_line(self, capsys):
        assert main(["stats", "--colours", "2", "--length", "3"]) == 0
        assert capsys.readouterr().out.strip() == "2\t3\t3\t5\t15\t8\t12"

    def test_bad_config(self, capsys):
        assert main(["stats", "--colours", "0", "--length", "4"]) == 1
        assert main(["stats", "--colours", "1", "--length", "3"]) == 1
        assert main(["stats", "--colours", "3", "--length", "3"]) == 1

    def test_budget_exceeded(self, capsys):
        for flags, count in ((["--colours", "2", "--length", "27"], "2^27"),
                             (["--colours", "10", "--length", "5000"],
                              "10^5000")):
            assert main(["stats", *flags]) == 1
            captured = capsys.readouterr()
            assert captured.err.startswith(
                f"error: {count} words exceed the budget of ")
            assert captured.out == ""

    def test_unexpected_exception_prints_traceback(self, capsys,
                                                   monkeypatch):
        # an exception outside _EXIT_CODES is an internal error
        def broken(cfg):
            raise KeyError("boom")

        monkeypatch.setattr(cli, "parity_stats", broken)
        assert main(["stats", "--colours", "3", "--length", "4"]) == 6
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("Traceback (most recent call last):")
        assert captured.err.endswith("KeyError: 'boom'\n")
