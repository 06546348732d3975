"""Command line behaviour: exit codes, outputs, file round trips."""

import pytest

from sepdfa.automata import parse_automaton
from sepdfa.cli import main
from sepdfa.samples import parse_abbadingo


@pytest.fixture
def solver_arg(solver_cmd):
    return " ".join(solver_cmd)


def write(path, text):
    path.write_text(text)
    return str(path)


class TestUsageErrors:
    def test_no_arguments(self, capsys):
        assert main([]) == 1

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
        (["--n-max", "0"], "n_max must be at least n_start (1)"),
    ])
    def test_bad_size_range(self, tmp_path, capsys, flags, message):
        samples = write(tmp_path / "s.txt", "1 2\n1 1 0\n")
        assert main(["mine", samples, *flags]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

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
        assert "n=1 unsat" in out
        dumped = parse_automaton(dfa_out.read_text())
        assert dumped.state_count == 2

    def test_missing_sample_file(self, tmp_path, capsys):
        assert main(["mine", str(tmp_path / "absent.txt")]) == 2

    def test_malformed_samples(self, tmp_path, capsys):
        samples = write(tmp_path / "bad.txt", "not a header\n")
        assert main(["mine", samples]) == 2

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
        (["--n-max", "1"], 7, "n=1 unsat"),
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

    def test_solver_failure_shows_report(self, tmp_path, fake_solver, capsys):
        samples = write(tmp_path / "s.txt", "2 2\n1 1 0\n0 1 1\n")
        broken = fake_solver("exit 1\n")
        assert main(["mine", samples, "--solver", broken]) == 3
        captured = capsys.readouterr()
        assert captured.out.startswith("mode min3dfa\n")
        assert captured.err.startswith("error: solver exited with status 1")

    def test_timeout(self, tmp_path, fake_solver, capsys):
        samples = write(tmp_path / "s.txt", "2 2\n1 1 0\n0 1 1\n")
        slow = fake_solver("sleep 60\n")
        assert main(["mine", samples, "--solver", slow,
                     "--timeout", "0.3"]) == 4

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
        assert main(["gen-parity", "--colours", "2", "--length", "3",
                     "--out", str(out), "--budget", "7"]) == 1
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
        for flags in (["--dfa-size", "0"],
                      ["--dfa-size", "2", "--sample-count", "-1"],
                      ["--dfa-size", "2", "--max-len", "-1"],
                      # 50 distinct words from the 3 of length <= 1
                      ["--dfa-size", "2", "--max-len", "1",
                       "--sample-count", "50"]):
            assert main(["gen-random", *flags, "--out", str(out)]) == 1
            assert capsys.readouterr().err.startswith("gen-random: ")
            assert not out.exists()

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
        assert main(["stats", "--colours", "2", "--length", "3",
                     "--budget", "7"]) == 1
