"""Self-check of the reference solver against brute force.

Run from the repository root:

    PYTHONPATH=src python -m pytest perfbench/test_refsolver.py

A wrong SAT answer would also be caught by solve()'s model check during
the benchmark; a wrong UNSAT answer would only show as a missed expected
minimum, so both verdicts are compared with exhaustive search here.
"""

from __future__ import annotations

import itertools
import os
import random
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import refsolver  # noqa: E402
from sepdfa import SampleSet, mine_min_dfa  # noqa: E402
from sepdfa.mining import MODES, MiningError  # noqa: E402


@pytest.fixture(scope="module")
def binary(tmp_path_factory):
    return refsolver.build(str(tmp_path_factory.mktemp("refsolver")))


def brute_force_sat(variables, clauses):
    for bits in itertools.product((False, True), repeat=variables):
        if all(any(bits[abs(l) - 1] == (l > 0) for l in c) for c in clauses):
            return True
    return False


def run_solver(binary, tmp_path, variables, clauses):
    path = tmp_path / "f.cnf"
    lines = [f"p cnf {variables} {len(clauses)}"]
    lines += [" ".join(map(str, c)) + " 0" for c in clauses]
    path.write_text("\n".join(lines) + "\n")
    log = tmp_path / "calls.log"
    proc = subprocess.run([binary, "-l", str(log), str(path)],
                          capture_output=True, text=True, timeout=30)
    model = {}
    for line in proc.stdout.splitlines():
        if line.startswith("v"):
            for tok in line.split()[1:]:
                lit = int(tok)
                if lit:
                    model[abs(lit)] = lit > 0
    return proc, model


def test_random_cnfs_match_brute_force(binary, tmp_path):
    rng = random.Random(7)
    verdicts = set()
    for _ in range(400):
        variables = rng.randint(1, 9)
        clauses = []
        for _ in range(rng.randint(0, 5 * variables)):
            width = rng.randint(1, min(4, variables))
            chosen = rng.sample(range(1, variables + 1), width)
            clauses.append([v if rng.random() < 0.5 else -v for v in chosen])
        expected = brute_force_sat(variables, clauses)
        proc, model = run_solver(binary, tmp_path, variables, clauses)
        assert proc.returncode == (10 if expected else 20), clauses
        if expected:
            assert proc.stdout.startswith("s SATISFIABLE")
            assert sorted(model) == list(range(1, variables + 1))
            assert all(any(model[abs(l)] == (l > 0) for l in c)
                       for c in clauses)
        else:
            assert proc.stdout.startswith("s UNSATISFIABLE")
        verdicts.add(expected)
    assert verdicts == {True, False}
    calls = refsolver.read_log(str(tmp_path / "calls.log"))
    assert len(calls) == 400
    assert all(c.seconds >= 0 and c.conflicts >= 0 for c in calls)


def test_duplicate_and_tautological_literals(binary, tmp_path):
    proc, _ = run_solver(binary, tmp_path, 2, [[1, 1, -1], [2, 2], [-2, -2]])
    assert proc.returncode == 20
    proc, model = run_solver(binary, tmp_path, 2, [[1, -1], [-2, -2]])
    assert proc.returncode == 10 and model[2] is False


def test_malformed_input_exits_1(binary, tmp_path):
    path = tmp_path / "bad.cnf"
    path.write_text("p cnf 1 2\n1 0\n")
    proc = subprocess.run([binary, str(path)], capture_output=True, text=True)
    assert proc.returncode == 1 and "header" in proc.stderr


def separating_dfa_exists(samples, n):
    """Exhaustive search over complete n-state DFAs with initial state 0."""
    k = samples.alphabet_size
    words = [(w, True) for w in samples.positives]
    words += [(w, False) for w in samples.negatives]
    for targets in itertools.product(range(n), repeat=n * k):
        ends = []
        for w, _ in words:
            q = 0
            for a in w:
                q = targets[q * k + a]
            ends.append(q)
        for accepting in itertools.product((False, True), repeat=n):
            if all(accepting[q] == label for q, (_, label) in zip(ends, words)):
                return True
    return False


def random_samples(rng):
    words = set()
    while len(words) < rng.randint(3, 9):
        words.add(tuple(rng.randrange(2) for _ in range(rng.randint(0, 4))))
    positives = {w for w in words if rng.random() < 0.5}
    return SampleSet(2, frozenset(positives), frozenset(words - positives))


def test_mining_formulas_match_exhaustive_search(binary):
    """Each size n = 1..3 of mine_min_dfa goes through build_formula and
    solve(), whose model check guards the SAT answers."""
    rng = random.Random(11)
    verdicts = set()
    for _ in range(25):
        samples = random_samples(rng)
        for n in (1, 2, 3):
            expected = separating_dfa_exists(samples, n)
            verdicts.add(expected)
            for mode in MODES:
                for symmetry in (True, False):
                    try:
                        report = mine_min_dfa(
                            samples, mode, symmetry_breaking=symmetry,
                            solver_command=[binary], n_start=n, n_max=n)
                    except MiningError:
                        found = False
                    else:
                        found = report.minimal_size == n
                    assert found == expected, (samples, n, mode, symmetry)
    assert verdicts == {True, False}
