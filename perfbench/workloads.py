"""The benchmark's workloads: sepdfa command lines and their checks.

Every expected value below names its source.  Why each workload was chosen,
and the workloads and instances that were tried and dropped, is in
README.md.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable

from checks import (check_counts, check_mine, minimal_states, read_dfa,
                    replay_violations)

MODES = ("apta", "min3dfa", "ddfa")

# (colours, length) -> (positives, negatives, minimal safety DFA size).
# Counts of (3,5) and (4,7): the paper's table (PUBLISHED_ROWS).  Counts of
# (4,8): an enumeration with a labeller written apart from sepdfa's, which
# also reproduced every published row it was run on.  Minima of (3,5) and
# (4,7): SAFETY_ROWS of tests/test_acceptance.py.  Minimum of (4,8): found
# by the reference solver in all three modes, with UNSAT at n=4, and by an
# earlier prototype solver.
SAFETY_ROWS = {
    (3, 5): (130, 31, 3),
    (4, 7): (1645, 5235, 5),
    (4, 8): (4083, 17138, 5),
}

# Hidden DFA size N -> minimal separating DFA size under the default seed,
# whose instances are RANDOM_BENCHMARKS of tests/test_acceptance.py (seeds
# 101..105).  Source: ROADMAP item 1's prototype solver; the reference
# solver finds the same in all three modes.
DEFAULT_SEED = 101
RANDOM_SIZES = (4, 5, 6, 7, 8)
RANDOM_MINIMA = {4: 4, 5: 4, 6: 6, 7: 7, 8: 8}
# Generator seeds tried per size under another seed, see _random_search.
CANDIDATES_PER_SEED = 100


# Every `mine` gets --n-max at the size where a separating DFA is known to
# exist: the expected minimum in safety mode, the hidden DFA's size in
# random-search.  A correct search stops earlier or there, so the work is
# the same; a broken one fails in seconds instead of trying sizes up to
# the acceptor's bound for minutes.  Every `mine` also gets --timeout
# SOLVER_TIMEOUT seconds per solver call; no call of a correct pass takes
# a tenth of a second.
SOLVER_TIMEOUT = 10


@dataclass(frozen=True)
class Step:
    """One sepdfa command line and the check of its output.

    check receives the command's standard output and returns the value the
    step produced (or None) and a problem (or None).  Steps that share an
    `agree` key must produce equal values.
    """

    argv: tuple[str, ...]
    check: Callable[[str], tuple[object, str | None]]
    agree: str | None = None


def _parity_safety(seed: int, work: str, solver: str, run) -> list[Step]:
    """The seed is ignored: parity corpora are enumerated, not sampled."""
    steps = []
    for (colours, length), (pos, neg, minimum) in SAFETY_ROWS.items():
        samples = os.path.join(work, f"parity_{colours}_{length}.txt")
        steps.append(Step(
            ("gen-parity", "--colours", str(colours), "--length", str(length),
             "--out", samples),
            lambda _, s=samples, p=pos, n=neg: (None, check_counts(s, p, n))))
        for mode in MODES:
            dump = os.path.join(work, f"parity_{colours}_{length}_{mode}.dfa")
            steps.append(Step(
                ("mine", samples, "--safety", "--mode", mode,
                 "--n-max", str(minimum), "--solver", solver,
                 "--timeout", str(SOLVER_TIMEOUT), "--dfa-out", dump),
                lambda out, d=dump, s=samples, m=minimum: check_mine(
                    out, d, s, floor=2, expected=m)))
    return steps


def _minimal_hidden_seed(seed: int, size: int, work: str, run) -> int:
    """First generator seed from seed's block whose hidden DFA is minimal.

    A random DFA that is not minimal hides a smaller one, and the mined
    minimum is that smaller size; the search over sizes then costs far less.
    Keeping only minimal hidden DFAs keeps the work of a pass alike across
    seeds.
    """
    path = os.path.join(work, f"candidate_{size}.txt")
    for candidate in range(seed * CANDIDATES_PER_SEED,
                           (seed + 1) * CANDIDATES_PER_SEED):
        status = run(("gen-random", "--dfa-size", str(size), "--seed",
                      str(candidate), "--out", path))
        if status != 0:
            raise RuntimeError(f"gen-random exited with status {status}")
        if minimal_states(path + ".dfa") == size:
            return candidate
    raise RuntimeError(f"no minimal {size}-state hidden DFA for seed {seed}")


def _random_search(seed: int, work: str, solver: str, run) -> list[Step]:
    """Hidden DFAs of sizes N = 4..8, mined in all three modes.

    The default seed uses the acceptance instances, generator seeds
    101..105, and their minima must equal RANDOM_MINIMA.  Another seed s
    uses, for each N, the first generator seed in s*100 .. s*100+99 whose
    hidden DFA is minimal.  Under any seed the three modes must agree, the
    minimum must not exceed N, n-1 must be UNSAT, and the hidden DFA must
    label its samples.
    """
    steps = []
    for offset, size in enumerate(RANDOM_SIZES):
        samples = os.path.join(work, f"random_{size}.txt")
        hidden = samples + ".dfa"
        if seed == DEFAULT_SEED:
            generator_seed = DEFAULT_SEED + offset
            expected = RANDOM_MINIMA[size]
        else:
            generator_seed = _minimal_hidden_seed(seed, size, work, run)
            expected = None

        def gen_ok(_, s=samples, h=hidden, size=size):
            if read_dfa(h)[0] != size:
                return None, f"{h}: hidden DFA is not of size {size}"
            wrong = replay_violations(h, s)
            return None, (f"{s}: {wrong} words mislabelled" if wrong else None)

        steps.append(Step(
            ("gen-random", "--dfa-size", str(size), "--seed",
             str(generator_seed), "--out", samples), gen_ok))
        for mode in MODES:
            dump = os.path.join(work, f"random_{size}_{mode}.dfa")
            steps.append(Step(
                ("mine", samples, "--mode", mode, "--n-max", str(size),
                 "--solver", solver, "--timeout", str(SOLVER_TIMEOUT),
                 "--dfa-out", dump),
                lambda out, d=dump, s=samples, e=expected, n=size: check_mine(
                    out, d, s, floor=1, expected=e, at_most=n),
                agree=f"random_{size}"))
    return steps


# Workload name -> plan(seed, work directory, solver command, run) -> steps,
# where run(argv) runs one sepdfa command line untimed and returns its exit
# status.  Why each workload was chosen is in README.md and BENCHMARK.json.
WORKLOADS: dict[str, Callable[..., list[Step]]] = {
    "parity-safety": _parity_safety,
    "random-search": _random_search,
}
