"""Acceptance checks: published table values and cross-validation oracles.

One test per criterion; each prints a single [criterion N] PASS/FAIL line
(visible with pytest -s) and fails loudly on any mismatch.  Values are
exact, tolerance zero.  Criterion 3's optional extended row (five
colours, length eleven) runs only with --run-extended or
SEPDFA_ACCEPT_EXTENDED=1.
"""

import itertools
import random
import time

import pytest

from sepdfa.automata import (
    build_apta,
    build_ddfa,
    build_min_3dfa_incremental,
)
from sepdfa.encoding import build_formula
from sepdfa.generators import (
    ParityConfig,
    gen_parity_samples,
    gen_random_dfa,
    gen_samples_from_dfa,
)
from sepdfa.mining import MODES, MiningError, mine_min_dfa, verify_separating
from sepdfa.samples import SampleSet
from sepdfa.solver import solve
from test_automata import minimize_acyclic

# (colours, length) -> ((positives, negatives), (apta, min3dfa, ddfa))
PUBLISHED_ROWS = {
    (2, 3): ((3, 5), (15, 8, 12)),
    (3, 4): ((51, 20), (111, 23, 28)),
    (3, 5): ((130, 31), (266, 33, 38)),
    (4, 5): ((274, 488), (1083, 82, 84)),
    (4, 6): ((669, 1599), (3311, 122, 117)),
    (4, 7): ((1645, 5235), (10076, 155, 150)),
    (5, 6): ((7233, 3067), (13634, 301, 269)),
    (5, 7): ((30332, 9625), (53277, 438, 372)),
    (5, 8): ((127194, 30456), (209721, 541, 475)),
}

# (colours, length) -> minimal safety-shaped DFA size
SAFETY_ROWS = {(2, 3): 3, (3, 5): 3, (4, 7): 5}

# benchmark size N -> generator seed
RANDOM_BENCHMARKS = {4: 101, 5: 102, 6: 103, 7: 104, 8: 105}


def report(n, ok, detail):
    print(f"[criterion {n}] {'PASS' if ok else 'FAIL'} {detail}")


@pytest.fixture(scope="module")
def safety_reports(solver_cmd, parity_corpus):
    out = {}
    for (c, l) in SAFETY_ROWS:
        samples = parity_corpus(c, l)
        out[(c, l)] = (samples, mine_min_dfa(
            samples, safety=True, solver_command=solver_cmd))
    return out


@pytest.fixture(scope="module")
def random_reports(solver_cmd):
    out = {}
    for n_states, seed in RANDOM_BENCHMARKS.items():
        hidden = gen_random_dfa(n_states, 2, seed)
        samples = gen_samples_from_dfa(
            hidden, 50 * n_states, 2 * n_states + 3, seed=seed)
        out[n_states] = (samples, mine_min_dfa(
            samples, solver_command=solver_cmd))
    return out


def unsat_below(samples, minimal, solver_cmd, mode="min3dfa", safety=False):
    """Re-encode one size below the mined optimum; True when unsat."""
    floor = 2 if safety else 1
    if minimal <= floor:
        return True
    try:
        mine_min_dfa(samples, mode=mode, safety=safety,
                     solver_command=solver_cmd,
                     n_start=minimal - 1, n_max=minimal - 1)
    except MiningError as err:
        attempts = err.report.attempts
        return (len(attempts) == 1 and attempts[0].outcome == "unsat")
    return False


def test_criterion_1_sample_counts(parity_corpus):
    started = time.monotonic()
    failures = []
    for (c, l), (counts, _) in sorted(PUBLISHED_ROWS.items()):
        samples = parity_corpus(c, l)
        got = (len(samples.positives), len(samples.negatives))
        if got != counts:
            failures.append(f"({c},{l}): got {got}, expected {counts}")
    elapsed = time.monotonic() - started
    report(1, not failures,
           f"sample counts exact on {len(PUBLISHED_ROWS)} corpora "
           f"({elapsed:.1f}s)" if not failures else "; ".join(failures))
    assert not failures


def test_criterion_2_acceptor_sizes(parity_corpus):
    started = time.monotonic()
    failures = []
    for (c, l), (_, sizes) in sorted(PUBLISHED_ROWS.items()):
        samples = parity_corpus(c, l)
        got = (build_apta(samples).state_count,
               build_min_3dfa_incremental(samples).state_count,
               build_ddfa(samples).state_count)
        if got != sizes:
            failures.append(f"({c},{l}): got {got}, expected {sizes}")
    elapsed = time.monotonic() - started
    report(2, not failures,
           f"apta/min3dfa/ddfa sizes exact on {len(PUBLISHED_ROWS)} corpora "
           f"({elapsed:.1f}s)" if not failures else "; ".join(failures))
    assert not failures


def test_criterion_3_safety_minimal_sizes(solver_cmd, safety_reports,
                                          run_extended):
    started = time.monotonic()
    failures = []
    checked = 0
    for (c, l), expected in sorted(SAFETY_ROWS.items()):
        _, mined = safety_reports[(c, l)]
        checked += 1
        if mined.minimal_size != expected:
            failures.append(f"({c},{l}): size {mined.minimal_size}, "
                            f"expected {expected}")
            continue
        below = [a for a in mined.attempts if a.n == expected - 1]
        if not below or below[0].outcome != "unsat":
            failures.append(f"({c},{l}): no unsat verdict at {expected - 1}")
    if run_extended:
        samples = gen_parity_samples(ParityConfig(5, 11))
        checked += 1
        if (len(samples.positives), len(samples.negatives)) != \
                (9_375_269, 1_009_941):
            failures.append("(5,11): sample counts off")
        mined = mine_min_dfa(samples, safety=True, solver_command=solver_cmd)
        if mined.minimal_size != 5:
            failures.append(f"(5,11): size {mined.minimal_size}, expected 5")
    elapsed = time.monotonic() - started
    report(3, not failures,
           f"safety-shape minima with unsat below on {checked} corpora "
           f"({elapsed:.1f}s)" if not failures else "; ".join(failures))
    assert not failures


def test_criterion_4_incremental_equals_batch():
    started = time.monotonic()
    rng = random.Random(140)
    rounds = 500
    failures = 0
    for _ in range(rounds):
        k = rng.randint(1, 4)
        raw = {tuple(rng.randrange(k) for _ in range(rng.randint(0, 8)))
               for _ in range(rng.randint(0, 60))}
        positives = frozenset(w for w in raw if rng.randrange(2))
        samples = SampleSet(k, positives, frozenset(raw) - positives)
        incremental = build_min_3dfa_incremental(samples)
        batch = minimize_acyclic(build_apta(samples))
        if incremental != batch:
            failures += 1
    elapsed = time.monotonic() - started
    report(4, failures == 0,
           f"incremental == minimised prefix tree on {rounds} random "
           f"sample sets ({elapsed:.1f}s)" if failures == 0
           else f"{failures} of {rounds} sets disagree")
    assert failures == 0


def small_prefix_sample_set(rng):
    while True:
        k = rng.choice((2, 2, 3))
        raw = {tuple(rng.randrange(k) for _ in range(rng.randint(0, 3)))
               for _ in range(rng.randint(1, 3))}
        prefixes = {w[:i] for w in raw for i in range(len(w) + 1)}
        if len(prefixes | {()}) <= 6:
            positives = frozenset(w for w in raw if rng.randrange(2))
            return SampleSet(k, positives, frozenset(raw) - positives)


def brute_force_smallest(samples, limit):
    k = samples.alphabet_size
    labelled = ([(w, True) for w in samples.positives]
                + [(w, False) for w in samples.negatives])
    for n in range(1, limit + 1):
        keys = [(i, a) for i in range(n) for a in range(k)]
        for targets in itertools.product(range(n), repeat=len(keys)):
            table = dict(zip(keys, targets))
            for bits in itertools.product((False, True), repeat=n):
                for w, want in labelled:
                    q = 0
                    for a in w:
                        q = table[(q, a)]
                    if bits[q] != want:
                        break
                else:
                    return n
    return None


def test_criterion_5_encoding_matches_brute_force(solver_cmd):
    started = time.monotonic()
    rng = random.Random(150)
    rounds = 100
    failures = []
    for index in range(rounds):
        samples = small_prefix_sample_set(rng)
        smallest = brute_force_smallest(samples, 3)
        facts = build_min_3dfa_incremental(samples)
        for n in (1, 2, 3):
            expected = smallest is not None and n >= smallest
            verdicts = {}
            for symmetry in (True, False):
                _, formula = build_formula(n, facts, symmetry=symmetry)
                verdicts[symmetry] = solve(
                    formula, solver_cmd).outcome == "sat"
            if verdicts[True] != verdicts[False]:
                failures.append(
                    f"set {index} n={n}: symmetry changed the verdict")
            if verdicts[True] != expected:
                failures.append(
                    f"set {index} n={n}: solver {verdicts[True]}, "
                    f"brute force {expected}")
    elapsed = time.monotonic() - started
    report(5, not failures,
           f"solver verdicts match exhaustive search on {rounds} sets, "
           f"sizes 1-3, symmetry on and off ({elapsed:.1f}s)"
           if not failures else "; ".join(failures[:4]))
    assert not failures


def test_criterion_6_end_to_end_closure(solver_cmd, safety_reports,
                                        random_reports):
    started = time.monotonic()
    failures = []
    for (c, l), (samples, mined) in sorted(safety_reports.items()):
        tag = f"safety ({c},{l})"
        if verify_separating(mined.dfa, samples):
            failures.append(f"{tag}: verification failed")
        if not unsat_below(samples, mined.minimal_size, solver_cmd,
                           safety=True):
            failures.append(f"{tag}: satisfiable below the minimum")
    for n_states, (samples, mined) in sorted(random_reports.items()):
        tag = f"random N={n_states}"
        if verify_separating(mined.dfa, samples):
            failures.append(f"{tag}: verification failed")
        if mined.minimal_size > n_states:
            failures.append(
                f"{tag}: mined size {mined.minimal_size} exceeds N")
        if not unsat_below(samples, mined.minimal_size, solver_cmd):
            failures.append(f"{tag}: satisfiable below the minimum")
    count = len(safety_reports) + len(random_reports)
    elapsed = time.monotonic() - started
    report(6, not failures,
           f"verified minima with unsat below on {count} instances "
           f"({elapsed:.1f}s)" if not failures else "; ".join(failures))
    assert not failures


def test_criterion_7_mode_agreement(solver_cmd, safety_reports,
                                    random_reports):
    started = time.monotonic()
    failures = []
    instances = [(f"safety ({c},{l})", samples, mined, True)
                 for (c, l), (samples, mined) in sorted(
                     safety_reports.items())]
    instances += [(f"random N={n}", samples, mined, False)
                  for n, (samples, mined) in sorted(random_reports.items())]
    for tag, samples, mined, safety in instances:
        sizes = {"min3dfa": mined.minimal_size}
        for mode in MODES:
            if mode == "min3dfa":
                continue
            sizes[mode] = mine_min_dfa(
                samples, mode=mode, safety=safety,
                solver_command=solver_cmd).minimal_size
        if len(set(sizes.values())) != 1:
            failures.append(f"{tag}: {sizes}")
    elapsed = time.monotonic() - started
    report(7, not failures,
           f"apta/min3dfa/ddfa agree on {len(instances)} instances "
           f"({elapsed:.1f}s)" if not failures else "; ".join(failures))
    assert not failures
