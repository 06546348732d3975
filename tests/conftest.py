"""Shared fixtures: the suite's solver, fake solver scripts, cached corpora."""

import os
import shlex
import stat
import sys
import textwrap
from array import array
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

from sepdfa.encoding import CnfFormula
from sepdfa.generators import ParityConfig, gen_parity_samples
from sepdfa.solver import SolverError, solve

sys.path.insert(0, str(Path(__file__).parent.parent / "perfbench"))
import refsolver  # noqa: E402

settings.register_profile(
    "sepdfa",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("sepdfa")


@pytest.fixture(scope="session")
def solver_cmd(tmp_path_factory):
    """The solver command every solver test runs, or skip.

    The command in SEPDFA_SOLVER when it is set, otherwise the benchmark's
    reference solver, compiled by perfbench/refsolver.py into a session
    temp directory.  It must solve a one-variable formula first.
    """
    command = shlex.split(os.environ.get("SEPDFA_SOLVER", ""))
    try:
        if not command:
            command = [refsolver.build(str(tmp_path_factory.mktemp("bin")))]
        verdict = solve(CnfFormula(1, array("i", (1, 0))), command,
                        timeout=10)
    except (refsolver.BuildError, SolverError) as err:
        pytest.skip(f"no working SAT solver: {err}")
    if verdict.outcome != "sat":
        pytest.skip(f"solver {command} calls a one-variable formula unsat")
    return command


@pytest.fixture
def fake_solver(tmp_path):
    """Factory writing an executable shell script that mimics a solver."""

    def make(body, name="fakesolver"):
        path = tmp_path / name
        path.write_text("#!/bin/sh\n" + textwrap.dedent(body))
        path.chmod(path.stat().st_mode | stat.S_IXUSR)
        return str(path)

    return make


_CORPUS_CACHE = {}


@pytest.fixture(scope="session")
def parity_corpus():
    """Memoised parity corpora keyed by (colours, length)."""

    def get(colours, length):
        key = (colours, length)
        if key not in _CORPUS_CACHE:
            _CORPUS_CACHE[key] = gen_parity_samples(
                ParityConfig(colours, length))
        return _CORPUS_CACHE[key]

    return get


def pytest_addoption(parser):
    parser.addoption(
        "--run-extended", action="store_true", default=False,
        help="run the long optional acceptance rows")


@pytest.fixture(scope="session")
def run_extended(request):
    return (request.config.getoption("--run-extended")
            or os.environ.get("SEPDFA_ACCEPT_EXTENDED") == "1")
