"""Shared fixtures: solver discovery, fake solver scripts, cached corpora."""

import os
import shutil
import stat
import subprocess
import textwrap
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

from sepdfa.generators import ParityConfig, gen_parity_samples
from sepdfa.solver import find_solver

settings.register_profile(
    "sepdfa",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("sepdfa")


REFSOLVER_SOURCE = Path(__file__).parent.parent / "perfbench" / "refsolver.c"


@pytest.fixture(scope="session")
def solver_cmd(tmp_path_factory):
    """Command for a working DIMACS solver, or skip.

    With none installed, the C reference solver in perfbench/ is compiled
    with gcc into a session temp directory, probed like the others, and
    named by SEPDFA_SOLVER for the rest of the session, as the README does.
    """
    command = find_solver()
    if command is not None:
        yield command
        return
    if shutil.which("gcc") is not None and REFSOLVER_SOURCE.is_file():
        binary = tmp_path_factory.mktemp("refsolver") / "refsolver"
        built = subprocess.run(
            ["gcc", "-O2", "-std=c99", "-o", str(binary),
             str(REFSOLVER_SOURCE)], capture_output=True)
        if built.returncode == 0:
            command = find_solver([[str(binary)]])
    if command is None:
        pytest.skip("no working SAT solver available")
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("SEPDFA_SOLVER", str(binary))
        yield command


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
