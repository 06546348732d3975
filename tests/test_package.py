"""The package namespace: sepdfa.__all__ names exactly its public API.

The API is what __init__.py imports, and __all__ is derived from those
imports.  perfbench/tracer.py traces the functions named in __all__, so
a name missing from it would silently drop out of the per-layer trace.
Also: what a command line imports, and how the value types behave.
"""

import ast
import inspect
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import sepdfa


def test_every_listed_name_resolves():
    missing = [name for name in sepdfa.__all__ if not hasattr(sepdfa, name)]
    assert missing == []
    assert len(set(sepdfa.__all__)) == len(sepdfa.__all__)


def test_every_public_function_and_class_is_listed():
    public = {name for name, value in vars(sepdfa).items()
              if not name.startswith("_")
              and (inspect.isfunction(value) or inspect.isclass(value))}
    assert public - set(sepdfa.__all__) == set()


# Modules that no command line imports until it runs the code that needs
# them: dataclasses drags inspect in, traceback serves only an internal
# error, and subprocess and tempfile only the solver of a mine.  (shutil is
# not watched: argparse imports it to size the help of every parser.)
WATCHED = ("dataclasses", "inspect", "traceback", "subprocess", "tempfile")

# Runs each argv through cli.main in turn and prints, as its last line, the
# exit status and the watched modules loaded after each.
IMPORT_PROBE = """
import sys
from sepdfa.cli import main
loaded = []
for argv in {argvs!r}:
    status = main(argv)
    loaded.append((status, [m for m in {watched!r} if m in sys.modules]))
print(loaded)
"""


def test_commands_import_only_what_they_run(tmp_path, solver_cmd):
    samples = str(tmp_path / "random.txt")
    argvs = [
        ["--help"],
        ["gen-random", "--dfa-size", "4", "--seed", "3", "--out", samples],
        ["verify", samples + ".dfa", samples],
        ["stats", "--colours", "3", "--length", "5"],
        ["mine", samples, "--solver", shlex.join(solver_cmd)],
    ]
    # -S: no site module, so no .pth hook preloads anything.
    src = Path(sepdfa.__file__).parent.parent
    done = subprocess.run(
        [sys.executable, "-S", "-c",
         IMPORT_PROBE.format(argvs=argvs, watched=WATCHED)],
        env=dict(os.environ, PYTHONPATH=str(src)), cwd=tmp_path,
        capture_output=True, text=True, check=True)
    loaded = ast.literal_eval(done.stdout.splitlines()[-1])
    assert loaded == [(0, [])] * 4 + [(0, ["subprocess", "tempfile"])]


# One instance of each value type, with a field to assign.
RECORDS = {
    "SampleSet": (lambda: sepdfa.SampleSet(2, {(0,)}, {(1,)}), "positives"),
    "ThreeValuedDFA": (
        lambda: sepdfa.ThreeValuedDFA(1, 1, (0,), {(0, 0): 0}, {0}, ()),
        "transitions"),
    "ParityConfig": (lambda: sepdfa.ParityConfig(2, 3), "length"),
    "SolverVerdict": (lambda: sepdfa.SolverVerdict("sat", b"\0\2", 0.5),
                      "model"),
    "SizeAttempt": (lambda: sepdfa.SizeAttempt(3, "unsat", 9, 10, 20, 0.1,
                                                      0.2),
                    "outcome"),
    "MiningReport": (lambda: sepdfa.MiningReport("apta", False, True, 4, 2),
                     "claim"),
}


@pytest.mark.parametrize("make, field", RECORDS.values(), ids=RECORDS)
def test_value_types(make, field):
    a, b = make(), make()
    assert a == b and a is not b
    assert a != object() and not a == (a,)
    text = repr(a)
    assert text.startswith(type(a).__name__ + "(")
    assert f"{field}={getattr(a, field)!r}" in text
    if isinstance(a, sepdfa.MiningReport):
        # the one mutable type: mining fills it in as it goes
        a.claim = "minimal size 2"
        assert a != b and a.claim == "minimal size 2"
        with pytest.raises(TypeError):
            hash(a)
        return
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(b, field))
    with pytest.raises(AttributeError):
        delattr(a, field)
    with pytest.raises(AttributeError):
        a.unknown = 1
    if isinstance(a, sepdfa.ThreeValuedDFA):
        with pytest.raises(TypeError):  # its transitions are a dict
            hash(a)
    else:
        assert hash(a) == hash(b)
