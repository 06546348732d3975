"""Build the reference solver and read the log it appends to.

The solver is compiled once per checkout with the system C compiler.  The
binary's name carries a hash of its source, so an edited solver is rebuilt
and a stale binary is never timed.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
from dataclasses import dataclass

SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refsolver.c")
CFLAGS = ("-O2", "-std=c99", "-Wall")


class BuildError(RuntimeError):
    """The reference solver could not be compiled."""


def build(out_dir: str) -> str:
    """Compile refsolver.c into out_dir, unless already built; return its path."""
    with open(SOURCE, "rb") as handle:
        digest = hashlib.sha256(handle.read() + " ".join(CFLAGS).encode())
    binary = os.path.join(out_dir, "refsolver-" + digest.hexdigest()[:16])
    if os.path.exists(binary):
        return binary
    compiler = shutil.which("gcc") or shutil.which("cc")
    if compiler is None:
        raise BuildError("no C compiler (gcc or cc) on PATH")
    os.makedirs(out_dir, exist_ok=True)
    partial = binary + ".partial"
    proc = subprocess.run([compiler, *CFLAGS, "-o", partial, SOURCE],
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise BuildError(f"compiling {SOURCE} failed:\n{proc.stderr}")
    os.replace(partial, binary)
    return binary


@dataclass(frozen=True)
class SolverCall:
    """One line of the solver log."""

    variables: int
    clauses: int
    bytes: int
    verdict: str
    conflicts: int
    seconds: float


def read_log(path: str) -> list[SolverCall]:
    """Parse the log; a missing file means the solver never ran."""
    if not os.path.exists(path):
        return []
    calls = []
    with open(path, encoding="ascii") as handle:
        for line in handle:
            fields = dict(item.split("=", 1) for item in line.split())
            calls.append(SolverCall(
                variables=int(fields["vars"]),
                clauses=int(fields["clauses"]),
                bytes=int(fields["bytes"]),
                verdict=fields["verdict"],
                conflicts=int(fields["conflicts"]),
                seconds=float(fields["seconds"]),
            ))
    return calls
