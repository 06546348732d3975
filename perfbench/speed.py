"""The speed sampler: how fast the shared machine is, while a pass runs.

A thread of the benchmark's own process takes a sample every INTERVAL
seconds, while the command lines run in their own processes.  A sample is
the time of one fixed piece of Python work plus that of starting and
reaping one `true` process, so that it follows the speed of the kernel's
process start, page faults and exit, which sepdfa's many short processes
pay, as well as that of Python code.  Neither uses sepdfa code, so no
change to the repository alters what a sample costs; its time moves only
with the machine's speed.  At about 3 ms per INTERVAL the sampler keeps
about a tenth of one CPU busy.
"""

from __future__ import annotations

import bisect
import os
import shutil
import statistics
import threading
import time

INTERVAL = 0.025
ROUNDS = 1000


def work(rounds: int = ROUNDS) -> int:
    """Tuple-keyed dicts, lists, sorting, text and sets, as sepdfa uses them."""
    table: dict[tuple[int, int], list[int]] = {}
    for i in range(rounds):
        table.setdefault((i % 1009, i & 63), []).append(i)
    rows = sorted(table.items(), key=lambda item: (len(item[1]), item[0]))
    text = "\n".join(" ".join(str(x) for x in row) + " 0" for _, row in rows)
    return len(text) + len({x * x for x in range(0, rounds, 3)})


def spawn(path: str) -> None:
    """Start one process that exits at once, and reap it."""
    os.waitpid(os.posix_spawn(path, [path], {}), 0)


class Sampler:
    """Times work() and spawn() every INTERVAL seconds on a thread."""

    def __init__(self) -> None:
        self.true = shutil.which("true")
        if self.true is None:
            raise RuntimeError("no `true` program on PATH")
        # (perf_counter() at the end of a sample, its seconds), in order.
        self.samples: list[tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self) -> Sampler:
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _run(self) -> None:
        while not self._stop.wait(INTERVAL):
            started = time.perf_counter()
            work()
            spawn(self.true)
            ended = time.perf_counter()
            self.samples.append((ended, ended - started))

    def median(self, start: float, end: float) -> float | None:
        """Median sample time between two perf_counter() readings."""
        samples = self.samples[:]  # the thread may append meanwhile
        low = bisect.bisect_left(samples, start, key=lambda s: s[0])
        high = bisect.bisect_right(samples, end, key=lambda s: s[0])
        return (statistics.median(s for _, s in samples[low:high])
                if high > low else None)
