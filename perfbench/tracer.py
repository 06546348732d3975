"""Outside-in spans around sepdfa's public functions.

Each function named in sepdfa.__all__ is replaced, by object identity, in
every sepdfa.* module namespace that binds it, so calls between modules
(mining calling build_formula, say) are seen too.  Nothing inside the
package is edited, and names a later version drops are simply not traced.
Spans are kept in memory and reduced to per-function self times at the end.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from dataclasses import dataclass

# Per-word helpers: wrapping them would cost more than the work they do.
SKIPPED = frozenset({"classify_parity_word", "run", "run_ddfa", "classify",
                     "lex_compare"})

# Acceptor constructions; the states of the outermost one are counted.
BUILDERS = frozenset({"automata.build_apta",
                      "automata.build_min_3dfa_incremental",
                      "automata.build_ddfa"})


@dataclass
class Span:
    name: str
    parent: int  # index of the enclosing span, or -1
    start: float = 0.0
    end: float = 0.0


class Tracer:
    """Install with install(), remove with uninstall(); spans accumulate."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.acceptor_states = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def span(self, name: str, fn):
        """Wrap fn so that each call records a span called name."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            index = len(self.spans)
            record = Span(name, parent)
            self.spans.append(record)
            self._stack.append(index)
            record.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record.end = time.perf_counter()
                self._stack.pop()
            if name in BUILDERS and not self._inside_builder(parent):
                self.acceptor_states += getattr(result, "state_count", 0)
            return result

        return traced

    def _inside_builder(self, index: int) -> bool:
        while index >= 0:
            if self.spans[index].name in BUILDERS:
                return True
            index = self.spans[index].parent
        return False

    def install(self, package) -> None:
        wrappers = {}
        for name in getattr(package, "__all__", ()):
            fn = getattr(package, name, None)
            if name in SKIPPED or not inspect.isfunction(fn):
                continue
            module = fn.__module__.rsplit(".", 1)[-1]
            wrappers[id(fn)] = (fn, self.span(f"{module}.{fn.__name__}", fn))
        prefix = package.__name__
        for mod_name, module in list(sys.modules.items()):
            if mod_name != prefix and not mod_name.startswith(prefix + "."):
                continue
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, entry[1])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def self_times(self) -> dict[str, float]:
        """Per span name: total duration minus the time of child spans."""
        totals: dict[str, float] = {}
        for span in self.spans:
            duration = span.end - span.start
            totals[span.name] = totals.get(span.name, 0.0) + duration
            if span.parent >= 0:
                parent = self.spans[span.parent].name
                totals[parent] = totals.get(parent, 0.0) - duration
        return totals
