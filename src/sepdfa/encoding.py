"""CNF encoding of the bounded search for a separating DFA.

A candidate DFA with n states is described by transition variables
e(i, a, j), acceptance variables f(i) and product-reachability variables
d(p, i) that tie the candidate to a three-valued acceptor, one for each
acceptor state p.  Two optional groups are layered on top:
breadth-first-tree symmetry breaking over auxiliary variables t(i, j),
p(child, parent) and m(i, a, j), and shape constraints that force the
candidate into safety or co-safety form for parity corpora.

Variable ids come in one block per candidate state k, holding every
variable whose largest candidate state is k, so the ids of size n are
those of size n + 1 up to n + 1's last block.  Clauses are grouped the
same way: the block of k holds every determinism, product and symmetry
clause whose largest candidate state is k, and it is the same clause at
every size that has k.  Only the tail depends on n: the at-least-one row
of each (state, letter) pair and, in safety mode, the block of the sink
n - 1 and the safety shape.  A formula is therefore grown, not rebuilt:
build_formula cuts the tail off, appends the new blocks (in safety mode
the old sink's block again, as a block below the sink) and writes the new
tail.

In safety mode the shape's unit clauses fix many e and all f variables.
The product clauses are written with those values, closed under
determinism: a clause that one makes true is left out, a literal that
one makes false is left out of its clause, and an acceptance clause whose
f(k) is fixed against it is the unit -d(p, k).  The units and the
at-most-one clauses that imply the values stay, so each size keeps its
models.  A block below the sink uses only the values that hold at every
larger size, so that it is the same at every size that keeps it.

Each encoder appends its clauses to one flat array('i') of literals, each
clause closed by a 0, as in DIMACS.  The product clauses, nearly the whole
formula on a prefix tree, are filled column by column: the transitions
are read letter by letter, a letter's clauses in a block share one
layout, and a run of at most _CHUNK literals takes one clause slot at a
time, by strided slices over every transition in the run.  The same
layout serves every mode; the safety shape's values only leave clauses
and literals out of it.  emit_dimacs formats the literals in chunks of
about _CHUNK, and formats the part a formula keeps as it grows only once
per DimacsCache.
"""

from __future__ import annotations

import itertools
import os
import re
import shutil
import tempfile
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import InitVar, dataclass, field
from operator import itemgetter
from typing import BinaryIO, Mapping

from .automata import ThreeValuedDFA

# Literals per DIMACS chunk, rounded up to a clause end, and at most per
# product block (about 256 KiB of 4-byte literals).
_CHUNK = 1 << 16
# A clause, marked "|"-terminated, whose literals are all false ("0").
_FALSE_CLAUSE_RE = re.compile(rb"(?:^|\|)0*\|")


class EncodingError(RuntimeError):
    """Inconsistent encoder usage or an unusable solver model."""


@dataclass(frozen=True)
class CnfFormula:
    """Propositional formula in conjunctive normal form.

    Variables are the 1-based integers up to variable_count; a literal is
    a variable or its negation.  literals holds the clauses in order, each
    closed by a 0, and no clause is empty.  literals[:stable], which ends
    on a clause end, is what every larger size of a formula grown by
    build_formula keeps; the rest is the tail of this size.  A formula
    grown from base shares base's buffer, and only literals[base.stable:]
    are checked and counted here: base checked the part before.
    """

    variable_count: int
    literals: array
    stable: int = 0
    base: InitVar[CnfFormula | None] = None
    clause_count: int = field(init=False)
    # Clauses in literals[:stable], which a formula grown from this one
    # does not count again.
    _stable_clauses: int = field(init=False, repr=False)

    def __post_init__(self, base: CnfFormula | None) -> None:
        lits, stable = self.literals, self.stable
        start, before = 0, 0
        if base is not None:
            if base.literals is not lits:
                raise EncodingError("a grown formula shares its base's buffer")
            if base.variable_count > self.variable_count:
                raise EncodingError("a grown formula lost variables")
            start, before = base.stable, base._stable_clauses
        if self.variable_count < 0:
            raise EncodingError("negative variable count")
        if not start <= stable <= len(lits) or (stable and lits[stable - 1]):
            raise EncodingError("stable part does not end on a clause end")
        segment = lits[start:] if start else lits
        if segment and segment[-1] != 0:
            raise EncodingError("last clause is not closed by 0")
        for lit in (min(segment, default=0), max(segment, default=0)):
            if abs(lit) > self.variable_count:
                raise EncodingError(f"literal {lit} out of range")
        # A clause is empty where a 0 opens the segment (which follows a
        # clause end) or follows a 0; two zero literals in a row are zero
        # bytes from a literal boundary on.
        width = segment.itemsize
        pair = re.compile(bytes(2 * width)).search(segment)
        while pair and pair.start() % width:
            pair = pair.re.search(segment, pair.start() + 1)
        if pair or (segment and segment[0] == 0):
            raise EncodingError("empty clause")
        kept = before + lits[start:stable].count(0)
        object.__setattr__(self, "clause_count",
                           kept + lits[stable:].count(0))
        object.__setattr__(self, "_stable_clauses", kept)

    def satisfied_by(self, model: Mapping[int, bool]) -> bool:
        """Whether the model, which assigns every variable, makes every
        clause true."""
        values = [model[var] for var in range(1, self.variable_count + 1)]
        # "1"/"0" per literal by value (negatives index from the end), "|"
        # per 0; a clause of false literals reads as "|" 0* "|".
        truth = (b"|" + bytes(b"01"[v] for v in values)
                 + bytes(b"10"[v] for v in reversed(values)))
        return not _FALSE_CLAUSE_RE.search(
            bytes(map(truth.__getitem__, self.literals)))


class VarMap:
    """Variable layout for one (candidate size, acceptor) pair.

    Ids are contiguous from 1, one block per candidate state k = 0..n-1
    in turn, so every id of size n means the same at every larger size.
    Block k holds: e(i, a, k) for i < k, then e(k, a, j) for j <= k, the
    letters of each state pair in a row; f(k); d(p, k) for every acceptor
    state p; and, when symmetry breaking is enabled, t(i, k), then
    p(k, i), then m(i, a, k) for i < k.  safety records whether the
    formula holds the safety shape, which adds no variables.
    """

    def __init__(self, n: int, alphabet_size: int, acceptor_state_count: int,
                 symmetry: bool, safety: bool = False):
        if n < 1:
            raise EncodingError("candidate size must be at least 1")
        if alphabet_size < 1:
            raise EncodingError("alphabet size must be at least 1")
        self.n = n
        self.alphabet_size = alphabet_size
        self.acceptor_state_count = acceptor_state_count
        self.symmetry = symmetry
        self.safety = safety
        self.variable_count = self._before(n)

    def _before(self, k: int) -> int:
        """Number of ids in the blocks of the states below k."""
        ids = self.alphabet_size * k * k + k * (1 + self.acceptor_state_count)
        if self.symmetry:
            ids += (2 + self.alphabet_size) * k * (k - 1) // 2
        return ids

    def _f(self, k: int) -> int:
        """f(k), the first id of block k past its e variables."""
        return self._before(k) + (2 * k + 1) * self.alphabet_size + 1

    def e(self, i: int, a: int, j: int) -> int:
        """Candidate moves from state i to state j on letter a."""
        if not (0 <= i < self.n and 0 <= j < self.n
                and 0 <= a < self.alphabet_size):
            raise EncodingError(f"e({i}, {a}, {j}) out of range")
        k = max(i, j)
        pair = i if i < k else k + j  # (i, k) for i < k, then (k, j)
        return 1 + self._before(k) + pair * self.alphabet_size + a

    def f(self, i: int) -> int:
        """Candidate state i is accepting."""
        if not 0 <= i < self.n:
            raise EncodingError(f"f({i}) out of range")
        return self._f(i)

    def d(self, p: int, i: int) -> int:
        """Acceptor state p and candidate state i are reached together."""
        if not (0 <= p < self.acceptor_state_count and 0 <= i < self.n):
            raise EncodingError(f"d({p}, {i}) out of range")
        return self._f(i) + 1 + p

    def e_row(self, i: int, a: int) -> list[int]:
        """e(i, a, j) for j = 0..n-1: the targets of state i on letter a."""
        return [self.e(i, a, j) for j in range(self.n)]

    def _symmetry_ids(self, i: int, j: int) -> int:
        """The id before node j's symmetry variables, for the pair i < j."""
        if not self.symmetry:
            raise EncodingError("symmetry variables are disabled")
        if not 0 <= i < j < self.n:
            raise EncodingError(f"node pair ({i}, {j}) out of range")
        return self._f(j) + self.acceptor_state_count

    def t(self, i: int, j: int) -> int:
        """Some letter moves the candidate from state i to state j (i < j)."""
        return self._symmetry_ids(i, j) + 1 + i

    def p(self, child: int, parent: int) -> int:
        """Candidate state child has tree parent `parent` (parent < child)."""
        return self._symmetry_ids(parent, child) + 1 + child + parent

    def m(self, i: int, a: int, j: int) -> int:
        """Letter a is the smallest letter moving state i to state j (i < j)."""
        if not 0 <= a < self.alphabet_size:
            raise EncodingError(f"m({i}, {a}, {j}) letter out of range")
        return (self._symmetry_ids(i, j) + 1 + 2 * j
                + i * self.alphabet_size + a)


def encode_dfa_shape(vm: VarMap, out: array, since: int = 0) -> None:
    """Determinism and completeness of the candidate transition function.

    Appends the at-most-one clauses that size vm.n has and size `since`
    lacks, block by block, then the at-least-one row of every state and
    letter, which holds at size vm.n only.
    """
    for k in range(since, vm.n):
        for i in range(k + 1):
            for a in range(vm.alphabet_size):
                row = [vm.e(i, a, j) for j in range(k + 1)]
                if i == k:
                    pairs = itertools.combinations(row, 2)
                else:
                    pairs = ((x, row[k]) for x in row[:k])
                for x, y in pairs:
                    out.extend((-x, -y, 0))
    for i in range(vm.n):
        for a in range(vm.alphabet_size):
            out.extend(vm.e_row(i, a))
            out.append(0)


class _Transitions:
    """An acceptor as encode_product reads it, once per build_formula call.

    The transitions are sorted by letter, stored order within a letter,
    in one span per letter: a letter's clauses in a block share one
    layout.  facts maps a variable to the value the formula's shape fixes
    for it, which leaves clauses and literals out of that layout.  The d
    literals of each candidate state's row are made on first use and kept
    for every later block.
    """

    def __init__(self, acceptor: ThreeValuedDFA,
                 facts: Mapping[int, bool] | None = None):
        self.facts = facts or {}
        self.status = ((sorted(acceptor.accepting), 1),
                       (sorted(acceptor.rejecting), -1))
        keys = sorted(acceptor.transitions, key=itemgetter(1))
        self.sources = [p for p, _ in keys]
        self.targets = [acceptor.transitions[key] for key in keys]
        letters = [a for _, a in keys]
        # (start, stop, letter) of each letter's transitions
        self.spans = [(bisect_left(letters, a), bisect_right(letters, a), a)
                      for a in sorted(set(letters))]
        self._leaving: dict[int, array] = {}
        self._entering: dict[int, array] = {}

    def leaving(self, vm: VarMap, i: int) -> array:
        """-d(p, i) for the source p of each transition, in order."""
        if i not in self._leaving:
            first = -vm.d(0, i)
            self._leaving[i] = array("i", [first - p for p in self.sources])
        return self._leaving[i]

    def entering(self, vm: VarMap, j: int) -> array:
        """d(r, j) for the target r of each transition, in order."""
        if j not in self._entering:
            first = vm.d(0, j)
            self._entering[j] = array("i", [first + r for r in self.targets])
        return self._entering[j]


def _clause_layout(facts: Mapping[int, bool], first_e: int, k: int,
                   alphabet_size: int, a: int) -> tuple[array, list]:
    """One transition's clauses -d(p, i) -e(i, a, j) d(r, j) in block k.

    The state pairs (i, j) whose larger state is k come in the order of
    their e ids, e(0, 0, k) + s*K + a for pair s: (i, k) for i < k, then
    (k, j) for j <= k.  A pair whose e the facts make false has no clause;
    one whose e they make true has no -e.  Returns the pattern, which
    holds each -e and closing 0 in place and 0 for each d, and the slots
    (offset of -d(p, i), i, offset of d(r, j), j).
    """
    pattern, slots = array("i"), []
    for s in range(2 * k + 1):
        e = first_e + s * alphabet_size + a
        fixed = facts.get(e)
        if fixed is False:
            continue
        i, j = (s, k) if s < k else (k, s - k)
        at = len(pattern)
        if fixed:
            slots.append((at, i, at + 1, j))
            pattern.extend((0, 0, 0))
        else:
            slots.append((at, i, at + 2, j))
            pattern.extend((0, -e, 0, 0))
    return pattern, slots


def encode_product(vm: VarMap, acceptor: ThreeValuedDFA, out: array,
                   since: int = 0, table: _Transitions | None = None) -> None:
    """Tie the candidate to the acceptor.

    Appends the product clauses that size vm.n has and size `since` lacks:
    the seeds at the initial states (with since = 0), then for each new
    candidate state k in turn, the acceptance clauses of k and the
    transition clauses whose largest candidate state is k, letter by
    letter.  Candidate states paired with an accepting acceptor
    state must accept, those paired with a rejecting one must reject.
    table is the acceptor read with the values the formula's shape fixes;
    without one it is read here, with none fixed.  A clause that a fixed
    value makes true is left out, and so is a literal that one makes
    false.  Clauses are filled column by column, by strided slices that
    each store one clause slot of many clauses, so the interpreted work
    grows with transitions times n, not times n².
    """
    if acceptor.state_count != vm.acceptor_state_count:
        raise EncodingError("variable map was built for a different acceptor")
    if acceptor.alphabet_size != vm.alphabet_size:
        raise EncodingError("alphabet mismatch between acceptor and variables")
    if table is None:
        table = _Transitions(acceptor)
    facts = table.facts
    if since == 0:
        for q0 in acceptor.initials:
            out.extend((vm.d(q0, 0), 0))
    for k in range(since, vm.n):
        # Clauses -d(p, k) ±f(k) for each status state p in order; a fixed
        # f(k) leaves out those it makes true and cuts the others to -d(p, k).
        fixed = facts.get(vm.f(k))
        first_d = -vm.d(0, k)
        for states, sign in table.status:
            if fixed == (sign > 0):
                continue
            width = 3 if fixed is None else 2
            block = array("i", [0]) * (width * len(states))
            block[0::width] = array("i", [first_d - p for p in states])
            if fixed is None:
                block[1::3] = array("i", [sign * vm.f(k)]) * len(states)
            out.extend(block)
        # A letter's transitions share one layout of width literals each:
        # its pattern, repeated once per transition, holds the -e literals
        # and closing 0s, and one slice of stride `width` stores a slot's
        # -d(p, i) or d(r, j) for a whole run of transitions.  A run is at
        # most _CHUNK literals unless one transition alone is more (filling
        # a whole span at once raised peak RSS).
        first_e = vm.e(0, 0, k)
        for start, stop, a in table.spans:
            pattern, slots = _clause_layout(facts, first_e, k,
                                            vm.alphabet_size, a)
            width = len(pattern)
            if not width:
                continue
            leaving = {i: table.leaving(vm, i) for _, i, _, _ in slots}
            entering = {j: table.entering(vm, j) for _, _, _, j in slots}
            step = max(1, _CHUNK // width)
            for run in range(start, stop, step):
                end = min(run + step, stop)
                block = pattern * (end - run)
                froms = {i: row[run:end] for i, row in leaving.items()}
                tos = {j: row[run:end] for j, row in entering.items()}
                for src, i, dst, j in slots:
                    block[src::width] = froms[i]
                    block[dst::width] = tos[j]
                out.extend(block)


def encode_symmetry_breaking(vm: VarMap, out: array, since: int = 0) -> None:
    """Force the candidate's state numbering into breadth-first order.

    The auxiliary variables are defined from e by biconditionals: t(i, j)
    says some letter joins i to j, p(j, i) picks the smallest such i as
    j's tree parent, m(i, a, j) marks the smallest letter joining i to j.
    Ordering clauses then make consecutive states take consecutive parents
    and force sibling edges into ascending letter order.  Appends the
    clauses of the nodes from `since` on, node by node: those of node j
    are the clauses whose largest node is j, so the clauses of size n - 1
    are those of size n without node n - 1's.
    """
    if not vm.symmetry:
        raise EncodingError("variable map was built without symmetry variables")
    k = vm.alphabet_size

    def emit(*lits: int) -> None:
        out.extend(lits + (0,))

    for j in range(since, vm.n):
        for i in range(j):
            # p(j, i) holds iff i is the smallest node with an edge into j.
            emit(-vm.p(j, i), vm.t(i, j))
            for kk in range(i):
                emit(-vm.p(j, i), -vm.t(kk, j))
            emit(vm.p(j, i), -vm.t(i, j), *[vm.t(kk, j) for kk in range(i)])
            # t(i, j) holds iff some letter joins i to j.
            emit(-vm.t(i, j), *[vm.e(i, a, j) for a in range(k)])
            for a in range(k):
                emit(vm.t(i, j), -vm.e(i, a, j))
            # m(i, a, j) holds iff a is the smallest letter joining i to j.
            for a in range(k):
                emit(-vm.m(i, a, j), vm.e(i, a, j))
                for b in range(a):
                    emit(-vm.m(i, a, j), -vm.e(i, b, j))
                emit(vm.m(i, a, j), -vm.e(i, a, j),
                     *[vm.e(i, b, j) for b in range(a)])
        prev = j - 1
        for i in range(prev):
            # Children of one parent appear in ascending letter order.
            for b in range(k):
                for a in range(b):
                    emit(-vm.p(prev, i), -vm.p(j, i),
                         -vm.m(i, b, prev), -vm.m(i, a, j))
            # Parents are assigned in ascending node order.
            for kk in range(i):
                emit(-vm.p(prev, i), -vm.p(j, kk))
        # Every node except the root has a parent.
        if j:
            emit(*[vm.p(j, parent) for parent in range(j)])


def encode_parity_constraints(vm: VarMap, out: array) -> None:
    """Pin the candidate into safety (or co-safety) automaton shape.

    Letters are parity-game colours.  Colours sharing the parity of the
    highest colour loop on the initial state and never enter the sink
    from another state; opponent colours move off the initial state to a
    middle state, neither it nor the sink.  State n-1 is an absorbing
    sink, the highest colour resets every non-sink state to the initial
    state, and opponent colours never loop on a non-sink state.  When the
    highest colour is even all non-sink states accept and the sink
    rejects; when it is odd the roles flip.  Needs n >= 2 so the sink is
    distinct from the initial state.
    """
    colours = vm.alphabet_size
    if colours < 2:
        raise EncodingError("parity corpora need at least two colours")
    if vm.n < 2:
        raise EncodingError("safety shape needs at least two candidate states")
    n = vm.n
    sink = n - 1
    highest = colours - 1
    same = [a for a in range(colours) if a % 2 == highest % 2]
    opponent = [a for a in range(colours) if a % 2 != highest % 2]
    for a in same:
        out.extend((vm.e(0, a, 0), 0))
    for a in opponent:
        middles = [vm.e(0, a, i) for i in range(1, sink)]
        if middles:
            out.extend(middles + [0])
        else:
            # No middle states exist at n = 2; with determinism and
            # completeness this pair is the same prohibition.
            out.extend((-vm.e(0, a, 0), 0, -vm.e(0, a, sink), 0))
    for i in range(sink):
        for a in same:
            out.extend((-vm.e(i, a, sink), 0))
        out.extend((vm.e(i, highest, 0), 0))
        for a in opponent:
            out.extend((-vm.e(i, a, i), 0))
    for a in range(colours):
        out.extend((vm.e(sink, a, sink), 0))
    accept = 1 if highest % 2 == 0 else -1
    for i in range(sink):
        out.extend((accept * vm.f(i), 0))
    out.extend((-accept * vm.f(sink), 0))


def _shape_facts(vm: VarMap) -> dict[int, bool]:
    """The values the safety shape fixes at size vm.n, by variable.

    These are the unit clauses encode_parity_constraints writes, closed
    under determinism: a true e(i, a, j) makes every other e(i, a, j')
    false.  The at-most-one clauses and the units stay in the formula, so
    every model of it takes these values.
    """
    shape = array("i")
    encode_parity_constraints(vm, shape)
    facts, start = {}, 0
    for end, lit in enumerate(shape):
        if lit == 0:
            if end == start + 1:
                facts[abs(shape[start])] = shape[start] > 0
            start = end + 1
    for i in range(vm.n):
        for a in range(vm.alphabet_size):
            row = vm.e_row(i, a)
            if any(facts.get(e) for e in row):
                for e in row:
                    facts.setdefault(e, False)
    return facts


def _safety_facts(vm: VarMap) -> dict[int, bool]:
    """The fixed values the product clauses of size vm.n are written with.

    The sink's block, in the tail, takes every value the shape fixes at
    size n.  A block below the sink is kept by every larger size, so it
    takes only the values that size n + 1 fixes alike: at n = 3 the
    middle-state clause of each opponent colour is the unit e(0, a, 1),
    which size 4 does not share.
    """
    facts = _shape_facts(vm)
    larger = _shape_facts(VarMap(vm.n + 1, vm.alphabet_size,
                                 vm.acceptor_state_count, vm.symmetry))
    sink = vm._before(vm.n - 1)  # the last id below the sink's block
    return {var: value for var, value in facts.items()
            if var > sink or larger.get(var) == value}


def build_formula(n: int, acceptor: ThreeValuedDFA, symmetry: bool = True,
                  safety: bool = False,
                  base: tuple[VarMap, CnfFormula] | None = None
                  ) -> tuple[VarMap, CnfFormula]:
    """The formula of candidate size n, grown one candidate state at a time.

    Without base it grows from nothing.  base is what this function
    returned for a smaller size, the same acceptor and the same options:
    its buffer is cut back to its stable part and grown in place, so
    base's formula no longer describes its size, and only the literals
    past its stable part are checked.  The formula of size n is the same
    either way.  With safety, the sink's block is part of the tail, holds
    no symmetry clauses (they number only the states below the sink), and
    the product clauses leave out what the shape's fixed values decide.
    """
    vm = VarMap(n, acceptor.alphabet_size, acceptor.state_count, symmetry,
                safety)
    first, formula, literals = 0, None, array("i")
    if base is not None:
        base_vm, formula = base
        if not (base_vm.n < n and base_vm.symmetry == symmetry
                and base_vm.safety == safety
                and base_vm.alphabet_size == acceptor.alphabet_size
                and base_vm.acceptor_state_count == acceptor.state_count):
            raise EncodingError(
                "a formula grows only to a larger size of its acceptor, "
                "with the same options")
        # Every block of base is stable but, with safety, its sink's.
        first = base_vm.n - 1 if safety else base_vm.n
        literals = formula.literals
    stable = end = 0 if formula is None else formula.stable
    table = _Transitions(acceptor, _safety_facts(vm) if safety else None)
    for k in range(first, n):
        grown = VarMap(k + 1, acceptor.alphabet_size, acceptor.state_count,
                       symmetry)
        sink = safety and k == n - 1
        del literals[end:]
        encode_product(grown, acceptor, literals, since=k, table=table)
        if symmetry and not sink:
            encode_symmetry_breaking(grown, literals, since=k)
        encode_dfa_shape(grown, literals, since=k)
        # The at-least-one rows, (k + 1) * K clauses of k + 1 literals and
        # a closing 0 each, end encode_dfa_shape's output and the block.
        end = len(literals) - (k + 1) * acceptor.alphabet_size * (k + 2)
        if not sink:
            stable = end
    if safety:
        encode_parity_constraints(vm, literals)
    return vm, CnfFormula(vm.variable_count, literals, stable, formula)


class DimacsCache:
    """DIMACS text of the stable part of one mine's growing formula.

    emit_dimacs formats each literal of the stable part into it once and
    copies the text into every later file of the same buffer.  The text
    lives in an anonymous temporary file, which leaves nothing behind once
    closed, or when the process dies.
    """

    def __init__(self) -> None:
        self.file = tempfile.TemporaryFile()
        self.literals: array | None = None  # the buffer the text comes from
        self.formatted = 0  # the text is that of literals[:formatted]

    def close(self) -> None:
        self.file.close()


def _write_clauses(lits: array, start: int, stop: int,
                   handle: BinaryIO) -> None:
    """Write lits[start:stop], whole clauses, as DIMACS lines in chunks."""
    while start < stop:
        end = lits.index(0, min(start + _CHUNK, stop) - 1, stop) + 1
        text = b"%d " * (end - start) % tuple(lits[start:end])
        # Only a clause-closing 0 prints as a whole " 0 " token.
        handle.write(text.replace(b" 0 ", b" 0\n"))
        start = end


def emit_dimacs(formula: CnfFormula, handle: BinaryIO,
                cache: DimacsCache | None = None) -> None:
    """Write DIMACS CNF bytes into handle.

    With a cache, the stable part's text is copied from it, after the
    stable literals it lacks are formatted into it; the tail is formatted
    afresh.  A cache that holds another buffer's text is started again.
    """
    lits = formula.literals
    handle.write(b"p cnf %d %d\n" % (formula.variable_count,
                                     formula.clause_count))
    start = 0
    if cache is not None:
        start = formula.stable
        text = cache.file
        if cache.literals is not lits or cache.formatted > start:
            text.seek(0)
            text.truncate()
            cache.formatted = 0
        cache.literals = None  # a write that fails leaves partial text
        text.seek(0, os.SEEK_END)
        _write_clauses(lits, cache.formatted, start, text)
        cache.literals, cache.formatted = lits, start
        text.seek(0)
        shutil.copyfileobj(text, handle)
    _write_clauses(lits, start, len(lits), handle)


def decode_model(model: Mapping[int, bool], vm: VarMap) -> ThreeValuedDFA:
    """Read the candidate DFA out of a satisfying assignment.

    Checks that the transition variables describe exactly one target per
    state and letter; anything else means the formula was built wrong.
    """
    transitions: dict[tuple[int, int], int] = {}
    for i in range(vm.n):
        for a in range(vm.alphabet_size):
            targets = []
            for j, var in enumerate(vm.e_row(i, a)):
                if var not in model:
                    raise EncodingError(f"model misses variable {var}")
                if model[var]:
                    targets.append(j)
            if len(targets) != 1:
                raise EncodingError(
                    f"state {i} letter {a}: {len(targets)} targets in model")
            transitions[(i, a)] = targets[0]
    accepting = frozenset(i for i in range(vm.n) if model[vm.f(i)])
    return ThreeValuedDFA(vm.alphabet_size, vm.n, (0,), transitions,
                          accepting, frozenset(range(vm.n)) - accepting)