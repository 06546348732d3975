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
tail.  Each encoder appends the clauses of one block, that of the
candidate state k it is given; build_formula alone lays the blocks out
and writes the tail, once per size.

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
per formula, into the formula's own copy of that text.
"""

from __future__ import annotations

import itertools
import os
import shutil
import tempfile
import weakref
from array import array
from bisect import bisect_left, bisect_right
from operator import countOf, getitem, itemgetter
from typing import BinaryIO, Mapping

from .automata import ThreeValuedDFA

# Literals per DIMACS chunk, rounded up to a clause end, and at most per
# product block (about 256 KiB of 4-byte literals).
_CHUNK = 1 << 16
# A model's byte per variable (1 false, 2 true) as a literal's truth.
_TRUTH = bytes.maketrans(b"\1\2", b"01")
_FALSITY = bytes.maketrans(b"\1\2", b"10")


class EncodingError(RuntimeError):
    """Inconsistent encoder usage or an unusable solver model."""


class CnfFormula:
    """Propositional formula in conjunctive normal form.

    Variables are the 1-based integers up to variable_count; a literal is
    a variable or its negation.  literals holds the clauses in order, each
    closed by a 0, and no clause is empty.  literals[:stable], which ends
    on a clause end, is what every larger size of a formula grown by
    build_formula keeps; the rest is the tail of this size.  The
    constructor checks the literals a caller hands it; build_formula grows
    a formula in place and only counts the clauses it appends.  From its
    first emit_dimacs on, the formula keeps the DIMACS text of its stable
    part in an anonymous temporary file, which close() frees, or the
    formula's collection if close() is never called.
    """

    def __init__(self, variable_count: int, literals: array, stable: int = 0):
        if variable_count < 0:
            raise EncodingError("negative variable count")
        if (not 0 <= stable <= len(literals)
                or (stable and literals[stable - 1])):
            raise EncodingError("stable part does not end on a clause end")
        if literals and literals[-1] != 0:
            raise EncodingError("last clause is not closed by 0")
        # A 0 that opens the buffer or follows a 0 closes an empty clause.
        for previous, lit in zip(itertools.chain((0,), literals), literals):
            if abs(lit) > variable_count:
                raise EncodingError(f"literal {lit} out of range")
            if not (lit or previous):
                raise EncodingError("empty clause")
        self.literals, self.variable_count = literals, variable_count
        self.stable, self.clause_count = stable, literals.count(0)
        self._text: BinaryIO | None = None
        self._formatted = 0  # the text is that of literals[:_formatted]

    def _stable_text(self) -> BinaryIO:
        """The DIMACS text of literals[:stable], read from its start.

        Only the stable literals the text lacks are formatted into it.  A
        write that fails leaves the text to be formatted again in full.
        """
        if self._text is None:
            self._text = tempfile.TemporaryFile()
            self._free_text = weakref.finalize(self, self._text.close)
        text, start = self._text, self._formatted
        self._formatted = 0  # until the write below completes
        if not start:
            text.truncate(0)
        text.seek(0, os.SEEK_END)
        _write_clauses(self.literals, start, self.stable, text)
        self._formatted = self.stable
        text.seek(0)
        return text

    def close(self) -> None:
        """Free the DIMACS text; a later emit_dimacs formats it again."""
        if self._text is not None:
            self._free_text()
            self._text, self._formatted = None, 0

    def satisfied_by(self, model: bytes) -> bool:
        """Whether the model, a table by variable (1 false, 2 true) that
        assigns every variable, makes every clause true."""
        values = model[1:self.variable_count + 1]
        if (len(values) < self.variable_count
                or values.translate(None, b"\1\2")):
            raise EncodingError("model does not assign every variable")
        # "1"/"0" per literal by value (negatives index from the end), "|"
        # per 0.  Chunks end on clause ends; with the false literals left
        # out, a false clause reads "||", or "|" first in its chunk.
        truth = (b"|" + values.translate(_TRUTH)
                 + values[::-1].translate(_FALSITY))
        lits, start = self.literals, 0
        while start < len(lits):
            end = lits.index(0, min(start + _CHUNK, len(lits)) - 1) + 1
            marks = bytes(map(getitem, itertools.repeat(truth),
                              lits[start:end]))
            marks = marks.translate(None, b"0")
            if marks.startswith(b"|") or b"||" in marks:
                return False
            start = end
        return True


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


def encode_dfa_shape(vm: VarMap, out: array, k: int) -> None:
    """Determinism of the candidate transition function in block k.

    Appends the at-most-one clauses whose largest candidate state is k.
    Completeness, the at-least-one row of every state and letter, holds at
    one size only: build_formula writes those rows after the last block.
    """
    for i in range(k + 1):
        for a in range(vm.alphabet_size):
            row = [vm.e(i, a, j) for j in range(k + 1)]
            if i == k:
                pairs = itertools.combinations(row, 2)
            else:
                pairs = ((x, row[k]) for x in row[:k])
            for x, y in pairs:
                out.extend((-x, -y, 0))


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
                   k: int, table: _Transitions | None = None) -> None:
    """Tie the candidate to the acceptor in block k.

    Appends the product clauses whose largest candidate state is k: the
    seeds at the initial states (at k = 0), the acceptance clauses of k,
    then the transition clauses, letter by letter.  Candidate states
    paired with an accepting acceptor state must accept, those paired with
    a rejecting one must reject.  table is the acceptor read with the
    values the formula's shape fixes; without one it is read here, with
    none fixed.  A clause that a fixed value makes true is left out, and
    so is a literal that one makes false.  Clauses are filled column by
    column, by strided slices that each store one clause slot of many
    clauses, so the interpreted work goes by clause slot and run of
    transitions, not by clause.
    """
    if acceptor.state_count != vm.acceptor_state_count:
        raise EncodingError("variable map was built for a different acceptor")
    if acceptor.alphabet_size != vm.alphabet_size:
        raise EncodingError("alphabet mismatch between acceptor and variables")
    if table is None:
        table = _Transitions(acceptor)
    facts = table.facts
    if k == 0:
        for q0 in acceptor.initials:
            out.extend((vm.d(q0, 0), 0))
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
    # A letter's transitions share one layout of width literals each: its
    # pattern, repeated once per transition, holds the -e literals and
    # closing 0s, and one slice of stride `width` stores a slot's -d(p, i)
    # or d(r, j) for a whole run of transitions.  A run is at most _CHUNK
    # literals unless one transition alone is more (filling a whole span at
    # once raised peak RSS).
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


def encode_symmetry_breaking(vm: VarMap, out: array, k: int) -> None:
    """Force the candidate's state numbering into breadth-first order.

    The auxiliary variables are defined from e by biconditionals: t(i, j)
    says some letter joins i to j, p(j, i) picks the smallest such i as
    j's tree parent, m(i, a, j) marks the smallest letter joining i to j.
    Ordering clauses then make consecutive states take consecutive parents
    and force sibling edges into ascending letter order.  Appends the
    clauses of node k, those whose largest node is k, so the clauses of
    size n are those of the nodes below n, node by node.
    """
    if not vm.symmetry:
        raise EncodingError("variable map was built without symmetry variables")
    letters = range(vm.alphabet_size)

    def emit(*lits: int) -> None:
        out.extend(lits + (0,))

    for i in range(k):
        # p(k, i) holds iff i is the smallest node with an edge into k.
        emit(-vm.p(k, i), vm.t(i, k))
        for h in range(i):
            emit(-vm.p(k, i), -vm.t(h, k))
        emit(vm.p(k, i), -vm.t(i, k), *[vm.t(h, k) for h in range(i)])
        # t(i, k) holds iff some letter joins i to k.
        emit(-vm.t(i, k), *[vm.e(i, a, k) for a in letters])
        for a in letters:
            emit(vm.t(i, k), -vm.e(i, a, k))
        # m(i, a, k) holds iff a is the smallest letter joining i to k.
        for a in letters:
            emit(-vm.m(i, a, k), vm.e(i, a, k))
            for b in range(a):
                emit(-vm.m(i, a, k), -vm.e(i, b, k))
            emit(vm.m(i, a, k), -vm.e(i, a, k),
                 *[vm.e(i, b, k) for b in range(a)])
    prev = k - 1
    for i in range(prev):
        # Children of one parent appear in ascending letter order.
        for b in letters:
            for a in range(b):
                emit(-vm.p(prev, i), -vm.p(k, i),
                     -vm.m(i, b, prev), -vm.m(i, a, k))
        # Parents are assigned in ascending node order.
        for h in range(i):
            emit(-vm.p(prev, i), -vm.p(k, h))
    # Every node except the root has a parent.
    if k:
        emit(*[vm.p(k, parent) for parent in range(k)])


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

    Each encoder appends its clauses of one block, that of one candidate
    state; this function alone lays the blocks out and writes the tail
    once, after the last block: the at-least-one rows and, with safety,
    the shape.  Without base it grows from nothing.  base is what this
    function returned for a smaller size, the same acceptor and the same
    options: its formula is cut back to its stable part and grown in
    place, so it no longer describes base's size.  The clauses of the tail
    it cuts and of what it appends are counted in place, through a
    memoryview, with no copy of the buffer, and not checked: every id
    comes from a range-checked VarMap accessor or from a block whose first
    id one checked, and every clause an encoder writes is non-empty and
    closed.  The formula of size n is the same either way.  With safety,
    the sink's block is part of the tail, holds no symmetry clauses (they
    number only the states below the sink), and the product clauses leave
    out what the shape's fixed values decide.
    """
    vm = VarMap(n, acceptor.alphabet_size, acceptor.state_count, symmetry,
                safety)
    first, formula = 0, CnfFormula(0, array("i"))
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
    formula.clause_count -= countOf(memoryview(literals)[formula.stable:], 0)
    del literals[formula.stable:]
    start = stable = len(literals)
    table = _Transitions(acceptor, _safety_facts(vm) if safety else None)
    for k in range(first, n):
        sink = safety and k == n - 1
        encode_product(vm, acceptor, literals, k, table)
        if symmetry and not sink:
            encode_symmetry_breaking(vm, literals, k)
        encode_dfa_shape(vm, literals, k)
        if not sink:
            stable = len(literals)
    # The at-least-one rows make the transition function total at size n
    # only.
    for i, a in itertools.product(range(n), range(acceptor.alphabet_size)):
        literals.extend(vm.e_row(i, a) + [0])
    if safety:
        encode_parity_constraints(vm, literals)
    formula.clause_count += countOf(memoryview(literals)[start:], 0)
    formula.variable_count, formula.stable = vm.variable_count, stable
    return vm, formula


def _write_clauses(lits: array, start: int, stop: int,
                   handle: BinaryIO) -> None:
    """Write lits[start:stop], whole clauses, as DIMACS lines in chunks."""
    while start < stop:
        end = lits.index(0, min(start + _CHUNK, stop) - 1, stop) + 1
        text = b"%d " * (end - start) % tuple(lits[start:end])
        # Only a clause-closing 0 prints as a whole " 0 " token.
        handle.write(text.replace(b" 0 ", b" 0\n"))
        start = end


def emit_dimacs(formula: CnfFormula, handle: BinaryIO) -> None:
    """Write DIMACS CNF bytes into handle.

    The stable part's text is copied from the formula's own, after the
    stable literals it lacks are formatted into it; the tail is formatted
    afresh.
    """
    lits = formula.literals
    handle.write(b"p cnf %d %d\n" % (formula.variable_count,
                                     formula.clause_count))
    shutil.copyfileobj(formula._stable_text(), handle)
    _write_clauses(lits, formula.stable, len(lits), handle)


def decode_model(model: bytes, vm: VarMap) -> ThreeValuedDFA:
    """Read the candidate DFA out of a satisfying assignment, a table by
    variable: 1 false, 2 true, and 0 (or no byte) unassigned.

    Checks that the transition variables describe exactly one target per
    state and letter; anything else means the formula was built wrong.
    """
    def value(var: int) -> bool:
        if var >= len(model) or model[var] not in (1, 2):
            raise EncodingError(f"model misses variable {var}")
        return model[var] == 2

    transitions: dict[tuple[int, int], int] = {}
    for i in range(vm.n):
        for a in range(vm.alphabet_size):
            targets = [j for j, var in enumerate(vm.e_row(i, a))
                       if value(var)]
            if len(targets) != 1:
                raise EncodingError(
                    f"state {i} letter {a}: {len(targets)} targets in model")
            transitions[(i, a)] = targets[0]
    accepting = frozenset(i for i in range(vm.n) if value(vm.f(i)))
    return ThreeValuedDFA(vm.alphabet_size, vm.n, (0,), transitions,
                          accepting, frozenset(range(vm.n)) - accepting)
