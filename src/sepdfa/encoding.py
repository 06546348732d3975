"""CNF encoding of the bounded search for a separating DFA.

A candidate DFA with n states is described by transition variables
e(i, a, j), acceptance variables f(i) and product-reachability variables
d(p, i) that tie the candidate to a three-valued acceptor, one row per
acceptor state.  Two optional groups are layered on top:
breadth-first-tree symmetry breaking over auxiliary variables t(i, j),
p(child, parent) and m(i, a, j), and shape constraints that force the
candidate into safety or co-safety form for parity corpora.

Each encoder appends its clauses to one flat array('i') of literals, each
clause closed by a 0 as in DIMACS; emit_dimacs streams it in chunks.
"""

from __future__ import annotations

import re
from array import array
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, TextIO

from .automata import LearnedDFA, ThreeValuedDFA

_CHUNK = 1 << 16  # literals per DIMACS chunk, rounded up to a clause end


class EncodingError(RuntimeError):
    """Inconsistent encoder usage or an unusable solver model."""


@dataclass(frozen=True)
class CnfFormula:
    """Propositional formula in conjunctive normal form.

    Variables are the 1-based integers up to variable_count; a literal is
    a variable or its negation.  literals holds the clauses in order, each
    closed by a 0, and no clause is empty.
    """

    variable_count: int
    literals: array

    def __post_init__(self) -> None:
        lits = self.literals
        if self.variable_count < 0:
            raise EncodingError("negative variable count")
        if lits and lits[-1] != 0:
            raise EncodingError("last clause is not closed by 0")
        for lit in (min(lits, default=0), max(lits, default=0)):
            if abs(lit) > self.variable_count:
                raise EncodingError(f"literal {lit} out of range")
        # A clause is empty where a 0 opens the buffer or follows a 0; two
        # zero literals in a row are zero bytes from a literal boundary on.
        width = lits.itemsize
        pair = re.compile(bytes(2 * width)).search(lits)
        while pair and pair.start() % width:
            pair = pair.re.search(lits, pair.start() + 1)
        if pair or (lits and lits[0] == 0):
            raise EncodingError("empty clause")

    @cached_property
    def clause_count(self) -> int:
        return self.literals.count(0)


class VarMap:
    """Fixed variable layout for one (candidate size, acceptor) pair.

    Ids are contiguous from 1 in the order: all e, then f, then d (one row
    of n per acceptor state), then, when symmetry breaking is enabled, t,
    p and m.
    """

    def __init__(self, n: int, alphabet_size: int, acceptor_state_count: int,
                 symmetry: bool):
        if n < 1:
            raise EncodingError("candidate size must be at least 1")
        if alphabet_size < 1:
            raise EncodingError("alphabet size must be at least 1")
        self.n = n
        self.alphabet_size = alphabet_size
        self.acceptor_state_count = acceptor_state_count
        self.symmetry = symmetry
        self._base_f = n * alphabet_size * n
        self._base_d = self._base_f + n
        self._base_t = self._base_d + acceptor_state_count * n
        # Upper-triangular pairs (i, j) with i < j, row-major in j.
        self._pairs = [(i, j) for j in range(n) for i in range(j)]
        self._base_p = self._base_t + len(self._pairs)
        self._base_m = self._base_p + len(self._pairs)
        self.variable_count = (self._base_m + len(self._pairs) * alphabet_size
                               if symmetry else self._base_t)

    def e(self, i: int, a: int, j: int) -> int:
        """Candidate moves from state i to state j on letter a."""
        if not (0 <= i < self.n and 0 <= j < self.n
                and 0 <= a < self.alphabet_size):
            raise EncodingError(f"e({i}, {a}, {j}) out of range")
        return 1 + (i * self.alphabet_size + a) * self.n + j

    def f(self, i: int) -> int:
        """Candidate state i is accepting."""
        if not 0 <= i < self.n:
            raise EncodingError(f"f({i}) out of range")
        return 1 + self._base_f + i

    def d(self, p: int, i: int) -> int:
        """Acceptor state p and candidate state i are reached together."""
        if not (0 <= p < self.acceptor_state_count and 0 <= i < self.n):
            raise EncodingError(f"d({p}, {i}) out of range")
        return 1 + self._base_d + p * self.n + i

    def _pair(self, i: int, j: int) -> int:
        """Index of the node pair (i, j), i < j, among the symmetry pairs."""
        if not self.symmetry:
            raise EncodingError("symmetry variables are disabled")
        if not 0 <= i < j < self.n:
            raise EncodingError(f"node pair ({i}, {j}) out of range")
        return j * (j - 1) // 2 + i

    def t(self, i: int, j: int) -> int:
        """Some letter moves the candidate from state i to state j (i < j)."""
        return 1 + self._base_t + self._pair(i, j)

    def p(self, child: int, parent: int) -> int:
        """Candidate state child has tree parent `parent` (parent < child)."""
        return 1 + self._base_p + self._pair(parent, child)

    def m(self, i: int, a: int, j: int) -> int:
        """Letter a is the smallest letter moving state i to state j (i < j)."""
        if not 0 <= a < self.alphabet_size:
            raise EncodingError(f"m({i}, {a}, {j}) letter out of range")
        return 1 + self._base_m + self._pair(i, j) * self.alphabet_size + a

    def decode(self, var: int) -> tuple:
        """Inverse of the id mapping: ('e', i, a, j), ('f', i), and so on."""
        if not 1 <= var <= self.variable_count:
            raise EncodingError(f"variable {var} out of range")
        idx = var - 1
        n, k = self.n, self.alphabet_size
        if idx < self._base_f:
            ia, j = divmod(idx, n)
            i, a = divmod(ia, k)
            return ("e", i, a, j)
        if idx < self._base_d:
            return ("f", idx - self._base_f)
        if idx < self._base_t:
            p, i = divmod(idx - self._base_d, n)
            return ("d", p, i)
        if idx < self._base_p:
            i, j = self._pairs[idx - self._base_t]
            return ("t", i, j)
        if idx < self._base_m:
            i, j = self._pairs[idx - self._base_p]
            return ("p", j, i)
        pair, a = divmod(idx - self._base_m, k)
        i, j = self._pairs[pair]
        return ("m", i, a, j)


def encode_dfa_shape(vm: VarMap, out: array) -> None:
    """Determinism and completeness of the candidate transition function."""
    n = vm.n
    for i in range(n):
        for a in range(vm.alphabet_size):
            for j in range(n):
                for jj in range(j + 1, n):
                    out.extend((-vm.e(i, a, j), -vm.e(i, a, jj), 0))
            out.extend([vm.e(i, a, j) for j in range(n)] + [0])


def encode_product(vm: VarMap, acceptor: ThreeValuedDFA, out: array) -> None:
    """Tie the candidate to the acceptor.

    Product pairs seed at the initial states and follow the acceptor's
    transitions in the order they are stored; candidate states paired with
    an accepting acceptor state must accept, those paired with a rejecting
    one must reject.
    """
    if acceptor.state_count != vm.acceptor_state_count:
        raise EncodingError("variable map was built for a different acceptor")
    if acceptor.alphabet_size != vm.alphabet_size:
        raise EncodingError("alphabet mismatch between acceptor and variables")
    n = vm.n
    for q0 in acceptor.initials:
        out.extend((vm.d(q0, 0), 0))
    for states, sign in ((acceptor.accepting, 1), (acceptor.rejecting, -1)):
        for p in sorted(states):
            for i in range(n):
                out.extend((-vm.d(p, i), sign * vm.f(i), 0))
    for (p, a), r in acceptor.transitions.items():
        batch = []
        for i in range(n):
            not_pi = -vm.d(p, i)
            for j in range(n):
                batch += (not_pi, -vm.e(i, a, j), vm.d(r, j), 0)
        out.fromlist(batch)


def encode_symmetry_breaking(vm: VarMap, out: array,
                             safety_mode: bool = False) -> None:
    """Force the candidate's state numbering into breadth-first order.

    The auxiliary variables are defined from e by biconditionals: t(i, j)
    says some letter joins i to j, p(j, i) picks the smallest such i as
    j's tree parent, m(i, a, j) marks the smallest letter joining i to j.
    Ordering clauses then make consecutive states take consecutive parents
    and force sibling edges into ascending letter order.  In safety mode
    every clause mentioning the sink node n-1 is dropped, because the sink
    shape clauses pin its edges in ways a breadth-first numbering of the
    remaining nodes cannot always satisfy.
    """
    if not vm.symmetry:
        raise EncodingError("variable map was built without symmetry variables")
    k = vm.alphabet_size
    nodes = vm.n - 1 if safety_mode else vm.n

    def emit(*lits: int) -> None:
        out.extend(lits + (0,))

    for j in range(nodes):
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
            if j + 1 < nodes:
                # Children of one parent appear in ascending letter order.
                for b in range(k):
                    for a in range(b):
                        emit(-vm.p(j, i), -vm.p(j + 1, i),
                             -vm.m(i, b, j), -vm.m(i, a, j + 1))
                # Parents are assigned in ascending node order.
                for kk in range(i):
                    emit(-vm.p(j, i), -vm.p(j + 1, kk))
    # Every node except the root has a parent.
    for child in range(1, nodes):
        emit(*[vm.p(child, parent) for parent in range(child)])


def encode_parity_constraints(vm: VarMap, colours: int, out: array) -> None:
    """Pin the candidate into safety (or co-safety) automaton shape.

    Letters are parity-game colours.  Colours sharing the parity of the
    highest colour loop on the initial state; opponent colours move off
    it.  State n-1 is an absorbing sink, the highest colour resets every
    non-sink state to the initial state, and opponent colours never loop
    on a non-sink state.  When the highest colour is even all non-sink
    states accept and the sink rejects; when it is odd the roles flip.
    Needs n >= 2 so the sink is distinct from the initial state.
    """
    if colours != vm.alphabet_size:
        raise EncodingError("colour count must equal the alphabet size")
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


def build_formula(n: int, acceptor: ThreeValuedDFA, symmetry: bool = True,
                  safety: bool = False) -> tuple[VarMap, CnfFormula]:
    """Assemble the full formula for one candidate size."""
    vm = VarMap(n, acceptor.alphabet_size, acceptor.state_count, symmetry)
    literals = array("i")
    encode_dfa_shape(vm, literals)
    encode_product(vm, acceptor, literals)
    if symmetry:
        encode_symmetry_breaking(vm, literals, safety_mode=safety)
    if safety:
        encode_parity_constraints(vm, acceptor.alphabet_size, literals)
    return vm, CnfFormula(vm.variable_count, literals)


def emit_dimacs(formula: CnfFormula, handle: TextIO) -> None:
    """Write DIMACS CNF text into handle in chunks ending on clause ends."""
    lits = formula.literals
    handle.write(f"p cnf {formula.variable_count} {formula.clause_count}\n")
    start = 0
    while start < len(lits):
        end = lits.index(0, min(start + _CHUNK, len(lits) - 1)) + 1
        text = ("%d " * (end - start)) % tuple(lits[start:end])
        # Only a clause-closing 0 prints as a whole " 0 " token.
        handle.write(text.replace(" 0 ", " 0\n"))
        start = end


def decode_model(model: Mapping[int, bool], vm: VarMap) -> LearnedDFA:
    """Read the candidate DFA out of a satisfying assignment.

    Checks that the transition variables describe exactly one target per
    state and letter; anything else means the formula was built wrong.
    """
    transitions: dict[tuple[int, int], int] = {}
    for i in range(vm.n):
        for a in range(vm.alphabet_size):
            targets = []
            for j in range(vm.n):
                var = vm.e(i, a, j)
                if var not in model:
                    raise EncodingError(f"model misses variable {var}")
                if model[var]:
                    targets.append(j)
            if len(targets) != 1:
                raise EncodingError(
                    f"state {i} letter {a}: {len(targets)} targets in model")
            transitions[(i, a)] = targets[0]
    accepting = frozenset(i for i in range(vm.n) if model[vm.f(i)])
    return LearnedDFA(vm.alphabet_size, vm.n, transitions, accepting)
