"""Variable layout, clause generation, and symmetry-breaking canonicity."""

import bisect
import gc
import hashlib
import io
import itertools
import random
import tracemalloc
import weakref
from array import array
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sepdfa import encoding, mining
from sepdfa.automata import (
    ThreeValuedDFA,
    build_apta,
    build_ddfa,
    build_min_3dfa_incremental,
    canonical_form,
)
from sepdfa.encoding import (
    CnfFormula,
    EncodingError,
    VarMap,
    build_formula,
    decode_model,
    emit_dimacs,
    encode_dfa_shape,
    encode_parity_constraints,
    encode_product,
    encode_symmetry_breaking,
)
from sepdfa.generators import gen_random_dfa, gen_samples_from_dfa
from sepdfa.mining import NoSeparatorError, mine_min_dfa
from sepdfa.samples import SampleSet
from sepdfa.solver import solve


def whole_size(encoder, vm, *args, rows=False):
    """A block encoder's output for every block of size vm.n, in order, in
    one fresh buffer; with rows, then the at-least-one row of every state
    and letter, as build_formula writes them after the last block."""
    out = array("i")
    for k in range(vm.n):
        encoder(vm, *args, out, k)
    if rows:
        for i, a in itertools.product(range(vm.n), range(vm.alphabet_size)):
            out.extend(vm.e_row(i, a) + [0])
    return out


def clauses_of(encoder, *args):
    """Run one encoder into a fresh buffer and split it into clause tuples,
    as many as the encoder says it appended."""
    literals = array("i")
    count = encoder(*args, literals)
    clauses = split_clauses(literals)
    assert count == len(clauses)
    return clauses


def split_clauses(literals):
    """The clauses of a buffer, as tuples in order."""
    clauses, clause = [], []
    for lit in literals:
        if lit:
            clause.append(lit)
        else:
            clauses.append(tuple(clause))
            clause = []
    assert clause == [], "last clause is not closed by 0"
    return clauses


def dimacs_text(formula):
    handle = io.BytesIO()
    emit_dimacs(formula, handle)
    return handle.getvalue().decode()


def plain_dimacs(formula):
    """The DIMACS text of formula, formatted one clause at a time."""
    lines = [f"p cnf {formula.variable_count} {formula.clause_count}\n"]
    clause = []
    for lit in formula.literals:
        clause.append(str(lit))
        if not lit:
            lines.append(" ".join(clause) + "\n")
            clause = []
    return "".join(lines)


def clause_satisfied(clause, assignment):
    return any(assignment[abs(lit)] == (lit > 0) for lit in clause)


def all_satisfied(clauses, assignment):
    return all(clause_satisfied(c, assignment) for c in clauses)


class TestVarMap:
    @pytest.mark.parametrize("n,k,m,sym", [
        (1, 1, 1, False), (2, 2, 3, False), (3, 2, 5, True),
        (4, 3, 7, True), (2, 5, 2, True),
    ])
    def test_layout_is_a_bijection(self, n, k, m, sym):
        # every accessor over every in-range index gives 1..variable_count,
        # each id once, and the rows agree with the scalar accessors
        vm = VarMap(n, k, m, sym)
        ids = [vm.e(i, a, j) for i in range(n) for a in range(k)
               for j in range(n)]
        ids += [vm.f(i) for i in range(n)]
        ids += [vm.d(p, i) for p in range(m) for i in range(n)]
        if sym:
            pairs = [(i, j) for j in range(n) for i in range(j)]
            ids += [vm.t(i, j) for i, j in pairs]
            ids += [vm.p(j, i) for i, j in pairs]
            ids += [vm.m(i, a, j) for i, j in pairs for a in range(k)]
        assert sorted(ids) == list(range(1, vm.variable_count + 1))
        for i in range(n):
            for a in range(k):
                assert list(vm.e_row(i, a)) == [vm.e(i, a, j)
                                                for j in range(n)]
        expected = n * k * n + n + m * n
        if sym:
            pairs = n * (n - 1) // 2
            expected += pairs * (2 + k)
        assert vm.variable_count == expected

    def test_frozen_ids(self):
        # block 0: e(0, a, 0), f(0), d(p, 0); block 1: e(0, a, 1),
        # e(1, a, 0), e(1, a, 1), f(1), d(p, 1), t(0, 1), p(1, 0), m(0, a, 1)
        vm = VarMap(2, 2, 3, True)
        assert vm.e(0, 0, 0) == 1
        assert vm.e(0, 0, 1) == 7
        assert vm.e(1, 1, 1) == 12
        assert vm.f(0) == 3
        assert vm.d(0, 0) == 4
        assert vm.d(2, 1) == 16
        assert vm.t(0, 1) == 17
        assert vm.p(1, 0) == 18
        assert vm.m(0, 1, 1) == 20
        assert vm.variable_count == 20

    def test_range_checks(self):
        vm = VarMap(2, 2, 1, True)
        with pytest.raises(EncodingError):
            vm.e(2, 0, 0)
        with pytest.raises(EncodingError):
            vm.d(1, 0)
        with pytest.raises(EncodingError):
            vm.t(1, 1)
        for i in (2, -1):
            with pytest.raises(EncodingError, match=rf"^f\({i}\) out of"):
                vm.f(i)
        for a in (2, -1):
            with pytest.raises(EncodingError, match="letter out of range"):
                vm.m(0, a, 1)
        for i, a in ((2, 0), (-1, 0), (0, 2), (0, -1)):
            with pytest.raises(EncodingError):
                vm.e_row(i, a)

    def test_sizes_below_one_rejected(self):
        with pytest.raises(EncodingError, match="candidate size"):
            VarMap(0, 1, 1, False)
        with pytest.raises(EncodingError, match="alphabet size"):
            VarMap(1, 0, 1, False)

    def test_symmetry_vars_gated(self):
        vm = VarMap(2, 1, 1, False)
        with pytest.raises(EncodingError):
            vm.t(0, 1)


class TestDoubleAcceptorSeeds:
    """The product clauses seed both initial states of a double DFA."""

    def test_double_dfa_offsets(self):
        dd = build_ddfa(SampleSet(2, {(0,)}, {(1,)}))
        vm = VarMap(2, 2, dd.state_count, False)
        clauses = split_clauses(whole_size(encode_product, vm, dd))
        # both initial states are seeded, the negative one past the split
        split = dd.initials[1]
        assert dd.initials == (0, split)
        assert clauses[:2] == [(vm.d(0, 0),), (vm.d(split, 0),)]
        assert dd.accepting and dd.rejecting
        assert all(q >= split for q in dd.rejecting)


class TestShapeClauses:
    def test_counts_n3_k2(self):
        vm = VarMap(3, 2, 1, False)
        clauses = split_clauses(whole_size(encode_dfa_shape, vm, rows=True))
        at_most = [c for c in clauses if len(c) == 2 and c[0] < 0]
        at_least = [c for c in clauses if c[0] > 0]
        assert len(at_most) == 3 * 2 * 3  # n*k * C(n,2)
        assert len(at_least) == 3 * 2
        assert len(clauses) == 24

    @pytest.mark.parametrize("n,k", [(1, 1), (2, 1), (2, 2)])
    def test_truth_table_is_total_functions(self, n, k):
        # shape clauses hold exactly when e describes a total function
        vm = VarMap(n, k, 1, False)
        clauses = split_clauses(whole_size(encode_dfa_shape, vm, rows=True))
        evars = [(i, a, j) for i in range(n) for a in range(k)
                 for j in range(n)]
        sat_count = 0
        for bits in itertools.product((False, True), repeat=len(evars)):
            assignment = {vm.e(i, a, j): b
                          for (i, a, j), b in zip(evars, bits)}
            is_function = all(
                sum(assignment[vm.e(i, a, j)] for j in range(n)) == 1
                for i in range(n) for a in range(k))
            assert all_satisfied(clauses, assignment) == is_function
            sat_count += is_function
        assert sat_count == n ** (n * k)


def run_table(table, f_bits, word):
    q = 0
    for a in word:
        q = table[(q, a)]
    return f_bits[q]


def separating_projection_by_enumeration(samples, n):
    """Ground truth: which (transition table, acceptance) pairs separate."""
    k = samples.alphabet_size
    good = set()
    keys = [(i, a) for i in range(n) for a in range(k)]
    for targets in itertools.product(range(n), repeat=len(keys)):
        table = dict(zip(keys, targets))
        for f_bits in itertools.product((False, True), repeat=n):
            ok = (all(run_table(table, f_bits, w) for w in samples.positives)
                  and not any(run_table(table, f_bits, w)
                              for w in samples.negatives))
            if ok:
                good.add((targets, f_bits))
    return good


def separating_projection_by_formula(samples, n):
    """Same set read off the clauses, using exhaustive d extensions."""
    k = samples.alphabet_size
    acceptor = build_apta(samples)
    vm = VarMap(n, k, acceptor.state_count, False)
    clauses = split_clauses(whole_size(encode_dfa_shape, vm, rows=True)
                            + whole_size(encode_product, vm, acceptor))
    keys = [(i, a) for i in range(n) for a in range(k)]
    dvars = [vm.d(p, i) for p in range(acceptor.state_count)
             for i in range(n)]
    good = set()
    for targets in itertools.product(range(n), repeat=len(keys)):
        table = dict(zip(keys, targets))
        e_assign = {vm.e(i, a, j): table[(i, a)] == j
                    for i in range(n) for a in range(k) for j in range(n)}
        for f_bits in itertools.product((False, True), repeat=n):
            assignment = dict(e_assign)
            for i in range(n):
                assignment[vm.f(i)] = f_bits[i]
            extendable = False
            for d_bits in itertools.product((False, True), repeat=len(dvars)):
                assignment.update(zip(dvars, d_bits))
                if all_satisfied(clauses, assignment):
                    extendable = True
                    break
            if extendable:
                good.add((targets, f_bits))
    return good


class TestProductClauses:
    @pytest.mark.parametrize("samples,n", [
        (SampleSet(1, {(0,)}, {(0, 0)}), 2),
        (SampleSet(1, {()}, {(0,)}), 2),
        (SampleSet(2, {(0,)}, {(1,)}), 2),
        (SampleSet(2, {(), (0,)}, {(0, 0), (1,)}), 2),  # unsat at n=2
        (SampleSet(1, {(0,)}, {(0, 0)}), 1),
        (SampleSet(2, {(0, 0)}, {(1,)}), 2),  # has a don't-care prefix
    ])
    def test_projection_matches_enumeration(self, samples, n):
        assert (separating_projection_by_formula(samples, n)
                == separating_projection_by_enumeration(samples, n))

    def test_vm_acceptor_mismatch_rejected(self):
        acceptor = build_apta(SampleSet(1, {(0,)}, set()))
        vm = VarMap(2, 1, 3, False)
        with pytest.raises(EncodingError):
            encode_product(vm, acceptor, array("i"), 0)

    def test_vm_alphabet_mismatch_rejected(self):
        acceptor = build_apta(SampleSet(2, {(0,)}, set()))
        vm = VarMap(2, 1, acceptor.state_count, False)
        with pytest.raises(EncodingError, match="alphabet mismatch"):
            encode_product(vm, acceptor, array("i"), 0)


def reference_shape(vm):
    """whole_size(encode_dfa_shape, vm, rows=True), one scalar accessor
    call per literal: the at-most-one pairs block by block, then the
    at-least-one rows."""
    n, out = vm.n, []
    for k in range(n):
        for i in range(k + 1):
            for a in range(vm.alphabet_size):
                for j in range(k + 1):
                    for jj in range(j + 1, k + 1):
                        if max(i, jj) == k:
                            out += (-vm.e(i, a, j), -vm.e(i, a, jj), 0)
    for i in range(n):
        for a in range(vm.alphabet_size):
            out += [vm.e(i, a, j) for j in range(n)] + [0]
    return out


def reference_product(vm, acceptor):
    """whole_size(encode_product, vm, acceptor), one scalar accessor call
    per literal: the seeds, then per candidate state k its acceptance
    clauses and, letter by letter and per transition of that letter in
    stored order, the state pairs whose larger state is k."""
    n, out = vm.n, []
    for q0 in acceptor.initials:
        out += (vm.d(q0, 0), 0)
    for k in range(n):
        for states, sign in ((acceptor.accepting, 1),
                             (acceptor.rejecting, -1)):
            for p in sorted(states):
                out += (-vm.d(p, k), sign * vm.f(k), 0)
        pairs = [(i, k) for i in range(k)] + [(k, j) for j in range(k + 1)]
        for a in range(vm.alphabet_size):
            for (p, b), r in acceptor.transitions.items():
                if b != a:
                    continue
                for i, j in pairs:
                    out += (-vm.d(p, i), -vm.e(i, a, j), vm.d(r, j), 0)
    return out


@st.composite
def sample_sets(draw):
    k = draw(st.integers(1, 3))
    words = st.lists(st.integers(0, k - 1), max_size=5).map(tuple)
    positives = draw(st.sets(words, max_size=8))
    negatives = draw(st.sets(words, max_size=8))
    return SampleSet(k, positives, negatives - positives)


class TestRowsMatchScalarAccessors:
    @given(sample_sets(),
           st.sampled_from([build_apta, build_min_3dfa_incremental,
                            build_ddfa]),
           st.integers(1, 4), st.booleans())
    @settings(max_examples=60)
    def test_buffers_equal_per_literal_reference(self, samples, builder, n,
                                                 symmetry):
        acceptor = builder(samples)
        vm = VarMap(n, acceptor.alphabet_size, acceptor.state_count,
                    symmetry)
        shape = whole_size(encode_dfa_shape, vm, rows=True)
        product = whole_size(encode_product, vm, acceptor)
        assert shape.tolist() == reference_shape(vm)
        assert product.tolist() == reference_product(vm, acceptor)


def largest_states(vm):
    """Each variable's largest candidate state, by id, from the accessors."""
    n, letters = vm.n, range(vm.alphabet_size)
    states = {vm.e(i, a, j): max(i, j)
              for i, a, j in itertools.product(range(n), letters, range(n))}
    for i in range(n):
        states[vm.f(i)] = i
        states.update((vm.d(p, i), i) for p in range(vm.acceptor_state_count))
    if vm.symmetry:
        for i, j in itertools.combinations(range(n), 2):
            states[vm.t(i, j)] = states[vm.p(j, i)] = j
            states.update((vm.m(i, a, j), j) for a in letters)
    return states


class TestBlockContract:
    @given(sample_sets(),
           st.sampled_from([build_apta, build_min_3dfa_incremental,
                            build_ddfa]),
           st.integers(1, 4), st.booleans(), st.booleans())
    @settings(max_examples=60)
    def test_each_encoder_appends_one_block(self, samples, builder, n,
                                            symmetry, safety):
        # every clause an encoder appends for block k has k as its largest
        # candidate state, and the seeds come at k = 0 only; each encoder
        # returns how many clauses it appended
        acceptor = builder(samples)
        vm = VarMap(n, acceptor.alphabet_size, acceptor.state_count,
                    symmetry)
        letters, states = range(vm.alphabet_size), largest_states(vm)
        seeds = [(vm.d(q0, 0),) for q0 in acceptor.initials]
        for k in range(n):
            product, others = array("i"), array("i")
            count = encode_product(vm, acceptor, product, k)
            assert count == product.count(0)
            count = encode_dfa_shape(vm, others, k)
            if symmetry:
                count += encode_symmetry_breaking(vm, others, k)
            assert count == others.count(0)
            product = split_clauses(product)
            assert (product[:len(seeds)] == seeds) == (k == 0)
            for clause in product + split_clauses(others):
                assert max(states[abs(lit)] for lit in clause) == k
        # past the safety shape's, the formula's clauses of positive e
        # literals are the n * K at-least-one rows of size n, each once
        if safety and (n < 2 or acceptor.alphabet_size < 2):
            return
        _, formula = build_formula(n, acceptor, symmetry=symmetry,
                                   safety=safety)
        # the whole formula, tail included, built fresh and grown from
        # n - 1, holds non-empty clauses, each closed by 0, over the ids
        # 1..variable_count only
        formulas = [formula]
        if n > (2 if safety else 1):
            base = build_formula(n - 1, acceptor, symmetry=symmetry,
                                 safety=safety)
            formulas.append(build_formula(n, acceptor, symmetry=symmetry,
                                          safety=safety, base=base)[1])
        for built in formulas:
            clauses = split_clauses(built.literals)
            assert all(clauses) and built.clause_count == len(clauses)
            assert {abs(lit) for clause in clauses for lit in clause} <= set(
                range(1, built.variable_count + 1))
        pairs = list(itertools.product(range(n), letters))
        e_ids = {vm.e(i, a, j) for i, a in pairs for j in range(n)}
        rows = Counter(c for c in split_clauses(formula.literals)
                       if set(c) <= e_ids)
        if safety:
            rows -= Counter(clauses_of(encode_parity_constraints, vm))
        assert rows == Counter(tuple(vm.e_row(i, a)) for i, a in pairs)


def seam_acceptor():
    """An APTA whose n = 8 product spans several default-sized blocks."""
    samples = gen_samples_from_dfa(gen_random_dfa(8, 2, 105), 400, 19,
                                   seed=105)
    return build_apta(samples)


class TestProductBlocks:
    @given(sample_sets(),
           st.sampled_from([build_apta, build_min_3dfa_incremental,
                            build_ddfa]),
           st.integers(1, 4), st.sampled_from([1, 5, 64]))
    @settings(max_examples=60)
    def test_block_seams_match_reference(self, samples, builder, n, chunk):
        # a chunk below 4n² literals makes blocks of one transition; the
        # others end most products on a partial block
        acceptor = builder(samples)
        vm = VarMap(n, acceptor.alphabet_size, acceptor.state_count, False)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(encoding, "_CHUNK", chunk)
            product = whole_size(encode_product, vm, acceptor)
        assert product.tolist() == reference_product(vm, acceptor)

    def test_default_blocks_match_reference(self):
        acceptor = seam_acceptor()
        vm = VarMap(8, 2, acceptor.state_count, False)
        per_block = encoding._CHUNK // (4 * 8 * 8)
        transitions = len(acceptor.transitions)
        assert transitions // per_block >= 3 and transitions % per_block
        product = whole_size(encode_product, vm, acceptor)
        assert product.tolist() == reference_product(vm, acceptor)

    def test_transient_memory_below_half_the_region(self):
        # Two designs were measured and rejected: filling the whole product
        # region at once (+7.6 MiB peak RSS on the in-process APTA (4,8)
        # mine) and blocks of 4,096 transitions whatever n is (random-search
        # peak RSS 22.2 -> 25.5 MiB).  Either holds a second copy of this
        # region; blocks of at most _CHUNK literals do not.
        acceptor = seam_acceptor()
        vm = VarMap(8, 2, acceptor.state_count, False)
        region = len(acceptor.transitions) * 4 * 8 * 8 * array("i").itemsize
        assert region >= 2_000_000
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            out = whole_size(encode_product, vm, acceptor)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - len(out) * out.itemsize < region / 2


def derived_symmetry_assignment(vm, table):
    """Values of e, t, p, m that the definitions force for one table."""
    n, k = vm.n, vm.alphabet_size
    assignment = {}
    for i in range(n):
        for a in range(k):
            for j in range(n):
                assignment[vm.e(i, a, j)] = table[(i, a)] == j
    for j in range(n):
        for i in range(j):
            t = any(table[(i, a)] == j for a in range(k))
            assignment[vm.t(i, j)] = t
            assignment[vm.p(j, i)] = t and not any(
                assignment[vm.t(kk, j)] for kk in range(i))
            for a in range(k):
                assignment[vm.m(i, a, j)] = table[(i, a)] == j and not any(
                    table[(i, b)] == j for b in range(a))
    return assignment


def swap_last_two(table, n, k):
    """Rename states by exchanging n-2 and n-1."""
    sigma = {q: q for q in range(n)}
    sigma[n - 2], sigma[n - 1] = n - 1, n - 2
    return {(sigma[q], a): sigma[r] for (q, a), r in table.items()}


def fully_reachable(table, n, k):
    seen = {0}
    frontier = [0]
    while frontier:
        q = frontier.pop()
        for a in range(k):
            r = table[(q, a)]
            if r not in seen:
                seen.add(r)
                frontier.append(r)
    return len(seen) == n


class TestSymmetryBreaking:
    def test_exhaustive_canonicity_n3_k2(self):
        # Every fully reachable table has exactly one accepted orientation
        # under the swap of states 1 and 2; partially reachable tables are
        # always rejected.  This pins the clause set as a canonical-form
        # filter, so adding it never changes satisfiability.
        n, k = 3, 2
        vm = VarMap(n, k, 1, True)
        clauses = split_clauses(whole_size(encode_symmetry_breaking, vm))
        keys = [(i, a) for i in range(n) for a in range(k)]
        accepted = set()
        reachable_tables = []
        for targets in itertools.product(range(n), repeat=len(keys)):
            table = dict(zip(keys, targets))
            assignment = derived_symmetry_assignment(vm, table)
            if all_satisfied(clauses, assignment):
                accepted.add(targets)
            if fully_reachable(table, n, k):
                reachable_tables.append(table)
        for table in reachable_tables:
            twin = swap_last_two(table, n, k)
            targets = tuple(table[key] for key in keys)
            twin_targets = tuple(twin[key] for key in keys)
            assert (targets in accepted) != (twin_targets in accepted)
        unreachable_accepted = [
            t for t in accepted
            if not fully_reachable(dict(zip(keys, t)), n, k)]
        assert unreachable_accepted == []
        assert len(accepted) == len(reachable_tables) // 2

    def test_requires_symmetry_vars(self):
        vm = VarMap(2, 1, 1, False)
        with pytest.raises(EncodingError):
            encode_symmetry_breaking(vm, array("i"), 0)

    def test_safety_filter_drops_sink_clauses(self):
        # With stable ids, size n's clauses without those over node n - 1
        # are size n - 1's: build_formula writes none in the sink's block.
        vm = VarMap(3, 2, 2, True)
        full = split_clauses(whole_size(encode_symmetry_breaking, vm))
        safe = split_clauses(whole_size(encode_symmetry_breaking,
                                        VarMap(2, 2, 2, True)))
        assert set(safe) < set(full)

        n, k, sink = vm.n, vm.alphabet_size, vm.n - 1
        # every variable of a clause here is an e, t, p or m over two nodes
        sink_vars = set()
        for i in range(n):
            for a in range(k):
                sink_vars.update((vm.e(i, a, sink), vm.e(sink, a, i)))
        for i in range(sink):
            sink_vars.update((vm.t(i, sink), vm.p(sink, i)))
            sink_vars.update(vm.m(i, a, sink) for a in range(k))

        def touches_sink(clause):
            return any(abs(lit) in sink_vars for lit in clause)

        expected = [c for c in full if not touches_sink(c)]
        assert safe == expected


class TestParityConstraints:
    def test_two_colours_n2(self):
        # highest colour 1 is odd: co-safety, initial state rejects
        vm = VarMap(2, 2, 1, True)
        clauses = clauses_of(encode_parity_constraints, vm)
        assert (vm.e(0, 1, 0),) in clauses          # odd colour loops on 0
        assert (-vm.e(0, 0, 0),) in clauses         # even colour must leave
        assert (-vm.e(0, 0, 1),) in clauses         # but no middle exists
        assert (vm.e(1, 0, 1),) in clauses          # sink absorbs
        assert (vm.e(1, 1, 1),) in clauses
        assert (-vm.f(0),) in clauses
        assert (vm.f(1),) in clauses

    def test_three_colours_middle_disjunction(self):
        # highest colour 2 is even: safety, non-sink states accept
        vm = VarMap(4, 3, 1, True)
        clauses = clauses_of(encode_parity_constraints, vm)
        assert (vm.e(0, 0, 0),) in clauses
        assert (vm.e(0, 2, 0),) in clauses
        assert (vm.e(0, 1, 1), vm.e(0, 1, 2)) in clauses
        assert (vm.e(1, 2, 0),) in clauses          # highest colour resets
        assert (-vm.e(1, 1, 1),) in clauses         # opponent never loops
        assert (-vm.e(2, 0, 3),) in clauses         # same parity avoids sink
        assert (vm.f(0),) in clauses
        assert (-vm.f(3),) in clauses

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("colours", [2, 3, 4, 5])
    def test_counts_its_clauses(self, n, colours):
        clauses_of(encode_parity_constraints, VarMap(n, colours, 1, True))

    def test_errors(self):
        with pytest.raises(EncodingError):
            encode_parity_constraints(VarMap(3, 1, 1, True), array("i"))
        with pytest.raises(EncodingError):
            encode_parity_constraints(VarMap(1, 2, 1, True), array("i"))


def parity_corpus_acceptor(parity_corpus, colours, length):
    samples = parity_corpus(colours, length)
    return build_min_3dfa_incremental(samples)


class TestBuildFormula:
    def test_frozen_sizes_for_smallest_corpus(self, parity_corpus):
        acceptor = parity_corpus_acceptor(parity_corpus, 2, 3)
        vm, formula = build_formula(3, acceptor)
        assert formula.variable_count == 57
        assert formula.clause_count == 173
        vm2, f2 = build_formula(2, acceptor)
        assert (f2.variable_count, f2.clause_count) == (30, 72)
        _, f_safe = build_formula(3, acceptor, safety=True)
        assert f_safe.clause_count == 94
        _, f2_safe = build_formula(2, acceptor, safety=True)
        assert f2_safe.clause_count == 39

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_clause_count_bounds(self, parity_corpus, n):
        acceptor = parity_corpus_acceptor(parity_corpus, 3, 4)
        k = acceptor.alphabet_size
        m = acceptor.state_count
        _, core = build_formula(n, acceptor, symmetry=False)
        assert core.clause_count <= 2 * (n ** 3 * k + n ** 2 * m * k)
        _, full = build_formula(n, acceptor, symmetry=True)
        sym_count = full.clause_count - core.clause_count
        assert sym_count <= 2 * (n ** 3 + n ** 2 * k ** 2)

    def test_dimacs_shape(self, parity_corpus):
        acceptor = parity_corpus_acceptor(parity_corpus, 2, 3)
        _, formula = build_formula(2, acceptor, symmetry=False)
        text = dimacs_text(formula)
        lines = text.splitlines()
        assert lines[0] == (
            f"p cnf {formula.variable_count} {formula.clause_count}")
        assert len(lines) == 1 + formula.clause_count
        assert all(ln.endswith(" 0") for ln in lines[1:])

    def test_growth_counts_in_place(self, parity_corpus):
        # One growth step of the (4,7) APTA safety formula, n = 4 to 5.
        # What it allocates and frees again stays below 1.5 times the bytes
        # by which the buffer grows: counting the appended clauses on a
        # slice copy of them read 2.2 times.
        acceptor = build_apta(parity_corpus(4, 7))
        base = build_formula(4, acceptor, safety=True)
        before = len(base[1].literals)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            _, formula = build_formula(5, acceptor, safety=True, base=base)
            after, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        grown = (len(formula.literals) - before) * formula.literals.itemsize
        assert grown > 500_000
        assert peak - after < 1.5 * grown


def model_from_dfa(dfa, acceptor, n, symmetry):
    """The model that an n-state DFA separating the acceptor's samples
    spells for build_formula(n, acceptor, symmetry)'s formula, as a table
    by variable.

    The DFA is numbered breadth first by canonical_form, and e and f are
    read off that numbering.  d(p, i) holds for exactly the product pairs
    reachable from the acceptor's initial states and candidate state 0.
    t, p and m follow the numbering: a state's tree parent is its
    smallest parent, and m marks the smallest letter of each edge from a
    smaller state.
    """
    dfa = canonical_form(dfa)
    assert dfa.state_count == n
    vm = VarMap(n, acceptor.alphabet_size, acceptor.state_count, symmetry)
    moves = sorted(dfa.transitions.items())
    true = {vm.e(i, a, j) for (i, a), j in moves}
    true.update(vm.f(i) for i in dfa.accepting)
    pairs = {(p, 0) for p in acceptor.initials}
    todo = list(pairs)
    while todo:
        p, i = todo.pop()
        for a in range(acceptor.alphabet_size):
            if (p, a) in acceptor.transitions:
                pair = (acceptor.transitions[p, a], dfa.transitions[i, a])
                if pair not in pairs:
                    pairs.add(pair)
                    todo.append(pair)
    true.update(vm.d(p, i) for p, i in pairs)
    if symmetry:
        parents = {}
        for (i, a), j in moves:  # i, then a, ascending
            if i < j and vm.t(i, j) not in true:
                true.update((vm.t(i, j), vm.m(i, a, j)))
                parents.setdefault(j, i)
        true.update(vm.p(j, i) for j, i in parents.items())
    model = bytearray([0] + [1] * vm.variable_count)
    for var in true:
        model[var] = 2
    return bytes(model)


def redirected_to_copy(dfa):
    """dfa with one state more and the same language: its first edge
    outside the breadth-first tree leads to a copy of the edge's target."""
    dfa = canonical_form(dfa)
    moves = sorted(dfa.transitions.items())
    tree = {}
    for key, j in moves:
        if j:
            tree.setdefault(j, key)
    (q, a), target = next((key, j) for key, j in moves if tree.get(j) != key)
    copy = dfa.state_count
    transitions = dict(dfa.transitions)
    transitions[q, a] = copy
    for b in range(dfa.alphabet_size):
        transitions[copy, b] = dfa.transitions[target, b]
    accepting = dfa.accepting | ({copy} if target in dfa.accepting else set())
    return ThreeValuedDFA(dfa.alphabet_size, copy + 1, (0,), transitions,
                          accepting, frozenset(range(copy + 1)) - accepting)


class TestCompleteness:
    # A separating DFA of n states is a model of the formula of size n, so
    # an unsat verdict at any n >= N is false when a hidden N-state DFA
    # labelled the samples.

    @given(st.integers(1, 6), st.integers(1, 3), st.integers(0, 2**16),
           st.data())
    @settings(max_examples=60)
    def test_hidden_dfa_spells_a_model(self, size, letters, seed, data):
        hidden = gen_random_dfa(size, letters, seed)
        max_len = data.draw(st.integers(0, 8))
        pool = sum(letters ** length for length in range(max_len + 1))
        count = data.draw(st.integers(0, min(30, pool)))
        samples = gen_samples_from_dfa(hidden, count, max_len, seed=seed)
        larger = redirected_to_copy(hidden)
        for mode, symmetry in itertools.product(
                ("apta", "min3dfa", "ddfa"), (False, True)):
            acceptor = acceptor_for(samples, mode)
            grown = build_formula(size, acceptor, symmetry=symmetry)
            assert grown[1].satisfied_by(
                model_from_dfa(hidden, acceptor, size, symmetry))
            _, formula = build_formula(size + 1, acceptor,
                                       symmetry=symmetry, base=grown)
            assert formula.satisfied_by(
                model_from_dfa(larger, acceptor, size + 1, symmetry))

    @pytest.mark.parametrize("symmetry", [False, True])
    def test_ten_state_row(self, symmetry):
        hidden = gen_random_dfa(10, 2, 1001)
        samples = gen_samples_from_dfa(hidden, 500, 23, seed=1001)
        acceptor = build_min_3dfa_incremental(samples)
        for dfa in (hidden, redirected_to_copy(hidden)):
            n = dfa.state_count
            _, formula = build_formula(n, acceptor, symmetry=symmetry)
            assert formula.satisfied_by(
                model_from_dfa(dfa, acceptor, n, symmetry))


class ParentVarMap:
    """The layout before ids were stable across sizes, as a reference: ids
    from 1 in the order all e, then f, then d (one row of n per acceptor
    state), then t, p and m."""

    def __init__(self, n, alphabet_size, acceptor_state_count, symmetry):
        self.n, self.alphabet_size = n, alphabet_size
        self.acceptor_state_count = acceptor_state_count
        self.symmetry = symmetry
        pairs = n * (n - 1) // 2
        self.base_f = n * alphabet_size * n
        self.base_d = self.base_f + n
        self.base_t = self.base_d + acceptor_state_count * n
        self.base_p = self.base_t + pairs
        self.base_m = self.base_p + pairs
        self.variable_count = (self.base_m + pairs * alphabet_size
                               if symmetry else self.base_t)

    def e(self, i, a, j):
        return 1 + (i * self.alphabet_size + a) * self.n + j

    def f(self, i):
        return 1 + self.base_f + i

    def d(self, p, i):
        return 1 + self.base_d + p * self.n + i

    def t(self, i, j):
        return 1 + self.base_t + j * (j - 1) // 2 + i

    def p(self, child, parent):
        return 1 + self.base_p + child * (child - 1) // 2 + parent

    def m(self, i, a, j):
        return (1 + self.base_m + (j * (j - 1) // 2 + i) * self.alphabet_size
                + a)


def parent_shape(vm):
    n, out = vm.n, []
    for i in range(n):
        for a in range(vm.alphabet_size):
            for j in range(n):
                for jj in range(j + 1, n):
                    out += (-vm.e(i, a, j), -vm.e(i, a, jj), 0)
            out += [vm.e(i, a, j) for j in range(n)] + [0]
    return out


def parent_product(vm, acceptor):
    n, out = vm.n, []
    for q0 in acceptor.initials:
        out += (vm.d(q0, 0), 0)
    for states, sign in ((acceptor.accepting, 1), (acceptor.rejecting, -1)):
        for p in sorted(states):
            for i in range(n):
                out += (-vm.d(p, i), sign * vm.f(i), 0)
    for (p, a), r in acceptor.transitions.items():
        for i in range(n):
            for j in range(n):
                out += (-vm.d(p, i), -vm.e(i, a, j), vm.d(r, j), 0)
    return out


def parent_symmetry(vm, safety_mode):
    k, out = vm.alphabet_size, []
    nodes = vm.n - 1 if safety_mode else vm.n

    def emit(*lits):
        out.extend(lits + (0,))

    for j in range(nodes):
        for i in range(j):
            emit(-vm.p(j, i), vm.t(i, j))
            for kk in range(i):
                emit(-vm.p(j, i), -vm.t(kk, j))
            emit(vm.p(j, i), -vm.t(i, j), *[vm.t(kk, j) for kk in range(i)])
            emit(-vm.t(i, j), *[vm.e(i, a, j) for a in range(k)])
            for a in range(k):
                emit(vm.t(i, j), -vm.e(i, a, j))
            for a in range(k):
                emit(-vm.m(i, a, j), vm.e(i, a, j))
                for b in range(a):
                    emit(-vm.m(i, a, j), -vm.e(i, b, j))
                emit(vm.m(i, a, j), -vm.e(i, a, j),
                     *[vm.e(i, b, j) for b in range(a)])
            if j + 1 < nodes:
                for b in range(k):
                    for a in range(b):
                        emit(-vm.p(j, i), -vm.p(j + 1, i),
                             -vm.m(i, b, j), -vm.m(i, a, j + 1))
                for kk in range(i):
                    emit(-vm.p(j, i), -vm.p(j + 1, kk))
    for child in range(1, nodes):
        emit(*[vm.p(child, parent) for parent in range(child)])
    return out


def parent_formula(n, acceptor, symmetry, safety):
    """(variable count, literals) of the formula before ids were stable
    across sizes: shape, product, symmetry and safety clauses in turn."""
    vm = ParentVarMap(n, acceptor.alphabet_size, acceptor.state_count,
                      symmetry)
    literals = parent_shape(vm) + parent_product(vm, acceptor)
    if symmetry:
        literals += parent_symmetry(vm, safety)
    if safety:
        # encode_parity_constraints reads only vm.n, alphabet_size, e and f
        literals += clauses_literals(encode_parity_constraints, vm)
    return vm, literals


def clauses_literals(encoder, *args):
    out = array("i")
    encoder(*args, out)
    return out.tolist()


def shape_units(n, colours):
    """What the safety shape's unit clauses fix at size n, closed under
    determinism, by variable name: ("e", i, a, j) or ("f", i)."""
    vm = ParentVarMap(n, colours, 1, False)
    names = {vm.f(i): ("f", i) for i in range(n)}
    for i, a, j in itertools.product(range(n), range(colours), range(n)):
        names[vm.e(i, a, j)] = ("e", i, a, j)
    fixed = {}
    for clause in clause_multiset(
            clauses_literals(encode_parity_constraints, vm)):
        if len(clause) == 1:
            fixed[names[abs(clause[0])]] = clause[0] > 0
    for i, a in itertools.product(range(n), range(colours)):
        row = [("e", i, a, j) for j in range(n)]
        if any(fixed.get(name) for name in row):
            for name in row:
                fixed.setdefault(name, False)
    return fixed


def prune(literals, fixed):
    """Clause by clause: drop those with a literal fixed true, and from the
    others every literal fixed false."""
    out, clause = [], []
    for lit in literals:
        if lit:
            clause.append(lit)
            continue
        if not any(fixed.get(abs(x)) == (x > 0) for x in clause):
            out += [x for x in clause if abs(x) not in fixed] + [0]
        clause = []
    return out


def pruned_parent_formula(n, acceptor, symmetry):
    """parent_formula in safety mode, with its product clauses pruned by
    the shape's fixed values: all of them on the sink's variables, and on
    the others those that size n + 1 fixes alike."""
    vm, literals = parent_formula(n, acceptor, symmetry, True)
    colours, sink = acceptor.alphabet_size, n - 1
    now, larger = shape_units(n, colours), shape_units(n + 1, colours)
    ids = {("f", i): vm.f(i) for i in range(n)}
    for i, a, j in itertools.product(range(n), range(colours), range(n)):
        ids[("e", i, a, j)] = vm.e(i, a, j)
    fixed = {ids[name]: value for name, value in now.items()
             if sink in name[1::2] or larger.get(name) == value}
    product = parent_product(vm, acceptor)
    start = len(parent_shape(vm))
    assert literals[start:start + len(product)] == product
    literals[start:start + len(product)] = prune(product, fixed)
    return vm, literals


def renaming(old, new):
    """Parent id -> stable id, accessor by accessor."""
    n, k = new.n, new.alphabet_size
    ids = {}
    for i, a, j in itertools.product(range(n), range(k), range(n)):
        ids[old.e(i, a, j)] = new.e(i, a, j)
    for i in range(n):
        ids[old.f(i)] = new.f(i)
        for p in range(new.acceptor_state_count):
            ids[old.d(p, i)] = new.d(p, i)
    if new.symmetry:
        for j in range(n):
            for i in range(j):
                ids[old.t(i, j)] = new.t(i, j)
                ids[old.p(j, i)] = new.p(j, i)
                for a in range(k):
                    ids[old.m(i, a, j)] = new.m(i, a, j)
    assert sorted(ids) == list(range(1, old.variable_count + 1))
    return ids


def clause_multiset(literals, rename=None):
    clauses, clause = Counter(), []
    for lit in literals:
        if lit == 0:
            clauses[tuple(clause)] += 1
            clause = []
        elif rename is None:
            clause.append(lit)
        else:
            clause.append(rename[lit] if lit > 0 else -rename[-lit])
    return clauses


# (colours, length) of each parity corpus the layout tests use
LAYOUT_PARITY = {"parity": (3, 4), "parity23": (2, 3), "parity35": (3, 5)}


def layout_acceptor(corpus, mode, parity_corpus):
    samples = (parity_corpus(*LAYOUT_PARITY[corpus]) if corpus != "random"
               else gen_samples_from_dfa(gen_random_dfa(3, 2, 7), 40, 7,
                                         seed=7))
    return acceptor_for(samples, mode)


LAYOUT_CASES = [(corpus, mode, safety, symmetry)
                for corpus in ("parity", "random")
                for mode in ("apta", "min3dfa", "ddfa")
                for safety in (False, True)
                for symmetry in (False, True)]
LAYOUT_CASES += [(corpus, mode, True, symmetry)
                 for corpus in ("parity23", "parity35")
                 for mode in ("apta", "min3dfa", "ddfa")
                 for symmetry in (False, True)]


# sha256 of the DIMACS text the parent layout gave for each GOLDEN_DIMACS
# key: parent_formula must reproduce it, which pins it as the parent's
# formula, id for id and clause for clause.
PARENT_DIMACS = {
    ('parity', 'apta', 2, True):
        "d99582ea2d4529e268109cbd9660e7e6c2432d6e6f32b48af82d4147082c4701",
    ('parity', 'apta', 3, True):
        "fba9b57cfb9be0ae2630076811bee4f109e842607994b16321133501c60c6125",
    ('random', 'apta', 3, True):
        "1ca57f0114f80fe99e65b075c63df6e970c5fb0ffab0c3aa9c908aa94fe4a49f",
    ('random', 'apta', 3, False):
        "5fa81eb28d7493b1ecf0a7a121b40826b75134da74f67eb8ae187abcee654f99",
    ('random', 'apta', 4, True):
        "d12ed6fb14f23dfb27e737c009a4df8b7b93683c61ede9f4d19061d1a7e6e3f8",
    ('random', 'apta', 4, False):
        "75f59b7f41461c86ee35df276cd141aa7c69546bd4ea8013964b43a6ca0ad1b8",
    ('parity', 'min3dfa', 2, True):
        "0af797711884ebf57d517ae75f6e4068145f45031635e721d590a9297cbe4711",
    ('parity', 'min3dfa', 3, True):
        "847c49a68150f035cc332ee95d87b1cfe71f0b647ffad334be69649707be629c",
    ('random', 'min3dfa', 3, True):
        "b027ed6ae5879f0e3c67bb2b8e343743ee4a0031fa3f18c74ffe4f8f734fd785",
    ('random', 'min3dfa', 3, False):
        "ae082806a5b5c20a7226a1628f6eebd2abc5ffef1ed4e65ca4835a13e2b40ea6",
    ('random', 'min3dfa', 4, True):
        "4f1d76ccc5cc0d252971363cb67d2c80e9d4081396e42b5ec1779021421928ae",
    ('random', 'min3dfa', 4, False):
        "bf7c1493e001fea1571fb3155fe01d5230fac40c3fc54383210ac7636be08e8d",
    ('parity', 'ddfa', 2, True):
        "bab47d565b4245bcbfa1fd49881fa711448acb378ab1bee111e31c095b09f22f",
    ('parity', 'ddfa', 3, True):
        "4323d79ccc62fecb3d726177f8f33280581f9bd6f056f78c2f1f21751f7a1589",
    ('random', 'ddfa', 3, True):
        "1f88e0b70ab963577b10db1db60f484948abb1ebdbee2b7a8017efc4e66d0f5e",
    ('random', 'ddfa', 3, False):
        "1f7859aa137194a8566f7e4f3fe9b27225a78c352514adcb5141bd713f363bc4",
    ('random', 'ddfa', 4, True):
        "8cb66bbfb62402d363f1493c11360f9c50716a7b6de962673bc3e2b1d114241c",
    ('random', 'ddfa', 4, False):
        "0409ddaa41c11feae4254aed3ea69bccd3acf68734350169b0d6f32f09365d7c",
    ('random', 'apta', 8, True):
        "267ae93de9f75ab82ac67ded1643be2a65dc5306dfcf66425217fef986e30b4e",
}


def parent_dimacs(n, acceptor, symmetry, safety):
    vm, literals = parent_formula(n, acceptor, symmetry, safety)
    lines, clause = [f"p cnf {vm.variable_count} {literals.count(0)}"], []
    for lit in literals:
        clause.append(str(lit))
        if lit == 0:
            lines.append(" ".join(clause))
            clause = []
    return "\n".join(lines) + "\n"


class TestStableLayout:
    @pytest.mark.parametrize("corpus,mode,n,symmetry", sorted(PARENT_DIMACS))
    def test_parent_reference_is_exact(self, parity_corpus, corpus, mode, n,
                                       symmetry):
        samples = (parity_corpus(3, 5) if corpus == "parity"
                   else random_corpus())
        text = parent_dimacs(n, acceptor_for(samples, mode), symmetry,
                             corpus == "parity")
        assert (hashlib.sha256(text.encode()).hexdigest()
                == PARENT_DIMACS[(corpus, mode, n, symmetry)])

    @pytest.mark.parametrize("corpus,mode,safety,symmetry", LAYOUT_CASES)
    def test_matches_parent_formula(self, parity_corpus, corpus, mode,
                                    safety, symmetry):
        # every size's formula is the parent's up to a renaming of the
        # variables and an order of the clauses; with safety, after its
        # product clauses are pruned by the shape's fixed values
        acceptor = layout_acceptor(corpus, mode, parity_corpus)
        for n in range(2 if safety else 1, 6):
            vm, formula = build_formula(n, acceptor, symmetry=symmetry,
                                        safety=safety)
            old, literals = (pruned_parent_formula(n, acceptor, symmetry)
                             if safety else
                             parent_formula(n, acceptor, symmetry, False))
            assert formula.variable_count == old.variable_count
            assert formula.clause_count == literals.count(0)
            assert (clause_multiset(formula.literals)
                    == clause_multiset(literals, renaming(old, vm)))

    @pytest.mark.parametrize("corpus,mode,safety,symmetry", LAYOUT_CASES)
    def test_growing_appends_only(self, parity_corpus, corpus, mode, safety,
                                  symmetry):
        # growing leaves the buffer as it was up to the tail, and gives the
        # formula built from nothing
        acceptor = layout_acceptor(corpus, mode, parity_corpus)
        grown = build_formula(2, acceptor, symmetry=symmetry, safety=safety)
        for n in range(3, 6):
            kept = grown[1].literals[:grown[1].stable]
            grown = build_formula(n, acceptor, symmetry=symmetry,
                                  safety=safety, base=grown)
            _, fresh = build_formula(n, acceptor, symmetry=symmetry,
                                     safety=safety)
            formula = grown[1]
            assert formula.literals[:len(kept)] == kept
            assert formula.stable > len(kept)
            assert formula.literals == fresh.literals
            assert formula.stable == fresh.stable
            assert formula.clause_count == fresh.clause_count
            assert formula.clause_count == formula.literals.count(0)
            assert dimacs_text(formula) == dimacs_text(fresh)

    def test_growing_refuses_other_sizes_and_layouts(self, parity_corpus):
        acceptor = layout_acceptor("random", "apta", parity_corpus)
        base = build_formula(3, acceptor)
        for n, symmetry in ((3, True), (2, True), (4, False)):
            with pytest.raises(EncodingError, match="larger size"):
                build_formula(n, acceptor, symmetry=symmetry, base=base)
        # the safety flag and the alphabet must match too
        acceptor = layout_acceptor("parity35", "min3dfa", parity_corpus)
        wider = ThreeValuedDFA(
            acceptor.alphabet_size + 1, acceptor.state_count,
            acceptor.initials, acceptor.transitions, acceptor.accepting,
            acceptor.rejecting)
        for safety in (False, True):
            base = build_formula(2, acceptor, safety=not safety)
            with pytest.raises(EncodingError, match="larger size"):
                build_formula(4, acceptor, safety=safety, base=base)
            base = build_formula(2, acceptor, safety=safety)
            with pytest.raises(EncodingError, match="larger size"):
                build_formula(4, wider, safety=safety, base=base)


def shaped_dfas(n, colours):
    """(transitions, accepting) of every n-state DFA of the shape that
    encode_parity_constraints' docstring states."""
    sink, highest = n - 1, colours - 1
    targets = {}
    for i, a in itertools.product(range(n), range(colours)):
        if i == sink:
            targets[i, a] = [sink]
        elif a == highest or (i == 0 and a % 2 == highest % 2):
            targets[i, a] = [0]
        elif a % 2 == highest % 2:
            targets[i, a] = range(sink)
        elif i == 0:
            targets[i, a] = range(1, sink)
        else:
            targets[i, a] = [j for j in range(n) if j != i]
    accepting = frozenset(range(sink) if highest % 2 == 0 else [sink])
    for choice in itertools.product(*targets.values()):
        yield dict(zip(targets, choice)), accepting


def separates(transitions, accepting, samples):
    for words, label in ((samples.positives, True),
                         (samples.negatives, False)):
        for word in words:
            q = 0
            for a in word:
                q = transitions[q, a]
            if (q in accepting) != label:
                return False
    return True


@st.composite
def colour_sets(draw):
    colours = draw(st.integers(2, 3))
    words = st.lists(st.integers(0, colours - 1), max_size=5).map(tuple)
    positives = draw(st.sets(words, max_size=6))
    negatives = draw(st.sets(words, max_size=6))
    return SampleSet(colours, positives, negatives - positives)


def non_sink_reachable(transitions, n):
    """Whether state 0 reaches every state below the sink n - 1."""
    seen, todo = {0}, [0]
    while todo:
        q = todo.pop()
        for (p, _), r in transitions.items():
            if p == q and r not in seen:
                seen.add(r)
                todo.append(r)
    return seen >= set(range(n - 1))


class TestSafetyVerdicts:
    @given(colour_sets(),
           st.sampled_from([build_apta, build_min_3dfa_incremental,
                            build_ddfa]))
    @settings(max_examples=40)
    def test_match_shaped_enumeration(self, solver_cmd, samples, builder):
        # The pruned formula of each size is satisfiable exactly when some
        # DFA of the safety shape separates the samples, and its models
        # decode to such a DFA.  Symmetry breaking numbers the states below
        # the sink breadth first, so it also needs them all reachable; the
        # smallest separator has them all reachable, or a smaller size
        # would do, so the minimum is the same either way.
        acceptor = builder(samples)
        colours = samples.alphabet_size
        for n in (2, 3, 4):
            shaped = [(transitions, accepting)
                      for transitions, accepting in shaped_dfas(n, colours)
                      if separates(transitions, accepting, samples)]
            for symmetry in (False, True):
                expected = [(transitions, accepting)
                            for transitions, accepting in shaped
                            if not symmetry
                            or non_sink_reachable(transitions, n)]
                vm, formula = build_formula(n, acceptor, symmetry=symmetry,
                                            safety=True)
                verdict = solve(formula, solver_cmd)
                assert verdict.outcome == ("sat" if expected else "unsat")
                if expected:
                    dfa = decode_model(verdict.model, vm)
                    assert (dict(dfa.transitions), dfa.accepting) in expected

    # At n = 2 an opponent colour must leave state 0 for a middle state,
    # and there is none: no safety formula of size 2 has a model, whatever
    # the samples, so a search could start at 3.
    @pytest.mark.parametrize("row", [(2, 3), (3, 5), (4, 7)])
    def test_two_states_unsat_on_parity_rows(self, solver_cmd, parity_corpus,
                                             row):
        self.assert_two_states_unsat(parity_corpus(*row), solver_cmd)

    @given(colour_sets())
    @settings(max_examples=8)
    def test_two_states_unsat_on_random_corpora(self, solver_cmd, samples):
        self.assert_two_states_unsat(samples, solver_cmd)

    @staticmethod
    def assert_two_states_unsat(samples, solver_cmd):
        for mode, symmetry in itertools.product(
                ("apta", "min3dfa", "ddfa"), (False, True)):
            _, formula = build_formula(2, acceptor_for(samples, mode),
                                       symmetry=symmetry, safety=True)
            assert solve(formula, solver_cmd).outcome == "unsat"


# sha256 of the DIMACS text per (corpus, mode, n, symmetry breaking).  The
# parity corpus is (3, 5) with the safety shape; the random one holds 200
# words up to length 11 labelled by gen_random_dfa(4, 2, 101).  Any change
# to variable numbering or clause order shows up here.
GOLDEN_DIMACS = {
    ("parity", "apta", 2, True): "516b0c5b2d1c403d8867d2805b70651d29652302c31b9cffd22ccca51e61570d",
    ("parity", "apta", 3, True): "3e5c595dd97653384cd1de51bcd4a186ea8edb9a7609f8d8efa05b5a9eabbb1c",
    ("random", "apta", 3, True): "b23c790d52192dcde5d947c82117579aa6f498298335a26bd81369107f709cd5",
    ("random", "apta", 3, False): "4baf41c2b3e707c54cf6e5af4317bc3cd9e85337f21f6ca1318d8e75477c3c62",
    ("random", "apta", 4, True): "547ed5324c1a5737da1723f07b34e40c1b9eed44e585836f37b36290c60e0410",
    ("random", "apta", 4, False): "fa129ba0a600dafc2c177d94f26854c72d133e482300be6042a6bddc10d97f18",
    ("parity", "min3dfa", 2, True): "61b665716a2e12254da1bba9c55093e49f0abfd2f24c70e27eada06a94388fd7",
    ("parity", "min3dfa", 3, True): "c31f1fa50d2744c1b2c81defd6a7db43b6a7a9e2e88cdffa3213a247dc176fb0",
    ("random", "min3dfa", 3, True): "09a3c51b36dafb209a836be57b9397cea9c637b35e70028da6a803fdaec199ee",
    ("random", "min3dfa", 3, False): "a3d30ad1c84d4678d52b223477f290285def86de3310c10d7655565f4343d479",
    ("random", "min3dfa", 4, True): "1e3397fcd7dca02fe7631f05718fc34d8f0a5804992dc49a245358a8b6ce8046",
    ("random", "min3dfa", 4, False): "a08dc04c946e46568dc80e19e6bb51a6d4f6be54ead5da6e4dbdf5ef68d38784",
    ("parity", "ddfa", 2, True): "1f34138875622d1b03c01d75500769b7c610dee3d5195197b637aab2ab36ccff",
    ("parity", "ddfa", 3, True): "787afb0eb9e6deec297fbe7a1a8e68d6716c0510c4fb6af1a16727c81a5c2bb8",
    ("random", "ddfa", 3, True): "73c1b9c17f2fea31a50d482ff30761130155b1f829b73813a43db55ae0cb72bf",
    ("random", "ddfa", 3, False): "252b52aea148ee2af5f3de9aa7f29236d2df96045583a3dfcd82b2ad4f003269",
    ("random", "ddfa", 4, True): "311939cc280705f30611d2e5dfb6f904e7e20a25729a3952129d3b10b3b69ac3",
    ("random", "ddfa", 4, False): "0cd13d4b23f70e68c69b38645b1e2ffeabd49563e5ee6dbe0f48a1761bf42bae",
    # 256 literals per transition's product block
    ("random", "apta", 8, True): "25e3b2eed0630df295bd890859579446892ba24f2843a9355741878ff91e0f2b",
}


def acceptor_for(samples, mode):
    if mode == "apta":
        return build_apta(samples)
    if mode == "min3dfa":
        return build_min_3dfa_incremental(samples)
    return build_ddfa(samples)


def random_corpus():
    return gen_samples_from_dfa(gen_random_dfa(4, 2, 101), 200, 11, seed=101)


def golden_formula(parity_corpus, corpus, mode, n, symmetry):
    samples = parity_corpus(3, 5) if corpus == "parity" else random_corpus()
    _, formula = build_formula(n, acceptor_for(samples, mode),
                               symmetry=symmetry, safety=corpus == "parity")
    return formula


class TestGoldenDimacs:
    @pytest.mark.parametrize("corpus,mode,n,symmetry", sorted(GOLDEN_DIMACS))
    def test_bytes_unchanged(self, parity_corpus, corpus, mode, n, symmetry):
        formula = golden_formula(parity_corpus, corpus, mode, n, symmetry)
        digest = hashlib.sha256(dimacs_text(formula).encode()).hexdigest()
        assert digest == GOLDEN_DIMACS[(corpus, mode, n, symmetry)]

    def test_solver_file_matches(self, parity_corpus, fake_solver, tmp_path,
                                 monkeypatch):
        # the temp file a solver reads holds the golden bytes; small chunks
        # put hundreds of chunk seams into it
        monkeypatch.setattr(encoding, "_CHUNK", 100)
        key = ("random", "apta", 4, True)
        formula = golden_formula(parity_corpus, *key)
        copy = tmp_path / "seen.cnf"
        script = fake_solver(
            f'cp "$1" "{copy}"\necho "s UNSATISFIABLE"\nexit 20\n')
        assert solve(formula, [script]).outcome == "unsat"
        seen = copy.read_bytes()
        assert seen == dimacs_text(formula).encode()
        assert hashlib.sha256(seen).hexdigest() == GOLDEN_DIMACS[key]
        # A mine grows one formula over n = 2..4 and copies the formula's
        # text of its stable part, with a seam where the formatted tail
        # begins: every file equals the formula of that size built from
        # nothing on the acceptor the mine handed to build_formula.  That
        # is the prefix tree of the 50 shortest words; once the subset is
        # every sample, the golden formulas.
        samples = random_corpus()
        shortest = sorted(samples.entries(), key=lambda e: (len(e[0]), e[0]))
        first = [w for w, _ in shortest[:mining._FIRST_WORDS]]
        subset = SampleSet(2, samples.positives & set(first),
                           samples.negatives & set(first))
        for whole in (False, True):
            if whole:
                monkeypatch.setattr(mining, "_FIRST_WORDS", samples.size)
            handed = []

            def seen_by(n, acceptor, **kwargs):
                handed.append((n, acceptor))
                return build_formula(n, acceptor, **kwargs)

            monkeypatch.setattr(mining, "build_formula", seen_by)
            copies = tmp_path / f"copies-{whole}"
            copies.mkdir()
            script = fake_solver(
                f'cp "$1" "{copies}/$(ls "{copies}" | wc -l | tr -d " ").cnf"'
                f'\necho "s UNSATISFIABLE"\nexit 20\n', name=f"copier{whole}")
            with pytest.raises(NoSeparatorError):
                mine_min_dfa(samples, "apta", solver_command=[script],
                             n_start=2, n_max=4)
            assert [n for n, _ in handed] == [2, 3, 4]
            for index, (n, acceptor) in enumerate(handed):
                assert acceptor == build_apta(samples if whole else subset)
                seen = (copies / f"{index}.cnf").read_bytes()
                _, formula = build_formula(n, acceptor)
                assert formula.stable > 0
                assert seen == dimacs_text(formula).encode()
                if whole:
                    assert seen == dimacs_text(golden_formula(
                        parity_corpus, "random", "apta", n, True)).encode()
        assert hashlib.sha256(seen).hexdigest() == GOLDEN_DIMACS[key]


class TestCnfFormula:
    def test_valid(self):
        formula = CnfFormula(2, array("i", (1, -2, 0, 2, 0)))
        assert formula.clause_count == 2
        assert CnfFormula(0, array("i")).clause_count == 0
        # 65536 is in range, and its zero low bytes do not close a clause
        assert CnfFormula(65536, array("i", (5, 0, 65536, 0))).clause_count == 2

    @pytest.mark.parametrize("count,literals", [
        (-1, ()),                  # negative variable count
        (2, (0, 1, 0)),            # leading empty clause
        (2, (1, 0, 0, 2, 0)),      # empty clause between two others
        (2, (1, 3, 0)),            # literal beyond +variable_count
        (2, (-3, 1, 0)),           # literal beyond -variable_count
        (2, (1, 0, 2)),            # last clause not closed
    ])
    def test_rejected(self, count, literals):
        with pytest.raises(EncodingError):
            CnfFormula(count, array("i", literals))

    def test_dimacs_of_empty_formula(self):
        assert dimacs_text(CnfFormula(3, array("i"))) == "p cnf 3 0\n"

    def test_stable_part_ends_on_a_clause_end(self):
        literals = array("i", (1, -2, 0, 2, 0))
        assert CnfFormula(2, literals, stable=3).stable == 3
        for stable in (-1, 2, 6):
            with pytest.raises(EncodingError, match="clause end"):
                CnfFormula(2, literals, stable)

    def test_cache_restarts_after_a_failed_write(self, parity_corpus,
                                                 monkeypatch):
        # the formula's own text of its stable part, which a write to it
        # left half-extended after growth, is formatted again in full
        acceptor = layout_acceptor("random", "min3dfa", parity_corpus)
        grown = build_formula(3, acceptor)
        formula = grown[1]
        write = encoding._write_clauses

        def failing(lits, start, stop, handle):
            handle.write(b"1 -2 ")
            raise OSError("no space left")

        try:
            assert dimacs_text(formula) == plain_dimacs(formula)
            assert build_formula(4, acceptor, base=grown)[1] is formula
            monkeypatch.setattr(encoding, "_write_clauses", failing)
            with pytest.raises(OSError):
                dimacs_text(formula)
            monkeypatch.setattr(encoding, "_write_clauses", write)
            assert dimacs_text(formula) == plain_dimacs(formula)
        finally:
            formula.close()

    def test_dropped_formula_frees_its_text(self, parity_corpus):
        # a grown formula dropped without close() closes its text file:
        # an unclosed file would be a ResourceWarning, an error here
        acceptor = layout_acceptor("random", "min3dfa", parity_corpus)
        _, formula = build_formula(3, acceptor,
                                   base=build_formula(2, acceptor))
        dimacs_text(formula)
        text = weakref.ref(formula._text)
        del formula
        gc.collect()
        assert text() is None


def model_table(values):
    """A model table for the truth values of variables 1, 2, ..."""
    return bytes([0] + [2 if value else 1 for value in values])


@st.composite
def clause_lists(draw, variables, min_size=1, max_size=12):
    literal = st.integers(1, variables).flatmap(
        lambda var: st.sampled_from([var, -var]))
    return draw(st.lists(st.lists(literal, min_size=1, max_size=4),
                         min_size=min_size, max_size=max_size))


def formula_of(variables, clauses):
    return CnfFormula(variables, array(
        "i", [lit for clause in clauses for lit in (*clause, 0)]))


class TestModelCheck:
    @given(st.data(), st.integers(1, 8))
    def test_matches_clause_by_clause(self, data, chunk):
        # a chunk of a few literals puts a seam after nearly every clause
        variables = data.draw(st.integers(1, 6))
        clauses = data.draw(clause_lists(variables))
        values = data.draw(st.lists(st.booleans(), min_size=variables,
                                    max_size=variables))
        formula = formula_of(variables, clauses)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(encoding, "_CHUNK", chunk)
            found = formula.satisfied_by(model_table(values))
        assert found == all_satisfied(clauses, dict(enumerate(values, 1)))

    @given(st.data(), st.sampled_from(["before", "across", "after"]))
    @settings(max_examples=20, deadline=None)
    def test_one_false_clause_at_the_first_seam(self, data, where):
        # More than _CHUNK literals of true clauses, and one false clause:
        # the one before the clause that ends the first chunk, that clause
        # itself (it holds literal _CHUNK - 1 and may reach past it), or the
        # first clause of the second chunk.
        variables = data.draw(st.integers(2, 40))
        values = data.draw(st.lists(st.booleans(), min_size=variables,
                                    max_size=variables))
        rng = random.Random(data.draw(st.integers(0, 2**32)))
        true_literal = [var if value else -var
                        for var, value in enumerate(values, 1)]
        pattern = []
        for _ in range(rng.randint(1, 30)):
            clause = [rng.choice(true_literal)] + [
                rng.choice([var, -var]) for var in
                rng.sample(range(1, variables + 1), rng.randint(0, 2))]
            rng.shuffle(clause)
            pattern.append(clause)
        width = sum(len(clause) + 1 for clause in pattern)
        clauses = pattern * (encoding._CHUNK // width + 2)
        ends = list(itertools.accumulate(len(c) + 1 for c in clauses))
        seam = bisect.bisect_left(ends, encoding._CHUNK)  # ends chunk 1
        at = {"before": seam - 1, "across": seam, "after": seam + 1}[where]
        clauses[at] = [-lit for lit in
                       rng.sample(true_literal, min(3, variables))]
        formula = formula_of(variables, clauses)
        expected = all_satisfied(clauses, dict(enumerate(values, 1)))
        assert not expected
        assert formula.satisfied_by(model_table(values)) == expected
        del clauses[at]
        assert formula_of(variables, clauses).satisfied_by(
            model_table(values))

    def test_check_builds_one_table(self, solver_cmd, parity_corpus):
        # One check of the (4,7) APTA safety model at n = 5, which holds.
        # What it allocates and frees again stays below its table of 2V + 1
        # bytes, one more model's worth and two bytes per literal of one
        # chunk: building the table from five temporaries of the model's
        # size, and gathering from a copy of each chunk, read 10.6 V.
        acceptor = build_apta(parity_corpus(4, 7))
        _, formula = build_formula(5, acceptor, safety=True)
        model = solve(formula, solver_cmd).model
        variables = formula.variable_count
        assert variables > 50_000
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            assert formula.satisfied_by(model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - before < 3 * variables + 2 * encoding._CHUNK

    @pytest.mark.parametrize("model", [b"\0\2", b"\0\2\0", b"\0\2\3",
                                       b"\0\1\xff"])
    def test_model_must_assign_every_variable(self, model):
        formula = CnfFormula(2, array("i", (1, 2, 0)))
        with pytest.raises(EncodingError,
                           match="does not assign every variable"):
            formula.satisfied_by(model)


class TestDecodeModel:
    def make_model(self, vm, table, accepting):
        model = bytearray([0] + [1] * vm.variable_count)  # all false
        for (i, a), j in table.items():
            model[vm.e(i, a, j)] = 2
        for i in accepting:
            model[vm.f(i)] = 2
        return model

    def test_round_trip(self):
        vm = VarMap(2, 2, 1, False)
        table = {(0, 0): 1, (0, 1): 0, (1, 0): 1, (1, 1): 0}
        dfa = decode_model(bytes(self.make_model(vm, table, {1})), vm)
        assert dfa.transitions == table
        assert dfa.accepting == frozenset({1})

    def test_multiple_targets_rejected(self):
        vm = VarMap(2, 1, 1, False)
        model = self.make_model(vm, {(0, 0): 0, (1, 0): 0}, set())
        model[vm.e(0, 0, 1)] = 2
        with pytest.raises(EncodingError):
            decode_model(model, vm)

    def test_missing_variable_rejected(self):
        vm = VarMap(2, 1, 1, False)
        model = self.make_model(vm, {(0, 0): 0, (1, 0): 0}, set())
        model[vm.e(1, 0, 0)] = 0
        with pytest.raises(EncodingError, match="misses variable"):
            decode_model(model, vm)
        with pytest.raises(EncodingError, match="misses variable"):
            decode_model(model[:vm.f(1)], vm)  # no byte for f(1)
