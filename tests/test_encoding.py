"""Variable layout, clause generation, and symmetry-breaking canonicity."""

import hashlib
import io
import itertools
from array import array

import pytest

from sepdfa import encoding
from sepdfa.automata import build_apta, build_ddfa, build_min_3dfa_incremental
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
from sepdfa.samples import SampleSet
from sepdfa.solver import solve


def clauses_of(encoder, *args, **kwargs):
    """Run one encoder into a fresh buffer and split it into clause tuples."""
    literals = array("i")
    encoder(*args, literals, **kwargs)
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
    handle = io.StringIO()
    emit_dimacs(formula, handle)
    return handle.getvalue()


def clause_satisfied(clause, assignment):
    return any(assignment[abs(lit)] == (lit > 0) for lit in clause)


def all_satisfied(clauses, assignment):
    return all(clause_satisfied(c, assignment) for c in clauses)


class TestVarMap:
    @pytest.mark.parametrize("n,k,m,sym", [
        (1, 1, 1, False), (2, 2, 3, False), (3, 2, 5, True),
        (4, 3, 7, True), (2, 5, 2, True),
    ])
    def test_decode_is_inverse(self, n, k, m, sym):
        vm = VarMap(n, k, m, sym)
        seen = set()
        for var in range(1, vm.variable_count + 1):
            tag = vm.decode(var)
            assert tag not in seen
            seen.add(tag)
            kind = tag[0]
            if kind == "e":
                assert vm.e(tag[1], tag[2], tag[3]) == var
            elif kind == "f":
                assert vm.f(tag[1]) == var
            elif kind == "d":
                assert vm.d(tag[1], tag[2]) == var
            elif kind == "t":
                assert vm.t(tag[1], tag[2]) == var
            elif kind == "p":
                assert vm.p(tag[1], tag[2]) == var
            else:
                assert kind == "m"
                assert vm.m(tag[1], tag[2], tag[3]) == var
        expected = n * k * n + n + m * n
        if sym:
            pairs = n * (n - 1) // 2
            expected += pairs * (2 + k)
        assert vm.variable_count == expected

    def test_frozen_ids(self):
        vm = VarMap(2, 2, 3, True)
        assert vm.e(0, 0, 0) == 1
        assert vm.e(0, 0, 1) == 2
        assert vm.e(1, 1, 1) == 8
        assert vm.f(0) == 9
        assert vm.d(0, 0) == 11
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
        with pytest.raises(EncodingError):
            vm.decode(vm.variable_count + 1)

    def test_symmetry_vars_gated(self):
        vm = VarMap(2, 1, 1, False)
        with pytest.raises(EncodingError):
            vm.t(0, 1)


class TestAcceptorFacts:
    """What the encoder reads off an acceptor: initials, statuses, moves."""

    def test_double_dfa_offsets(self):
        dd = build_ddfa(SampleSet(2, {(0,)}, {(1,)}))
        vm = VarMap(2, 2, dd.state_count, False)
        clauses = clauses_of(encode_product, vm, dd)
        # both initial states are seeded, the negative one past the split
        split = dd.initials[1]
        assert dd.initials == (0, split)
        assert clauses[:2] == [(vm.d(0, 0),), (vm.d(split, 0),)]
        assert dd.accepting and dd.rejecting
        assert all(q >= split for q in dd.rejecting)


class TestShapeClauses:
    def test_counts_n3_k2(self):
        vm = VarMap(3, 2, 1, False)
        clauses = clauses_of(encode_dfa_shape, vm)
        at_most = [c for c in clauses if len(c) == 2 and c[0] < 0]
        at_least = [c for c in clauses if c[0] > 0]
        assert len(at_most) == 3 * 2 * 3  # n*k * C(n,2)
        assert len(at_least) == 3 * 2
        assert len(clauses) == 24

    @pytest.mark.parametrize("n,k", [(1, 1), (2, 1), (2, 2)])
    def test_truth_table_is_total_functions(self, n, k):
        # shape clauses hold exactly when e describes a total function
        vm = VarMap(n, k, 1, False)
        clauses = clauses_of(encode_dfa_shape, vm)
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
    clauses = (clauses_of(encode_dfa_shape, vm)
               + clauses_of(encode_product, vm, acceptor))
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
            encode_product(vm, acceptor, array("i"))


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
        clauses = clauses_of(encode_symmetry_breaking, vm)
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
            encode_symmetry_breaking(vm, array("i"))

    def test_safety_filter_drops_sink_clauses(self):
        vm = VarMap(3, 2, 2, True)
        full = clauses_of(encode_symmetry_breaking, vm)
        safe = clauses_of(encode_symmetry_breaking, vm, safety_mode=True)
        assert set(safe) < set(full)

        def touches_sink(clause):
            sink = vm.n - 1
            for lit in clause:
                tag = vm.decode(abs(lit))
                nodes = ({tag[1], tag[3]} if tag[0] in ("e", "m")
                         else {tag[1], tag[2]})
                if sink in nodes:
                    return True
            return False

        expected = [c for c in full if not touches_sink(c)]
        assert safe == expected


class TestParityConstraints:
    def test_two_colours_n2(self):
        # highest colour 1 is odd: co-safety, initial state rejects
        vm = VarMap(2, 2, 1, True)
        clauses = clauses_of(encode_parity_constraints, vm, 2)
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
        clauses = clauses_of(encode_parity_constraints, vm, 3)
        assert (vm.e(0, 0, 0),) in clauses
        assert (vm.e(0, 2, 0),) in clauses
        assert (vm.e(0, 1, 1), vm.e(0, 1, 2)) in clauses
        assert (vm.e(1, 2, 0),) in clauses          # highest colour resets
        assert (-vm.e(1, 1, 1),) in clauses         # opponent never loops
        assert (-vm.e(2, 0, 3),) in clauses         # same parity avoids sink
        assert (vm.f(0),) in clauses
        assert (-vm.f(3),) in clauses

    def test_errors(self):
        vm = VarMap(3, 2, 1, True)
        with pytest.raises(EncodingError):
            encode_parity_constraints(vm, 3, array("i"))
        with pytest.raises(EncodingError):
            encode_parity_constraints(VarMap(3, 1, 1, True), 1, array("i"))
        with pytest.raises(EncodingError):
            encode_parity_constraints(VarMap(1, 2, 1, True), 2, array("i"))


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
        assert f_safe.clause_count == 163
        _, f2_safe = build_formula(2, acceptor, safety=True)
        assert f2_safe.clause_count == 71

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


# sha256 of the DIMACS text per (corpus, mode, n, symmetry breaking).  The
# parity corpus is (3, 5) with the safety shape; the random one holds 200
# words up to length 11 labelled by gen_random_dfa(4, 2, 101).  Any change
# to variable numbering or clause order shows up here.
GOLDEN_DIMACS = {
    ("parity", "apta", 2, True): "d99582ea2d4529e268109cbd9660e7e6c2432d6e6f32b48af82d4147082c4701",
    ("parity", "apta", 3, True): "fba9b57cfb9be0ae2630076811bee4f109e842607994b16321133501c60c6125",
    ("random", "apta", 3, True): "1ca57f0114f80fe99e65b075c63df6e970c5fb0ffab0c3aa9c908aa94fe4a49f",
    ("random", "apta", 3, False): "5fa81eb28d7493b1ecf0a7a121b40826b75134da74f67eb8ae187abcee654f99",
    ("random", "apta", 4, True): "d12ed6fb14f23dfb27e737c009a4df8b7b93683c61ede9f4d19061d1a7e6e3f8",
    ("random", "apta", 4, False): "75f59b7f41461c86ee35df276cd141aa7c69546bd4ea8013964b43a6ca0ad1b8",
    ("parity", "min3dfa", 2, True): "0af797711884ebf57d517ae75f6e4068145f45031635e721d590a9297cbe4711",
    ("parity", "min3dfa", 3, True): "847c49a68150f035cc332ee95d87b1cfe71f0b647ffad334be69649707be629c",
    ("random", "min3dfa", 3, True): "b027ed6ae5879f0e3c67bb2b8e343743ee4a0031fa3f18c74ffe4f8f734fd785",
    ("random", "min3dfa", 3, False): "ae082806a5b5c20a7226a1628f6eebd2abc5ffef1ed4e65ca4835a13e2b40ea6",
    ("random", "min3dfa", 4, True): "4f1d76ccc5cc0d252971363cb67d2c80e9d4081396e42b5ec1779021421928ae",
    ("random", "min3dfa", 4, False): "bf7c1493e001fea1571fb3155fe01d5230fac40c3fc54383210ac7636be08e8d",
    ("parity", "ddfa", 2, True): "bab47d565b4245bcbfa1fd49881fa711448acb378ab1bee111e31c095b09f22f",
    ("parity", "ddfa", 3, True): "4323d79ccc62fecb3d726177f8f33280581f9bd6f056f78c2f1f21751f7a1589",
    ("random", "ddfa", 3, True): "1f88e0b70ab963577b10db1db60f484948abb1ebdbee2b7a8017efc4e66d0f5e",
    ("random", "ddfa", 3, False): "1f7859aa137194a8566f7e4f3fe9b27225a78c352514adcb5141bd713f363bc4",
    ("random", "ddfa", 4, True): "8cb66bbfb62402d363f1493c11360f9c50716a7b6de962673bc3e2b1d114241c",
    ("random", "ddfa", 4, False): "0409ddaa41c11feae4254aed3ea69bccd3acf68734350169b0d6f32f09365d7c",
}


def acceptor_for(samples, mode):
    if mode == "apta":
        return build_apta(samples)
    if mode == "min3dfa":
        return build_min_3dfa_incremental(samples)
    return build_ddfa(samples)


def golden_formula(parity_corpus, corpus, mode, n, symmetry):
    if corpus == "parity":
        samples = parity_corpus(3, 5)
    else:
        samples = gen_samples_from_dfa(gen_random_dfa(4, 2, 101), 200,
                                       11, seed=101)
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


class TestCnfFormula:
    def test_valid(self):
        formula = CnfFormula(2, array("i", (1, -2, 0, 2, 0)))
        assert formula.clause_count == 2
        assert CnfFormula(0, array("i")).clause_count == 0
        # 5, 0, 65536 hold eight zero bytes in a row, off a literal boundary
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


class TestDecodeModel:
    def make_model(self, vm, table, accepting):
        model = {var: False for var in range(1, vm.variable_count + 1)}
        for (i, a), j in table.items():
            model[vm.e(i, a, j)] = True
        for i in accepting:
            model[vm.f(i)] = True
        return model

    def test_round_trip(self):
        vm = VarMap(2, 2, 1, False)
        table = {(0, 0): 1, (0, 1): 0, (1, 0): 1, (1, 1): 0}
        dfa = decode_model(self.make_model(vm, table, {1}), vm)
        assert dfa.transitions == table
        assert dfa.accepting == frozenset({1})

    def test_multiple_targets_rejected(self):
        vm = VarMap(2, 1, 1, False)
        model = self.make_model(vm, {(0, 0): 0, (1, 0): 0}, set())
        model[vm.e(0, 0, 1)] = True
        with pytest.raises(EncodingError):
            decode_model(model, vm)

    def test_missing_variable_rejected(self):
        vm = VarMap(2, 1, 1, False)
        model = self.make_model(vm, {(0, 0): 0, (1, 0): 0}, set())
        del model[vm.e(1, 0, 0)]
        with pytest.raises(EncodingError):
            decode_model(model, vm)
