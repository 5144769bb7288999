from collections import Counter
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilpair.characters import kostka
from nilpair.diagrams import ShapeClass, enumerate_diagrams, parse, partitions
from nilpair import modules
from nilpair.linalg import (
    EchelonBasis,
    Matrix,
    Subspace,
    add_multiple,
    combine,
    entries,
    relations,
)
from nilpair.modules import (
    PairAction,
    WeightModule,
    direct_multiplicity,
    filtration_piece,
    invariant_subspace,
    module_limit_check,
    multiplicity_crosscheck,
    weyl_dimension,
)
from nilpair.multiplicity import _perm_sign
from nilpair.pairs import NilPair, build_pair, centralizer
from nilpair.polys import BivariatePoly
from nilpair.surveys import admissible_highest_weights, multiplicity_checks_for
from test_linalg import mat_is_nilpotent, mat_is_zero


def test_weyl_dimension_values():
    assert weyl_dimension(3, (1, 1, 1)) == 1
    assert weyl_dimension(3, (2, 1)) == 8
    assert weyl_dimension(3, (3,)) == 10
    assert weyl_dimension(4, (2, 2)) == 20
    assert weyl_dimension(2, (4,)) == 5


def test_module_dims_match_formula():
    for n, lam in ((3, (2, 1)), (3, (3,)), (4, (2, 1, 1)), (2, (4,))):
        m = WeightModule(n, lam)
        assert m.dim == weyl_dimension(n, lam)


def test_weight_multiplicities_are_kostka():
    m = WeightModule(3, (2, 1))
    for mu in partitions(3):
        padded = tuple(list(mu) + [0] * (3 - len(mu)))
        assert len(m.weight_space_indices(padded)) == kostka((2, 1), mu)


def _dense(columns):
    """The matrix with the given sparse columns {row: value}."""
    dim = len(columns)
    return Matrix([[col.get(r, 0) for col in columns] for r in range(dim)])


def test_module_operators_commute_and_nilpotent():
    pair, h = build_pair(parse("2,1"))
    m = WeightModule(3, (3,))
    e1, e2 = _dense(m.act_matrix(pair.e1)), _dense(m.act_matrix(pair.e2))
    assert mat_is_zero(e1 * e2 - e2 * e1)
    assert mat_is_nilpotent(e1) and mat_is_nilpotent(e2)


def test_direct_multiplicity_counts_weight_spaces_degenerate():
    pair, h = build_pair(parse("3"))
    m = WeightModule(3, (2, 1))
    act = PairAction.build(m, pair)
    for mu in m.weights:
        p = direct_multiplicity(act, m.weight_space_indices(mu))
        assert p.eval_ones() == len(m.weight_space_indices(mu))
        assert all(j == 0 for (_, j) in p.coeffs)  # one-variable regime


def test_direct_multiplicity_sl2_adjoint():
    pair, h = build_pair(parse("2"))
    m = WeightModule(2, (2,))
    act = PairAction.build(m, pair)
    cols = m.weight_space_indices((1, 1))
    assert direct_multiplicity(act, cols) == BivariatePoly({(1, 0): 1})


def test_crosscheck_degenerate_regime():
    pair, h = build_pair(parse("3"))
    rep = multiplicity_crosscheck(pair, h, (2, 1, 0))
    assert rep["equal"]
    assert all(r["formula_counts_weight_space"] for r in rep["weights"])


def test_crosscheck_hook_adjoint():
    pair, h = build_pair(parse("2,1"))
    rep = multiplicity_crosscheck(pair, h, (2, 1))
    assert rep["highest_weight_in_ne_cone"]
    assert rep["equal"]
    zero = [r for r in rep["weights"] if r["mu"] == [1, 1, 1]][0]
    assert zero["P_direct"] == [[0, 1, 1], [1, 0, 1]]  # s + t


def test_crosscheck_out_of_cone_reported_not_asserted():
    pair, h = build_pair(parse("2,1"))
    rep = multiplicity_crosscheck(pair, h, (3,))
    assert not rep["highest_weight_in_ne_cone"]
    assert not rep["equal"]  # known deviation outside the cone hypothesis


def test_module_limit_equality_classical():
    pair, h = build_pair(parse("2"))
    m = WeightModule(2, (2,))
    rep = module_limit_check(pair, h, m, (1, 1))
    assert rep["contained"]
    assert not rep["strict"]
    assert rep["zero_weight_dims"] == [1, 1]


def test_module_limit_strict_for_cubes():
    pair, h = build_pair(parse("2,1"))
    m = WeightModule(3, (3,))
    rep = module_limit_check(pair, h, m, (1, 1, 1))
    assert rep["contained"] and rep["strict"]
    assert rep["zero_weight_dims"] == [1, 4]


def test_module_limit_check_reads_the_given_grading():
    # a pair with no diagram takes its centralizer from the grading passed,
    # so its record for h holds the K12 blocks after the call
    pair, h = build_pair(parse("2,1"))
    m = WeightModule(3, (3,))
    bare = NilPair(pair.e1, pair.e2)
    rep = module_limit_check(bare, h, m, (1, 1, 1))
    memo = bare._graded[h].memo
    assert ("K12", "gl") in memo and ("K12", "sl") in memo
    assert rep == module_limit_check(pair, h, m, (1, 1, 1))


def test_module_limit_containment_all_weights():
    pair, h = build_pair(parse("2,1"))
    m = WeightModule(3, (2, 1))
    for mu in m.weights:
        rep = module_limit_check(pair, h, m, mu)
        assert rep["contained"]


@pytest.mark.parametrize("lam", [(3,), (2, 1)])
def test_invariant_subspace_matches_dense_kernel(lam):
    pair, _ = build_pair(parse("2,1"))
    m = WeightModule(3, lam)
    mats = centralizer(pair, "sl").basis
    rows = [row for x in mats for row in _dense(m.act_matrix(x)).data]
    assert invariant_subspace(m, mats) == Matrix(rows).kernel()


def test_invariant_subspace_of_no_matrices_is_the_module():
    m = WeightModule(3, (2, 1))
    assert invariant_subspace(m, []) == Subspace.full(m.dim)


def test_module_rejects_bad_weight():
    with pytest.raises(ValueError):
        WeightModule(2, (1, 2))
    with pytest.raises(ValueError):
        WeightModule(2, (1, 1, 1))


def test_module_rejects_non_integral_weight():
    # int() would truncate (2.5, 1) to the 8-dimensional module of (2, 1)
    with pytest.raises(ValueError):
        WeightModule(3, (2.5, 1))
    with pytest.raises(ValueError):
        multiplicity_checks_for("2,1", (2.5, 1))


# -- Gelfand-Tsetlin patterns against the tensor-power closure ---------------


def _highest_weight_tensor(n, lam):
    """Product over columns of antisymmetrised elementary tensors."""
    cols = []
    for j in range(max(lam) if lam else 0):
        height = sum(1 for part in lam if part > j)
        cols.append(height)
    vec = {(): 1}
    for height in cols:
        new = {}
        for perm in permutations(range(height)):
            sign = _perm_sign(perm)
            for key, c in vec.items():
                nk = key + tuple(perm)
                new[nk] = new.get(nk, 0) + c * sign
        vec = {k: v for k, v in new.items() if v}
    return vec


def _content(key, n):
    out = [0] * n
    for i in key:
        out[i] += 1
    return tuple(out)


class _TensorModule:
    """Reference: the simple module realised in a tensor power, by closing
    the highest-weight tensor under the lowering generators and reading
    every image back into the basis by elimination."""

    def __init__(self, n, lam):
        lam = tuple(int(x) for x in lam)
        if any(l < 0 for l in lam) or list(lam) != sorted(lam, reverse=True):
            raise ValueError("highest weight must be a partition")
        if len([l for l in lam if l]) > n:
            raise ValueError("too many parts")
        if sum(lam) > modules.MAX_TENSOR_DEGREE:
            raise ValueError("tensor degree over the configured bound")
        self.n = n
        self.lam = lam
        self.k = sum(lam)
        self._build()
        expected = weyl_dimension(n, lam)
        if self.dim != expected:
            raise AssertionError(
                f"module closure gave dim {self.dim}, dimension formula {expected}"
            )

    def _build(self):
        n = self.n
        hw = _highest_weight_tensor(n, self.lam)
        self.echelon = {}  # weight -> EchelonBasis of sparse tensors
        queue = [hw] if hw else []
        while queue:
            vec = queue.pop()
            weight = _content(next(iter(vec)), n)
            rem = self.echelon.setdefault(weight, EchelonBasis()).add(vec)
            if not rem:
                continue
            for i in range(n - 1):
                img = self._apply_unit(rem, i + 1, i)
                if img:
                    queue.append(img)
        self.basis = []  # (weight, pivot, vector)
        for weight in sorted(self.echelon):
            for pivot, vec in sorted(self.echelon[weight].rows.items()):
                self.basis.append((weight, pivot, vec))
        self.dim = len(self.basis)
        self.index_of = {
            (w, p): i for i, (w, p, _) in enumerate(self.basis)
        }
        self.weights = sorted({w for w, _, _ in self.basis})

    def _apply_unit(self, vec, a, b):
        """Derivation action of the matrix unit E_ab on a sparse tensor."""
        out = {}
        for key, c in vec.items():
            for slot, idx in enumerate(key):
                if idx == b:
                    nk = key[:slot] + (a,) + key[slot + 1 :]
                    nv = out.get(nk, 0) + c
                    if nv:
                        out[nk] = nv
                    else:
                        del out[nk]
        return out

    def coordinates(self, vec):
        """Sparse coordinates {basis index: c} of a sparse tensor (a
        combination of basis vectors), read weight space by weight space."""
        parts = {}
        for key, x in vec.items():
            parts.setdefault(_content(key, self.n), {})[key] = x
        coords = {}
        for weight, part in parts.items():
            if weight not in self.echelon:
                raise ValueError("vector outside the module")
            for pivot, c in self.echelon[weight].coordinates(part).items():
                coords[self.index_of[(weight, pivot)]] = c
        return coords

    def act_matrix(self, x):
        """Sparse columns {row: c} of the module matrix of an arbitrary n x n
        matrix, flattened (a sparse row or a dense sequence), acting by
        derivations, one per basis vector."""
        units = [(divmod(k, self.n), c) for k, c in entries(x) if c]
        cols = []
        for _, _, vec in self.basis:
            img = {}
            for (a, b), c in units:
                add_multiple(img, c, self._apply_unit(vec, a, b))
            cols.append(self.coordinates(img))
        return cols

    def weight_space_indices(self, mu):
        mu = tuple(mu)
        return tuple(i for i, (w, _, _) in enumerate(self.basis) if w == mu)


RELATION_MODULES = [
    (2, (1,)),
    (2, (3, 1)),
    (3, (2, 1)),
    (3, (3,)),
    (3, (2, 2, 1)),
    (4, (2, 1, 1)),
    (4, (3, 1)),
    (5, (2, 1, 1)),
]


@pytest.mark.parametrize("n,lam", RELATION_MODULES)
def test_matrix_units_satisfy_the_gl_relations(n, lam):
    # [E_ab, E_cd] = delta_bc E_ad - delta_da E_cb for every (a, b, c, d)
    m = WeightModule(n, lam)
    units = {(a, b): m.act_matrix({a * n + b: 1}) for a in range(n) for b in range(n)}
    for (a, b), x in units.items():
        for (c, d), y in units.items():
            for j in range(m.dim):
                lhs = dict(combine(x, y[j]))
                add_multiple(lhs, -1, combine(y, x[j]))
                rhs = {}
                if b == c:
                    add_multiple(rhs, 1, units[(a, d)][j])
                if d == a:
                    add_multiple(rhs, -1, units[(c, b)][j])
                assert lhs == rhs, (a, b, c, d, j)


def test_pattern_counts_are_weyl_dimensions_and_kostka_numbers():
    count = 0
    for n in range(1, 5):
        for size in range(9):
            for lam in partitions(size):
                if len(lam) > n:
                    continue
                m = WeightModule(n, lam)
                assert m.dim == weyl_dimension(n, lam), (n, lam)
                for mu in m.weights:
                    assert sum(mu) == size and min(mu) >= 0
                    got = len(m.weight_space_indices(mu))
                    assert got == kostka(lam, mu), (n, lam, mu)
                count += 1
    assert count == 128


def _suite_cases(max_size):
    """The (diagram, highest weight) cases of multiplicity_suite(max_size)."""
    return [
        (spec, lam)
        for spec, n in (("2", 2), ("3", 3), ("2,1", 3), ("2,2", 4))
        for lam in admissible_highest_weights(n, max_size)
    ]


# the suite's cases hold the strictness witness, 2,1 with the cube (3,)
REFERENCE_CASES = _suite_cases(6) + [("2,2", (4, 4)), ("3,1", (4, 4))]


class _ReadOnce:
    """A module whose act_matrix is computed once per matrix:
    module_limit_check builds the pair's action and the invariants afresh
    for every weight, which the tensor closure pays for by elimination."""

    def __init__(self, module):
        self.module = module
        self.memo = {}

    def __getattr__(self, name):
        return getattr(self.module, name)

    def act_matrix(self, x):
        key = tuple((k, c) for k, c in entries(x) if c)
        if key not in self.memo:
            self.memo[key] = self.module.act_matrix(x)
        return self.memo[key]


def _weight_dims(pair, h, module):
    """Every weight's direct multiplicity and module_limit_check dims."""
    action = PairAction.build(module, pair)
    out = {}
    for mu in module.weights:
        rep = module_limit_check(pair, h, module, mu)
        out[mu] = (
            direct_multiplicity(action, module.weight_space_indices(mu)),
            rep["dim_limit"],
            rep["dim_invariants"],
            rep["zero_weight_dims"],
            rep["contained"],
            rep["strict"],
        )
    return out


def test_reference_cases_are_the_suite_and_two_degree_eight_modules():
    assert len(_suite_cases(6)) == 34
    assert len(REFERENCE_CASES) == 36
    assert ("2,1", (3,)) in REFERENCE_CASES


@pytest.mark.parametrize("spec,lam", REFERENCE_CASES)
def test_patterns_match_the_tensor_closure(spec, lam):
    pair, h = build_pair(parse(spec))
    module = WeightModule(pair.n, lam)
    reference = _ReadOnce(_TensorModule(pair.n, lam))
    assert module.dim == reference.dim
    assert module.weights == reference.weights
    for mu in module.weights:
        assert len(module.weight_space_indices(mu)) == len(
            reference.weight_space_indices(mu)
        )
    assert _weight_dims(pair, h, module) == _weight_dims(pair, h, reference)



# -- sparse operator towers against the dense Fraction reference -----------

SMALL_CASES = [
    (d, lam)
    for n in range(1, 5)
    for cls in (ShapeClass.YOUNG, ShapeClass.SKEW)
    for d in enumerate_diagrams(n, cls)
    for size in range(1, 5)
    for lam in partitions(size)
    if len(lam) <= n
]


def _dense_case(d, lam):
    """The module, the action, the dense products (e1^i)(e2^j) of the module
    matrices, one step past each nilpotency index, and the indices read off
    the dense powers."""
    pair, _ = build_pair(d)
    module = WeightModule(pair.n, lam)
    act = PairAction.build(module, pair)
    pows = []
    for x in (pair.e1, pair.e2):
        e = _dense(module.act_matrix(x))
        p = [Matrix.identity(module.dim)]
        while not mat_is_zero(p[-1]):
            p.append(p[-1] * e)
        p.append(p[-1] * e)
        pows.append(p)
    prods = {
        (i, j): a * b for i, a in enumerate(pows[0]) for j, b in enumerate(pows[1])
    }
    return module, act, prods, (len(pows[0]) - 2, len(pows[1]) - 2)


@given(st.sampled_from(SMALL_CASES))
@settings(max_examples=12, deadline=None)
def test_product_power_matches_dense_products(case):
    module, act, prods, indices = _dense_case(*case)
    assert (act.index1, act.index2) == indices
    for mu in module.weights:
        cols = module.weight_space_indices(mu)
        for (i, j), prod in prods.items():
            block = act.product_power(i, j, cols)
            dense = [
                {r: prod.data[r][c] for r in range(prod.rows) if prod.data[r][c]}
                for c in cols
            ]
            assert list(block) == dense, (i, j, mu)


def _dense_piece(prods, cols, i, j):
    if (i == -1 and j <= 0) or (j == -1 and i <= 0):
        return Subspace.zero(len(cols))
    if i == -1:
        mats = [prods[(0, j)]]
    elif j == -1:
        mats = [prods[(i, 0)]]
    else:
        mats = [prods[(i + 1, j)], prods[(i, j + 1)]]
    return Matrix([[row[c] for c in cols] for m in mats for row in m.data]).kernel()


@given(st.sampled_from(SMALL_CASES))
@settings(max_examples=12, deadline=None)
def test_direct_multiplicity_matches_dense_kernels(case):
    module, act, prods, (index1, index2) = _dense_case(*case)
    for mu in module.weights:
        cols = module.weight_space_indices(mu)
        expected = BivariatePoly.zero()
        for i in range(index1 + 1):
            for j in range(index2 + 1):
                below = _dense_piece(prods, cols, i - 1, j) + _dense_piece(
                    prods, cols, i, j - 1
                )
                d = _dense_piece(prods, cols, i, j).dim - below.dim
                if d:
                    expected = expected + BivariatePoly.term(i, j, d)
        assert direct_multiplicity(act, cols) == expected, mu


# -- int-keyed stacking and one image block per power ------------------------


def _map_row_stacked(blocks, count):
    """Reference: each vector's images under several maps as one sparse
    vector keyed by the tuple (map, row)."""
    return [
        {(b, r): y for b, block in enumerate(blocks) for r, y in block[k].items()}
        for k in range(count)
    ]


def _map_row_piece(action, i, j, vectors):
    """Reference F_{i,j} cap span(vectors): the images of each power taken
    afresh from the towers of the support and stacked by (map, row)."""
    if (i == -1 and j <= 0) or (j == -1 and i <= 0):
        return Subspace.zero(len(vectors))
    if i == -1:
        powers = [(0, j)]
    elif j == -1:
        powers = [(i, 0)]
    else:
        powers = [(i + 1, j), (i, j + 1)]
    support = tuple(sorted({c for v in vectors for c in v}))
    blocks = []
    for p, q in powers:
        tower = dict(zip(support, action.product_power(p, q, support)))
        blocks.append([combine(tower, v) for v in vectors])
    return relations(_map_row_stacked(blocks, len(vectors)))


# the frozen finding and the proven one-row case of the multiplicity suite
STACKED_CASES = [("2,2", (2, 2)), ("3", (4, 2))]


@pytest.mark.parametrize("alt", [False, True])
@pytest.mark.parametrize("spec,lam", STACKED_CASES)
def test_int_keyed_pieces_match_the_map_row_reference(spec, lam, alt):
    pair, h = build_pair(parse(spec))
    module = WeightModule(pair.n, lam)
    action = PairAction.build(module, pair)
    report = multiplicity_crosscheck(pair, h, lam, alt=alt)
    for row in report["weights"]:
        cols = module.weight_space_indices(row["mu"])
        vectors = [{c: 1} for c in cols]
        ref = {
            (i, j): _map_row_piece(action, i, j, vectors)
            for i in range(-1, action.index1 + 1)
            for j in range(-1, action.index2 + 1)
        }
        expected = BivariatePoly.zero()
        for (i, j), sp in ref.items():
            got = filtration_piece(action, i, j, vectors, action.images(vectors))
            assert got == sp, (row["mu"], i, j)
            if i >= 0 and j >= 0:
                d = sp.dim - (ref[(i - 1, j)] + ref[(i, j - 1)]).dim
                if d:
                    expected = expected + BivariatePoly.term(i, j, d)
        assert row["P_direct"] == expected.to_jsonable(), row["mu"]
    mats = centralizer(pair, "sl", h=h).basis
    blocks = [module.act_matrix(x) for x in mats]
    want = relations(_map_row_stacked(blocks, module.dim))
    assert invariant_subspace(module, mats) == want


@pytest.mark.parametrize("spec,lam", STACKED_CASES)
def test_graded_pieces_take_each_power_once(spec, lam, monkeypatch):
    pair, _ = build_pair(parse(spec))
    module = WeightModule(pair.n, lam)
    action = PairAction.build(module, pair)
    tower = action.product_power
    reads, depth = Counter(), [0]

    def counted(i, j, cols):
        # only the outermost call reads images; the inner ones build the tower
        if not depth[0]:
            reads[(i, j, cols)] += 1
        depth[0] += 1
        try:
            return tower(i, j, cols)
        finally:
            depth[0] -= 1

    pieces = [0]
    piece = modules.filtration_piece

    def counted_piece(*args):
        pieces[0] += 1
        return piece(*args)

    action.product_power = counted
    monkeypatch.setattr(modules, "filtration_piece", counted_piece)
    for mu in module.weights:
        direct_multiplicity(action, module.weight_space_indices(mu))
    assert reads and max(reads.values()) == 1
    # two powers per interior piece: without sharing there would be more reads
    assert len(reads) < 2 * pieces[0]
