from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilpair.characters import kostka
from nilpair.diagrams import ShapeClass, enumerate_diagrams, parse, partitions
from nilpair import modules
from nilpair.linalg import Matrix, Subspace, combine, relations
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
from nilpair.pairs import build_pair, centralizer
from nilpair.polys import BivariatePoly
from test_linalg import mat_is_nilpotent


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
    assert (e1 * e2 - e2 * e1).is_zero()
    assert mat_is_nilpotent(e1) and mat_is_nilpotent(e2)


def test_direct_multiplicity_counts_weight_spaces_degenerate():
    pair, h = build_pair(parse("3"))
    m = WeightModule(3, (2, 1))
    act = PairAction.build(m, pair)
    for mu in sorted({w for w, _, _ in m.basis}):
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


def test_module_limit_containment_all_weights():
    pair, h = build_pair(parse("2,1"))
    m = WeightModule(3, (2, 1))
    for mu in sorted({w for w, _, _ in m.basis}):
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
        while not p[-1].is_zero():
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
