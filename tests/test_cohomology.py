from nilpair.cohomology import (
    coker_formula_check,
    duality_check,
    euler_identity_check,
    exponent_sums_check,
    h1_dims,
    higher_biexponents,
    product_identity_check,
    product_identity_nw_check,
    quadrant_totals,
    se_biexponents,
    slice_basis,
    slice_report,
    slice_samples,
    support_ok,
    tower_steps,
    young_se_slice,
)
from nilpair.diagrams import ShapeClass, enumerate_diagrams, parse
from nilpair.linalg import bracket
from nilpair.pairs import build_pair
from test_pairs import joint_centralizer


def test_hook_table_frozen():
    # computed by hand from the generating identity and by direct kernels
    pair, h = build_pair(parse("2,1"))
    assert h1_dims(pair, h) == {(-1, 2): 1, (0, 1): 1, (1, 0): 1, (2, -1): 1}


def test_single_row_table_frozen():
    pair, h = build_pair(parse("3"))
    assert h1_dims(pair, h) == {(-2, 1): 1, (-1, 1): 1, (2, 0): 1, (3, 0): 1}


def test_square_table_frozen():
    pair, h = build_pair(parse("2,2"))
    assert h1_dims(pair, h) == {
        (-1, 1): 1,
        (-1, 2): 1,
        (0, 2): 1,
        (1, -1): 1,
        (2, -1): 1,
        (2, 0): 1,
    }


def test_total_and_support():
    for spec in ("2,1", "3", "2,2", "3,1", "2,2,1"):
        pair, h = build_pair(parse(spec))
        dims = h1_dims(pair, h)
        n = pair.n
        assert sum(dims.values()) == 2 * (n - 1)
        assert support_ok(dims)
        assert quadrant_totals(dims) == (n - 1, n - 1)


def test_identities_small():
    for spec in ("2,1", "3", "2,2", "4", "3,1"):
        pair, h = build_pair(parse(spec))
        assert euler_identity_check(pair, h)
        assert coker_formula_check(pair, h)[0]
        assert duality_check(pair, h)[0]
        assert exponent_sums_check(pair, h)[0]
        assert product_identity_check(pair, h)
        assert product_identity_nw_check(pair, h)


def test_higher_biexponents_hook():
    pair, h = build_pair(parse("2,1"))
    nw = higher_biexponents(pair, h)
    se = se_biexponents(pair, h)
    assert nw == ((-1, 2), (0, 1))
    assert se == tuple(sorted((1 - p, 1 - q) for p, q in nw))


def test_higher_biexponents_classical():
    pair, h = build_pair(parse("3"))
    # degenerate pair: classes sit at (-exponent, 1) on one side
    assert higher_biexponents(pair, h) == ((-2, 1), (-1, 1))


def test_slice_counts_and_points():
    for spec in ("2,1", "2,2", "4"):
        pair, h = build_pair(parse(spec))
        for quad in ("se", "nw"):
            rep = slice_report(pair, h, quad)
            assert rep["count"] == pair.n - 1
            assert rep["ok"], rep
            for s in rep["samples"]:
                assert s["commutes"] and s["centralizer_dim"] == pair.n - 1


def test_slice_matrices_commute_with_fixed_member():
    pair, h = build_pair(parse("3,1"))
    for m in slice_basis(pair, h, "se").matrices():
        assert bracket(pair.e1, m).is_zero()
    for m in slice_basis(pair, h, "nw").matrices():
        assert bracket(pair.e2, m).is_zero()


def test_young_recipe_counts():
    for spec in ("2,1", "2,2", "3,1", "3,2,1"):
        pair, h = build_pair(parse(spec))
        recipe = young_se_slice(pair)
        assert len(recipe) == pair.n - 1
        rep = slice_report(pair, h, "se")
        assert rep["young_recipe_ok"]


def test_degenerate_slice_forms():
    # for a single row the two slices take the classical shapes: one side
    # perturbs the zero member inside the centralizer, the other perturbs the
    # regular member transversally
    pair, h = build_pair(parse("4"))
    se = slice_basis(pair, h, "se")
    for _, m in se.entries:
        assert bracket(pair.e1, m).is_zero()
    n = pair.n
    powers = [pair.e1**k for k in range(1, n)]
    from nilpair.linalg import Subspace

    span = Subspace(n * n, [p.flatten() for p in powers])
    assert span == Subspace(n * n, [m.flatten() for m in se.matrices()])


def test_tower_steps_images_lie_in_targets():
    for n in range(1, 6):
        shapes = [(d, True) for d in enumerate_diagrams(n, ShapeClass.YOUNG)]
        if n >= 2:
            shapes += [(d, False) for d in enumerate_diagrams(n, ShapeClass.SKEW)]
        for d, young in shapes:
            pair, h = build_pair(d)
            for ambient in ("sl", "gl"):
                totals = []
                for member in (2, 1):
                    steps = tower_steps(pair, h, member, ambient)
                    for tgt, img in steps.values():
                        assert tgt.contains_subspace(img)
                    totals.append(sum(t.dim - i.dim for t, i in steps.values()))
                if young:
                    # each family carries the rank; in gl the center adds one
                    rank = n - 1 if ambient == "sl" else n
                    assert totals == [rank, rank], (d.serialize(), ambient)


def test_slice_centralizers_match_dense_joint_kernel():
    # the restriction to the fixed member's centralizer must reproduce the
    # canonical basis of the dense 2n^2 x n^2 joint kernel exactly
    for n in range(1, 6):
        for d in enumerate_diagrams(n, ShapeClass.YOUNG):
            pair, h = build_pair(d)
            for quad in ("se", "nw"):
                for reverse in (False, True):
                    sb = slice_basis(pair, h, quad, reverse=reverse)
                    k = sb.count
                    seen = []
                    for pick, x1, x2, zx in slice_samples(pair, h, sb):
                        seen.append(pick)
                        ref = joint_centralizer(x1, x2)
                        where = (d.serialize(), quad, reverse, pick)
                        assert zx.basis == ref.basis, where
                    assert len(seen) == k + k * (k - 1) // 2 + (k > 2)
