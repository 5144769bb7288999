import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilpair.cohomology import (
    _corner_containment_ok,
    _corner_frames,
    coker_formula_check,
    duality_check,
    euler_identity_check,
    exponent_sums_check,
    factor_products_equal,
    generating_polys,
    h1_dims,
    h1_table,
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
from nilpair.linalg import EchelonBasis, Subspace, bracket, combine
from nilpair.linalg import relations, shifted
from nilpair.pairs import NilPair, SemisimplePair, ad, bigraded_pieces, build_pair
from nilpair.pairs import ClassificationError, ad_image, centralizer
from nilpair.pairs import centralizer_bigraded, member_kernels, weak_lefschetz_report
from nilpair.polys import one_minus, prod_poly
from test_linalg import mat_flatten, mat_is_zero, mat_pow, mat_unflatten
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
    n = pair.n
    e1, e2 = mat_unflatten(pair.e1, n), mat_unflatten(pair.e2, n)
    for m in slice_basis(pair, h, "se").matrices():
        assert mat_is_zero(bracket(e1, mat_unflatten(m, n)))
    for m in slice_basis(pair, h, "nw").matrices():
        assert mat_is_zero(bracket(e2, mat_unflatten(m, n)))


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
    n = pair.n
    e1 = mat_unflatten(pair.e1, n)
    for _, m in se.entries:
        assert mat_is_zero(bracket(e1, mat_unflatten(m, n)))
    powers = [mat_pow(e1, k) for k in range(1, n)]
    from nilpair.linalg import Subspace

    span = Subspace(n * n, [mat_flatten(p) for p in powers])
    assert span == Subspace(n * n, se.matrices())


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
                    for pick, x1, x2, zdim, zx in slice_samples(pair, h, sb):
                        seen.append(pick)
                        ref = joint_centralizer(
                            mat_unflatten(x1, n), mat_unflatten(x2, n)
                        )
                        where = (d.serialize(), quad, reverse, pick)
                        assert zdim == ref.dim, where
                        # the singletons and the full sum carry the basis
                        deep = len(pick) == 1 or pick == tuple(range(k))
                        assert (zx is not None) == deep, where
                        if zx is not None:
                            assert zx.basis == ref.basis, where
                    assert len(seen) == k + k * (k - 1) // 2 + (k > 2)


def test_slice_quadrant_must_be_se_or_nw():
    pair, h = build_pair(parse("2,1"))
    for quad in ("ne", "sw", "SE", ""):
        with pytest.raises(ValueError):
            slice_basis(pair, h, quad)
        with pytest.raises(ValueError):
            slice_report(pair, h, quad)


def _dense_corner_frames(pair, h):
    """Reference frames, one per bidegree (p, q) of gl_n in sorted order:
    the flat indices outside the rectangle L_{<=p,q}, the indices of its
    corner (p, q), and the (p, q) block of the pair's gl centralizer."""
    n = pair.n
    bid = {}
    for i in range(n):
        for j in range(n):
            d = h.bidegree(i, j)
            bid[i * n + j] = (int(d[0]), int(d[1]))
    z_pair = centralizer_bigraded(pair, h, "gl")
    zero = Subspace.zero(n * n)
    frames = []
    for (p, q) in sorted(set(bid.values())):
        outside = {c for c, d in bid.items() if not (d[0] <= p and d[1] <= q)}
        corner = {c for c, d in bid.items() if d == (p, q)}
        frames.append((outside, corner, z_pair.get((p, q), zero)))
    return frames


def _dense_corner_containment_ok(n, zx, frames):
    """Reference staircase check, one elimination per rectangle: a basis of
    Z cap L_{<=p,q} from the relations among the outside parts, and each
    member's (p, q) corner part tested against the pair's block."""
    if zx.dim != n:
        return False
    for outside, corner, tgt in frames:
        coeffs = relations(
            [{c: x for c, x in v.items() if c in outside} for v in zx.basis]
        )
        corners = [{c: x for c, x in v.items() if c in corner} for v in zx.basis]
        for coeff in coeffs.basis:
            comp = combine(corners, coeff)
            if comp and not tgt.contains(comp):
                return False
    return True


def test_corner_containment_matches_per_rectangle_reference():
    # Z = the pair's gl centralizer, with up to two basis vectors moved by
    # sparse integer perturbations, so both answers occur
    rng = random.Random(20261019)
    answers = []
    for n in range(1, 6):
        for d in enumerate_diagrams(n, ShapeClass.YOUNG):
            pair, h = build_pair(d)
            z = centralizer(pair, "gl", h)
            fast, dense = _corner_frames(pair, h), _dense_corner_frames(pair, h)
            for moved in (0, 1, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 2):
                vecs = [dict(v) for v in z.basis]
                for i in rng.sample(range(len(vecs)), min(moved, len(vecs))):
                    for _ in range(rng.randint(1, 2)):
                        x = rng.choice((-2, -1, 1, 2))
                        vecs[i][rng.randrange(n * n)] = Fraction(x)
                zx = Subspace(n * n, vecs)
                got = _corner_containment_ok(n, zx, fast)
                assert got == _dense_corner_containment_ok(n, zx, dense), (
                    d.serialize(),
                    vecs,
                )
                answers.append(got)
    assert True in answers and False in answers


_factors = st.lists(
    st.one_of(st.just((0, 0)), st.tuples(st.integers(-2, 3), st.integers(-2, 3))),
    max_size=4,
)


@settings(max_examples=150, deadline=None)
@given(_factors, _factors, _factors, st.randoms())
def test_factor_products_equal_matches_full_multiplication(shared, left, right, rnd):
    left, right = shared + left, shared + right
    rnd.shuffle(right)

    def full(factors):
        return prod_poly([one_minus(a, b) for a, b in factors])

    assert factor_products_equal(left, right) == (full(left) == full(right))


def test_factor_products_equal_keeps_the_zero_factor():
    assert factor_products_equal([(0, 0)], [(0, 0), (1, 2)])
    assert not factor_products_equal([(0, 0), (1, 1)], [(1, 1)])
    assert factor_products_equal([(1, 1), (0, 0)], [(0, 0), (2, 1)])
    assert factor_products_equal([(1, 0), (0, 1)], [(0, 1), (1, 0)])
    assert not factor_products_equal([(1, 0)], [(0, 1)])


# _h1_table reads dimensions from ranks and _corner_containment_ok runs on a
# forward echelon form; the routes they replaced are the references below.


def _lifted_h1_table(e1, e2, h):
    """Reference H^1 table: the cocycles lifted from the relations among the
    images to the doubled space, the coboundaries as a Subspace there, and
    containment tested between the two."""
    n = h.n
    nn = n * n
    pieces = bigraded_pieces(h, "sl")
    zero = Subspace.zero(nn)
    keys = set()
    for (p, q) in pieces:
        keys.update({(p, q), (p + 1, q), (p, q + 1), (p + 1, q + 1)})
    out = {}
    for (p, q) in sorted(keys):
        mid1 = pieces.get((p, q - 1), zero)
        mid2 = pieces.get((p - 1, q), zero)
        if mid1.dim + mid2.dim == 0:
            continue
        src = pieces.get((p - 1, q - 1), zero)
        cols = [ad(e2, u, n) for u in mid1.basis]
        cols += [{k: -x for k, x in ad(e1, v, n).items()} for v in mid2.basis]
        doubled = list(mid1.basis) + [shifted(v, nn) for v in mid2.basis]
        cocycle_space = Subspace(
            2 * nn, [combine(doubled, c) for c in relations(cols).basis]
        )
        boundary_space = Subspace(
            2 * nn,
            [{**ad(e1, s, n), **shifted(ad(e2, s, n), nn)} for s in src.basis],
        )
        if not cocycle_space.contains_subspace(boundary_space):
            raise ArithmeticError("a coboundary is not a cocycle")
        dim = cocycle_space.dim - boundary_space.dim
        if dim:
            out[(p, q)] = dim
    return out


def _reduced_corner_containment_ok(n, zx, frames):
    """Reference staircase check on the reduced row echelon form of Z in
    each frame's order."""
    if zx.dim != n:
        return False
    for q, order, position, degrees, targets in frames:
        ech = EchelonBasis()
        for v in zx.basis:
            ech.add({position[c]: x for c, x in v.items()})
        for pivot, row in ech.rows.items():
            p, q_pivot = degrees[pivot]
            if q_pivot > q:
                continue
            corner = {order[k]: x for k, x in row.items() if degrees[k] == (p, q)}
            if corner and not targets[p].contains(corner):
                return False
    return True


def _young_and_skew_up_to(max_boxes):
    shapes = []
    for n in range(1, max_boxes + 1):
        shapes += enumerate_diagrams(n, ShapeClass.YOUNG)
        if n >= 2:
            shapes += enumerate_diagrams(n, ShapeClass.SKEW)
    return [d.serialize() for d in shapes] + ["3,3,2"]


@pytest.mark.parametrize("spec", _young_and_skew_up_to(6))
def test_rank_routes_match_the_eliminating_references(spec):
    pair, h = build_pair(parse(spec))
    n = pair.n
    assert h1_table(pair, h) == _lifted_h1_table(pair.e1, pair.e2, h)
    # a grading of another pair moves a coboundary off the cocycles, and
    # both routes refuse it
    swapped = SemisimplePair(h.h2, h.h1)
    if n > 1:
        with pytest.raises(ArithmeticError):
            h1_table(pair, swapped)
        with pytest.raises(ArithmeticError):
            _lifted_h1_table(pair.e1, pair.e2, swapped)
    # the staircase check on the slice samples' centralizers and on the
    # pair's gl centralizer with one or two basis vectors moved
    frames = _corner_frames(pair, h)
    spaces = []
    for quadrant in ("se", "nw"):
        sb = slice_basis(pair, h, quadrant)
        spaces += [zx for *_, zx in slice_samples(pair, h, sb) if zx is not None]
    rng = random.Random(spec)
    z = centralizer(pair, "gl", h)
    for moved in (1, 1, 2, 2):
        vecs = [dict(v) for v in z.basis]
        for i in rng.sample(range(len(vecs)), min(moved, len(vecs))):
            vecs[i][rng.randrange(n * n)] = rng.choice((-2, -1, 1, 2))
        spaces.append(Subspace(n * n, vecs))
    for zx in spaces:
        got = _corner_containment_ok(n, zx, frames)
        assert got == _reduced_corner_containment_ok(n, zx, frames), spec


def test_corner_frames_key_each_index_by_its_exact_bidegree():
    # a grading with half-integral bidegrees: the frames and the centralizer
    # blocks they look up share its exact keys, none truncated to an int
    pair = NilPair((0,) * 4, (0,) * 4)
    h = SemisimplePair((0, Fraction(1, 2)), (0, 0))
    frames = _corner_frames(pair, h)
    seen = {d for *_, degrees, _ in frames for d in degrees}
    half = Fraction(1, 2)
    assert seen == set(bigraded_pieces(h, "gl")) == {(0, 0), (half, 0), (-half, 0)}
    # every matrix commutes with the zero pair, so every corner is in its
    # block; the off-diagonal units sit in the blocks of degree +-1/2
    assert _corner_containment_ok(2, Subspace(4, [{1: 1}, {2: 1}]), frames)


def _per_ambient_tower_steps(pair, h, member, ambient):
    """Reference tower steps, built from one ambient's kernel blocks alone."""
    blocks = member_kernels(pair, h, member, ambient)
    x, (a, b) = (pair.e2, (1, 0)) if member == 1 else (pair.e1, (0, 1))
    zero = Subspace.zero(pair.n**2)
    steps = {}
    for (p, q) in blocks:
        for key in ((p + a, q + b), (p + 1, q + 1)):
            tgt = blocks.get((key[0] - a, key[1] - b), zero)
            src = blocks.get((key[0] - 1, key[1] - 1), zero)
            steps[key] = (tgt, ad_image(x, src))
    return steps


def test_tower_steps_shared_between_ambients_match_per_ambient_builds():
    for spec in _young_and_skew_up_to(6)[:-1]:
        pair, h = build_pair(parse(spec))
        for member in (1, 2):
            got = {a: tower_steps(pair, h, member, a) for a in ("gl", "sl")}
            for ambient, steps in got.items():
                ref = _per_ambient_tower_steps(pair, h, member, ambient)
                assert steps.keys() == ref.keys(), (spec, member, ambient)
                for key, (tgt, img) in steps.items():
                    assert (tgt, img) == ref[key], (spec, member, ambient, key)
            # off the (0, 0) block both ambients hold the same subspaces
            a, b = (1, 0) if member == 1 else (0, 1)
            for key, (tgt, img) in got["sl"].items():
                if key != (1, 1):
                    assert got["gl"][key][1] is img, (spec, member, key)
                if key not in ((a, b), (1, 1)) and tgt.dim:
                    assert got["gl"][key][0] is tgt, (spec, member, key)


@pytest.mark.parametrize("spec", ["1", "2", "2,1", "3,1", "2,2", "3,2,1", "3,1,1"])
def test_cohomology_row_eliminates_each_tower_step_once(monkeypatch, spec):
    # the Young recipe reads member 1's gl tower and the other checks its
    # sl one; off (0, 0) a source block is the same in both, and its image
    # [x, src] is eliminated once for the two
    from nilpair import cohomology, surveys

    sources, ambients = [], set()
    original_image, original_steps = cohomology.ad_image, cohomology.tower_steps

    def image(x, src):
        if src.dim:
            sources.append((x, src))  # kept alive, so ids are not reused
        return original_image(x, src)

    def steps(pair, h, member, ambient="sl"):
        ambients.add((member, ambient))
        return original_steps(pair, h, member, ambient)

    monkeypatch.setattr(cohomology, "ad_image", image)
    monkeypatch.setattr(cohomology, "tower_steps", steps)
    assert surveys.cohomology_checks(parse(spec))["ok"]
    assert {(1, "gl"), (1, "sl"), (2, "sl")} <= ambients
    assert len({(id(x), id(src)) for x, src in sources}) == len(sources)


@pytest.mark.parametrize(
    "check",
    [
        h1_dims,
        coker_formula_check,
        generating_polys,
        slice_report,
        weak_lefschetz_report,
        exponent_sums_check,
    ],
    ids=lambda f: f.__name__,
)
def test_graded_checks_without_a_grading_raise(check):
    # a pair with no diagram has no grading to default to
    pair, h = build_pair(parse("2,1"))
    bare = NilPair(pair.e1, pair.e2)
    with pytest.raises(ClassificationError, match="no grading pair available"):
        check(bare)
    check(bare, h)
