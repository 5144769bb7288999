from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilpair.cohomology import slice_basis, slice_samples
from nilpair.diagrams import ShapeClass, enumerate_diagrams, parse, subset_pairs
from nilpair.linalg import (
    EchelonBasis,
    Matrix,
    Subspace,
    bracket,
    entries,
    kernel_in,
    matmul,
    relations,
)
from nilpair.modules import PairAction, grassmannian_limit, limit_space
from nilpair.pairs import (
    HypothesisError,
    NilPair,
    ShapeError,
    abelian_check,
    ad,
    ad_image,
    ad_matrix,
    bigraded_pieces,
    biexponents,
    build_pair,
    centralizer,
    centralizer_bigraded,
    classify_pair,
    direct_sum,
    is_nilpotent_family,
    member_kernels,
    monomial_basis_check,
    provenance_grading,
    shift_basis_check,
    weak_lefschetz_report,
)
from test_linalg import (
    mat_apply,
    mat_flatten,
    mat_is_nilpotent,
    mat_is_zero,
    mat_pow,
    mat_rank,
    mat_trace,
    mat_unflatten,
)


def graded_kernels(pair, h, ambient="sl"):
    """K1 = ker [e1, .], K2 = ker [e2, .] and their joint kernel K12 on each
    bigraded piece, as three dicts {(p, q): Subspace}, nonzero kernels
    only: member_kernels for the first two, centralizer_bigraded for K12."""
    return (
        member_kernels(pair, h, 1, ambient),
        member_kernels(pair, h, 2, ambient),
        centralizer_bigraded(pair, h, ambient),
    )


def trace_row(n):
    """The trace of a flattened n x n matrix, as a dense row."""
    return tuple(1 if i % (n + 1) == 0 else 0 for i in range(n * n))


def joint_centralizer(x1, x2, extra_rows=()):
    """Dense reference: the common kernel of ad x1 and ad x2 on flattened
    matrices, cut by the extra linear conditions given as rows, from the
    stacked ad_matrix rows and Matrix.kernel."""
    rows = list(ad_matrix(x1).data) + list(ad_matrix(x2).data) + list(extra_rows)
    return Matrix(rows).kernel()


def test_build_single_row():
    pair, h = build_pair(parse("3"))
    assert mat_unflatten(pair.e1, 3) == Matrix([[0, 0, 0], [1, 0, 0], [0, 1, 0]])
    assert mat_is_zero(mat_unflatten(pair.e2, 3))
    assert h.h1 == (0, 1, 2)
    assert h.h2 == (0, 0, 0)


def test_build_hook_entries():
    pair, h = build_pair(parse("2,1"))
    e1, e2 = mat_unflatten(pair.e1, 3), mat_unflatten(pair.e2, 3)
    nz1 = [(i, j) for i in range(3) for j in range(3) if e1.data[i][j]]
    nz2 = [(i, j) for i in range(3) for j in range(3) if e2.data[i][j]]
    assert nz1 == [(1, 0)] and nz2 == [(2, 0)]
    assert h.h1 == (0, 1, 0) and h.h2 == (0, 0, 1)


def test_build_rejects_disconnected():
    with pytest.raises(ShapeError):
        build_pair(parse("(0,0);(2,0)"))


def test_centralizer_hook_dims():
    pair, h = build_pair(parse("2,1"))
    z_sl = centralizer(pair, "sl")
    assert z_sl.dim == 2
    assert z_sl.contains(pair.e1)
    assert z_sl.contains(pair.e2)
    assert centralizer(pair, "gl").dim == 3


def test_centralizer_blockwise_matches_global():
    for spec in ("2,1", "2,2", "3,1", "3,2/1"):
        pair, h = build_pair(parse(spec))
        rows = (
            list(ad_matrix(mat_unflatten(pair.e1, pair.n)).data)
            + list(ad_matrix(mat_unflatten(pair.e2, pair.n)).data)
            + [trace_row(pair.n)]
        )
        assert centralizer(pair, "sl", h=h) == Matrix(rows).kernel()


def test_rotated_hook_is_principal():
    # the shape (2,2)/(1) is a translated minus-Young diagram; its pair is
    # regular with a positive-quadrant centralizer
    pair, h = build_pair(parse("2,2/1"))
    assert centralizer(pair, "sl").dim == 2
    assert classify_pair(pair, h) == "principal"


def test_strict_skew_is_distinguished():
    pair, h = build_pair(parse("3,2/1"))
    assert centralizer(pair, "sl").dim > pair.n - 1
    assert classify_pair(pair, h) == "distinguished"


def test_direct_sum_of_hooks_is_nil_pair():
    p1, h1 = build_pair(parse("2,1"))
    p2, h2 = build_pair(parse("2,1"))
    pair, h = direct_sum([(p1, h1), (p2, h2)])
    assert classify_pair(pair, h) == "nil_pair"
    assert not is_nilpotent_family(centralizer(pair, "sl", h=None), pair.n)


def _dense_is_nilpotent_family(space, n):
    """Dense reference for is_nilpotent_family: the same closure rounds on
    Matrix products, then Matrix.is_nilpotent on each closed row."""
    basis = [mat_unflatten(v, n) for v in space.basis]
    ech = EchelonBasis()
    for v in space.basis:
        ech.add(v)
    current = list(basis)
    for _ in range(n):
        new_mats = []
        for a in current:
            for b in basis:
                m = a * b
                if ech.add(mat_flatten(m)):
                    new_mats.append(m)
        if not new_mats:
            break
        current = new_mats
    closed = [mat_unflatten(v, n) for v in ech.rows.values()]
    return all(mat_is_nilpotent(m) for m in closed)


def _shapes_up_to(max_boxes):
    for n in range(1, max_boxes + 1):
        yield from enumerate_diagrams(n, ShapeClass.YOUNG)
        if n >= 2:
            yield from enumerate_diagrams(n, ShapeClass.SKEW)


def test_is_nilpotent_family_matches_dense_reference():
    # the sl and gl centralizers of every shape up to 6 boxes; the gl ones
    # hold the identity, so there the answer is False
    verdicts = set()
    for d in _shapes_up_to(6):
        pair, h = build_pair(d)
        for ambient in ("sl", "gl"):
            z = centralizer(pair, ambient, h=h)
            got = is_nilpotent_family(z, pair.n)
            assert got == _dense_is_nilpotent_family(z, pair.n), (d, ambient)
            verdicts.add((ambient, got))
    assert verdicts == {("sl", True), ("gl", False)}
    # span{E12, E21} in gl_2 closes to all of gl_2; the Cartan of gl_3 is
    # closed and holds non-nilpotent diagonals
    e12, e21 = Matrix.unit(2, 0, 1), Matrix.unit(2, 1, 0)
    cartan = [mat_flatten(Matrix.unit(3, i, i)) for i in range(3)]
    for space, n in (
        (Subspace(4, [mat_flatten(e12), mat_flatten(e21)]), 2),
        (Subspace(4, [mat_flatten(e12)]), 2),
        (Subspace(9, cartan), 3),
        (Subspace(9, [cartan[0]]), 3),
        (Subspace.zero(9), 3),
    ):
        assert is_nilpotent_family(space, n) == _dense_is_nilpotent_family(space, n)
    assert is_nilpotent_family(Subspace(4, [mat_flatten(e12)]), 2)
    assert not is_nilpotent_family(Subspace(4, [mat_flatten(e12), mat_flatten(e21)]), 2)


def test_bigrade_gl3_hook_dims():
    # frozen oracle: count box-coordinate differences of the hook by hand
    pair, h = build_pair(parse("2,1"))
    dims = {k: sp.dim for k, sp in bigraded_pieces(h, "gl").items()}
    assert dims == {
        (0, 0): 3,
        (1, 0): 1,
        (-1, 0): 1,
        (0, 1): 1,
        (0, -1): 1,
        (1, -1): 1,
        (-1, 1): 1,
    }


def test_bigrade_centralizer_hook():
    pair, h = build_pair(parse("2,1"))
    blocks = centralizer_bigraded(pair, h, "sl")
    assert {k: sp.dim for k, sp in blocks.items()} == {(1, 0): 1, (0, 1): 1}
    # the blocks are the centralizer's intersections with the pieces
    z = centralizer(pair, "sl")
    for key, piece in bigraded_pieces(h, "sl").items():
        assert z.intersect(piece) == blocks.get(key, Subspace.zero(9))


def test_biexponents_hook_row_and_square():
    pair, h = build_pair(parse("2,1"))
    assert biexponents(pair, h) == ((0, 1), (1, 0))
    pair, h = build_pair(parse("3"))
    assert biexponents(pair, h) == ((1, 0), (2, 0))
    pair, h = build_pair(parse("2,2"))
    assert biexponents(pair, h) == ((0, 1), (1, 0), (1, 1))


def test_biexponents_match_boxes_for_young():
    for n in range(2, 7):
        for d in enumerate_diagrams(n, ShapeClass.YOUNG):
            pair, h = build_pair(d)
            expected = tuple(sorted(b for b in d.boxes if b != (0, 0)))
            assert biexponents(pair, h) == expected


def test_biexponents_transpose_duality():
    for spec in ("3,1", "2,2,1"):
        d = parse(spec)
        p1, h1 = build_pair(d)
        p2, h2 = build_pair(d.transpose())
        assert biexponents(p2, h2) == tuple(
            sorted((q, p) for p, q in biexponents(p1, h1))
        )


def test_monomial_basis_check():
    for spec in ("2,1", "3,2"):
        pair, _ = build_pair(parse(spec))
        assert monomial_basis_check(pair)
    with pytest.raises(ShapeError):
        monomial_basis_check(build_pair(parse("3,2/1"))[0])


def test_shift_basis_hook():
    checks = shift_basis_check(build_pair(parse("2,1"))[0])
    ok, count = checks[(1, 0)]
    assert ok and count == 1
    ok, count = checks[(0, 1)]
    assert ok and count == 1


def test_shift_basis_single_row_vertical_empty():
    ok, count = shift_basis_check(build_pair(parse("3"))[0])[(0, 1)]
    assert ok and count == 0


def test_shift_basis_strict_skew_every_bidegree():
    pair, h = build_pair(parse("3,2/1"))
    checks = shift_basis_check(pair)
    blocks = centralizer_bigraded(pair, h, "gl")
    for (p, q), sp in blocks.items():
        if p >= 0 and q >= 0:
            ok, count = checks[(p, q)]
            assert ok and count == sp.dim


def _shift_basis_reference(pair, h, p, q):
    """(ok, dim) for one shift, from subset_pairs and the gl centralizer."""
    d, n = pair.provenance, pair.n
    index = {box: i for i, box in enumerate(d.boxes)}
    vecs = [
        {index[(i + p, j + q)] * n + index[(i, j)]: 1 for (i, j) in sp.nu_in}
        for sp in subset_pairs(d, p, q)
    ]
    span = Subspace(n * n, vecs)
    comp = centralizer_bigraded(pair, h, "gl").get((p, q), Subspace.zero(n * n))
    return span == comp, span.dim


def test_shift_basis_check_matches_the_per_shift_reference():
    # one pass over the diagram's subset pairs gives, shift by shift, what
    # the per-shift view subset_pairs and the gl centralizer give, on every
    # Young and skew shape up to 6 boxes; each of them passes every shift
    shapes = shifts = 0
    for d in _shapes_up_to(6):
        pair, h = build_pair(d)
        pmax = max(p for p, _ in d.boxes)
        qmax = max(q for _, q in d.boxes)
        want = {
            (p, q): _shift_basis_reference(pair, h, p, q)
            for p in range(pmax + 2)
            for q in range(qmax + 2)
        }
        got = shift_basis_check(pair)
        assert list(got.items()) == list(want.items()), d
        assert all(ok for ok, _ in got.values()), d
        shapes += 1
        shifts += len(got)
    assert (shapes, shifts) == (67, 362 + 670)


def test_weak_lefschetz_young_passes():
    for spec in ("2,1", "3", "2,2"):
        pair, h = build_pair(parse(spec))
        assert all(rec["ok"] for rec in weak_lefschetz_report(pair, h))


def test_weak_lefschetz_fails_for_strict_skew():
    pair, h = build_pair(parse("3,2/1"))
    assert any(not rec["ok"] for rec in weak_lefschetz_report(pair, h))


# parabolic tangent-space checks: no suite reports them, so they live with
# their tests


def levi_subalgebra(h, which, pieces=None):
    """g^1 (commutant of h2) or g^2 (commutant of h1) inside trace-zero gl."""
    pieces = pieces or bigraded_pieces(h, ambient="sl")
    vecs = []
    for (p, q), sp in pieces.items():
        if (which == 1 and q == 0) or (which == 2 and p == 0):
            vecs.extend(sp.basis)
    return Subspace(h.n**2, vecs)


def center_of(space, n):
    """Center of a matrix subalgebra given as a subspace: the elements of the
    space whose bracket with every basis element vanishes."""
    # constraint on coefficients c, for each basis element m:
    # sum_j c_j [m, b_j] = 0
    nn = n * n
    return kernel_in(
        space,
        [
            {
                i * nn + k: x
                for i, m in enumerate(space.basis)
                for k, x in ad(m, v, n).items()
            }
            for v in space.basis
        ],
    )


def lie_closure(vectors, n):
    """Span closure of a set of matrices under the bracket."""
    ech = EchelonBasis()
    frontier = [v for v in vectors if ech.add(v)]
    base = list(frontier)
    while frontier:
        new = []
        for a in frontier:
            for b in base:
                w = ad(a, b, n)
                if ech.add(w):
                    new.append(w)
        base.extend(new)
        frontier = new
    return Subspace.canonical(n * n, ech.rows.values())


def parabolic_checks(pair, h=None):
    """Tangent-space density and generation checks for the two Levi pieces."""
    if h is None:
        h = provenance_grading(pair)
    n = pair.n
    pieces = bigraded_pieces(h, ambient="sl")
    g1 = levi_subalgebra(h, 1, pieces)
    g2 = levi_subalgebra(h, 2, pieces)

    def row_span(which_p):
        vecs = []
        for (p, q), sp in pieces.items():
            if (which_p == "p1" and p == 1) or (which_p == "q1" and q == 1):
                vecs.extend(sp.basis)
        return Subspace(n * n, vecs)

    bracket_e1_g2 = ad_image(pair.e1, g2)
    bracket_e2_g1 = ad_image(pair.e2, g1)
    c1 = center_of(g1, n)
    c2 = center_of(g2, n)
    checks = {
        "e1_in_degree_1_0": pieces.get((1, 0), Subspace.zero(n * n)).contains(
            pair.e1
        ),
        "e2_in_degree_0_1": pieces.get((0, 1), Subspace.zero(n * n)).contains(
            pair.e2
        ),
        "bracket_e1_levi2_fills_row": bracket_e1_g2 == row_span("p1"),
        "bracket_e2_levi1_fills_row": bracket_e2_g1 == row_span("q1"),
        "centers_meet_trivially": c1.intersect(c2).dim == 0,
        "levis_generate": lie_closure(list(g1.basis) + list(g2.basis), n).dim
        == n * n - 1,
    }
    checks["ok"] = all(bool(v) for v in checks.values())
    return checks


def test_parabolic_checks():
    for spec in ("2,1", "2,2", "4"):
        pair, h = build_pair(parse(spec))
        assert parabolic_checks(pair, h)["ok"]


def test_centralizer_abelian_and_nilpotent_for_young():
    for n in range(2, 6):
        for d in enumerate_diagrams(n, ShapeClass.YOUNG):
            pair, _ = build_pair(d)
            z = centralizer(pair, "sl")
            assert abelian_check(z, pair.n)
            assert is_nilpotent_family(z, pair.n)


def test_limit_of_cartan_is_centralizer():
    for spec in ("2,1", "2,2", "3,1"):
        pair, h = build_pair(parse(spec))
        n = pair.n
        cartan = Subspace(
            n * n, [mat_flatten(Matrix.unit(n, i, i)) for i in range(n)]
        )
        lim = limit_space(PairAction.adjoint(pair), cartan)
        assert lim == centralizer(pair, "gl")


def test_limit_of_mixed_centralizer():
    pair, h = build_pair(parse("2,1"))
    n = pair.n
    h1m = Matrix.diagonal(h.h1)
    rows = list(ad_matrix(h1m).data)
    rows += list(ad_matrix(mat_unflatten(pair.e2, n)).data)
    z_h1_e2 = Matrix(rows).kernel()
    lim = limit_space(PairAction.adjoint(pair), z_h1_e2)
    assert lim == centralizer(pair, "gl")


def test_limit_fixes_centralizer():
    pair, _ = build_pair(parse("2,1"))
    z = centralizer(pair, "gl")
    assert limit_space(PairAction.adjoint(pair), z) == z


# -- limits on the sparse towers against the dense matrix-power reference ---


def _dense_nilpotency_index(op):
    m = Matrix.identity(op.rows)
    k = 0
    while not mat_is_zero(m):
        m = m * op
        k += 1
        if k > op.rows + 1:
            raise ValueError("operator is not nilpotent")
    return k


def _dense_bifiltration(ops, i, j, ambient_dim):
    """F_{i,j} = ker(A^{i+1} B^j) cap ker(A^i B^{j+1}) on the whole space,
    with F_{-1,j} = ker B^j and F_{i,-1} = ker A^i."""
    A, B = ops
    if (i == -1 and j <= 0) or (j == -1 and i <= 0):
        return Subspace.zero(ambient_dim)
    if i == -1:
        return mat_pow(B, j).kernel()
    if j == -1:
        return mat_pow(A, i).kernel()
    rows = list((mat_pow(A, i + 1) * mat_pow(B, j)).data)
    rows += list((mat_pow(A, i) * mat_pow(B, j + 1)).data)
    return Matrix(rows).kernel()


def _dense_limit_space(ops, E):
    """The direct sum of the A^i B^j images of the pieces F_{i,j} cap E, from
    dense powers and full-space kernels intersected with E."""
    A, B = ops
    N = E.ambient_dim
    dims, vecs = [], []
    for i in range(_dense_nilpotency_index(A) + 1):
        for j in range(_dense_nilpotency_index(B) + 1):
            fij = _dense_bifiltration(ops, i, j, N).intersect(E)
            below = _dense_bifiltration(ops, i - 1, j, N).intersect(
                E
            ) + _dense_bifiltration(ops, i, j - 1, N).intersect(E)
            if fij.dim - below.dim <= 0:
                continue
            op = mat_pow(A, i) * mat_pow(B, j)
            img = Subspace(N, [mat_apply(op, _dense(v, N)) for v in fij.basis])
            dims.append(img.dim)
            vecs.extend(img.basis)
    out = Subspace(N, vecs)
    if out.dim != sum(dims) or out.dim != E.dim:
        raise HypothesisError("direct sum hypothesis fails for this subspace")
    return out


def _dense(row, dim):
    """A sparse row as a dense tuple of length dim."""
    return tuple(row.get(i, 0) for i in range(dim))


def _limit_outcome(limit, ops, E):
    try:
        return limit(ops, E)
    except HypothesisError:
        return HypothesisError


def _cartan(n):
    return Subspace(n * n, [mat_flatten(Matrix.unit(n, i, i)) for i in range(n)])


def _lower_triangular(n):
    units = [mat_flatten(Matrix.unit(n, a, b)) for a in range(n) for b in range(a + 1)]
    return Subspace(n * n, units)


@pytest.mark.parametrize(
    "d",
    [
        d
        for n in range(1, 5)
        for cls in (ShapeClass.YOUNG, ShapeClass.SKEW)
        for d in enumerate_diagrams(n, cls)
    ],
    ids=lambda d: d.serialize(),
)
def test_limit_space_matches_dense_reference(d):
    pair, _ = build_pair(d)
    action = PairAction.adjoint(pair)
    ops = tuple(ad_matrix(mat_unflatten(x, pair.n)) for x in (pair.e1, pair.e2))
    for E in (_cartan(pair.n), _lower_triangular(pair.n)):
        assert _limit_outcome(limit_space, action, E) == _limit_outcome(
            _dense_limit_space, ops, E
        )


def test_grassmannian_limit_matches_limit_space_on_cartans():
    for n in range(1, 7):
        for d in enumerate_diagrams(n, ShapeClass.YOUNG):
            pair, _ = build_pair(d)
            action = PairAction.adjoint(pair)
            cartan = _cartan(pair.n)
            assert grassmannian_limit(action, cartan) == limit_space(action, cartan), d


def test_classify_examples():
    assert classify_pair(*build_pair(parse("2,1"))) == "principal"
    assert classify_pair(*build_pair(parse("4"))) == "principal"


def test_classify_invalid_noncommuting():
    from nilpair.pairs import NilPair

    a = mat_flatten(Matrix([[0, 1, 0], [0, 0, 1], [0, 0, 0]]))
    b = mat_flatten(Matrix([[0, 0, 0], [1, 0, 0], [0, 0, 0]]))
    with pytest.raises(ValueError):
        NilPair(a, b)
    pair = NilPair(a, b, check=False)
    assert classify_pair(pair) == "invalid"
    # members are flattened n x n matrices of one size
    for bad in ((a[:8], a[:8]), (a, a[:4]), (a[:4], a)):
        for check in (True, False):
            with pytest.raises(ValueError, match="square of equal size"):
                NilPair(*bad, check=check)


def test_ad_map_between_rejects_wrong_target():
    from nilpair.pairs import StabilityError, ad_map_between

    pair, h = build_pair(parse("2,1"))
    pieces = bigraded_pieces(h, "gl")
    target = pieces[(1, 0)]
    images = ad_map_between(pair.e1, pieces[(0, 0)], target)
    # rank one: the images are keyed by the target's pivots
    assert all(set(v) <= set(target.pivots) for v in images)
    assert len(images) - relations(images).dim == 1
    with pytest.raises(StabilityError):
        ad_map_between(pair.e1, pieces[(0, 0)], pieces[(0, 1)])


@pytest.mark.parametrize("ambient", ["sl", "gl"])
def test_graded_kernels_reject_a_grading_of_another_pair(ambient):
    from nilpair.pairs import SemisimplePair, StabilityError, member_kernels

    pair, h = build_pair(parse("2,1"))
    swapped = SemisimplePair(h.h2, h.h1)
    with pytest.raises(StabilityError):
        graded_kernels(pair, swapped, ambient)
    with pytest.raises(StabilityError):
        centralizer_bigraded(pair, swapped, ambient)
    # doubling h2 keeps e1 of bidegree (1, 0) but gives e2 (0, 2): K1 is
    # built, and K12, which brackets e2 on the K1 blocks only, still refuses
    stretched = SemisimplePair(h.h1, [2 * q for q in h.h2])
    assert member_kernels(pair, stretched, 1, ambient)
    with pytest.raises(StabilityError):
        centralizer_bigraded(pair, stretched, ambient)
    with pytest.raises(StabilityError):
        member_kernels(pair, stretched, 2, ambient)
    # (e1, e1^2) on the row (4) with the row's grading: e1^2 has bidegree
    # (2, 0) and commutes with every K1 block (the powers of e1), so only
    # the entrywise bidegree check can refuse it, as the stacked kernel did
    row, h = build_pair(parse("4"))
    square = matmul(row.e1, row.e1, row.n)
    other = NilPair(row.e1, [square.get(k, 0) for k in range(row.n**2)])
    assert member_kernels(other, h, 1, ambient)
    with pytest.raises(StabilityError):
        _stacked_joint_kernels(other, h, ambient)
    with pytest.raises(StabilityError):
        centralizer_bigraded(other, h, ambient)


def _stacked_joint_kernels(pair, h, ambient):
    """Reference for K12: on every whole piece, the kernel of the images of
    e1 and e2 side by side, the second keyed n^2 + pivot."""
    from nilpair.linalg import kernel_in, shifted
    from nilpair.pairs import ad_map_between

    pieces = bigraded_pieces(h, ambient)
    nn = pair.n**2
    zero = Subspace.zero(nn)
    out = {}
    for (p, q), piece in pieces.items():
        im1 = ad_map_between(pair.e1, piece, pieces.get((p + 1, q), zero))
        im2 = ad_map_between(pair.e2, piece, pieces.get((p, q + 1), zero))
        kern = kernel_in(piece, [{**a, **shifted(b, nn)} for a, b in zip(im1, im2)])
        if kern.dim:
            out[(p, q)] = kern
    return out


def test_joint_kernels_match_the_stacked_reference():
    # K12 from the K1 blocks equals the stacked joint kernel on every Young
    # and skew shape up to 6 boxes, block by block, in both ambients
    shapes = 0
    for d in _shapes_up_to(6):
        pair, h = build_pair(d)
        for ambient in ("sl", "gl"):
            got = centralizer_bigraded(pair, h, ambient)
            assert got == _stacked_joint_kernels(pair, h, ambient), (
                d.serialize(),
                ambient,
            )
        shapes += 1
    assert shapes == 67


def _coordinate_member_kernels(x, step, h, ambient, blocks=None):
    """Reference for the graded kernels: on each piece of h (or each of the
    given blocks), the kernel of [x, .] with every image read in the
    coordinates of the piece `step` further on, through ad_map_between,
    which raises StabilityError for an image that leaves it."""
    from nilpair.linalg import kernel_in
    from nilpair.pairs import ad_map_between

    pieces = bigraded_pieces(h, ambient)
    zero = Subspace.zero(len(x))
    out = {}
    for (p, q), src in (pieces if blocks is None else blocks).items():
        target = pieces.get((p + step[0], q + step[1]), zero)
        kern = kernel_in(src, ad_map_between(x, src, target))
        if kern.dim:
            out[(p, q)] = kern
    return out


def _kernels_or_refusal(build):
    from nilpair.pairs import StabilityError

    try:
        return build()
    except StabilityError:
        return "refused"


def test_graded_kernels_match_the_coordinate_route():
    # K1, K2 and K12 from ambient-keyed images equal the target-coordinate
    # route on every Young and skew shape up to 6 boxes, in both ambients,
    # for the pair's own grading, the swapped one and h2 doubled; the two
    # routes refuse the same gradings
    from nilpair.pairs import SemisimplePair

    def coordinate_route(pair, g, ambient):
        k1 = _coordinate_member_kernels(pair.e1, (1, 0), g, ambient)
        k2 = _kernels_or_refusal(
            lambda: _coordinate_member_kernels(pair.e2, (0, 1), g, ambient)
        )
        k12 = _kernels_or_refusal(
            lambda: _coordinate_member_kernels(pair.e2, (0, 1), g, ambient, k1)
        )
        return k1, k2, k12

    def indexed_route(pair, g, ambient):
        return (
            member_kernels(pair, g, 1, ambient),
            _kernels_or_refusal(lambda: member_kernels(pair, g, 2, ambient)),
            _kernels_or_refusal(lambda: centralizer_bigraded(pair, g, ambient)),
        )

    shapes, outcomes = 0, set()
    for d in _shapes_up_to(6):
        pair, h = build_pair(d)
        gradings = [
            h,
            SemisimplePair(h.h2, h.h1),
            SemisimplePair(h.h1, [2 * q for q in h.h2]),
        ]
        for g in gradings:
            for ambient in ("sl", "gl"):
                want = _kernels_or_refusal(lambda: coordinate_route(pair, g, ambient))
                got = _kernels_or_refusal(lambda: indexed_route(pair, g, ambient))
                assert got == want, (d.serialize(), g, ambient)
                if want == "refused":
                    outcomes.add(want)
                else:
                    outcomes.add(tuple(k == "refused" for k in want))
        shapes += 1
    assert shapes == 67
    assert outcomes == {"refused", (False, False, False), (False, True, True)}


def _direct_sl_pieces(h):
    """Reference for the trace-zero pieces, built straight in sl: the
    matrix units of each bidegree, with the (0, 0) piece cut by the trace
    hyperplane."""
    from nilpair.pairs import traceless_cut

    n = h.n
    groups = {}
    for i in range(n):
        for j in range(n):
            groups.setdefault(h.bidegree(i, j), []).append(i * n + j)
    pieces = {}
    for key, idxs in groups.items():
        sp = Subspace.canonical(n * n, [{idx: 1} for idx in idxs])
        pieces[key] = traceless_cut(sp) if key == (0, 0) else sp
    return pieces


def _direct_sl_kernels(x, step, h, blocks=None):
    """Reference for the sl graded kernels, built straight in sl: the
    kernel of [x, .] on each trace-zero piece of h (or on each of the given
    blocks), nonzero kernels only; StabilityError unless every entry of x
    has bidegree `step`."""
    from nilpair.pairs import StabilityError, ad_each

    n = h.n
    if any(x[k] and h.bidegree(*divmod(k, n)) != step for k in range(n * n)):
        raise StabilityError("the member is not homogeneous for this bigrading")
    out = {}
    for key, piece in (_direct_sl_pieces(h) if blocks is None else blocks).items():
        kern = kernel_in(piece, ad_each(x, piece.basis, n))
        if kern.dim:
            out[key] = kern
    return out


def test_sl_kernels_are_the_trace_cut_of_the_gl_ones():
    # the sl pieces, K1, K2 and K12, cut from the gl ones, equal the direct
    # sl build row for row and in key order, on every Young and skew shape
    # up to 6 boxes under its own grading, the swapped one and h2 doubled,
    # on the single box and under half-integral gradings; the two builds
    # refuse the same gradings, and every sl block off (0, 0) is the gl one
    from nilpair.pairs import SemisimplePair

    def direct(pair, g):
        k1 = _direct_sl_kernels(pair.e1, (1, 0), g)
        k2 = _kernels_or_refusal(lambda: _direct_sl_kernels(pair.e2, (0, 1), g))
        k12 = _kernels_or_refusal(
            lambda: _direct_sl_kernels(pair.e2, (0, 1), g, k1)
        )
        return k1, k2, k12

    def cut(pair, g, ambient):
        return (
            member_kernels(pair, g, 1, ambient),
            _kernels_or_refusal(lambda: member_kernels(pair, g, 2, ambient)),
            _kernels_or_refusal(lambda: centralizer_bigraded(pair, g, ambient)),
        )

    def ordered(result):
        if result == "refused":
            return result
        return [r if r == "refused" else list(r.items()) for r in result]

    cases = []
    for d in _shapes_up_to(6):
        pair, h = build_pair(d)
        cases.extend(
            (pair, g)
            for g in (
                h,
                SemisimplePair(h.h2, h.h1),
                SemisimplePair(h.h1, [2 * q for q in h.h2]),
            )
        )
    assert len(cases) == 3 * 67
    box, box_h = build_pair(parse("1"))
    cases.append((box, box_h))
    half = Fraction(1, 2)
    row, h = build_pair(parse("3"))
    cases.append((row, SemisimplePair([x + half for x in h.h1], h.h2)))
    # on the hook, h1 = (0, 1, 1/2) keeps e1 of bidegree (1, 0) and gives
    # pieces of bidegree (+-1/2, +-1); e2 is refused
    hook, h = build_pair(parse("2,1"))
    cases.append((hook, SemisimplePair([0, 1, half], h.h2)))
    outcomes, shared = set(), 0
    for pair, g in cases:
        record = pair.graded(g)
        sl_pieces, gl_pieces = record.pieces("sl"), record.pieces("gl")
        assert list(sl_pieces.items()) == list(_direct_sl_pieces(g).items())
        for ambient, pieces in (("sl", sl_pieces), ("gl", gl_pieces)):
            assert list(pieces.items()) == list(bigraded_pieces(g, ambient).items())
        want = _kernels_or_refusal(lambda: direct(pair, g))
        got = _kernels_or_refusal(lambda: cut(pair, g, "sl"))
        assert ordered(got) == ordered(want), (pair.provenance, g)
        outcomes.add(
            want if want == "refused" else tuple(k == "refused" for k in want)
        )
        sides = [(sl_pieces, gl_pieces)]
        if got != "refused":
            sides.extend(zip(got, cut(pair, g, "gl")))
        for sl, gl in sides:
            if sl == "refused":
                continue
            for key, block in sl.items():
                if key != (0, 0):
                    assert block is gl[key]
                    shared += 1
    assert outcomes == {"refused", (False, False, False), (False, True, True)}
    assert shared > 1000
    # the single box keeps its zero sl piece and has no nonzero sl kernel
    assert bigraded_pieces(box_h, "sl")[(0, 0)].dim == 0
    assert box.graded(box_h).pieces("sl")[(0, 0)].dim == 0
    assert member_kernels(box, box_h, 1, "sl") == {}


def _eliminated_blocks(x, blocks, n):
    """Reference for the graded kernels of monomial members: the kernel of
    [x, .] on each block by elimination (kernel_in), nonzero kernels only."""
    from nilpair.pairs import ad_each

    out = {}
    for key, block in blocks.items():
        kern = kernel_in(block, ad_each(x, block.basis, n))
        if kern.dim:
            out[key] = kern
    return out


def _conjugated(pair, h, weights):
    """D e D^-1 for both members, D = diag(weights): a monomial pair that h
    still grades, with the weights' ratios as its entries."""
    n = pair.n

    def conj(m):
        return [x * Fraction(weights[k // n]) / weights[k % n] for k, x in enumerate(m)]

    return NilPair(conj(pair.e1), conj(pair.e2)), h


def _forest_cases():
    """Every Young shape up to 8 boxes and skew shape up to 7, each pair and
    its swap, one direct sum, every shape up to 6 boxes conjugated by a
    diagonal with negative and Fraction weights, and three pairs whose
    members stop commuting when one entry is rescaled."""
    from nilpair.pairs import SemisimplePair

    young = [d for n in range(1, 9) for d in enumerate_diagrams(n, ShapeClass.YOUNG)]
    skew = [d for n in range(2, 8) for d in enumerate_diagrams(n, ShapeClass.SKEW)]
    for d in young + skew:
        pair, h = build_pair(d)
        yield pair, h
        # the swap's own diagram lists its boxes in another order, so its
        # grading is h with the diagonals exchanged
        yield pair.swap(), SemisimplePair(h.h2, h.h1)
    yield direct_sum([build_pair(parse(s)) for s in ("3,1", "2", "2,2/1")])
    for d in _shapes_up_to(6):
        pair, h = build_pair(d)
        weights = [Fraction((-1) ** i * (i + 2), 3 - i % 2) for i in range(pair.n)]
        yield _conjugated(pair, h, weights)
    # e2 with its last entry rescaled no longer commutes with e1, so K12
    # meets cycles of ties whose ratios disagree
    for spec in ("3,3", "3,3,3", "4,4"):
        pair, h = build_pair(parse(spec))
        last = max(k for k, x in enumerate(pair.e2) if x)
        for c in (2, Fraction(-1, 2)):
            e2 = [x * c if k == last else x for k, x in enumerate(pair.e2)]
            yield NilPair(pair.e1, e2, check=False), h


def test_forest_kernels_match_elimination(monkeypatch):
    # K1, K2 and K12 of monomial pairs, read off the union-find, equal the
    # elimination route block for block and in key order, in gl and in sl;
    # a gl block that fills its piece (its K1 block, for K12) is that piece
    from nilpair import pairs

    calls = []

    def counted(piece, images):
        calls.append(piece)
        return kernel_in(piece, images)

    cases = fractional = 0
    for pair, h in _forest_cases():
        n = pair.n
        g = pair.graded(h)
        pieces = g.pieces("gl")
        k1 = _eliminated_blocks(pair.e1, pieces, n)
        want = {
            "K1": k1,
            "K2": _eliminated_blocks(pair.e2, pieces, n),
            "K12": _eliminated_blocks(pair.e2, k1, n),
        }
        monkeypatch.setattr(pairs, "kernel_in", counted)
        got = {name: g.kernels(name, "gl") for name in want}
        monkeypatch.undo()
        assert calls == []
        for name, blocks in want.items():
            assert list(got[name].items()) == list(blocks.items()), (pair.provenance, name)
            whole = got["K1"] if name == "K12" else pieces
            for key, block in got[name].items():
                assert (block is whole[key]) == (block == whole[key])
        sl_k1 = _direct_sl_kernels(pair.e1, (1, 0), h)
        sl_want = {
            "K1": sl_k1,
            "K2": _direct_sl_kernels(pair.e2, (0, 1), h),
            "K12": _direct_sl_kernels(pair.e2, (0, 1), h, sl_k1),
        }
        for name, blocks in sl_want.items():
            assert list(g.kernels(name, "sl").items()) == list(blocks.items())
        cases += 1
        rows = [r for b in got["K12"].values() for r in b.basis]
        fractional += any(isinstance(x, Fraction) for r in rows for x in r.values())
    assert cases == 2 * 181 + 1 + 67 + 6
    assert fractional > 0


def _non_monomial_pair():
    """Two copies of the hook (2,1) conjugated by 1 + E_03, which ties the
    two (0, 0) boxes: commuting, nilpotent and graded by the sum's grading,
    with two entries in row 1 of e1."""
    pair, h = direct_sum([build_pair(parse("2,1"))] * 2)
    n = pair.n
    g = Matrix.identity(n) + Matrix.unit(n, 0, 3)
    g_inv = Matrix.identity(n) - Matrix.unit(n, 0, 3)
    e1, e2 = (mat_flatten(g * mat_unflatten(m, n) * g_inv) for m in (pair.e1, pair.e2))
    return NilPair(e1, e2), h


def test_non_monomial_members_keep_the_elimination_route(monkeypatch):
    from nilpair import pairs

    pair, h = _non_monomial_pair()
    n = pair.n
    assert sum(1 for j in range(n) if pair.e1[n + j]) == 2
    calls = []

    def counted(piece, images):
        calls.append(piece)
        return kernel_in(piece, images)

    monkeypatch.setattr(pairs, "kernel_in", counted)
    g = pair.graded(h)
    pieces = g.pieces("gl")
    k1 = g.kernels("K1", "gl")
    assert len(calls) == len(pieces)
    k12 = g.kernels("K12", "gl")
    assert len(calls) == len(pieces) + len(k1)
    assert list(k1.items()) == list(_eliminated_blocks(pair.e1, pieces, n).items())
    assert list(k12.items()) == list(_eliminated_blocks(pair.e2, k1, n).items())
    k2 = g.kernels("K2", "gl")
    assert list(k2.items()) == list(_eliminated_blocks(pair.e2, pieces, n).items())
    # the blocks span the dense kernels
    e1, e2 = mat_unflatten(pair.e1, n), mat_unflatten(pair.e2, n)
    assert _span(k1, n) == ad_matrix(e1).kernel()
    assert _span(k12, n) == joint_centralizer(e1, e2)
    # with e2 = 0, monomial, K12 is K1 block for block; it is still found by
    # elimination, as these K1 rows share keys and cannot seed the forest
    lone = NilPair(pair.e1, [0] * (n * n)).graded(h)
    lone_k1 = lone.kernels("K1", "gl")
    keys = [k for b in lone_k1.values() for r in b.basis for k in r]
    assert len(keys) > len(set(keys))
    count = len(calls)
    lone_k12 = lone.kernels("K12", "gl")
    assert len(calls) == count + len(lone_k1)
    assert lone_k12.keys() == lone_k1.keys()
    assert all(lone_k12[key] is lone_k1[key] for key in lone_k1)


def test_non_homogeneous_members_are_refused_before_either_route(monkeypatch):
    from nilpair import pairs
    from nilpair.pairs import SemisimplePair, StabilityError

    def refuse(*args):
        raise AssertionError("a kernel route ran")

    monkeypatch.setattr(pairs, "kernel_in", refuse)
    monkeypatch.setattr(pairs, "_forest_blocks", refuse)
    # the swapped grading refuses both members; h1 doubled refuses e1, so
    # K1 and K12, which reads K1, while K2 is still built
    for pair, h in (build_pair(parse("3,2")), _non_monomial_pair()):
        for grading, refused in (
            (SemisimplePair(h.h2, h.h1), ("K1", "K2", "K12")),
            (SemisimplePair([2 * p for p in h.h1], h.h2), ("K1", "K12")),
        ):
            record = pair.graded(grading)
            for name in refused:
                with pytest.raises(StabilityError):
                    record.kernels(name, "gl")


def test_diagram_pairs_build_no_kernel_by_elimination(monkeypatch):
    # every diagram pair has monomial members, so its graded kernels never
    # fall back to elimination: a change that breaks that in build_pair
    # shows here, not only as a slower run
    from nilpair import pairs

    calls = []
    monkeypatch.setattr(pairs, "kernel_in", lambda *args: calls.append(args))
    shapes = 0
    for d in _shapes_up_to(7):
        g = build_pair(d)[0].graded()
        for name in ("K1", "K2", "K12"):
            g.kernels(name, "gl")
        shapes += 1
    assert shapes == 44 + 115
    assert calls == []


@st.composite
def _bracket_cases(draw):
    """(x, vectors, n): x and each v zero, sparse or dense, with int and
    Fraction entries; every v given as a dense tuple or a sparse row."""
    n = draw(st.integers(1, 5))

    def flat():
        density = draw(st.sampled_from(["zero", "sparse", "dense"]))
        if density == "zero":
            return (0,) * (n * n)
        values = _entries
        if density == "sparse":
            values = st.one_of(st.just(0), st.just(0), st.just(0), _entries)
        return tuple(draw(st.lists(values, min_size=n * n, max_size=n * n)))

    x = flat()
    vectors = []
    for _ in range(draw(st.integers(0, 4))):
        v = flat()
        if draw(st.booleans()):
            v = {k: y for k, y in enumerate(v) if y}
        vectors.append(v)
    return x, vectors, n


@given(_bracket_cases())
@settings(max_examples=200, deadline=None)
def test_indexed_bracket_matches_ad_matrix(case):
    from nilpair.pairs import ad_each

    x, vectors, n = case
    op = ad_matrix(mat_unflatten(x, n))
    dense = [
        tuple(v.get(k, 0) for k in range(n * n)) if isinstance(v, dict) else v
        for v in vectors
    ]
    want = [{k: y for k, y in enumerate(mat_apply(op, v)) if y} for v in dense]
    x_sparse = {k: y for k, y in enumerate(x) if y}
    for got in (ad_each(x, vectors, n), ad_each(x_sparse, vectors, n)):
        assert got == want
        assert [ad(x, v, n) for v in vectors] == want
        # products of int entries stay ints
        for v, row in zip(dense, got):
            if not any(isinstance(y, Fraction) for y in x + v):
                assert all(type(y) is int for y in row.values())
    if not x_sparse:
        assert ad_each(x, vectors, n) == [{}] * len(vectors)


def test_centralizer_readers_build_no_second_member_kernel(monkeypatch):
    # biexponents, classify_pair and skew_checks read K12 only, which is
    # built from K1; no K2 block (the kernel of [e2, .]) is built for them.
    # Each pair below is new, so its record builds every kernel it reads.
    from nilpair import pairs
    from nilpair.surveys import skew_checks

    built = []
    original = pairs._kernel_blocks

    def counted(g, name):
        built.append(name)
        return original(g, name)

    monkeypatch.setattr(pairs, "_kernel_blocks", counted)
    records = []
    for spec, run in (
        ("3,2,1", biexponents),
        ("4,2,1", classify_pair),
    ):
        pair, h = build_pair(parse(spec))
        run(pair, h)
        records.append(pair.graded(h))
    skew_checks(parse("3,2/1"))
    assert sorted(built) == ["K1"] * 3 + ["K12"] * 3
    for g in records:
        assert ("K12", "sl") in g.memo and not {("K2", "gl"), ("K2", "sl")} & set(g.memo)
    # the readers of both members still get K2, once per record
    pair, h = build_pair(parse("3,2,1"))
    weak_lefschetz_report(pair, h)
    weak_lefschetz_report(pair, h)
    assert built[6:] == ["K1", "K2"]
    assert {("K2", "gl"), ("K2", "sl")} <= set(pair.graded(h).memo)


def _dense_check_grading(pair, h):
    """Four-bracket reference for the grading check: [h1, e1] = e1,
    [h2, e2] = e2 and the mixed brackets vanish."""
    from nilpair.pairs import GradingError

    h1m, h2m = Matrix.diagonal(h.h1), Matrix.diagonal(h.h2)
    e1, e2 = mat_unflatten(pair.e1, pair.n), mat_unflatten(pair.e2, pair.n)
    if not (
        bracket(h1m, e1) == e1
        and bracket(h2m, e2) == e2
        and mat_is_zero(bracket(h1m, e2))
        and mat_is_zero(bracket(h2m, e1))
    ):
        raise GradingError("the semisimple pair does not grade the nilpotent pair")


def _grades(check, pair, h):
    from nilpair.pairs import GradingError

    try:
        check(pair, h)
    except GradingError:
        return False
    return True


def test_classify_rejects_zero_grading():
    from nilpair.pairs import GradingError, SemisimplePair, _check_grading

    pair, _ = build_pair(parse("2,1"))
    with pytest.raises(GradingError):
        classify_pair(pair, SemisimplePair([0] * pair.n, [0] * pair.n))
    # the entrywise check against the four brackets: the pair's own h, h
    # with h1 and h2 swapped, and h with one h1 coordinate shifted by 1
    verdicts = set()
    for d in _shapes_up_to(5):
        pair, h = build_pair(d)
        gradings = [h, SemisimplePair(h.h2, h.h1)]
        for i in range(pair.n):
            shifted = list(h.h1)
            shifted[i] += 1
            gradings.append(SemisimplePair(shifted, h.h2))
        for g in gradings:
            want = _grades(_dense_check_grading, pair, g)
            assert _grades(_check_grading, pair, g) == want, (d, g)
            verdicts.add((g == h, want))
    assert verdicts == {(True, True), (False, True), (False, False)}


def test_biexponents_reject_non_principal():
    from nilpair.pairs import ClassificationError

    pair, h = build_pair(parse("3,2/1"))
    with pytest.raises(ClassificationError):
        biexponents(pair, h)


def test_swap_pair_swaps_biexponents():
    pair, h = build_pair(parse("3,1"))
    swapped = pair.swap()
    from nilpair.pairs import SemisimplePair

    h2 = SemisimplePair(h.h2, h.h1)
    assert biexponents(swapped, h2) == tuple(
        sorted((q, p) for (p, q) in biexponents(pair, h))
    )


def test_swapped_pairs_default_to_the_exchanged_grading():
    # the swap keeps the grading with the diagonals exchanged as its
    # provenance, so omitting h grades it as passing (h2, h1) does; each
    # side gets its own swapped pair, so no record is shared
    from nilpair.cohomology import h1_table, young_se_slice
    from nilpair.pairs import SemisimplePair

    shapes = [d for n in range(1, 8) for d in enumerate_diagrams(n, ShapeClass.YOUNG)]
    shapes += [d for n in range(2, 8) for d in enumerate_diagrams(n, ShapeClass.SKEW)]
    assert len(shapes) == 159
    for d in shapes:
        pair, h = build_pair(d)
        results = []
        for grading in (None, SemisimplePair(h.h2, h.h1)):
            swapped = pair.swap()
            verdict = classify_pair(swapped, grading)
            exps = biexponents(swapped, grading) if verdict == "principal" else None
            results.append((verdict, exps, h1_table(swapped, grading)))
        assert results[0] == results[1], d.serialize()
        assert results[0][0] == classify_pair(pair, h), d.serialize()
    # no reader of a Young diagram's box order takes the swapped pair
    swapped = build_pair(parse("3,1"))[0].swap()
    with pytest.raises(ValueError):
        young_se_slice(swapped)
    for check in (monomial_basis_check, shift_basis_check):
        with pytest.raises(ShapeError):
            check(swapped)


def test_positive_quadrant_support_of_young_centralizers():
    for n in range(2, 7):
        for d in enumerate_diagrams(n, ShapeClass.YOUNG):
            pair, h = build_pair(d)
            blocks = centralizer_bigraded(pair, h, "sl")
            assert all(p >= 0 and q >= 0 and (p, q) != (0, 0) for p, q in blocks)


def test_killing_pairing_dims():
    for spec in ("2,1", "2,2", "3,1"):
        pair, h = build_pair(parse(spec))
        dims = {k: sp.dim for k, sp in bigraded_pieces(h, "sl").items()}
        for (p, q), dim in dims.items():
            assert dims.get((-p, -q)) == dim
            # trace form pairing g_{p,q} x g_{-p,-q} nondegenerate
            a = bigraded_pieces(h, "sl")[(p, q)]
            b = bigraded_pieces(h, "sl")[(-p, -q)]
            gram = Matrix(
                [
                    [
                        mat_trace(mat_unflatten(u, pair.n) * mat_unflatten(v, pair.n))
                        for v in b.basis
                    ]
                    for u in a.basis
                ]
            )
            assert mat_rank(gram) == dim


def _span(blocks, n):
    return Subspace(n * n, [v for sp in blocks.values() for v in sp.basis])


def test_ungraded_centralizer_matches_dense_reference():
    # a pair without a Diagram provenance has no grading, so centralizer
    # takes the joint kernel of ad_columns with the trace as one more key
    for d in _shapes_up_to(5):
        pair, _ = build_pair(d)
        bare = NilPair(pair.e1, pair.e2)
        assert provenance_grading(bare) is None
        n = pair.n
        for ambient in ("sl", "gl"):
            extra = [trace_row(n)] if ambient == "sl" else []
            got = centralizer(bare, ambient)
            e1, e2 = mat_unflatten(pair.e1, n), mat_unflatten(pair.e2, n)
            assert got == joint_centralizer(e1, e2, extra), (
                d.serialize(),
                ambient,
            )
            assert got == centralizer(pair, ambient), (d.serialize(), ambient)


def test_graded_kernels_match_dense_kernels():
    for d in _shapes_up_to(5):
        pair, h = build_pair(d)
        n = pair.n
        for ambient in ("sl", "gl"):
            extra = [trace_row(n)] if ambient == "sl" else []
            k1, k2, k12 = graded_kernels(pair, h, ambient)
            e1, e2 = mat_unflatten(pair.e1, n), mat_unflatten(pair.e2, n)
            for x, blocks in ((e1, k1), (e2, k2)):
                dense = Matrix(list(ad_matrix(x).data) + extra).kernel()
                assert _span(blocks, n) == dense, (d.serialize(), ambient)
            joint = joint_centralizer(e1, e2, extra)
            assert _span(k12, n) == joint, (d.serialize(), ambient)
            assert all(sp.dim for sp in (*k1.values(), *k2.values(), *k12.values()))


_entries = st.one_of(
    st.integers(-5, 5), st.fractions(min_value=-4, max_value=4, max_denominator=3)
)


@st.composite
def _ad_cases(draw):
    """(x, v): x zero, sparse or dense with rational entries; v a flattened
    matrix mixing integer and rational entries."""
    n = draw(st.integers(1, 5))
    density = draw(st.sampled_from(["zero", "sparse", "dense"]))
    if density == "zero":
        x = Matrix.zero(n)
    else:
        entries = st.fractions(min_value=-4, max_value=4, max_denominator=3)
        if density == "sparse":
            entries = st.one_of(st.just(0), st.just(0), entries)
        row = st.lists(entries, min_size=n, max_size=n)
        x = Matrix(draw(st.lists(row, min_size=n, max_size=n)))
    v = draw(st.lists(_entries, min_size=n * n, max_size=n * n))
    return x, v


@given(_ad_cases())
@settings(max_examples=200, deadline=None)
def test_sparse_ad_matches_bracket(case):
    x, v = case
    n = x.rows
    nn = n**2
    got = ad(mat_flatten(x), v, n)
    # a sparse row of the nonzero entries, equal to the dense references
    assert all(y and type(y) is Fraction for y in got.values())
    assert _dense(got, nn) == mat_flatten(bracket(x, mat_unflatten(v, x.rows)))
    assert _dense(got, nn) == mat_apply(ad_matrix(x), v)
    # the same v as a sparse row
    assert ad(mat_flatten(x), {k: y for k, y in enumerate(v) if y}, n) == got
    # x as a sparse row, with v dense and sparse
    x_sparse = {k: y for k, y in enumerate(mat_flatten(x)) if y}
    assert ad(x_sparse, v, n) == got
    assert ad(x_sparse, {k: y for k, y in enumerate(v) if y}, n) == got


def _exact_rows(space):
    """Every entry of the space's rows is an int or a Fraction: never a
    float, never a bool."""
    return all(type(x) in (int, Fraction) for row in space.basis for x in row.values())


def test_pair_spaces_hold_exact_rationals():
    # integral entries travel as ints through the pair path; whatever they
    # meet, each stored entry stays an exact rational
    walked = 0
    for n in range(1, 6):
        shapes = [ShapeClass.YOUNG] + ([ShapeClass.SKEW] if n > 1 else [])
        for d in (d for shape in shapes for d in enumerate_diagrams(n, shape)):
            pair, h = build_pair(d)
            assert all(type(x) is int for x in pair.e1 + pair.e2)
            spaces = []
            for ambient in ("sl", "gl"):
                for kernels in graded_kernels(pair, h, ambient):
                    spaces.extend(kernels.values())
                spaces.append(centralizer(pair, ambient, h=h))
                # the ungraded route: the relations among the ad columns
                spaces.append(centralizer(NilPair(pair.e1, pair.e2), ambient))
            for quadrant in ("se", "nw"):
                mats = [m for _, m in slice_basis(pair, h, quadrant)]
                for _, x1, x2, _, zx in slice_samples(pair, h, quadrant, mats):
                    assert all(type(x) in (int, Fraction) for _, x in entries(x1))
                    assert all(type(x) in (int, Fraction) for _, x in entries(x2))
                    if zx is not None:
                        spaces.append(zx)
            assert all(_exact_rows(sp) for sp in spaces), d.serialize()
            walked += len(spaces)
    assert walked > 1000


def _fraction_keyed_pieces(h, ambient):
    """Reference pieces: every bidegree computed on Fractions, a key made of
    ints only when both entries are integral, as before the grading held
    its integral entries as ints."""
    n = h.n
    groups = {}
    for i in range(n):
        for j in range(n):
            p = Fraction(h.h1[i]) - Fraction(h.h1[j])
            q = Fraction(h.h2[i]) - Fraction(h.h2[j])
            if p.denominator == 1 and q.denominator == 1:
                key = (int(p), int(q))
            else:
                key = (p, q)
            groups.setdefault(key, []).append(i * n + j)
    pieces = {}
    for key, idxs in groups.items():
        sp = Subspace(n * n, [{k: 1} for k in idxs])
        if ambient == "sl" and key == (0, 0):
            trace = [1 if k % (n + 1) == 0 else 0 for k in range(n * n)]
            sp = sp.intersect(Subspace(n * n, Matrix([trace]).kernel().basis))
        pieces[key] = sp
    return pieces


@pytest.mark.parametrize(
    "h1, h2",
    [
        ([0, 1, 0, 1], [0, 0, 1, 1]),  # the grading of (2,2)
        ([Fraction(0), Fraction(2, 2), 0], [0, 0, Fraction(1)]),  # integral
        ([Fraction(1, 2), 0, Fraction(-1, 3)], [0, 1, 1]),  # mixed
        ([Fraction(1, 2), Fraction(3, 2)], [Fraction(1, 4), Fraction(1, 4)]),
    ],
    ids=["box-grading", "integral-fractions", "mixed", "non-integral"],
)
def test_gradings_hold_ints_and_key_pieces_by_exact_bidegree(h1, h2):
    from nilpair.pairs import SemisimplePair

    h = SemisimplePair(h1, h2)
    integral = all(Fraction(x).denominator == 1 for x in h1 + h2)
    assert h.is_integral() == integral
    # integral entries are ints; equality, hashing and the JSON form are
    # those of the all-Fraction grading
    assert all((type(x) is int) == (x.denominator == 1) for x in h.h1 + h.h2)
    as_fractions = SemisimplePair.__new__(SemisimplePair)
    object.__setattr__(as_fractions, "h1", tuple(Fraction(x) for x in h1))
    object.__setattr__(as_fractions, "h2", tuple(Fraction(x) for x in h2))
    assert h == as_fractions and hash(h) == hash(as_fractions)
    assert h.to_jsonable() == {
        "h1": [f"{Fraction(x).numerator}/{Fraction(x).denominator}" for x in h1],
        "h2": [f"{Fraction(x).numerator}/{Fraction(x).denominator}" for x in h2],
    }
    for ambient in ("gl", "sl"):
        pieces = bigraded_pieces(h, ambient)
        assert pieces == _fraction_keyed_pieces(h, ambient)
        for key in pieces:
            assert all((type(x) is int) == (x.denominator == 1) for x in key)
        n = h.n
        total = sum(sp.dim for sp in pieces.values())
        assert total == n * n - (ambient == "sl")


def test_int_and_fraction_gradings_share_one_record():
    from nilpair.pairs import SemisimplePair

    as_ints = SemisimplePair([0, 1], [0, 0])
    as_fractions = SemisimplePair([Fraction(0), Fraction(1)], [0, 0])
    assert as_ints == as_fractions and hash(as_ints) == hash(as_fractions)
    pair, _ = build_pair(parse("2"))
    assert pair.graded(as_ints) is pair.graded(as_fractions)


def test_pair_and_its_record_are_freed_together():
    # the record holds no reference back to the pair, so dropping the pair
    # frees both by reference counting alone, with the collector off
    import gc
    import weakref

    from nilpair.cohomology import coker_formula_check, slice_report

    class Probe(NilPair):
        __slots__ = ("__weakref__",)

    pair, _ = build_pair(parse("3,2,1"))
    probe = Probe(pair.e1, pair.e2, pair.provenance)
    assert coker_formula_check(probe) and slice_report(probe)["ok"]
    weak_lefschetz_report(probe)
    record = probe.graded()
    assert record is probe.graded(record.h) and len(record.memo) > 5
    refs = (weakref.ref(probe), weakref.ref(record))
    del record
    enabled = gc.isenabled()
    gc.disable()
    try:
        del probe
        assert [ref() for ref in refs] == [None, None]
    finally:
        if enabled:
            gc.enable()


def test_pair_json_writes_entries_exactly():
    # integral entries stay ints, so `pair build` output keeps its bytes;
    # the others are written exactly as "p/q" strings, never truncated
    half = NilPair((0, Fraction(1, 2), 0, 0), (0,) * 4).to_jsonable()
    assert half["e1"] == [[0, 1, "1/2"]] and half["e2"] == []
    e1 = [0, Fraction(4, 2), Fraction(-2, 3), 0, 0, Fraction(7, 7), 0, 0, 0]
    payload = NilPair(e1, [0] * 9).to_jsonable()
    assert payload["e1"] == [[0, 1, 2], [0, 2, "-2/3"], [1, 2, 1]]
    assert [type(x) for _, _, x in payload["e1"]] == [int, str, int]
    pair, _ = build_pair(parse("3,2/1"))
    payload = pair.to_jsonable()
    assert all(type(x) is int for m in ("e1", "e2") for _, _, x in payload[m])
    assert payload["e1"] == [[*divmod(k, 4), 1] for k, x in enumerate(pair.e1) if x]
