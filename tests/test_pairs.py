from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilpair.cohomology import slice_basis, slice_samples
from nilpair.diagrams import ShapeClass, enumerate_diagrams, parse
from nilpair.linalg import (
    EchelonBasis,
    Matrix,
    Subspace,
    bracket,
    entries,
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
    parabolic_checks,
    provenance_grading,
    shift_basis_check,
    weak_lefschetz_report,
)
from test_linalg import mat_apply, mat_is_nilpotent, mat_pow, mat_rank, mat_trace


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
    assert Matrix.unflatten(pair.e1, 3) == Matrix([[0, 0, 0], [1, 0, 0], [0, 1, 0]])
    assert Matrix.unflatten(pair.e2, 3).is_zero()
    assert h.h1 == (0, 1, 2)
    assert h.h2 == (0, 0, 0)


def test_build_hook_entries():
    pair, h = build_pair(parse("2,1"))
    e1, e2 = Matrix.unflatten(pair.e1, 3), Matrix.unflatten(pair.e2, 3)
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
            list(ad_matrix(Matrix.unflatten(pair.e1, pair.n)).data)
            + list(ad_matrix(Matrix.unflatten(pair.e2, pair.n)).data)
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
    basis = [Matrix.unflatten(v, n) for v in space.basis]
    ech = EchelonBasis()
    for v in space.basis:
        ech.add(v)
    current = list(basis)
    for _ in range(n):
        new_mats = []
        for a in current:
            for b in basis:
                m = a * b
                if ech.add(m.flatten()):
                    new_mats.append(m)
        if not new_mats:
            break
        current = new_mats
    closed = [Matrix.unflatten(v, n) for v in ech.rows.values()]
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
    cartan = [Matrix.unit(3, i, i).flatten() for i in range(3)]
    for space, n in (
        (Subspace(4, [e12.flatten(), e21.flatten()]), 2),
        (Subspace(4, [e12.flatten()]), 2),
        (Subspace(9, cartan), 3),
        (Subspace(9, [cartan[0]]), 3),
        (Subspace.zero(9), 3),
    ):
        assert is_nilpotent_family(space, n) == _dense_is_nilpotent_family(space, n)
    assert is_nilpotent_family(Subspace(4, [e12.flatten()]), 2)
    assert not is_nilpotent_family(Subspace(4, [e12.flatten(), e21.flatten()]), 2)


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
    pair, _ = build_pair(parse("2,1"))
    ok, count = shift_basis_check(pair, 1, 0)
    assert ok and count == 1
    ok, count = shift_basis_check(pair, 0, 1)
    assert ok and count == 1


def test_shift_basis_single_row_vertical_empty():
    pair, _ = build_pair(parse("3"))
    ok, count = shift_basis_check(pair, 0, 1)
    assert ok and count == 0


def test_shift_basis_strict_skew_every_bidegree():
    pair, h = build_pair(parse("3,2/1"))
    blocks = centralizer_bigraded(pair, h, "gl")
    for (p, q), sp in blocks.items():
        if p >= 0 and q >= 0:
            ok, count = shift_basis_check(pair, p, q)
            assert ok and count == sp.dim


def test_weak_lefschetz_young_passes():
    for spec in ("2,1", "3", "2,2"):
        pair, h = build_pair(parse(spec))
        assert all(rec["ok"] for rec in weak_lefschetz_report(pair, h))


def test_weak_lefschetz_fails_for_strict_skew():
    pair, h = build_pair(parse("3,2/1"))
    assert any(not rec["ok"] for rec in weak_lefschetz_report(pair, h))


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
            n * n, [Matrix.unit(n, i, i).flatten() for i in range(n)]
        )
        lim = limit_space(PairAction.adjoint(pair), cartan)
        assert lim == centralizer(pair, "gl")


def test_limit_of_mixed_centralizer():
    pair, h = build_pair(parse("2,1"))
    n = pair.n
    h1m = Matrix.diagonal(h.h1)
    rows = list(ad_matrix(h1m).data)
    rows += list(ad_matrix(Matrix.unflatten(pair.e2, n)).data)
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
    while not m.is_zero():
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
    return Subspace(n * n, [Matrix.unit(n, i, i).flatten() for i in range(n)])


def _lower_triangular(n):
    units = [Matrix.unit(n, a, b).flatten() for a in range(n) for b in range(a + 1)]
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
    ops = tuple(ad_matrix(Matrix.unflatten(x, pair.n)) for x in (pair.e1, pair.e2))
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

    a = Matrix([[0, 1, 0], [0, 0, 1], [0, 0, 0]]).flatten()
    b = Matrix([[0, 0, 0], [1, 0, 0], [0, 0, 0]]).flatten()
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
    op = ad_matrix(Matrix.unflatten(x, n))
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
    # built from K1; no K2 block (the kernel of [e2, .]) is built for them
    from nilpair import pairs
    from nilpair.surveys import skew_checks

    built = []
    original = pairs._member_kernels

    def counted(x, step, h, ambient):
        built.append(step)
        return original(x, step, h, ambient)

    monkeypatch.setattr(pairs, "_member_kernels", counted)
    for spec, run in (
        ("3,2,1", lambda d: biexponents(*build_pair(d))),
        ("4,2,1", lambda d: classify_pair(*build_pair(d))),
        ("3,2/1", skew_checks),
    ):
        original.cache_clear()
        pairs._joint_kernels.cache_clear()
        run(parse(spec))
    assert built and set(built) == {(1, 0)}
    # the readers of both members still get K2
    weak_lefschetz_report(*build_pair(parse("3,2,1")))
    assert (0, 1) in built


def _dense_check_grading(pair, h):
    """Four-bracket reference for the grading check: [h1, e1] = e1,
    [h2, e2] = e2 and the mixed brackets vanish."""
    from nilpair.pairs import GradingError

    h1m, h2m = Matrix.diagonal(h.h1), Matrix.diagonal(h.h2)
    e1, e2 = Matrix.unflatten(pair.e1, pair.n), Matrix.unflatten(pair.e2, pair.n)
    if not (
        bracket(h1m, e1) == e1
        and bracket(h2m, e2) == e2
        and bracket(h1m, e2).is_zero()
        and bracket(h2m, e1).is_zero()
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


def test_biexponents_gl_convention_adds_origin():
    pair, h = build_pair(parse("2,1"))
    assert biexponents(pair, h, convention="gl") == ((0, 0), (0, 1), (1, 0))


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
                        mat_trace(Matrix.unflatten(u, pair.n) * Matrix.unflatten(v, pair.n))
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
            e1, e2 = Matrix.unflatten(pair.e1, n), Matrix.unflatten(pair.e2, n)
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
            e1, e2 = Matrix.unflatten(pair.e1, n), Matrix.unflatten(pair.e2, n)
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
    got = ad(x.flatten(), v, n)
    # a sparse row of the nonzero entries, equal to the dense references
    assert all(y and type(y) is Fraction for y in got.values())
    assert _dense(got, nn) == bracket(x, Matrix.unflatten(v, x.rows)).flatten()
    assert _dense(got, nn) == mat_apply(ad_matrix(x), v)
    # the same v as a sparse row
    assert ad(x.flatten(), {k: y for k, y in enumerate(v) if y}, n) == got
    # x as a sparse row, with v dense and sparse
    x_sparse = {k: y for k, y in enumerate(x.flatten()) if y}
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
                sb = slice_basis(pair, h, quadrant)
                for _, x1, x2, _, zx in slice_samples(pair, h, sb):
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
