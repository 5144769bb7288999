from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilpair.linalg import (
    EchelonBasis,
    Matrix,
    Subspace,
    bracket,
    complement,
    jordan_type,
    kernel_in,
    dense,
    relations,
    rref,
    solve_affine,
    sparse,
)


def _dense_rref(rows):
    """Dense Gauss-Jordan reference for rref: (nonzero rows as tuples, pivot
    column list), pivots normalised to 1 and cleared above and below."""
    m = [[Fraction(x) for x in r] for r in rows]
    m = [r for r in m if any(r)]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        p = next((i for i in range(r, len(m)) if m[i][c]), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return [tuple(row) for row in m[:r]], pivots


def _dense_kernel(rows, ncols):
    """Back-substitution reference for the null space of dense rows with
    ncols columns: one vector per free column of _dense_rref, with 1 there
    and minus each pivot row's entry in that column at the row's pivot."""
    red, pivots = _dense_rref(rows)
    vecs = []
    for c in range(ncols):
        if c not in pivots:
            v = [Fraction(0)] * ncols
            v[c] = Fraction(1)
            for row, p in zip(red, pivots):
                v[p] = -row[c]
            vecs.append(v)
    return vecs


def _assert_is_kernel(space, rows, ncols):
    """space is the null space of rows, with the canonical basis of the
    dense references."""
    basis, pivots = _dense_rref(_dense_kernel(rows, ncols))
    assert space.ambient_dim == ncols
    assert list(space.basis) == basis and list(space.pivots) == pivots


def _in_span(vecs, w):
    return len(_dense_rref(list(vecs) + [w])[0]) == len(_dense_rref(vecs)[0])


def test_kernel_zero_matrix():
    assert Matrix.zero(3).kernel().dim == 3


def test_kernel_identity():
    assert Matrix.identity(3).kernel().dim == 0


def test_kernel_single_jordan_block():
    j = Matrix([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    ker = j.kernel()
    assert ker.dim == 1
    assert ker.contains((1, 0, 0))


small_fracs = st.fractions(
    min_value=-4, max_value=4, max_denominator=3
)


@st.composite
def matrices(draw, max_dim=4):
    r = draw(st.integers(1, max_dim))
    c = draw(st.integers(1, max_dim))
    data = draw(
        st.lists(
            st.lists(small_fracs, min_size=c, max_size=c), min_size=r, max_size=r
        )
    )
    return Matrix(data)


@given(matrices())
@settings(max_examples=60, deadline=None)
def test_kernel_vectors_annihilate_and_rank_nullity(m):
    ker = m.kernel()
    for v in ker.basis:
        assert all(x == 0 for x in m.apply(v))
    assert m.rank() + ker.dim == m.cols


@given(matrices(max_dim=5), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_relations_match_kernel_of_column_matrix(m, rng):
    cols = [list(c) for c in zip(*m.data)]
    # force relations: a zero column and a combination of two columns
    cols.insert(rng.randrange(len(cols) + 1), [Fraction(0)] * m.rows)
    i, j = rng.randrange(len(cols)), rng.randrange(len(cols))
    c = Fraction(rng.randrange(-3, 4), rng.randrange(1, 4))
    cols.append([a + c * b for a, b in zip(cols[i], cols[j])])
    rows = [list(r) for r in zip(*cols)]
    rel = relations(cols)
    _assert_is_kernel(rel, rows, len(cols))
    _assert_is_kernel(Matrix(rows).kernel(), rows, len(cols))
    assert rel.dim >= 2


@pytest.mark.parametrize(
    "cols",
    [
        [],
        [(), (), ()],
        [(0, 0), (0, 0), (0, 0)],
        [(1, 2), (1, 2)],
        [(0, 1, 3), (2, 0, 0), (0, 1, 3), (0, 0, 0), (2, 0, 0)],
    ],
    ids=["no-vectors", "length-0", "all-zero", "duplicated", "mixed"],
)
def test_relations_edge_cases(cols):
    rows = [list(r) for r in zip(*cols)]
    rel = relations(cols)
    _assert_is_kernel(rel, rows, len(cols))
    if rows:
        _assert_is_kernel(Matrix(rows).kernel(), rows, len(cols))
    # every vector of length 0, or zero, is a relation on its own
    if all(not any(c) for c in cols):
        assert rel == Subspace.full(len(cols))


@given(matrices(max_dim=4), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_subspace_canonical_under_change_of_basis(m, rng):
    rows = [list(r) for r in m.data]
    sp1 = Subspace(m.cols, rows)
    # random invertible row operations preserve the row space
    mixed = [list(r) for r in rows]
    for _ in range(6):
        i = rng.randrange(len(mixed))
        j = rng.randrange(len(mixed))
        c = Fraction(rng.randrange(-3, 4))
        if i != j:
            mixed[i] = [a + c * b for a, b in zip(mixed[i], mixed[j])]
        elif c:
            mixed[i] = [c * a for a in mixed[i]]
    sp2 = Subspace(m.cols, mixed)
    assert sp1.dim >= sp2.dim
    if sp1.dim == sp2.dim:
        assert sp1 == sp2


def test_intersect_idempotent_and_complementary_planes():
    e = Subspace.full(4).basis
    a = Subspace(4, [e[0], e[1]])
    b = Subspace(4, [e[2], e[3]])
    assert a.intersect(a) == a
    assert a.intersect(b).dim == 0


@given(st.randoms(use_true_random=False))
@settings(max_examples=25, deadline=None)
def test_three_dim_subspaces_of_dim_four_meet(rng):
    def rand_space():
        vecs = [
            [Fraction(rng.randrange(-3, 4)) for _ in range(4)] for _ in range(3)
        ]
        return Subspace(4, vecs)

    a, b = rand_space(), rand_space()
    inter = a.intersect(b)
    assert inter.dim >= a.dim + b.dim - 4
    assert inter.dim == a.dim + b.dim - (a + b).dim
    for v in inter.basis:
        assert a.contains(v) and b.contains(v)


def test_complement_is_deterministic_and_splits():
    whole = Subspace.full(3)
    sub = Subspace(3, [(1, 0, 0)])
    comp = complement(sub, whole)
    assert comp.dim == 2
    assert (sub + comp) == whole
    assert complement(sub, whole) == comp


def test_kernel_in_lifts_back_into_the_piece():
    piece = Subspace(3, [(1, 1, 0), (0, 0, 1)])
    # first coordinate minus second, in piece's canonical basis
    assert kernel_in(piece, [(1,), (-1,)]) == Subspace(3, [(1, 1, 1)])
    assert kernel_in(piece, [(1, 0), (0, 1)]).dim == 0
    # images of length 0: the map to the zero space kills the whole piece
    assert kernel_in(piece, [(), ()]) == piece
    assert kernel_in(piece, [(0, 0), (0, 0)]) == piece
    with pytest.raises(ValueError):
        kernel_in(piece, [(1,)])


def test_solve_affine_picks_particular_solution():
    rows = [(1, 1), (0, 0)]
    x = solve_affine(rows, (2, 0))
    assert x == (2, 0)
    assert solve_affine([(0, 0)], (1,)) is None


def test_jordan_type():
    j3 = Matrix([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    assert jordan_type(j3) == (3,)
    m = Matrix.zero(4)
    assert jordan_type(m) == (1, 1, 1, 1)


def test_bracket_antisymmetry():
    a = Matrix([[1, 2], [3, 4]])
    b = Matrix([[0, 1], [1, 0]])
    assert bracket(a, b) == -bracket(b, a)


def test_rref_canonical_pivots():
    rows, piv = rref([[2, 4], [1, 2]])
    assert rows == [(1, 2)]
    assert piv == [0]


@st.composite
def row_lists(draw, max_dim=6):
    """Rows of one length with sparse Fraction entries, tall or wide, with
    zero rows and repeats of earlier rows inserted at drawn positions."""
    c = draw(st.integers(1, max_dim))
    entry = st.one_of(st.just(Fraction(0)), small_fracs)
    rows = draw(
        st.lists(
            st.lists(entry, min_size=c, max_size=c), min_size=1, max_size=max_dim
        )
    )
    for src in draw(st.lists(st.integers(-1, max_dim), max_size=3)):
        new = list(rows[src % len(rows)]) if src >= 0 else [0] * c
        rows.insert(draw(st.integers(0, len(rows))), new)
    return c, rows


@given(row_lists(), st.lists(small_fracs, min_size=10, max_size=10))
@settings(max_examples=150, deadline=None)
def test_rref_matches_dense_reference(case, rhs):
    c, rows = case
    assert rref(rows) == _dense_rref(rows)
    # solve_affine against the dense reduction of the augmented rows
    rhs = rhs[: len(rows)]
    red, piv = _dense_rref([list(r) + [b] for r, b in zip(rows, rhs)])
    sol = solve_affine(rows, rhs)
    if c in piv:
        assert sol is None
    else:
        expect = [Fraction(0)] * c
        for row, p in zip(red, piv):
            expect[p] = row[-1]
        assert sol == tuple(expect)
        assert Matrix(rows).apply(sol) == tuple(rhs)


@pytest.mark.parametrize("short_at", [0, 1, 2])
def test_ragged_rows_raise_value_error(short_at):
    rows = [(1, 0, 0), (0, 0, 1)]
    rows.insert(short_at, (1, 0))
    with pytest.raises(ValueError):
        rref(rows)
    with pytest.raises(ValueError):
        Subspace(3, rows)


# EchelonBasis against the `_dense_rref` reference.  Vectors are small
# integer lists; the tuple-key variant relabels position i by the i-th key of
# a sorted list of distinct tuples, so the key order is the position order.


@st.composite
def vector_families(draw, max_dim=5, max_count=6):
    dim = draw(st.integers(1, max_dim))
    vec = st.lists(st.integers(-3, 3), min_size=dim, max_size=dim)
    vecs = draw(st.lists(vec, min_size=0, max_size=max_count))
    probes = draw(st.lists(vec, min_size=1, max_size=3))
    # sums of family members, so some probes lie in the span
    if vecs:
        probes.append([sum(c) for c in zip(*vecs)])
    return dim, vecs, probes


@given(vector_families())
@settings(max_examples=80, deadline=None)
def test_echelon_basis_matches_subspace(case):
    dim, vecs, probes = case
    ech = EchelonBasis()
    for v in vecs:
        before = ech.dim
        assert bool(ech.add(sparse(v))) == (ech.dim == before + 1)
    ref, _ = _dense_rref(vecs)
    assert list(ech.to_subspace(dim).basis) == ref
    # the rows already are the canonical basis, in pivot order
    assert [dense(ech.rows[p], dim) for p in sorted(ech.rows)] == ref
    for w in probes:
        assert ech.contains(sparse(w)) == _in_span(vecs, w)
        if _in_span(vecs, w):
            coords = ech.coordinates(sparse(w))
            rebuilt = [Fraction(0)] * dim
            for p, c in coords.items():
                for k, x in ech.rows[p].items():
                    rebuilt[k] += c * x
            assert rebuilt == list(w)
        else:
            with pytest.raises(ValueError):
                ech.coordinates(sparse(w))


@given(
    vector_families(),
    st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 3)),
        min_size=5,
        max_size=5,
        unique=True,
    ),
)
@settings(max_examples=60, deadline=None)
def test_echelon_basis_tuple_keys(case, keys):
    dim, vecs, probes = case
    keys = sorted(keys)[:dim]

    def keyed(v):
        return {keys[i]: Fraction(x) for i, x in enumerate(v) if x}

    ech = EchelonBasis()
    for v in vecs:
        ech.add(keyed(v))
    rows = [ech.rows[p] for p in sorted(ech.rows)]
    assert [tuple(r.get(k, 0) for k in keys) for r in rows] == _dense_rref(vecs)[0]
    for w in probes:
        assert ech.contains(keyed(w)) == _in_span(vecs, w)
        if _in_span(vecs, w):
            coords = ech.coordinates(keyed(w))
            rebuilt = {}
            for p, c in coords.items():
                for k, x in ech.rows[p].items():
                    rebuilt[k] = rebuilt.get(k, 0) + c * x
            assert {k: x for k, x in rebuilt.items() if x} == keyed(w)


def test_echelon_basis_add_returns_remainder():
    ech = EchelonBasis()
    assert ech.add({0: Fraction(2), 1: Fraction(2)}) == {0: 2, 1: 2}
    assert ech.add({0: Fraction(1), 1: Fraction(1)}) == {}
    assert ech.add({0: Fraction(1), 2: Fraction(3)}) == {1: -1, 2: 3}
    # fully reduced: the first row lost its entry at the new pivot 1
    assert ech.rows == {0: {0: 1, 2: 3}, 1: {1: 1, 2: -3}}
