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
    lift,
    matmul,
    relations,
    rref,
    solve_affine,
)


def _sparse(vec):
    """A dense vector as the sparse row {position: value} of its nonzero
    entries, keys inserted last to first, so insertion order differs from
    the rows the package builds."""
    return {i: Fraction(vec[i]) for i in reversed(range(len(vec))) if vec[i]}


def _dense(row, dim):
    """A sparse row as a dense tuple of length dim."""
    return tuple(Fraction(row.get(i, 0)) for i in range(dim))


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
    assert [_dense(r, ncols) for r in space.basis] == basis
    assert list(space.pivots) == pivots


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
        assert all(x == 0 for x in m.apply(_dense(v, m.cols)))
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
    # the same columns as sparse rows
    assert relations([_sparse(c) for c in cols]) == rel
    # matmul of the square corner blocks of the rows (n from 1 to 5), dense,
    # sparse and mixed, against Matrix.__mul__
    n = min(len(rows), len(cols))
    a = Matrix([r[:n] for r in rows[:n]]).flatten()
    b = Matrix([r[-n:] for r in rows[-n:]]).flatten()
    want = _sparse((Matrix.unflatten(a, n) * Matrix.unflatten(b, n)).flatten())
    for x, y in ((a, b), (_sparse(a), _sparse(b)), (a, _sparse(b)), (_sparse(a), b)):
        got = matmul(x, y, n)
        assert got == want
        assert all(type(v) is Fraction for v in got.values())


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
    assert [_dense(r, m.cols) for r in sp1.basis] == _dense_rref(rows)[0]
    # the same rows as sparse dicts, in shuffled order: equal and equally
    # hashed, whatever order the rows were reduced and their keys inserted
    shuffled = [_sparse(r) for r in rows]
    rng.shuffle(shuffled)
    sp0 = Subspace(m.cols, shuffled)
    assert sp0 == sp1 and hash(sp0) == hash(sp1)
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


@given(st.randoms(use_true_random=False), st.booleans())
@settings(max_examples=40, deadline=None)
def test_three_dim_subspaces_of_dim_four_meet(rng, sparse_input):
    def rand_vecs(count, dim=4):
        return [
            [Fraction(rng.randrange(-3, 4)) for _ in range(dim)] for _ in range(count)
        ]

    def space(dim, vecs):
        return Subspace(dim, [_sparse(v) for v in vecs] if sparse_input else vecs)

    def dense_basis(sp):
        return [_dense(r, sp.ambient_dim) for r in sp.basis]

    avecs, bvecs = rand_vecs(3), rand_vecs(3)
    a, b = space(4, avecs), space(4, bvecs)
    inter = a.intersect(b)
    assert inter.dim >= a.dim + b.dim - 4
    assert inter.dim == a.dim + b.dim - (a + b).dim
    for v in inter.basis:
        assert a.contains(v) and b.contains(v)
    # against the dense references: the sum is the reduced stack; the
    # intersection is sum_i c_i a_i over the relations (c, d) of the columns
    # a_i, -b_j
    abasis, apiv = _dense_rref(avecs)
    bbasis, _ = _dense_rref(bvecs)
    assert dense_basis(a + b) == _dense_rref(avecs + bvecs)[0]
    cols = abasis + [[-x for x in w] for w in bbasis]
    rows = [[c[t] for c in cols] for t in range(4)]
    meet = [
        [sum(r[i] * abasis[i][t] for i in range(len(abasis))) for t in range(4)]
        for r in _dense_kernel(rows, len(cols))
    ]
    assert dense_basis(inter) == _dense_rref(meet)[0]
    # coordinates over the canonical rows are the entries at the pivots
    for w in rand_vecs(2) + [[sum(c) for c in zip(*avecs)]]:
        if _in_span(avecs, w):
            expect = {p: w[p] for p in apiv if w[p]}
            assert a.coordinates(_sparse(w) if sparse_input else w) == expect
        else:
            with pytest.raises(ValueError):
                a.coordinates(w)
    # lift: the coefficient rows of a random space pushed through b's basis
    coeffs = space(b.dim, rand_vecs(2, b.dim))
    pushed = [
        [sum(c[j] * bbasis[j][t] for j in range(b.dim)) for t in range(4)]
        for c in _dense_rref([_dense(r, b.dim) for r in coeffs.basis])[0]
    ]
    assert dense_basis(lift(coeffs, b.basis, 4)) == _dense_rref(pushed)[0]


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
    assert solve_affine([{0: 1, 1: 1}, {}], (2, 0)) == {0: 2}
    assert solve_affine([{}], (1,)) is None


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
    # the same system as sparse rows: the same solution, as a sparse row
    sparse = solve_affine([{k: x for k, x in enumerate(r) if x} for r in rows], rhs)
    assert sparse == (None if sol is None else {k: x for k, x in enumerate(sol) if x})


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


@given(vector_families(), st.booleans())
@settings(max_examples=80, deadline=None)
def test_echelon_basis_matches_subspace(case, sparse_input):
    dim, vecs, probes = case

    def form(v):
        return _sparse(v) if sparse_input else v

    ech = EchelonBasis()
    for v in vecs:
        before = ech.dim
        assert bool(ech.add(form(v))) == (ech.dim == before + 1)
    ref, _ = _dense_rref(vecs)
    # the rows already are the canonical basis, in pivot order, and the
    # Subspace of the same vectors holds the same rows
    assert [_dense(ech.rows[p], dim) for p in sorted(ech.rows)] == ref
    assert list(Subspace(dim, map(form, vecs)).basis) == [
        ech.rows[p] for p in sorted(ech.rows)
    ]
    for w in probes:
        assert ech.contains(form(w)) == _in_span(vecs, w)
        if _in_span(vecs, w):
            coords = ech.coordinates(form(w))
            rebuilt = [Fraction(0)] * dim
            for p, c in coords.items():
                for k, x in ech.rows[p].items():
                    rebuilt[k] += c * x
            assert rebuilt == list(w)
        else:
            with pytest.raises(ValueError):
                ech.coordinates(form(w))


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
