from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilpair.linalg import (
    EchelonBasis,
    Matrix,
    Subspace,
    _null_space,
    bracket,
    combine,
    complement,
    exact,
    jordan_type,
    kernel_in,
    lift,
    matmul,
    relations,
    row_echelon,
    rref,
    shifted,
    small,
    solve_affine,
)


# Dense Matrix operations that only the tests use: the package multiplies,
# takes kernels and determinants of dense matrices, and nothing more.


def mat_pow(m, k):
    """The k-th power of a square Matrix."""
    if m.rows != m.cols:
        raise ValueError("power of a non-square matrix")
    out = Matrix.identity(m.rows)
    for _ in range(k):
        out = out * m
    return out


def mat_apply(m, vec):
    """The Matrix applied to a dense vector, as a tuple."""
    return tuple(sum(a * x for a, x in zip(row, vec) if a) for row in m.data)


def mat_transpose(m):
    return Matrix(list(zip(*m.data)))


def mat_trace(m):
    return sum(m.data[i][i] for i in range(min(m.rows, m.cols)))


def mat_is_nilpotent(m):
    power = m
    for _ in range(m.rows):
        if power.is_zero():
            return True
        power = power * m
    return power.is_zero()


def mat_rank(m):
    red, _ = rref(m.data)
    return len(red)


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
        assert all(x == 0 for x in mat_apply(m, _dense(v, m.cols)))
    assert mat_rank(m) + ker.dim == m.cols


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


def _dense_jordan_type(m):
    """Dense reference: Jordan block sizes of a nilpotent Matrix, largest
    first, from the ranks of its dense powers."""
    if not mat_is_nilpotent(m):
        raise ValueError("matrix is not nilpotent")
    n = m.rows
    kdims = [0]
    power = Matrix.identity(n)
    while kdims[-1] < n:
        power = power * m
        kdims.append(n - mat_rank(power))
    counts = [kdims[k] - kdims[k - 1] for k in range(1, len(kdims))]
    parts = []
    for size in range(len(counts), 0, -1):
        at_least = counts[size - 1]
        above = counts[size] if size < len(counts) else 0
        parts.extend([size] * (at_least - above))
    return tuple(sorted(parts, reverse=True))


def test_jordan_type():
    j3 = (0, 1, 0, 0, 0, 1, 0, 0, 0)
    assert jordan_type(j3, 3) == (3,)
    assert jordan_type({1: 1, 5: 1}, 3) == (3,)
    assert jordan_type({}, 4) == (1, 1, 1, 1)
    assert jordan_type({1: 7}, 4) == (2, 1, 1)
    # 2 x 2 matrices that are not nilpotent, sparse and dense
    for m in ({0: 1}, (0, 1, 1, 0), {1: 1, 2: 1, 3: -1}):
        with pytest.raises(ValueError):
            jordan_type(m, 2)


@st.composite
def _strictly_upper(draw):
    """A strictly upper-triangular integer matrix of size 1..6, flattened,
    sparse or dense."""
    n = draw(st.integers(1, 6))
    cell = st.one_of(st.just(0), st.just(0), st.integers(-3, 3))
    vec = [draw(cell) if j > i else 0 for i in range(n) for j in range(n)]
    return n, vec


@given(_strictly_upper(), st.booleans())
@settings(max_examples=200, deadline=None)
def test_jordan_type_matches_dense_reference(case, sparse):
    n, vec = case
    want = _dense_jordan_type(Matrix.unflatten(vec, n))
    got = jordan_type({k: x for k, x in enumerate(vec) if x} if sparse else vec, n)
    assert got == want
    assert sum(got) == n


def test_jordan_type_of_the_even_orthogonal_members():
    from nilpair.rectangular import even_orthogonal_pair

    for n in (1, 2, 3):
        data = even_orthogonal_pair(n)
        N = data["dim"]
        for name in ("e1", "e2"):
            got = jordan_type(data[name], N)
            assert got == _dense_jordan_type(Matrix.unflatten(data[name], N))
        assert jordan_type(data["e1"], N) == (2 * n + 1, 2 * n + 1)
        assert jordan_type(data["e2"], N) == (2,) * (2 * n) + (1, 1)


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
        assert mat_apply(Matrix(rows), sol) == tuple(rhs)
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


# Integral entries are ints in EchelonBasis and its callers; the all-Fraction
# elimination below is the reference they are checked against.  Each family
# is given three ways: all Fractions, int-normalised (`small`), and dense
# tuples whose integral entries are ints or Fractions at random.


class _FractionEchelon:
    """The all-Fraction EchelonBasis: the same elimination with every entry
    a Fraction and nothing normalised."""

    def __init__(self):
        self.rows = {}

    def add(self, vec):
        rem = {k: Fraction(x) for k, x in vec.items() if x}
        for p in [p for p in rem if p in self.rows]:
            c = rem[p]
            for k, x in self.rows[p].items():
                nv = rem.get(k, Fraction(0)) - c * x
                if nv:
                    rem[k] = nv
                else:
                    del rem[k]
        if not rem:
            return rem
        pivot = min(rem)
        inv = 1 / rem[pivot]
        new = {k: x * inv for k, x in rem.items()}
        for row in self.rows.values():
            c = row.get(pivot)
            if c:
                for k, x in new.items():
                    nv = row.get(k, Fraction(0)) - c * x
                    if nv:
                        row[k] = nv
                    else:
                        del row[k]
        self.rows[pivot] = new
        return rem


def _exact(rows):
    """Every entry of the sparse rows is an int or a Fraction: never a
    float, never a bool."""
    return all(type(x) in (int, Fraction) for row in rows for x in row.values())


@st.composite
def mixed_families(draw, max_dim=6, max_count=6):
    """Two families of sparse vectors of one length (mostly integral,
    some with denominators) and a coefficient list, in the three forms."""
    dim = draw(st.integers(1, max_dim))
    entry = st.one_of(
        st.just(Fraction(0)), st.integers(-3, 3).map(Fraction), small_fracs
    )
    vec = st.lists(entry, min_size=dim, max_size=dim)
    fams = [draw(st.lists(vec, max_size=max_count)) for _ in range(2)]
    coeffs = draw(st.lists(entry, min_size=max_count, max_size=max_count))
    rng = draw(st.randoms(use_true_random=False))

    def mixed(x):
        return x.numerator if x.denominator == 1 and rng.random() < 0.5 else x

    forms = {
        "fraction": lambda v: {k: Fraction(x) for k, x in enumerate(v) if x},
        "int": lambda v: {k: small(x) for k, x in enumerate(v) if x},
        "mixed": lambda v: tuple(mixed(x) for x in v),
    }
    return dim, fams, coeffs, forms


@given(mixed_families())
@settings(max_examples=120, deadline=None)
def test_int_entries_match_the_fraction_reference(case):
    dim, (fam_a, fam_b), coeffs, forms = case
    ref = _FractionEchelon()
    ref_rems = [ref.add(dict(enumerate(v))) for v in fam_a]
    ref_rows = [ref.rows[p] for p in sorted(ref.rows)]
    assert [_dense(r, dim) for r in ref_rows] == _dense_rref(fam_a)[0]
    # a combination of the family lies in its span; a vector that raised
    # the dimension when added last does not
    inside = [
        sum((c * v[k] for c, v in zip(coeffs, fam_a)), Fraction(0)) for k in range(dim)
    ]
    outside = next(
        (v for v in fam_b if len(_dense_rref(fam_a + [v])[0]) > len(ref_rows)), None
    )
    results = {}
    for name, form in forms.items():
        a = [form(v) for v in fam_a]
        b = [form(v) for v in fam_b]
        ech = EchelonBasis()
        assert [ech.add(v) for v in a] == ref_rems, name
        assert ech.rows == ref.rows and _exact(ech.rows.values()), name
        sa, sb = Subspace(dim, a), Subspace(dim, b)
        assert list(sa.basis) == ref_rows and list(sa.pivots) == sorted(ref.rows)
        coords = sa.coordinates(form(inside))
        rebuilt = [Fraction(0)] * dim
        for p, c in coords.items():
            for k, x in ref.rows[p].items():
                rebuilt[k] += c * x
        assert rebuilt == inside, name
        if outside is not None:
            with pytest.raises(ValueError):
                sa.coordinates(form(outside))
        images = [b[i % len(b)] if b else form([0] * dim) for i in range(sa.dim)]
        rhs = [small(c) if i % 2 else c for i, c in enumerate(coeffs[: len(a)])]
        out = {
            "span": sa,
            "coordinates": coords,
            "intersect": sa.intersect(sb),
            "relations": relations(a),
            "kernel_in": kernel_in(sa, images),
            "solve_affine": solve_affine(a, rhs) if a else None,
        }
        spaces = [out[k] for k in ("span", "intersect", "relations", "kernel_in")]
        assert all(_exact(s.basis) for s in spaces), name
        assert _exact([out["coordinates"]]), name
        sol = out["solve_affine"]
        if sol is not None:
            assert _exact([sol if isinstance(sol, dict) else dict(enumerate(sol))])
        results[name] = out
    base = results["fraction"]
    for name, out in results.items():
        for key, value in out.items():
            if key == "solve_affine" and isinstance(value, tuple):
                value = {k: x for k, x in enumerate(value) if x}
            assert value == base[key], (name, key)
            if key in ("span", "intersect", "relations", "kernel_in"):
                assert hash(value) == hash(base[key]), (name, key)
                assert value.pivots == base[key].pivots, (name, key)


# The null space and lift build canonical rows without a second elimination,
# and rank-only callers use the forward elimination `row_echelon`; the
# eliminating routes they replaced are the references below.


def _eliminating_null_space(rows, ncols):
    """The null space by back-substitution into one EchelonBasis over the
    rows, its solutions re-eliminated by the Subspace constructor."""
    ech = EchelonBasis()
    for r in rows:
        ech.add(r)
    vecs = []
    for c in range(ncols):
        if c not in ech.rows:
            v = {c: 1}
            for p, row in ech.rows.items():
                if c in row:
                    v[p] = -row[c]
            vecs.append(v)
    return Subspace(ncols, vecs)


def _eliminating_lift(coeff_space, basis, ambient_dim):
    return Subspace(ambient_dim, [combine(basis, c) for c in coeff_space.basis])


def _echelon_rank(vectors):
    ech = EchelonBasis()
    for v in vectors:
        ech.add(v)
    return ech.dim


def _same_space(got, want):
    assert got == want and hash(got) == hash(want)
    assert got.pivots == want.pivots and got.basis == want.basis
    assert _exact(got.basis)
    assert all(row[p] == 1 and min(row) == p for p, row in zip(got.pivots, got.basis))


@st.composite
def sparse_systems(draw, max_dim=7, max_count=7):
    """Sparse rows of int and Fraction entries over `dim` columns: random,
    all zero (rank 0), or an upper unitriangular family with random entries
    above the diagonal (full rank), in shuffled order."""
    dim = draw(st.integers(1, max_dim))
    entry = st.one_of(
        st.just(0), st.just(0), st.integers(-3, 3), small_fracs
    )
    kind = draw(st.sampled_from(["random", "random", "zero", "full"]))
    if kind == "zero":
        count = draw(st.integers(0, max_count))
        rows = [{} for _ in range(count)]
    elif kind == "full":
        rows = [
            {i: draw(st.sampled_from([1, -1, 2, Fraction(1, 2)]))}
            | {j: x for j in range(i + 1, dim) if (x := draw(entry))}
            for i in range(dim)
        ]
    else:
        count = draw(st.integers(0, max_count))
        rows = [
            {k: x for k in range(dim) if (x := draw(entry))} for _ in range(count)
        ]
    rng = draw(st.randoms(use_true_random=False))
    rng.shuffle(rows)
    return dim, rows, kind


@given(sparse_systems())
@settings(max_examples=200, deadline=None)
def test_canonical_null_space_matches_eliminating_reference(case):
    dim, rows, kind = case
    got = _null_space(rows, dim)
    _same_space(got, _eliminating_null_space(rows, dim))
    if kind == "zero":
        assert got == Subspace.full(dim)
    if kind == "full":
        assert got.dim == 0
    # the same equations as dense tuples
    assert _null_space([_dense(r, dim) for r in rows], dim) == got
    # relations reads the transposed system: the rows are its vectors
    rel = relations(rows)
    _same_space(rel, _eliminating_null_space(list(_columns(rows, dim)), len(rows)))


def _columns(rows, dim):
    for k in range(dim):
        yield {j: r[k] for j, r in enumerate(rows) if r.get(k)}


@given(sparse_systems(), sparse_systems(), sparse_systems())
@settings(max_examples=150, deadline=None)
def test_canonical_lift_matches_eliminating_reference(a, b, c):
    (da, ra, _), (db, rb, _), (_, rc, _) = a, b, c
    first, second = Subspace(da, ra), Subspace(db, rb)
    # a canonical basis, and the doubled one of two subspaces on disjoint
    # keys, the second keyed da + k
    for basis, ambient in (
        (first.basis, da),
        (first.basis + tuple(shifted(v, da) for v in second.basis), da + db),
    ):
        width = len(basis)
        coeffs = Subspace(width, [{j: x for j, x in r.items() if j < width} for r in rc])
        got = lift(coeffs, basis, ambient)
        _same_space(got, _eliminating_lift(coeffs, basis, ambient))
        assert got.dim == coeffs.dim
    # a full coefficient space gives back the span of the basis
    assert lift(Subspace.full(first.dim), first.basis, da) == first


@given(sparse_systems())
@settings(max_examples=200, deadline=None)
def test_forward_rank_matches_echelon_basis(case):
    dim, rows, kind = case
    forward = row_echelon(rows)
    assert len(forward) == _echelon_rank(rows)
    assert len(row_echelon([_dense(r, dim) for r in rows])) == len(forward)
    if kind == "zero":
        assert forward == {}
    if kind == "full":
        assert len(forward) == dim
    canonical = Subspace(dim, rows)
    assert _exact(forward.values())
    for p, row in forward.items():
        assert min(row) == p and row[p] == 1
    # the rows with pivots from any key t on span the part of the span that
    # vanishes before t, as the canonical rows from t on do
    for t in range(dim + 1):
        tail = Subspace(dim, [r for p, r in forward.items() if p >= t])
        want = Subspace(dim, [r for p, r in zip(canonical.pivots, canonical.basis) if p >= t])
        assert tail == want


def test_canonical_rows_constructor_checks_its_rows():
    good = [{2: 1, 3: Fraction(4, 2)}, {0: Fraction(1), 1: -1, 3: 5}]
    sub = Subspace.canonical(4, good)
    assert sub == Subspace(4, good) and sub.pivots == (0, 2)
    # entries pass through small, so integral ones are ints
    assert all(type(x) is int for row in sub.basis for x in row.values())
    for rows in (
        [{0: 2, 1: 1}],  # pivot not normalised
        [{0: 1, 1: 1}, {1: 1, 2: 3}],  # the first row touches the second pivot
        [{1: 1}, {0: 1, 1: 2}],  # the same, rows in the other order
        [{0: 1}, {0: 1, 1: 1}],  # two rows share a pivot
        [{0: 1}, {}],  # a zero row
    ):
        with pytest.raises(ValueError):
            Subspace.canonical(3, rows)


def test_exact_keeps_ints_and_normalises_the_rest():
    # an int is kept as it is; anything else goes through small(frac(x))
    big = 10**30
    assert exact(big) is big
    for x, want in (
        (Fraction(4, 2), 2),
        (True, 1),
        (False, 0),
        (Fraction(-1, 3), Fraction(-1, 3)),
        ("3/6", Fraction(1, 2)),
        (0.5, Fraction(1, 2)),
    ):
        got = exact(x)
        assert got == want and type(got) is type(want), x
