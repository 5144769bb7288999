from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from nilpair.linalg import (
    Matrix,
    Subspace,
    bracket,
    complement,
    jordan_type,
    kernel_in,
    rref,
    solve_affine,
)


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
    assert kernel_in(piece, [Matrix([[1, -1]])]) == Subspace(3, [(1, 1, 1)])
    assert kernel_in(piece, [Matrix([[1, 0]]), Matrix([[0, 1]])]).dim == 0
    assert kernel_in(piece, []) is piece


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
