from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from nilpair.polys import BivariatePoly, MultivariatePoly, one_minus, prod_poly


def test_laurent_basics():
    s = BivariatePoly.term(1, 0)
    t = BivariatePoly.term(0, 1)
    p = (s + t) * (s - t)
    assert p == BivariatePoly({(2, 0): 1, (0, 2): -1})
    assert p.invert_vars() == BivariatePoly({(-2, 0): 1, (0, -2): -1})
    assert (s - s).coeffs == {}


def test_one_minus_products():
    lhs = prod_poly([one_minus(1, 0), one_minus(0, 1)])
    assert lhs.eval_ones() == 0
    assert lhs.coeffs[(1, 1)] == 1


coeffs = st.integers(-5, 5)
exps = st.integers(-3, 3)


@st.composite
def laurents(draw):
    items = draw(
        st.dictionaries(st.tuples(exps, exps), coeffs, max_size=5)
    )
    return BivariatePoly(items)


@given(laurents(), laurents(), laurents())
@settings(max_examples=60, deadline=None)
def test_laurent_ring_laws(p, q, r):
    assert (p + q) * r == p * r + q * r
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)


@st.composite
def polys(draw, nvars=3):
    items = draw(
        st.dictionaries(
            st.tuples(*[st.integers(0, 3)] * nvars),
            st.fractions(min_value=-3, max_value=3, max_denominator=2),
            max_size=5,
        )
    )
    return MultivariatePoly(nvars, items)


@given(polys(), polys(), polys())
@settings(max_examples=50, deadline=None)
def test_poly_ring_laws(p, q, r):
    assert (p + q) * r == p * r + q * r
    assert p * q == q * p


def test_diff_operator_single_derivative():
    u1 = MultivariatePoly.variable(2, 0)
    p = u1 * u1
    out = p.apply_diff_operator(u1)
    assert out == u1.scale(2)


def test_diff_operator_mixed():
    # p = u v, operator u v -> constant 1
    n = 2
    u = MultivariatePoly.variable(n, 0)
    v = MultivariatePoly.variable(n, 1)
    p = u * v
    assert p.apply_diff_operator(u * v) == MultivariatePoly.constant(n, 1)


@given(polys())
@settings(max_examples=30, deadline=None)
def test_diff_operator_identity(p):
    one = MultivariatePoly.constant(3, 1)
    assert p.apply_diff_operator(one) == p


@given(polys(), polys())
@settings(max_examples=30, deadline=None)
def test_diff_operator_additive(p, q):
    op = MultivariatePoly.variable(3, 1)
    assert (p + q).apply_diff_operator(op) == p.apply_diff_operator(
        op
    ) + q.apply_diff_operator(op)


def test_permute_variables():
    p = MultivariatePoly(2, {(2, 0): Fraction(1)})
    assert p.permute_variables((1, 0)) == MultivariatePoly(2, {(0, 2): Fraction(1)})


def _exact_coeffs(p):
    """Every coefficient is an int where it is integral and a Fraction
    otherwise: never a float, never an integral Fraction."""
    return all(
        type(c) is int or (type(c) is Fraction and c.denominator != 1)
        for c in p.coeffs.values()
    )


@given(polys(), polys(), st.fractions(min_value=-3, max_value=3, max_denominator=2))
@settings(max_examples=50, deadline=None)
def test_coefficients_are_ints_where_integral(p, q, c):
    for r in (p, q, p + q, p - q, p * q, p.scale(c), p * c, p.diff(0, 2)):
        assert _exact_coeffs(r)
    assert _exact_coeffs(MultivariatePoly.linear_form([Fraction(2), Fraction(1, 2), 0, True]))
    ints = MultivariatePoly(2, {(1, 0): Fraction(4, 2), (0, 1): -3})
    assert all(type(x) is int for x in (ints * ints).coeffs.values())
    assert ints.to_jsonable() == [[[0, 1], -3, 1], [[1, 0], 2, 1]]
