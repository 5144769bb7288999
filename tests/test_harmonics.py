from fractions import Fraction
from itertools import combinations, permutations
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilpair import harmonics, polys, surveys
from nilpair.diagrams import parse, partitions
from nilpair.harmonics import (
    SpanModule,
    _span_closure,
    adjacent_transpositions,
    alternant,
    c_regular_samples,
    divide_constant,
    exponent_sums,
    gram_value,
    harmonicity,
    in_regular_locus,
    is_diagonally_skew,
    pair_alternant,
    perm_of_partition,
    polarized_power_sum,
    side_character,
    u_side_span,
    vanishing_scan,
    vandermonde_determinant,
    wxw_span,
)
from nilpair.linalg import EchelonBasis, Matrix, frac
from nilpair.multiplicity import _perm_sign
from nilpair.pairs import build_pair
from nilpair.polys import MultivariatePoly


# Young shapes of 1 to 5 boxes, as "4,1"-style specs
SHAPES_TO_5 = [",".join(map(str, lam)) for k in range(1, 6) for lam in partitions(k)]


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _dense_alternant(x1, x2, d1, d2):
    """The reference alternant: one determinant per pair of compositions
    (a, b), with no shortcut for repeated pairs or reordered rows."""
    n = len(x1)
    x1 = [frac(v) for v in x1]
    x2 = [frac(v) for v in x2]
    coeffs = {}
    for a in _compositions(d1, n):
        pow1 = [[x1[j] ** a[i] for j in range(n)] for i in range(n)]
        fact_a = 1
        for k in a:
            fact_a *= factorial(k)
        for b in _compositions(d2, n):
            rows = [
                [pow1[i][j] * x2[j] ** b[i] for j in range(n)] for i in range(n)
            ]
            det = Matrix(rows).determinant()
            if det:
                fact = fact_a
                for k in b:
                    fact *= factorial(k)
                coeffs[tuple(a) + tuple(b)] = det / fact
    return MultivariatePoly(2 * n, coeffs)


@st.composite
def alternant_inputs(draw):
    n = draw(st.integers(1, 4))
    points = st.lists(st.integers(-2, 3), min_size=n, max_size=n)
    return draw(points), draw(points), draw(st.integers(0, 4)), draw(st.integers(0, 4))


@given(alternant_inputs())
@settings(max_examples=60, deadline=None)
def test_alternant_matches_dense_reference(args):
    assert alternant(*args).coeffs == _dense_alternant(*args).coeffs


def test_alternant_one_determinant_per_pair_set(monkeypatch):
    d = parse("4,1")
    x1 = [p for p, _ in d.boxes]
    x2 = [q for _, q in d.boxes]
    d1, d2 = exponent_sums(d)
    calls = []
    determinant = harmonics.determinant

    def counted(rows):
        calls.append(1)
        return determinant(rows)

    monkeypatch.setattr(harmonics, "determinant", counted)
    alternant(x1, x2, d1, d2)
    grid = [(a, b) for a in range(d1 + 1) for b in range(d2 + 1)]
    pair_sets = [
        s
        for s in combinations(grid, d.n)
        if sum(a for a, _ in s) == d1 and sum(b for _, b in s) == d2
    ]
    assert len(calls) == len(pair_sets) > 0


def test_alternant_two_points_by_hand():
    # n=2, x = ((0,1),(0,0)), degrees (1,0): u2 - u1
    p = alternant((0, 1), (0, 0), 1, 0)
    expected = MultivariatePoly(
        4, {(0, 1, 0, 0): Fraction(1), (1, 0, 0, 0): Fraction(-1)}
    )
    assert p == expected


def test_alternant_degree_zero_vanishes():
    assert not alternant((0, 1), (0, 0), 0, 0)
    assert not alternant((0, 1, 2), (0, 0, 1), 0, 0)


def test_alternant_low_degree_vanishing():
    d = parse("2,1")
    a = [p for p, _ in d.boxes]
    b = [q for _, q in d.boxes]
    # bidegree (0,1) sits under the shape bidegree (1,1)
    assert not alternant(a, b, 0, 1)
    assert not alternant(a, b, 1, 0)


def test_determinant_form_single_row_is_vandermonde():
    d = parse("3")
    det = vandermonde_determinant(d)
    # classical Vandermonde in u only
    u = [MultivariatePoly.variable(6, i) for i in range(3)]
    vdm = (u[1] - u[0]) * (u[2] - u[0]) * (u[2] - u[1])
    assert det == vdm


def test_pair_alternant_consistency():
    for spec in ("2,1", "2,2", "3"):
        assert pair_alternant(parse(spec))  # nonzero; equality asserted inside


def test_harmonicity_examples():
    d = parse("2,1")
    assert harmonicity(pair_alternant(d), 3)
    # an invariant polynomial is not harmonic
    s = MultivariatePoly(6, {(1, 0, 0, 0, 0, 0): 1, (0, 1, 0, 0, 0, 0): 1, (0, 0, 1, 0, 0, 0): 1})
    assert not harmonicity(s, 3)


def _full_range_harmonicity(p, n):
    """The reference: annihilation by every polarized power sum p_{a,b}
    with 1 <= a + b <= deg p."""
    return not any(
        p.apply_diff_operator(polarized_power_sum(n, a, total - a))
        for total in range(1, p.total_degree() + 1)
        for a in range(total + 1)
    )


@pytest.mark.parametrize("spec", SHAPES_TO_5)
def test_harmonicity_matches_full_range(spec):
    # the shape's alternant is harmonic; times u1 it is not; the rows
    # (k) have degree k(k-1)/2, above n from 4 boxes on
    d = parse(spec)
    n = d.n
    delta = pair_alternant(d)
    u1 = MultivariatePoly.variable(2 * n, 0)
    for p, expected in ((delta, True), (delta * u1, False)):
        assert harmonicity(p, n) == _full_range_harmonicity(p, n) == expected


def test_harmonicity_matches_full_range_above_degree_n():
    # non-harmonic polynomials of degree above n; (u1 - u2)^(n+1) passes
    # both operators of degree 1 and fails p_{2,0}
    for n in (2, 3):
        u1, u2 = MultivariatePoly.variable(2 * n, 0), MultivariatePoly.variable(2 * n, 1)
        for p in (u1 ** (n + 1), (u1 - u2) ** (n + 1)):
            assert p.total_degree() > n
            assert harmonicity(p, n) == _full_range_harmonicity(p, n) is False
    delta = pair_alternant(parse("2,1"))
    p = delta * delta
    assert p.total_degree() > 3
    assert harmonicity(p, 3) == _full_range_harmonicity(p, 3) is False


def test_classical_vandermonde_harmonic():
    assert harmonicity(pair_alternant(parse("3")), 3)


def test_skewness():
    for spec in ("2,1", "3", "2,2"):
        d = parse(spec)
        assert is_diagonally_skew(pair_alternant(d), d.n)


def test_span_dims_hook():
    d = parse("2,1")
    span = wxw_span(pair_alternant(d), 3)
    assert span.dim == 4


def test_span_single_row_trivial():
    d = parse("3")
    span = wxw_span(pair_alternant(d), 3)
    assert span.dim == 1


def test_regular_samples():
    for spec in ("2,1", "2,2", "3,1"):
        d = parse(spec)
        for x1, x2 in c_regular_samples(d):
            assert in_regular_locus(d, x1, x2)


def test_vanishing_scan_ratios():
    d = parse("2,2")
    scan = vanishing_scan(d, pair_alternant(d))
    assert scan["ok"]
    # first sample is the grading pair itself: ratio one
    assert scan["samples"][0]["ratio"] == "1/1"


def test_scaled_sample_ratio_homogeneity():
    d = parse("2,1")
    a = [p for p, _ in d.boxes]
    b = [q for _, q in d.boxes]
    d1, d2 = exponent_sums(d)
    top = alternant([2 * x for x in a], [2 * x for x in b], d1, d2)
    base = pair_alternant(d)
    assert divide_constant(top, base) == Fraction(2 ** (d1 + d2))


def test_u_side_span_of_row_products():
    # one block of two variables: span of translates of u1 - u2 inside S_3
    p = MultivariatePoly(3, {(1, 0, 0): 1, (0, 1, 0): -1})
    span = u_side_span(p, 3)
    assert span.dim == 2


def _closure_wxw_span(p, n):
    """The reference two-sided span: p closed under the adjacent
    transpositions of the u's and of the v's, one translate at a time."""
    gens = adjacent_transpositions(2 * n, 0, n) + adjacent_transpositions(2 * n, n, n)
    return SpanModule(_span_closure(p, gens))


def _closure_trace(span, n, mu, nu):
    """Trace on the reference span of a permutation of cycle type mu on the
    u's and nu on the v's."""
    pu, pv = perm_of_partition(mu, n), perm_of_partition(nu, n)
    return span.trace_of(tuple(pu) + tuple(n + i for i in pv))


@pytest.mark.parametrize("spec", SHAPES_TO_5 + ["5,1"])
def test_gram_span_matches_closure(spec):
    d = parse(spec)
    n = d.n
    delta = pair_alternant(d)
    gram, closure = wxw_span(delta, n), _closure_wxw_span(delta, n)
    assert gram.dim == closure.dim > 0
    for mu in partitions(n):
        for nu in partitions(n):
            assert gram.trace(mu, nu) == _closure_trace(closure, n, mu, nu), (mu, nu)


@pytest.mark.parametrize("spec", SHAPES_TO_5)
def test_gram_value_is_a_class_function(spec):
    d = parse(spec)
    n = d.n
    delta = pair_alternant(d)
    group = list(permutations(range(n)))
    g = {perm: gram_value(delta, n, perm) for perm in group}
    # <delta, delta>: one monomial of coefficient +-1 per permutation
    assert g[tuple(range(n))] == factorial(n)
    for rho in group:
        inverse = [0] * n
        for i, r in enumerate(rho):
            inverse[r] = i
        for pi in group:
            conjugate = tuple(rho[pi[inverse[i]]] for i in range(n))
            assert g[conjugate] == g[pi]


def test_wxw_span_needs_diagonal_alternation():
    # u1 is not alternating under the diagonal swap
    with pytest.raises(ValueError):
        wxw_span(MultivariatePoly.variable(4, 0), 2)
    with pytest.raises(ValueError):
        wxw_span(pair_alternant(parse("2,1")), 2)


def test_harmonics_checks_runs_the_skew_check_once(monkeypatch):
    # the row's `diagonally_skew` field is wxw_span's guard; the row reads
    # the span without running that guard a second time
    real = harmonics.is_diagonally_skew
    calls = []

    def counted(p, n):
        calls.append(n)
        return real(p, n)

    monkeypatch.setattr(harmonics, "is_diagonally_skew", counted)
    for spec in ("2,1", "3,1"):
        calls.clear()
        row = surveys.harmonics_checks(parse(spec))
        assert row["ok"] and calls == [parse(spec).n]


def _summed_vandermonde(d):
    """The determinant form as a sum of n! one-term polynomials."""
    boxes = list(d.boxes)
    n = len(boxes)
    total = MultivariatePoly.zero(2 * n)
    for perm in permutations(range(n)):
        exp = [0] * (2 * n)
        for i in range(n):
            a, b = boxes[perm[i]]
            exp[i] += a
            exp[n + i] += b
        mono = MultivariatePoly(2 * n, {tuple(exp): 1})
        total = total + (mono if _perm_sign(perm) > 0 else -mono)
    return total


@pytest.mark.parametrize("spec", SHAPES_TO_5)
def test_vandermonde_determinant_matches_summation(spec):
    d = parse(spec)
    assert vandermonde_determinant(d) == _summed_vandermonde(d)


def test_side_character_rejects_non_integer_trace():
    # the line of u1 + 2 u2 is not stable under the swap, whose "trace" on
    # the normalised row u2 + u1/2 reads 1/2
    span = EchelonBasis()
    span.add({(1, 0): Fraction(1), (0, 1): Fraction(2)})
    with pytest.raises(ArithmeticError):
        side_character(SpanModule(span), 2)


# Integral polynomials hold int coefficients; the all-Fraction run below
# (every coefficient stored through frac, the alternants' determinants taken
# by the Fraction elimination of Matrix.determinant) is their reference.


def _harmonics_rows(d):
    n = d.n
    delta = pair_alternant(d)
    d1, d2 = exponent_sums(d)
    top = alternant([p for p, _ in d.boxes], [q for _, q in d.boxes], d1, d2)
    swaps = adjacent_transpositions(2 * n, 0, n) + adjacent_transpositions(2 * n, n, n)
    rows = {
        "harmonic": harmonicity(delta, n),
        "gram": [gram_value(delta, n, perm_of_partition(mu, n)) for mu in partitions(n)],
        "permuted": [delta.permute_variables(g).coeffs for g in swaps],
        "skew": is_diagonally_skew(delta, n),
        "scan": vanishing_scan(d, delta),
    }
    return (delta, top), rows


@pytest.mark.parametrize("spec", SHAPES_TO_5)
def test_int_coefficients_match_the_fraction_reference(spec, monkeypatch):
    d = parse(spec)
    polys_got, got = _harmonics_rows(d)
    with monkeypatch.context() as m:
        m.setattr(polys, "exact", frac)
        m.setattr(harmonics, "exact", frac)
        m.setattr(harmonics, "determinant", lambda rows: Matrix(rows).determinant())
        polys_want, want = _harmonics_rows(d)
    for p in polys_got:
        assert all(type(c) is int for c in p.coeffs.values())
    for p in polys_want:
        assert all(type(c) is Fraction for c in p.coeffs.values())
    assert all(type(g) is int for g in got["gram"])
    assert polys_got == polys_want and got == want
