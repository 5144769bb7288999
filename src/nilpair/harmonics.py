"""Alternating polynomials attached to a grading pair: the double Vandermonde
determinant, harmonicity under polarized power sums, and the bimodule the
symmetric group spans from it."""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from math import factorial

from .characters import character_value, class_size
from .diagrams import ShapeClass, classify_shape, partitions
from .linalg import EchelonBasis, determinant, exact, frac, small
from .multiplicity import _perm_sign
from .polys import MultivariatePoly


def _pair_sets(d1, d2, parts, after=(0, -1)):
    """Strictly increasing tuples of `parts` distinct pairs (a, b) of
    non-negative integers above `after`, with the a's summing to d1 and the
    b's to d2."""
    if parts == 1:
        if (d1, d2) > after:
            yield ((d1, d2),)
        return
    # the pairs increase, so each of the `parts` first coordinates is >= a
    for a in range(after[0], d1 // parts + 1):
        for b in range(after[1] + 1 if a == after[0] else 0, d2 + 1):
            for rest in _pair_sets(d1 - a, d2 - b, parts - 1, (a, b)):
                yield ((a, b),) + rest


def alternant(x1, x2, d1, d2):
    """The (d1, d2)-component of the alternating exponential sum:

        (d1! d2!)^{-1} sum_w sign(w) <w x1, u>^{d1} <w x2, v>^{d2}

    in 2n variables u_1..u_n, v_1..v_n.

    The coefficient of u^a v^b is det(x1_j^{a_i} x2_j^{b_i}) / (a! b!), which
    avoids expanding any polynomial powers.  Two exact shortcuts cut the
    determinants to one per set of pairs: if two pairs (a_i, b_i) coincide,
    two rows are equal and the coefficient is 0, so such exponents are never
    formed; permuting the pairs permutes the rows and only changes the sign.
    So one determinant is taken per strictly increasing tuple of pairs, and
    its value is written, with the permutation's sign, at every reordering.
    Integral points stay ints, so the powers and the fraction-free
    determinants run on int arithmetic.
    """
    n = len(x1)
    x1 = [exact(v) for v in x1]
    x2 = [exact(v) for v in x2]
    pow1 = [[x ** k for x in x1] for k in range(d1 + 1)]
    pow2 = [[x ** k for x in x2] for k in range(d2 + 1)]
    signed = None  # most alternants below the top bidegree vanish
    coeffs = {}
    for pairs in _pair_sets(d1, d2, n):
        rows = [[p * q for p, q in zip(pow1[a], pow2[b])] for a, b in pairs]
        det = determinant(rows)
        if not det:
            continue
        fact = 1
        for a, b in pairs:
            fact *= factorial(a) * factorial(b)
        c = small(frac(det) / fact)
        if signed is None:
            signed = [(perm, _perm_sign(perm)) for perm in permutations(range(n))]
        for perm, sign in signed:
            a = tuple(pairs[k][0] for k in perm)
            b = tuple(pairs[k][1] for k in perm)
            coeffs[a + b] = c if sign > 0 else -c
    return MultivariatePoly(2 * n, coeffs)


def exponent_sums(d):
    """(sum of first coordinates, sum of second coordinates) of the boxes."""
    return (sum(p for p, _ in d.boxes), sum(q for _, q in d.boxes))


def vandermonde_determinant(d):
    """Determinant of the matrix of monomials u_i^{a_j} v_i^{b_j} over the
    boxes (a_j, b_j), expanded exactly: one signed monomial per permutation,
    written into one coefficient dict."""
    boxes = list(d.boxes)
    n = len(boxes)
    coeffs = {}
    for perm in permutations(range(n)):
        exp = tuple(boxes[k][0] for k in perm) + tuple(boxes[k][1] for k in perm)
        coeffs[exp] = coeffs.get(exp, 0) + _perm_sign(perm)
    return MultivariatePoly(2 * n, coeffs)


def pair_alternant(d):
    """The first nonvanishing bihomogeneous alternant of a Young-diagram
    pair, cross-checked against the explicit determinant form."""
    if classify_shape(d) != ShapeClass.YOUNG:
        raise ValueError("the determinant form needs a Young diagram")
    a = [p for p, _ in d.boxes]
    b = [q for _, q in d.boxes]
    d1, d2 = exponent_sums(d)
    alt = alternant(a, b, d1, d2)
    det = vandermonde_determinant(d)
    if alt != det:
        raise ArithmeticError("alternant does not match its determinant form")
    return det


def is_diagonally_skew(p, n):
    """skew under the simultaneous permutation action on u's and v's."""
    for k in range(n - 1):
        perm = list(range(2 * n))
        perm[k], perm[k + 1] = perm[k + 1], perm[k]
        perm[n + k], perm[n + k + 1] = perm[n + k + 1], perm[n + k]
        if p.permute_variables(perm) != -p:
            return False
    return True


def polarized_power_sum(n, a, b):
    """sum_i u_i^a v_i^b as a differential-operator symbol."""
    out = {}
    for i in range(n):
        e = [0] * (2 * n)
        e[i] = a
        e[n + i] = b
        out[tuple(e)] = 1
    return MultivariatePoly(2 * n, out)


def harmonicity(p, n):
    """Annihilation by every diagonal invariant of positive degree, acting as
    a differential operator.  By Weyl's theorem on polarizations (H. Weyl,
    The Classical Groups, 1939, ch. II), the polarized power sums
    p_{a,b} = sum_i u_i^a v_i^b with 1 <= a + b <= n generate the diagonal
    invariants of S_n over Q, so annihilation by those implies annihilation
    by every invariant without constant term.  An operator of degree above
    deg p kills p anyway, so the degrees stop at min(n, deg p)."""
    for total in range(1, min(n, p.total_degree()) + 1):
        for a in range(total + 1):
            b = total - a
            op = polarized_power_sum(n, a, b)
            if p.apply_diff_operator(op):
                return False
    return True


def adjacent_transpositions(nvars, start, count):
    """Index maps on nvars variables that swap variables start + k and
    start + k + 1, for k < count - 1."""
    out = []
    for k in range(start, start + count - 1):
        perm = list(range(nvars))
        perm[k], perm[k + 1] = perm[k + 1], perm[k]
        out.append(tuple(perm))
    return out


def _span_closure(poly, gens):
    """Span of the translates of poly under the group the variable
    permutations gens generate, grown one generator at a time, as an
    EchelonBasis over exponent tuples."""
    span = EchelonBasis()
    frontier = [poly] if span.add(poly.coeffs) else []
    while frontier:
        new = []
        for p in frontier:
            for g in gens:
                q = p.permute_variables(g)
                if span.add(q.coeffs):
                    new.append(q)
        frontier = new
    return span


class SpanModule:
    """A finite-dimensional permutation-stable space of polynomials, held as
    the fully reduced rows of an EchelonBasis."""

    def __init__(self, span):
        self.span = span

    @property
    def dim(self):
        return self.span.dim

    def trace_of(self, perm):
        """Trace of a variable permutation that keeps the span stable: the
        sum, over the rows, of each permuted row's coordinate at its own
        pivot.  The rows vanish at each other's pivots, so that coordinate
        is the permuted row's coefficient there, which is the row's own
        coefficient at the pivot's preimage under x_i -> x_{perm[i]}
        (entries of perm past the number of variables are ignored)."""
        return sum(
            row.get(tuple(pivot[j] for j in perm[: len(pivot)]), 0)
            for pivot, row in self.span.rows.items()
        )


def gram_value(p, n, perm):
    """<p, (1, perm) p> with the monomials orthonormal: perm, an index map
    on n letters, moves the v's of a polynomial in u_1..u_n, v_1..v_n."""
    q = p.permute_variables(tuple(range(n)) + tuple(n + i for i in perm))
    return sum(c * p.coeffs.get(e, 0) for e, c in q.coeffs.items())


class GramSpan:
    """The S_n x S_n span of a diagonally alternating polynomial, known
    through the irreducibles lambda of S_n in its support: the span is the
    sum of the f_lambda^2-dimensional blocks of those lambda."""

    def __init__(self, n, support):
        self.n = n
        self.support = support

    @property
    def dim(self):
        ones = (1,) * self.n
        return sum(character_value(lam, ones) ** 2 for lam in self.support)

    def trace(self, mu, nu):
        """Trace of (sigma on the u's, tau on the v's), sigma of cycle type
        mu and tau of cycle type nu: sgn(sigma) sum_lambda chi_lambda(sigma)
        chi_lambda(tau)."""
        sign = -1 if (self.n - len(mu)) % 2 else 1
        return sign * sum(
            character_value(lam, mu) * character_value(lam, nu)
            for lam in self.support
        )


def wxw_span(p, n):
    """Span of the S_n x S_n translates of a diagonally alternating p in
    u_1..u_n, v_1..v_n, as a GramSpan.

    As (sigma, sigma) p = sgn(sigma) p, every translate is a signed
    v-side translate (1, pi) p, so the span is the image of the group algebra
    C[S_n] acting on the v's.  The Gram matrix of the translates (1, pi) p is
    convolution by g(pi) = <p, (1, pi) p>, and diagonal alternation makes g a
    class function, so the convolution is central: it acts on the block of
    each irreducible lambda by a scalar proportional to

        g^(lambda) = sum_mu |C_mu| g(mu) chi_lambda(mu),

    and the span is the sum of the blocks where it is nonzero.  (sigma, tau)
    acts on a block by a -> sgn(sigma) tau a sigma^{-1}, whose trace is
    sgn(sigma) chi_lambda(sigma) chi_lambda(tau).  One permutation and one
    dot product per cycle type decide it all.  Raises ValueError unless p
    is a diagonally alternating polynomial in 2n variables."""
    if p.nvars != 2 * n:
        raise ValueError(f"expected a polynomial in {2 * n} variables")
    if not is_diagonally_skew(p, n):
        raise ValueError("the Gram route needs a diagonally alternating polynomial")
    return _gram_span(p, n)


def _gram_span(p, n):
    """wxw_span without its guard, for a caller that has already checked
    that p is diagonally alternating in 2n variables."""
    parts = partitions(n)
    g = {mu: gram_value(p, n, perm_of_partition(mu, n)) for mu in parts}
    support = tuple(
        lam
        for lam in parts
        if sum(class_size(mu) * g[mu] * character_value(lam, mu) for mu in parts)
    )
    return GramSpan(n, support)


def u_side_span(p, n):
    """Span of one-sided translates of a polynomial in n variables."""
    return SpanModule(_span_closure(p, adjacent_transpositions(p.nvars, 0, n)))


def perm_of_partition(mu, n):
    """A permutation with cycle type mu, as an index map."""
    perm = list(range(n))
    pos = 0
    for part in mu:
        for k in range(part):
            perm[pos + k] = pos + (k + 1) % part
        pos += part
    return tuple(perm)


def side_character(span, n):
    """Character of the first factor's action (on the u variables) on a
    two-sided span, per cycle type."""
    values = {}
    for mu in partitions(n):
        perm = perm_of_partition(mu, n) + tuple(range(n, 2 * n))
        trace = span.trace_of(perm)
        if trace != int(trace):
            raise ArithmeticError(f"trace {trace} at cycle type {mu} is not an integer")
        values[mu] = int(trace)
    return values


def coroot_product_polys(h):
    """The products of positive-value coroots for the two Levi pieces, as
    polynomials in the first n variables."""
    n = h.n
    pi1 = MultivariatePoly.constant(n, 1)
    pi2 = MultivariatePoly.constant(n, 1)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            v1 = h.h1[i] - h.h1[j]
            v2 = h.h2[i] - h.h2[j]
            diff = MultivariatePoly.linear_form(
                [1 if k == i else (-1 if k == j else 0) for k in range(n)]
            )
            if v1 > 0 and v2 == 0:
                pi1 = pi1 * diff
            elif v2 > 0 and v1 == 0:
                pi2 = pi2 * diff
    return pi1, pi2


def c_regular_samples(d):
    """Three deterministic integer vectors in the regular locus: constant on
    columns with distinct row values for the first member, mirrored for the
    second."""
    cols = sorted({p for p, _ in d.boxes})
    rows = sorted({q for _, q in d.boxes})
    samples = []
    seeds = [
        list(range(len(cols))),
        [2 * i for i in range(len(cols))],
        [i * i + i + 1 for i in range(len(cols))],
    ]
    seeds2 = [
        list(range(len(rows))),
        [2 * i for i in range(len(rows))],
        [i * i + i + 1 for i in range(len(rows))],
    ]
    for s1, s2 in zip(seeds, seeds2):
        x1 = [s1[cols.index(p)] for p, _ in d.boxes]
        x2 = [s2[rows.index(q)] for _, q in d.boxes]
        samples.append((tuple(x1), tuple(x2)))
    return samples


def in_regular_locus(d, x1, x2):
    """x1 constant on columns and separating rows inside each row; x2 the
    mirror condition."""
    n = d.n
    boxes = list(d.boxes)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            same_col = boxes[i][0] == boxes[j][0]
            same_row = boxes[i][1] == boxes[j][1]
            if same_col and x1[i] != x1[j]:
                return False
            if same_row and x1[i] == x1[j]:
                return False
            if same_row and x2[i] != x2[j]:
                return False
            if same_col and x2[i] == x2[j]:
                return False
    return True


def divide_constant(p, q):
    """p / q when p is a constant multiple of q; None otherwise."""
    if not p and not q:
        return Fraction(1)
    if not q:
        return None
    pivot = min(q.coeffs)
    if pivot not in p.coeffs and p:
        return None
    c = frac(p.coeffs.get(pivot, 0)) / q.coeffs[pivot]
    return c if q.scale(c) == p else None


def vanishing_scan(d, delta):
    """For the sample points of c_regular_samples: the alternant vanishes
    below the shape's exponent-sum bidegree and is proportional to the
    shape's alternant `delta` (its `pair_alternant`) at it."""
    d1, d2 = exponent_sums(d)
    rows = []
    all_ok = True
    for x1, x2 in c_regular_samples(d):
        if not in_regular_locus(d, x1, x2):
            raise ValueError("sample point outside the regular locus")
        entry = {"x1": list(x1), "x2": list(x2)}
        # stops at the first nonzero alternant below the top bidegree
        entry["vanishing"] = not any(
            alternant(x1, x2, a, b)
            for a in range(d1 + 1)
            for b in range(d2 + 1)
            if (a, b) != (d1, d2)
        )
        top = alternant(x1, x2, d1, d2)
        ratio = divide_constant(top, delta)
        entry["proportional"] = ratio is not None and ratio != 0
        entry["ratio"] = None if ratio is None else f"{ratio.numerator}/{ratio.denominator}"
        entry["ok"] = entry["vanishing"] and entry["proportional"]
        all_ok = all_ok and entry["ok"]
        rows.append(entry)
    return {"diagram": d.serialize(), "samples": rows, "ok": all_ok}
