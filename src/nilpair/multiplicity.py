"""Root data attached to a grading pair, the two-variable deformation of the
Kostant partition function, and the alternating-sum weight multiplicity
formula built from it.

All weights are handled as integer vectors in the ambient diagonal
coordinates (gl-style contents); the formula only ever consumes differences,
which land in the root lattice.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import permutations

from .linalg import frac, solve_affine
from .polys import BivariatePoly


class RegularityError(ValueError):
    pass


class BoundError(ValueError):
    pass


@dataclass(frozen=True)
class RootData:
    """Type A root system split by the signs of the grading pair values."""

    n: int
    positive: tuple  # ordered pairs (i, j) meaning eps_i - eps_j
    ne: tuple
    axis1: tuple  # value (>0, 0)
    axis2: tuple  # value (0, >0)
    interior: tuple  # value (>0, >0)
    values: dict = field(hash=False, compare=False, default_factory=dict)
    simple: tuple = ()
    rho2: tuple = ()  # 2 * half-sum of positive roots, integral
    alt: bool = False

    def root_vector(self, ij):
        i, j = ij
        v = [0] * self.n
        v[i] += 1
        v[j] -= 1
        return tuple(v)

    def to_jsonable(self):
        return {
            "positive": [list(r) for r in self.positive],
            "ne": [list(r) for r in self.ne],
            "axis1": [list(r) for r in self.axis1],
            "axis2": [list(r) for r in self.axis2],
            "interior": [list(r) for r in self.interior],
            "alt": self.alt,
        }


def root_data(h, alt=False):
    """Split the roots by the grading values and pick a deterministic
    positive system containing every root with non-negative values.

    The rule: a root is positive when the tuple (v1+v2, v1, coordinate vector)
    is lexicographically positive; the alternate rule negates the second
    component, giving a second valid choice.  The result is built once per
    (h, alt) and shared, so callers read it and leave it unchanged.
    """
    return _root_data(h, alt)


@lru_cache(maxsize=64)
def _root_data(h, alt):
    n = h.n
    if not h.is_regular():
        raise RegularityError("grading pair is not regular")
    positive, ne, ax1, ax2, interior = [], [], [], [], []
    values = {}
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            v1 = h.h1[i] - h.h1[j]
            v2 = h.h2[i] - h.h2[j]
            values[(i, j)] = (v1, v2)
            vec = [0] * n
            vec[i] += 1
            vec[j] -= 1
            key = (v1 + v2, -v1 if alt else v1, tuple(vec))
            if key > (0, 0, tuple([0] * n)):
                positive.append((i, j))
            if v1 >= 0 and v2 >= 0:
                ne.append((i, j))
                if v2 == 0:
                    ax1.append((i, j))
                elif v1 == 0:
                    ax2.append((i, j))
                else:
                    interior.append((i, j))
    positive.sort()
    pos_set = set(positive)
    if not all(r in pos_set for r in ne):
        raise RegularityError("a root with non-negative values is not positive")
    simple = _simple_roots(positive, n)
    rho2 = [0] * n
    for (i, j) in positive:
        rho2[i] += 1
        rho2[j] -= 1
    return RootData(
        n=n,
        positive=tuple(positive),
        ne=tuple(sorted(ne)),
        axis1=tuple(sorted(ax1)),
        axis2=tuple(sorted(ax2)),
        interior=tuple(sorted(interior)),
        values={k: (frac(a), frac(b)) for k, (a, b) in values.items()},
        simple=tuple(simple),
        rho2=tuple(rho2),
        alt=alt,
    )


def _simple_roots(positive, n):
    """The simple roots of a positive system of type A_{n-1}, in sorted
    order.  A positive root eps_i - eps_j is the sum of two positive roots
    only as (eps_i - eps_k) + (eps_k - eps_j), so it is simple exactly when
    no k has both (i, k) and (k, j) positive."""
    pos = set(positive)
    return sorted(
        (i, j)
        for (i, j) in positive
        if not any((i, k) in pos and (k, j) in pos for k in range(n))
    )


def cone_coordinates(rd, vec):
    """Coordinates of a root-lattice vector in the simple basis, or None when
    the vector is outside the non-negative integer cone."""
    return _cone_coordinates(rd, tuple(vec))


@lru_cache(maxsize=None)
def _cone_coordinates(rd, vec):
    cols = [rd.root_vector(r) for r in rd.simple]
    sol = solve_affine(list(zip(*cols)), vec)
    if sol is None:
        return None
    if any(c.denominator != 1 or c < 0 for c in sol):
        return None
    return tuple(int(c) for c in sol)


def height(rd, vec):
    c = cone_coordinates(rd, vec)
    return None if c is None else sum(c)


class PartitionTable:
    """Series coefficients of the inverse of the deformed denominator
    product, tabulated up to a height bound.

    The support is the full monoid generated by the positive roots: the
    factors attached to positive roots outside the non-negative quadrant
    contribute exponents that leave the quadrant semigroup, and keeping them
    is what preserves the classical specialisation at s = t = 1.
    """

    def __init__(self, rd, height_bound):
        self.rd = rd
        self.height_bound = height_bound
        self.table = _expand(rd, height_bound)

    def value(self, vec):
        """Coefficient polynomial at a lattice vector; zero off the support.

        Raises BoundError when the vector lies in the support cone but beyond
        the tabulated height, so truncation can never silently return zero.
        """
        vec = tuple(int(x) for x in vec)
        h = height(self.rd, vec)
        if h is None:
            return BivariatePoly.zero()
        if h > self.height_bound:
            raise BoundError(f"vector at height {h} beyond bound {self.height_bound}")
        return self.table.get(vec, BivariatePoly.zero())


def _factor_terms(rd, root, bound):
    """Expansion terms (k, coeff poly) of one factor of the inverse product."""
    vec = rd.root_vector(root)
    h = height(rd, vec)
    if h is None or h == 0:
        raise ValueError("positive root outside its own cone")
    kmax = bound // h
    interior = set(rd.interior)
    ax1, ax2 = set(rd.axis1), set(rd.axis2)
    terms = []
    for k in range(kmax + 1):
        if root in interior:
            # (1 - st x) / ((1 - s x)(1 - t x)): coefficient of x^k is the
            # complete homogeneous h_k(s,t) minus st h_{k-1}(s,t)
            coeffs = {(i, k - i): 1 for i in range(k + 1)}
            for i in range(k):
                key = (i + 1, k - i)
                coeffs[key] = coeffs.get(key, 0) - 1
            poly = BivariatePoly(coeffs)
        elif root in ax1:
            poly = BivariatePoly({(k, 0): 1})
        elif root in ax2:
            poly = BivariatePoly({(0, k): 1})
        else:
            poly = BivariatePoly.one()
        terms.append((k, poly))
    return terms


def _expand(rd, bound):
    acc = {tuple([0] * rd.n): BivariatePoly.one()}
    heights = {tuple([0] * rd.n): 0}
    for root in rd.positive:
        vec = rd.root_vector(root)
        h = height(rd, vec)
        terms = _factor_terms(rd, root, bound)
        new = {}
        new_heights = {}
        for point, poly in acc.items():
            base_h = heights[point]
            for k, coeff in terms:
                total_h = base_h + k * h
                if total_h > bound:
                    break
                np = tuple(a + k * b for a, b in zip(point, vec))
                add = poly * coeff
                if np in new:
                    new[np] = new[np] + add
                else:
                    new[np] = add
                    new_heights[np] = total_h
        acc, heights = new, new_heights
    return acc


def classical_partition_count(rd, vec):
    """Independent oracle: the number of ways to write vec as a multiset of
    positive roots, by direct dynamic programming."""
    return _classical_partition_count(rd, tuple(vec))


@lru_cache(maxsize=None)
def _classical_partition_count(rd, vec):
    roots = [rd.root_vector(r) for r in rd.positive]

    def count(idx, target):
        if all(x == 0 for x in target):
            return 1
        if idx == len(roots):
            return 0
        c = cone_coordinates(rd, target)
        if c is None:
            return 0
        total = 0
        r = roots[idx]
        h = height(rd, r)
        hmax = sum(c)
        for k in range(hmax // h + 1):
            rest = tuple(t - k * x for t, x in zip(target, r))
            total += count(idx + 1, rest)
        return total

    return count(0, vec)


def _perm_sign(perm):
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j = i
        length = 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def required_height(rd, lam, mu):
    """Largest cone height among w(lam + rho) - mu - rho over the Weyl group."""
    n = rd.n
    lam2 = [2 * x + r for x, r in zip(lam, rd.rho2)]
    best = 0
    for perm in permutations(range(n)):
        w2 = [lam2[perm[i]] for i in range(n)]
        arg2 = [a - 2 * m - r for a, m, r in zip(w2, mu, rd.rho2)]
        if any(x % 2 for x in arg2):
            continue
        arg = [x // 2 for x in arg2]
        h = height(rd, arg)
        if h is not None:
            best = max(best, h)
    return best


def dominant_rearrangement(rd, weight):
    """The Weyl-group image of a weight that is dominant for the chosen
    positive system."""
    n = rd.n
    order = _positivity_order(rd)
    vals = sorted(weight, reverse=True)
    out = [0] * n
    for slot, v in zip(order, vals):
        out[slot] = v
    return tuple(out)


def _positivity_order(rd):
    """Coordinate order making the chosen positive roots the 'decreasing'
    pairs: position k is the k-th largest coordinate."""
    n = rd.n
    greater = {i: set() for i in range(n)}
    for (i, j) in rd.positive:
        greater[i].add(j)
    return sorted(range(n), key=lambda i: -len(greater[i]))


def is_dominant(rd, weight):
    return all(weight[i] >= weight[j] for (i, j) in rd.positive)


def in_ne_cone(rd, weight):
    """Membership of a root-lattice vector in the semigroup generated by the
    non-negative-quadrant roots (bounded exact search)."""
    gens = [rd.root_vector(r) for r in sorted(set(rd.ne))]

    @lru_cache(maxsize=None)
    def go(target, idx):
        if all(x == 0 for x in target):
            return True
        if idx == len(gens):
            return False
        if height(rd, target) is None:
            return False
        g = gens[idx]
        hg = height(rd, g)
        hmax = height(rd, target)
        for k in range(hmax // hg + 1):
            rest = tuple(t - k * x for t, x in zip(target, g))
            if go(rest, idx + 1):
                return True
        return False

    return go(tuple(int(x) for x in weight), 0)


def multiplicity_formula(rd, table, lam, mu):
    """Alternating Weyl-group sum of table values at w(lam + rho) - mu - rho.

    lam and mu are integer weight vectors in the diagonal coordinates (equal
    total size); lam must be dominant for the chosen positive system.
    """
    n = rd.n
    if sum(lam) != sum(mu):
        raise ValueError("weights live in different determinant levels")
    if not is_dominant(rd, lam):
        raise ValueError("highest weight is not dominant for the positive system")
    lam2 = [2 * x + r for x, r in zip(lam, rd.rho2)]
    out = BivariatePoly.zero()
    for perm in permutations(range(n)):
        w2 = [lam2[perm[i]] for i in range(n)]
        arg2 = [a - 2 * m - r for a, m, r in zip(w2, mu, rd.rho2)]
        if any(x % 2 for x in arg2):
            raise ArithmeticError("shifted Weyl argument is not integral")
        arg = tuple(x // 2 for x in arg2)
        val = table.value(arg)
        if val:
            sign = _perm_sign(perm)
            out = out + (val if sign > 0 else -val)
    return out
