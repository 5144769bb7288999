"""Root data attached to a grading pair, the two-variable deformation of the
Kostant partition function, and the alternating-sum weight multiplicity
formula built from it.

All weights are handled as integer vectors in the ambient diagonal
coordinates (gl-style contents); the formula only ever consumes differences,
which land in the root lattice.
"""

from __future__ import annotations

from itertools import permutations

from .linalg import frac
from .polys import BivariatePoly


class RegularityError(ValueError):
    pass


class BoundError(ValueError):
    pass


class RootData:
    """Type A root system split by the signs of the grading pair values.

    Equality and hashing are by every field but ``values``, the dict of
    each root's grading values."""

    __slots__ = (
        "n", "positive", "ne", "axis1", "axis2", "interior", "values",
        "simple", "rho2", "chain", "alt",
    )

    def __init__(
        self, n, positive, ne, axis1, axis2, interior, values, simple, rho2,
        chain, alt,
    ):
        self.n = n
        self.positive = positive  # ordered pairs (i, j) meaning eps_i - eps_j
        self.ne = ne
        self.axis1 = axis1  # value (>0, 0)
        self.axis2 = axis2  # value (0, >0)
        self.interior = interior  # value (>0, >0)
        self.values = values  # {(i, j): (v1, v2)}
        self.simple = simple
        self.rho2 = rho2  # 2 * half-sum of positive roots, integral
        self.chain = chain  # c_0 ... c_{n-1}: (c_a, c_b) is positive iff a < b
        self.alt = alt

    def _key(self):
        return (
            self.n, self.positive, self.ne, self.axis1, self.axis2,
            self.interior, self.simple, self.rho2, self.chain, self.alt,
        )

    def __eq__(self, other):
        return isinstance(other, RootData) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def root_vector(self, ij):
        i, j = ij
        v = [0] * self.n
        v[i] += 1
        v[j] -= 1
        return tuple(v)


def root_data(h, alt=False):
    """Split the roots by the grading values and pick a deterministic
    positive system containing every root with non-negative values.

    The rule: a root is positive when the tuple (v1+v2, v1, coordinate vector)
    is lexicographically positive; the alternate rule negates the second
    component, giving a second valid choice.  Each call builds it anew; the
    pair's record for h (GradedPair.roots) keeps it per alt.
    """
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
    chain = _chain(positive, n)
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
        simple=tuple(sorted(zip(chain, chain[1:]))),
        rho2=tuple(rho2),
        chain=chain,
        alt=alt,
    )


def _chain(positive, n):
    """The coordinates c_0 ... c_{n-1} ordered so that the positive roots
    are exactly the eps_{c_a} - eps_{c_b} with a < b: c_k is the start of
    n - 1 - k positive roots.  Raises RegularityError when the positive set
    is not of that form (not a total order of the coordinates)."""
    starts = [0] * n
    for (i, _) in positive:
        starts[i] += 1
    chain = tuple(sorted(range(n), key=lambda i: -starts[i]))
    if set(positive) != {(c, d) for k, c in enumerate(chain) for d in chain[k + 1 :]}:
        raise RegularityError("the positive roots do not order the coordinates")
    return chain


def cone_coordinates(rd, vec):
    """Coordinates of an integer root-lattice vector in the simple basis, in
    the order of rd.simple, or None when the vector is outside the
    non-negative integer cone.

    The simple roots are eps_{c_k} - eps_{c_{k+1}} along the chain, so the
    coordinate on the k-th of them is the partial sum of vec over c_0 ... c_k
    (Humphreys, Lie Algebras and Representation Theory, 10.1)."""
    if len(vec) != rd.n or sum(vec):
        return None
    through = {}
    total = 0
    for c in rd.chain[:-1]:
        total += vec[c]
        if total < 0:
            return None
        through[c] = total
    return tuple(through[i] for i, _ in rd.simple)


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
        the tabulated height, so truncation can never silently return zero,
        and ValueError when an entry is not an integer.
        """
        key = tuple(int(x) for x in vec)
        if key != tuple(vec):
            raise ValueError(f"lattice vector {tuple(vec)} has a non-integral entry")
        h = height(self.rd, key)
        if h is None:
            return BivariatePoly.zero()
        if h > self.height_bound:
            raise BoundError(f"vector at height {h} beyond bound {self.height_bound}")
        return self.table.get(key, BivariatePoly.zero())


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
    positive roots, by direct search."""
    return _root_partitions(rd, rd.positive, vec)


def _root_partitions(rd, roots, vec):
    """The number of multisets of the given positive roots that sum to vec:
    each root in turn is taken k times, k bounded by the cone height of
    what is left, with the counts memoized per (rest, root) for this call."""
    vecs = [rd.root_vector(r) for r in roots]
    heights = [height(rd, v) for v in vecs]
    memo = {}

    def count(target, idx):
        if not any(target):
            return 1
        top = height(rd, target)
        if idx == len(vecs) or top is None:
            return 0
        if (target, idx) not in memo:
            r = vecs[idx]
            memo[target, idx] = sum(
                count(tuple(t - k * x for t, x in zip(target, r)), idx + 1)
                for k in range(top // heights[idx] + 1)
            )
        return memo[target, idx]

    return count(tuple(vec), 0)


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


def dominant_rearrangement(rd, weight):
    """The Weyl-group image of a weight that is dominant for the chosen
    positive system."""
    n = rd.n
    vals = sorted(weight, reverse=True)
    out = [0] * n
    for slot, v in zip(rd.chain, vals):
        out[slot] = v
    return tuple(out)


def is_dominant(rd, weight):
    return all(weight[i] >= weight[j] for (i, j) in rd.positive)


def in_ne_cone(rd, weight):
    """Membership of a root-lattice vector in the semigroup generated by the
    non-negative-quadrant roots (bounded exact search)."""
    return _root_partitions(rd, rd.ne, weight) > 0


def weyl_arguments(rd, lam, mu):
    """The terms (sign w, w(lam + rho) - mu - rho) of the alternating sum over
    the Weyl group, w running over the permutations of the coordinates.

    lam and mu are integer weight vectors in the diagonal coordinates (equal
    total size); lam must be dominant for the chosen positive system.
    Raises ArithmeticError on an argument that is not integral.
    """
    if sum(lam) != sum(mu):
        raise ValueError("weights live in different determinant levels")
    if not is_dominant(rd, lam):
        raise ValueError("highest weight is not dominant for the positive system")
    lam2 = [2 * x + r for x, r in zip(lam, rd.rho2)]
    for perm in permutations(range(rd.n)):
        arg2 = [lam2[p] - 2 * m - r for p, m, r in zip(perm, mu, rd.rho2)]
        if any(x % 2 for x in arg2):
            raise ArithmeticError("shifted Weyl argument is not integral")
        yield _perm_sign(perm), tuple(x // 2 for x in arg2)


def multiplicity_formula(rd, table, lam, mu):
    """Alternating Weyl-group sum of table values at w(lam + rho) - mu - rho."""
    out = BivariatePoly.zero()
    for sign, arg in weyl_arguments(rd, lam, mu):
        val = table.value(arg)
        if val:
            out = out + (val if sign > 0 else -val)
    return out


def classical_multiplicity(rd, lam, mu):
    """Independent oracle for the dimension of the mu weight space: the same
    alternating sum of classical partition counts, fully independent of the
    series machinery (Kostant, Trans. AMS 93, 1959)."""
    return sum(
        sign * classical_partition_count(rd, arg)
        for sign, arg in weyl_arguments(rd, lam, mu)
    )
