"""Explicit simple gl_n-modules in their Gelfand-Tsetlin bases, plus the
bifiltration of a commuting nilpotent pair acting on them (or on gl_n by ad)
and the multiplicity and limits built on it.

A basis vector is a Gelfand-Tsetlin pattern.  Each one is homogeneous for
the diagonal torus, so weight spaces are coordinate-aligned and every
operator matrix splits along weights.  The matrix units act by closed-form
rational entries (Gelfand-Tsetlin, Dokl. Akad. Nauk SSSR 71 (1950), as
stated in Molev, arXiv math/0211289, Thm 2.3), so no elimination builds a
module.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import factorial, prod

from .linalg import Subspace, add_multiple, combine, entries, relations, small
from .multiplicity import (
    PartitionTable,
    multiplicity_formula,
    height,
    dominant_rearrangement,
    in_ne_cone,
    is_dominant,
)
from .pairs import HypothesisError, ad_columns, centralizer
from .polys import BivariatePoly


# resource bound on |lam|, the degree of the tensor power a module of
# highest weight lam lies in
MAX_TENSOR_DEGREE = 8


def weyl_dimension(n, lam):
    """Dimension of the simple module with the given partition highest
    weight, by the factorised product formula."""
    lam = list(lam) + [0] * (n - len(lam))
    num, den = 1, 1
    for i in range(n):
        for j in range(i + 1, n):
            num *= lam[i] - lam[j] + j - i
            den *= j - i
    if num % den:
        raise ArithmeticError("dimension formula did not divide")
    return num // den


def _patterns(top):
    """The Gelfand-Tsetlin patterns with the given top row: tuples of rows
    from the one-entry row up to ``top``, each row interlacing the next,
    top[i] >= row[i] >= top[i + 1]."""
    if len(top) == 1:
        return [(top,)]
    rows = product(*(range(top[i + 1], top[i] + 1) for i in range(len(top) - 1)))
    return [below + (top,) for row in rows for below in _patterns(row)]


def _weight(pattern):
    """The differences of consecutive row sums: the E_kk eigenvalues."""
    sums = [0] + [sum(row) for row in pattern]
    return tuple(b - a for a, b in zip(sums, sums[1:]))


def _commutator(x, y):
    """Sparse columns of [X, Y] from those of X and of Y."""
    out = []
    for u, v in zip(x, y):
        col = dict(combine(x, v))
        add_multiple(col, -1, combine(y, u))
        out.append(col)
    return out


class WeightModule:
    """A simple gl_n-module on the Gelfand-Tsetlin patterns of its highest
    weight, with exact matrices."""

    def __init__(self, n, lam):
        if any(int(x) != x for x in lam):
            raise ValueError("highest weight must be integral")
        lam = tuple(int(x) for x in lam)
        if any(l < 0 for l in lam) or list(lam) != sorted(lam, reverse=True):
            raise ValueError("highest weight must be a partition")
        if len([l for l in lam if l]) > n:
            raise ValueError("too many parts")
        if sum(lam) > MAX_TENSOR_DEGREE:
            raise ValueError("tensor degree over the configured bound")
        self.n = n
        self.lam = lam
        top = lam[:n] + (0,) * (n - len(lam))
        self.basis = sorted((_weight(p), p) for p in _patterns(top))  # (weight, pattern)
        self.dim = len(self.basis)
        self.weights = sorted({w for w, _ in self.basis})
        self._index = {p: i for i, (_, p) in enumerate(self.basis)}
        self._units = {}
        expected = weyl_dimension(n, lam)
        if self.dim != expected:
            raise AssertionError(
                f"pattern count gave dim {self.dim}, dimension formula {expected}"
            )

    def _unit(self, a, b):
        """Sparse columns of the matrix unit E_ab, memoized.  E_aa is the
        weight coordinate, E_{a,a+1} and E_{a+1,a} have Molev's closed
        forms, and every other unit is the commutator [E_ac, E_cb] with c
        next to b."""
        cols = self._units.get((a, b))
        if cols is None:
            if a == b:
                cols = [{j: w[a]} if w[a] else {} for j, (w, _) in enumerate(self.basis)]
            elif abs(a - b) == 1:
                cols = [self._ladder(p, a, b) for _, p in self.basis]
            else:
                c = b - 1 if a < b else b + 1
                cols = _commutator(self._unit(a, c), self._unit(c, b))
            self._units[(a, b)] = cols
        return cols

    def _ladder(self, pattern, a, b):
        """E_ab on one pattern for |a - b| = 1, on row k = min(a, b) + 1:

            E_{k,k+1} xi = -sum_i prod_j (l_ki - l_{k+1,j}) / D_i xi_{+ki}
            E_{k+1,k} xi = sum_i prod_j (l_ki - l_{k-1,j}) / D_i xi_{-ki}

        with D_i = prod_{j != i} (l_ki - l_kj) and l_ki = lam_ki - i + 1
        (x - i at the 0-based position i), where xi_{+-ki} adds or
        subtracts 1 at entry i of row k; an array that is not a pattern is
        skipped."""
        r = min(a, b)
        row = pattern[r]
        if a < b:
            sign, step, other = -1, 1, pattern[r + 1]
        else:
            sign, step, other = 1, -1, pattern[r - 1] if r else ()
        l = [x - i for i, x in enumerate(row)]
        lo = [x - i for i, x in enumerate(other)]
        col = {}
        for i, li in enumerate(l):
            moved = row[:i] + (row[i] + step,) + row[i + 1 :]
            target = self._index.get(pattern[:r] + (moved,) + pattern[r + 1 :])
            num = prod(li - lj for lj in lo)
            if target is not None and num:
                den = prod(li - lj for j, lj in enumerate(l) if j != i)
                col[target] = small(Fraction(sign * num, den))
        return col

    def act_matrix(self, x):
        """Sparse columns {row: c} of the module matrix of an arbitrary n x n
        matrix, flattened (a sparse row or a dense sequence), one per basis
        vector."""
        cols = [{} for _ in range(self.dim)]
        for k, c in entries(x):
            if c:
                for col, img in zip(cols, self._unit(*divmod(k, self.n))):
                    add_multiple(col, c, img)
        return cols

    def weight_space_indices(self, mu):
        mu = tuple(mu)
        return tuple(i for i, (w, _) in enumerate(self.basis) if w == mu)


# ---------------------------------------------------------------------------
# bifiltration of a commuting nilpotent pair


class PairAction:
    """A commuting nilpotent pair (A, B) acting on Q^dim, held as the sparse
    columns ``{row: c}`` of A and of B.

    The operator towers the bifiltration needs are built from those columns
    and memoized per (i, j, columns), so no dim-size product is formed.
    """

    def __init__(self, sparse1, sparse2):
        self.dim = len(sparse1)
        self.sparse1 = sparse1
        self.sparse2 = sparse2
        self.index1 = _nilpotency_index(sparse1)
        self.index2 = _nilpotency_index(sparse2)
        self._towers = {}

    @classmethod
    def build(cls, module, pair):
        """The pair acting on a module by derivations."""
        return cls(module.act_matrix(pair.e1), module.act_matrix(pair.e2))

    @classmethod
    def adjoint(cls, pair):
        """The pair acting on flattened n x n matrices by ad."""
        return cls(ad_columns((pair.e1,), pair.n), ad_columns((pair.e2,), pair.n))

    def product_power(self, i, j, cols):
        """Columns ``cols`` (a tuple of basis indices) of A^i B^j as sparse
        vectors, one per column.  The returned dicts are shared by the memo
        and must not be mutated.

        Block (i, j) is A applied to block (i-1, j), and block (0, j) is B
        applied to block (0, j-1); the two operators commute, so this is the
        product in either order.
        """
        key = (i, j, cols)
        block = self._towers.get(key)
        if block is None:
            if i > self.index1 or j > self.index2:
                block = tuple({} for _ in cols)
            elif i:
                prev = self.product_power(i - 1, j, cols)
                block = tuple(combine(self.sparse1, v) for v in prev)
            elif j:
                prev = self.product_power(0, j - 1, cols)
                block = tuple(combine(self.sparse2, v) for v in prev)
            else:
                block = tuple({c: 1} for c in cols)
            self._towers[key] = block
        return block

    def images(self, vectors):
        """The function (i, j) -> [A^i B^j v for v in vectors], each image
        combined from the towers of the basis columns the vectors touch;
        the support is read once and each power's images are built once."""
        support = tuple(sorted({c for v in vectors for c in v}))
        memo = {}

        def images(i, j):
            block = memo.get((i, j))
            if block is None:
                tower = dict(zip(support, self.product_power(i, j, support)))
                block = memo[(i, j)] = [combine(tower, v) for v in vectors]
            return block

        return images


def _nilpotency_index(columns):
    """Least k with the operator's k-th power zero, found by applying it to
    the basis until every image vanishes."""
    vecs = [{c: 1} for c in range(len(columns))]
    k = 0
    while vecs:
        if k > len(columns):
            raise ValueError("operator is not nilpotent")
        vecs = [w for w in (combine(columns, v) for v in vecs) if w]
        k += 1
    return k


def _stacked(blocks, count, dim):
    """Each of `count` vectors' images in Q^dim under several maps (one
    block of images per map) as one sparse vector, row r of map b keyed
    b * dim + r."""
    return [
        {
            b * dim + r: y
            for b, block in enumerate(blocks)
            for r, y in block[k].items()
        }
        for k in range(count)
    ]


def filtration_piece(action, i, j, vectors, images):
    """F_{i,j} intersected with E = span(vectors), in coordinates over the
    given basis of E (sparse vectors): the relations among the images
    A^{i+1} B^j v and A^i B^{j+1} v of the basis vectors v, read from
    images = action.images(vectors), which the pieces of E share.

    F_{i,j} = ker A^{i+1} B^j cap ker A^i B^{j+1}, with the boundary
    conventions F_{-1,j} = ker B^j and F_{i,-1} = ker A^i."""
    if (i == -1 and j <= 0) or (j == -1 and i <= 0):
        return Subspace.zero(len(vectors))
    if i == -1:
        powers = [(0, j)]
    elif j == -1:
        powers = [(i, 0)]
    else:
        powers = [(i + 1, j), (i, j + 1)]
    blocks = [images(p, q) for p, q in powers]
    return relations(_stacked(blocks, len(vectors), action.dim))


def _graded_pieces(action, vectors):
    """The nonzero pieces gr_{i,j} E = F_{i,j} / (F_{i-1,j} + F_{i,j-1})
    of E = span(vectors): yields (i, j, F_{i,j} cap E over the basis of E,
    dim gr_{i,j} E).

    The members commute, so F_{i-1,j} and F_{i,j-1} lie in F_{i,j}: once
    either is all of E, so is F_{i,j}, with no elimination and no graded
    piece."""
    full = len(vectors)
    images = action.images(vectors)
    cache = {}

    def piece(i, j):
        if (i, j) not in cache:
            lower = [cache.get(k) for k in ((i - 1, j), (i, j - 1))]
            whole = [sp for sp in lower if sp is not None and sp.dim == full]
            cache[(i, j)] = (
                whole[0]
                if whole
                else filtration_piece(action, i, j, vectors, images)
            )
        return cache[(i, j)]

    for i in range(action.index1 + 1):
        for j in range(action.index2 + 1):
            fij = piece(i, j)
            if not fij.dim:
                continue
            a, b = piece(i - 1, j), piece(i, j - 1)
            if full in (a.dim, b.dim):
                continue
            d = fij.dim - (a + b).dim
            if d:
                yield i, j, fij, d


def direct_multiplicity(action, cols):
    """Poincare polynomial of the bigraded pieces of the coordinate subspace
    on the basis columns ``cols`` (a weight space) under the pair
    bifiltration, computed by exact kernel intersections."""
    out = BivariatePoly.zero()
    for i, j, _, d in _graded_pieces(action, [{c: 1} for c in cols]):
        out = out + BivariatePoly.term(i, j, d)
    return out


def limit_space(action, E):
    """Limit of a subspace E under the commuting nilpotent flow.

    Returns the direct sum of the A^i B^j images of the bifiltration pieces
    F_{i,j} cap E; raises HypothesisError when that sum fails to be direct
    or to reach dim E.
    """
    N = E.ambient_dim
    total = 0
    vecs = []
    for i, j, fij, _ in _graded_pieces(action, E.basis):
        piece = [combine(E.basis, c) for c in fij.basis]
        img = Subspace(N, action.images(piece)(i, j))
        total += img.dim
        vecs.extend(img.basis)
    out = Subspace(N, vecs)
    if out.dim != total or out.dim != E.dim:
        raise HypothesisError("direct sum hypothesis fails for this subspace")
    return out


def grassmannian_limit(action, E):
    """Exact limit of exp(t(A+B)) E as t grows.

    Each basis vector becomes a polynomial curve in t; the limit subspace is
    found by leading-term reduction: while the top coefficient vectors are
    dependent, a dependence is used to cancel the top term of one generator,
    strictly lowering its degree.  Works without any direct-sum hypothesis.
    """
    N = E.ambient_dim
    vectors = E.basis
    curves = [{} for _ in vectors]  # per vector: degree -> sparse coefficient
    images = action.images(vectors)
    for i in range(action.index1 + 1):
        for j in range(action.index2 + 1):
            c = Fraction(1, factorial(i) * factorial(j))
            for curve, w in zip(curves, images(i, j)):
                if w:
                    add_multiple(curve.setdefault(i + j, {}), c, w)
    curves = [{d: w for d, w in curve.items() if w} for curve in curves]
    while True:
        degs = [max(curve) if curve else -1 for curve in curves]
        live = [k for k, d in enumerate(degs) if d >= 0]
        if len(live) < len(vectors):
            raise ValueError("curve degenerated; input basis was dependent")
        leads = [curves[k][degs[k]] for k in live]
        kern = relations(leads)
        if kern.dim == 0:
            return Subspace(N, leads)
        coeffs = {live[m]: c for m, c in sorted(kern.basis[0].items())}
        top = max(coeffs, key=lambda k: degs[k])
        merged = {}
        for k, c in coeffs.items():
            shift = degs[top] - degs[k]
            for d, w in curves[k].items():
                add_multiple(merged.setdefault(d + shift, {}), c, w)
        merged = {d: w for d, w in merged.items() if w}
        if degs[top] in merged:
            raise ArithmeticError("the top-degree term did not cancel")
        curves[top] = merged


def multiplicity_crosscheck(pair, h, lam, alt=False):
    """Compare the direct bifiltration multiplicities against the alternating
    partition-function formula at every weight of the module.

    The headline verdict covers dominant weights only: already in the
    degenerate one-variable regime, where the filtration theorem is a proven
    classical fact, the alternating formula acquires negative coefficients at
    non-dominant weights, so those rows are reported but not asserted.
    """
    rd = pair.graded(h).roots(alt)
    module = WeightModule(pair.n, lam)
    action = PairAction.build(module, pair)
    lam_content = tuple(list(lam) + [0] * (pair.n - len(lam)))
    lam_dom = dominant_rearrangement(rd, lam_content)
    rows = []
    equal_dominant = True
    equal_everywhere = True
    table = PartitionTable(rd, _table_height(rd, lam_dom, module.weights))
    total = sum(lam_content)
    shifted = [x - Fraction(total, pair.n) for x in lam_dom]
    # lam as a root-lattice vector: less its average, when that is integral
    hypothesis = total % pair.n == 0 and in_ne_cone(
        rd, tuple(x - total // pair.n for x in lam_dom)
    )
    for mu in module.weights:
        cols = module.weight_space_indices(mu)
        direct = direct_multiplicity(action, cols)
        formula = multiplicity_formula(rd, table, lam_dom, mu)
        equal = direct == formula
        dominant = is_dominant(rd, mu)
        dim_mu = len(cols)
        if dominant:
            equal_dominant = equal_dominant and equal
        equal_everywhere = equal_everywhere and equal
        rows.append(
            {
                "mu": list(mu),
                "dominant": dominant,
                "dim": dim_mu,
                "P_direct": direct.to_jsonable(),
                "P_formula": formula.to_jsonable(),
                "equal": equal,
                "direct_counts_weight_space": direct.eval_ones() == dim_mu,
                "formula_counts_weight_space": formula.eval_ones() == dim_mu,
            }
        )
    return {
        "lambda": list(lam),
        "lambda_dominant": list(lam_dom),
        "highest_weight_in_ne_cone": bool(hypothesis),
        "positive_system": [list(r) for r in rd.positive],
        "weights": rows,
        "equal": equal_dominant,
        "equal_everywhere": equal_everywhere,
        "dim": module.dim,
        "sl_shift": [f"{x.numerator}/{x.denominator}" for x in shifted],
    }


def _table_height(rd, lam_dom, weights):
    """The cone height the partition table must reach for the formula at
    every weight: each argument w(lam + rho) - mu - rho lies below lam - mu,
    its w = 1 term, and height is linear on the cone."""
    return max(height(rd, tuple(a - m for a, m in zip(lam_dom, mu))) for mu in weights)


def invariant_subspace(module, matrices):
    """Joint kernel in the module of a family of flattened ambient matrices:
    the relations among the images of the module basis under all of them."""
    blocks = [module.act_matrix(x) for x in matrices]
    return relations(_stacked(blocks, module.dim, module.dim))


def module_limit_check(pair, h, module, mu):
    """Limit of a weight space versus the invariants of the pair centralizer:
    the containment of the first in the second, plus the strictness data for
    the zero-weight comparison."""
    action = PairAction.build(module, pair)
    mu = tuple(mu)
    cols = module.weight_space_indices(mu)
    lim = _limit_of_columns(action, cols)
    invariants = invariant_subspace(module, centralizer(pair, ambient="sl", h=h).basis)
    contained = all(invariants.contains(v) for v in lim.basis)
    # zero-weight comparison for the strictness flag
    zero_weight = tuple([sum(mu) // module.n] * module.n) if sum(mu) % module.n == 0 else None
    if zero_weight is not None and module.weight_space_indices(zero_weight):
        lim_zero = _limit_of_columns(action, module.weight_space_indices(zero_weight))
        strict = lim_zero.dim < invariants.dim
        dims = (lim_zero.dim, invariants.dim)
    else:
        strict = False
        dims = (lim.dim, invariants.dim)
    return {
        "dim_limit": lim.dim,
        "dim_invariants": invariants.dim,
        "contained": bool(contained),
        "strict": bool(strict),
        "zero_weight_dims": list(dims),
    }


def _limit_of_columns(action, cols):
    units = [{c: 1} for c in cols]
    return grassmannian_limit(action, Subspace(action.dim, units))
