"""Explicit simple gl_n-modules inside tensor powers, realised by closing a
highest-weight vector under the lowering generators, plus the bifiltration
of a commuting nilpotent pair acting on them (or on gl_n by ad) and the
multiplicity and limits built on it.

Module vectors are sparse dicts over elementary-tensor indices; each basis
vector is homogeneous for the diagonal torus, so weight spaces are
coordinate-aligned and every operator matrix splits along weights.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from math import factorial

from .linalg import EchelonBasis, Subspace, add_multiple, combine, entries, relations
from .multiplicity import (
    PartitionTable,
    _perm_sign,
    multiplicity_formula,
    height,
    dominant_rearrangement,
    in_ne_cone,
    is_dominant,
)
from .pairs import HypothesisError, ad_columns, centralizer
from .polys import BivariatePoly


# resource bound on the tensor degree a module is built in
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


def _highest_weight_tensor(n, lam):
    """Product over columns of antisymmetrised elementary tensors."""
    cols = []
    for j in range(max(lam) if lam else 0):
        height = sum(1 for part in lam if part > j)
        cols.append(height)
    vec = {(): 1}
    for height in cols:
        new = {}
        for perm in permutations(range(height)):
            sign = _perm_sign(perm)
            for key, c in vec.items():
                nk = key + tuple(perm)
                new[nk] = new.get(nk, 0) + c * sign
        vec = {k: v for k, v in new.items() if v}
    return vec


def _content(key, n):
    out = [0] * n
    for i in key:
        out[i] += 1
    return tuple(out)


class WeightModule:
    """A simple module realised in a tensor power with exact matrices."""

    def __init__(self, n, lam):
        lam = tuple(int(x) for x in lam)
        if any(l < 0 for l in lam) or list(lam) != sorted(lam, reverse=True):
            raise ValueError("highest weight must be a partition")
        if len([l for l in lam if l]) > n:
            raise ValueError("too many parts")
        if sum(lam) > MAX_TENSOR_DEGREE:
            raise ValueError("tensor degree over the configured bound")
        self.n = n
        self.lam = lam
        self.k = sum(lam)
        self._build()
        expected = weyl_dimension(n, lam)
        if self.dim != expected:
            raise AssertionError(
                f"module closure gave dim {self.dim}, dimension formula {expected}"
            )

    # -- construction ------------------------------------------------------

    def _build(self):
        n = self.n
        hw = _highest_weight_tensor(n, self.lam)
        self.echelon = {}  # weight -> EchelonBasis of sparse tensors
        queue = [hw] if hw else []
        while queue:
            vec = queue.pop()
            weight = _content(next(iter(vec)), n)
            rem = self.echelon.setdefault(weight, EchelonBasis()).add(vec)
            if not rem:
                continue
            for i in range(n - 1):
                img = self._apply_unit(rem, i + 1, i)
                if img:
                    queue.append(img)
        self.basis = []  # (weight, pivot, vector)
        for weight in sorted(self.echelon):
            for pivot, vec in sorted(self.echelon[weight].rows.items()):
                self.basis.append((weight, pivot, vec))
        self.dim = len(self.basis)
        self.index_of = {
            (w, p): i for i, (w, p, _) in enumerate(self.basis)
        }
        self.weights = sorted({w for w, _, _ in self.basis})

    def _apply_unit(self, vec, a, b):
        """Derivation action of the matrix unit E_ab on a sparse tensor."""
        out = {}
        for key, c in vec.items():
            for slot, idx in enumerate(key):
                if idx == b:
                    nk = key[:slot] + (a,) + key[slot + 1 :]
                    nv = out.get(nk, 0) + c
                    if nv:
                        out[nk] = nv
                    else:
                        del out[nk]
        return out

    # -- operators -----------------------------------------------------------

    def coordinates(self, vec):
        """Sparse coordinates {basis index: c} of a sparse tensor (a
        combination of basis vectors), read weight space by weight space."""
        parts = {}
        for key, x in vec.items():
            parts.setdefault(_content(key, self.n), {})[key] = x
        coords = {}
        for weight, part in parts.items():
            if weight not in self.echelon:
                raise ValueError("vector outside the module")
            for pivot, c in self.echelon[weight].coordinates(part).items():
                coords[self.index_of[(weight, pivot)]] = c
        return coords

    def act_matrix(self, x):
        """Sparse columns {row: c} of the module matrix of an arbitrary n x n
        matrix, flattened (a sparse row or a dense sequence), acting by
        derivations, one per basis vector."""
        units = [(divmod(k, self.n), c) for k, c in entries(x) if c]
        cols = []
        for _, _, vec in self.basis:
            img = {}
            for (a, b), c in units:
                add_multiple(img, c, self._apply_unit(vec, a, b))
            cols.append(self.coordinates(img))
        return cols

    def weight_space_indices(self, mu):
        mu = tuple(mu)
        return tuple(i for i, (w, _, _) in enumerate(self.basis) if w == mu)

    def character(self):
        out = {}
        for w, _, _ in self.basis:
            out[w] = out.get(w, 0) + 1
        return out


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
    invariants = invariant_subspace(module, centralizer(pair, ambient="sl").basis)
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
