"""Commuting nilpotent matrix pairs built from box diagrams: centralizers,
bigradings, bi-exponents, classification and the structural checks that go
with them.

The ambient algebra is gl_n internally (matrix units are bigraded there);
the trace-zero pieces and graded kernels are the gl ones cut with the trace
hyperplane (see _sl_cut).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import isqrt

from .diagrams import Diagram, ShapeClass, ShapeError, SKEWISH, classify_shape
from .diagrams import pairs_by_shift
from .linalg import EchelonBasis, Matrix, Subspace, entries, exact, frac, small
from .linalg import kernel_in, matmul, relations, shifted
from .multiplicity import root_data


class StabilityError(ValueError):
    pass


class HypothesisError(ValueError):
    pass


class ClassificationError(ValueError):
    pass


class GradingError(ValueError):
    pass


class SemisimplePair:
    """A commuting pair of rational diagonal matrices grading the pair.

    The diagonals are held through `exact`, so an integral grading has int
    entries and int bidegrees; 1 == Fraction(1) with equal hashes, so
    equality and hashing, by (h1, h2), do not see the difference."""

    __slots__ = ("h1", "h2")

    def __init__(self, h1, h2):
        self.h1 = tuple(map(exact, h1))
        self.h2 = tuple(map(exact, h2))

    def __eq__(self, other):
        return (
            isinstance(other, SemisimplePair)
            and self.h1 == other.h1
            and self.h2 == other.h2
        )

    def __hash__(self):
        return hash((self.h1, self.h2))

    def __repr__(self):
        return f"SemisimplePair(h1={self.h1!r}, h2={self.h2!r})"

    @property
    def n(self):
        return len(self.h1)

    def is_regular(self):
        return len(set(zip(self.h1, self.h2))) == self.n

    def is_integral(self):
        return all(x.denominator == 1 for x in self.h1 + self.h2)

    def bidegree(self, i, j):
        return (small(self.h1[i] - self.h1[j]), small(self.h2[i] - self.h2[j]))

    def to_jsonable(self):
        return {
            "h1": [f"{x.numerator}/{x.denominator}" for x in self.h1],
            "h2": [f"{x.numerator}/{x.denominator}" for x in self.h2],
        }


class NilPair:
    """A pair of commuting nilpotent n x n matrices with provenance, each
    member held as its flattened tuple of n^2 exact rationals (row-major):
    an int where the entry is integral, a Fraction otherwise, never a
    float.

    The data derived from the pair under a grading lives in the pair's
    GradedPair records (graded), so it is freed with the pair."""

    __slots__ = ("n", "e1", "e2", "provenance", "_graded")

    def __init__(self, e1, e2, provenance="custom", check=True):
        self.e1 = tuple(map(exact, e1))
        self.e2 = tuple(map(exact, e2))
        self.n = isqrt(len(self.e1))
        self.provenance = provenance
        self._graded = {}
        if self.n**2 != len(self.e1) or len(self.e2) != len(self.e1):
            raise ValueError("pair members must be square of equal size")
        if check:
            if ad(self.e1, self.e2, self.n):
                raise ValueError("pair members do not commute")
            if not all(is_nilpotent(m, self.n) for m in (self.e1, self.e2)):
                raise ValueError("pair members must be nilpotent")

    def graded(self, h=None):
        """The pair's record under the grading h, made on first use; h None
        stands for the diagram grading (provenance_grading).  Raises
        ClassificationError when there is no grading."""
        records = self._graded
        record = records.get(h)
        if record is None:
            grading = provenance_grading(self) if h is None else h
            if grading is None:
                raise ClassificationError("no grading pair available")
            record = records.get(grading) or GradedPair(self.e1, self.e2, grading)
            records[h] = records[grading] = record
        return record

    def swap(self):
        """The pair (e2, e1) on the same basis.  Its provenance is the
        grading with the diagonals exchanged, not the transposed Diagram,
        whose sorted boxes would label the basis in another order."""
        d = self.provenance
        if isinstance(d, Diagram):
            prov = SemisimplePair([q for _, q in d.boxes], [p for p, _ in d.boxes])
        elif isinstance(d, SemisimplePair):
            prov = SemisimplePair(d.h2, d.h1)
        else:
            prov = "custom"
        return NilPair(self.e2, self.e1, prov, check=False)

    def to_jsonable(self):
        def number(x):
            return x if x.__class__ is int else f"{x.numerator}/{x.denominator}"

        def entries(m):
            return [[*divmod(k, self.n), number(x)] for k, x in enumerate(m) if x]

        prov = (
            self.provenance.serialize()
            if isinstance(self.provenance, Diagram)
            else str(self.provenance)
        )
        return {"n": self.n, "e1": entries(self.e1), "e2": entries(self.e2), "provenance": prov}


class GradedPair:
    """One pair (e1, e2) under one grading h, and the data derived from
    them: the bigraded pieces, root data and graded kernels here, the
    kernel towers, H^1 table and corner frames in cohomology.  Each is
    built on first use and kept in `memo`; callers share them and must not
    mutate them.  NilPair.graded makes the record and holds it; the record
    holds no reference back to the pair."""

    __slots__ = ("e1", "e2", "n", "h", "memo", "__weakref__")

    def __init__(self, e1, e2, h):
        self.e1, self.e2, self.n, self.h = e1, e2, h.n, h
        self.memo = {}

    def derived(self, key, build, *args):
        """memo[key], made as build(*args) on first use."""
        memo = self.memo
        if key not in memo:
            memo[key] = build(*args)
        return memo[key]

    def pieces(self, ambient):
        """bigraded_pieces(h, ambient), built once in gl; the sl pieces are
        its trace cut (_sl_cut), which keeps a zero (0, 0) piece and shares
        every piece off (0, 0) with it."""
        if ambient == "sl":
            return self.derived(("pieces", "sl"), _sl_cut, self.pieces("gl"), True)
        return self.derived(("pieces", "gl"), bigraded_pieces, self.h)

    def roots(self, alt=False):
        """root_data(h, alt), built once per alt."""
        return self.derived(("roots", alt), root_data, self.h, alt)

    def kernels(self, name, ambient):
        """The nonzero blocks {(p, q): Subspace} of the graded kernel `name`:
        "K1" = ker [e1, .], "K2" = ker [e2, .] or the joint "K12".  Each is
        built once, in gl; the sl blocks are its trace cut (_sl_cut), which
        shares every block off (0, 0) with it."""
        if ambient == "sl":
            return self.derived((name, "sl"), _sl_cut, self.kernels(name, "gl"))
        return self.derived((name, "gl"), _kernel_blocks, self, name)


def build_pair(d):
    """Matrix pair of a diagram: the first member steps one box right, the
    second one box up; the grading pair is the diagonal of box coordinates."""
    shape = classify_shape(d)
    if shape not in SKEWISH:
        raise ShapeError(f"no commuting pair for shape {shape.value}")
    pair = NilPair(*_diagram_members(d.boxes), provenance=d)
    h = SemisimplePair([p for p, _ in d.boxes], [q for _, q in d.boxes])
    _check_grading(pair, h)
    return pair, h


def _diagram_members(boxes):
    """The members on the basis labelled by the boxes, in their order, as
    dense flattened matrices: the first steps one box right, the second one
    box up."""
    n = len(boxes)
    index = {box: i for i, box in enumerate(boxes)}
    e1 = [0] * (n * n)
    e2 = [0] * (n * n)
    for (p, q), i in index.items():
        if (p + 1, q) in index:
            e1[index[(p + 1, q)] * n + i] = 1
        if (p, q + 1) in index:
            e2[index[(p, q + 1)] * n + i] = 1
    return e1, e2


def _check_grading(pair, h):
    """Raise GradingError unless [h1, e1] = e1, [h2, e2] = e2 and the mixed
    brackets vanish.  As [diag(h), x]_ij = (h_i - h_j) x_ij, that says each
    nonzero entry of e1 has bidegree (1, 0) and each one of e2 (0, 1)."""
    if h.n != pair.n:
        raise GradingError("the semisimple pair has the wrong size")
    if not (
        _homogeneous(pair.e1, (1, 0), h, pair.n)
        and _homogeneous(pair.e2, (0, 1), h, pair.n)
    ):
        raise GradingError("the semisimple pair does not grade the nilpotent pair")


def _homogeneous(m, degree, h, n):
    """Whether every nonzero entry of the flattened n x n matrix m has the
    given bidegree under h."""
    return all(not x or h.bidegree(*divmod(k, n)) == degree for k, x in enumerate(m))


def direct_sum(pairs_and_gradings):
    """Block direct sum of pairs; the grading diagonals are concatenated."""
    n = sum(p.n for p, _ in pairs_and_gradings)
    e1 = [0] * (n * n)
    e2 = [0] * (n * n)
    h1, h2 = [], []
    off = 0
    for pair, h in pairs_and_gradings:
        for k in range(pair.n**2):
            i, j = divmod(k, pair.n)
            e1[(off + i) * n + off + j] = pair.e1[k]
            e2[(off + i) * n + off + j] = pair.e2[k]
        h1.extend(h.h1)
        h2.extend(h.h2)
        off += pair.n
    return NilPair(e1, e2, provenance="direct_sum"), SemisimplePair(h1, h2)


def provenance_grading(pair):
    """The grading a pair's provenance gives: a Diagram's box coordinates, or
    the SemisimplePair a swapped pair keeps; None for any other."""
    d = pair.provenance
    if isinstance(d, Diagram):
        return SemisimplePair([p for p, _ in d.boxes], [q for _, q in d.boxes])
    return d if isinstance(d, SemisimplePair) else None


# ---------------------------------------------------------------------------
# matrix-space plumbing: gl_n flattened to n^2 coordinates


def ad_matrix(x):
    """Matrix of ad x = [x, .] on flattened n x n matrices.

    No package code calls it; it stays only as a name the benchmark's
    per-layer trace wraps, and the tests use it as the dense reference."""
    n = x.rows
    rows = [[Fraction(0)] * (n * n) for _ in range(n * n)]
    for a in range(n):
        for b in range(n):
            # [x, E_ab] = sum_i x_ia E_ib - sum_j x_bj E_aj
            col = a * n + b
            for i in range(n):
                if x.data[i][a]:
                    rows[i * n + b][col] += x.data[i][a]
            for j in range(n):
                if x.data[b][j]:
                    rows[a * n + j][col] -= x.data[b][j]
    return Matrix(rows)


def ad(x, v, n):
    """[x, v] for flattened n x n matrices x and v, each a sparse row or a
    dense sequence, as a sparse row {index: exact rational}."""
    return ad_each(x, (v,), n)[0]


def ad_each(x, vectors, n):
    """[x, v] for every v in vectors, each a sparse row {index: exact
    rational}; x and the vectors are flattened n x n matrices, as sparse rows
    or dense sequences.  Products of int entries stay ints.

    x's nonzero entries are indexed by column and by row once: each nonzero
    V_ab meets the entries x_ia of column a, giving x_ia V_ab at (i, b), and
    the entries x_bc of row b, giving -V_ab x_bc at (a, c)."""
    by_col, by_row = [[] for _ in range(n)], [[] for _ in range(n)]
    for ia, c in entries(x):
        if c:
            i, a = divmod(ia, n)
            by_col[a].append((i * n, c))
            by_row[i].append((a, c))
    images = []
    for v in vectors:
        out = {}
        for ab, y in entries(v):
            if y:
                a, b = divmod(ab, n)
                for row, c in by_col[a]:
                    k = row + b
                    out[k] = out.get(k, 0) + c * y
                row = a * n
                for col, c in by_row[b]:
                    k = row + col
                    out[k] = out.get(k, 0) - y * c
        images.append({k: y for k, y in out.items() if y})
    return images


def ad_columns(members, n):
    """The columns of X -> ([x, X] for x in members) on flattened n x n
    matrices, as sparse rows: column j holds the brackets with the unit
    matrix j, member i's keyed i n^2 + k.  Further conditions on X go in as
    keys from len(members) n^2 on."""
    nn = n * n
    units = [{j: 1} for j in range(nn)]
    cols = [{} for _ in range(nn)]
    for i, x in enumerate(members):
        for col, image in zip(cols, ad_each(x, units, n)):
            col.update(shifted(image, i * nn))
    return cols


def ad_image(x, space):
    """[x, space] as a subspace of flattened matrices."""
    n = isqrt(space.ambient_dim)
    return Subspace(space.ambient_dim, ad_each(x, space.basis, n))


def traceless_cut(space):
    """Intersect a subspace of flattened matrices with the trace hyperplane."""
    step = isqrt(space.ambient_dim) + 1
    traces = [{0: sum(x for k, x in b.items() if k % step == 0)} for b in space.basis]
    return kernel_in(space, traces)


def bigraded_pieces(h, ambient="gl"):
    """Decomposition of gl_n (or its trace-zero part) by (ad h1, ad h2)
    bidegree.  Returns {(p, q): Subspace of flattened matrices}, built anew
    on each call; the pair's record for h (GradedPair.pieces) keeps them."""
    if ambient == "sl":
        return _sl_cut(bigraded_pieces(h), keep_zero=True)
    n = h.n
    groups = {}
    for i in range(n):
        for j in range(n):
            groups.setdefault(h.bidegree(i, j), []).append(i * n + j)
    return {
        key: Subspace.canonical(n * n, [{idx: 1} for idx in idxs])
        for key, idxs in groups.items()
    }


def _sl_cut(blocks, keep_zero=False):
    """The trace-zero blocks of gl blocks {(p, q): Subspace}, in their key
    order.  Only the (0, 0) block holds diagonal matrices, so every other
    block is traceless and shared as it is, and (0, 0) is cut with the trace
    hyperplane: the sl piece is gl(0, 0) with tr = 0, so a kernel on it is
    the gl kernel with tr = 0, and canonical rows make the two equal.  A
    zero cut is dropped unless keep_zero."""
    out = {}
    for key, block in blocks.items():
        if key == (0, 0):
            block = traceless_cut(block)
            if not (block.dim or keep_zero):
                continue
        out[key] = block
    return out


def ad_map_between(x, source, target):
    """The images [x, v] of the source's canonical basis vectors, each in
    the coordinates of the target's canonical basis.  Raises StabilityError
    if an image leaves the target.

    No package code calls it: the graded kernels check the member's
    bidegree once and take ambient-keyed images.  It stays only because the
    benchmark's per-layer trace names it, and for its test."""
    n = isqrt(source.ambient_dim)
    try:
        return [target.coordinates(ad(x, v, n)) for v in source.basis]
    except ValueError:
        raise StabilityError("bracket image leaves the target piece") from None


def member_kernels(pair, h, member, ambient="sl"):
    """The kernel of [e_member, .] on each bigraded piece g_{p,q}:
    {(p, q): Subspace}, nonzero kernels only.  It depends on that member
    alone; the pair's record for h (NilPair.graded) builds it once, in gl,
    and the sl kernels are its trace cut and share every block off (0, 0)
    with it.  Callers share them and must not mutate them."""
    return pair.graded(h).kernels("K1" if member == 1 else "K2", ambient)


def centralizer_bigraded(pair, h, ambient="sl"):
    """Bigraded joint centralizer K12: {(p, q): Subspace}, nonzero blocks
    only.  Each block is the kernel of [e2, .] on the K1 block, which is
    smaller than the piece, so K2 is never built for it.  The pair's
    record for h builds it once, in gl; the sl blocks are its trace cut,
    sharing every block off (0, 0).  Raises StabilityError when h does not
    grade the pair."""
    return pair.graded(h).kernels("K12", ambient)


def _kernel_blocks(g, name):
    """The gl blocks of GradedPair.kernels: K1 and K2 on every piece, K12
    as the kernel of [e2, .] on every K1 block.  When the members it reads
    are monomial (every diagram pair's are) the blocks come from a weighted
    union-find (_forest_blocks), otherwise by elimination (kernel_in)."""
    # a member whose every entry has bidegree `step` maps each block into
    # the piece `step` further on, so the images are taken as they are:
    # reading them in that piece's coordinates, an injective linear map,
    # would give the same kernel.  Each member's entries are checked for
    # their bidegree, e1's for K1 and e2's for K2 and K12: e2 is bracketed
    # on the K1 blocks only, so a check on its images could miss an entry
    x, step = (g.e1, (1, 0)) if name == "K1" else (g.e2, (0, 1))
    if not _homogeneous(x, step, g.h, g.n):
        raise StabilityError("the pair is not homogeneous for this bigrading")
    blocks = g.kernels("K1", "gl") if name == "K12" else g.pieces("gl")
    # the K1 blocks' rows sit on disjoint keys when the forest built them
    read = (g.e1, g.e2) if name == "K12" else (x,)
    if all(_monomial(m, g.n) for m in read):
        return _forest_blocks(x, blocks, g.n)
    out = {}
    for key, block in blocks.items():
        kern = kernel_in(block, ad_each(x, block.basis, g.n))
        if kern.dim:
            out[key] = kern
    return out


def _monomial(m, n):
    """Whether the flattened n x n matrix m has at most one nonzero entry in
    each row and in each column."""
    rows, cols = set(), set()
    for k, x in enumerate(m):
        if x:
            i, j = divmod(k, n)
            if i in rows or j in cols:
                return False
            rows.add(i)
            cols.add(j)
    return True


def _ratio(a, b):
    """a / b for nonzero exact rationals, on ints when b is +-1."""
    return a * b if b == 1 or b == -1 else small(frac(a) / b)


def _forest_blocks(x, blocks, n):
    """The nonzero kernels of [x, .] on the blocks {(p, q): Subspace}, read
    off a weighted union-find over the n^2 unit matrices with no
    elimination.  x is monomial and homogeneous for the blocks' bidegrees,
    and the blocks' canonical rows sit on disjoint keys: the pieces, or K1
    blocks built here.

    The forest starts with each row's keys tied to its pivot by the row's
    entries and every unit outside the rows zero, so the kernel is taken on
    the span of the rows.  Entry (i, j) of [x, V] is x_ia V_aj - V_ib x_bj,
    where a is the one column of x's row i with a nonzero and b the one row
    of its column j; either term is missing where there is none.  So every
    equation has at most two terms and the kernel is exact: an equation with
    one term makes its unit's component zero, one with two ties the two
    components by the exact ratio of their entries, and a cycle of ties
    whose ratios disagree makes its component zero.  Each component's root
    is its least key, so a free component is one kernel row, its weights, 1
    at that key; the rows sit on disjoint keys, so they are canonical as
    they are.  x ties units of one bidegree only, so every component lies
    in one block, and a block the kernel fills is returned itself."""
    nn = n * n
    parent = list(range(nn))
    weight = [1] * nn  # V_k = weight[k] V_parent[k]; a root's weight is 1
    zero = [True] * nn  # read at the roots
    for block in blocks.values():
        for pivot, row in zip(block.pivots, block.basis):
            for k, w in row.items():
                parent[k], weight[k], zero[k] = pivot, w, False

    def find(k):
        """k's root, with k's path compressed, so that afterwards
        V_k = weight[k] V_root."""
        root = parent[k]
        if parent[root] == root:
            return root
        path = [k]
        while parent[root] != root:
            path.append(root)
            root = parent[root]
        w = 1
        for node in reversed(path):
            w *= weight[node]
            parent[node], weight[node] = root, w
        return root

    in_row, in_col = [None] * n, [None] * n
    for k, c in enumerate(x):
        if c:
            i, j = divmod(k, n)
            in_row[i], in_col[j] = (j, c), (i, c)
    for i in range(n):
        for j in range(n):
            left, right = in_row[i], in_col[j]
            if left is None or right is None:
                if left is not None or right is not None:
                    k = left[0] * n + j if right is None else i * n + right[0]
                    zero[find(k)] = True
                continue
            k1, k2 = left[0] * n + j, i * n + right[0]
            r1, r2 = find(k1), find(k2)
            # a V_r1 + b V_r2 = 0; the greater root goes under the lesser
            a, b = left[1] * weight[k1], -right[1] * weight[k2]
            if r1 == r2:
                if a + b:
                    zero[r1] = True
                continue
            if r1 > r2:
                r1, r2, a, b = r2, r1, b, a
            parent[r2], weight[r2] = r1, _ratio(-a, b)
            zero[r1] = zero[r1] or zero[r2]
    rows = {}
    for k in range(nn):
        root = find(k)
        if not zero[root]:
            rows.setdefault(root, {})[k] = weight[k]
    out = {}
    for key, block in blocks.items():
        found = [rows[k] for row in block.basis for k in row if k in rows]
        if found:
            out[key] = block if len(found) == block.dim else Subspace.canonical(nn, found)
    return out


def centralizer(pair, ambient="sl", h=None):
    """Joint centralizer of the pair inside gl_n or its trace-zero part."""
    if h is None:
        h = provenance_grading(pair)
    if h is not None:
        # blocks of different bidegrees sit on disjoint keys, so their
        # canonical rows together are canonical
        blocks = centralizer_bigraded(pair, h, ambient)
        vecs = [v for sp in blocks.values() for v in sp.basis]
        return Subspace.canonical(pair.n**2, vecs)
    # no grading: the joint kernel of both brackets on all of gl_n, and in
    # sl the trace as one more equation, keyed after the brackets
    n = pair.n
    cols = ad_columns((pair.e1, pair.e2), n)
    if ambient == "sl":
        for j in range(0, n * n, n + 1):
            cols[j][2 * n * n] = 1
    return relations(cols)


def biexponents(pair, h=None, verdict=None):
    """Bidegrees (with multiplicity) of a bihomogeneous basis of the
    trace-zero centralizer.  `verdict` is classify_pair(pair, h), passed in
    by a caller that already has it."""
    h = pair.graded(h).h
    if (verdict or classify_pair(pair, h)) != "principal":
        raise ClassificationError("bi-exponents are defined for principal pairs only")
    blocks = centralizer_bigraded(pair, h, ambient="sl")
    out = []
    for (p, q), sp in sorted(blocks.items()):
        out.extend([(p, q)] * sp.dim)
    return tuple(out)


def is_nilpotent(vec, n):
    """True if the flattened n x n matrix vec, a sparse row or a dense
    sequence, is nilpotent: its n-th power, taken by sparse products,
    vanishes."""
    vec = {k: x for k, x in entries(vec) if x}
    power = vec
    for _ in range(n - 1):
        if not power:
            return True
        power = matmul(power, vec, n)
    return not power


def is_nilpotent_family(space, n):
    """True if every element of the matrix subspace is nilpotent.

    Closes the span under products (word length at most n suffices) and
    checks each basis element; on a product-closed span that is enough, since
    the traces of all powers of every element then vanish.
    """
    basis = space.basis
    ech = EchelonBasis()
    for v in basis:
        ech.add(v)
    current = basis
    for _ in range(n):
        new = []
        for a in current:
            for b in basis:
                m = matmul(a, b, n)
                if ech.add(m):
                    new.append(m)
        if not new:
            break
        current = new
    return all(is_nilpotent(v, n) for v in ech.rows.values())


def classify_pair(pair, h=None):
    """One of principal / distinguished / nil_pair / invalid."""
    return _classify(pair, h)[0]


def _classify(pair, h=None):
    """(class, z_sl, nilpotent): classify_pair's verdict, the sl centralizer
    it read (None for an invalid pair) and whether that centralizer is a
    nilpotent family, or None where the rule did not need to know."""
    if ad(pair.e1, pair.e2, pair.n):
        return "invalid", None, None
    if not all(is_nilpotent(m, pair.n) for m in (pair.e1, pair.e2)):
        return "invalid", None, None
    if h is None:
        h = provenance_grading(pair)
    have_regular_h = False
    if h is not None:
        _check_grading(pair, h)
        have_regular_h = h.is_regular()
    z_sl = centralizer(pair, ambient="sl", h=h)
    if have_regular_h and h.is_integral() and z_sl.dim == pair.n - 1:
        blocks = centralizer_bigraded(pair, h, "sl")
        if all(p >= 0 and q >= 0 and (p, q) != (0, 0) for p, q in blocks):
            return "principal", z_sl, None
    if not have_regular_h:
        return "nil_pair", z_sl, None
    nilpotent = is_nilpotent_family(z_sl, pair.n)
    return ("distinguished" if nilpotent else "nil_pair"), z_sl, nilpotent


def monomial_basis_check(pair):
    """For a Young-diagram pair: do the monomials e1^p e2^q over the boxes
    (other than the corner) span the trace-zero centralizer?"""
    d = pair.provenance
    if not isinstance(d, Diagram) or classify_shape(d) != ShapeClass.YOUNG:
        raise ShapeError("monomial basis check needs a Young-diagram pair")
    n = pair.n
    top = max(max(b) for b in d.boxes)
    t1, t2 = power_tower(pair.e1, n, top), power_tower(pair.e2, n, top)
    vecs = [matmul(t1[p], t2[q], n) for p, q in d.boxes if (p, q) != (0, 0)]
    span = Subspace(n * n, vecs)
    return span == centralizer(pair, ambient="sl")


def power_tower(m, n, top):
    """The powers m^0, ..., m^top of a flattened n x n matrix as sparse
    rows."""
    tower = [{i * (n + 1): 1 for i in range(n)}]
    for _ in range(top):
        tower.append(matmul(tower[-1], m, n))
    return tower


def shift_basis_check(pair):
    """{(p, q): (ok, dim)} for every shift 0 <= p <= pmax + 1, 0 <= q <=
    qmax + 1 over the diagram's boxes: the translation maps built from the
    in/out subset pairs related by (p, q) span a space of dimension dim,
    and ok says it is exactly the (p, q) component of the gl centralizer."""
    d = pair.provenance
    if not isinstance(d, Diagram):
        raise ShapeError("check needs a diagram pair")
    n = pair.n
    index = {box: i for i, box in enumerate(d.boxes)}
    by_shift = pairs_by_shift(d)
    blocks = centralizer_bigraded(pair, pair.graded().h, ambient="gl")
    zero = Subspace.zero(n * n)
    pmax = max(i for i, _ in d.boxes)
    qmax = max(j for _, j in d.boxes)
    out = {}
    for p in range(pmax + 2):
        for q in range(qmax + 2):
            vecs = [
                {index[(i + p, j + q)] * n + index[(i, j)]: 1 for (i, j) in sp.nu_in}
                for sp in by_shift.get((p, q), ())
            ]
            span = Subspace(n * n, vecs)
            out[(p, q)] = (span == blocks.get((p, q), zero), span.dim)
    return out


def weak_lefschetz_report(pair, h=None):
    """Injectivity/surjectivity pattern of both bracket actions across the
    bigrading; returns one record per checked map."""
    g = pair.graded(h)
    pieces = g.pieces("sl")
    k1, k2 = (g.kernels(name, "sl") for name in ("K1", "K2"))
    zero = Subspace.zero(pair.n**2)
    records = []
    for key in sorted(pieces, key=lambda k: (k[1], k[0])):
        src = pieces[key]
        if not src.dim:
            continue
        for which, kern, shift in (("e1", k1, (1, 0)), ("e2", k2, (0, 1))):
            tgt = pieces.get((key[0] + shift[0], key[1] + shift[1]), zero)
            rank = src.dim - kern.get(key, zero).dim
            level = key[0] if which == "e1" else key[1]
            expected = "injective" if level < 0 else "surjective"
            ok = rank == src.dim if level < 0 else rank == tgt.dim
            records.append(
                {
                    "bidegree": list(key),
                    "map": which,
                    "expected": expected,
                    "ok": bool(ok),
                }
            )
    return records


def abelian_check(space, n):
    return not any(ad(a, b, n) for a, b in combinations(space.basis, 2))
