"""Commuting nilpotent matrix pairs built from box diagrams: centralizers,
bigradings, bi-exponents, classification and the structural checks that go
with them.

The ambient algebra is gl_n internally (matrix units are bigraded there);
trace-zero results are obtained by cutting with the trace hyperplane.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import isqrt

from .diagrams import Diagram, ShapeClass, ShapeError, SKEWISH, classify_shape
from .diagrams import subset_pairs
from .linalg import EchelonBasis, Matrix, Subspace, entries, exact, small
from .linalg import kernel_in, matmul, relations, shifted


class StabilityError(ValueError):
    pass


class HypothesisError(ValueError):
    pass


class ClassificationError(ValueError):
    pass


class GradingError(ValueError):
    pass


@dataclass(frozen=True)
class SemisimplePair:
    """A commuting pair of rational diagonal matrices grading the pair.

    The diagonals are held through `exact`, so an integral grading has int
    entries and int bidegrees; 1 == Fraction(1) with equal hashes, so
    equality and hashing do not see the difference."""

    h1: tuple
    h2: tuple

    def __post_init__(self):
        object.__setattr__(self, "h1", tuple(map(exact, self.h1)))
        object.__setattr__(self, "h2", tuple(map(exact, self.h2)))

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
    float."""

    __slots__ = ("n", "e1", "e2", "provenance")

    def __init__(self, e1, e2, provenance="custom", check=True):
        self.e1 = tuple(map(exact, e1))
        self.e2 = tuple(map(exact, e2))
        self.n = isqrt(len(self.e1))
        self.provenance = provenance
        if self.n**2 != len(self.e1) or len(self.e2) != len(self.e1):
            raise ValueError("pair members must be square of equal size")
        if check:
            if ad(self.e1, self.e2, self.n):
                raise ValueError("pair members do not commute")
            if not all(is_nilpotent(m, self.n) for m in (self.e1, self.e2)):
                raise ValueError("pair members must be nilpotent")

    def swap(self):
        prov = (
            self.provenance.transpose()
            if isinstance(self.provenance, Diagram)
            else "custom"
        )
        return NilPair(self.e2, self.e1, prov, check=False)

    def to_jsonable(self):
        def entries(m):
            return [[*divmod(k, self.n), int(x)] for k, x in enumerate(m) if x]

        prov = (
            self.provenance.serialize()
            if isinstance(self.provenance, Diagram)
            else str(self.provenance)
        )
        return {"n": self.n, "e1": entries(self.e1), "e2": entries(self.e2), "provenance": prov}


def build_pair(d):
    """Matrix pair of a diagram: the first member steps one box right, the
    second one box up; the grading pair is the diagonal of box coordinates."""
    shape = classify_shape(d)
    if shape not in SKEWISH:
        raise ShapeError(f"no commuting pair for shape {shape.value}")
    n = d.n
    index = {box: i for i, box in enumerate(d.boxes)}
    e1 = [0] * (n * n)
    e2 = [0] * (n * n)
    for (p, q), i in index.items():
        if (p + 1, q) in index:
            e1[index[(p + 1, q)] * n + i] = 1
        if (p, q + 1) in index:
            e2[index[(p, q + 1)] * n + i] = 1
    pair = NilPair(e1, e2, provenance=d)
    h = SemisimplePair([p for p, _ in d.boxes], [q for _, q in d.boxes])
    _check_grading(pair, h)
    return pair, h


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
    if isinstance(pair.provenance, Diagram):
        d = pair.provenance
        return SemisimplePair([p for p, _ in d.boxes], [q for _, q in d.boxes])
    return None


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
    bidegree.  Returns {(p, q): Subspace of flattened matrices}."""
    return _bigraded_pieces(h, ambient)


@lru_cache(maxsize=64)
def _bigraded_pieces(h, ambient):
    n = h.n
    groups = {}
    for i in range(n):
        for j in range(n):
            groups.setdefault(h.bidegree(i, j), []).append(i * n + j)
    pieces = {}
    for key, idxs in groups.items():
        sp = Subspace.canonical(n * n, [{idx: 1} for idx in idxs])
        if ambient == "sl" and key == (0, 0):
            sp = traceless_cut(sp)
        pieces[key] = sp
    return pieces


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
    alone, so K1 is cached per (e1, h, ambient) and K2 per (e2, h,
    ambient), shared between callers, who must not mutate them."""
    if member == 1:
        return _member_kernels(pair.e1, (1, 0), h, ambient)
    return _member_kernels(pair.e2, (0, 1), h, ambient)


@lru_cache(maxsize=64)
def _member_kernels(x, step, h, ambient):
    # a member whose every entry has bidegree `step` maps each piece into
    # the piece `step` further on (in sl too, as a bracket is traceless), so
    # the images are taken as they are: reading them in that piece's
    # coordinates, an injective linear map, would give the same kernel
    n = h.n
    if not _homogeneous(x, step, h, n):
        raise StabilityError("the member is not homogeneous for this bigrading")
    out = {}
    for key, piece in bigraded_pieces(h, ambient).items():
        kern = kernel_in(piece, ad_each(x, piece.basis, n))
        if kern.dim:
            out[key] = kern
    return out


def centralizer_bigraded(pair, h, ambient="sl"):
    """Bigraded joint centralizer K12: {(p, q): Subspace}, nonzero blocks
    only.  Each block is the kernel of [e2, .] on the K1 block, which is
    smaller than the piece, so K2 is never built for it.  Raises
    StabilityError when h does not grade the pair."""
    return _joint_kernels(pair.e1, pair.e2, h, ambient)


@lru_cache(maxsize=64)
def _joint_kernels(e1, e2, h, ambient):
    # each member's entries are checked for their bidegree, e1's in
    # _member_kernels and e2's here: e2 is bracketed on the K1 blocks only,
    # so a check on its images alone could miss an entry of another bidegree
    n = h.n
    if not _homogeneous(e2, (0, 1), h, n):
        raise StabilityError("the pair is not homogeneous for this bigrading")
    out = {}
    for key, block in _member_kernels(e1, (1, 0), h, ambient).items():
        kern = kernel_in(block, ad_each(e2, block.basis, n))
        if kern.dim:
            out[key] = kern
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


def biexponents(pair, h=None, convention="sl"):
    """Bidegrees (with multiplicity) of a bihomogeneous centralizer basis."""
    if h is None:
        h = provenance_grading(pair)
    if h is None:
        raise ClassificationError("no grading pair available")
    if classify_pair(pair, h) != "principal":
        raise ClassificationError("bi-exponents are defined for principal pairs only")
    blocks = centralizer_bigraded(pair, h, ambient="sl")
    out = []
    for (p, q), sp in sorted(blocks.items()):
        out.extend([(p, q)] * sp.dim)
    if convention == "gl":
        out = sorted(out + [(0, 0)])
    return tuple(sorted(out))


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


def shift_basis_check(pair, p, q):
    """Check that the translation maps built from in/out subset pairs span
    exactly the (p, q) component of the gl centralizer."""
    d = pair.provenance
    if not isinstance(d, Diagram):
        raise ShapeError("check needs a diagram pair")
    n = pair.n
    index = {box: i for i, box in enumerate(d.boxes)}
    vecs = []
    for sp in subset_pairs(d, p, q):
        vecs.append(
            {index[(i + p, j + q)] * n + index[(i, j)]: 1 for (i, j) in sp.nu_in}
        )
    span = Subspace(n * n, vecs)
    h = provenance_grading(pair)
    blocks = centralizer_bigraded(pair, h, ambient="gl")
    comp = blocks.get((p, q), Subspace.zero(n * n))
    return span == comp, span.dim


def weak_lefschetz_report(pair, h=None):
    """Injectivity/surjectivity pattern of both bracket actions across the
    bigrading; returns one record per checked map."""
    if h is None:
        h = provenance_grading(pair)
    pieces = bigraded_pieces(h, ambient="sl")
    k1, k2 = (member_kernels(pair, h, member, "sl") for member in (1, 2))
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


def levi_subalgebra(h, which, pieces=None):
    """g^1 (commutant of h2) or g^2 (commutant of h1) inside trace-zero gl."""
    pieces = pieces or bigraded_pieces(h, ambient="sl")
    vecs = []
    for (p, q), sp in pieces.items():
        if (which == 1 and q == 0) or (which == 2 and p == 0):
            vecs.extend(sp.basis)
    return Subspace(h.n**2, vecs)


def center_of(space, n):
    """Center of a matrix subalgebra given as a subspace: the elements of the
    space whose bracket with every basis element vanishes."""
    # constraint on coefficients c, for each basis element m:
    # sum_j c_j [m, b_j] = 0
    nn = n * n
    return kernel_in(
        space,
        [
            {
                i * nn + k: x
                for i, m in enumerate(space.basis)
                for k, x in ad(m, v, n).items()
            }
            for v in space.basis
        ],
    )


def lie_closure(vectors, n):
    """Span closure of a set of matrices under the bracket."""
    ech = EchelonBasis()
    frontier = [v for v in vectors if ech.add(v)]
    base = list(frontier)
    while frontier:
        new = []
        for a in frontier:
            for b in base:
                w = ad(a, b, n)
                if ech.add(w):
                    new.append(w)
        base.extend(new)
        frontier = new
    return Subspace.canonical(n * n, ech.rows.values())


def parabolic_checks(pair, h=None):
    """Tangent-space density and generation checks for the two Levi pieces."""
    if h is None:
        h = provenance_grading(pair)
    n = pair.n
    pieces = bigraded_pieces(h, ambient="sl")
    g1 = levi_subalgebra(h, 1, pieces)
    g2 = levi_subalgebra(h, 2, pieces)

    def row_span(which_p):
        vecs = []
        for (p, q), sp in pieces.items():
            if (which_p == "p1" and p == 1) or (which_p == "q1" and q == 1):
                vecs.extend(sp.basis)
        return Subspace(n * n, vecs)

    bracket_e1_g2 = ad_image(pair.e1, g2)
    bracket_e2_g1 = ad_image(pair.e2, g1)
    c1 = center_of(g1, n)
    c2 = center_of(g2, n)
    checks = {
        "e1_in_degree_1_0": pieces.get((1, 0), Subspace.zero(n * n)).contains(
            pair.e1
        ),
        "e2_in_degree_0_1": pieces.get((0, 1), Subspace.zero(n * n)).contains(
            pair.e2
        ),
        "bracket_e1_levi2_fills_row": bracket_e1_g2 == row_span("p1"),
        "bracket_e2_levi1_fills_row": bracket_e2_g1 == row_span("q1"),
        "centers_meet_trivially": c1.intersect(c2).dim == 0,
        "levis_generate": lie_closure(list(g1.basis) + list(g2.basis), n).dim
        == n * n - 1,
    }
    checks["ok"] = all(bool(v) for v in checks.values())
    return checks


def abelian_check(space, n):
    return not any(ad(a, b, n) for a, b in combinations(space.basis, 2))
