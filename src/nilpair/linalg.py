"""Exact linear algebra over the rationals.

Everything runs on Python Fractions; no floating point enters any
computation.  A vector is a sparse row {key: value} of its nonzero entries;
every routine also reads a dense sequence as the row keyed by position
(`entries`).  Subspaces keep their canonical reduced row echelon rows in one
EchelonBasis, so two equal subspaces have equal rows and compare
structurally.  Dense tuples appear only where a Matrix is built or flattened;
`matmul` is the one product of flattened square matrices on sparse rows.
"""

from __future__ import annotations

from fractions import Fraction


def frac(x):
    return x if isinstance(x, Fraction) else Fraction(x)


def entries(vec):
    """The (key, value) pairs of a vector: a sparse row {key: value}, or a
    dense sequence read as the row keyed by position.  The one reader of
    vector input, so every routine takes either form."""
    return vec.items() if isinstance(vec, dict) else enumerate(vec)


def rref(rows):
    """Reduced row echelon form of dense rows, computed by one EchelonBasis.

    Returns (nonzero rows as tuples, pivot column list).  Pivots are
    normalised to 1 and cleared above and below.
    """
    ncols = len(rows[0]) if rows else 0
    if any(len(r) != ncols for r in rows):
        raise ValueError("ragged rows")
    ech = EchelonBasis()
    for r in rows:
        ech.add(r)
    pivots = sorted(ech.rows)
    zero = Fraction(0)
    red = [tuple(ech.rows[p].get(c, zero) for c in range(ncols)) for p in pivots]
    return red, pivots


_RHS = float("inf")  # key of the right-hand side, after every variable


def solve_affine(rows, rhs):
    """One solution x of (rows) x = rhs, or None if inconsistent.

    The rows are sparse rows or dense sequences; x comes back in the same
    form (a sparse row of its nonzero entries, or a tuple).  Each row joins
    one EchelonBasis with its right-hand side keyed after every variable;
    free variables are set to zero, so the answer is deterministic.
    """
    sparse = bool(rows) and isinstance(rows[0], dict)
    n = 0 if sparse or not rows else len(rows[0])
    if not sparse and any(len(r) != n for r in rows):
        raise ValueError("ragged rows")
    ech = EchelonBasis()
    for r, b in zip(rows, rhs):
        ech.add({**dict(entries(r)), _RHS: b})
    if _RHS in ech.rows:
        return None
    x = {p: row[_RHS] for p, row in ech.rows.items() if _RHS in row}
    return x if sparse else tuple(x.get(c, Fraction(0)) for c in range(n))


class Subspace:
    """A linear subspace of Q^ambient_dim, held as the canonical rows of one
    EchelonBasis: sparse rows {index: Fraction} in reduced row echelon form.

    ``basis`` lists those rows in pivot order and ``pivots`` their pivots;
    the rows are shared and must not be mutated.  Equal subspaces have equal
    rows, so equality and hashing are structural.
    """

    __slots__ = ("ambient_dim", "echelon", "basis", "pivots")

    def __init__(self, ambient_dim, vectors=()):
        self.ambient_dim = ambient_dim
        ech = EchelonBasis()
        for v in vectors:
            if not isinstance(v, dict) and len(v) != ambient_dim:
                raise ValueError("vector length does not match ambient dimension")
            ech.add(v)
        self.echelon = ech
        self.pivots = tuple(sorted(ech.rows))
        self.basis = tuple(ech.rows[p] for p in self.pivots)

    @property
    def dim(self):
        return len(self.pivots)

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self.basis == other.basis
        )

    def __hash__(self):
        rows = tuple(frozenset(r.items()) for r in self.basis)
        return hash((self.ambient_dim, rows))

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"

    def contains(self, vec):
        return self.echelon.contains(vec)

    def contains_subspace(self, other):
        return all(self.contains(v) for v in other.basis)

    def coordinates(self, vec):
        """Coefficients {pivot: c} of vec over the basis rows, keyed by each
        row's pivot.  Raises ValueError when vec is off the span."""
        return self.echelon.coordinates(vec)

    def __add__(self, other):
        self._check(other)
        return Subspace(self.ambient_dim, self.basis + other.basis)

    def intersect(self, other):
        """Zassenhaus intersection: reduce the rows (v, v) for v in self and
        (w, 0) for w in other, the second copy keyed n + k; the reduced rows
        that vanish on the first copy span the intersection."""
        self._check(other)
        n = self.ambient_dim
        ech = EchelonBasis()
        for w in other.basis:
            ech.add(w)
        for v in self.basis:
            ech.add({**v, **shifted(v, n)})
        vecs = [shifted(r, -n) for p, r in ech.rows.items() if p >= n]
        return Subspace(n, vecs)

    def _check(self, other):
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")

    @staticmethod
    def zero(ambient_dim):
        return Subspace(ambient_dim, ())

    @staticmethod
    def full(ambient_dim):
        return Subspace(ambient_dim, [{i: Fraction(1)} for i in range(ambient_dim)])


class EchelonBasis:
    """An incrementally grown basis of sparse rows {key: Fraction}.

    Keys are any mutually orderable values (flat indices, tensor indices,
    exponent tuples).  Each row's pivot is its least key, normalised to 1,
    and no other row has an entry there, so the rows are the unique reduced
    row echelon form of the span whatever the insertion order.
    """

    def __init__(self):
        self.rows = {}  # pivot -> row

    @property
    def dim(self):
        return len(self.rows)

    def reduce(self, vec):
        """Remainder of vec after elimination against the rows.  The rows
        vanish at each other's pivots, so each one is subtracted once, with
        vec's own entry at its pivot."""
        v = {k: x for k, x in entries(vec) if x}
        for p in [p for p in v if p in self.rows]:
            c = v[p]
            for k, x in self.rows[p].items():
                nv = v.get(k, 0) - c * x
                if nv:
                    v[k] = nv
                else:
                    del v[k]
        return v

    def add(self, vec):
        """Insert a vector; returns its remainder, empty when vec already
        lies in the span."""
        rem = self.reduce(vec)
        if not rem:
            return rem
        pivot = min(rem)
        inv = 1 / frac(rem[pivot])
        new = {k: x * inv for k, x in rem.items()}
        for row in self.rows.values():
            c = row.get(pivot)
            if c:
                for k, x in new.items():
                    nv = row.get(k, 0) - c * x
                    if nv:
                        row[k] = nv
                    else:
                        del row[k]
        self.rows[pivot] = new
        return rem

    def contains(self, vec):
        return not self.reduce(vec)

    def coordinates(self, vec):
        """Coefficients {pivot: c} of vec in the rows; raises ValueError when
        vec is off the span."""
        coords = {p: x for p, x in entries(vec) if x and p in self.rows}
        if self.reduce(vec):
            raise ValueError("vector is not in the span")
        return coords


def add_multiple(out, x, vec):
    """out += x vec for sparse vectors, in place, dropping the entries that
    cancel."""
    for r, y in vec.items():
        nv = out.get(r, 0) + x * y
        if nv:
            out[r] = nv
        else:
            del out[r]


def shifted(vec, offset):
    """A sparse row with every key moved by offset: the second summand of a
    doubled space is keyed n + k."""
    return {k + offset: x for k, x in vec.items()}


def combine(vectors, coeffs):
    """sum_j coeffs[j] vectors[j] for sparse coefficients {j: c} over an
    indexable family of sparse vectors: a linear combination, or an operator
    given by its columns applied to a vector.  For a unit coefficient vector
    this is vectors[j] itself, shared, so the result must not be mutated."""
    if len(coeffs) == 1:
        ((j, x),) = coeffs.items()
        if x == 1:
            return vectors[j]
    out = {}
    for j, x in coeffs.items():
        add_multiple(out, x, vectors[j])
    return out


def matmul(a, b, n):
    """The product ab of two flattened n x n matrices, sparse rows or dense
    sequences, as the sparse row of its nonzero entries: each nonzero a_it
    meets row t of b."""
    brows = [[] for _ in range(n)]
    for k, y in entries(b):
        if y:
            t, j = divmod(k, n)
            brows[t].append((j, y))
    out = {}
    for k, x in entries(a):
        if x:
            i, t = divmod(k, n)
            base = i * n
            for j, y in brows[t]:
                out[base + j] = out.get(base + j, 0) + x * y
    return {k: y for k, y in out.items() if y}


def lift(coeff_space, basis, ambient_dim):
    """The span of sum_j c_j basis[j] over the coefficient vectors c of
    coeff_space, as a Subspace of Q^ambient_dim."""
    return Subspace(ambient_dim, [combine(basis, c) for c in coeff_space.basis])


def kernel_in(piece, images):
    """The vectors of `piece` sent to zero by a linear map, given by the
    images of piece's canonical basis vectors, one each, in any coordinates.

    A map that kills the whole piece returns `piece` itself: callers cache
    these kernels beside the pieces, and an equal copy would double that."""
    if len(images) != piece.dim:
        raise ValueError("need one image per basis vector of the piece")
    kern = relations(images)
    if kern.dim == piece.dim:
        return piece
    return lift(kern, piece.basis, piece.ambient_dim)


def relations(vectors):
    """The linear relations among vectors, sparse rows or dense sequences:
    the coefficient vectors c with sum_j c_j vectors[j] = 0, as a Subspace
    of Q^len(vectors).

    This is the kernel of the matrix with the vectors as columns; its
    equation rows are read off sparsely, without forming that matrix."""
    return _null_space(transpose(vectors).values(), len(vectors))


def transpose(vectors):
    """The rows {key: {j: x}} of the matrix whose j-th column is vectors[j]
    (sparse rows or dense sequences), zero rows left out."""
    rows = {}
    for j, v in enumerate(vectors):
        for k, x in entries(v):
            if x:
                rows.setdefault(k, {})[j] = x
    return rows


def _null_space(rows, ncols):
    """The solutions in Q^ncols of the equation rows (sparse or dense): one
    EchelonBasis over the rows, then one solution per free column, by
    back-substitution into the pivot columns."""
    ech = EchelonBasis()
    for r in rows:
        ech.add(r)
    vecs = []
    for c in range(ncols):
        if c not in ech.rows:
            v = {c: Fraction(1)}
            for p, row in ech.rows.items():
                if c in row:
                    v[p] = -row[c]
            vecs.append(v)
    return Subspace(ncols, vecs)


def complement(sub, within, reverse=False):
    """A deterministic complement of `sub` inside `within`.

    Picks vectors greedily from within's canonical basis (reversed order if
    requested), so the choice is reproducible.
    """
    if not within.contains_subspace(sub):
        raise ValueError("first space is not contained in the second")
    span = EchelonBasis()
    for v in sub.basis:
        span.add(v)
    candidates = within.basis[::-1] if reverse else within.basis
    picked = [v for v in candidates if span.add(v)]
    return Subspace(sub.ambient_dim, picked)


class Matrix:
    """Dense exact matrix."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data):
        self.data = tuple(tuple(frac(x) for x in row) for row in data)
        self.rows = len(self.data)
        self.cols = len(self.data[0]) if self.data else 0
        for row in self.data:
            if len(row) != self.cols:
                raise ValueError("ragged rows")

    @staticmethod
    def zero(r, c=None):
        c = r if c is None else c
        return Matrix([[0] * c for _ in range(r)])

    @staticmethod
    def identity(n):
        return Matrix([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @staticmethod
    def diagonal(entries):
        n = len(entries)
        return Matrix([[entries[i] if i == j else 0 for j in range(n)] for i in range(n)])

    @staticmethod
    def unit(n, i, j):
        return Matrix([[1 if (a, b) == (i, j) else 0 for b in range(n)] for a in range(n)])

    def __eq__(self, other):
        return isinstance(other, Matrix) and self.data == other.data

    def __hash__(self):
        return hash(self.data)

    def __repr__(self):
        return f"Matrix({[list(map(str, r)) for r in self.data]})"

    def __add__(self, other):
        return Matrix(
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.data, other.data)]
        )

    def __sub__(self, other):
        return Matrix(
            [[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self.data, other.data)]
        )

    def __neg__(self):
        return Matrix([[-a for a in r] for r in self.data])

    def scale(self, c):
        c = frac(c)
        return Matrix([[c * a for a in r] for r in self.data])

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.cols != other.rows:
                raise ValueError("shape mismatch")
            ot = list(zip(*other.data))
            return Matrix(
                [[sum(a * b for a, b in zip(row, col) if a) for col in ot] for row in self.data]
            )
        return self.scale(other)

    def __pow__(self, k):
        if self.rows != self.cols:
            raise ValueError("power of a non-square matrix")
        out = Matrix.identity(self.rows)
        for _ in range(k):
            out = out * self
        return out

    def apply(self, vec):
        return tuple(sum(a * x for a, x in zip(row, vec) if a) for row in self.data)

    def transpose(self):
        return Matrix(list(zip(*self.data)))

    def trace(self):
        return sum(self.data[i][i] for i in range(min(self.rows, self.cols)))

    def is_zero(self):
        return all(not x for row in self.data for x in row)

    def is_nilpotent(self):
        m = self
        for _ in range(self.rows):
            if m.is_zero():
                return True
            m = m * self
        return m.is_zero()

    def rank(self):
        red, _ = rref(self.data)
        return len(red)

    def determinant(self):
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        m = [list(row) for row in self.data]
        n = self.rows
        det = Fraction(1)
        for c in range(n):
            p = next((i for i in range(c, n) if m[i][c]), None)
            if p is None:
                return Fraction(0)
            if p != c:
                m[c], m[p] = m[p], m[c]
                det = -det
            det *= m[c][c]
            inv = 1 / m[c][c]
            for i in range(c + 1, n):
                f = m[i][c] * inv
                if f:
                    mi, mc = m[i], m[c]
                    for j in range(c, n):
                        if mc[j]:
                            mi[j] -= f * mc[j]
        return det

    def kernel(self):
        """Exact null space as a canonical Subspace."""
        return _null_space(self.data, self.cols)

    def flatten(self):
        return tuple(x for row in self.data for x in row)

    @staticmethod
    def unflatten(vec, n, m=None):
        """The n x m matrix of a flattened vector, sparse or dense."""
        m = n if m is None else m
        zero = Fraction(0)
        data = [[zero] * m for _ in range(n)]
        for k, x in entries(vec):
            data[k // m][k % m] = x
        return Matrix(data)


def bracket(a, b):
    return a * b - b * a


def jordan_type(m):
    """Jordan block sizes of a nilpotent matrix, largest first."""
    if not m.is_nilpotent():
        raise ValueError("matrix is not nilpotent")
    n = m.rows
    kdims = [0]
    power = Matrix.identity(n)
    while kdims[-1] < n:
        power = power * m
        kdims.append(n - power.rank())
    counts = [kdims[k] - kdims[k - 1] for k in range(1, len(kdims))]
    parts = []
    for size in range(len(counts), 0, -1):
        at_least = counts[size - 1]
        above = counts[size] if size < len(counts) else 0
        parts.extend([size] * (at_least - above))
    return tuple(sorted(parts, reverse=True))
