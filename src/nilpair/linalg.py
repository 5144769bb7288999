"""Exact linear algebra over the rationals.

Every number is an exact rational: an int where it is integral, a Fraction
otherwise, never a float.  `small` is the one normaliser: EchelonBasis stores
its rows through it, so elimination on integral data runs on int arithmetic
and a Fraction appears only where a pivot division is not exact; every true
division has a Fraction operand; `determinant` is fraction-free, so an
integral matrix's determinant is taken on ints.  A vector is a sparse row
{key: value} of its nonzero entries; every routine also reads a dense
sequence as the row keyed by position (`entries`).  Subspaces keep their
canonical reduced row echelon rows in one EchelonBasis, so two equal
subspaces have equal rows and compare structurally (1 == Fraction(1), with
equal hashes).  Dense tuples appear where a Matrix is built, and as the
flattened members of a commuting pair, which caches hash;
`matmul` is the one product of flattened square matrices, either form in
and a sparse row out.
"""

from __future__ import annotations

from fractions import Fraction


def frac(x):
    return x if isinstance(x, Fraction) else Fraction(x)


def small(x):
    """x with an integral Fraction replaced by its int numerator; anything
    else comes back unchanged.  Both compare and hash equal, and int
    arithmetic is several times cheaper."""
    if x.__class__ is Fraction and x.denominator == 1:
        return x.numerator
    return x


def exact(x):
    """x held as an exact rational: an int as it is (the common case, with
    no Fraction built), anything else through small(frac(x))."""
    return x if x.__class__ is int else small(frac(x))


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
    red = [tuple(ech.rows[p].get(c, 0) for c in range(ncols)) for p in pivots]
    return red, pivots


def solve_affine(rows, rhs):
    """One solution x of (rows) x = rhs, or None if inconsistent: the one
    right-hand side of solve_affine_many."""
    sols = solve_affine_many(rows, [rhs])
    return None if sols is None else sols[0]


def solve_affine_many(rows, rhss):
    """One solution x of (rows) x = b for each right-hand side b in rhss, as
    a tuple, or None if any of the systems is inconsistent.

    The rows are sparse rows (with numeric keys) or dense sequences; each x
    comes back in the same form (a sparse row of its nonzero entries, or a
    tuple).  The rows are eliminated once: each joins one EchelonBasis with
    its t-th right-hand side keyed top + t, after every variable.  A pivot
    on a right-hand side key means some system is inconsistent; while there
    is none, dropping the other right-hand sides leaves each system's own
    canonical rows, so each x is read off its key with the free variables
    set to zero, and the answer is deterministic.
    """
    sparse = bool(rows) and isinstance(rows[0], dict)
    n = 0 if sparse or not rows else len(rows[0])
    if not sparse and any(len(r) != n for r in rows):
        raise ValueError("ragged rows")
    top = max((k + 1 for r in rows for k in r), default=0) if sparse else n
    keys = range(top, top + len(rhss))
    ech = EchelonBasis()
    for r, *bs in zip(rows, *rhss):
        ech.add({**dict(entries(r)), **dict(zip(keys, bs))})
    if any(key in ech.rows for key in keys):
        return None
    sols = tuple({p: row[key] for p, row in ech.rows.items() if key in row} for key in keys)
    return sols if sparse else tuple(tuple(x.get(c, 0) for c in range(n)) for x in sols)


class Subspace:
    """A linear subspace of Q^ambient_dim, held as the canonical rows of one
    EchelonBasis: sparse rows {index: exact rational} in reduced row echelon
    form.

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

    @staticmethod
    def canonical(ambient_dim, rows):
        """The subspace whose canonical basis the given sparse rows already
        are, built without elimination: each row's least key holds 1, and no
        other row has an entry there.  That is checked in one pass over the
        entries, raising ValueError when it fails; entries pass through
        `small`, and the rows may come in any order."""
        ech = EchelonBasis()
        for r in rows:
            row = {k: small(x) for k, x in entries(r) if x}
            if not row:
                raise ValueError("a canonical row is zero")
            pivot = min(row)
            if row[pivot] != 1:
                raise ValueError("a canonical row is not normalised at its pivot")
            if pivot in ech.rows:
                raise ValueError("two canonical rows share a pivot")
            ech.rows[pivot] = row
        pivots = ech.rows.keys()
        for row in ech.rows.values():
            if len(row.keys() & pivots) != 1:
                raise ValueError("a canonical row has an entry at another pivot")
        sub = Subspace.__new__(Subspace)
        sub.ambient_dim = ambient_dim
        sub.echelon = ech
        sub.pivots = tuple(sorted(pivots))
        sub.basis = tuple(ech.rows[p] for p in sub.pivots)
        return sub

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
        # those rows are canonical already: each pivot is its row's least key
        vecs = [shifted(r, -n) for p, r in ech.rows.items() if p >= n]
        return Subspace.canonical(n, vecs)

    def _check(self, other):
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")

    @staticmethod
    def zero(ambient_dim):
        return Subspace(ambient_dim, ())

    @staticmethod
    def full(ambient_dim):
        return Subspace.canonical(ambient_dim, [{i: 1} for i in range(ambient_dim)])


class EchelonBasis:
    """An incrementally grown basis of sparse rows {key: exact rational}.

    Keys are any mutually orderable values (flat indices, tensor indices,
    exponent tuples).  Each row's pivot is its least key, normalised to 1,
    and no other row has an entry there, so the rows are the unique reduced
    row echelon form of the span whatever the insertion order.  Entries are
    exact rationals, never floats: incoming entries and each new row pass
    through `small`, so integral data stay ints and a Fraction enters only
    through a pivot division that is not exact.
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
        v = {k: small(x) for k, x in entries(vec) if x}
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
        lead = rem[pivot]
        # most pivots of integral data are +-1, each its own inverse
        inv = lead if lead == 1 or lead == -1 else small(1 / frac(lead))
        new = {k: small(x * inv) for k, x in rem.items()}
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
        coords = {p: small(x) for p, x in entries(vec) if x and p in self.rows}
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
    coeff_space, as a Subspace of Q^ambient_dim.

    `basis` is a canonical basis in pivot order: the rows of a Subspace, or
    of subspaces on disjoint keys listed in key order.  Then each sum is a
    canonical row already: a canonical c has 1 at its pivot j and 0 at the
    other pivots of coeff_space, so the sum has 1 at the pivot of basis[j],
    its least key, and 0 at the pivots of the other sums."""
    sums = [combine(basis, c) for c in coeff_space.basis]
    return Subspace.canonical(ambient_dim, sums)


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
    """The solutions in Q^ncols of the equation rows (sparse or dense), in
    canonical form with no second elimination.

    The rows join one EchelonBasis keyed ncols - 1 - c, so each row's pivot
    is its greatest column c and the row has no other entry at a pivot
    column.  The solution e_c - sum_p row_p[c] e_p of a free column c then
    has c as its least key, with coefficient 1, and vanishes at every other
    free column: these solutions are the canonical basis of the null space.
    """
    last = ncols - 1
    ech = EchelonBasis()
    for r in rows:
        ech.add({last - c: x for c, x in entries(r)})
    sols = {c: {c: 1} for c in range(ncols) if last - c not in ech.rows}
    for p, row in ech.rows.items():
        for k, x in row.items():
            if k != p:
                sols[last - k][last - p] = -x
    return Subspace.canonical(ncols, sols.values())


def row_echelon(vectors):
    """A row echelon form of the vectors (sparse rows or dense sequences):
    {pivot: row}, each row normalised to 1 at its pivot, its least key.

    Forward elimination only: each vector is reduced until its least key is
    not a pivot yet, and the earlier rows are not cleared at the new pivot.
    So the number of rows is the rank, and the rows with pivots from any key
    on span the vectors' combinations that vanish before that key, but the
    rows are not the canonical ones (EchelonBasis keeps those)."""
    rows = {}
    for vec in vectors:
        v = {k: small(x) for k, x in entries(vec) if x}
        while v:
            pivot = min(v)
            row = rows.get(pivot)
            if row is None:
                lead = v[pivot]
                if lead != 1:
                    inv = -1 if lead == -1 else small(1 / frac(lead))
                    v = {k: small(x * inv) for k, x in v.items()}
                rows[pivot] = v
                break
            add_multiple(v, -v[pivot], row)
    return rows


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
    # rows picked from a canonical basis are canonical
    picked = [v for v in candidates if span.add(v)]
    return Subspace.canonical(sub.ambient_dim, picked)


def determinant(rows):
    """The determinant of a square matrix given by dense rows of exact
    rationals, by fraction-free elimination (Bareiss, Math. Comp. 22, 1968).

    Step k replaces each entry below and right of the pivot by the 2 x 2
    minor it spans with the pivot, divided by the previous pivot; that
    division is exact, so on all-int rows (decided once per matrix) it is
    `//` and the determinant comes back an int.  Otherwise the division is
    a Fraction one and entries pass through `small`.  A zero pivot swaps
    in a lower row, which flips the sign."""
    m = [list(r) for r in rows]
    n = len(m)
    if any(len(r) != n for r in m):
        raise ValueError("determinant of a non-square matrix")
    integral = all(x.__class__ is int for r in m for x in r)
    sign, prev = 1, 1
    for k in range(n - 1):
        if not m[k][k]:
            p = next((i for i in range(k + 1, n) if m[i][k]), None)
            if p is None:
                return 0
            m[k], m[p] = m[p], m[k]
            sign = -sign
        rk = m[k]
        pivot = rk[k]
        for ri in m[k + 1 :]:
            a = ri[k]
            for j in range(k + 1, n):
                x = pivot * ri[j] - a * rk[j]
                ri[j] = x // prev if integral else small(frac(x) / prev)
        prev = pivot
    return small(sign * m[-1][-1]) if n else 1


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

    def determinant(self):
        """Gaussian elimination over Fraction: the reference the
        fraction-free `determinant` is tested against."""
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
            inv = 1 / frac(m[c][c])
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


def bracket(a, b):
    return a * b - b * a


def matrix_rank(vec, n):
    """The rank of a flattened n x n matrix, a sparse row or a dense
    sequence: one EchelonBasis over its nonzero rows."""
    rows = {}
    for k, x in entries(vec):
        if x:
            i, j = divmod(k, n)
            rows.setdefault(i, {})[j] = x
    ech = EchelonBasis()
    for row in rows.values():
        ech.add(row)
    return ech.dim


def jordan_type(m, n):
    """Jordan block sizes of a nilpotent flattened n x n matrix, a sparse
    row or a dense sequence, largest first.  m has rank m^(k-1) - rank m^k
    blocks of size at least k; the ranks are those of its sparse powers.
    Raises ValueError if m is not nilpotent."""
    m = {k: x for k, x in entries(m) if x}
    ranks = [n]  # rank m^k for k = 0, 1, ... while m^k is nonzero
    power = m
    for _ in range(n):
        if not power:
            break
        ranks.append(matrix_rank(power, n))
        power = matmul(power, m, n)
    if power:
        raise ValueError("matrix is not nilpotent")
    ranks.append(0)
    at_least = [ranks[k - 1] - ranks[k] for k in range(1, len(ranks))] + [0]
    parts = []
    for size in range(len(at_least) - 1, 0, -1):
        parts.extend([size] * (at_least[size - 1] - at_least[size]))
    return tuple(parts)
