"""Classification of pairs coming from commuting sl2-triples by counting
irreducible summands of the adjoint module, plus the explicit even
orthogonal pair that falls outside that family."""

from __future__ import annotations

from collections import Counter

from .diagrams import SKEWISH, classify_shape
from .linalg import Subspace, add_multiple, entries, frac, jordan_type, matmul
from .linalg import matrix_rank, relations, solve_affine_many, transpose
from .pairs import ad, ad_columns, is_nilpotent_family, power_tower


class FormError(ValueError):
    pass


class EvennessError(ValueError):
    pass


def clebsch_gordan(a, b):
    """Irreducible pieces of the tensor product of two sl2-modules, by
    highest weight (module of weight d has dimension d + 1)."""
    if a < 0 or b < 0:
        raise ValueError("weights must be non-negative")
    return Counter({a + b - 2 * k: 1 for k in range(min(a, b) + 1)})


def sym2(a):
    """Symmetric square of the weight-a module."""
    return Counter({2 * a - 4 * k: 1 for k in range(a // 2 + 1)})


def alt2(a):
    """Alternating square of the weight-a module."""
    return Counter({2 * a - 2 - 4 * k: 1 for k in range((2 * a - 2) // 4 + 1) if 2 * a - 2 - 4 * k >= 0})


def _pair_tensor(s1, s2):
    """Tensor product of two-sided modules given as Counters of (a, b)."""
    out = Counter()
    for (a1, b1), m1 in s1.items():
        for (a2, b2), m2 in s2.items():
            ca = clebsch_gordan(a1, a2)
            cb = clebsch_gordan(b1, b2)
            for x, mx in ca.items():
                for y, my in cb.items():
                    out[(x, y)] += m1 * m2 * mx * my
    return out


def _pair_sym2(piece):
    """Symmetric square of a single (a, b) module."""
    a, b = piece
    out = Counter()
    for x, mx in sym2(a).items():
        for y, my in sym2(b).items():
            out[(x, y)] += mx * my
    for x, mx in alt2(a).items():
        for y, my in alt2(b).items():
            out[(x, y)] += mx * my
    return out


def _pair_alt2(piece):
    a, b = piece
    out = Counter()
    for x, mx in sym2(a).items():
        for y, my in alt2(b).items():
            out[(x, y)] += mx * my
    for x, mx in alt2(a).items():
        for y, my in sym2(b).items():
            out[(x, y)] += mx * my
    return out


class EmbeddingSpec:
    """A classical algebra on a module V decomposed under two commuting sl2's
    as the direct sum of R(n_i - 1) (x) R(m_i - 1); equality and hashing are
    by the two fields."""

    __slots__ = ("algebra", "summands")

    def __init__(self, algebra, summands):
        self.algebra = algebra  # sl / sp / so
        self.summands = summands  # multiset of (n_i, m_i), n_i, m_i >= 1

    def __eq__(self, other):
        return (
            isinstance(other, EmbeddingSpec)
            and self.algebra == other.algebra
            and self.summands == other.summands
        )

    def __hash__(self):
        return hash((self.algebra, self.summands))

    def __repr__(self):
        return f"EmbeddingSpec(algebra={self.algebra!r}, summands={self.summands!r})"

    @property
    def dim_v(self):
        return sum(n * m for n, m in self.summands)

    def rank(self):
        n = self.dim_v
        if self.algebra == "sp" and n % 2:
            raise FormError("symplectic form needs even dimension")
        return _rank(self.algebra, n)

    def to_jsonable(self):
        return {"type": self.algebra, "J": [list(x) for x in sorted(self.summands)]}


def _rank(algebra, dim_v):
    """Rank of the algebra on a module of dimension dim_v."""
    return dim_v - 1 if algebra == "sl" else dim_v // 2


def _wrong_parity(algebra, n, m):
    """Whether the summand R(n - 1) (x) R(m - 1) carries an invariant form
    of the other symmetry than the algebra's (both factors carry forms of
    one sign exactly when n - m is even), so that it needs an equal summand
    to pair with hyperbolically."""
    if algebra == "sl":
        return False
    symmetric = (n - m) % 2 == 0
    return symmetric if algebra == "sp" else not symmetric


def _pairs_up(items):
    """Whether a sorted sequence holds each of its values an even number of
    times: its items, taken two by two, are equal pairs."""
    return len(items) % 2 == 0 and all(
        a == b for a, b in zip(items[::2], items[1::2])
    )


def _form_possible(spec):
    """Whether V carries an invariant form of the right symmetry: summands of
    the wrong intrinsic parity must pair up evenly (hyperbolically)."""
    return _pairs_up(
        [s for s in sorted(spec.summands) if _wrong_parity(spec.algebra, *s)]
    )


def _check_form(spec):
    if spec.algebra == "sp" and spec.dim_v % 2:
        raise FormError("symplectic form needs even dimension")
    if not _form_possible(spec):
        raise FormError("no invariant form of the required symmetry")


def decompose_adjoint(spec):
    """Two-sided decomposition of the algebra's adjoint module."""
    _check_form(spec)
    v = Counter()
    for n, m in spec.summands:
        v[(n - 1, m - 1)] += 1
    if spec.algebra == "sl":
        out = _pair_tensor(v, v)
        out[(0, 0)] -= 1
        if not out[(0, 0)]:
            del out[(0, 0)]
        return out
    pieces = list(v.elements())
    out = Counter()
    for i, piece in enumerate(pieces):
        out += _pair_sym2(piece) if spec.algebra == "sp" else _pair_alt2(piece)
        for j in range(i + 1, len(pieces)):
            single = Counter({pieces[i]: 1})
            other = Counter({pieces[j]: 1})
            out += _pair_tensor(single, other)
    return out


def summand_count(spec):
    """The number of irreducible summands of the adjoint module, in closed
    form: R(a) (x) R(a') has min(a, a') + 1 of them, Sym^2 R(a) has
    a // 2 + 1 and Alt^2 R(a) has (a - 1) // 2 + 1 (none for a = 0).
    Equal to sum(decompose_adjoint(spec).values()), with the same
    FormError."""
    _check_form(spec)
    return _closed_form_count(spec.algebra, spec.summands)


# V (x) V for sl holds the trace, which sl leaves out
_TRACE_TERM = {"sl": -1, "sp": 0, "so": 0}


def _closed_form_count(algebra, summands):
    labels = [(n - 1, m - 1) for n, m in summands]
    count = _TRACE_TERM[algebra]
    for i, label in enumerate(labels):
        count += _own_term(algebra, label)
        for other in labels[i + 1 :]:
            count += _cross_term(algebra, label, other)
    return count


def _own_term(algebra, label):
    """Summands a single summand R(a) (x) R(b) of V contributes on its own:
    those of R(a) (x) R(a) times R(b) (x) R(b) for sl, of its symmetric
    square for sp and of its alternating square for so."""
    a, b = label
    if algebra == "sl":
        return (a + 1) * (b + 1)
    if algebra == "sp":
        return _sym(a) * _sym(b) + _alt(a) * _alt(b)
    return _sym(a) * _alt(b) + _alt(a) * _sym(b)


def _cross_term(algebra, label, other):
    """Summands two summands of V contribute together: their tensor product,
    which V (x) V holds twice for sl."""
    (a1, b1), (a2, b2) = label, other
    term = (min(a1, a2) + 1) * (min(b1, b2) + 1)
    return 2 * term if algebra == "sl" else term


def _sym(a):
    """Summands of Sym^2 R(a)."""
    return a // 2 + 1


def _alt(a):
    """Summands of Alt^2 R(a)."""
    return (a - 1) // 2 + 1 if a else 0


def is_regular_embedding(spec):
    """(accepted, bi-exponents or None): the pair of principal nilpotents of
    the two sl2's is regular exactly when the adjoint module splits into
    rank-many summands; the summand labels, halved, are then the
    bi-exponents.  The summands are counted first and decomposed only when
    the count matches."""
    try:
        count = summand_count(spec)
    except FormError:
        return False, None
    if count != spec.rank():
        return False, None
    dec = decompose_adjoint(spec)
    exps = []
    for (a, b), mult in sorted(dec.items()):
        if a % 2 or b % 2:
            raise EvennessError(
                f"summand count matches the rank but label {(a, b)} is odd"
            )
        exps.extend([(a // 2, b // 2)] * mult)
    return True, tuple(sorted(exps))


# the most summands a multiset named by the classification lists has: one
# rectangle for sl and sp, up to two for so
_LISTED_ARITY = {"sl": 1, "sp": 1, "so": 2}


def classification_list_predicate(spec):
    """The classification lists: single rectangles for sl; a single rectangle
    of mixed parity for sp; for so a single same-parity rectangle, or one of
    the two-rectangle families {(n,m),(1,1)} and {(n,1),(1,m)} with n, m
    odd.  False for every multiset of more than _LISTED_ARITY summands."""
    J = sorted(spec.summands)
    if spec.algebra == "sl":
        return len(J) == 1
    if spec.algebra == "sp":
        return len(J) == 1 and (J[0][0] - J[0][1]) % 2 == 1
    if len(J) == 1:
        return (J[0][0] - J[0][1]) % 2 == 0
    if len(J) == 2:
        a, b = J
        odd = lambda x: x % 2 == 1
        if a == (1, 1) and odd(b[0]) and odd(b[1]):
            return True
        if b == (1, 1) and odd(a[0]) and odd(a[1]):
            return True
        if odd(a[0]) and odd(a[1]) and odd(b[0]) and odd(b[1]):
            if (a[1] == 1 and b[0] == 1) or (a[0] == 1 and b[1] == 1):
                return True
        return False
    return False


def _multisets(algebra, dim_bound, singles):
    """Every multiset of one, two or three of the sorted singles (n, m) with
    at most dim_bound boxes in all, as (indices, boxes, summand count) in
    the order of combinations_with_replacement; the count is
    `summand_count`'s closed form wherever the form exists.

    Each single's own term and box count are taken once, and the cross
    terms once per pair of singles that fits, so each count is a sum
    carried along the walk."""
    labels = [(n - 1, m - 1) for n, m in singles]
    boxes = [n * m for n, m in singles]
    own = [_own_term(algebra, x) for x in labels]
    trace = _TRACE_TERM[algebra]
    # cross[i][j] for j >= i, where the two singles fit together
    cross = [
        {
            j: _cross_term(algebra, labels[i], labels[j])
            for j in range(i, len(singles))
            if boxes[i] + boxes[j] <= dim_bound
        }
        for i in range(len(singles))
    ]

    def fitting(start, room):
        """The singles from start on with at most room boxes; singles are
        sorted, so once n exceeds the room no later single fits."""
        for j in range(start, len(singles)):
            if singles[j][0] > room:
                return
            if boxes[j] <= room:
                yield j

    for i in fitting(0, dim_bound):
        yield (i,), boxes[i], trace + own[i]
    for i in fitting(0, dim_bound):
        for j in fitting(i, dim_bound - boxes[i]):
            count = trace + own[i] + own[j] + cross[i][j]
            yield (i, j), boxes[i] + boxes[j], count
    for i in fitting(0, dim_bound):
        for j in fitting(i, dim_bound - boxes[i]):
            dim, count = boxes[i] + boxes[j], trace + own[i] + own[j] + cross[i][j]
            for k in fitting(j, dim_bound - dim):
                yield (
                    (i, j, k),
                    dim + boxes[k],
                    count + own[k] + cross[i][k] + cross[j][k],
                )


def survey_embeddings(algebra, dim_bound):
    """Exhaustive comparison of the count criterion against the published
    lists, over every multiset of one, two or three summands (n, m) with at
    most dim_bound boxes in all (`_multisets`), less those of dimension
    under 2 and, for sp, of odd dimension.

    Each multiset is judged by its summand count first: one whose count
    misses the rank is not accepted, and one of more than _LISTED_ARITY
    summands is not listed, so a multiset that is both is only counted as
    walked, as is one that carries no invariant form.  Every other one is
    built as an `EmbeddingSpec`, and its adjoint module is decomposed only
    where the count equals the rank.  Rows are kept, in walk order, only
    for multisets accepted or listed; "walked" is the number of multisets
    judged, and "agree" covers every one of them."""
    singles = [
        (n, m)
        for n in range(1, dim_bound + 1)
        for m in range(1, dim_bound + 1)
        if n * m <= dim_bound
    ]
    wrong = [_wrong_parity(algebra, n, m) for n, m in singles]
    # the rank each dimension's multisets must reach, None where skipped
    target = [
        None if dim < 2 or (algebra == "sp" and dim % 2) else _rank(algebra, dim)
        for dim in range(dim_bound + 1)
    ]
    arity = _LISTED_ARITY[algebra]
    rows = []
    agree = True
    walked = 0
    for idx, dim, count in _multisets(algebra, dim_bound, singles):
        rank = target[dim]
        if rank is None:
            continue
        walked += 1
        if count != rank and len(idx) > arity:
            continue
        odd = [i for i in idx if wrong[i]]
        if odd and not _pairs_up(odd):
            # no invariant form: neither accepted nor listed
            continue
        J = tuple([singles[i] for i in idx])
        spec = EmbeddingSpec(algebra, J)
        if count == rank:
            accepted, exps = is_regular_embedding(spec)
        else:
            accepted, exps = False, None
        expected = classification_list_predicate(spec)
        agree = agree and accepted == expected
        if accepted or expected:
            rows.append(
                {
                    "type": algebra,
                    "J": [list(x) for x in J],
                    "is_pn_pair": accepted,
                    "expected": expected,
                    "biexponents": None if exps is None else [list(e) for e in exps],
                }
            )
    return {
        "algebra": algebra,
        "dim_bound": dim_bound,
        "rows": rows,
        "walked": walked,
        "agree": agree,
    }


# ---------------------------------------------------------------------------
# explicit orthogonal pairs


def orthogonal_form_antidiagonal(n):
    """Gram matrix of sum x_i x_{n+1-i} (1-indexed), flattened as a sparse
    row."""
    return {i * n + n - 1 - i: 1 for i in range(n)}


def _transposed(x, n):
    """The transpose of a flattened n x n matrix, as a sparse row."""
    return {k % n * n + k // n: y for k, y in entries(x) if y}


def is_form_skew_adjoint(x, gram, n):
    """Whether G X + X^T G = 0 for flattened n x n matrices X and G, each a
    sparse row or a dense sequence."""
    out = matmul(gram, x, n)
    add_multiple(out, 1, matmul(_transposed(x, n), gram, n))
    return not out


def orthogonal_columns(members, gram, n):
    """The columns, on flattened X, of the brackets [x, X] for x in members
    (`pairs.ad_columns`) followed by G X + X^T G, keyed after them: the
    equations of the members' joint centralizer in the form's algebra.
    Members and the Gram matrix are flattened n x n matrices, sparse rows
    or dense sequences."""
    cols = ad_columns(members, n)
    off = len(members) * n * n
    gram = dict(entries(gram))
    for j, col in enumerate(cols):
        a, b = divmod(j, n)
        for i in range(n):
            # G E_ab + E_ba G: G_ia at (i, b) and G_ai at (b, i)
            for k, y in (
                (i * n + b, gram.get(i * n + a)),
                (b * n + i, gram.get(a * n + i)),
            ):
                if y:
                    col[off + k] = col.get(off + k, 0) + y
    return cols


def orthogonal_centralizer(members, gram, n):
    """Joint centralizer of the members inside the form's algebra."""
    return relations(orthogonal_columns(members, gram, n))


def even_orthogonal_pair(n):
    """The explicit pair in the even orthogonal algebra of dimension 4n + 2
    whose members have block sizes (2n+1, 2n+1) and (2, ..., 2, 1, 1).

    Returns the pair members and the Gram matrix as flattened sparse rows,
    the columns of the joint centralizer's equations
    (`orthogonal_columns`), that centralizer inside the orthogonal algebra,
    and the stated spanning set.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    N = 4 * n + 2
    gram = orthogonal_form_antidiagonal(N)
    # 1-indexed description: e1 v_j = v_{j-1} for j >= 2n+3,
    # e1 v_j = -v_{j-1} for 2 <= j <= 2n+1, zero on v_1 and v_{2n+2};
    # e2 v_j = (-1)^j v_{j-2n-2} for j >= 2n+3.
    e1 = {}
    for j in range(2, N + 1):
        if j >= 2 * n + 3:
            e1[(j - 2) * N + j - 1] = 1
        elif j <= 2 * n + 1:
            e1[(j - 2) * N + j - 1] = -1
    e2 = {(j - 2 * n - 3) * N + j - 1: (-1) ** j for j in range(2 * n + 3, N + 1)}
    # v_{4n+2} -> v_{2n+2} and v_{2n+1} -> -v_1
    x = {(2 * n + 1) * N + N - 1: 1, 2 * n: -1}
    tower = power_tower(e1, N, 2 * n - 1)
    basis = [tower[k] for k in range(1, 2 * n, 2)]
    basis += [matmul(tower[k], e2, N) for k in range(0, 2 * n - 1, 2)]
    basis += [x]
    columns = orthogonal_columns((e1, e2), gram, N)
    return {
        "n": n,
        "dim": N,
        "e1": e1,
        "e2": e2,
        "gram": gram,
        "columns": columns,
        "centralizer": relations(columns),
        "stated_basis": basis,
    }


def even_orthogonal_pair_report(n):
    data = even_orthogonal_pair(n)
    e1, e2, gram = data["e1"], data["e2"], data["gram"]
    N = data["dim"]
    span = Subspace(N * N, data["stated_basis"])
    cent = data["centralizer"]
    rank = N // 2
    candidate = _associated_grading_candidate(e1, e2, data["columns"])
    report = {
        "n": n,
        "dim": N,
        "commute": not ad(e1, e2, N),
        "skew_adjoint": all(is_form_skew_adjoint(e, gram, N) for e in (e1, e2)),
        "jordan_e1": list(jordan_type(e1, N)),
        "jordan_e2": list(jordan_type(e2, N)),
        "centralizer_dim": cent.dim,
        "rank": rank,
        "regular": cent.dim == rank,
        "basis_spans": span == cent,
        "grading_candidate_found": candidate is not None,
    }
    if candidate is not None:
        for name, sol in zip(("candidate_h1", "candidate_h2"), candidate):
            report[name] = [
                [*divmod(k, N), f"{frac(y).numerator}/{frac(y).denominator}"]
                for k, y in sorted(sol.items())
            ]
    report["ok"] = (
        report["commute"]
        and report["skew_adjoint"]
        and report["regular"]
        and report["basis_spans"]
        and report["jordan_e1"] == [2 * n + 1, 2 * n + 1]
        and report["jordan_e2"] == [2] * (2 * n) + [1, 1]
    )
    return report


def _associated_grading_candidate(e1, e2, columns):
    """Solve the affine systems [h, e_i] = delta e_i inside the orthogonal
    algebra; returns one deterministic solution pair, each a flattened
    sparse row of its nonzero entries, or None.

    As [h, e] = -[e, h], the equations are the rows of the members'
    `orthogonal_columns`, given as `columns` (one per entry of h), with
    right-hand side -e_i on member i's keys.  The two systems share those
    rows, so they are eliminated once (solve_affine_many)."""
    nn = len(columns)
    rows = transpose(columns)
    rhss = [
        {i * nn + k: -x for k, x in entries(target) if x}
        for i, target in enumerate((e1, e2))
    ]
    keys = rows.keys() | rhss[0].keys() | rhss[1].keys()
    return solve_affine_many(
        [rows.get(k, {}) for k in keys], [[rhs.get(k, 0) for k in keys] for rhs in rhss]
    )


# ---------------------------------------------------------------------------
# centrally symmetric diagrams in orthogonal algebras


def centered_coordinates(d):
    """Translate a diagram so it is centrally symmetric about the origin, or
    raise if no translation does it."""
    boxes = set(d.boxes)
    ps = [p for p, _ in boxes]
    qs = [q for _, q in boxes]
    sp, sq = max(ps) + min(ps), max(qs) + min(qs)
    if sp % 2 or sq % 2:
        raise FormError("no centre of symmetry at a box centre")
    cp, cq = sp // 2, sq // 2
    centered = {(p - cp, q - cq) for p, q in boxes}
    if centered != {(-p, -q) for p, q in centered}:
        raise FormError("diagram is not centrally symmetric")
    return sorted(centered, key=lambda b: (b[1], b[0]))


def symmetric_diagram_pair(d):
    """Pair and symmetric form attached to a centrally symmetric connected
    diagram; checks skew-adjointness, and nilpotency of the orthogonal
    centralizer when the shape is a (minus) skew diagram."""
    boxes = centered_coordinates(d)
    if not d.is_connected():
        raise FormError("diagram must be connected")
    n = len(boxes)
    index = {b: i for i, b in enumerate(boxes)}
    e1, e2, gram = {}, {}, {}
    for (p, q), i in index.items():
        if (p + 1, q) in index:
            e1[index[(p + 1, q)] * n + i] = 1
        if (p, q + 1) in index:
            e2[index[(p, q + 1)] * n + i] = 1
        gram[i * n + index[(-p, -q)]] = -1 if (p + q) % 2 else 1
    shape = classify_shape(d)
    report = {
        "diagram": d.serialize(),
        "shape": shape.value,
        "form_nondegenerate": matrix_rank(gram, n) == n,
        "skew_adjoint": all(is_form_skew_adjoint(e, gram, n) for e in (e1, e2)),
        "commute": not ad(e1, e2, n),
    }
    if shape in SKEWISH:
        cent = orthogonal_centralizer((e1, e2), gram, n)
        report["orthogonal_centralizer_dim"] = cent.dim
        report["centralizer_nilpotent"] = is_nilpotent_family(cent, n)
        report["distinguished"] = report["centralizer_nilpotent"]
    return report
