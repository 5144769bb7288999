"""Classification of pairs coming from commuting sl2-triples by counting
irreducible summands of the adjoint module, plus the explicit even
orthogonal pair that falls outside that family."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .diagrams import SKEWISH, classify_shape
from .linalg import Matrix, Subspace, bracket, jordan_type
from .linalg import relations, solve_affine, transpose
from .pairs import ad_columns, is_nilpotent_family


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


@dataclass(frozen=True)
class EmbeddingSpec:
    """A classical algebra on a module V decomposed under two commuting sl2's
    as the direct sum of R(n_i - 1) (x) R(m_i - 1)."""

    algebra: str  # sl / sp / so
    summands: tuple  # multiset of (n_i, m_i), n_i, m_i >= 1

    @property
    def dim_v(self):
        return sum(n * m for n, m in self.summands)

    def rank(self):
        n = self.dim_v
        if self.algebra == "sl":
            return n - 1
        if self.algebra == "sp":
            if n % 2:
                raise FormError("symplectic form needs even dimension")
            return n // 2
        return n // 2

    def to_jsonable(self):
        return {"type": self.algebra, "J": [list(x) for x in sorted(self.summands)]}


def _form_possible(spec):
    """Whether V carries an invariant form of the right symmetry: summands of
    the wrong intrinsic parity must pair up evenly (hyperbolically)."""
    if spec.algebra == "sl":
        return True
    counts = Counter(spec.summands)
    for (n, m), cnt in counts.items():
        symmetric = (n - m) % 2 == 0  # both factors carry forms of one sign
        if spec.algebra == "so" and not symmetric and cnt % 2:
            return False
        if spec.algebra == "sp" and symmetric and cnt % 2:
            return False
    return True


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
    labels = [(n - 1, m - 1) for n, m in spec.summands]

    def sym(a):
        return a // 2 + 1

    def alt(a):
        return (a - 1) // 2 + 1 if a else 0

    def cross(i, j):
        (a1, b1), (a2, b2) = labels[i], labels[j]
        return (min(a1, a2) + 1) * (min(b1, b2) + 1)

    k = len(labels)
    if spec.algebra == "sl":
        return sum(cross(i, j) for i in range(k) for j in range(k)) - 1
    if spec.algebra == "sp":
        own = sum(sym(a) * sym(b) + alt(a) * alt(b) for a, b in labels)
    else:
        own = sum(sym(a) * alt(b) + alt(a) * sym(b) for a, b in labels)
    return own + sum(cross(i, j) for i in range(k) for j in range(i + 1, k))


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


def classification_list_predicate(spec):
    """The classification lists: single rectangles for sl; a single rectangle
    of mixed parity for sp; for so a single same-parity rectangle, or one of
    the two-rectangle families {(n,m),(1,1)} and {(n,1),(1,m)} with n, m
    odd."""
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


def _multisets(singles, count, room, start=0):
    """The sorted count-element multisets from singles[start:], in the order
    of combinations_with_replacement, whose boxes n m sum to at most room.
    singles is sorted, so once n exceeds the room no later single fits."""
    for i in range(start, len(singles)):
        n, m = singles[i]
        if n > room:
            return
        if n * m > room:
            continue
        if count == 1:
            yield (singles[i],)
        else:
            for rest in _multisets(singles, count - 1, room - n * m, i):
                yield (singles[i],) + rest


def survey_embeddings(algebra, dim_bound, max_summands=3):
    """Exhaustive comparison of the count criterion against the published
    lists, over all multisets with at most three summands."""
    singles = [
        (n, m)
        for n in range(1, dim_bound + 1)
        for m in range(1, dim_bound + 1)
        if n * m <= dim_bound
    ]
    rows = []
    agree = True
    for count in range(1, max_summands + 1):
        for J in _multisets(singles, count, dim_bound):
            spec = EmbeddingSpec(algebra, J)
            if spec.algebra == "sp" and spec.dim_v % 2:
                continue
            if spec.dim_v < 2:
                continue
            accepted, exps = is_regular_embedding(spec)
            expected = classification_list_predicate(spec) and _form_possible(spec)
            agree = agree and accepted == expected
            rows.append(
                {
                    "type": algebra,
                    "J": [list(x) for x in spec.summands],
                    "is_pn_pair": accepted,
                    "expected": expected,
                    "biexponents": None if exps is None else [list(e) for e in exps],
                }
            )
    return {"algebra": algebra, "dim_bound": dim_bound, "rows": rows, "agree": agree}


# ---------------------------------------------------------------------------
# explicit orthogonal pairs


def orthogonal_form_antidiagonal(n):
    """Gram matrix of sum x_i x_{n+1-i} (1-indexed)."""
    return Matrix([[1 if i + j == n - 1 else 0 for j in range(n)] for i in range(n)])


def is_form_skew_adjoint(x, gram):
    return (gram * x + x.transpose() * gram).is_zero()


def orthogonal_columns(members, gram):
    """The columns, on flattened X, of the brackets [x, X] for x in members
    (`pairs.ad_columns`) followed by G X + X^T G, keyed after them: the
    equations of the members' joint centralizer in the form's algebra."""
    n = gram.rows
    cols = ad_columns(members, n)
    off = len(members) * n * n
    for j, col in enumerate(cols):
        a, b = divmod(j, n)
        for i in range(n):
            # G E_ab + E_ba G: G_ia at (i, b) and G_ai at (b, i)
            for k, y in ((i * n + b, gram.data[i][a]), (b * n + i, gram.data[a][i])):
                if y:
                    col[off + k] = col.get(off + k, 0) + y
    return cols


def orthogonal_centralizer(members, gram):
    """Joint centralizer of the members inside the form's algebra."""
    return relations(orthogonal_columns(members, gram))


def even_orthogonal_pair(n):
    """The explicit pair in the even orthogonal algebra of dimension 4n + 2
    whose members have block sizes (2n+1, 2n+1) and (2, ..., 2, 1, 1).

    Returns the pair matrices, the Gram matrix, the computed joint
    centralizer inside the orthogonal algebra, and the stated spanning set.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    N = 4 * n + 2
    gram = orthogonal_form_antidiagonal(N)
    e1 = [[Fraction(0)] * N for _ in range(N)]
    e2 = [[Fraction(0)] * N for _ in range(N)]
    # 1-indexed description: e1 v_j = v_{j-1} for j >= 2n+3,
    # e1 v_j = -v_{j-1} for 2 <= j <= 2n+1, zero on v_1 and v_{2n+2};
    # e2 v_j = (-1)^j v_{j-2n-2} for j >= 2n+3.
    for j in range(2, N + 1):
        if j >= 2 * n + 3:
            e1[j - 2][j - 1] = Fraction(1)
        elif j <= 2 * n + 1:
            e1[j - 2][j - 1] = Fraction(-1)
    for j in range(2 * n + 3, N + 1):
        e2[j - 2 * n - 3][j - 1] = Fraction(-1) ** j
    e1 = Matrix(e1)
    e2 = Matrix(e2)
    x = [[Fraction(0)] * N for _ in range(N)]
    x[2 * n + 1][N - 1] = Fraction(1)  # v_{4n+2} -> v_{2n+2}
    x[0][2 * n] = Fraction(-1)  # v_{2n+1} -> -v_1
    x = Matrix(x)
    basis = [e1**k for k in range(1, 2 * n, 2)]
    basis += [(e1**k) * e2 for k in range(0, 2 * n - 1, 2)]
    basis += [x]
    centralizer = orthogonal_centralizer((e1, e2), gram)
    return {
        "n": n,
        "dim": N,
        "e1": e1,
        "e2": e2,
        "gram": gram,
        "centralizer": centralizer,
        "stated_basis": basis,
    }


def even_orthogonal_pair_report(n):
    data = even_orthogonal_pair(n)
    e1, e2, gram = data["e1"], data["e2"], data["gram"]
    N = data["dim"]
    span = Subspace(N * N, [m.flatten() for m in data["stated_basis"]])
    cent = data["centralizer"]
    rank = N // 2
    candidate = _associated_grading_candidate(e1, e2, gram)
    report = {
        "n": n,
        "dim": N,
        "commute": bracket(e1, e2).is_zero(),
        "skew_adjoint": is_form_skew_adjoint(e1, gram) and is_form_skew_adjoint(e2, gram),
        "jordan_e1": list(jordan_type(e1)),
        "jordan_e2": list(jordan_type(e2)),
        "centralizer_dim": cent.dim,
        "rank": rank,
        "regular": cent.dim == rank,
        "basis_spans": span == cent,
        "grading_candidate_found": candidate is not None,
    }
    if candidate is not None:
        h1, h2 = candidate
        report["candidate_h1"] = [
            [i, j, f"{h1.data[i][j].numerator}/{h1.data[i][j].denominator}"]
            for i in range(N)
            for j in range(N)
            if h1.data[i][j]
        ]
        report["candidate_h2"] = [
            [i, j, f"{h2.data[i][j].numerator}/{h2.data[i][j].denominator}"]
            for i in range(N)
            for j in range(N)
            if h2.data[i][j]
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


def _associated_grading_candidate(e1, e2, gram):
    """Solve the affine systems [h, e_i] = delta e_i inside the orthogonal
    algebra; returns one deterministic solution pair or None.

    As [h, e] = -[e, h], the equations are the rows of
    `orthogonal_columns` with right-hand side -e_i on member i's keys."""
    N = e1.rows
    rows = transpose(orthogonal_columns((e1, e2), gram))
    sols = []
    for i, target in enumerate((e1, e2)):
        rhs = {i * N * N + k: -x for k, x in enumerate(target.flatten()) if x}
        keys = rows.keys() | rhs.keys()
        sol = solve_affine(
            [rows.get(k, {}) for k in keys], [rhs.get(k, 0) for k in keys]
        )
        if sol is None:
            return None
        sols.append(Matrix.unflatten(sol, N))
    return tuple(sols)


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
    e1 = [[Fraction(0)] * n for _ in range(n)]
    e2 = [[Fraction(0)] * n for _ in range(n)]
    for (p, q), i in index.items():
        if (p + 1, q) in index:
            e1[index[(p + 1, q)]][i] = Fraction(1)
        if (p, q + 1) in index:
            e2[index[(p, q + 1)]][i] = Fraction(1)
    e1, e2 = Matrix(e1), Matrix(e2)
    gram = [[Fraction(0)] * n for _ in range(n)]
    for (p, q), i in index.items():
        j = index[(-p, -q)]
        gram[i][j] = Fraction(-1) ** (p + q)
    gram = Matrix(gram)
    shape = classify_shape(d)
    report = {
        "diagram": d.serialize(),
        "shape": shape.value,
        "form_nondegenerate": gram.rank() == n,
        "skew_adjoint": is_form_skew_adjoint(e1, gram) and is_form_skew_adjoint(e2, gram),
        "commute": bracket(e1, e2).is_zero(),
    }
    if shape in SKEWISH:
        cent = orthogonal_centralizer((e1, e2), gram)
        report["orthogonal_centralizer_dim"] = cent.dim
        report["centralizer_nilpotent"] = is_nilpotent_family(cent, n)
        report["distinguished"] = report["centralizer_nilpotent"]
    return report
