from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from nilpair import rectangular
from nilpair.diagrams import Diagram, parse
from nilpair.linalg import Matrix, solve_affine
from nilpair.pairs import ad_matrix, biexponents, build_pair
from nilpair.rectangular import (
    EmbeddingSpec,
    EvennessError,
    FormError,
    _associated_grading_candidate,
    _form_possible,
    alt2,
    classification_list_predicate,
    clebsch_gordan,
    decompose_adjoint,
    even_orthogonal_pair,
    even_orthogonal_pair_report,
    is_form_skew_adjoint,
    is_regular_embedding,
    orthogonal_centralizer,
    orthogonal_form_antidiagonal,
    orthogonal_columns,
    summand_count,
    survey_embeddings,
    sym2,
    symmetric_diagram_pair,
)
from test_linalg import (
    mat_flatten,
    mat_is_zero,
    mat_pow,
    mat_transpose,
    mat_unflatten,
)


def weight_multiset_decompose(weights):
    """Independent oracle: peel a weight multiset into irreducibles from the
    top."""
    weights = Counter(weights)
    out = Counter()
    while weights:
        top = max(weights)
        out[top] += 1
        for w in range(-top, top + 1, 2):
            weights[w] -= 1
            if not weights[w]:
                del weights[w]
    return out


def module_weights(a):
    return list(range(-a, a + 1, 2))


def test_clebsch_gordan_basics():
    assert clebsch_gordan(1, 1) == Counter({2: 1, 0: 1})
    assert sym2(1) == Counter({2: 1})
    assert alt2(2) == Counter({2: 1})


def test_plethysm_against_weight_oracle():
    for a in range(7):
        ws = module_weights(a)
        sym_w = [ws[i] + ws[j] for i in range(len(ws)) for j in range(i, len(ws))]
        alt_w = [ws[i] + ws[j] for i in range(len(ws)) for j in range(i + 1, len(ws))]
        assert weight_multiset_decompose(sym_w) == sym2(a)
        assert weight_multiset_decompose(alt_w) == +alt2(a)


def test_dimension_bookkeeping():
    for spec in (
        EmbeddingSpec("sl", ((2, 2),)),
        EmbeddingSpec("sp", ((2, 1),)),
        EmbeddingSpec("so", ((3, 1), (1, 3))),
    ):
        dec = decompose_adjoint(spec)
        total = sum((a + 1) * (b + 1) * m for (a, b), m in dec.items())
        n = spec.dim_v
        expected = {
            "sl": n * n - 1,
            "sp": n * (n + 1) // 2,
            "so": n * (n - 1) // 2,
        }[spec.algebra]
        assert total == expected


def test_embedding_spec_is_a_structural_record():
    spec = EmbeddingSpec("so", ((3, 1), (1, 3)))
    twin = EmbeddingSpec("so", ((3, 1), (1, 3)))
    assert spec == twin and hash(spec) == hash(twin) and len({spec, twin}) == 1
    assert spec != EmbeddingSpec("sl", ((3, 1), (1, 3)))
    assert repr(spec) == "EmbeddingSpec(algebra='so', summands=((3, 1), (1, 3)))"


def test_sl_square_decomposition():
    dec = decompose_adjoint(EmbeddingSpec("sl", ((2, 2),)))
    assert dec == Counter({(2, 2): 1, (2, 0): 1, (0, 2): 1})


def test_so6_two_rectangles():
    dec = decompose_adjoint(EmbeddingSpec("so", ((3, 1), (1, 3))))
    assert sum(dec.values()) == 3


def test_sl_single_column_principal():
    accepted, exps = is_regular_embedding(EmbeddingSpec("sl", ((4, 1),)))
    assert accepted
    assert exps == ((1, 0), (2, 0), (3, 0))


def test_regularity_and_biexponents_match_diagram():
    for a, b in ((2, 2), (3, 2), (4, 1), (3, 3)):
        accepted, exps = is_regular_embedding(EmbeddingSpec("sl", ((a, b),)))
        assert accepted
        d = Diagram([(p, q) for p in range(a) for q in range(b)])
        pair, h = build_pair(d)
        assert exps == biexponents(pair, h)
        assert exps == tuple(sorted(x for x in d.boxes if x != (0, 0)))


def test_sp_parity_rule():
    assert is_regular_embedding(EmbeddingSpec("sp", ((2, 1),)))[0]
    assert not is_regular_embedding(EmbeddingSpec("sp", ((3, 1),)))[0]
    assert not is_regular_embedding(EmbeddingSpec("sp", ((2, 2), (2, 2))))[0]


def test_so_families():
    assert is_regular_embedding(EmbeddingSpec("so", ((3, 3),)))[0]
    assert is_regular_embedding(EmbeddingSpec("so", ((3, 1), (1, 3))))[0]
    assert is_regular_embedding(EmbeddingSpec("so", ((3, 3), (1, 1))))[0]
    assert not is_regular_embedding(EmbeddingSpec("so", ((3, 1), (3, 1))))[0]


def test_form_error():
    with pytest.raises(FormError):
        decompose_adjoint(EmbeddingSpec("so", ((2, 1),)))
    with pytest.raises(FormError):
        decompose_adjoint(EmbeddingSpec("sp", ((1, 1),)))


def test_survey_small_bounds():
    for alg in ("sl", "sp", "so"):
        rep = survey_embeddings(alg, 12)
        assert rep["agree"]
    tiny = survey_embeddings("sp", 3)
    assert all(r["is_pn_pair"] == r["expected"] for r in tiny["rows"])


def _singles(dim_bound):
    return [
        (n, m)
        for n in range(1, dim_bound + 1)
        for m in range(1, dim_bound + 1)
        if n * m <= dim_bound
    ]


def _reference_multisets(dim_bound):
    """Every multiset survey_embeddings walks, built the old way: all
    combinations_with_replacement of one to three singles, the ones over
    the bound dropped."""
    singles = _singles(dim_bound)
    for count in (1, 2, 3):
        for J in combinations_with_replacement(singles, count):
            if sum(n * m for n, m in J) <= dim_bound:
                yield J


def _counted_form_possible(spec):
    """The form test the old way: a Counter of the summands, each of the
    wrong intrinsic parity needing an even multiplicity."""
    if spec.algebra == "sl":
        return True
    for (n, m), cnt in Counter(spec.summands).items():
        symmetric = (n - m) % 2 == 0
        if spec.algebra == "so" and not symmetric and cnt % 2:
            return False
        if spec.algebra == "sp" and symmetric and cnt % 2:
            return False
    return True


def _reference_survey(algebra, dim_bound):
    """survey_embeddings the old way: every multiset decomposed first, the
    summands counted from the decomposition."""
    rows = []
    agree = True
    for J in _reference_multisets(dim_bound):
        spec = EmbeddingSpec(algebra, tuple(sorted(J)))
        if (algebra == "sp" and spec.dim_v % 2) or spec.dim_v < 2:
            continue
        try:
            dec = decompose_adjoint(spec)
        except FormError:
            accepted, exps = False, None
        else:
            accepted = sum(dec.values()) == spec.rank()
            exps = None
            if accepted:
                halves = [(a // 2, b // 2) for (a, b), k in dec.items() for _ in range(k)]
                exps = tuple(sorted(halves))
        expected = classification_list_predicate(spec) and _counted_form_possible(spec)
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


def test_pruned_multisets_match_combinations():
    # the walk yields every multiset of the reference, in its order, with
    # its box count and, where the form exists, its summand count
    for algebra in ("sl", "sp", "so"):
        for bound in (1, 2, 5, 12, 24):
            singles = _singles(bound)
            walk = list(rectangular._multisets(algebra, bound, singles))
            got = [tuple(singles[i] for i in idx) for idx, _, _ in walk]
            assert got == list(_reference_multisets(bound)), (algebra, bound)
            for J, (_, dim, count) in zip(got, walk):
                spec = EmbeddingSpec(algebra, J)
                assert dim == spec.dim_v, J
                if _counted_form_possible(spec):
                    assert count == summand_count(spec), (algebra, J)


def test_listed_arity_bounds_the_lists():
    # the survey skips a multiset of more than _LISTED_ARITY summands whose
    # count misses the rank, because the lists name none of them
    for algebra in ("sl", "sp", "so"):
        arity = rectangular._LISTED_ARITY[algebra]
        listed = Counter()
        for J in _reference_multisets(24):
            if classification_list_predicate(EmbeddingSpec(algebra, J)):
                listed[len(J)] += 1
        assert max(listed) == arity, (algebra, listed)


@pytest.mark.parametrize("algebra", ["sl", "sp", "so"])
def test_form_test_matches_counted_reference(algebra):
    for J in _reference_multisets(24):
        spec = EmbeddingSpec(algebra, J)
        assert _form_possible(spec) == _counted_form_possible(spec), J


@pytest.mark.parametrize("algebra", ["sl", "sp", "so"])
def test_summand_count_matches_decomposition(algebra):
    # every multiset survey_embeddings enumerates up to the CLI cap of 24
    checked = errors = 0
    for J in _reference_multisets(24):
        spec = EmbeddingSpec(algebra, J)
        try:
            dec = decompose_adjoint(spec)
        except FormError:
            with pytest.raises(FormError):
                summand_count(spec)
            errors += 1
            continue
        assert summand_count(spec) == sum(dec.values()), J
        checked += 1
    assert checked > 1000 and (errors > 0) == (algebra != "sl")


@pytest.mark.parametrize("algebra", ["sl", "sp", "so"])
def test_survey_matches_decompose_first_reference(algebra):
    # the survey keeps the reference's rows that are accepted or listed, and
    # walks and agrees as the reference does; 20 is the bound of rect_suite,
    # so its golden report has a row-level reference
    for bound in (1, 2, 3, 5, 12, 20, 24):
        want = _reference_survey(algebra, bound)
        got = survey_embeddings(algebra, bound)
        assert got["rows"] == [
            r for r in want["rows"] if r["is_pn_pair"] or r["expected"]
        ], bound
        assert got["walked"] == len(want["rows"]), bound
        assert got["agree"] == want["agree"], bound


def test_survey_builds_specs_only_for_verdicts(monkeypatch):
    # at the bound of rect_suite a multiset is built as a spec only when its
    # count meets the rank or the lists could name it, and it carries a form
    built = []
    judged = []

    class CountedSpec(EmbeddingSpec):
        __slots__ = ()

        def __init__(self, algebra, summands):
            built.append(summands)
            super().__init__(algebra, summands)

    def counted(spec):
        judged.append(spec)
        return is_regular_embedding(spec)

    monkeypatch.setattr(rectangular, "EmbeddingSpec", CountedSpec)
    monkeypatch.setattr(rectangular, "is_regular_embedding", counted)
    reports = [survey_embeddings(algebra, 20) for algebra in ("sl", "sp", "so")]
    assert len(built) == 341 and len(judged) == 188
    assert [len(rep["rows"]) for rep in reports] == [65, 34, 89]
    assert [rep["walked"] for rep in reports] == [3878, 2195, 3878]
    assert all(rep["agree"] for rep in reports)


def test_decomposition_only_behind_a_matching_count(monkeypatch):
    spec = EmbeddingSpec("sl", ((2, 2),))
    assert is_regular_embedding(spec) == (True, ((0, 1), (1, 0), (1, 1)))
    # the count cannot see the labels, so an odd label behind a matching
    # count still raises
    monkeypatch.setattr(
        rectangular, "decompose_adjoint", lambda spec: Counter({(1, 0): 3})
    )
    with pytest.raises(EvennessError):
        is_regular_embedding(spec)

    def unreachable(spec):
        raise AssertionError("decomposed although the count is off the rank")

    monkeypatch.setattr(rectangular, "decompose_adjoint", unreachable)
    assert is_regular_embedding(EmbeddingSpec("sl", ((2, 1), (1, 1)))) == (False, None)


def test_classification_predicate_families():
    assert classification_list_predicate(EmbeddingSpec("sl", ((5, 2),)))
    assert not classification_list_predicate(EmbeddingSpec("sl", ((2, 1), (1, 1))))
    assert classification_list_predicate(EmbeddingSpec("so", ((5, 1), (1, 3))))
    assert not classification_list_predicate(EmbeddingSpec("so", ((5, 1), (1, 2))))


def test_even_orthogonal_pairs():
    for n in (1, 2):
        rep = even_orthogonal_pair_report(n)
        assert rep["ok"]
        assert rep["centralizer_dim"] == 2 * n + 1
        assert rep["jordan_e1"] == [2 * n + 1, 2 * n + 1]


def test_symmetric_diagram_row():
    rep = symmetric_diagram_pair(parse("3"))
    assert rep["form_nondegenerate"] and rep["skew_adjoint"] and rep["commute"]
    assert rep["distinguished"]


def test_symmetric_diagram_square():
    rep = symmetric_diagram_pair(parse("3,3,3"))
    assert rep["distinguished"]


def test_symmetric_plus_shape():
    rep = symmetric_diagram_pair(parse("(0,0);(1,0);(-1,0);(0,1);(0,-1)"))
    assert rep["form_nondegenerate"] and rep["skew_adjoint"]
    assert not rep["commute"]
    assert "distinguished" not in rep


def test_asymmetric_rejected():
    with pytest.raises(FormError):
        symmetric_diagram_pair(parse("2,1"))


def _dense_skew_adjoint_rows(gram):
    """Dense rows on flattened X of the skew-adjointness constraints
    (G X + X^T G)_{ij} = 0, i <= j, for a dense Gram Matrix."""
    n = gram.rows
    rows = []
    for i in range(n):
        for j in range(i, n):
            row = [Fraction(0)] * (n * n)
            for k in range(n):
                if gram.data[i][k]:
                    row[k * n + j] += gram.data[i][k]
                if gram.data[j][k]:
                    row[k * n + i] += gram.data[j][k]
            rows.append(row)
    return rows


def _dense(members, gram, n):
    """The members and the Gram matrix as dense Matrix objects, built from
    their flattened sparse rows."""
    return [mat_unflatten(x, n) for x in members], mat_unflatten(gram, n)


def _dense_grading_candidate(e1, e2, gram):
    """Dense reference: the negated ad_matrix rows of both members under the
    skew-adjointness rows, solved by solve_affine on dense rows; each
    solution comes back as a Matrix."""
    N = e1.rows
    form_rows = _dense_skew_adjoint_rows(gram)
    sols = []
    for target_first in (True, False):
        rows = list(form_rows)
        rhs = [Fraction(0)] * len(form_rows)
        for x, is_target in ((e1, target_first), (e2, not target_first)):
            for r, row in enumerate(ad_matrix(x).data):
                rows.append([-v for v in row])
                rhs.append(mat_flatten(x)[r] if is_target else Fraction(0))
        sol = solve_affine(rows, rhs)
        if sol is None:
            return None
        sols.append(mat_unflatten(sol, N))
    return tuple(sols)


def _dense_orthogonal_centralizer(members, gram):
    rows = [row for x in members for row in ad_matrix(x).data]
    return Matrix(rows + _dense_skew_adjoint_rows(gram)).kernel()


def _dense_skew_adjoint(x, gram):
    return mat_is_zero(gram * x + mat_transpose(x) * gram)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_orthogonal_systems_match_dense_reference(n, monkeypatch):
    # the report builds the members' orthogonal columns once, for both the
    # centralizer and the grading candidate
    built = []

    def counted(members, gram, N):
        built.append(len(members))
        return orthogonal_columns(members, gram, N)

    monkeypatch.setattr(rectangular, "orthogonal_columns", counted)
    report = even_orthogonal_pair_report(n)
    assert built == [2]
    monkeypatch.undo()
    data = even_orthogonal_pair(n)
    e1, e2, gram, N = data["e1"], data["e2"], data["gram"], data["dim"]
    # the sparse members hold exact integers only
    assert all(type(y) is int for m in (e1, e2, gram) for y in m.values())
    (d1, d2), dgram = _dense((e1, e2), gram, N)
    # the dense reference of the antidiagonal form and of the checks that
    # the report runs on sparse rows
    assert dgram == Matrix([[int(i + j == N - 1) for j in range(N)] for i in range(N)])
    assert mat_is_zero(d1 * d2 - d2 * d1)
    assert _dense_skew_adjoint(d1, dgram) and _dense_skew_adjoint(d2, dgram)
    assert is_form_skew_adjoint(e1, gram, N) and is_form_skew_adjoint(e2, gram, N)
    dense = _dense_orthogonal_centralizer((d1, d2), dgram)
    assert data["centralizer"] == dense
    assert orthogonal_centralizer((e1, e2), gram, N) == dense
    # the stated basis is e1^k (k odd), e1^k e2 (k even) and x
    powers = [mat_pow(d1, k) for k in range(2 * n)]
    stated = [powers[k] for k in range(1, 2 * n, 2)]
    stated += [powers[k] * d2 for k in range(0, 2 * n - 1, 2)]
    got = [mat_unflatten(v, N) for v in data["stated_basis"]]
    assert got[:-1] == stated
    candidate = _associated_grading_candidate(e1, e2, data["columns"])
    assert candidate is not None
    dense_candidate = _dense_grading_candidate(d1, d2, dgram)
    assert tuple(mat_unflatten(h, N) for h in candidate) == dense_candidate
    # the report's strings list the nonzero entries in row-major order
    for name, h in zip(("candidate_h1", "candidate_h2"), dense_candidate):
        assert report[name] == [
            [i, j, f"{x.numerator}/{x.denominator}"]
            for i in range(N)
            for j in range(N)
            if (x := h.data[i][j])
        ]


def _two_solve_grading_candidate(e1, e2, columns):
    """Reference for the grading candidate: one solve_affine per member, on
    the rows and the right-hand side of that member alone."""
    from nilpair.linalg import transpose

    nn = len(columns)
    rows = transpose(columns)
    sols = []
    for i, target in enumerate((e1, e2)):
        rhs = {i * nn + k: -x for k, x in target.items() if x}
        keys = rows.keys() | rhs.keys()
        sol = solve_affine([rows.get(k, {}) for k in keys], [rhs.get(k, 0) for k in keys])
        if sol is None:
            return None
        sols.append(sol)
    return tuple(sols)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_grading_candidate_eliminates_once(n, monkeypatch):
    # both members' systems eliminated together give the two separate
    # solutions, and the report's bytes do not change
    from nilpair.cli import canonical_json

    data = even_orthogonal_pair(n)
    args = (data["e1"], data["e2"], data["columns"])
    candidate = _associated_grading_candidate(*args)
    assert candidate is not None
    assert candidate == _two_solve_grading_candidate(*args)
    report = canonical_json(even_orthogonal_pair_report(n))
    monkeypatch.setattr(
        rectangular, "_associated_grading_candidate", _two_solve_grading_candidate
    )
    assert canonical_json(even_orthogonal_pair_report(n)) == report
    # with e1 + e1^2 in place of either member, whose system has no
    # solution, both routes return None
    e1, e2, N = data["e1"], data["e2"], data["dim"]
    bent = dict(e1)
    for k, x in rectangular.matmul(e1, e1, N).items():
        bent[k] = bent.get(k, 0) + x
    for members in ((bent, e2), (e1, bent)):
        args = (*members, data["columns"])
        assert _associated_grading_candidate(*args) is None
        assert _two_solve_grading_candidate(*args) is None


def test_skew_adjointness_matches_dense_reference():
    # G X + X^T G on sparse rows against the dense products, for the
    # antidiagonal form J and random integer members; half of them are made
    # skew-adjoint as Y - J Y^T J
    import random

    rng = random.Random(5)
    verdicts = set()
    for n in range(1, 6):
        gram = orthogonal_form_antidiagonal(n)
        for trial in range(20):
            y = {k: rng.choice((0, 0, 1, -1, 2)) for k in range(n * n)}
            if trial % 2:
                # (J Y^T J)_ij = Y_{n-1-j, n-1-i}
                y = {
                    i * n + j: y[i * n + j] - y[(n - 1 - j) * n + n - 1 - i]
                    for i in range(n)
                    for j in range(n)
                }
            x = {k: v for k, v in y.items() if v}
            (dx,), dgram = _dense((x,), gram, n)
            want = _dense_skew_adjoint(dx, dgram)
            assert is_form_skew_adjoint(x, gram, n) == want, (n, x)
            verdicts.add(want)
    assert verdicts == {True, False}


def test_symmetric_diagram_centralizer_matches_dense_reference(monkeypatch):
    seen = []

    def checked(members, gram, n):
        got = orthogonal_centralizer(members, gram, n)
        dense_members, dense_gram = _dense(members, gram, n)
        assert got == _dense_orthogonal_centralizer(dense_members, dense_gram)
        seen.append(got.dim)
        return got

    monkeypatch.setattr(rectangular, "orthogonal_centralizer", checked)
    for spec in ("3", "5", "3,3,3"):
        symmetric_diagram_pair(parse(spec))
    assert seen == [1, 2, 4]


def test_symmetric_diagram_reports_pinned():
    assert symmetric_diagram_pair(parse("3")) == {
        "diagram": "(0,0);(1,0);(2,0)",
        "shape": "young",
        "form_nondegenerate": True,
        "skew_adjoint": True,
        "commute": True,
        "orthogonal_centralizer_dim": 1,
        "centralizer_nilpotent": True,
        "distinguished": True,
    }
    assert symmetric_diagram_pair(parse("3,3,3")) == {
        "diagram": "(0,0);(1,0);(2,0);(0,1);(1,1);(2,1);(0,2);(1,2);(2,2)",
        "shape": "young",
        "form_nondegenerate": True,
        "skew_adjoint": True,
        "commute": True,
        "orthogonal_centralizer_dim": 4,
        "centralizer_nilpotent": True,
        "distinguished": True,
    }
    assert symmetric_diagram_pair(parse("(0,0);(1,0);(-1,0);(0,1);(0,-1)")) == {
        "diagram": "(1,0);(0,1);(1,1);(2,1);(1,2)",
        "shape": "connected_other",
        "form_nondegenerate": True,
        "skew_adjoint": True,
        "commute": False,
    }
