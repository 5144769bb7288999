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
    _multisets,
    alt2,
    classification_list_predicate,
    clebsch_gordan,
    decompose_adjoint,
    even_orthogonal_pair,
    even_orthogonal_pair_report,
    is_regular_embedding,
    orthogonal_centralizer,
    summand_count,
    survey_embeddings,
    sym2,
    symmetric_diagram_pair,
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


def _reference_multisets(dim_bound, max_summands=3):
    """Every multiset survey_embeddings walks, built the old way: all
    combinations_with_replacement, the ones over the bound dropped."""
    singles = _singles(dim_bound)
    for count in range(1, max_summands + 1):
        for J in combinations_with_replacement(singles, count):
            if sum(n * m for n, m in J) <= dim_bound:
                yield J


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


def test_pruned_multisets_match_combinations():
    for bound in (1, 2, 5, 12, 24):
        singles = _singles(bound)
        got = [J for count in (1, 2, 3) for J in _multisets(singles, count, bound)]
        assert got == list(_reference_multisets(bound)), bound


@pytest.mark.parametrize("algebra", ["sl", "sp", "so"])
def test_summand_count_matches_decomposition(algebra):
    # every multiset survey_embeddings enumerates up to the CLI cap of 24
    checked = errors = 0
    for count in (1, 2, 3):
        for J in _multisets(_singles(24), count, 24):
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
    assert survey_embeddings(algebra, 12) == _reference_survey(algebra, 12)


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
    (G X + X^T G)_{ij} = 0, i <= j."""
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


def _dense_grading_candidate(e1, e2, gram):
    """Dense reference: the negated ad_matrix rows of both members under the
    skew-adjointness rows, solved by solve_affine on dense rows."""
    N = e1.rows
    form_rows = _dense_skew_adjoint_rows(gram)
    sols = []
    for target_first in (True, False):
        rows = list(form_rows)
        rhs = [Fraction(0)] * len(form_rows)
        for x, is_target in ((e1, target_first), (e2, not target_first)):
            for r, row in enumerate(ad_matrix(x).data):
                rows.append([-v for v in row])
                rhs.append(x.flatten()[r] if is_target else Fraction(0))
        sol = solve_affine(rows, rhs)
        if sol is None:
            return None
        sols.append(Matrix.unflatten(sol, N))
    return tuple(sols)


def _dense_orthogonal_centralizer(members, gram):
    rows = [row for x in members for row in ad_matrix(x).data]
    return Matrix(rows + _dense_skew_adjoint_rows(gram)).kernel()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_orthogonal_systems_match_dense_reference(n):
    data = even_orthogonal_pair(n)
    e1, e2, gram = data["e1"], data["e2"], data["gram"]
    dense = _dense_orthogonal_centralizer((e1, e2), gram)
    assert data["centralizer"] == dense
    assert orthogonal_centralizer((e1, e2), gram) == dense
    candidate = _associated_grading_candidate(e1, e2, gram)
    assert candidate is not None
    assert candidate == _dense_grading_candidate(e1, e2, gram)


def test_symmetric_diagram_centralizer_matches_dense_reference(monkeypatch):
    seen = []

    def checked(members, gram):
        got = orthogonal_centralizer(members, gram)
        assert got == _dense_orthogonal_centralizer(members, gram)
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
