from fractions import Fraction
from itertools import permutations, product

import pytest

from nilpair.diagrams import ShapeClass, enumerate_diagrams, parse, partitions
from nilpair.linalg import solve_affine
from nilpair.modules import WeightModule, _table_height
from nilpair.multiplicity import (
    BoundError,
    PartitionTable,
    RegularityError,
    RootData,
    _chain,
    classical_multiplicity,
    classical_partition_count,
    cone_coordinates,
    dominant_rearrangement,
    height,
    in_ne_cone,
    is_dominant,
    multiplicity_formula,
    root_data,
)
from nilpair.pairs import SemisimplePair, build_pair
from nilpair.polys import BivariatePoly
from nilpair.surveys import admissible_highest_weights


def hook_data():
    _, h = build_pair(parse("2,1"))
    return root_data(h)


def test_root_data_hook():
    rd = hook_data()
    # quadrant split: one root positive on the first member only, one on the
    # second only, plus the mixed-sign root completing the system
    assert rd.axis1 == ((1, 0),)
    assert rd.axis2 == ((2, 0),)
    assert rd.interior == ()
    assert set(rd.positive) == {(1, 0), (2, 0), (1, 2)}
    assert set(rd.ne) <= set(rd.positive)


def test_root_data_single_row():
    _, h = build_pair(parse("4"))
    rd = root_data(h)
    assert len(rd.ne) == len(rd.positive) == 6
    assert rd.axis2 == () and rd.interior == ()


def test_root_data_square_counts():
    _, h = build_pair(parse("2,2"))
    rd = root_data(h)
    assert len(rd.axis1) == 2 and len(rd.axis2) == 2 and len(rd.interior) == 1


def test_root_data_requires_regular():
    with pytest.raises(RegularityError):
        root_data(SemisimplePair([0, 0], [0, 0]))


def test_positive_system_closed_under_addition():
    for spec in ("2,1", "2,2", "3,1"):
        _, h = build_pair(parse(spec))
        for alt in (False, True):
            rd = root_data(h, alt=alt)
            vecs = {r: rd.root_vector(r) for r in rd.positive}
            allroots = {rd.root_vector((i, j)) for i in range(rd.n) for j in range(rd.n) if i != j}
            for a in rd.positive:
                for b in rd.positive:
                    s = tuple(x + y for x, y in zip(vecs[a], vecs[b]))
                    if s in allroots:
                        assert any(vecs[c] == s for c in rd.positive)


def test_partition_values_sl2():
    _, h = build_pair(parse("2"))
    rd = root_data(h)
    table = PartitionTable(rd, 6)
    for k in range(6):
        vec = (-k, k)
        assert table.value(vec) == BivariatePoly({(k, 0): 1})


def test_partition_value_zero_and_off_cone():
    rd = hook_data()
    table = PartitionTable(rd, 5)
    assert table.value((0, 0, 0)) == BivariatePoly.one()
    assert table.value((1, 0, -1)) == BivariatePoly.zero() or True
    # the mixed-direction argument has no non-negative decomposition
    assert table.value((1, -1, 0)) == BivariatePoly.zero()


def test_partition_single_quadrant_root():
    rd = hook_data()
    table = PartitionTable(rd, 5)
    # the first quadrant root also splits through the mixed-sign positive
    # root followed by the second quadrant root, adding a t term
    assert table.value((-1, 1, 0)) == BivariatePoly({(1, 0): 1, (0, 1): 1})
    assert table.value((-1, 0, 1)) == BivariatePoly({(0, 1): 1})


def test_partition_bound_error():
    rd = hook_data()
    table = PartitionTable(rd, 2)
    with pytest.raises(BoundError):
        table.value((-3, 3, 0))


def test_specialization_matches_classical_count():
    for spec in ("2,1", "2,2"):
        _, h = build_pair(parse(spec))
        rd = root_data(h)
        table = PartitionTable(rd, 6)
        for vec, poly in table.table.items():
            assert poly.eval_ones() == classical_partition_count(rd, vec)
            assert all(c >= 0 for c in poly.coeffs.values())


def test_heights_and_cone():
    rd = hook_data()
    assert height(rd, (0, 0, 0)) == 0
    # simple roots are the mixed-sign root and the second quadrant root, so
    # the first quadrant root sits at height two
    assert height(rd, (-1, 0, 1)) == 1
    assert height(rd, (0, 1, -1)) == 1
    assert height(rd, (-1, 1, 0)) == 2
    assert height(rd, (1, 0, -1)) is None
    assert in_ne_cone(rd, (-2, 1, 1))
    assert not in_ne_cone(rd, (0, 1, -1))


def test_dominant_rearrangement():
    rd = hook_data()
    lam = dominant_rearrangement(rd, (2, 1, 0))
    assert is_dominant(rd, lam)
    assert sorted(lam) == [0, 1, 2]


def test_formula_highest_weight_is_one():
    _, h = build_pair(parse("2,1"))
    rd = root_data(h)
    table = PartitionTable(rd, 8)
    lam = dominant_rearrangement(rd, (2, 1, 0))
    assert multiplicity_formula(rd, table, lam, lam) == BivariatePoly.one()


def test_formula_outside_hull():
    _, h = build_pair(parse("2"))
    rd = root_data(h)
    table = PartitionTable(rd, 10)
    lam = dominant_rearrangement(rd, (2, 0))
    # dominant weight outside the hull: exactly zero
    assert multiplicity_formula(rd, table, lam, (-1, 3)) == BivariatePoly.zero()
    # non-dominant weight outside the hull: vanishes at s = t = 1
    _, hh = build_pair(parse("2,1"))
    rd3 = root_data(hh)
    t3 = PartitionTable(rd3, 10)
    lam3 = dominant_rearrangement(rd3, (2, 1, 0))
    assert multiplicity_formula(rd3, t3, lam3, (3, 0, 0)).eval_ones() == 0


def test_formula_sl2_adjoint_zero_weight():
    _, h = build_pair(parse("2"))
    rd = root_data(h)
    table = PartitionTable(rd, 6)
    lam = dominant_rearrangement(rd, (2, 0))
    assert multiplicity_formula(rd, table, lam, (1, 1)) == BivariatePoly({(1, 0): 1})


class _ZeroGradingClaimedRegular:
    """A grading that wrongly reports itself regular."""

    n = 2
    h1 = (0, 0)
    h2 = (0, 0)

    def is_regular(self):
        return True


def test_root_data_rejects_nonpositive_quadrant_root():
    with pytest.raises(RegularityError):
        root_data(_ZeroGradingClaimedRegular())


def _rebuilt(rd, **changes):
    """A new record with rd's fields, the given ones changed."""
    return RootData(**{k: changes.get(k, getattr(rd, k)) for k in RootData.__slots__})


def test_root_data_equality_ignores_values():
    rd = hook_data()
    blank = _rebuilt(rd, values={})
    assert blank == rd and hash(blank) == hash(rd)
    assert _rebuilt(rd, rho2=(1, 0, 0)) != rd


def test_multiplicity_formula_rejects_non_integral_argument():
    rd = _rebuilt(hook_data(), rho2=(1, 0, 0))
    table = PartitionTable(rd, 4)
    with pytest.raises(ArithmeticError):
        multiplicity_formula(rd, table, (0, 1, 0), (0, 1, 0))
    with pytest.raises(ArithmeticError):
        classical_multiplicity(rd, (0, 1, 0), (0, 1, 0))


def _pairwise_simple_roots(positive, n):
    """Reference: the positive roots that are not the sum of two positive
    roots, by forming every pairwise sum."""
    vecs = {}
    for (i, j) in positive:
        v = [0] * n
        v[i] += 1
        v[j] -= 1
        vecs[(i, j)] = tuple(v)
    sums = set()
    for a in positive:
        for b in positive:
            sums.add(tuple(x + y for x, y in zip(vecs[a], vecs[b])))
    return sorted(r for r in positive if vecs[r] not in sums)


def test_simple_roots_match_the_pairwise_sum_reference():
    checked = 0
    for n in range(1, 7):
        shapes = [ShapeClass.YOUNG] + ([ShapeClass.SKEW] if n > 1 else [])
        for d in (d for shape in shapes for d in enumerate_diagrams(n, shape)):
            _, h = build_pair(d)
            for alt in (False, True):
                rd = root_data(h, alt=alt)
                want = tuple(_pairwise_simple_roots(rd.positive, n))
                assert rd.simple == want, (d.serialize(), alt)
                assert len(rd.simple) == n - 1
                checked += 1
    assert checked == 2 * (29 + 38)


def _solved_cone_coordinates(rd, vec):
    """Reference: the simple-basis coordinates by one affine solve, None
    off the non-negative integer cone."""
    cols = [rd.root_vector(r) for r in rd.simple]
    sol = solve_affine(list(zip(*cols)), vec)
    if sol is None:
        return None
    if any(c.denominator != 1 or c < 0 for c in sol):
        return None
    return tuple(int(c) for c in sol)


def test_partial_sums_match_the_affine_solve():
    checked = 0
    for n in range(2, 6):
        diagrams = enumerate_diagrams(n, ShapeClass.YOUNG) + enumerate_diagrams(
            n, ShapeClass.SKEW
        )
        for d in diagrams:
            _, h = build_pair(d)
            for alt in (False, True):
                rd = root_data(h, alt=alt)
                for vec in product(range(-2, 3), repeat=n):
                    want = _solved_cone_coordinates(rd, vec)
                    assert cone_coordinates(rd, vec) == want, (d.serialize(), alt, vec)
                    checked += 1
    assert checked == 103350


def test_cone_coordinates_reject_wrong_length_and_level():
    rd = hook_data()
    assert cone_coordinates(rd, (0, 0, 0)) == (0, 0)
    assert cone_coordinates(rd, (-1, 0, 1)) is not None
    assert cone_coordinates(rd, (-1, 1)) is None
    assert cone_coordinates(rd, (-1, 0, 0)) is None


@pytest.mark.parametrize(
    "positive",
    [
        [(0, 1), (1, 2), (2, 0)],  # a cycle: every coordinate starts one root
        [(0, 1), (0, 2), (1, 0)],  # start counts 2, 1, 0 but not an order
        [(0, 1)],  # too few roots for n = 3
    ],
)
def test_chain_rejects_a_positive_set_that_is_not_a_total_order(positive):
    with pytest.raises(RegularityError):
        _chain(positive, 3)


def test_chain_orders_the_positive_roots():
    for spec in ("2,1", "2,2", "3,1", "2,2/1"):
        _, h = build_pair(parse(spec))
        for alt in (False, True):
            rd = root_data(h, alt=alt)
            rank = {c: k for k, c in enumerate(rd.chain)}
            assert sorted(rd.chain) == list(range(rd.n))
            assert all(rank[i] < rank[j] for i, j in rd.positive)
            assert rd.simple == tuple(sorted(zip(rd.chain, rd.chain[1:])))


def test_partition_value_rejects_non_integral_entries():
    rd = hook_data()
    table = PartitionTable(rd, 5)
    with pytest.raises(ValueError):
        table.value((Fraction(-1, 2), Fraction(1, 2), 0))
    with pytest.raises(ValueError):
        table.value((Fraction(-3, 2), Fraction(1, 2), 1))
    # integral Fractions are read as the integers they are
    assert table.value((Fraction(-1), 1, 0)) == table.value((-1, 1, 0))


def _root_data_both(specs):
    """Root data of each diagram under both positive systems."""
    out = []
    for spec in specs:
        _, h = build_pair(parse(spec))
        out += [(spec, root_data(h, alt=alt)) for alt in (False, True)]
    return out


def _dominant(rd, lam):
    return dominant_rearrangement(rd, tuple(lam) + (0,) * (rd.n - len(lam)))


def _orbit_required_height(rd, lam, mu):
    """Reference: the largest cone height among w(lam + rho) - mu - rho over
    the Weyl group, skipping the non-integral ones."""
    n = rd.n
    lam2 = [2 * x + r for x, r in zip(lam, rd.rho2)]
    best = 0
    for perm in permutations(range(n)):
        w2 = [lam2[perm[i]] for i in range(n)]
        arg2 = [a - 2 * m - r for a, m, r in zip(w2, mu, rd.rho2)]
        if any(x % 2 for x in arg2):
            continue
        arg = [x // 2 for x in arg2]
        h = height(rd, arg)
        if h is not None:
            best = max(best, h)
    return best


def test_table_height_is_the_largest_orbit_height():
    # the crosscheck sizes its table by the w = 1 terms lam - mu alone
    cases = [("2", lam) for lam in admissible_highest_weights(2, 6)]
    cases += [(s, lam) for s in ("3", "2,1") for lam in admissible_highest_weights(3, 6)]
    cases += [("2,2", lam) for lam in admissible_highest_weights(4, 6)]
    for spec, n in (("2,2", 4), ("3,1", 4), ("2,1,1", 4), ("2,2/1", 3)):
        cases += [(spec, lam) for k in (7, 8) for lam in partitions(k) if len(lam) <= n]
    modules = {}
    checked = 0
    for spec, lam in cases:
        for _, rd in _root_data_both([spec]):
            module = modules.get((rd.n, lam)) or WeightModule(rd.n, lam)
            modules[rd.n, lam] = module
            lam_dom = _dominant(rd, lam)
            want = max(_orbit_required_height(rd, lam_dom, mu) for mu in module.weights)
            assert _table_height(rd, lam_dom, module.weights) == want, (spec, lam, rd.alt)
            checked += 1
    assert checked == 260


def _searched_in_ne_cone(rd, weight):
    """Reference: the bounded search over the quadrant roots, stopping at
    the first decomposition."""
    gens = [rd.root_vector(r) for r in sorted(set(rd.ne))]

    def go(target, idx):
        if all(x == 0 for x in target):
            return True
        if idx == len(gens) or height(rd, target) is None:
            return False
        g = gens[idx]
        for k in range(height(rd, target) // height(rd, g) + 1):
            if go(tuple(t - k * x for t, x in zip(target, g)), idx + 1):
                return True
        return False

    return go(tuple(weight), 0)


def _recursive_partition_count(rd, vec):
    """Reference: the number of multisets of positive roots summing to vec,
    by plain recursion over the roots in turn."""
    roots = [rd.root_vector(r) for r in rd.positive]

    def count(idx, target):
        if all(x == 0 for x in target):
            return 1
        if idx == len(roots) or height(rd, target) is None:
            return 0
        r = roots[idx]
        return sum(
            count(idx + 1, tuple(t - k * x for t, x in zip(target, r)))
            for k in range(height(rd, target) // height(rd, r) + 1)
        )

    return count(0, tuple(vec))


def test_root_partition_search_matches_the_references():
    specs = ("2", "3", "4", "2,1", "2,2", "3,1", "2,1,1", "2,2/1", "1,1,1")
    checked = 0
    for spec, rd in _root_data_both(specs):
        for vec in product(range(-3, 4), repeat=rd.n):
            if sum(vec):
                continue
            assert in_ne_cone(rd, vec) == _searched_in_ne_cone(rd, vec), (spec, vec)
            want = _recursive_partition_count(rd, vec)
            assert classical_partition_count(rd, vec) == want, (spec, rd.alt, vec)
            checked += 1
    assert checked == 2158


def test_classical_multiplicity_counts_every_weight_space():
    specs = ("2", "3", "2,1", "2,2", "1,1,1", "3,1", "2,1,1")
    checked = 0
    for spec, rd in _root_data_both(specs):
        for lam in admissible_highest_weights(rd.n, 6):
            module = WeightModule(rd.n, lam)
            lam_dom = _dominant(rd, lam)
            for mu in module.weights:
                want = len(module.weight_space_indices(mu))
                assert classical_multiplicity(rd, lam_dom, mu) == want, (spec, lam, mu)
                checked += 1
    assert checked == 1360
