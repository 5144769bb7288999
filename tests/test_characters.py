from math import factorial

from nilpair.characters import (
    character_value,
    class_size,
    common_constituent_report,
    conjugate,
    induced_from_young_sign,
    induced_from_young_trivial,
    inner_product,
    irreducible_character,
    kostka,
)
from nilpair.diagrams import ShapeClass, enumerate_diagrams, parse, partitions


def test_known_table_s3():
    assert character_value((3,), (3,)) == 1
    assert character_value((1, 1, 1), (3,)) == 1
    assert character_value((1, 1, 1), (2, 1)) == -1
    assert character_value((2, 1), (1, 1, 1)) == 2


def test_dimension_sum_of_squares():
    for n in (3, 4, 5, 6):
        dims = [character_value(lam, tuple([1] * n)) for lam in partitions(n)]
        assert sum(d * d for d in dims) == factorial(n)


def test_class_sizes_sum():
    # the class equation: the conjugacy classes partition S_n
    for n in range(1, 9):
        assert sum(class_size(mu) for mu in partitions(n)) == factorial(n)


def character_table_checks(n):
    """Orthonormality of the table and the standard sanity identities."""
    parts = partitions(n)
    ok = True
    for lam in parts:
        chi = irreducible_character(n, lam)
        ok = ok and inner_product(n, chi, chi) == 1
    for a in parts:
        for b in parts:
            if a < b:
                ip = inner_product(
                    n, irreducible_character(n, a), irreducible_character(n, b)
                )
                ok = ok and ip == 0
    dims = [character_value(lam, tuple([1] * n)) for lam in parts]
    ok = ok and sum(x * x for x in dims) == factorial(n)
    ok = ok and all(kostka(lam, lam) == 1 for lam in parts)
    return ok


def test_orthonormality_bound_eight():
    for n in range(1, 9):
        assert character_table_checks(n)


def test_kostka_triangularity():
    for n in (3, 4, 5):
        for lam in partitions(n):
            assert kostka(lam, lam) == 1
            for mu in partitions(n):
                if kostka(lam, mu):
                    # positivity happens only below in dominance order
                    partial = [sum(lam[: k + 1]) for k in range(len(lam))]
                    partial_mu = [sum(mu[: k + 1]) for k in range(len(mu))]
                    for k in range(min(len(partial), len(partial_mu))):
                        assert partial[k] >= partial_mu[k]


def test_kostka_counts_weight_multiplicities():
    # matches the tensor-power realization
    from nilpair.modules import WeightModule

    m = WeightModule(3, (2, 1))
    for mu in partitions(3):
        padded = tuple(list(mu) + [0] * (3 - len(mu)))
        assert kostka((2, 1), mu) == len(m.weight_space_indices(padded))


def test_induced_character_degrees():
    n = 4
    mu = (2, 2)
    ind = induced_from_young_trivial(n, mu)
    assert ind[tuple([1] * n)] == factorial(n) // (2 * 2)
    ind_sign = induced_from_young_sign(n, mu)
    assert ind_sign[tuple([1] * n)] == factorial(n) // (2 * 2)


def test_common_constituent_examples():
    rep = common_constituent_report(parse("2,1"))
    assert rep["unique_multiplicity_one"]
    assert rep["common"][0]["label"] == [2, 1]
    rep = common_constituent_report(parse("3"))
    assert rep["unique_multiplicity_one"]
    assert rep["common"][0]["label"] == [3]
    rep = common_constituent_report(parse("1,1,1"))
    assert rep["unique_multiplicity_one"]
    assert rep["common"][0]["label"] == [1, 1, 1]


def test_common_constituent_all_young_up_to_eight():
    for n in range(1, 9):
        for d in enumerate_diagrams(n, ShapeClass.YOUNG):
            assert common_constituent_report(d)["unique_multiplicity_one"]


def test_conjugate():
    assert conjugate((3, 1)) == (2, 1, 1)
    assert conjugate(conjugate((4, 2, 1))) == (4, 2, 1)
