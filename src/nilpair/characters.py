"""Symmetric group character tables via border-strip recursion, Kostka
numbers, induced characters from Young subgroups, and the common-constituent
report for a diagram's row and column groups."""

from __future__ import annotations

from functools import lru_cache
from math import factorial

from .diagrams import ShapeClass, classify_shape, column_lengths, partitions, row_lengths


@lru_cache(maxsize=None)
def class_size(mu):
    """Size of the conjugacy class with cycle type mu (a tuple), cached:
    every inner product over S_n reads all of them."""
    n = sum(mu)
    z = 1
    counts = {}
    for part in mu:
        counts[part] = counts.get(part, 0) + 1
    for part, cnt in counts.items():
        z *= part**cnt * factorial(cnt)
    return factorial(n) // z


@lru_cache(maxsize=None)
def character_value(lam, mu):
    """Irreducible character by peeling border strips for the largest cycle."""
    if not mu:
        return 1
    k = mu[0]
    rest = mu[1:]
    total = 0
    for nu, height in _border_strip_removals(lam, k):
        total += (-1) ** height * character_value(nu, rest)
    return total


def _border_strip_removals(lam, k):
    """All partitions obtained by removing a border strip of size k, with the
    strip height.  Strips correspond to subtracting k from a beta number."""
    beta = [lam[i] + (len(lam) - 1 - i) for i in range(len(lam))]
    n_rows = len(lam)
    out = []
    for i, b in enumerate(beta):
        nb = b - k
        if nb < 0 or nb in beta:
            continue
        new_beta = sorted([x for j, x in enumerate(beta) if j != i] + [nb], reverse=True)
        height = sum(1 for x in beta if nb < x < b)
        shape = [x - (n_rows - 1 - idx) for idx, x in enumerate(new_beta)]
        shape = [s for s in shape if s > 0]
        out.append((tuple(shape), height))
    return out


def inner_product(n, chi1, chi2):
    total = sum(
        class_size(mu) * chi1[mu] * chi2[mu] for mu in partitions(n)
    )
    fact = factorial(n)
    if total % fact:
        raise ArithmeticError("inner product is not an integer")
    return total // fact


def irreducible_character(n, lam):
    return {mu: character_value(lam, mu) for mu in partitions(n)}


def sign_character(n):
    return {mu: (-1) ** (sum(mu) - len(mu)) for mu in partitions(n)}


@lru_cache(maxsize=None)
def kostka(lam, mu):
    """Number of semistandard tableaux of the given shape and content, by
    peeling the last content row as a horizontal strip."""
    lam = tuple(lam)
    mu = tuple(x for x in mu if x)
    if sum(lam) != sum(mu):
        return 0
    if not mu:
        return 1 if not lam else 0
    last = mu[-1]
    rest = mu[:-1]
    total = 0
    for nu in _horizontal_strip_removals(lam, last):
        total += kostka(nu, rest)
    return total


def _horizontal_strip_removals(lam, k):
    """Partitions nu contained in lam with lam/nu a horizontal strip of size
    k: at most one cell removed per column, i.e. lam_{i+1} <= nu_i <= lam_i."""
    lam = list(lam)
    rows = len(lam)
    out = []

    def rec(i, remaining, acc):
        if i == rows:
            if remaining == 0:
                out.append(tuple(x for x in acc if x))
            return
        lo = lam[i + 1] if i + 1 < rows else 0
        hi = lam[i]
        for nu_i in range(lo, hi + 1):
            take = hi - nu_i
            if take > remaining:
                continue
            if acc and nu_i > acc[-1]:
                continue
            rec(i + 1, remaining - take, acc + [nu_i])

    rec(0, k, [])
    return out


def induced_from_young_trivial(n, mu):
    """Character of the permutation module on cosets of the Young subgroup of
    type mu (induced trivial character), via Kostka multiplicities."""
    out = {nu: 0 for nu in partitions(n)}
    for lam in partitions(n):
        mult = kostka(lam, tuple(sorted(mu, reverse=True)))
        if mult:
            chi = irreducible_character(n, lam)
            for nu in out:
                out[nu] += mult * chi[nu]
    return out


def induced_from_young_sign(n, mu):
    """Induced sign character from the Young subgroup of type mu."""
    out = {nu: 0 for nu in partitions(n)}
    for lam in partitions(n):
        mult = kostka(conjugate(lam), tuple(sorted(mu, reverse=True)))
        if mult:
            chi = irreducible_character(n, lam)
            for nu in out:
                out[nu] += mult * chi[nu]
    return out


def conjugate(lam):
    if not lam:
        return ()
    out = []
    for i in range(lam[0]):
        out.append(sum(1 for part in lam if part > i))
    return tuple(out)


def common_constituent_report(d):
    """Unique common irreducible of the induced trivial character from the
    row group and the induced sign character from the column group, with
    multiplicities; fully independent Kostka-based count attached."""
    if classify_shape(d) != ShapeClass.YOUNG:
        raise ValueError("report needs a Young diagram")
    n = d.n
    rows = tuple(sorted(row_lengths(d), reverse=True))
    cols = tuple(sorted(column_lengths(d), reverse=True))
    ind_triv = induced_from_young_trivial(n, rows)
    ind_sign = induced_from_young_sign(n, cols)
    common = []
    for lam in partitions(n):
        chi = irreducible_character(n, lam)
        m1 = inner_product(n, ind_triv, chi)
        m2 = inner_product(n, ind_sign, chi)
        if m1 and m2:
            common.append((lam, m1, m2))
    # independent oracle: positivity of Kostka numbers pins the constituent
    kostka_common = [
        lam
        for lam in partitions(n)
        if kostka(lam, rows) > 0 and kostka(conjugate(lam), cols) > 0
    ]
    unique = len(common) == 1 and common[0][1] == 1 and common[0][2] == 1
    return {
        "diagram": d.serialize(),
        "row_type": list(rows),
        "column_type": list(cols),
        "common": [
            {"label": list(lam), "mult_trivial": m1, "mult_sign": m2}
            for lam, m1, m2 in common
        ],
        "kostka_common": [list(lam) for lam in kostka_common],
        "unique_multiplicity_one": unique
        and kostka_common == [common[0][0]],
    }

