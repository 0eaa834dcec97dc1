from __future__ import annotations

import itertools
import math
import random

import pytest

from stopset import (
    AbelianGroup,
    count_S_m,
    count_formula,
    e_of_b,
    moebius,
    torsion_count,
)
from stopset.groupcount import (
    closed_form_p_power,
    closed_form_two_power_terms,
    closed_form_two_primes,
    divisors,
    factorize,
    subset_sum_table,
)
from stopset.reference import all_groups_of_order, dp_count


def plus(group, a, b):
    return tuple((x + y) % d for x, y, d in zip(a, b, group.invariant_factors))


def times(group, n, a):
    return tuple(n * x % d for x, d in zip(a, group.invariant_factors))


def direct_count(group, k, b):
    """Oracle: literally enumerate k-subsets of the nonzero elements."""
    nz = group.nonzero_elements()
    total = 0
    for combo in itertools.combinations(nz, k):
        s = group.identity()
        for g in combo:
            s = plus(group, s, g)
        if s == b:
            total += 1
    return total


def test_moebius_table():
    expected = {1: 1, 2: -1, 3: -1, 4: 0, 5: -1, 6: 1, 7: -1, 8: 0, 9: 0,
                10: 1, 12: 0, 30: -1, 36: 0}
    for n, mu in expected.items():
        assert moebius(n) == mu


def test_factorize_and_divisors():
    assert factorize(360) == {2: 3, 3: 2, 5: 1}
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(1) == [1]


def test_group_construction():
    G = AbelianGroup((2, 4))
    assert G.order == 8
    assert G.exponent == 4
    assert len(G.elements()) == 8
    assert len(G.nonzero_elements()) == 7
    with pytest.raises(ValueError):
        AbelianGroup((2, 3))  # 2 does not divide 3
    with pytest.raises(ValueError):
        AbelianGroup((0,))


def test_from_cyclic_factors_normalizes():
    assert AbelianGroup.from_cyclic_factors([4, 3]).invariant_factors == (12,)
    assert AbelianGroup.from_cyclic_factors([2, 4]).invariant_factors == (2, 4)
    assert AbelianGroup.from_cyclic_factors([2, 3, 4, 9]).invariant_factors == (6, 36)
    assert AbelianGroup.from_cyclic_factors([1, 5]).invariant_factors == (5,)


def elementary_divisor_chain(factors):
    """Reference: collect the prime-power parts of every factor and repack
    the k-th largest power of each prime into the k-th largest invariant
    factor."""
    by_prime = {}
    for d in factors:
        for p, e in factorize(d).items():
            by_prime.setdefault(p, []).append(p ** e)
    rank = max(map(len, by_prime.values()), default=0)
    chain = [1] * rank
    for powers in by_prime.values():
        for slot, power in enumerate(sorted(powers, reverse=True)):
            chain[rank - 1 - slot] *= power
    return tuple(d for d in chain if d != 1)


def test_from_cyclic_factors_against_elementary_divisors():
    rng = random.Random(20)
    pool = [1, 1, 2, 3, 4, 5, 8, 9, 25, 27, 49, 6, 10, 12, 18, 30, 36, 60, 72, 90, 210, 1001, 2 ** 10 * 3 ** 4]
    for _ in range(3000):
        factors = [rng.choice(pool) for _ in range(rng.randint(0, 5))]
        got = AbelianGroup.from_cyclic_factors(factors).invariant_factors
        assert got == elementary_divisor_chain(factors), factors
        assert math.prod(got) == math.prod(factors)
    for bad in ([0], [3, 0], [-2, 4]):
        with pytest.raises(ValueError, match="^cyclic factors must be positive$"):
            AbelianGroup.from_cyclic_factors(bad)


def test_element_reduces_coordinates():
    G = AbelianGroup((2, 4))
    assert G.element((3, -1)) == (1, 3)
    assert G.identity() == (0, 0)
    assert G.elements()[:3] == [(0, 0), (0, 1), (0, 2)]
    assert G.nonzero_elements() == G.elements()[1:]
    with pytest.raises(ValueError):
        G.element((1,))


def test_torsion_census_matches_definition():
    for factors in [(9,), (2, 4), (12,), (2, 2, 2), (3, 9)]:
        G = AbelianGroup(factors)
        for d in divisors(G.exponent):
            actual = sum(1 for g in G.elements() if times(G, d, g) == G.identity())
            assert torsion_count(G, d) == actual


def test_e_of_b_matches_definition():
    for factors in [(9,), (2, 4), (2, 6)]:
        G = AbelianGroup(factors)
        for b in G.elements():
            # largest divisor d of the exponent with b in dG
            image_dividers = [
                d for d in divisors(G.exponent)
                if any(times(G, d, g) == b for g in G.elements())
            ]
            assert e_of_b(G, b) == max(image_dividers)


def test_formula_factors_the_exponent_once(monkeypatch):
    from stopset import groupcount

    calls = []
    monkeypatch.setattr(groupcount, "factorize", lambda n: calls.append(n) or factorize(n))
    G = AbelianGroup((2, 6))
    assert count_formula(G, 3, (0, 2)) == dp_count(G, G.nonzero_elements(), 3, (0, 2))
    assert calls == [6]


def test_formula_reference_value():
    # Z/9, subsets of size 3 of the 8 nonzero elements summing to zero
    G = AbelianGroup((9,))
    assert count_formula(G, 3, G.identity()) == 6
    assert count_S_m(G, 3) == 6


def test_formula_sums_to_binomial():
    for factors in [(9,), (2, 4), (12,), (2, 2, 2), (16,)]:
        G = AbelianGroup(factors)
        N = G.order
        for k in range(N):
            total = sum(count_formula(G, k, b) for b in G.elements())
            assert total == math.comb(N - 1, k)


def test_formula_against_direct_enumeration():
    for factors in [(5,), (8,), (9,), (2, 4), (12,), (2, 2, 2), (2, 6)]:
        G = AbelianGroup(factors)
        N = G.order
        for k in range(N):
            for b in G.elements():
                assert count_formula(G, k, b) == direct_count(G, k, b)


def test_dp_matches_formula():
    for factors in [(9,), (2, 4), (15,), (3, 9), (2, 2, 4)]:
        G = AbelianGroup(factors)
        nz = G.nonzero_elements()
        table = subset_sum_table(G, nz)
        for k, b_k in zip(range(G.order), G.elements()):
            for b in G.elements():
                assert table[k].get(b, 0) == count_formula(G, k, b)
            assert dp_count(G, nz, k, b_k) == table[k].get(b_k, 0)


def test_subset_sum_table_layers():
    G = AbelianGroup((9,))
    table = subset_sum_table(G, G.nonzero_elements())
    assert table[0][G.identity()] == 1
    assert sum(table[3].values()) == math.comb(8, 3)
    with pytest.raises(ValueError):
        subset_sum_table(G, [(1,), (1,)])  # duplicates
    with pytest.raises(ValueError):
        subset_sum_table(G, [(9,)])  # not reduced mod 9
    with pytest.raises(ValueError):
        subset_sum_table(G, [(1, 0)])  # not an element of Z/9


def test_stopped_table_matches_full_table():
    # filling only layers 0..k must not change layer k, for any group shape
    groups = 0
    for N in range(2, 17):
        for G in all_groups_of_order(N):
            nz = G.nonzero_elements()
            full = subset_sum_table(G, nz)
            for k in range(len(nz) + 1):
                stopped = subset_sum_table(G, nz, k)
                assert len(stopped) == k + 1
                assert dict(stopped[k]) == dict(full[k]), (G.invariant_factors, k)
            groups += 1
    assert groups == 24  # abelian groups of order 2..16
    G = AbelianGroup((9,))
    for top in (-1, 9):
        with pytest.raises(ValueError):
            subset_sum_table(G, G.nonzero_elements(), top)


@pytest.mark.parametrize("p,t", [(2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (5, 2), (7, 2)])
def test_closed_form_prime_power(p, t):
    G = AbelianGroup((p ** t,))
    for m in range(1, G.order):
        assert closed_form_p_power(p, t, m) == count_S_m(G, m)


@pytest.mark.parametrize("t1,t2", [(1, 1), (1, 2), (1, 3), (2, 2), (2, 3)])
def test_closed_form_two_power_terms(t1, t2):
    for p in (2, 3):
        G = AbelianGroup((p ** t1, p ** t2))
        for m in range(1, G.order):
            assert closed_form_two_power_terms(p, t1, t2, m) == count_S_m(G, m)


@pytest.mark.parametrize(
    "p1,t1,p2,t2",
    [(2, 1, 3, 1), (2, 2, 3, 1), (2, 1, 3, 2), (3, 1, 5, 1), (2, 3, 3, 1)],
)
def test_closed_form_two_primes(p1, t1, p2, t2):
    G = AbelianGroup.from_cyclic_factors([p1 ** t1, p2 ** t2])
    for m in range(1, G.order):
        assert closed_form_two_primes(p1, t1, p2, t2, m) == count_S_m(G, m)


def test_count_range_checks():
    G = AbelianGroup((9,))
    assert count_formula(G, 0, G.identity()) == 1
    assert count_formula(G, 0, (1,)) == 0
    assert count_formula(G, 8, G.identity()) == 1  # 1+2+...+8 = 36 = 0 mod 9
    with pytest.raises(ValueError):
        count_formula(G, 9, G.identity())  # only 8 nonzero elements
    with pytest.raises(ValueError):
        count_formula(G, -1, G.identity())
    with pytest.raises(ValueError):
        count_formula(G, 3, (0, 0))  # a target of another rank
    with pytest.raises(ValueError):
        count_S_m(G, 0)
    with pytest.raises(ValueError):
        closed_form_p_power(6, 1, 1)
    with pytest.raises(ValueError):
        closed_form_two_primes(3, 1, 3, 1, 2)


def test_all_groups_of_order():
    def invs(n):
        return sorted(g.invariant_factors for g in all_groups_of_order(n))

    assert invs(1) == [()]
    assert invs(8) == [(2, 2, 2), (2, 4), (8,)]
    assert invs(12) == [(2, 6), (12,)]
    assert invs(16) == [(2, 2, 2, 2), (2, 2, 4), (2, 8), (4, 4), (16,)]
    assert invs(36) == [(2, 18), (3, 12), (6, 6), (36,)]
    # partition counts multiply across primes: 30 is squarefree
    assert len(all_groups_of_order(30)) == 1


def test_groups_of_order_are_distinct():
    for n in range(1, 33):
        groups = all_groups_of_order(n)
        assert len({g.invariant_factors for g in groups}) == len(groups)
        for g in groups:
            assert g.order == n


def test_formula_on_a_group_with_many_divisors():
    # 963761198400 has 6720 divisors; the value was recorded from the
    # formula's earlier form, which summed mu(s/d) over every d | gcd(e(b), s)
    G = AbelianGroup((963761198400,))
    assert count_formula(G, 3, G.identity()) == 154805941255936932561602
