"""Counting k-subsets of a finite abelian group with a prescribed sum.

Three independent routes give the same numbers: a Moebius-inversion
formula, a dynamic program over the elements, and (for special shapes)
closed forms in binomial coefficients.
"""

from stopset import AbelianGroup, count_S_m, count_formula, dp_count
from stopset.groupcount import closed_form_p_power, closed_form_two_primes

G = AbelianGroup((2, 4))
print(f"group {G}, order {G.order}, exponent {G.exponent}")
nz = G.nonzero_elements()
for k in range(1, 5):
    row = []
    for b in G.elements():
        c = count_formula(G, k, b)
        assert c == dp_count(G, nz, k, b)
        row.append(c)
    print(f"  k={k}: counts per target {row}  (total {sum(row)})")

print("\nzero-sum subsets of Z/9 minus 0 (closed form vs formula):")
Z9 = AbelianGroup((9,))
for m in range(1, 9):
    a = closed_form_p_power(3, 2, m)
    b = count_S_m(Z9, m)
    assert a == b
    print(f"  m={m}: {a}")

print("\nZ/12 as Z/4 x Z/3, the two-prime closed form:")
Z12 = AbelianGroup.from_cyclic_factors([4, 3])
print(f"  normalized invariant factors: {Z12.invariant_factors}")
for m in (2, 3, 4, 6):
    print(f"  m={m}: {closed_form_two_primes(2, 2, 3, 1, m)} = {count_S_m(Z12, m)}")
