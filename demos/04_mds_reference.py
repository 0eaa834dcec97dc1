"""MDS codes as the reference family.

For an MDS [n, k] code under its maximal parity-check matrix, the
stopping-set distribution is forced: nothing strictly between the empty
set and size n - k + 1, everything from there up.  A Reed-Solomon code
confirms this against the definitional oracle.
"""

from stopset import FieldSpec, mds_distribution, min_distance_bruteforce, null_space
from stopset.reference import rs_code, stopping_distribution_from_rows

field = FieldSpec(7)
n, k = 6, 3
G = rs_code(field, n, k)
print(f"[{n}, {k}] code over F_{field.q}, generator rows:")
for row in G.values():
    print(f"  {row}")

print(f"\nminimum distance (brute force): {min_distance_bruteforce(G)} = n - k + 1")

# the maximal parity-check matrix is every nonzero dual word
words = []
q = field.q
basis = null_space(G).values()
for c0 in range(q):
    for c1 in range(q):
        for c2 in range(q):
            word = tuple(
                field.add_val(
                    field.mul_val(c0, basis[0][j]),
                    field.add_val(
                        field.mul_val(c1, basis[1][j]), field.mul_val(c2, basis[2][j])
                    ),
                )
                for j in range(n)
            )
            words.append(word)

dist = stopping_distribution_from_rows(words, n)
print(f"\noracle distribution over all {len(words)} dual words: {list(dist)}")
print(f"closed-form MDS distribution:                    {list(mds_distribution(n, k))}")
assert list(dist) == list(mds_distribution(n, k))
print("exact match")
