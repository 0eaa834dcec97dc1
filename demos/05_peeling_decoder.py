"""Erasure decoding by peeling, and why stopping sets are what they are.

The decoder repeatedly looks for a check row meeting the erased positions
exactly once and solves that position.  Run over the full dual codebook it
stalls precisely on the maximal stopping subset of the erasure set, so the
stopping-set census from the group law predicts decoding success exactly.
"""

from stopset import (
    EllipticCodeSpec,
    FieldSpec,
    Point,
    curve,
    generator_matrix,
    make_instance,
    null_space,
    peel,
    scalar_mul,
)
from stopset.reference import dual_rows

f5 = FieldSpec(5)
E = curve(f5, 1, 1)
base = Point(0, 1)
D = tuple(scalar_mul(E, i, base) for i in range(1, 9))
spec = EllipticCodeSpec(E, D, 3)

codeword = null_space(generator_matrix(spec)).entries[0]
rows = [r for r in dual_rows(spec) if any(r)]
print(f"codeword: {[str(c) for c in codeword]}")
print(f"parity-check rows streamed: {len(rows)}")


def attempt(erased):
    inst = make_instance(spec, codeword, erased)
    recovered, residual = peel(rows, inst)
    shown = ["?" if v is None else str(v) for v in recovered]
    verdict = "recovered" if not residual else f"stalled on {sorted(residual)}"
    print(f"  erase {sorted(erased)} -> {shown}  {verdict}")


print("\nno stopping subset, full recovery:")
attempt({1, 2, 3})

print("\n{1, 2, 6} sums to infinity, so it is a stopping set and stalls:")
attempt({1, 2, 6})

print("\na mixed case: {2, 3, 4} stops, position 5 still peels off:")
attempt({2, 3, 4, 5})
