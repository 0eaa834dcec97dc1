"""The stopping-set census of one code, end to end.

Evaluation points are the successive multiples of a base point, the code
is the null space of the 3 x 8 evaluation matrix, and the maximal
parity-check matrix is every nonzero word of its row space.  Membership of
a subset is decided purely by the group law: a size-m subset stops iff its
points sum to infinity, a size-(m+1) subset stops iff no interior point
cancels the rest.
"""

from stopset import (
    EllipticCodeSpec,
    FieldSpec,
    Point,
    classify,
    curve,
    distribution,
    enumerate_S_m,
    enumerate_S_m1,
    scalar_mul,
    stopping_distance,
)

f5 = FieldSpec(5)
E = curve(f5, 1, 1)
base = Point(0, 1)
D = tuple(scalar_mul(E, i, base) for i in range(1, 9))
spec = EllipticCodeSpec(E, D, 3)

print(f"code: n = {spec.n}, m = {spec.m}, points P_i = [i](0,1)")

for A in [(1, 2), (1, 2, 6), (1, 2, 3), (1, 2, 3, 4), (1, 2, 3, 7), (1, 2, 3, 4, 5)]:
    st = classify(spec, A)
    extra = f" (drop position {st.witness})" if st.witness else ""
    print(f"  {set(A)}: {st.verdict.value}{extra}")

s3 = enumerate_S_m(spec)
print(f"\nsize-3 stopping sets ({len(s3)}):")
for A in s3:
    print(f"  {set(A)}  sums to O")

s4 = enumerate_S_m1(spec)
print(f"size-4 stopping sets: {len(s4)} of {70} four-subsets")

dist = distribution(spec)
print(f"\nfull distribution T_0..T_8: {list(dist)}")
print(f"stopping distance: {stopping_distance(spec)} (= the minimum distance)")
