"""Finite fields and elliptic curve groups from scratch.

Builds a prime field and an extension field, does some arithmetic, then
walks the rational points of a curve and identifies its group structure.
"""

from stopset import FieldSpec, curve, group_structure, rational_points, scalar_mul

# prime field arithmetic; elements are ints, their canonical values
f5 = FieldSpec(5)
print(f"F_5: 3 + 4 = {f5.add_val(3, 4)}, 3 * 4 = {f5.mul_val(3, 4)}, 3^-1 = {f5.inv_val(3)}")
print(f"square roots of 4 in F_5: {[str(r) for r in f5.sqrt_vals(4)]}")

# extension field: F_25 = F_5[t] / (t^2 + t + 1), elements built from coefficient lists
f25 = FieldSpec(5, 2)
t = f25.element([0, 1])
text = f25.format_element
print(f"\nF_25 modulus (low degree first): {f25.modulus}")
print(f"t * t = {text(f25.mul_val(t, t))}, t^24 = {text(f25.pow_val(t, 24))}")

# the curve y^2 = x^3 + x + 1 over F_5
E = curve(f5, 1, 1)
pts = rational_points(E)
print(f"\ncurve y^2 = x^3 + x + 1 over F_5 has {len(pts)} rational points:")
print("  " + ", ".join("O" if P.is_infinity else f"({P.x},{P.y})" for P in pts))

gs = group_structure(E)
print(f"group structure: Z/{gs.m1} x Z/{gs.m2}")
g = gs.generators[1]
print(f"generator ({g.x},{g.y}) sweeps the whole group:")
for i in range(1, gs.order + 1):
    Q = scalar_mul(E, i, g)
    label = "O" if Q.is_infinity else f"({Q.x},{Q.y})"
    print(f"  [{i}]P = {label}")
