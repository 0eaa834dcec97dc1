from __future__ import annotations

import importlib
import math
import random

import pytest

from stopset import (
    INFINITY,
    EllipticCurve,
    FieldMismatchError,
    FieldSpec,
    IntegrityError,
    Point,
    add,
    curve,
    group_structure,
    neg,
    point_order,
    rational_points,
    scalar_mul,
    sum_points,
)
from stopset.curve import parse_point, point_str

from conftest import nonsingular_curves


def brute_points(E):
    """Oracle: try every (x, y) pair against the curve equation."""
    f = E.field
    pts = [INFINITY]
    for x in range(f.q):
        rhs = f.add_val(f.add_val(f.pow_val(x, 3), f.mul_val(E.a, x)), E.b)
        for y in range(f.q):
            if f.mul_val(y, y) == rhs:
                pts.append(Point(x, y))
    return pts


def test_reference_curve_points(ref_curve, f5):
    pts = rational_points(ref_curve)
    assert len(pts) == 9
    assert pts[0] is INFINITY
    coords = [(P.x, P.y) for P in pts[1:]]
    assert coords == [(0, 1), (0, 4), (2, 1), (2, 4), (3, 1), (3, 4), (4, 2), (4, 3)]
    # canonical order: affine points ascend by (x, y) value
    assert coords == sorted(coords)


def test_reference_base_point_multiples(ref_curve, f5):
    P1 = Point(0, 1)
    expected = [(0, 1), (4, 2), (2, 1), (3, 4), (3, 1), (2, 4), (4, 3), (0, 4)]
    for i, (x, y) in enumerate(expected, start=1):
        Q = scalar_mul(ref_curve, i, P1)
        assert (Q.x, Q.y) == (x, y)
    assert scalar_mul(ref_curve, 9, P1) is INFINITY
    assert point_order(ref_curve, P1) == 9
    assert point_order(ref_curve, scalar_mul(ref_curve, 3, P1)) == 3
    assert point_order(ref_curve, INFINITY) == 1


def test_membership(ref_curve, f5):
    assert ref_curve.is_on_curve(INFINITY)
    assert ref_curve.is_on_curve(Point(0, 1))
    assert not ref_curve.is_on_curve(Point(1, 1))


def test_point_enumeration_matches_bruteforce(f5, f7):
    for E in (curve(f5, 2, 0), curve(f5, 0, 2), curve(f7, 3, 4)):
        assert list(rational_points(E)) == brute_points(E)


@pytest.mark.parametrize("p,a,b", [(5, 1, 1), (5, 1, 0), (7, 2, 3)])
def test_group_axioms_exhaustive(p, a, b):
    E = curve(FieldSpec(p), a, b)
    pts = rational_points(E)
    for P in pts:
        assert add(E, P, INFINITY) == P
        assert add(E, P, neg(E, P)) is INFINITY
        for Q in pts:
            assert add(E, P, Q) == add(E, Q, P)
            assert add(E, P, Q) in pts
    if len(pts) <= 16:  # full associativity sweep only when the cube is small
        for P in pts:
            for Q in pts:
                for R in pts:
                    assert add(E, add(E, P, Q), R) == add(E, P, add(E, Q, R))


def test_associativity_sampled_on_reference(ref_curve):
    pts = rational_points(ref_curve)
    for P in pts:
        for Q in pts:
            for R in pts:
                assert add(ref_curve, add(ref_curve, P, Q), R) == add(
                    ref_curve, P, add(ref_curve, Q, R)
                )


def test_hasse_bound_all_small_curves(f5, f7):
    for field in (f5, f7):
        for E in nonsingular_curves(field):
            N = len(rational_points(E))
            assert (N - field.q - 1) ** 2 <= 4 * field.q


def test_group_structure_cyclic(ref_curve):
    gs = group_structure(ref_curve)
    assert (gs.m1, gs.m2) == (1, 9)
    assert gs.generators[0] is INFINITY
    assert point_order(ref_curve, gs.generators[1]) == 9
    assert len(gs.coordinate_map) == 9


def test_group_structure_full_two_torsion(f5):
    # y^2 = x^3 + x over F_5 has exactly the three order-2 points plus O
    E = curve(f5, 1, 0)
    pts = rational_points(E)
    assert len(pts) == 4
    gs = group_structure(E)
    assert (gs.m1, gs.m2) == (2, 2)


def _faked_structure(monkeypatch, E, fake_mul):
    """group_structure(E) with _mul_unchecked replaced by fake_mul(real, E,
    n, P), on a fresh cache."""
    module = importlib.import_module("stopset.curve")
    real = module._mul_unchecked
    monkeypatch.setattr(module, "_mul_unchecked", lambda E, n, P: fake_mul(real, E, n, P))
    group_structure.cache_clear()
    try:
        return group_structure(E)
    finally:
        group_structure.cache_clear()


def test_group_structure_checks_the_weil_pairing(monkeypatch):
    # y^2 = x^3 + x over F_31 is cyclic of order N = 32, and 2 | q - 1 with
    # 4 | N makes the 2-Sylow scan run; multiplying every scalar by 4 caps
    # the orders it sees at 8, so m1 = 4 and m2 = 8: m1 | m2 holds, but 4
    # does not divide q - 1 = 30
    E = curve(FieldSpec(31), 1, 0)
    assert len(rational_points(E)) == 32
    with pytest.raises(IntegrityError, match="does not divide q - 1 = 30"):
        _faked_structure(monkeypatch, E, lambda real, E, n, P: real(E, 4 * n, P))


def test_group_structure_checks_m1_divides_m2(monkeypatch):
    # y^2 = x^3 + 5 over F_13 is Z/4 x Z/4; with [2]Q = O faked for every Q
    # the 2-Sylow scan sees no order past 2, so m1 = 8 and m2 = 2
    E = curve(FieldSpec(13), 0, 5)
    assert len(rational_points(E)) == 16
    with pytest.raises(IntegrityError, match=r"\(8, 2\) fail m1 \| m2"):
        _faked_structure(monkeypatch, E, lambda real, E, n, P: INFINITY if n % 2 == 0 else real(E, n, P))


def test_sylow_scan_skips_negatives(monkeypatch):
    # y^2 = x^3 + 7x over F_13 is Z/3 x Z/6; its 3-Sylow subgroup is not
    # cyclic, so the scan never reaches b = v and meets every pair +-P
    E = curve(FieldSpec(13), 7, 0)
    pts = rational_points(E)
    multiplied = []
    gs = _faked_structure(monkeypatch, E, lambda real, E, n, P: multiplied.append(P) or real(E, n, P))
    assert (gs.m1, gs.m2) == (3, 6)
    # the scan starts at O, and so does the search for g2 after it
    scanned = multiplied[:multiplied.index(INFINITY, 1)]
    firsts = [P for P in pts if P.is_infinity or P.y <= E.field.neg_val(P.y)]
    assert len(firsts) == 10
    assert sorted(set(scanned), key=pts.index) == firsts


def test_coordinate_map_is_isomorphism(f5, f7):
    for E in (curve(f5, 1, 1), curve(f5, 1, 0), curve(f7, 0, 1), curve(f7, 5, 0)):
        gs = group_structure(E)
        pts = rational_points(E)
        for P in pts:
            for Q in pts:
                c1 = gs.coordinate_map[P]
                c2 = gs.coordinate_map[Q]
                expect = ((c1[0] + c2[0]) % gs.m1, (c1[1] + c2[1]) % gs.m2)
                assert gs.coordinate_map[add(E, P, Q)] == expect


def test_structure_confirmed_by_order_census(f5, f7):
    for field in (f5, f7):
        for E in nonsingular_curves(field):
            gs = group_structure(E)
            pts = rational_points(E)
            assert gs.m1 * gs.m2 == len(pts)
            assert gs.m2 % gs.m1 == 0
            # d-torsion census: #{P : [d]P = O} = gcd(d, m1) * gcd(d, m2)
            for d in range(1, gs.m2 + 1):
                if gs.m2 % d:
                    continue
                killed = sum(1 for P in pts if scalar_mul(E, d, P) is INFINITY)
                assert killed == math.gcd(d, gs.m1) * math.gcd(d, gs.m2)


def test_sum_points_reference(ref_curve, f5):
    P1 = Point(0, 1)
    mult = [scalar_mul(ref_curve, i, P1) for i in range(9)]
    assert sum_points(ref_curve, [mult[1], mult[2], mult[6]]) is INFINITY
    assert sum_points(ref_curve, [mult[1], mult[2], mult[3]]) == mult[6]
    assert sum_points(ref_curve, []) is INFINITY


def test_invalid_curves_rejected(f5):
    with pytest.raises(ValueError):
        curve(f5, 0, 0)  # singular
    with pytest.raises(ValueError):
        curve(FieldSpec(3), 1, 1)  # characteristic below 5
    with pytest.raises(FieldMismatchError):
        EllipticCurve(f5, 5, 1)  # coefficients are values below q
    with pytest.raises(FieldMismatchError):
        EllipticCurve(f5, 1, -1)


def test_coefficients_are_values_and_curve_embeds_integers():
    # in F_25 the value 7 is the element 2 + t, while the integer 7 is 7 * 1 = 2
    f25 = FieldSpec(5, 2)
    E = EllipticCurve(f25, 7, 1)
    assert (E.a, E.b) == (7, 1)
    assert curve(f25, 7, 1) == EllipticCurve(f25, 2, 1)
    assert curve(f25, [2, 1], 1) == E
    assert repr(E) == "E[y^2=x^3+2.1x+1.0 over F(5^2)]"


def test_off_curve_inputs_rejected(ref_curve, f5):
    bad = Point(1, 1)
    good = Point(0, 1)
    with pytest.raises(ValueError):
        add(ref_curve, bad, good)
    with pytest.raises(ValueError):
        scalar_mul(ref_curve, 2, bad)
    with pytest.raises(ValueError):
        point_order(ref_curve, bad)


def test_point_parsing(ref_curve):
    P = parse_point(ref_curve, "0,1")
    assert (P.x, P.y) == (0, 1)
    assert parse_point(ref_curve, "inf") is INFINITY
    assert point_str(ref_curve.field, P) == "0,1"
    assert point_str(ref_curve.field, INFINITY) == "inf"
    with pytest.raises(ValueError):
        parse_point(ref_curve, "1,1")  # not on the curve


def test_extension_field_curve():
    f25 = FieldSpec(5, 2)
    E = curve(f25, [1, 1], 2)
    pts = rational_points(E)
    assert (len(pts) - 26) ** 2 <= 100  # Hasse for q = 25
    gs = group_structure(E)
    assert gs.m1 * gs.m2 == len(pts)
    for P in pts[:6]:
        for Q in pts[:6]:
            assert add(E, P, Q) in pts


def reference_add(E, P, Q):
    """Chord-and-tangent with subtraction as adding the negative and
    division through Fermat's a^(q-2); the reference the group law is
    checked against."""
    if P.is_infinity:
        return Q
    if Q.is_infinity:
        return P
    f = E.field
    add, mul, neg = f.add_val, f.mul_val, f.neg_val

    def div(a, b):
        return mul(a, f.pow_val(b, f.q - 2))

    x1, y1, x2, y2 = P.x, P.y, Q.x, Q.y
    if x1 == x2:
        if y1 == neg(y2):
            return INFINITY
        lam = div(add(mul(f.element(3), mul(x1, x1)), E.a), mul(f.element(2), y1))
    else:
        lam = div(add(y2, neg(y1)), add(x2, neg(x1)))
    x3 = add(add(mul(lam, lam), neg(x1)), neg(x2))
    y3 = add(mul(lam, add(x1, neg(x3))), neg(y1))
    return Point(x3, y3)


def _check_law_on_pairs(E, pairs):
    """add, neg and scalar_mul against the reference; returns the kinds of
    pair seen: chord, doubling, P + (-P) and 2-torsion doubling."""
    kinds = set()
    for P, Q in pairs:
        assert add(E, P, Q) == reference_add(E, P, Q), (P, Q)
        if P.is_infinity or Q.is_infinity:
            continue
        if P.x != Q.x:
            kinds.add("chord")
        elif P == Q:
            kinds.add("two-torsion" if P.y == 0 else "doubling")
        else:
            kinds.add("inverse")
            assert neg(E, P) == Q
    for P, _ in pairs:
        acc = INFINITY
        for k in range(5):
            assert scalar_mul(E, k, P) == acc
            acc = reference_add(E, acc, P)
    return kinds


@pytest.mark.parametrize("p", [5, 7])
def test_value_law_matches_reference_on_every_pair(p):
    kinds = set()
    for E in nonsingular_curves(FieldSpec(p)):
        pts = rational_points(E)
        kinds |= _check_law_on_pairs(E, [(P, Q) for P in pts for Q in pts])
    assert kinds == {"chord", "doubling", "inverse", "two-torsion"}


@pytest.mark.parametrize("p", [5, 7])
def test_value_law_matches_reference_over_extensions(p):
    f = FieldSpec(p, 2)
    rng = random.Random(p)
    curves = nonsingular_curves(f)
    for E in rng.sample(curves, 3):
        pts = rational_points(E)
        pairs = [(rng.choice(pts), rng.choice(pts)) for _ in range(300)]
        pairs += [(P, P) for P in pts] + [(P, neg(E, P)) for P in pts]
        assert _check_law_on_pairs(E, pairs) >= {"chord", "doubling", "inverse"}


def test_points_print_in_the_field_text_form():
    f25 = FieldSpec(5, 2)
    E = curve(f25, 1, 2)
    P = parse_point(E, "2.1,4.2")
    assert (P.x, P.y) == (2 + 5 * 1, 4 + 5 * 2)
    assert point_str(f25, P) == "2.1,4.2"
    off = Point(P.x, 0)
    with pytest.raises(ValueError, match=r"^2\.1,0\.0 is not on"):
        add(E, off, P)
    assert not E.is_on_curve(Point(25, 0))  # values stay below q
