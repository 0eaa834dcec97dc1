from __future__ import annotations

import random

import pytest

from stopset.errors import FieldMismatchError, SizeLimitError
from stopset.ffield import (
    FieldElement,
    FieldSpec,
    field_str,
    parse_element,
    parse_field,
    sqrt,
)


# -- independent oracle: textbook polynomial arithmetic ----------------------


def naive_poly_mul_mod(a, b, modulus, p):
    """Schoolbook product of coefficient lists, long division by modulus."""
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            prod[i + j] = (prod[i + j] + ai * bj) % p
    deg = len(modulus) - 1
    while len(prod) > deg:
        lead = prod.pop()
        if lead:
            for offset, mc in enumerate(modulus[:-1]):
                prod[len(prod) - deg + offset] = (prod[len(prod) - deg + offset] - lead * mc) % p
    prod += [0] * (deg - len(prod))
    return tuple(prod)


def test_prime_field_basics(f5):
    two, four = f5.element(2), f5.element(4)
    assert (two + four).value == 1
    assert (two * four).value == 3
    assert (-two).value == 3
    assert f5.element(3).inverse().value == 2
    assert (f5.element(2) ** 3).value == 3
    assert f5.element(7).value == 2  # integers embed mod p


def test_f9_multiplication_matches_naive_oracle():
    f9 = FieldSpec(3, 2)
    assert f9.modulus == (1, 0, 1)  # t^2 + 1 is the smallest irreducible
    t = f9.element([0, 1])
    assert (t * t).value == 2  # t^2 = -1
    for a in f9.elements():
        for b in f9.elements():
            expect = naive_poly_mul_mod(list(a.coeffs), list(b.coeffs), f9.modulus, 3)
            assert (a * b).coeffs == expect


def test_f25_multiplication_matches_naive_oracle():
    f25 = FieldSpec(5, 2)
    for a in f25.elements():
        for b in f25.elements():
            expect = naive_poly_mul_mod(list(a.coeffs), list(b.coeffs), f25.modulus, 5)
            assert (a * b).coeffs == expect


@pytest.mark.parametrize("p,k", [(2, 1), (5, 1), (7, 1), (3, 2), (2, 4)])
def test_enumeration_zero_first_all_distinct(p, k):
    spec = FieldSpec(p, k)
    elems = spec.elements()
    assert len(elems) == p ** k
    assert elems[0].is_zero()
    assert len(set(elems)) == len(elems)
    assert [e.value for e in elems] == list(range(p ** k))


@pytest.mark.parametrize("p,k", [(5, 1), (7, 1), (3, 2)])
def test_field_axioms_exhaustive(p, k):
    spec = FieldSpec(p, k)
    elems = spec.elements()
    zero, one = spec.zero(), spec.one()
    for a in elems:
        assert a + zero == a
        assert a * one == a
        assert a + (-a) == zero
        if not a.is_zero():
            assert a * a.inverse() == one
        for b in elems:
            assert a + b == b + a
            assert a * b == b * a
            for c in elems:
                assert (a + b) + c == a + (b + c)
                assert (a * b) * c == a * (b * c)
                assert a * (b + c) == a * b + a * c


@pytest.mark.parametrize("p,k", [(5, 2), (7, 2)])
def test_field_axioms_random_triples(p, k):
    spec = FieldSpec(p, k)
    rng = random.Random(7)
    elems = spec.elements()
    for _ in range(300):
        a, b, c = (rng.choice(elems) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        if not a.is_zero():
            assert a * a.inverse() == spec.one()


@pytest.mark.parametrize("p,k", [(5, 1), (7, 1), (3, 2), (5, 2)])
def test_multiplicative_order_divides_group_order(p, k):
    spec = FieldSpec(p, k)
    q = spec.q
    for a in spec.elements():
        if not a.is_zero():
            assert (a ** (q - 1)) == spec.one()


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (5, 1), (7, 1), (3, 2), (5, 2), (11, 2), (65537, 1)])
def test_sqrt_exhaustive(p, k):
    spec = FieldSpec(p, k)
    elems = spec.elements()
    by_square = {}
    for r in elems:
        by_square.setdefault((r * r).value, set()).add(r)
    for a in elems:
        assert sqrt(a) == by_square.get(a.value, set())


def test_sqrt_trivia(f5):
    assert {r.value for r in sqrt(f5.element(4))} == {2, 3}
    assert sqrt(f5.element(2)) == set()  # 2 is a non-residue mod 5
    assert {r.value for r in sqrt(f5.element(0))} == {0}


def test_sqrt_large_field_matches_euler():
    # on sampled elements of a large field, every root must square back
    # and the residue census must match Euler's criterion
    spec = FieldSpec(65537)  # 65537 = 2^16 + 1, q = 1 mod 4
    rng = random.Random(3)
    found = 0
    for _ in range(50):
        a = spec.from_value(rng.randrange(spec.q))
        roots = sqrt(a)
        for r in roots:
            assert r * r == a
        if not a.is_zero():
            euler = a ** ((spec.q - 1) // 2)
            assert bool(roots) == (euler == spec.one())
            found += len(roots)
    assert found > 0


def test_inverse_of_zero_raises(f5):
    with pytest.raises(ZeroDivisionError):
        f5.zero().inverse()


def test_mixed_field_operations_raise(f5, f7):
    with pytest.raises(FieldMismatchError):
        f5.element(1) + f7.element(1)
    with pytest.raises(FieldMismatchError):
        f5.element(2) * f7.element(2)


def test_invalid_specs_rejected():
    with pytest.raises(ValueError):
        FieldSpec(6)  # not prime
    with pytest.raises(ValueError):
        FieldSpec(3, 2, (2, 0, 1))  # t^2 + 2 has the root 1 mod 3
    with pytest.raises(ValueError):
        FieldSpec(3, 2, (1, 0, 2))  # not monic
    with pytest.raises(ValueError):
        FieldSpec(5, 1, (1, 1))  # prime field with modulus
    with pytest.raises(SizeLimitError):
        FieldSpec(2, 21)  # 2^21 over the size bound


def test_auto_modulus_is_lexicographically_smallest():
    assert FieldSpec(2, 2).modulus == (1, 1, 1)  # t^2 + t + 1
    assert FieldSpec(3, 2).modulus == (1, 0, 1)  # t^2 + 1
    # constant-first tuples: (1,0,0,1) = t^4 + t^3 + 1 precedes t^4 + t + 1
    assert FieldSpec(2, 4).modulus == (1, 0, 0, 1, 1)


def test_parse_and_format_roundtrip():
    for text in ("5", "3,2,1.0.1", "2,4,1.1.0.0.1"):
        spec = parse_field(text)
        assert field_str(spec) == text
    f9 = parse_field("3,2,1.0.1")
    e = parse_element(f9, "1.2")
    assert e.coeffs == (1, 2)
    assert str(e) == "1.2"
    assert parse_element(FieldSpec(5), "3").value == 3
    with pytest.raises(ValueError):
        parse_field("5,2,1.0.1,9")


def test_element_construction_forms(f5):
    f9 = FieldSpec(3, 2)
    assert f9.element(7).coeffs == (1, 0)  # integer -> prime subfield
    assert f9.element([1, 2]).coeffs == (1, 2)
    assert f9.from_value(5).coeffs == (2, 1)
    with pytest.raises(ValueError):
        f9.from_value(9)
    with pytest.raises(ValueError):
        f9.element([1, 2, 1])
    with pytest.raises(FieldMismatchError):
        f9.element(f5.element(1))
