from __future__ import annotations

import itertools
import pickle
import random

import pytest

from stopset.errors import SizeLimitError
from stopset.ffield import (
    _OP_TABLE_BOUND,
    FieldSpec,
    _is_irreducible,
    _op_tables,
    _poly_rem,
    _smallest_irreducible,
    field_str,
    is_prime,
    parse_element,
    parse_field,
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
    assert f5.add_val(2, 4) == 1
    assert f5.mul_val(2, 4) == 3
    assert f5.neg_val(2) == 3
    assert f5.inv_val(3) == 2
    assert f5.pow_val(2, 3) == 3
    assert f5.element(7) == 2  # integers embed mod p


def test_f9_multiplication_matches_naive_oracle():
    f9 = FieldSpec(3, 2)
    assert f9.modulus == (1, 0, 1)  # t^2 + 1 is the smallest irreducible
    t = f9.element([0, 1])
    assert f9.mul_val(t, t) == 2  # t^2 = -1
    for a in range(f9.q):
        for b in range(f9.q):
            expect = naive_poly_mul_mod(list(f9.coeffs_of(a)), list(f9.coeffs_of(b)), f9.modulus, 3)
            assert f9.coeffs_of(f9.mul_val(a, b)) == expect


def test_f25_multiplication_matches_naive_oracle():
    f25 = FieldSpec(5, 2)
    for a in range(f25.q):
        for b in range(f25.q):
            expect = naive_poly_mul_mod(list(f25.coeffs_of(a)), list(f25.coeffs_of(b)), f25.modulus, 5)
            assert f25.coeffs_of(f25.mul_val(a, b)) == expect


@pytest.mark.parametrize("p,k", [(2, 1), (5, 1), (7, 1), (3, 2), (2, 4)])
def test_enumeration_zero_first_all_distinct(p, k):
    # value v is the v-th element: its coefficients are the base-p digits of v
    spec = FieldSpec(p, k)
    coeffs = [spec.coeffs_of(v) for v in range(p ** k)]
    assert coeffs[0] == (0,) * k
    assert len(set(coeffs)) == len(coeffs)
    assert [spec.value_of(c) for c in coeffs] == list(range(p ** k))


@pytest.mark.parametrize("p,k", [(5, 1), (7, 1), (3, 2)])
def test_field_axioms_exhaustive(p, k):
    spec = FieldSpec(p, k)
    add, mul, neg, inv = spec.add_val, spec.mul_val, spec.neg_val, spec.inv_val
    elems = range(spec.q)
    for a in elems:
        assert add(a, 0) == a
        assert mul(a, 1) == a
        assert add(a, neg(a)) == 0
        if a:
            assert mul(a, inv(a)) == 1
        for b in elems:
            assert add(a, b) == add(b, a)
            assert mul(a, b) == mul(b, a)
            for c in elems:
                assert add(add(a, b), c) == add(a, add(b, c))
                assert mul(mul(a, b), c) == mul(a, mul(b, c))
                assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))


@pytest.mark.parametrize("p,k", [(5, 2), (7, 2)])
def test_field_axioms_random_triples(p, k):
    spec = FieldSpec(p, k)
    add, mul = spec.add_val, spec.mul_val
    rng = random.Random(7)
    for _ in range(300):
        a, b, c = (rng.randrange(spec.q) for _ in range(3))
        assert add(add(a, b), c) == add(a, add(b, c))
        assert mul(mul(a, b), c) == mul(a, mul(b, c))
        assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
        if a:
            assert mul(a, spec.inv_val(a)) == 1


@pytest.mark.parametrize("p,k", [(5, 1), (7, 1), (3, 2), (5, 2)])
def test_multiplicative_order_divides_group_order(p, k):
    spec = FieldSpec(p, k)
    q = spec.q
    for a in range(1, q):
        assert spec.pow_val(a, q - 1) == 1


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (5, 1), (7, 1), (3, 2), (5, 2), (11, 2), (65537, 1)])
def test_sqrt_exhaustive(p, k):
    spec = FieldSpec(p, k)
    by_square = {}
    for r in range(spec.q):
        by_square.setdefault(spec.mul_val(r, r), []).append(r)
    for a in range(spec.q):
        assert spec.sqrt_vals(a) == tuple(by_square.get(a, ()))


def test_sqrt_trivia(f5):
    assert f5.sqrt_vals(4) == (2, 3)
    assert f5.sqrt_vals(2) == ()  # 2 is a non-residue mod 5
    assert f5.sqrt_vals(0) == (0,)


def test_sqrt_large_field_matches_euler():
    # on sampled elements of a large field, every root must square back
    # and the residue census must match Euler's criterion
    spec = FieldSpec(65537)  # 65537 = 2^16 + 1, q = 1 mod 4
    rng = random.Random(3)
    found = 0
    for _ in range(50):
        a = spec.from_value(rng.randrange(spec.q))
        roots = spec.sqrt_vals(a)
        for r in roots:
            assert spec.mul_val(r, r) == a
        if a:
            euler = spec.pow_val(a, (spec.q - 1) // 2)
            assert bool(roots) == (euler == 1)
            found += len(roots)
    assert found > 0


def test_inverse_of_zero_raises(f5):
    # a prime field, an extension with the q^2 addition table, and one past it
    for spec in (f5, FieldSpec(5, 2), FieldSpec(37, 2)):
        with pytest.raises(ZeroDivisionError):
            spec.inv_val(0)


@pytest.mark.parametrize("p,k", [(37, 2), (11, 3), (3, 7)])
def test_polynomial_route_matches_naive_oracle(p, k):
    # fields past the table bound add coefficient lists and multiply by
    # logs; the oracle multiplies coefficient lists
    spec = FieldSpec(p, k)
    assert spec.q > _OP_TABLE_BOUND
    rng = random.Random(p * k)
    for _ in range(200):
        a, b = rng.randrange(spec.q), rng.randrange(spec.q)
        ca, cb = spec.coeffs_of(a), spec.coeffs_of(b)
        assert spec.coeffs_of(spec.add_val(a, b)) == tuple((x + y) % p for x, y in zip(ca, cb))
        assert spec.coeffs_of(spec.sub_val(a, b)) == tuple((x - y) % p for x, y in zip(ca, cb))
        assert spec.coeffs_of(spec.neg_val(a)) == tuple(-x % p for x in ca)
        assert spec.coeffs_of(spec.mul_val(a, b)) == naive_poly_mul_mod(list(ca), list(cb), spec.modulus, p)
        if a:
            assert spec.mul_val(a, spec.inv_val(a)) == 1


def test_value_ops_bind_on_first_use():
    # a field is built and sized without its logs: 31^4 takes seconds to walk
    before = _op_tables.cache_info()
    spec = FieldSpec(31, 4)
    assert spec.q == 923521 and repr(spec) == "F(31^4)"
    assert _op_tables.cache_info() == before and "mul_val" not in vars(spec)
    f49 = FieldSpec(7, 2)
    assert f49.mul_val(3, 5) == 1  # 15 = 1 mod 7; the first op read binds all six
    assert set(vars(f49)) >= {"add_val", "neg_val", "sub_val", "mul_val", "inv_val", "dot_vals"}
    with pytest.raises(AttributeError):
        spec.no_such_op


def test_bound_ops_survive_pickling():
    spec = FieldSpec(5, 2)
    copy = pickle.loads(pickle.dumps(spec))
    assert copy == spec
    assert all(copy.mul_val(a, 7) == spec.mul_val(a, 7) for a in range(spec.q))


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
    # the size bound comes before 5^(10^9) is formed and before p is trial-divided
    with pytest.raises(SizeLimitError):
        FieldSpec(5, 10 ** 9)
    with pytest.raises(SizeLimitError):
        FieldSpec(2 ** 61 - 1)
    with pytest.raises(ValueError, match="not prime"):
        FieldSpec(1, 10 ** 9)
    with pytest.raises(ValueError, match="degree"):
        FieldSpec(5, 0)


def test_auto_modulus_is_lexicographically_smallest():
    assert FieldSpec(2, 2).modulus == (1, 1, 1)  # t^2 + t + 1
    assert FieldSpec(3, 2).modulus == (1, 0, 1)  # t^2 + 1
    # constant-first tuples: (1,0,0,1) = t^4 + t^3 + 1 precedes t^4 + t + 1
    assert FieldSpec(2, 4).modulus == (1, 0, 0, 1, 1)


def irreducible_by_trial_division(modulus, p):
    """The reference: no monic polynomial of degree 1..deg/2 divides the modulus."""
    degrees = range(1, (len(modulus) - 1) // 2 + 1)
    return all(_poly_rem(modulus, [*tail, 1], p) for d in degrees for tail in itertools.product(range(p), repeat=d))


def smallest_irreducible_by_trial_division(p, k):
    monic = (tail + (1,) for tail in itertools.product(range(p), repeat=k))
    return next(cand for cand in monic if irreducible_by_trial_division(cand, p))


@pytest.mark.parametrize("p, top", [(2, 6), (3, 5), (5, 4)])
def test_ben_or_matches_trial_division(p, top):
    for k in range(top + 1):
        for tail in itertools.product(range(p), repeat=k):
            modulus = (*tail, 1)
            assert _is_irreducible(modulus, p) == irreducible_by_trial_division(modulus, p), modulus


def test_smallest_irreducible_matches_trial_division():
    pairs = [(p, k) for p in range(2, 2 ** 12 + 1) if is_prime(p) for k in range(1, 13) if p ** k <= 2 ** 12]
    assert len(pairs) == 564 + 40  # every prime up to 2^12, and the 40 higher powers
    for p, k in pairs:
        assert _smallest_irreducible(p, k) == smallest_irreducible_by_trial_division(p, k), (p, k)


def test_parse_and_format_roundtrip():
    for text in ("5", "3,2,1.0.1", "2,4,1.1.0.0.1"):
        spec = parse_field(text)
        assert field_str(spec) == text
    f9 = parse_field("3,2,1.0.1")
    e = parse_element(f9, "1.2")
    assert f9.coeffs_of(e) == (1, 2)
    assert f9.format_element(e) == "1.2"
    assert parse_element(FieldSpec(5), "3") == 3
    with pytest.raises(ValueError):
        parse_field("5,2,1.0.1,9")


def test_element_construction_forms():
    f9 = FieldSpec(3, 2)
    assert f9.coeffs_of(f9.element(7)) == (1, 0)  # integer -> prime subfield
    assert f9.coeffs_of(f9.element([1, 2])) == (1, 2)
    assert f9.from_value(5) == 5
    assert f9.coeffs_of(5) == (2, 1)
    with pytest.raises(ValueError):
        f9.from_value(9)
    with pytest.raises(ValueError):
        f9.element([1, 2, 1])
