"""The H* census by pencils against the per-row reference it replaces in
production."""

from __future__ import annotations

import itertools
import math
import random

import pytest

from stopset import (
    CodeMatrix,
    EllipticCodeSpec,
    FieldSpec,
    generator_matrix,
    group_structure,
    rational_points,
    scalar_mul,
    spec_all_points,
    weight_enumerator,
)
from stopset.agcode import (
    _combination_stream,
    _rref,
    _stream_census,
    hstar_census,
    is_stopping_set_masks,
    subset_mask,
)
from stopset.ffield import parse_field
from stopset.reference import dual_rows, support_masks
from stopset.stoptheory import is_subgroup_minus_O

from conftest import nonsingular_curves


def per_row_census(spec):
    """The reference: every H* row read one by one, its support mask and
    its weight, with B_0 = 1 for the zero word."""
    rows = [r for r in dual_rows(generator_matrix(spec)) if any(r)]
    weights = [0] * (spec.n + 1)
    weights[0] = 1
    for row in rows:
        weights[spec.n - row.count(0)] += 1
    return support_masks(rows), tuple(weights)


def assert_census_matches(spec):
    census = hstar_census(generator_matrix(spec))
    masks, weights = per_row_census(spec)
    assert census.masks == masks, spec
    assert census.dual_weights == weights, spec
    assert (census.q, census.dual_dim) == (spec.field.q, spec.m)


def fitting_ms(field_q, n, top=5, words=20_000):
    """Every m in 1..top with m < n and at most `words` H* rows."""
    return [m for m in range(1, top + 1) if m < n and field_q ** m <= words]


@pytest.mark.parametrize("q", [5, 7])
def test_census_every_curve_of_small_prime_fields(q):
    field = FieldSpec(q)
    seen = set()
    for E in nonsingular_curves(field):
        n = len(rational_points(E)) - 1
        for m in fitting_ms(q, n):
            assert_census_matches(spec_all_points(E, m))
            seen.add(m)
    assert seen == {1, 2, 3, 4, 5}


@pytest.mark.parametrize("text, top, count", [("5,2", 3, 4), ("7,2", 2, 3)])
def test_census_seeded_extension_field_curves(text, top, count):
    field = parse_field(text)
    for E in random.Random(7).sample(nonsingular_curves(field), count):
        n = len(rational_points(E)) - 1
        for m in fitting_ms(field.q, n, top):
            assert_census_matches(spec_all_points(E, m))


def test_census_on_f49_at_three_rows():
    field = parse_field("7,2")
    E = random.Random(3).choice(nonsingular_curves(field))
    assert_census_matches(spec_all_points(E, 3))


def test_census_on_a_proper_subgroup():
    # the first cyclic curve over F_13 whose order has a divisor d leaving a
    # subgroup of at least six points; D = that subgroup minus O
    for E in nonsingular_curves(FieldSpec(13)):
        gs = group_structure(E)
        N = gs.order
        d = next((d for d in range(2, N) if N % d == 0 and N // d >= 6), None)
        if gs.m1 == 1 and d is not None:
            break
    g = gs.generators[-1]
    D = tuple(scalar_mul(E, d * i, g) for i in range(1, N // d))
    assert is_subgroup_minus_O(E, D) is not None
    for m in (1, 2, 3):
        assert_census_matches(EllipticCodeSpec(E, D, m))


def test_census_on_a_non_subgroup():
    E = nonsingular_curves(FieldSpec(11))[5]
    D = tuple(P for P in rational_points(E) if not P.is_infinity)[::2]
    assert is_subgroup_minus_O(E, D) is None
    for m in (1, 2, 3, 4):
        assert_census_matches(EllipticCodeSpec(E, D, m))


@pytest.mark.parametrize("m", [2, 3])
def test_census_when_the_last_row_has_zeros(m):
    # the last monomial is x for m = 2 and y for m = 3: it vanishes at the
    # points with x = 0, and at the 2-torsion points
    field = FieldSpec(7)
    for E in nonsingular_curves(field):
        spec = spec_all_points(E, m)
        if generator_matrix(spec).entries[-1].count(0) >= 2:
            break
    assert generator_matrix(spec).entries[-1].count(0) >= 2
    assert_census_matches(spec)


def test_census_from_reduced_rows_of_random_matrices():
    # weight_enumerator(CodeMatrix) runs the census over RREF rows, whose
    # last row is zero at every earlier pivot
    rng = random.Random(5)
    for text in ("5", "7", "3,2"):
        field = parse_field(text)
        for _ in range(8):
            n = rng.randint(3, 9)
            k = rng.randint(1, min(n - 1, 4))
            rows = [[rng.randrange(field.q) for _ in range(n)] for _ in range(k)]
            basis, _ = _rref(field, rows)
            census = _stream_census(field, basis, n)
            words = []
            for coeffs in itertools.product(range(field.q), repeat=len(basis)):
                word = [0] * n
                for c, row in zip(coeffs, basis):
                    word = [field.add_val(w, field.mul_val(c, v)) for w, v in zip(word, row)]
                if any(word):
                    words.append(word)
            weights = [0] * (n + 1)
            weights[0] = 1
            for w in words:
                weights[n - w.count(0)] += 1
            assert census.masks == support_masks(words), (text, rows)
            assert census.dual_weights == tuple(weights), (text, rows)


def combination_stream_reference(field, rows):
    """The combination stream as it stood with all q multiples of every
    row tabled: the normalized walk, reading row 0 at c = 1 only."""
    q, add, mul = field.q, field.add_val, field.mul_val
    pre = [[tuple(mul(c, v) for v in row) for c in range(q)] for row in rows]

    def walk(level, acc):
        if level == len(rows):
            yield acc
            return
        for c in range(q):
            yield from walk(level + 1, acc if c == 0 else tuple(map(add, acc, pre[level][c])))

    for lead in range(len(rows)):
        yield from walk(lead + 1, pre[lead][1])


@pytest.mark.parametrize("count", [0, 1, 3])
@pytest.mark.parametrize("text", ["5", "7", "3,2"])
def test_combination_stream_matches_the_full_table(text, count):
    field = parse_field(text)
    rng = random.Random(count)
    rows = [[rng.randrange(field.q) for _ in range(6)] for _ in range(count)]
    expected = list(combination_stream_reference(field, rows))
    assert list(_combination_stream(field, rows)) == expected
    assert len(expected) == (field.q ** count - 1) // (field.q - 1)


def test_weight_enumerator_of_a_zero_rank_matrix():
    field = FieldSpec(5)
    M = CodeMatrix(field, ((0, 0, 0), (0, 0, 0)))
    assert weight_enumerator(M) == tuple(math.comb(3, w) * 4 ** w for w in range(4))


def test_weight_enumerator_of_a_one_row_matrix():
    field = FieldSpec(5)
    # the code checked by (1, 2, 0) is {(x, y, z) : x + 2y = 0}: 5 words
    # with x = y = 0, 20 with x, y nonzero and z any
    M = CodeMatrix(field, ((1, 2, 0),))
    assert weight_enumerator(M) == (1, 4, 4, 16)


def test_columns_on_the_edges():
    # past 64 columns the masks span more than one machine word
    n = 70
    everything = subset_mask(range(1, n + 1))
    # no rows: every subset stops
    assert is_stopping_set_masks([], 0)
    assert is_stopping_set_masks(frozenset(), everything)
    # one row over all n columns: every nonempty subset meets it, and
    # exactly once only when it has one position
    full = [(1 << n) - 1]
    assert is_stopping_set_masks(full, 0)
    assert is_stopping_set_masks(full, everything)
    assert is_stopping_set_masks(full, subset_mask({1, n}))
    assert not is_stopping_set_masks(full, subset_mask({n}))
