"""The H* census by pencils and the bit-sliced stopping test, each against
the definitional route it replaces in production."""

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
    hstar_rows,
    rational_points,
    scalar_mul,
    spec_all_points,
    weight_enumerator,
)
from stopset.agcode import (
    ROLE_GENERATOR,
    _combination_stream,
    _rref,
    _stream_census,
    column_sets,
    hstar_census,
    is_stopping_set_columns,
    is_stopping_set_masks,
    subset_mask,
    support_masks,
)
from stopset.ffield import parse_field
from stopset.stoptheory import is_subgroup_minus_O

from conftest import nonsingular_curves


def per_row_census(spec):
    """The reference: every H* row read one by one, its support mask and
    its weight, with B_0 = 1 for the zero word."""
    rows = list(hstar_rows(spec))
    weights = [0] * (spec.n + 1)
    weights[0] = 1
    for row in rows:
        weights[spec.n - row.count(0)] += 1
    return support_masks(rows), tuple(weights)


def assert_census_matches(spec):
    census = hstar_census(spec)
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
            words = [w for w in _combination_stream(field, basis, normalized=False) if any(w)]
            weights = [0] * (n + 1)
            weights[0] = 1
            for w in words:
                weights[n - w.count(0)] += 1
            assert census.masks == support_masks(words), (text, rows)
            assert census.dual_weights == tuple(weights), (text, rows)


def test_weight_enumerator_of_a_zero_rank_matrix():
    field = FieldSpec(5)
    M = CodeMatrix(field, ((0, 0, 0), (0, 0, 0)), ROLE_GENERATOR)
    assert weight_enumerator(M) == tuple(math.comb(3, w) * 4 ** w for w in range(4))


def test_weight_enumerator_of_a_one_row_matrix():
    field = FieldSpec(5)
    # the code checked by (1, 2, 0) is {(x, y, z) : x + 2y = 0}: 5 words
    # with x = y = 0, 20 with x, y nonzero and z any
    M = CodeMatrix(field, ((1, 2, 0),), ROLE_GENERATOR)
    assert weight_enumerator(M) == (1, 4, 4, 16)


# ---------------------------------------------------------------------------
# the bit-sliced stopping test


def random_family(rng, n, size, density):
    return frozenset(
        sum(1 << j for j in range(n) if rng.random() < density) for _ in range(size)
    )


@pytest.mark.parametrize("n", [1, 2, 5, 13, 40, 63, 64, 65, 70])
def test_columns_agree_with_the_mask_scan(n):
    rng = random.Random(n)
    outcomes = set()
    for size, density in ((1, 0.5), (7, 0.2), (60, 0.5), (200, 0.9)):
        masks = random_family(rng, n, size, density)
        cols = column_sets(masks, n)
        assert len(cols) == n
        for _ in range(150):
            A = rng.sample(range(1, n + 1), rng.randint(0, n))
            expect = is_stopping_set_masks(masks, subset_mask(A))
            assert is_stopping_set_columns(cols, A) == expect, (n, sorted(A))
            outcomes.add(expect)
    assert outcomes == {True, False}


def test_column_bit_k_is_the_k_th_mask():
    masks = [0b0110, 0b0011, 0b1000]
    assert column_sets(masks, 4) == [0b010, 0b011, 0b001, 0b100]


def test_columns_on_the_edges():
    n = 70
    assert column_sets([], n) == [0] * n
    assert column_sets(frozenset(), 0) == []
    empty = column_sets([], n)
    assert is_stopping_set_columns(empty, [])
    assert is_stopping_set_columns(empty, range(1, n + 1))
    # one row over every column: every nonempty A meets it at least once,
    # and exactly once only when |A| = 1
    full = column_sets([(1 << n) - 1], n)
    assert is_stopping_set_columns(full, [])
    assert is_stopping_set_columns(full, range(1, n + 1))
    assert not is_stopping_set_columns(full, [n])
    masks = random_family(random.Random(1), n, 30, 0.3)
    cols = column_sets(masks, n)
    for A in ([], range(1, n + 1)):
        assert is_stopping_set_columns(cols, A) == is_stopping_set_masks(masks, subset_mask(A))


@pytest.mark.parametrize("masks, n", [([1 << 5], 5), ([0b11, 1 << 70], 70), ([-1], 4)])
def test_columns_reject_masks_outside_the_columns(masks, n):
    with pytest.raises(ValueError):
        column_sets(masks, n)


def test_columns_agree_on_a_code(ref_spec):
    masks = hstar_census(ref_spec).masks
    cols = column_sets(masks, ref_spec.n)
    for size in range(ref_spec.n + 1):
        for A in itertools.combinations(range(1, ref_spec.n + 1), size):
            assert is_stopping_set_columns(cols, A) == is_stopping_set_masks(masks, subset_mask(A))
