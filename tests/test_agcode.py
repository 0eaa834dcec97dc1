from __future__ import annotations

import itertools
import math
import random

import pytest

from stopset import agcode
from stopset import (
    INFINITY,
    CodeMatrix,
    Distribution,
    EllipticCodeSpec,
    FieldMismatchError,
    FieldSpec,
    IntegrityError,
    Point,
    SizeLimitError,
    dual_rows,
    generator_matrix,
    hstar_rows,
    hstar_support_masks,
    mds_distribution,
    min_distance_bruteforce,
    null_space,
    residue_min_distance,
    rr_basis,
    spec_all_points,
    weight_enumerator,
)
from stopset.agcode import (
    hstar_census,
    is_stopping_set_masks,
    macwilliams_transform,
    matrix_rank,
    min_distance_dependent_columns,
    subset_mask,
)
from stopset.reference import rs_code, scale_columns, stopping_distribution_from_rows, support_masks

GOLDEN_DISTRIBUTION = (1, 0, 0, 6, 40, 56, 28, 8, 1)


def all_row_combos(field, value_rows):
    """Oracle: every linear combination of the rows, by brute coefficients
    in the field's value arithmetic."""
    add, mul = field.add_val, field.mul_val
    out = []
    for coeffs in itertools.product(range(field.q), repeat=len(value_rows)):
        word = [0] * len(value_rows[0])
        for c, row in zip(coeffs, value_rows):
            word = [add(w, mul(c, e)) for w, e in zip(word, row)]
        out.append(tuple(word))
    return out


def support(word):
    mask = 0
    for j, e in enumerate(word):
        if e:
            mask |= 1 << j
    return mask


def test_rr_basis_shape():
    assert rr_basis(1) == [(0, 0)]
    assert rr_basis(3) == [(0, 0), (1, 0), (0, 1)]
    assert rr_basis(5) == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1)]
    for m in range(1, 13):
        pairs = rr_basis(m)
        assert len(pairs) == m
        orders = [2 * i + 3 * j for i, j in pairs]
        assert orders == sorted(orders)
        assert all(o <= m for o in orders)
        assert 1 not in orders  # the single Weierstrass gap
    with pytest.raises(ValueError):
        rr_basis(0)


def test_generator_matrix_shape(ref_spec):
    G = generator_matrix(ref_spec)
    assert (G.nrows, G.ncols) == (3, 8)
    assert all(e == 1 for e in G.entries[0])  # constant function row
    assert matrix_rank(G) == 3
    xs = [P.x for P in ref_spec.D]
    ys = [P.y for P in ref_spec.D]
    assert G.entries[1] == tuple(xs)
    assert G.entries[2] == tuple(ys)


def test_spec_validation(ref_curve, f5):
    good = spec_all_points(ref_curve, 3).D
    with pytest.raises(ValueError):
        EllipticCodeSpec(ref_curve, good, 0)
    with pytest.raises(ValueError):
        EllipticCodeSpec(ref_curve, good, 8)  # m must stay below n
    with pytest.raises(ValueError):
        EllipticCodeSpec(ref_curve, good + (good[0],), 3)  # duplicate
    with pytest.raises(ValueError):
        EllipticCodeSpec(ref_curve, good + (INFINITY,), 3)
    off = Point(1, 1)
    with pytest.raises(ValueError):
        EllipticCodeSpec(ref_curve, (good[0], off), 1)


def test_dual_rows_against_combo_oracle(ref_spec, f25_spec):
    for spec in (ref_spec, f25_spec):
        f, q, m = spec.field, spec.field.q, spec.m
        G = generator_matrix(spec)
        expected = all_row_combos(f, G.entries)
        got = list(dual_rows(spec))
        assert len(got) == q ** m
        assert all(v == 0 for v in got[0])
        assert sorted(got) == sorted(expected)
        assert len(set(got)) == q ** m
        # H* up to scalars: one row per class, whose nonzero multiples are
        # every nonzero dual word exactly once
        star = list(hstar_rows(spec))
        assert len(star) == (q ** m - 1) // (q - 1)
        multiples = [tuple(f.mul_val(c, v) for v in row) for row in star for c in range(1, q)]
        assert sorted(multiples) == sorted(w for w in got if any(w))


def test_hstar_masks_match_full_stream(ref_spec):
    G = generator_matrix(ref_spec)
    oracle = {support(w) for w in all_row_combos(ref_spec.field, G.entries)}
    oracle.discard(0)
    assert hstar_support_masks(ref_spec) == oracle


def test_oracle_trivia():
    masks = support_masks([[1, 1, 0], [0, 1, 1]])
    assert not is_stopping_set_masks(masks, subset_mask({1, 2}))  # second row hits weight 1
    assert is_stopping_set_masks(masks, subset_mask({1, 2, 3}))
    assert is_stopping_set_masks(masks, subset_mask(set()))  # empty set stops by definition
    assert not is_stopping_set_masks(masks, subset_mask({3}))
    assert subset_mask({1, 3}) == 0b101
    assert is_stopping_set_masks([0b110, 0b011], 0b111)
    assert not is_stopping_set_masks([0b110, 0b011], 0b110)


def test_reference_distribution(ref_spec):
    dist = stopping_distribution_from_rows(hstar_rows(ref_spec), ref_spec.n)
    assert tuple(dist) == GOLDEN_DISTRIBUTION


def test_null_space_is_orthogonal_complement(ref_spec):
    G = generator_matrix(ref_spec)
    C = null_space(G)
    assert C.role == "parity-check"
    assert matrix_rank(C) + matrix_rank(G) == ref_spec.n
    f = ref_spec.field
    for h in hstar_rows(ref_spec):
        for c in C.values():
            dot = 0
            for a, b in zip(h, c):
                dot = f.add_val(dot, f.mul_val(a, b))
            assert dot == 0


def test_min_distance_routes_agree(ref_spec, set_row_limit):
    G = generator_matrix(ref_spec)
    assert min_distance_bruteforce(null_space(G)) == 3
    assert min_distance_dependent_columns(G) == 3
    assert residue_min_distance(ref_spec) == 3  # the weight enumerator
    # below q^m rows the enumerator is out of reach and the columns decide
    set_row_limit(5 ** 3 - 1)
    with pytest.raises(SizeLimitError):
        weight_enumerator(ref_spec)
    assert residue_min_distance(ref_spec) == 3


def test_min_distance_on_rs_code():
    f7 = FieldSpec(7)
    G = rs_code(f7, 6, 2)
    assert min_distance_bruteforce(G) == 5  # n - k + 1
    assert min_distance_dependent_columns(null_space(G)) == 5


def test_dependent_columns_against_bruteforce():
    # the least dependent column set of H against the least weight of the
    # code H checks, on seeded random H: rank-deficient, with zero columns,
    # and codes of dimension 0 (ValueError both ways), 1 and 2 or more
    rng = random.Random(20)
    seen = dict.fromkeys(("rank-deficient", "zero-column", "zero-code", "dimension-2"), 0)
    for q, most_dim in ((2, 7), (3, 5), (5, 4), (7, 3)):
        f = FieldSpec(q)
        for _ in range(250):
            nrows = rng.randint(1, 4)
            ncols = rng.randint(2, min(9, nrows + most_dim))
            rows = [[rng.randrange(q) for _ in range(ncols)] for _ in range(nrows)]
            if nrows > 1 and rng.random() < 0.3:  # the last row a combination of the others
                c = [rng.randrange(q) for _ in range(nrows - 1)]
                rows[-1] = [sum(ci * row[j] for ci, row in zip(c, rows)) % q for j in range(ncols)]
            if rng.random() < 0.3:
                zero = rng.randrange(ncols)
                for row in rows:
                    row[zero] = 0
            H = CodeMatrix(f, tuple(map(tuple, rows)), "parity-check")
            rank = matrix_rank(H)
            seen["rank-deficient"] += rank < nrows
            seen["zero-column"] += any(not any(col) for col in zip(*rows))
            seen["dimension-2"] += ncols - rank >= 2
            if rank == ncols:
                seen["zero-code"] += 1
                with pytest.raises(ValueError, match="zero code"):
                    min_distance_dependent_columns(H)
                with pytest.raises(ValueError, match="zero code"):
                    min_distance_bruteforce(null_space(H))
                continue
            assert min_distance_dependent_columns(H) == min_distance_bruteforce(null_space(H)), (q, rows)
    assert all(seen.values()), seen


def test_min_distance_guards(f5, monkeypatch, set_row_limit):
    one_row = CodeMatrix(f5, ((1, 1, 1, 1),), "generator")
    assert min_distance_bruteforce(one_row) == 4
    set_row_limit(2)
    with pytest.raises(SizeLimitError):
        min_distance_bruteforce(one_row)
    monkeypatch.setattr(agcode, "SUBSET_LIMIT", 1)
    with pytest.raises(SizeLimitError):
        min_distance_dependent_columns(one_row)
    eye = CodeMatrix(f5, ((1, 0), (0, 1)), "generator")
    with pytest.raises(ValueError):
        min_distance_dependent_columns(eye)  # full rank checks only the zero code


def test_rs_matrix_values():
    f5 = FieldSpec(5)
    G = rs_code(f5, 4, 2)
    assert G.values() == [(1, 1, 1, 1), (0, 1, 2, 3)]
    with pytest.raises(ValueError):
        rs_code(f5, 6, 2)  # not enough field elements
    with pytest.raises(ValueError):
        rs_code(f5, 4, 4)


def test_mds_distribution_values():
    assert tuple(mds_distribution(5, 2)) == (1, 0, 0, 0, 5, 1)
    assert tuple(mds_distribution(4, 1)) == (1, 0, 0, 0, 1)
    d = mds_distribution(7, 3)
    assert tuple(d[:5]) == (1, 0, 0, 0, 0)
    assert d[5] == math.comb(7, 5)


def test_stopping_distance_of_a_distribution():
    for n, k in [(5, 2), (4, 1), (7, 3), (30, 12)]:
        assert mds_distribution(n, k).stopping_distance == n - k + 1
        assert mds_distribution(n, k) == Distribution.near_mds(n, n - k, 0)
    assert Distribution((1, 0, 0, 6, 40, 56, 28, 8, 1)).stopping_distance == 3
    assert Distribution((1, 0, 0)).stopping_distance is None  # only the empty set


def near_mds_reference(n, m, s_m):
    """The near-MDS shape size by size, one math.comb per size."""
    counts = [0] * (n + 1)
    counts[0] = 1
    counts[m] = s_m
    counts[m + 1] = math.comb(n, m + 1) - (n - m) * s_m
    for i in range(m + 2, n + 1):
        counts[i] = math.comb(n, i)
    return tuple(counts)


@pytest.mark.parametrize(
    "n, m, s_m",
    [
        (2, 1, 0),
        (2, 1, 1),  # m = n - 1 admits at most one size-m set
        (5, 1, 0),
        (5, 1, 2),  # m = 1: nothing to zero below m
        (8, 3, 14),  # the reference code's own #S(3)
        (8, 7, 1),
        (30, 12, 0),
        (131, 4, 80_000),
        (999, 3, 0),
        (1000, 3, 10 ** 6),
        (1000, 999, 1),
        pytest.param(1000, 500, 10 ** 200, id="1000-500-10^200"),
    ],
)
def test_near_mds_against_per_size_comb(n, m, s_m):
    assert tuple(Distribution.near_mds(n, m, s_m)) == near_mds_reference(n, m, s_m)


def test_near_mds_rejects_a_count_past_the_identity():
    # (n - m) * s_m may not exceed C(n, m + 1): T_(m+1) would go negative
    assert Distribution.near_mds(8, 3, 14)[4] == 0
    with pytest.raises(ValueError, match="T_4"):
        Distribution.near_mds(8, 3, 15)


def test_distribution_bound_on_a_wide_row():
    n = 999
    counts = [math.comb(n, i) for i in range(n + 1)]
    assert tuple(Distribution(tuple(counts))) == tuple(counts)
    for i in (1, 3, 499, 500, 998, 999):
        wide = list(counts)
        wide[i] += 1
        with pytest.raises(ValueError, match=f"T_{i} = "):
            Distribution(tuple(wide))


def test_rs_stopping_distribution_is_mds():
    f5 = FieldSpec(5)
    G = rs_code(f5, 5, 2)
    dual_words = all_row_combos(f5, null_space(G).entries)
    dist = stopping_distribution_from_rows(dual_words, 5)
    assert tuple(dist) == tuple(mds_distribution(5, 2))


def test_scaling_columns_preserves_stopping_sets(ref_spec):
    f = ref_spec.field
    rng = random.Random(7)
    G = generator_matrix(ref_spec)
    col_scalars = tuple(rng.randrange(1, f.q) for _ in range(G.ncols))
    scaled = scale_columns(G, col_scalars)
    orig = {support(w) for w in all_row_combos(f, G.entries)}
    new = {support(w) for w in all_row_combos(f, scaled.entries)}
    assert orig == new
    with pytest.raises(ValueError):
        scale_columns(G, (0,) * G.ncols)
    with pytest.raises(ValueError):
        scale_columns(G, col_scalars[:-1])
    with pytest.raises(FieldMismatchError):
        scale_columns(G, (f.q,) * G.ncols)  # values run 0..q-1


def test_submatrix_distributions_dominate(ref_spec):
    full = list(hstar_rows(ref_spec))
    golden = stopping_distribution_from_rows(full, ref_spec.n)
    rng = random.Random(11)
    for _ in range(5):
        k = rng.randrange(1, len(full))
        sub = rng.sample(full, k)
        dist = stopping_distribution_from_rows(sub, ref_spec.n)
        assert all(a >= b for a, b in zip(dist, golden))


def test_distribution_validation():
    with pytest.raises(ValueError):
        Distribution((0, 1))  # empty set must count
    with pytest.raises(ValueError):
        Distribution((1, 9))  # T_1 can be at most C(1, 1)
    d = Distribution((1, 0, 1))
    assert d.n == 2
    assert len(d) == 3
    assert list(d) == [1, 0, 1]


ROW_BOUND_CALLS = [
    # (what streams q^dim words of the reference code, q^dim)
    pytest.param(lambda spec: list(dual_rows(spec)), 5 ** 3, id="dual_rows"),
    pytest.param(lambda spec: list(hstar_rows(spec)), 5 ** 3, id="hstar_rows"),
    pytest.param(hstar_support_masks, 5 ** 3, id="hstar_support_masks"),
    pytest.param(weight_enumerator, 5 ** 3, id="weight_enumerator-spec"),
    pytest.param(lambda spec: weight_enumerator(generator_matrix(spec)), 5 ** 3, id="weight_enumerator-matrix"),
    pytest.param(
        lambda spec: min_distance_bruteforce(null_space(generator_matrix(spec))), 5 ** 5, id="min_distance_bruteforce"
    ),
]


@pytest.mark.parametrize("call, words", ROW_BOUND_CALLS)
def test_row_bound_edge(ref_spec, set_row_limit, call, words):
    set_row_limit(words)
    call(ref_spec)  # q^dim words fit a bound of exactly q^dim
    set_row_limit(words - 1)
    with pytest.raises(SizeLimitError):
        call(ref_spec)


def test_size_guards(ref_spec, set_row_limit):
    set_row_limit(10)
    with pytest.raises(SizeLimitError):
        list(dual_rows(ref_spec))
    with pytest.raises(SizeLimitError):
        list(hstar_rows(ref_spec))
    with pytest.raises(SizeLimitError):
        stopping_distribution_from_rows([], 21)


def test_matrix_validation(f5, f7):
    with pytest.raises(ValueError):
        CodeMatrix(f5, ((1,), (1, 2)), "generator")
    with pytest.raises(ValueError):
        CodeMatrix(f5, ((1,),), "mystery")
    with pytest.raises(FieldMismatchError):
        CodeMatrix(f5, ((f7.q - 1,),), "generator")  # a value of F_7, not of F_5
    with pytest.raises(FieldMismatchError):
        CodeMatrix(f5, ((-1,),), "generator")


def mds_weights(q, n, k):
    """Closed-form weight distribution of an MDS [n, k] code over F_q."""
    d = n - k + 1
    A = [1] + [0] * n
    for w in range(d, n + 1):
        A[w] = math.comb(n, w) * sum(
            (-1) ** j * math.comb(w, j) * (q ** (w - d + 1 - j) - 1) for j in range(w - d + 1)
        )
    return tuple(A)


def test_weight_enumerator_rs_is_mds():
    for q in (5, 7):
        field = FieldSpec(q)
        for n in range(2, q + 1):
            for k in range(1, n):
                G = rs_code(field, n, k)
                # the RS code is the null space of its dual, null_space(G)
                assert weight_enumerator(null_space(G)) == mds_weights(q, n, k), (q, n, k)
                assert weight_enumerator(G) == mds_weights(q, n, n - k), (q, n, k)


def test_weight_enumerator_reference(ref_spec):
    A = weight_enumerator(ref_spec)
    assert sum(A) == 5 ** (ref_spec.n - ref_spec.m)
    assert A[:3] == (1, 0, 0)
    assert A[3] == 4 * 6  # (q - 1) * #S(3)
    census = hstar_census(ref_spec)
    assert sum(census.dual_weights) == 5 ** 3
    assert census.masks == hstar_support_masks(ref_spec)


def test_tampered_dual_weights_raise(ref_spec, set_row_limit):
    B = list(hstar_census(ref_spec).dual_weights)
    n, q, m = ref_spec.n, 5, 3
    assert macwilliams_transform(B, q, m) == weight_enumerator(ref_spec)
    for w in range(n + 1):  # one extra word: the sum leaves q^m
        tampered = B[:]
        tampered[w] += 1
        with pytest.raises(IntegrityError, match="does not divide"):
            macwilliams_transform(tampered, q, m)
    moved = B[:]  # divisible, but A_0 = 2 and A_1 < 0
    moved[n] += q ** m
    with pytest.raises(IntegrityError):
        macwilliams_transform(moved, q, m)
    set_row_limit(10)
    with pytest.raises(SizeLimitError):
        weight_enumerator(ref_spec)
