"""End-to-end acceptance checks.

One test per advertised guarantee, each timed against its budget and
printing a single PASS line (run with -s to watch them).  Oracles here are
written out longhand on purpose: subset enumeration by explicit masks,
dual codebooks by explicit coefficient products.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from collections import defaultdict

import pytest

from stopset import (
    AbelianGroup,
    EllipticCodeSpec,
    FieldSpec,
    Point,
    count_S_m,
    count_formula,
    curve,
    distribution,
    dp_count,
    enumerate_S_m,
    enumerate_S_m1,
    generator_matrix,
    group_structure,
    hstar_rows,
    hstar_support_masks,
    make_instance,
    mds_distribution,
    min_distance_bruteforce,
    null_space,
    peel,
    rational_points,
    recover_S_m,
    residue_min_distance,
    rs_code,
    scalar_mul,
    scale_columns,
    spec_all_points,
    stopping_distance,
    weight_enumerator,
)
from stopset.agcode import (
    ROW_LIMIT,
    is_stopping_set_masks,
    min_distance_dependent_columns,
    stopping_distribution_from_rows,
    subset_mask,
    support_masks,
)
from stopset.cli import VERIFY_MAX_ROWS
from stopset.groupcount import all_groups_of_order, subset_sum_table
from stopset.ffield import parse_field
from stopset.stoptheory import (
    build_S_m_plus,
    enumerate_S_m1_direct,
    is_subgroup_minus_O,
    oracle_agreement_check,
)

from conftest import every_size_reference, nonsingular_curves

REFERENCE_S3 = [
    (1, 2, 6), (1, 3, 5), (2, 3, 4), (3, 7, 8), (4, 6, 8), (5, 6, 7),
]
REFERENCE_DISTRIBUTION = (1, 0, 0, 6, 40, 56, 28, 8, 1)


def _done(num: int, label: str, t0: float, budget: float) -> None:
    elapsed = time.monotonic() - t0
    assert elapsed < budget, f"criterion {num} overran: {elapsed:.1f}s >= {budget:g}s"
    print(f"PASS criterion {num:02d} [{elapsed:7.2f}s < {budget:g}s] {label}")


# --- shared oracles ---------------------------------------------------------


def value_combos(field, rows):
    """Every linear combination of the value rows, by brute coefficient
    products; the definitional dual codebook."""
    n = len(rows[0]) if rows else 0
    words = [(0,) * n]
    for row in rows:
        scaled = [tuple(field.mul_val(c, v) for v in row) for c in range(field.q)]
        words = [
            tuple(field.add_val(a, b) for a, b in zip(w, s))
            for w in words
            for s in scaled
        ]
    return words


def exhaustive_counts(G):
    """table[k][coords] = subsets of the nonzero elements of size k with
    that sum, visited one by one.

    Up to 16 elements every subset mask is walked directly; beyond that the
    elements are split in half, each half walked in full, and the tallies
    convolved.  Every subset of every half is still enumerated literally.
    """
    mods = G.invariant_factors
    zero = tuple(0 for _ in mods)

    def add(a, b):
        return tuple((x + y) % d for x, y, d in zip(a, b, mods))

    def walk(items):
        table = [defaultdict(int) for _ in range(len(items) + 1)]
        sums = [zero] * (1 << len(items))
        table[0][zero] += 1
        for mask in range(1, 1 << len(items)):
            low = (mask & -mask).bit_length() - 1
            sums[mask] = add(sums[mask ^ (1 << low)], items[low])
            table[mask.bit_count()][sums[mask]] += 1
        return table

    def convolve(A, B):
        out = [defaultdict(int) for _ in range(len(A) + len(B) - 1)]
        for ka, da in enumerate(A):
            for kb, db in enumerate(B):
                bucket = out[ka + kb]
                for sa, ca in da.items():
                    for sb, cb in db.items():
                        bucket[add(sa, sb)] += ca * cb
        return out

    nz = G.nonzero_elements()
    if len(nz) <= 16:
        return walk(nz)
    half = len(nz) // 2
    return convolve(walk(nz[:half]), walk(nz[half:]))


def reference_spec():
    f5 = FieldSpec(5)
    E = curve(f5, 1, 1)
    base = Point(0, 1)
    D = tuple(scalar_mul(E, i, base) for i in range(1, 9))
    return EllipticCodeSpec(E, D, 3)


@pytest.fixture(scope="module")
def ref():
    return reference_spec()


@pytest.fixture(scope="module")
def sweep_specs(f5, f7):
    specs = []
    for field in (f5, f7):
        for E in nonsingular_curves(field):
            n = len(rational_points(E)) - 1
            for m in (2, 3, 4):
                if m < n and field.q ** m <= VERIFY_MAX_ROWS:
                    specs.append(spec_all_points(E, m))
    return specs


def rs_family():
    out = []
    for q in (5, 7):
        field = FieldSpec(q)
        for n in range(2, q + 1):
            for k in range(1, n):
                if q ** (n - k) <= 2 ** 17:
                    out.append((field, n, k))
    return out


# --- the criteria -----------------------------------------------------------


def test_criterion_01(ref):
    t0 = time.monotonic()
    pts = rational_points(ref.curve)
    assert len(pts) == 9
    gs = group_structure(ref.curve)
    assert (gs.m1, gs.m2) == (1, 9)
    assert enumerate_S_m(ref) == REFERENCE_S3
    assert len(enumerate_S_m1(ref)) == 40
    assert tuple(distribution(ref)) == REFERENCE_DISTRIBUTION
    assert stopping_distance(ref) == 3
    assert min_distance_bruteforce(null_space(generator_matrix(ref))) == 3
    _done(1, "reference curve census, distribution, distances", t0, 5.0)


def test_criterion_02():
    t0 = time.monotonic()
    rng = random.Random(2)
    groups = checked = 0
    for N in range(1, 33):
        for G in all_groups_of_order(N):
            table = exhaustive_counts(G)
            targets = G.elements()
            for k in range(N):
                layer = table[k] if k < len(table) else {}
                for b in targets:
                    assert count_formula(G, k, b) == layer.get(b, 0)
                    checked += 1
            nz = G.nonzero_elements()
            if nz:
                dp_table = subset_sum_table(G, nz)
                for k in range(len(nz) + 1):
                    assert dict(dp_table[k]) == dict(table[k])
                for _ in range(3):
                    k = rng.randrange(0, len(nz) + 1)
                    b = targets[rng.randrange(len(targets))]
                    assert dp_count(G, nz, k, b) == table[k].get(b, 0)
            groups += 1
    assert groups == 55  # sum of partition-shape counts over N <= 32
    _done(2, f"counting formula vs dp vs enumeration ({groups} groups, {checked} values)", t0, 60.0)


def test_criterion_03():
    t0 = time.monotonic()
    from stopset.groupcount import (
        closed_form_p_power,
        closed_form_two_power_terms,
        closed_form_two_primes,
    )

    for p, t in [(2, 2), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3), (2, 5), (7, 2), (2, 6)]:
        G = AbelianGroup((p ** t,))
        for m in range(1, G.order):
            assert closed_form_p_power(p, t, m) == count_S_m(G, m)
    for p, t1, t2 in [(2, 1, 2), (3, 1, 2), (2, 1, 3)]:
        G = AbelianGroup((p ** t1, p ** t2))
        for m in range(1, G.order):
            assert closed_form_two_power_terms(p, t1, t2, m) == count_S_m(G, m)
    for p1, t1, p2, t2 in [(2, 1, 3, 1), (2, 2, 3, 1), (2, 1, 3, 2)]:
        G = AbelianGroup.from_cyclic_factors([p1 ** t1, p2 ** t2])
        for m in range(1, G.order):
            assert closed_form_two_primes(p1, t1, p2, t2, m) == count_S_m(G, m)
    _done(3, "closed forms match the counting formula", t0, 30.0)


def test_criterion_04(sweep_specs):
    t0 = time.monotonic()
    assert len(sweep_specs) > 100
    for spec in sweep_specs:
        masks = hstar_support_masks(spec)
        mismatches = oracle_agreement_check(spec, masks, seed=4)
        assert mismatches == [], f"{spec.curve}: {mismatches[:3]}"
        # the check above is a proof on clean masks; this one compares
        # subset by subset
        mismatches = every_size_reference(spec, masks, 5000, 4)
        assert mismatches == [], f"{spec.curve}: {mismatches[:3]}"
    _done(4, f"classification = matrix oracle on {len(sweep_specs)} codes", t0, 600.0)


def test_criterion_05(sweep_specs):
    t0 = time.monotonic()
    for spec in sweep_specs:
        s_m = enumerate_S_m(spec)
        plus = build_S_m_plus(spec, s_m)  # validates count and collisions
        assert len(plus) == (spec.n - spec.m) * len(s_m)
        direct = enumerate_S_m1_direct(spec)
        assert not set(plus) & set(direct)
        every = set(itertools.combinations(range(1, spec.n + 1), spec.m + 1))
        assert set(plus) | set(direct) == every
        if s_m:
            assert recover_S_m(spec, plus) == s_m
    _done(5, "extension family: disjoint, complete, reversible", t0, 120.0)


def test_criterion_06():
    t0 = time.monotonic()
    codes = rs_family()
    assert len(codes) == 31
    for field, n, k in codes:
        G = rs_code(field, n, k)
        words = value_combos(field, null_space(G).values())
        assert len(words) == field.q ** (n - k)
        dist = stopping_distribution_from_rows(words, n)
        expect = mds_distribution(n, k)
        assert tuple(dist) == tuple(expect)
        for i in range(1, n - k + 1):
            assert dist[i] == 0
        for i in range(n - k + 1, n + 1):
            assert dist[i] == math.comb(n, i)
    _done(6, f"MDS stopping distributions exact on {len(codes)} codes", t0, 120.0)


def test_criterion_07(ref):
    t0 = time.monotonic()
    star = list(hstar_rows(ref))
    codeword = null_space(generator_matrix(ref)).entries[0]
    family = [set(s) for s in REFERENCE_S3 + enumerate_S_m1(ref)]
    shuffles = []
    for s in range(10):
        rows = star[:]
        random.Random(1000 + s).shuffle(rows)
        shuffles.append(rows)
    checked = 0
    for size in range(6):
        for S in itertools.combinations(range(1, 9), size):
            inst = make_instance(ref, codeword, S)
            recovered, residual = peel(star, inst)
            blocked = any(s <= set(S) for s in family) or size >= 5
            assert (residual == frozenset()) == (not blocked), S
            assert is_stopping_set_masks(support_masks(star), subset_mask(residual)) or not residual
            for j in range(1, 9):
                if j not in residual:
                    assert recovered[j - 1] == codeword[j - 1]
            for rows in shuffles:
                assert peel(rows, inst)[1] == residual
            checked += 1
    assert checked == 219
    _done(7, "decoder stalls exactly on stopping subsets, order-free", t0, 120.0)


def test_criterion_08(ref, sweep_specs):
    t0 = time.monotonic()
    assert stopping_distance(ref) == 3
    assert min_distance_bruteforce(null_space(generator_matrix(ref))) == 3
    for spec in sweep_specs:
        assert stopping_distance(spec) == residue_min_distance(spec), spec.curve
    for field, n, k in rs_family():
        dist = mds_distribution(n, k)
        s = next(i for i in range(1, n + 1) if dist[i])
        assert s == n - k + 1
        assert min_distance_bruteforce(rs_code(field, n, k)) == n - k + 1
    _done(8, "stopping distance = minimum distance everywhere", t0, 300.0)


def test_criterion_09(ref):
    t0 = time.monotonic()
    G = generator_matrix(ref)
    f = ref.field

    def family(masks):
        verdicts = []
        for size in range(6):
            for S in itertools.combinations(range(1, 9), size):
                verdicts.append(is_stopping_set_masks(masks, subset_mask(S)))
        return verdicts

    baseline = family(support_masks(value_combos(f, G.values())))
    rng = random.Random(9)
    for _ in range(5):
        scalars = tuple(rng.randrange(1, f.q) for _ in range(G.ncols))
        scaled = scale_columns(G, scalars)
        assert family(support_masks(value_combos(f, scaled.values()))) == baseline
    _done(9, "column scaling never moves the stopping family", t0, 60.0)


def test_criterion_10(ref):
    t0 = time.monotonic()
    star = list(hstar_rows(ref))
    golden = stopping_distribution_from_rows(star, ref.n)
    assert tuple(golden) == REFERENCE_DISTRIBUTION
    rng = random.Random(10)
    for _ in range(20):
        size = rng.randrange(1, len(star))
        sub = rng.sample(star, size)
        dist = stopping_distribution_from_rows(sub, ref.n)
        assert all(a >= b for a, b in zip(dist, golden))
    _done(10, "row deletion only grows the distribution", t0, 60.0)


def test_criterion_11(f5, f7):
    t0 = time.monotonic()

    def check(spec, oracle):
        A = weight_enumerator(spec)
        assert A[spec.m] == (spec.field.q - 1) * len(enumerate_S_m(spec)), spec
        d = next(w for w in range(1, spec.n + 1) if A[w])
        assert d == residue_min_distance(spec) == oracle(spec), spec

    def brute(spec):
        # full codeword enumeration where it fits; 13 codes over F_7 exceed 2^22 words
        if spec.field.q ** (spec.n - spec.m) <= ROW_LIMIT:
            return min_distance_bruteforce(null_space(generator_matrix(spec)))
        return columns(spec)

    def columns(spec):
        return min_distance_dependent_columns(generator_matrix(spec))

    small = 0
    for field in (f5, f7):
        for E in nonsingular_curves(field):
            n = len(rational_points(E)) - 1
            for m in (2, 3):
                if m < n:
                    check(spec_all_points(E, m), brute)
                    small += 1
    assert small == 109
    f25 = parse_field("5,2")
    for E in random.Random(11).sample(nonsingular_curves(f25), 8):
        for m in (2, 3):
            check(spec_all_points(E, m), columns)
    subsets = 0
    for field in (f7, FieldSpec(11), FieldSpec(13)):
        for E in nonsingular_curves(field)[::7]:
            D = tuple(P for P in rational_points(E) if not P.is_infinity)[::2]
            if is_subgroup_minus_O(E, D) is not None:
                continue
            for m in (2, 3):
                if m < len(D):
                    check(EllipticCodeSpec(E, D, m), columns)
                    subsets += 1
    assert subsets > 20
    _done(11, f"A_m = (q-1)#S(m) and MacWilliams distance on {small} + 16 + {subsets} codes", t0, 120.0)
