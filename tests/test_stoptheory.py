from __future__ import annotations

import itertools
import math
import random

import pytest

from stopset import (
    INFINITY,
    AbelianGroup,
    EllipticCodeSpec,
    FieldSpec,
    IntegrityError,
    Point,
    SizeLimitError,
    StoppingStatus,
    Verdict,
    build_S_m_plus,
    add,
    build_report,
    classify,
    count_S_m,
    curve,
    distribution,
    enumerate_S_m,
    enumerate_S_m1,
    group_structure,
    hstar_support_masks,
    is_subgroup_minus_O,
    oracle_agreement_check,
    point_order,
    rational_points,
    recover_S_m,
    scalar_mul,
    spec_all_points,
    stopping_distance,
    sum_points,
)
from stopset import agcode, stoptheory
from stopset.stoptheory import (
    _sum_context,
    count_S_m_of_spec,
    enumerate_S_m1_direct,
    sample_subsets,
)

from conftest import every_size_reference, nonsingular_curves

GOLDEN_S3 = [
    (1, 2, 6), (1, 3, 5), (2, 3, 4), (3, 7, 8), (4, 6, 8), (5, 6, 7),
]

GOLDEN_S4 = [
    (1, 2, 3, 7), (1, 2, 3, 8), (1, 2, 4, 5), (1, 2, 4, 7), (1, 2, 4, 8),
    (1, 2, 5, 7), (1, 2, 5, 8), (1, 2, 7, 8), (1, 3, 4, 6), (1, 3, 4, 7),
    (1, 3, 4, 8), (1, 3, 6, 7), (1, 3, 6, 8), (1, 4, 5, 6), (1, 4, 5, 7),
    (1, 4, 5, 8), (1, 4, 6, 7), (1, 4, 7, 8), (1, 5, 6, 8), (1, 5, 7, 8),
    (1, 6, 7, 8), (2, 3, 5, 6), (2, 3, 5, 7), (2, 3, 5, 8), (2, 3, 6, 7),
    (2, 3, 6, 8), (2, 4, 5, 6), (2, 4, 5, 7), (2, 4, 5, 8), (2, 4, 6, 7),
    (2, 4, 7, 8), (2, 5, 6, 8), (2, 5, 7, 8), (2, 6, 7, 8), (3, 4, 5, 6),
    (3, 4, 5, 7), (3, 4, 5, 8), (3, 4, 6, 7), (3, 5, 6, 8), (4, 5, 7, 8),
]


def test_golden_size_m_sets(ref_spec):
    assert enumerate_S_m(ref_spec) == GOLDEN_S3


def test_golden_size_m_plus_one_sets(ref_spec):
    assert enumerate_S_m1(ref_spec) == GOLDEN_S4
    assert enumerate_S_m1_direct(ref_spec) == GOLDEN_S4


def test_golden_distribution(ref_spec):
    expect = (1, 0, 0, 6, 40, 56, 28, 8, 1)
    assert tuple(distribution(ref_spec)) == expect
    G = is_subgroup_minus_O(ref_spec.curve, ref_spec.D)
    assert count_S_m(G, ref_spec.m) == expect[ref_spec.m]


def test_classify_verdicts(ref_spec):
    def v(A):
        return classify(ref_spec, A)

    assert v(set()).verdict == Verdict.STOPPING_BY_SIZE
    assert v(set()).is_stopping
    assert v({1}).verdict == Verdict.NOT_STOPPING_BY_SIZE
    assert v({5, 7}).verdict == Verdict.NOT_STOPPING_BY_SIZE
    assert v({1, 2, 6}).verdict == Verdict.STOPPING_SUM_ZERO
    assert v({1, 2, 3}).verdict == Verdict.NOT_STOPPING_SUM_NONZERO
    st = v({1, 2, 3, 4})
    assert st.verdict == Verdict.NOT_STOPPING_INTERIOR_ZERO
    assert st.witness == 1  # dropping position 1 leaves a zero-sum triple
    assert not st.is_stopping
    assert v({1, 2, 3, 7}).verdict == Verdict.STOPPING_NO_INTERIOR_ZERO
    assert v({1, 2, 3, 4, 5}).verdict == Verdict.STOPPING_BY_SIZE
    assert v({1, 2, 3, 4, 5}).is_stopping


def test_verdict_strings():
    assert {x.value for x in Verdict} == {
        "NotStopping-BySize",
        "Stopping-BySize",
        "Stopping-SumZero",
        "NotStopping-SumNonzero",
        "Stopping-NoInteriorZero",
        "NotStopping-InteriorZero",
    }


def test_witness_only_with_interior_zero():
    with pytest.raises(ValueError):
        StoppingStatus(Verdict.STOPPING_SUM_ZERO, witness=3)
    with pytest.raises(ValueError):
        StoppingStatus(Verdict.NOT_STOPPING_INTERIOR_ZERO)


def test_classify_rejects_bad_indices(ref_spec):
    with pytest.raises(ValueError):
        classify(ref_spec, {0})
    with pytest.raises(ValueError):
        classify(ref_spec, {9})


def test_extension_family(ref_spec):
    plus = build_S_m_plus(ref_spec, GOLDEN_S3)
    assert len(plus) == (ref_spec.n - ref_spec.m) * len(GOLDEN_S3)  # 30
    for ext in plus:
        assert len(ext) == 4
        assert any(set(s) <= set(ext) for s in GOLDEN_S3)
        assert not classify(ref_spec, ext).is_stopping
    assert recover_S_m(ref_spec, plus) == GOLDEN_S3
    # S(4) is exactly the complement of the extensions
    all4 = set(itertools.combinations(range(1, 9), 4))
    assert sorted(all4 - set(plus)) == GOLDEN_S4


def test_extension_collision_detected(ref_spec):
    with pytest.raises(IntegrityError):
        build_S_m_plus(ref_spec, [(1, 2, 6), (1, 2, 6)])


def test_recover_rejects_foreign_sets(ref_spec):
    # a size-4 stopping set does not sum to any of its own points
    with pytest.raises(IntegrityError):
        recover_S_m(ref_spec, [GOLDEN_S4[0]])


def test_complement_vs_direct_on_second_curve(f7):
    E = curve(f7, 0, 1)
    spec = spec_all_points(E, 3)
    assert enumerate_S_m1(spec) == enumerate_S_m1_direct(spec)


def test_count_matches_group_formula(ref_spec):
    G = AbelianGroup((9,))
    assert count_S_m_of_spec(ref_spec) == count_S_m(G, 3) == 6


def test_count_dp_route_agrees(ref_spec, f7):
    # the coordinate DP counts what the enumeration lists
    assert count_S_m_of_spec(ref_spec) == len(enumerate_S_m(ref_spec)) == 6
    E = curve(f7, 0, 1)
    for m in (2, 3, 4):
        spec = spec_all_points(E, m)
        assert count_S_m_of_spec(spec) == len(enumerate_S_m(spec))
    # a non-subgroup evaluation set takes the same two routes
    partial = EllipticCodeSpec(ref_spec.curve, ref_spec.D[:7], 3)
    assert count_S_m_of_spec(partial) == len(enumerate_S_m(partial))


def test_stopping_distance_both_cases(ref_spec):
    assert stopping_distance(ref_spec) == 3  # a size-m stopping set exists
    # no pair of these three points sums to infinity, so s = m + 1
    short = EllipticCodeSpec(ref_spec.curve, ref_spec.D[:3], 2)
    assert stopping_distance(short) == 3 == short.m + 1
    assert tuple(distribution(short)) == (1, 0, 0, 1)


def test_formula_source_needs_subgroup(ref_spec):
    # no group to count in, so the formula is out; the DP still counts
    partial = EllipticCodeSpec(ref_spec.curve, ref_spec.D[:7], 3)
    assert is_subgroup_minus_O(partial.curve, partial.D) is None
    assert distribution(partial)[3] == len(enumerate_S_m(partial))


def test_is_subgroup_minus_O(ref_spec):
    E = ref_spec.curve
    assert is_subgroup_minus_O(E, ref_spec.D).invariant_factors == (9,)
    assert is_subgroup_minus_O(E, ref_spec.D[:7]) is None
    # the 3-torsion: multiples 3 and 6 of the base point
    sub = (ref_spec.D[2], ref_spec.D[5])
    assert is_subgroup_minus_O(E, sub).invariant_factors == (3,)
    pts = rational_points(E)
    assert is_subgroup_minus_O(E, pts) is None  # infinity not allowed in D


def test_rank_two_subgroup_found():
    f13 = FieldSpec(13)
    for E in nonsingular_curves(f13):
        gs = group_structure(E)
        if gs.m1 % 3 == 0 and gs.m2 % 3 == 0:
            torsion = tuple(
                P
                for P in rational_points(E)
                if not P.is_infinity and scalar_mul(E, 3, P).is_infinity
            )
            assert len(torsion) == 8
            G = is_subgroup_minus_O(E, torsion)
            assert G.invariant_factors == (3, 3)
            return
    pytest.fail("no curve over F_13 carries full 3-torsion")


def test_oracle_agreement_clean(ref_spec, monkeypatch):
    masks = hstar_support_masks(ref_spec)
    assert oracle_agreement_check(ref_spec, masks) == []
    monkeypatch.setattr(stoptheory, "SAMPLE_CAP", 10)
    assert oracle_agreement_check(ref_spec, masks, seed=3) == []


def test_oracle_agreement_flags_foreign_masks(ref_spec):
    # a weight-1 row on column 1 unstops every subset holding position 1
    found = oracle_agreement_check(ref_spec, hstar_support_masks(ref_spec) | {1})
    assert found
    for rec in found:
        assert 1 in rec["subset"] and rec["classify"] and not rec["oracle"]
    assert {len(rec["subset"]) for rec in found} == {3, 4, 5}
    # with no rows every subset stops, which classify denies below size m + 2
    found = oracle_agreement_check(ref_spec, frozenset())
    assert {len(rec["subset"]) for rec in found} == {2, 3, 4}


def test_sample_subsets_behaviour():
    full = sample_subsets(8, 3, 1000, random.Random(0))
    assert len(full) == math.comb(8, 3)
    capped = sample_subsets(20, 5, 100, random.Random(1))
    assert len(capped) == 100
    assert len(set(capped)) == 100
    assert capped == sorted(capped)
    again = sample_subsets(20, 5, 100, random.Random(1))
    assert capped == again


def test_enumeration_size_guard(ref_spec, monkeypatch):
    # n = 8 and m = 3: C(8, 3) = 56 sets of size m, C(8, 4) = 70 of size m + 1
    monkeypatch.setattr(agcode, "SUBSET_LIMIT", 55)
    with pytest.raises(SizeLimitError):
        enumerate_S_m(ref_spec)
    monkeypatch.setattr(agcode, "SUBSET_LIMIT", 69)
    assert len(enumerate_S_m(ref_spec)) == 6
    with pytest.raises(SizeLimitError):
        enumerate_S_m1(ref_spec)
    with pytest.raises(SizeLimitError):
        enumerate_S_m1_direct(ref_spec)


def test_report(ref_spec):
    rep = build_report(ref_spec)
    assert rep.S_m == GOLDEN_S3
    assert rep.S_m_count == 6
    assert tuple(rep.distribution) == (1, 0, 0, 6, 40, 56, 28, 8, 1)
    assert rep.stopping_distance == 3
    assert rep.oracle_agreement is True
    assert rep.oracle_mismatches == []
    assert (rep.group.m1, rep.group.m2) == (1, 9)


def test_report_skips_what_is_too_large(ref_spec, monkeypatch, set_row_limit):
    monkeypatch.setattr(stoptheory, "SET_LIMIT", 5)  # #S(3) = 6 sets
    set_row_limit(5 ** 3 - 1)
    skipped = build_report(ref_spec)
    assert skipped.S_m is None
    assert skipped.S_m_count == 6
    assert skipped.oracle_mismatches is None
    assert skipped.oracle_agreement is None


# -- the coordinate route against the curve law -------------------------------


def closure_reference(E, D):
    """The curve-law subgroup test: D with infinity closed under chord-and-
    tangent addition, invariant factors from the point orders."""
    pts = set(D)
    if INFINITY in pts:
        return None
    full = pts | {INFINITY}
    if any(add(E, P, Q) not in full for P in pts for Q in pts):
        return None
    exponent = math.lcm(1, *(point_order(E, P) for P in pts))
    return AbelianGroup.from_cyclic_factors((len(full) // exponent, exponent))


def curve_law_stopping(spec, A):
    """Whether a size-m or size-(m+1) subset stops, from sum_points."""
    pts = [spec.D[i - 1] for i in A]
    if len(A) == spec.m:
        return sum_points(spec.curve, pts) == INFINITY
    return all(sum_points(spec.curve, pts[:k] + pts[k + 1:]) != INFINITY for k in range(len(pts)))


def evaluation_sets(E):
    """D = all affine points, a torsion subgroup minus O, every second
    point.  The torsion is E[e/p] for the exponent e and its least prime
    factor p, which is rank two whenever E(F_q) is and p divides m1."""
    affine = rational_points(E)[1:]
    e = math.lcm(*(point_order(E, P) for P in affine))
    d = e // min(p for p in range(2, e + 1) if e % p == 0)
    torsion = tuple(P for P in affine if scalar_mul(E, d, P) == INFINITY)
    return {"all": affine, "torsion": torsion, "every-second": affine[::2]}


def curves_for(field_text, rng):
    field = FieldSpec(*(int(t) for t in field_text.split(",")))
    curves = nonsingular_curves(field)
    return curves if field.k == 1 else rng.sample(curves, 3)


@pytest.mark.parametrize("field_text", ["5", "7", "5,2", "7,2"])
def test_coordinate_route_matches_curve_law(field_text):
    rng = random.Random(field_text)
    for E in curves_for(field_text, rng):
        for kind, D in evaluation_sets(E).items():
            want = closure_reference(E, D)
            assert is_subgroup_minus_O(E, D) == want, (E, kind)
            assert want is not None or kind == "every-second"
            for m in {2, 3} & set(range(1, len(D))):
                spec = EllipticCodeSpec(E, D, m)
                for size in (m, m + 1):
                    if size > spec.n:
                        continue
                    for _ in range(10):
                        A = sorted(rng.sample(range(1, spec.n + 1), size))
                        status = classify(spec, A)
                        assert status.is_stopping == curve_law_stopping(spec, A), (E, kind, A)
                        if status.witness is not None:
                            rest = [spec.D[i - 1] for i in A if i != status.witness]
                            assert sum_points(E, rest) == INFINITY


def test_equal_specs_share_one_context(f7):
    E = curve(f7, 3, 2)
    first = spec_all_points(E, 2)
    second = EllipticCodeSpec(E, tuple(first.D), 2)
    assert first is not second and first == second
    assert hash(first) == hash(second)
    before = _sum_context.cache_info().currsize
    assert _sum_context(first) is _sum_context(second)
    assert _sum_context.cache_info().currsize <= before + 1
    misses = group_structure.cache_info().misses
    build_report(first)
    build_report(EllipticCodeSpec(E, first.D[:-1], 3))
    assert group_structure.cache_info().misses == misses


def test_subgroup_test_rejects_off_curve_points(ref_spec, f5):
    stray = Point(0, 0)  # 0 != 0^3 + 0 + 1
    assert not ref_spec.curve.is_on_curve(stray)
    with pytest.raises(ValueError):
        is_subgroup_minus_O(ref_spec.curve, ref_spec.D + (stray,))


# -- the oracle check settles every size from the zero sets -------------------


def perturbed_masks(masks, n, m, rng):
    """The clean supports; one bit of one flipped; one dropped; a row of
    weight one added; no rows at all.  Where such rows exist, also: a row
    with m - 1 zeros dropped, or one bit of it flipped; and a spurious row
    whose m - 1 zeros complete into D, a zero-sum m-set less one point."""
    full = (1 << n) - 1
    r = rng.choice(sorted(masks))
    out = [
        ("clean", masks),
        ("flipped", masks - {r} | {r ^ (1 << rng.randrange(n))}),
        ("dropped", masks - {r}),
        ("weight-one", masks | {1}),
        ("empty", frozenset()),
    ]
    short = sorted(s for s in masks if (full ^ s).bit_count() == m - 1)
    if short:
        s = rng.choice(short)
        out.append(("dropped-short", masks - {s}))
        out.append(("flipped-short", masks - {s} | {s ^ (1 << rng.randrange(n))}))
    zero_sum = sorted(z for z in masks if (full ^ z).bit_count() == m)
    if zero_sum:
        z = rng.choice(zero_sum)
        zeros = [1 << j for j in range(n) if not z >> j & 1]
        out.append(("spurious-short", masks | {z | rng.choice(zeros)}))
    return out


@pytest.mark.parametrize("field_text", ["5", "7", "11", "13", "5,2", "7,2"])
def test_settled_check_equals_every_size_check(field_text, monkeypatch):
    rng = random.Random(f"settle-{field_text}")
    field = FieldSpec(*(int(t) for t in field_text.split(",")))
    for E in rng.sample(nonsingular_curves(field), 2 if field.k == 1 else 1):
        for kind, D in evaluation_sets(E).items():
            for m in range(1, min(5, len(D) - 1) + 1):
                if field.q ** m > 3000:
                    break
                spec = EllipticCodeSpec(E, D, m)
                clean = hstar_support_masks(spec)
                assert stoptheory._zero_sets_settle(spec, clean), (E, kind, m)
                for label, masks in perturbed_masks(clean, spec.n, m, rng):
                    if label.endswith("-short"):
                        assert not stoptheory._zero_sets_settle(spec, masks), (E, kind, m, label)
                    for cap in (5000, 20):
                        seed = rng.randrange(1000)
                        monkeypatch.setattr(stoptheory, "SAMPLE_CAP", cap)
                        want = every_size_reference(spec, masks, cap, seed)
                        got = oracle_agreement_check(spec, masks, seed)
                        assert got == want, (E, kind, m, label, cap)
                        assert (label == "clean") <= (got == [])


def test_zero_sets_settle_needs_both_conditions(ref_spec):
    n, m = ref_spec.n, ref_spec.m
    full = (1 << n) - 1
    clean = hstar_support_masks(ref_spec)
    assert stoptheory._zero_sets_settle(ref_spec, clean)
    # a row vanishing at m + 1 positions
    assert not stoptheory._zero_sets_settle(ref_spec, clean | {full ^ 0b1111})
    # one zero-sum m-set no longer the zero set of any row
    zero_m = sorted(r for r in clean if (full ^ r).bit_count() == m)
    assert len(zero_m) == len(GOLDEN_S3)
    assert not stoptheory._zero_sets_settle(ref_spec, clean - {zero_m[0]})
    # a row vanishing on an m-set that does not sum to O
    assert not stoptheory._zero_sets_settle(ref_spec, clean | {full ^ 0b111})
    # one row with m - 1 zeros gone: position i carries [i]P in Z/9, and
    # {1, 8} completes to O, outside D
    assert full ^ 0b10000001 in clean
    assert not stoptheory._zero_sets_settle(ref_spec, clean - {full ^ 0b10000001})
    # a spurious row vanishing on {1, 2}, which completes to 6 in D: the
    # zero set of its row is {1, 2, 6}
    assert full ^ 0b00100011 in clean and full ^ 0b11 not in clean
    assert not stoptheory._zero_sets_settle(ref_spec, clean | {full ^ 0b11})


@pytest.mark.parametrize(
    "bad",
    [1 << 8, 0b11 | 1 << 70, -1, (1 << 9) - 1],
    ids=["bit-at-n", "bit-far-past-n", "negative", "full-row-and-bit-at-n"],
)
def test_oracle_check_rejects_masks_outside_the_columns(ref_spec, bad):
    # n = 8.  Beside the clean masks the last would settle: its 9 bits
    # leave no zero set, so only the range check refuses it
    assert ref_spec.n == 8
    for masks in ({bad}, hstar_support_masks(ref_spec) | {bad}):
        with pytest.raises(ValueError, match="outside the 8 columns"):
            oracle_agreement_check(ref_spec, masks)


def test_settled_check_samples_no_subsets(ref_spec, monkeypatch):
    sizes = []
    real = stoptheory.sample_subsets

    def recording(n, size, cap, rng):
        sizes.append(size)
        return real(n, size, cap, rng)

    monkeypatch.setattr(stoptheory, "sample_subsets", recording)
    m = ref_spec.m
    assert oracle_agreement_check(ref_spec, hstar_support_masks(ref_spec), seed=1) == []
    assert sizes == []
    assert oracle_agreement_check(ref_spec, hstar_support_masks(ref_spec) | {1}, seed=1)
    assert sizes == [m - 1, m, m + 1, m + 2]
