"""The packed-int routes of the group-law half of `report`, each against
the slower route it replaced, kept here as the reference:

- group_structure, which reads m1 from the Sylow subgroups the Weil
  pairing allows, against the order census by repeated addition
  (census_reference), with the generator search on top of it;
- the packed #S(m) DP against groupcount.subset_sum_table and the
  flat-list DP it replaced;
- the Krawtchouk MacWilliams transform against the binomial double sum;
- the Hermite-form subgroup test against the closure scan;
- the packed size casework against sums of curve points;
- the sampler against its contract;
- the extension-field tables against polynomial arithmetic.
"""

from __future__ import annotations

import importlib
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
    SizeLimitError,
    StoppingStatus,
    Verdict,
    add,
    classify,
    curve,
    enumerate_S_m,
    generator_matrix,
    group_structure,
    neg,
    point_order,
    rational_points,
    scalar_mul,
    spec_all_points,
    sum_points,
)
from stopset.agcode import hstar_census, macwilliams_transform
from stopset.curve import CENSUS_MAX_ORDER, hasse_bound
from stopset.ffield import _OP_TABLE_BOUND, _op_tables, _poly_mul, _poly_rem, factorize
from stopset.groupcount import subset_sum_table
from stopset.reference import recover_S_m
from stopset.stoptheory import count_S_m_of_spec, is_subgroup_minus_O, sample_subsets

from conftest import nonsingular_curves


def census_reference(E):
    """The census by repeated addition: every order from point_order (-P
    has the order of P), m2 their lcm, g2 the first point of order m2 and
    g1 the first point of order m1 whose multiples with g2 cover the group
    once."""
    pts = rational_points(E)
    orders = {}
    for P in pts:
        if P not in orders:
            orders[P] = orders[neg(E, P)] = point_order(E, P)
    m2 = math.lcm(*orders.values())
    m1 = len(pts) // m2
    g2 = next(P for P in pts if orders[P] == m2)
    for g1 in (P for P in pts if orders[P] == m1):
        table = {}
        for c1, c2 in itertools.product(range(m1), range(m2)):
            table.setdefault(add(E, scalar_mul(E, c1, g1), scalar_mul(E, c2, g2)), (c1, c2))
        if len(table) == len(pts):
            return m1, m2, (g1, g2), table
    raise AssertionError("no generator pair covers the group")


def seeded_curves(field, count, seed):
    return random.Random(seed).sample(nonsingular_curves(field), count)


CENSUS_CURVES = [
    *nonsingular_curves(FieldSpec(5)),
    *nonsingular_curves(FieldSpec(7)),
    *seeded_curves(FieldSpec(5, 2), 3, 25),
    *seeded_curves(FieldSpec(7, 2), 3, 49),
]


def _check_census(E):
    m1, m2, generators, table = census_reference(E)
    gs = group_structure(E)
    assert (gs.m1, gs.m2) == (m1, m2)
    assert gs.generators == generators
    assert dict(gs.coordinate_map) == table
    return m1


def test_census_matches_repeated_addition_at_n_1060():
    E = curve(FieldSpec(1009), 1, 3)
    assert _check_census(E) == 2
    assert group_structure(E).order == 1060


def test_point_order_stops_at_the_hasse_bound(monkeypatch):
    E = curve(FieldSpec(5), 1, 1)
    P = rational_points(E)[1]
    monkeypatch.setattr(importlib.import_module("stopset.curve"), "_add_unchecked", lambda E, P, Q: P)
    with pytest.raises(IntegrityError, match="Hasse bound 10"):
        point_order(E, P)


@pytest.mark.parametrize("p, inside", [(8011, True), (8017, False)])  # Hasse bounds 8191, 8197
def test_census_bound(monkeypatch, p, inside):
    class Enumerated(Exception):
        pass

    def enumerated(E):
        raise Enumerated

    assert (hasse_bound(p) <= CENSUS_MAX_ORDER) == inside
    monkeypatch.setattr(importlib.import_module("stopset.curve"), "rational_points", enumerated)
    with pytest.raises(Enumerated if inside else SizeLimitError):
        group_structure(curve(FieldSpec(p), 1, 3))


CENSUS_FIELDS = [*map(FieldSpec, (5, 7, 11, 13, 17, 19, 23)), FieldSpec(5, 2), FieldSpec(7, 2)]


@pytest.mark.parametrize("field", CENSUS_FIELDS, ids=repr)
def test_group_structure_matches_the_census_reference(field):
    shapes = set()
    for E in nonsingular_curves(field):
        N = len(rational_points(E))
        # the Sylow scan runs for each prime l | q - 1 with l^2 | N
        scanned = any((field.q - 1) % ell == 0 and N % ell ** 2 == 0 for ell in factorize(N))
        m1 = _check_census(E)
        shapes.add((scanned, m1 > 1))
    # the census finds m1 > 1 only where a scan runs, and the scan meets
    # cyclic and other groups
    assert shapes == {(False, False), (True, False), (True, True)}


def _structure_faults(E, pts):
    """(fake _mul_unchecked, fake _add_unchecked or None, error) per fault
    on a cyclic group E whose points are pts."""
    low = next(P for P in pts if point_order(E, P) == 3)
    # the faked addition steps through pts in order, then back to pts[1], not to O
    step = lambda E, P, Q: pts[pts.index(P) % (len(pts) - 1) + 1]
    return {
        "repeat": (lambda E, n, P: P if P == low else INFINITY, None, "no generator pair"),
        "no-generator": (lambda E, n, P: INFINITY, None, "no point has order m2 = 9"),
        "no-return": (lambda E, n, P: P, step, "is not the point at infinity"),
    }


@pytest.mark.parametrize("fault", ["repeat", "no-generator", "no-return"])
def test_group_structure_certifies_itself(monkeypatch, fault):
    E = curve(FieldSpec(5), 1, 1)  # cyclic of order 9
    pts = rational_points(E)
    fake_mul, fake_add, message = _structure_faults(E, pts)[fault]
    module = importlib.import_module("stopset.curve")
    monkeypatch.setattr(module, "_mul_unchecked", fake_mul)
    if fake_add is not None:
        monkeypatch.setattr(module, "_add_unchecked", fake_add)
    group_structure.cache_clear()
    try:
        with pytest.raises(IntegrityError, match=message):
            group_structure(E)
    finally:
        group_structure.cache_clear()


# -- the #S(m) DP ---------------------------------------------------------------


def dp_reference(spec):
    """#S(m) by subset_sum_table over coordinate tuples."""
    gs = group_structure(spec.curve)
    moduli = (gs.m1, gs.m2)
    G = AbelianGroup.from_cyclic_factors(moduli)
    elements = [
        G.element(c for c, d in zip(gs.coordinate_map[P], moduli) if d != 1) for P in spec.D
    ]
    return subset_sum_table(G, elements, spec.m)[spec.m].get(G.identity(), 0)


def evaluation_sets(E, rng):
    """D = E \\ {O}; E[d] \\ {O} for the exponent e over its least prime;
    every second point; two seeded subsets that are not subgroups."""
    affine = rational_points(E)[1:]
    e = group_structure(E).m2
    d = e // min(p for p in range(2, e + 1) if e % p == 0)
    sets = {
        "all": affine,
        "torsion": tuple(P for P in affine if scalar_mul(E, d, P) == INFINITY),
        "every-second": affine[::2],
    }
    for k in range(2):
        size = rng.randrange(1, len(affine) + 1)
        sets[f"seeded-{k}"] = tuple(rng.sample(affine, size))
    return sets


def list_dp_reference(spec):
    """#S(m) by the flat-list DP: layer k is a list of N counts indexed by
    c1 * m2 + c2, and a point (c1, c2) adds layer k - 1, each m2-block
    rolled by c2 and the blocks rolled by c1, into layer k."""
    gs = group_structure(spec.curve)
    m1, m2, m = gs.m1, gs.m2, spec.m
    N = m1 * m2
    layers = [[1] + [0] * (N - 1)] + [[0] * N for _ in range(m)]
    for seen, P in enumerate(spec.D):
        c1, c2 = gs.coordinate_map[P]
        for k in range(min(seen + 1, m), 0, -1):
            below, rotated = layers[k - 1], []
            for b1 in range(m1):
                start = (b1 - c1) % m1 * m2
                block = below[start:start + m2]
                rotated += block[m2 - c2:] + block[:m2 - c2]
            layers[k] = [x + y for x, y in zip(layers[k], rotated)]
    return layers[m][0]


def test_flat_dp_matches_subset_sum_table():
    rng = random.Random(8)
    curves = [*CENSUS_CURVES, curve(FieldSpec(31), 1, 2), curve(FieldSpec(29), 0, 3)]
    shapes = set()
    for E in curves:
        for kind, D in evaluation_sets(E, rng).items():
            for m in range(1, min(len(D) - 1, 5) + 1):
                spec = EllipticCodeSpec(E, D, m)
                assert count_S_m_of_spec(spec) == dp_reference(spec), (E, kind, m)
                shapes.add(group_structure(E).m1 > 1)
    assert shapes == {False, True}


def test_packed_dp_at_the_widest_slots():
    # W is set by the largest C(n, k) with k <= m, which peaks at k = n / 2;
    # m = n - 1 fills every layer past that peak as well
    rng = random.Random(21)
    specs, wide = [], 0
    for E in [*CENSUS_CURVES, *seeded_curves(FieldSpec(11), 2, 11), curve(FieldSpec(13), 0, 1)]:
        for kind, D in evaluation_sets(E, rng).items():
            n = len(D)
            for m in sorted({n // 2, (n + 1) // 2, n - 1} & set(range(1, n))):
                spec = EllipticCodeSpec(E, D, m)
                assert count_S_m_of_spec(spec) == dp_reference(spec) == list_dp_reference(spec), (E, kind, m)
                specs.append(spec)
                wide = max(wide, math.comb(n, m).bit_length())
    assert wide > 10 and any(group_structure(spec.curve).m1 > 1 for spec in specs)


# -- the MacWilliams transform -----------------------------------------------------


def macwilliams_reference(dual_weights, q, dual_dim):
    """A_0..A_n by the double sum of binomials, raising IntegrityError as
    agcode.macwilliams_transform does."""
    n = len(dual_weights) - 1
    scale = q ** dual_dim
    A = []
    for w in range(n + 1):
        total = sum(
            b * sum(
                (-1) ** j * (q - 1) ** (w - j) * math.comb(i, j) * math.comb(n - i, w - j)
                for j in range(min(i, w) + 1)
            )
            for i, b in enumerate(dual_weights)
        )
        if total % scale:
            raise IntegrityError(f"q^{dual_dim} does not divide the MacWilliams sum for A_{w}")
        A.append(total // scale)
    if min(A) < 0:
        raise IntegrityError(f"negative weight count A_{A.index(min(A))} = {min(A)}")
    if A[0] != 1:
        raise IntegrityError(f"A_0 = {A[0]}, not 1")
    if sum(A) != q ** (n - dual_dim):
        raise IntegrityError(f"weight counts sum to {sum(A)}, not {q}^{n - dual_dim}")
    return tuple(A)


def transform_or_error(route, B, q, dual_dim):
    try:
        return route(B, q, dual_dim)
    except IntegrityError as exc:
        return str(exc)


def test_krawtchouk_transform_matches_the_double_sum():
    rng = random.Random(31)
    outcomes = set()
    cases = []
    for q in (2, 3, 4, 5, 7, 9):
        for _ in range(40):
            n = rng.randrange(1, 19)
            B = [rng.randrange(4) if rng.random() < 0.5 else 0 for _ in range(n + 1)]
            cases.append((B, q, rng.randrange(n + 1)))
    for E, m in [(curve(FieldSpec(5), 1, 1), 3), (curve(FieldSpec(7), 3, 2), 2), (curve(FieldSpec(11), 1, 2), 3),
                 (seeded_curves(FieldSpec(5, 2), 1, 7)[0], 2)]:
        spec = spec_all_points(E, m)
        B, q, n = list(hstar_census(generator_matrix(spec)).dual_weights), spec.field.q, spec.n
        A = macwilliams_transform(B, q, m)
        assert macwilliams_transform(A, q, n - m) == tuple(B)  # and back to the dual's counts
        cases += [(B, q, m), (list(A), q, n - m)]
        tampered = B[:]
        tampered[rng.randrange(n + 1)] += 1  # the sum leaves q^m
        cases.append((tampered, q, m))
        moved = B[:]
        moved[n] += q ** m  # divisible, but A_1 < 0
        cases.append((moved, q, m))
        doubled = B[:]
        doubled[0] += q ** m  # each A_w grows by (q-1)^w C(n, w): A_0 = 2
        cases.append((doubled, q, m))
        cases.append(([q ** m] + [0] * n, q, m))  # A_w = (q-1)^w C(n, w), summing to q^n
    for B, q, dual_dim in cases:
        want = transform_or_error(macwilliams_reference, B, q, dual_dim)
        assert transform_or_error(macwilliams_transform, B, q, dual_dim) == want, (B, q, dual_dim)
        if isinstance(want, str):
            outcomes.add(next(key for key in ("divide", "negative", "A_0", "sum") if key in want))
        else:
            outcomes.add("ok")
    assert outcomes == {"ok", "divide", "negative", "A_0", "sum"}


# -- the subgroup test -------------------------------------------------------------


def closure_scan_reference(E, D):
    """The subgroup test by scanning all sums of two coordinate pairs:
    D with O closed under addition in Z/m1 x Z/m2, invariant factors from
    the order and the exponent."""
    gs = group_structure(E)
    m1, m2 = gs.m1, gs.m2
    pts = {gs.coordinate_map[P] for P in D}
    if (0, 0) in pts:
        return None
    full = pts | {(0, 0)}
    for a1, a2 in pts:
        for b1, b2 in pts:
            if ((a1 + b1) % m1, (a2 + b2) % m2) not in full:
                return None
    exponent = math.lcm(1, *(point_order(E, P) for P in D))
    return AbelianGroup.from_cyclic_factors((len(full) // exponent, exponent))


def test_hermite_subgroup_test_matches_the_closure_scan():
    rng = random.Random(41)
    verdicts, ranks = [], []
    curves = [*CENSUS_CURVES, *seeded_curves(FieldSpec(11), 3, 11), curve(FieldSpec(13), 0, 1)]
    for E in curves:
        affine = rational_points(E)[1:]
        sets = evaluation_sets(E, rng)
        sets["with-O"] = (INFINITY, *affine)
        sets["torsion-with-O"] = (*sets["torsion"], INFINITY)
        P = rng.choice(affine)
        sets["cyclic"] = tuple(scalar_mul(E, k, P) for k in range(1, point_order(E, P)))
        for k in range(4):
            sets[f"pair-{k}"] = tuple(rng.sample(affine, min(2, len(affine))))
        # <[i]g1, [j]g2> \ {O} for every i | m1 and j | m2, non-cyclic ones included
        gs = group_structure(E)
        (g1, g2), m1, m2 = gs.generators, gs.m1, gs.m2
        for i, j in itertools.product(range(1, m1 + 1), range(1, m2 + 1)):
            if m1 % i == 0 and m2 % j == 0:
                span = dict.fromkeys(
                    add(E, scalar_mul(E, s * i, g1), scalar_mul(E, t * j, g2))
                    for s in range(m1 // i) for t in range(m2 // j)
                )
                sets[f"span-{i}-{j}"] = tuple(P for P in span if P != INFINITY)
        # <g1 + g2>: cyclic, yet it leaves neither factor's coordinate 0
        h = add(E, g1, g2)
        sets["diagonal"] = tuple(scalar_mul(E, k, h) for k in range(1, point_order(E, h)))
        for kind, D in sets.items():
            want = closure_scan_reference(E, D)
            assert is_subgroup_minus_O(E, D) == want, (E, kind)
            verdicts.append((m1 > 1, want is not None))
            ranks.append(0 if want is None else len(want.invariant_factors))
    assert set(verdicts) == {(False, False), (False, True), (True, False), (True, True)}
    assert 2 in ranks


# -- the size casework ------------------------------------------------------------


def status_reference(spec, A):
    """The size casework on sums of curve points."""
    m, pts = spec.m, [spec.D[i - 1] for i in A]
    if not A or len(A) >= m + 2:
        return StoppingStatus(Verdict.STOPPING_BY_SIZE)
    if len(A) < m:
        return StoppingStatus(Verdict.NOT_STOPPING_BY_SIZE)
    if len(A) == m:
        if sum_points(spec.curve, pts) == INFINITY:
            return StoppingStatus(Verdict.STOPPING_SUM_ZERO)
        return StoppingStatus(Verdict.NOT_STOPPING_SUM_NONZERO)
    for k, i in enumerate(A):
        if sum_points(spec.curve, pts[:k] + pts[k + 1:]) == INFINITY:
            return StoppingStatus(Verdict.NOT_STOPPING_INTERIOR_ZERO, witness=i)
    return StoppingStatus(Verdict.STOPPING_NO_INTERIOR_ZERO)


def casework_specs():
    rng = random.Random(11)
    for E in [curve(FieldSpec(5), 1, 1), curve(FieldSpec(5), 4, 0), curve(FieldSpec(7), 3, 2),
              curve(FieldSpec(7), 6, 0), *seeded_curves(FieldSpec(5, 2), 1, 5)]:
        for kind, D in evaluation_sets(E, rng).items():
            for m in range(2, min(len(D) - 1, 4) + 1):
                if len(D) <= 12:
                    yield EllipticCodeSpec(E, D, m)


def test_packed_casework_matches_point_sums():
    verdicts = set()
    for spec in casework_specs():
        m = spec.m
        for size in range(m - 1, min(m + 2, spec.n) + 1):
            for A in itertools.combinations(range(1, spec.n + 1), size):
                want = status_reference(spec, A)
                assert classify(spec, A) == want, (spec, A)
                verdicts.add(want.verdict)
        want_sets = [
            A for A in itertools.combinations(range(1, spec.n + 1), m)
            if status_reference(spec, A).is_stopping
        ]
        assert enumerate_S_m(spec) == want_sets
        plus = [
            A for A in itertools.combinations(range(1, spec.n + 1), m + 1)
            if status_reference(spec, A).verdict is Verdict.NOT_STOPPING_INTERIOR_ZERO
        ]
        assert recover_S_m(spec, plus) == sorted({
            tuple(i for i in A if i != status_reference(spec, A).witness) for A in plus
        })
    assert verdicts == set(Verdict)


# -- the sampler ------------------------------------------------------------------


@pytest.mark.parametrize(
    "n, size, cap",
    [(20, 5, 100), (9, 3, 10), (40, 6, 2000), (12, 1, 5), (12, 11, 5), (200, 20, 10), (9, 3, 83)],
)  # C(200, 20) is past sys.maxsize; cap = C(9, 3) - 1 is the slowest rejection case
def test_sampled_subsets_are_distinct_sorted_and_in_range(n, size, cap):
    for seed in range(5):
        got = sample_subsets(n, size, cap, random.Random(seed))
        assert len(got) == cap == len(set(got))
        assert got == sorted(got)
        for A in got:
            assert len(A) == size and list(A) == sorted(set(A))
            assert 1 <= A[0] and A[-1] <= n
        assert got == sample_subsets(n, size, cap, random.Random(seed))
    if cap == math.comb(n, size) - 1:  # one more takes every subset, in order
        everything = list(itertools.combinations(range(1, n + 1), size))
        assert sample_subsets(n, size, cap + 1, random.Random(0)) == everything


def test_sampler_reaches_every_subset():
    seen = set()
    for seed in range(300):
        seen.update(sample_subsets(9, 3, 10, random.Random(seed)))
    assert seen == set(itertools.combinations(range(1, 10), 3))


# -- extension-field tables -------------------------------------------------------


# characteristics 2 and 3 (in F_(2^k), -1 = 1 is not g^((q - 1)/2)),
# q = 2^10 = _OP_TABLE_BOUND, the largest field that takes the addition
# table, and q = 1369 and 3125 past it, which take the logs alone
@pytest.mark.parametrize(
    "p, k", [(5, 2), (7, 2), (5, 3), (11, 2), (2, 4), (2, 10), (3, 6), (5, 4), (37, 2), (5, 5)]
)
def test_op_tables_match_polynomial_arithmetic(p, k):
    f = FieldSpec(p, k)
    q, mod = f.q, f.modulus
    add_table, exp, log = _op_tables(f)
    assert (add_table is None) == (q > _OP_TABLE_BOUND)
    coeff_mul = lambda a, b: f.value_of(_poly_rem(_poly_mul(f.coeffs_of(a), f.coeffs_of(b), p), mod, p))
    # exp lists the powers of g twice, and they cover the nonzero values once
    assert exp[:q - 1] == exp[q - 1:] and sorted(exp[:q - 1]) == list(range(1, q))
    g = exp[1]
    for e in range(q - 1):
        assert log[exp[e]] == e and exp[e + 1] == coeff_mul(exp[e], g)
    # g is the primitive element of least value: g^e generates F_q^* iff gcd(e, q - 1) = 1
    assert all(math.gcd(log[v], q - 1) > 1 for v in range(2, g))
    pairs = itertools.product(range(q), repeat=2)
    if q > 125:  # q^2 pairs of polynomial products would take too long
        rng = random.Random(q)
        pairs = [(rng.randrange(q), rng.randrange(q)) for _ in range(20000)]
    for a, b in pairs:
        ca, cb = f.coeffs_of(a), f.coeffs_of(b)
        assert f.add_val(a, b) == f.value_of(x + y for x, y in zip(ca, cb))
        assert add_table is None or add_table[a][b] == f.add_val(a, b)
        assert f.sub_val(a, b) == f.value_of(x - y for x, y in zip(ca, cb))
        assert f.mul_val(a, b) == coeff_mul(a, b)
    for a in range(q):
        minus_a = f.neg_val(a)
        assert minus_a == f.value_of(-x for x in f.coeffs_of(a)) == f.sub_val(0, a)
        assert f.add_val(a, minus_a) == 0
        if a:
            assert f.mul_val(a, f.inv_val(a)) == 1


def test_addition_table_holds_one_int_object_per_value():
    # q = 961: a fresh int for every entry past 256 made 676,801 objects,
    # about 28 MB, where q shared ones do
    add_table, exp, log = _op_tables(FieldSpec(31, 2))
    shared = {id(v) for row in add_table for v in row}
    assert len(shared) == 31 ** 2
    assert {id(v) for v in exp + log} <= shared  # the logs draw on the same ints
