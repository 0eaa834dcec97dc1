from __future__ import annotations

import random

import pytest

from stopset import (
    EllipticCodeSpec,
    EllipticCurve,
    FieldSpec,
    Point,
    agcode,
    classify,
    curve,
    rational_points,
    scalar_mul,
)
from stopset.stoptheory import sample_subsets


@pytest.fixture(scope="session")
def f5():
    return FieldSpec(5)


@pytest.fixture(scope="session")
def f7():
    return FieldSpec(7)


@pytest.fixture
def set_row_limit(monkeypatch):
    """Sets agcode.ROW_LIMIT for one test.  The H* census cache is emptied
    too, since a spec cached under the real bound would skip the check."""

    def set_limit(limit: int) -> None:
        monkeypatch.setattr(agcode, "ROW_LIMIT", limit)
        agcode.hstar_census.cache_clear()

    return set_limit


@pytest.fixture(scope="session")
def ref_curve(f5):
    # y^2 = x^3 + x + 1 over F_5: nine rational points, cyclic of order 9
    return curve(f5, 1, 1)


@pytest.fixture(scope="session")
def ref_spec(ref_curve, f5):
    """The reference code: D holds the successive multiples of the base
    point (0, 1), so position i carries [i]P and index arithmetic mirrors
    the group structure.  m = 3."""
    P1 = Point(0, 1)
    D = tuple(scalar_mul(ref_curve, i, P1) for i in range(1, 9))
    return EllipticCodeSpec(ref_curve, D, 3)


@pytest.fixture(scope="session")
def f25_spec():
    """A seeded curve over F_25 with D = its first nine affine points, which
    include four pairs {P, -P}, so peeling both recovers and stalls.  m = 2."""
    f = FieldSpec(5, 2)
    rng = random.Random(25)
    while True:
        try:
            E = EllipticCurve(f, f.from_value(rng.randrange(25)), f.from_value(rng.randrange(25)))
            break
        except ValueError:
            continue
    D = tuple(P for P in rational_points(E) if not P.is_infinity)[:9]
    return EllipticCodeSpec(E, D, 2)


def nonsingular_curves(field):
    """Every nonsingular short Weierstrass curve over the field."""
    out = []
    for av in range(field.q):
        for bv in range(field.q):
            try:
                out.append(EllipticCurve(field, av, bv))
            except ValueError:
                continue
    return out


def every_size_reference(spec, masks, cap, seed):
    """The oracle check with nothing settled: every size m - 1..m + 2,
    sampled and tested subset by subset."""
    rng = random.Random(seed)
    out = []
    for size in range(spec.m - 1, min(spec.m + 2, spec.n) + 1):
        for A in sample_subsets(spec.n, size, cap, rng):
            by_rule = classify(spec, A).is_stopping
            by_matrix = agcode.is_stopping_set_masks(masks, agcode.subset_mask(A))
            if by_rule != by_matrix:
                out.append({"subset": list(A), "classify": by_rule, "oracle": by_matrix})
    return out
