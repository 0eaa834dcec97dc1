"""Short Weierstrass curves y^2 = x^3 + ax + b over fields of
characteristic >= 5, with exhaustive point enumeration and the group
structure Z/m1 x Z/m2, m1 read from the Sylow subgroups the Weil pairing
allows.

Point coordinates are canonical field values, ints in [0, q); the curve's
field does their arithmetic and gives their text form."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping

from .errors import FieldMismatchError, IntegrityError, SizeLimitError
from .ffield import FieldSpec, factorize, parse_element

# bound on the census of group_structure: per prime that can divide m1, a
# double-and-add of O(log N) additions per pair +-P, then N additions per
# map it tries; applied to the Hasse bound on N before any point is listed
CENSUS_MAX_ORDER = 2 ** 13


@dataclass(frozen=True)
class Point:
    """A curve point: affine coordinates as canonical field values, or the
    point at infinity when both coordinates are None."""

    x: int | None = None
    y: int | None = None

    def __post_init__(self) -> None:
        if (self.x is None) != (self.y is None):
            raise ValueError("affine points need both coordinates")

    @property
    def is_infinity(self) -> bool:
        return self.x is None


INFINITY = Point()


@dataclass(frozen=True)
class EllipticCurve:
    """y^2 = x^3 + ax + b with a and b canonical values of the field."""

    field: FieldSpec
    a: int
    b: int

    def __post_init__(self) -> None:
        f = self.field
        if f.p < 5:
            raise ValueError("short Weierstrass form needs characteristic >= 5")
        if not (0 <= self.a < f.q and 0 <= self.b < f.q):
            raise FieldMismatchError(f"coefficients must be values of {f!r}, in [0, {f.q})")
        add, mul, a, b = f.add_val, f.mul_val, self.a, self.b
        # the integer n is the value n mod p; 4 < p
        disc = add(mul(4, mul(a, mul(a, a))), mul(27 % f.p, mul(b, b)))
        if disc == 0:
            raise ValueError("singular curve: 4a^3 + 27b^2 = 0")

    def is_on_curve(self, P: Point) -> bool:
        if P.is_infinity:
            return True
        f = self.field
        if not (0 <= P.x < f.q and 0 <= P.y < f.q):
            return False
        return f.mul_val(P.y, P.y) == _rhs(self, P.x)

    def __repr__(self) -> str:
        text = self.field.format_element
        return f"E[y^2=x^3+{text(self.a)}x+{text(self.b)} over {self.field!r}]"


def curve(field: FieldSpec, a, b) -> EllipticCurve:
    """Convenience constructor coercing a and b into the field: an int
    embeds as n times one, a sequence is a coefficient list."""
    return EllipticCurve(field, field.element(a), field.element(b))


def _rhs(E: EllipticCurve, x: int) -> int:
    """x^3 + ax + b on values."""
    f = E.field
    return f.add_val(f.mul_val(x, f.add_val(f.mul_val(x, x), E.a)), E.b)


def hasse_bound(q: int) -> int:
    """The largest point count the Hasse bound allows: q + 1 + 2 sqrt(q)."""
    return q + 1 + math.isqrt(4 * q)


def require_census(q: int) -> None:
    """Refuse the order census of a curve over F_q when the Hasse bound on
    its order passes CENSUS_MAX_ORDER; needs no point of the curve."""
    if hasse_bound(q) > CENSUS_MAX_ORDER:
        raise SizeLimitError(f"order up to {hasse_bound(q)} exceeds the census bound {CENSUS_MAX_ORDER}")


def _check_point(E: EllipticCurve, P: Point) -> None:
    if not E.is_on_curve(P):
        raise ValueError(f"{point_str(E.field, P)} is not on {E!r}")


def _add_unchecked(E: EllipticCurve, P: Point, Q: Point) -> Point:
    x1, y1, x2, y2 = P.x, P.y, Q.x, Q.y
    if x1 is None:
        return Q
    if x2 is None:
        return P
    f = E.field
    sub, mul = f.sub_val, f.mul_val
    if x1 == x2:
        # on the curve, equal x means Q = P or Q = -P
        if y1 != y2 or y1 == 0:
            return INFINITY
        # tangent line; P == Q and y != 0 here
        num = f.add_val(mul(3, mul(x1, x1)), E.a)  # 3 < p
        lam = mul(num, f.inv_val(mul(2, y1)))
    else:
        lam = mul(sub(y2, y1), f.inv_val(sub(x2, x1)))
    x3 = sub(sub(mul(lam, lam), x1), x2)
    return Point(x3, sub(mul(lam, sub(x1, x3)), y1))


def add(E: EllipticCurve, P: Point, Q: Point) -> Point:
    """Chord-and-tangent addition."""
    _check_point(E, P)
    _check_point(E, Q)
    return _add_unchecked(E, P, Q)


def neg(E: EllipticCurve, P: Point) -> Point:
    _check_point(E, P)
    if P.is_infinity:
        return P
    return Point(P.x, E.field.neg_val(P.y))


def scalar_mul(E: EllipticCurve, n: int, P: Point) -> Point:
    """[n]P by double-and-add; n may be negative or zero."""
    _check_point(E, P)
    if n < 0:
        n, P = -n, neg(E, P)
    return _mul_unchecked(E, n, P)


def _mul_unchecked(E: EllipticCurve, n: int, P: Point) -> Point:
    """[n]P for n >= 0 by double-and-add."""
    acc = INFINITY
    while n:
        if n & 1:
            acc = _add_unchecked(E, acc, P)
        P = _add_unchecked(E, P, P)
        n >>= 1
    return acc


def sum_points(E: EllipticCurve, points: Iterable[Point]) -> Point:
    total = INFINITY
    for P in points:
        _check_point(E, P)
        total = _add_unchecked(E, total, P)
    return total


@lru_cache(maxsize=None)
def rational_points(E: EllipticCurve) -> tuple[Point, ...]:
    """All q-rational points in canonical order: infinity first, then the
    affine points sorted by (x, y) in field enumeration order."""
    q = E.field.q
    pts = [INFINITY]
    for x in range(q):
        for y in E.field.sqrt_vals(_rhs(E, x)):
            pts.append(Point(x, y))
    N = len(pts)
    # Hasse: |N - q - 1| <= 2*sqrt(q); a violation means broken arithmetic
    if (N - q - 1) ** 2 > 4 * q:
        raise IntegrityError(f"point count {N} violates the Hasse bound for q={q}")
    return tuple(pts)


def point_order(E: EllipticCurve, P: Point) -> int:
    """The order of P by repeated addition; the reference for the orders
    group_structure reads off the factorization of the group order.  An
    order past the Hasse bound means broken arithmetic."""
    _check_point(E, P)
    limit = hasse_bound(E.field.q)
    n = 1
    acc = P
    while not acc.is_infinity:
        if n == limit:
            raise IntegrityError(f"{point_str(E.field, P)} has no order up to the Hasse bound {limit}")
        acc = _add_unchecked(E, acc, P)
        n += 1
    return n


@dataclass(frozen=True)
class GroupStructure:
    """E(F_q) as Z/m1 x Z/m2 with m1 | m2.

    generators holds (g1, g2) with g1 of order m1 and g2 of order m2; g1 is
    Infinity when m1 = 1.  coordinate_map sends each point P to the unique
    (c1, c2) with P = [c1]g1 + [c2]g2, 0 <= c1 < m1, 0 <= c2 < m2.  The map
    is read-only, because group_structure hands one cached value to every
    caller.
    """

    m1: int
    m2: int
    generators: tuple[Point, Point]
    coordinate_map: Mapping[Point, tuple[int, int]]

    @property
    def order(self) -> int:
        return self.m1 * self.m2


@lru_cache(maxsize=None)
def group_structure(E: EllipticCurve) -> GroupStructure:
    """Invariant factors and generators, computed once per curve after the
    census bound (require_census).  The Weil pairing puts the roots of unity
    of order m1 in F_q (Silverman, The Arithmetic of Elliptic Curves,
    III.8.1.1), so only a prime l | q - 1 with l^v || N and v >= 2 divides
    m1.  The l-Sylow subgroup is Z/l^(v-b) x Z/l^b, with l^b the largest
    order of [N/l^v]P (Cohen, A Course in Computational Algebraic Number
    Theory, 1.4); the scan stops once b = v and skips -P, which follows P
    in canonical order and has its order.  g2 is the first point of order
    m2, g1 the first point of order m1 that completes the map."""
    require_census(E.field.q)
    pts = rational_points(E)
    N = len(pts)
    pm_firsts = [pts[0], *(P for prev, P in zip(pts, pts[1:]) if P.x != prev.x)]
    m1 = 1
    for ell, v in factorize(N).items():
        if v < 2 or (E.field.q - 1) % ell:
            continue
        cofactor, b = N // ell ** v, 0
        for P in pm_firsts:
            while b < v and not _mul_unchecked(E, cofactor * ell ** b, P).is_infinity:
                b += 1
            if b == v:
                break
        m1 *= ell ** (v - b)
    m2 = N // m1
    if m2 % m1:
        raise IntegrityError(f"invariant factors ({m1}, {m2}) fail m1 | m2")
    if (E.field.q - 1) % m1:  # the Weil pairing
        raise IntegrityError(f"invariant factor m1 = {m1} does not divide q - 1 = {E.field.q - 1}")

    def beyond_divisors(m: int) -> Iterator[Point]:
        # the points with [m/l]P != O for every prime l | m, in order; each
        # has order m if [m]P = O, which _mapped checks for g2
        primes = tuple(factorize(m))
        return (P for P in pts if not any(_mul_unchecked(E, m // ell, P).is_infinity for ell in primes))

    g2 = next(beyond_divisors(m2), None)
    if g2 is None:
        raise IntegrityError(f"no point has order m2 = {m2}")
    # when m1 = 1 the first candidate is pts[0], the point at infinity
    return _mapped(E, m1, m2, g2, (P for P in beyond_divisors(m1) if _mul_unchecked(E, m1, P).is_infinity))


def _mapped(E: EllipticCurve, m1: int, m2: int, g2: Point, candidates: Iterable[Point]) -> GroupStructure:
    """Z/m1 x Z/m2 with g2 and the first g1 among candidates whose m1*m2 sums
    [c1]g1 + [c2]g2 are distinct: that certifies a direct sum, so the map is
    a bijection and (by the uniqueness of representations) an isomorphism."""

    def build_map(g1: Point) -> dict[Point, tuple[int, int]] | None:
        table: dict[Point, tuple[int, int]] = {}
        row_start = INFINITY
        for c1 in range(m1):
            acc = row_start
            for c2 in range(m2):
                if acc in table:
                    return None
                table[acc] = (c1, c2)
                acc = _add_unchecked(E, acc, g2)
            if acc != row_start:
                raise IntegrityError(f"[{m2}]g2 is not the point at infinity")
            row_start = _add_unchecked(E, row_start, g1)
        return table

    for g1 in candidates:
        coord = build_map(g1)
        if coord is not None:
            return GroupStructure(m1, m2, (g1, g2), MappingProxyType(coord))
    raise IntegrityError("no generator pair produced a full coordinate map")


# ---------------------------------------------------------------------------
# text forms


def parse_point(E: EllipticCurve, text: str) -> Point:
    """Parse 'x,y' (field-element syntax per coordinate) or 'inf'."""
    text = text.strip()
    if text.lower() in ("inf", "o"):
        return INFINITY
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"cannot parse point {text!r}")
    P = Point(parse_element(E.field, parts[0]), parse_element(E.field, parts[1]))
    _check_point(E, P)
    return P


def point_str(field: FieldSpec, P: Point) -> str:
    """P in the field's text form, as the command line reads and prints it."""
    if P.is_infinity:
        return "inf"
    return f"{field.format_element(P.x)},{field.format_element(P.y)}"
