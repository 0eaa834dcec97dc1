"""Short Weierstrass curves y^2 = x^3 + ax + b over fields of
characteristic >= 5, with exhaustive point enumeration and the group
structure Z/m1 x Z/m2 from an order census.

Point coordinates are canonical field values, ints in [0, q); the curve's
field does their arithmetic and gives their text form."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType
from typing import Iterable, Mapping

from .errors import FieldMismatchError, IntegrityError, SizeLimitError
from .ffield import FieldSpec, parse_element
from .groupcount import factorize

# bound on the order census of group_structure, O(N log^2 N) curve
# additions, applied to the Hasse bound on N before any point is enumerated
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


def _orders(E: EllipticCurve, pts: tuple[Point, ...]) -> dict[Point, int]:
    """The order of every point of the group pts.  It divides N = #E, so
    it is N stripped of each prime l | N for as long as [o/l]P = O (Cohen,
    A Course in Computational Algebraic Number Theory, 1.4)."""
    N = len(pts)
    primes = tuple(factorize(N))
    orders: dict[Point, int] = {}
    for P in pts:
        if P in orders:
            continue
        o = N
        for ell in primes:
            while o % ell == 0 and _mul_unchecked(E, o // ell, P).is_infinity:
                o //= ell
        orders[P] = orders[neg(E, P)] = o  # -P has the order of P
    return orders


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
    """Invariant factors by order census (_orders) and generator search;
    computed once per curve.

    The coordinate map is built by enumerating all m1*m2 combinations of the
    candidate generators; hitting every point exactly once certifies that the
    pair generates a direct sum, which makes the map a bijection and (by the
    uniqueness of representations) an isomorphism.

    Checks the census bound first (require_census).
    """
    require_census(E.field.q)
    pts = rational_points(E)
    N = len(pts)
    orders = _orders(E, pts)
    m2 = 1
    for o in orders.values():
        m2 = math.lcm(m2, o)
    if N % m2:
        raise IntegrityError("exponent does not divide the group order")
    m1 = N // m2
    if m2 % m1:
        raise IntegrityError(f"invariant factors ({m1}, {m2}) fail m1 | m2")
    # the Weil pairing puts the roots of unity of order m1 in F_q
    # (Silverman, The Arithmetic of Elliptic Curves, III.8.1.1)
    if (E.field.q - 1) % m1:
        raise IntegrityError(f"invariant factor m1 = {m1} does not divide q - 1 = {E.field.q - 1}")
    g2 = next(P for P in pts if orders[P] == m2)

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
            row_start = _add_unchecked(E, row_start, g1)
        return table

    # when m1 = 1 the only candidate is pts[0], the point at infinity
    coord, g1 = None, INFINITY
    for cand in pts:
        if orders[cand] == m1:
            coord = build_map(cand)
            if coord is not None:
                g1 = cand
                break
    if coord is None or len(coord) != N:
        raise IntegrityError("no generator pair produced a full coordinate map")
    return GroupStructure(m1, m2, (g1, g2), MappingProxyType(coord))


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
