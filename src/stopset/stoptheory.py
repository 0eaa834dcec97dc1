"""Group-theoretic classification of stopping sets for codes whose
evaluation set lies on an elliptic curve.

For an evaluation set D = (P_1, ..., P_n) and pole bound m, a subset A of
positions (with respect to the maximal parity-check matrix) is stopping
exactly by the following size casework:

  |A| <= m - 1 (nonempty)  never stopping
  |A| =  m                 stopping iff the points of A sum to infinity
  |A| =  m + 1             stopping iff no interior point zeroes the rest:
                           for every i in A, sum over A minus {i} != O
  |A| >= m + 2             always stopping

and the empty set is a stopping set by definition.  Everything here is
checked against the matrix-level oracle elsewhere; this module is the
group-law route.
"""

from __future__ import annotations

import enum
import math
import operator
import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, repeat
from typing import Collection, Iterable, NamedTuple, Sequence

from . import agcode
from .agcode import Distribution, EllipticCodeSpec, generator_matrix, hstar_support_masks
from .curve import EllipticCurve, GroupStructure, Point, group_structure, hasse_bound, point_str
from .errors import IntegrityError, SizeLimitError
from .groupcount import AbelianGroup

ENUM_MAX_N = 24  # report lists S(m) only for n up to this
SET_LIMIT = 10 ** 4  # report lists S(m) only up to this many sets
SAMPLE_CAP = 5000  # subsets per size an unsettled oracle check draws
# bound on the bits the subset-sum DP adds, n * m * N * W, with N by the
# Hasse bound and W the slot width; `report --p 7919 --a 1 --b 3 --m 3`
# takes 7.3e9 of them
DP_MAX_WORK = 2 ** 33


class Verdict(enum.Enum):
    NOT_STOPPING_BY_SIZE = "NotStopping-BySize"
    STOPPING_BY_SIZE = "Stopping-BySize"
    STOPPING_SUM_ZERO = "Stopping-SumZero"
    NOT_STOPPING_SUM_NONZERO = "NotStopping-SumNonzero"
    STOPPING_NO_INTERIOR_ZERO = "Stopping-NoInteriorZero"
    NOT_STOPPING_INTERIOR_ZERO = "NotStopping-InteriorZero"


# a tuple, so membership compares members by identity: Enum.__hash__ runs
# in Python, once per subset the oracle check tests
_STOPPING = (
    Verdict.STOPPING_BY_SIZE,
    Verdict.STOPPING_SUM_ZERO,
    Verdict.STOPPING_NO_INTERIOR_ZERO,
)


@dataclass(frozen=True)
class StoppingStatus:
    verdict: Verdict
    witness: int | None = None  # the interior index i with sum(A \ {i}) = O

    def __post_init__(self) -> None:
        if (self.witness is not None) != (self.verdict == Verdict.NOT_STOPPING_INTERIOR_ZERO):
            raise ValueError("witness accompanies exactly the interior-zero verdict")

    @property
    def is_stopping(self) -> bool:
        return self.verdict in _STOPPING


class _SumContext(NamedTuple):
    moduli: tuple[int, int]
    coords: tuple[tuple[int, int], ...]  # (c1, c2) of each point of D
    packed: tuple[int, ...]  # packed[i] = c1 * M + c2 of P_i; packed[0] = 0
    zeros: frozenset[int]  # the packed sums of m points that are O


@lru_cache(maxsize=None)
def _sum_context(spec: EllipticCodeSpec) -> _SumContext:
    """Per-spec group context: the invariant factors (m1, m2) of the curve
    group and the coordinate pair of each point of D in Z/m1 x Z/m2, so
    every sum of points is a componentwise sum mod (m1, m2).

    Each pair is also packed as c1 * M + c2 with M = (m + 2) * m2, above any
    sum of m + 1 second coordinates, so one integer sum of up to m + 1
    points carries both coordinates; the zero sums of m points are then the
    packed (i * m1, j * m2) with i, j < m."""
    gs = group_structure(spec.curve)
    m1, m2, m = gs.m1, gs.m2, spec.m
    coords = tuple(gs.coordinate_map[P] for P in spec.D)
    M = (m + 2) * m2
    packed = (0,) + tuple(c1 * M + c2 for c1, c2 in coords)
    zeros = frozenset(i * m1 * M + j * m2 for i in range(m) for j in range(m))
    return _SumContext((m1, m2), coords, packed, zeros)


_BY_SIZE = (Verdict.STOPPING_BY_SIZE, None)
_NOT_BY_SIZE = (Verdict.NOT_STOPPING_BY_SIZE, None)
_SUM_ZERO = (Verdict.STOPPING_SUM_ZERO, None)
_SUM_NONZERO = (Verdict.NOT_STOPPING_SUM_NONZERO, None)
_NO_INTERIOR_ZERO = (Verdict.STOPPING_NO_INTERIOR_ZERO, None)


def _rule(spec: EllipticCodeSpec, A: Sequence[int]) -> tuple[Verdict, int | None]:
    """The size casework on the distinct positions A (1-based), through the
    packed coordinates of _sum_context: the verdict, and the witness i with
    sum(A \\ {i}) = O for the interior-zero verdict."""
    size, m = len(A), spec.m
    if size == 0 or size >= m + 2:
        return _BY_SIZE
    if size < m:
        return _NOT_BY_SIZE
    _, _, packed, zeros = _sum_context(spec)
    total = sum([packed[i] for i in A])
    if size == m:
        return _SUM_ZERO if total in zeros else _SUM_NONZERO
    # size m + 1: the sum of A \ {i} is the total less P_i, a sum of m points
    for i in A:
        if total - packed[i] in zeros:
            return Verdict.NOT_STOPPING_INTERIOR_ZERO, i
    return _NO_INTERIOR_ZERO


def _check_indices(spec: EllipticCodeSpec, A: Iterable[int]) -> tuple[int, ...]:
    out = tuple(sorted(set(A)))
    if out and (out[0] < 1 or out[-1] > spec.n):
        raise ValueError(f"indices must lie in [1, {spec.n}]")
    return out


def classify(spec: EllipticCodeSpec, A: Iterable[int]) -> StoppingStatus:
    """Size casework on the subset A of positions (1-based).

    The empty set is stopping by definition and reports Stopping-BySize.
    """
    return StoppingStatus(*_rule(spec, _check_indices(spec, A)))


def enumerate_S_m(spec: EllipticCodeSpec) -> list[tuple[int, ...]]:
    """All size-m stopping sets, in lexicographic order: the m-subsets
    whose packed sum is one of the zero sums, one `sum` per subset.
    Refuses more than SUBSET_LIMIT subsets."""
    agcode.require_subsets(spec.n, spec.m)
    _, _, packed, zeros = _sum_context(spec)
    subsets = combinations(range(1, spec.n + 1), spec.m)
    sums = map(sum, combinations(packed[1:], spec.m))
    return [A for A, total in zip(subsets, sums) if total in zeros]


def build_S_m_plus(spec: EllipticCodeSpec, S_m: Sequence[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """S+(m): every size-m stopping set extended by one extra position.

    The union is provably disjoint, so the count must equal
    (n - m) * #S(m); any collision is reported as an integrity failure.
    """
    seen: dict[tuple[int, ...], tuple[int, ...]] = {}
    for A in S_m:
        base = set(A)
        for i in range(1, spec.n + 1):
            if i in base:
                continue
            ext = tuple(sorted(base | {i}))
            if ext in seen:
                raise IntegrityError(f"extension {ext} arises from both {seen[ext]} and {A}")
            seen[ext] = A
    if len(seen) != (spec.n - spec.m) * len(S_m):
        raise IntegrityError("extension count disagrees with (n - m) * #S(m)")
    return sorted(seen)


def count_S_m_of_spec(spec: EllipticCodeSpec) -> int:
    """#S(m) for the spec's own evaluation set: a subset-sum DP over the
    points' coordinates in the curve group, stopped at layer m.  Checks
    its n * m * N * W bits against DP_MAX_WORK before the group is
    computed, with N by the Hasse bound.

    Layer k counts the k-subsets of the points seen so far by their sum
    c1 * m2 + c2, packed as m1 big ints of m2 slots of W bits each
    (Kronecker substitution): block b holds the sums with c1 = b.  A slot
    never exceeds C(n, k) < 2^(W - 1), so slots never carry into each
    other.  A point (c1, c2) adds block (b - c1) mod m1 of layer k - 1,
    its slots rolled by c2, into block b of layer k: the roll is two
    shifts and a mask.  groupcount.subset_sum_table is the reference."""
    n, m = spec.n, spec.m
    W = math.comb(n, min(m, n // 2)).bit_length() + 1  # the largest C(n, k), k <= m
    work = n * m * hasse_bound(spec.field.q) * W
    if work > DP_MAX_WORK:
        raise SizeLimitError(f"subset-sum work n * m * N * W = {work} bits exceeds the bound {DP_MAX_WORK}")
    ctx = _sum_context(spec)
    m1, m2 = ctx.moduli
    width = m2 * W
    full = (1 << width) - 1
    layers = [[1] + [0] * (m1 - 1)] + [[0] * m1 for _ in range(m)]
    for seen, (c1, c2) in enumerate(ctx.coords):
        up, down = c2 * W, width - c2 * W
        for k in range(min(seen + 1, m), 0, -1):
            below, layer = layers[k - 1], layers[k]
            for b in range(m1):
                x = below[(b - c1) % m1]
                if x:
                    layer[b] += ((x << up) | (x >> down)) & full
    return layers[m][0] & ((1 << W) - 1)


def stopping_distance(spec: EllipticCodeSpec) -> int:
    """m when a size-m stopping set exists, else m + 1."""
    return distribution(spec).stopping_distance


def distribution(spec: EllipticCodeSpec) -> Distribution:
    """The full stopping-set distribution: Distribution.near_mds at #S(m)."""
    return Distribution.near_mds(spec.n, spec.m, count_S_m_of_spec(spec))


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, u, v) with g = gcd(a, b) = u * a + v * b, for a > 0 and b >= 0."""
    u0, v0, u1, v1 = 1, 0, 0, 1
    while b:
        t, r = divmod(a, b)
        a, b = b, r
        u0, v0, u1, v1 = u1, v1, u0 - t * u1, v0 - t * v1
    return a, u0, v0


def is_subgroup_minus_O(curve: EllipticCurve, D: Sequence[Point]) -> AbelianGroup | None:
    """If D together with infinity is closed under addition, return that
    subgroup's invariant factors, else None.

    Works on the coordinates of D in Z/m1 x Z/m2; raises ValueError when a
    point of D is not on the curve.  D generates the subgroup L / (m1 Z x
    m2 Z), where the lattice L in Z^2 is spanned by D's coordinates, (m1, 0)
    and (0, m2).  Folding them one at a time into the Hermite form
    [[a, b], [0, d]] of L (Cohen, A Course in Computational Algebraic
    Number Theory, 2.4) writes (m1, 0) and (0, m2) in that basis as the
    rows of [[alpha, -alpha * b / d], [0, delta]], alpha = m1 / a and
    delta = m2 / d.  The subgroup has order alpha * delta, so D with
    infinity is closed iff O is not in D and that order is |D| + 1; its
    invariant factors are the Smith form (g, alpha * delta / g) of that
    matrix, g the gcd of its entries."""
    gs = group_structure(curve)
    m1, m2 = gs.m1, gs.m2
    pts = set()
    for P in D:
        if P not in gs.coordinate_map:
            raise ValueError(f"{point_str(curve.field, P)} is not on {curve!r}")
        pts.add(gs.coordinate_map[P])
    if (0, 0) in pts:
        return None
    a, b, d = m1, 0, m2
    for x, y in pts:
        g, u, v = _xgcd(a, x)
        # (g, u*b + v*y) replaces (a, b); (x/g)(a, b) - (a/g)(x, y) has first
        # coordinate 0 and folds into d
        a, b, d = g, (u * b + v * y) % d, math.gcd(d, x // g * b - a // g * y)
    alpha, delta = m1 // a, m2 // d
    order = alpha * delta
    if order != len(pts) + 1:
        return None
    g = math.gcd(alpha, alpha * b // d, delta)
    if m1 % g or m2 % (order // g):
        raise IntegrityError("subgroup invariant factors do not divide the group's")
    return AbelianGroup.from_cyclic_factors((g, order // g))


# ---------------------------------------------------------------------------
# the two routes side by side


def sample_subsets(n: int, size: int, cap: int, rng: random.Random) -> list[tuple[int, ...]]:
    """All size-subsets of [1..n] in lexicographic order, or, when there
    are more than `cap`, `cap` distinct ones drawn by rejection: sorted
    `rng.sample` draws are kept until `cap` differ.  Either way the list
    is sorted and each subset ascending."""
    if math.comb(n, size) <= cap:
        return list(combinations(range(1, n + 1), size))
    drawn: set[tuple[int, ...]] = set()
    while len(drawn) < cap:
        drawn.add(tuple(sorted(rng.sample(range(1, n + 1), size))))
    return sorted(drawn)


def _zero_sets_settle(spec: EllipticCodeSpec, masks: Collection[int]) -> bool:
    """Whether the zero sets of the rows with supports `masks`, each inside
    the n columns, prove the casework right on every subset of every size.
    They do when (i) no row vanishes at more than m positions, and (ii) the
    zero sets of the rows vanishing at m - 1 or m positions are exactly
    `found`.

    `found` completes each (m - 1)-subset B by R = -sum(B): it holds
    B + {R} when R lies in D \\ B, else B alone.  By Riemann-Roch a nonzero
    f in L(mO) vanishing on B has the divisor B + R - mO, so on a sound H*
    these are the zero sets of such rows.  Given (i) and (ii):
      - m + 2 or more positions meet every row at least twice;
      - m + 1 positions meet a row exactly once iff they hold a row's
        m-point zero set, a zero-sum m-set, i.e. iff they have an interior
        zero;
      - an m-set A with sum O and a in A: a row vanishing on B = A \\ {a}
        has the zero set B + {a}, the one zero-sum m-set holding B, or B,
        which `found` lacks since R = a; so no row meets A only at a;
      - an m-set A with a nonzero sum and a in A: the row whose zero set
        `found` holds for B = A \\ {a} misses a, so it meets A only at a;
      - an (m - 1)-set A and a in A: some b outside A has b != -sum(A), as
        n >= m + 1, and the row the last case gives for A + {b} and a meets
        A only at a.

    `complete` maps each packed zero sum less P_j to P_j's bit, so each B
    costs one lookup; a completion inside B or outside D leaves B."""
    n, m = spec.n, spec.m
    full = (1 << n) - 1
    weights = list(map(int.bit_count, masks))
    if min(weights, default=n) < n - m:
        return False
    zero_sets = {full ^ r for r, w in zip(masks, weights) if w <= n - m + 1}
    ctx = _sum_context(spec)
    packed, bits = ctx.packed[1:], [1 << j for j in range(n)]
    complete = {z - p: bit for p, bit in zip(packed, bits) for z in ctx.zeros}
    sums = map(sum, combinations(packed, m - 1))
    subsets = map(sum, combinations(bits, m - 1))
    found = set(map(operator.or_, subsets, map(complete.get, sums, repeat(0))))
    return zero_sets == found


def oracle_agreement_check(spec: EllipticCodeSpec, masks: Collection[int], seed: int = 0) -> list[dict]:
    """Compare the size casework that classify applies against the
    parity-check oracle given by the H* support `masks`; returns one record
    per disagreement.  Raises ValueError for a mask with a bit outside the
    n columns.  When `_zero_sets_settle` proves the two agree on every
    subset, that is the whole check: no subset is drawn or tested.
    Otherwise subsets of sizes m-1..m+2 are tested (all of them, or
    SAMPLE_CAP per size drawn by rejection with `seed`, in that order),
    each by the definition: one `is_stopping_set_masks` scan over the
    rows."""
    if min(masks, default=0) < 0 or max(masks, default=0) >> spec.n:
        raise ValueError(f"a support mask has a bit outside the {spec.n} columns")
    if _zero_sets_settle(spec, masks):
        return []
    rng = random.Random(seed)
    mismatches = []
    for size in range(spec.m - 1, min(spec.m + 2, spec.n) + 1):
        for A in sample_subsets(spec.n, size, SAMPLE_CAP, rng):
            by_rule = classify(spec, A).is_stopping
            by_matrix = agcode.is_stopping_set_masks(masks, agcode.subset_mask(A))
            if by_rule != by_matrix:
                mismatches.append(
                    {"subset": list(A), "classify": by_rule, "oracle": by_matrix}
                )
    return mismatches


@dataclass
class StoppingReport:
    spec: EllipticCodeSpec
    group: GroupStructure
    S_m: list[tuple[int, ...]] | None
    distribution: Distribution
    oracle_mismatches: list[dict] | None  # None when H* exceeds the row bound

    def __post_init__(self) -> None:
        n, m = self.spec.n, self.spec.m
        expect = math.comb(n, m + 1) - (n - m) * self.S_m_count
        if self.distribution[m + 1] != expect:
            raise IntegrityError("T_(m+1) breaks the disjoint-extension identity")
        if self.stopping_distance not in (m, m + 1):
            raise IntegrityError("stopping distance must be m or m + 1")

    @property
    def S_m_count(self) -> int:
        return self.distribution[self.spec.m]

    @property
    def stopping_distance(self) -> int:
        return self.distribution.stopping_distance

    @property
    def oracle_agreement(self) -> bool | None:
        return None if self.oracle_mismatches is None else not self.oracle_mismatches


def build_report(spec: EllipticCodeSpec, seed: int = 0) -> StoppingReport:
    """Assemble the census: distribution, #S(m), the sets themselves when
    n <= ENUM_MAX_N, #S(m) <= SET_LIMIT and the m-subsets fit
    agcode.subsets_fit, and (when the dual codebook is streamable) the
    oracle's disagreements: none, with no subset drawn, when the zero sets
    of H* settle the casework, as they do on every sound H*; else those of
    the subsets oracle_agreement_check draws, seeded by `seed`."""
    dist = distribution(spec)
    sets = None
    if dist[spec.m] <= SET_LIMIT and spec.n <= ENUM_MAX_N and agcode.subsets_fit(spec.n, spec.m):
        sets = enumerate_S_m(spec)
    mismatches = None
    if agcode.rows_fit(spec.field.q, spec.m):
        mismatches = oracle_agreement_check(spec, hstar_support_masks(generator_matrix(spec)), seed=seed)
    return StoppingReport(
        spec=spec,
        group=group_structure(spec.curve),
        S_m=sets,
        distribution=dist,
        oracle_mismatches=mismatches,
    )
