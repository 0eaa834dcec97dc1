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
import sys
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, repeat
from typing import Collection, Iterable, NamedTuple, Sequence

from . import agcode
from .agcode import Distribution, EllipticCodeSpec, hstar_support_masks
from .curve import EllipticCurve, GroupStructure, Point, group_structure, hasse_bound, point_str
from .errors import IntegrityError, SizeLimitError
from .groupcount import AbelianGroup

ENUM_MAX_N = 24  # report lists S(m) only for n up to this
SET_LIMIT = 10 ** 4  # report lists S(m) only up to this many sets
# bound on the subset-sum DP's work n * m * N, with N by the Hasse bound
DP_MAX_WORK = 2 ** 23


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


def _rule(
    spec: EllipticCodeSpec, A: Sequence[int], ctx: _SumContext | None = None
) -> tuple[Verdict, int | None]:
    """The size casework on the distinct positions A (1-based), through the
    packed coordinates of _sum_context (or `ctx`, that context resolved
    once by a caller that tests many subsets): the verdict, and the
    witness i with sum(A \\ {i}) = O for the interior-zero verdict."""
    size, m = len(A), spec.m
    if size == 0 or size >= m + 2:
        return _BY_SIZE
    if size < m:
        return _NOT_BY_SIZE
    _, _, packed, zeros = ctx or _sum_context(spec)
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


def enumerate_S_m1(spec: EllipticCodeSpec) -> list[tuple[int, ...]]:
    """All size-(m+1) stopping sets: the complement of S+(m) among all
    (m+1)-subsets.  Refuses more than SUBSET_LIMIT of them."""
    agcode.require_subsets(spec.n, spec.m + 1)
    blocked = set(build_S_m_plus(spec, enumerate_S_m(spec)))
    return [A for A in combinations(range(1, spec.n + 1), spec.m + 1) if A not in blocked]


def enumerate_S_m1_direct(spec: EllipticCodeSpec) -> list[tuple[int, ...]]:
    """Size-(m+1) stopping sets by filtering every subset through classify;
    the slow cross-check for enumerate_S_m1."""
    agcode.require_subsets(spec.n, spec.m + 1)
    return [
        A
        for A in combinations(range(1, spec.n + 1), spec.m + 1)
        if classify(spec, A).is_stopping
    ]


def recover_S_m(spec: EllipticCodeSpec, S_plus: Sequence[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Invert the extension map: each member I of S+(m) is a size-(m+1)
    set with an interior zero, the point P_j that the whole of I sums to,
    and dropping that j returns the size-m stopping set."""
    out = set()
    for I in S_plus:
        _, j = _rule(spec, _check_indices(spec, I))
        if j is None:
            raise IntegrityError(f"{I} does not sum to any of its own points")
        out.add(tuple(i for i in I if i != j))
    return sorted(out)


def count_S_m_of_spec(spec: EllipticCodeSpec) -> int:
    """#S(m) for the spec's own evaluation set: a subset-sum DP over the
    points' coordinates in the curve group, stopped at layer m.  Checks
    n * m * N against DP_MAX_WORK before the group is computed.

    Layer k is one flat list of N counts, the number of k-subsets of the
    points seen so far summing to each c1 * m2 + c2.  A point (c1, c2)
    adds layer k - 1, rotated by it, into layer k: each m2-block rolls by
    c2 and the blocks roll by c1.  groupcount.subset_sum_table is the
    reference."""
    m = spec.m
    work = spec.n * m * hasse_bound(spec.field.q)
    if work > DP_MAX_WORK:
        raise SizeLimitError(f"subset-sum work n * m * N = {work} exceeds the bound {DP_MAX_WORK}")
    ctx = _sum_context(spec)
    m1, m2 = ctx.moduli
    N = m1 * m2
    layers = [[1] + [0] * (N - 1)] + [[0] * N for _ in range(m)]
    for seen, (c1, c2) in enumerate(ctx.coords):
        for k in range(min(seen + 1, m), 0, -1):
            below, rotated = layers[k - 1], []
            for b1 in range(m1):
                start = (b1 - c1) % m1 * m2
                block = below[start:start + m2]
                rotated += block[m2 - c2:] + block[:m2 - c2]
            layers[k] = list(map(operator.add, layers[k], rotated))
    return layers[m][0]


def stopping_distance(spec: EllipticCodeSpec) -> int:
    """m when a size-m stopping set exists, else m + 1."""
    return distribution(spec).stopping_distance


def distribution(spec: EllipticCodeSpec) -> Distribution:
    """The full stopping-set distribution T_0..T_n.

    Only #S(m) needs real work: T_(m+1) follows from the disjoint-extension
    identity, smaller sizes are forced, larger sizes are all subsets.
    """
    n, m = spec.n, spec.m
    s_m = count_S_m_of_spec(spec)
    counts = [0] * (n + 1)
    counts[0] = 1
    counts[m] = s_m
    counts[m + 1] = math.comb(n, m + 1) - (n - m) * s_m
    for i in range(m + 2, n + 1):
        counts[i] = math.comb(n, i)
    return Distribution(tuple(counts))


def is_subgroup_minus_O(curve: EllipticCurve, D: Sequence[Point]) -> AbelianGroup | None:
    """If D together with infinity is closed under addition, return that
    subgroup's invariant factors, else None.

    Works on the coordinates of D in Z/m1 x Z/m2; raises ValueError when a
    point of D is not on the curve."""
    gs = group_structure(curve)
    m1, m2 = gs.m1, gs.m2
    pts = set()
    for P in D:
        if P not in gs.coordinate_map:
            raise ValueError(f"{point_str(curve.field, P)} is not on {curve!r}")
        pts.add(gs.coordinate_map[P])
    if (0, 0) in pts:
        return None
    full = pts | {(0, 0)}
    for a1, a2 in pts:
        for b1, b2 in pts:
            if ((a1 + b1) % m1, (a2 + b2) % m2) not in full:
                return None
    h = len(full)
    exponent = 1
    for c1, c2 in pts:
        exponent = math.lcm(exponent, m1 // math.gcd(c1, m1), m2 // math.gcd(c2, m2))
    if h % exponent:
        raise IntegrityError("subgroup exponent does not divide its order")
    first = h // exponent
    if exponent % first:
        raise IntegrityError("subgroup is not of rank <= 2")
    return AbelianGroup.from_cyclic_factors((first, exponent))


# ---------------------------------------------------------------------------
# the two routes side by side


def sample_subsets(n: int, size: int, cap: int, rng: random.Random) -> list[tuple[int, ...]]:
    """All size-subsets of [1..n], or `cap` distinct ones sampled when the
    census is too large."""
    total = math.comb(n, size)
    if total <= cap:
        return list(combinations(range(1, n + 1), size))
    # cap distinct ranks below C(n, size), each unranked in the
    # combinatorial number system (Knuth, TAOCP 4A, 7.2.1.3): the set
    # c_1 < ... < c_s of 0-based positions has rank r = sum of C(c_i, i),
    # so c_s is the largest c with C(c, s) <= r, and so on down with
    # r - C(c_s, s).  Position n - c_i stands for c_i: that reverses the
    # order of the sets, so descending ranks give the subsets in ascending
    # order, each one ascending.  The loop unranks one level of every rank
    # at a time, a column of positions per level.
    if total <= sys.maxsize:
        ranks = rng.sample(range(total), cap)
    else:  # past what random.sample can index; collisions are then rare
        ranks = set()
        while len(ranks) < cap:
            ranks.add(rng.randrange(total))
    ranks = sorted(ranks, reverse=True)
    columns = []
    for i in range(size, 0, -1):
        row = [math.comb(c, i) for c in range(n)]
        cs = [bisect_right(row, r) - 1 for r in ranks]
        ranks = list(map(operator.sub, ranks, map(row.__getitem__, cs)))
        columns.append([n - c for c in cs])
    return list(zip(*columns))


def _zero_sets_settle(spec: EllipticCodeSpec, masks: Collection[int], ctx: _SumContext) -> bool:
    """Whether the zero sets of the rows with supports `masks` prove the
    casework right on every subset of every size.  They do when (i) no row
    vanishes at more than m positions, and (ii) the zero sets of the rows
    vanishing at m - 1 or m positions are exactly `found`.  A mask outside
    the n columns is no support and never settles.

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
    if min(masks, default=0) < 0 or max(masks, default=0) > full:
        return False
    weights = list(map(int.bit_count, masks))
    if min(weights, default=n) < n - m:
        return False
    zero_sets = {full ^ r for r, w in zip(masks, weights) if w <= n - m + 1}
    packed, bits = ctx.packed[1:], [1 << j for j in range(n)]
    complete = {z - p: bit for p, bit in zip(packed, bits) for z in ctx.zeros}
    sums = map(sum, combinations(packed, m - 1))
    subsets = map(sum, combinations(bits, m - 1))
    found = set(map(operator.or_, subsets, map(complete.get, sums, repeat(0))))
    return zero_sets == found


def oracle_agreement_check(
    spec: EllipticCodeSpec, masks: Collection[int], sample_cap: int = 5000, seed: int = 0
) -> list[dict]:
    """Compare the size casework that classify applies against the
    parity-check oracle given by the H* support `masks`; returns one record
    per disagreement.  When `_zero_sets_settle` proves the two agree on
    every subset, that is the whole check: no subset is drawn or tested.
    Otherwise subsets of sizes m-1..m+2 are tested (all of them, or
    `sample_cap` sampled per size, in that order).

    The masks are transposed once into column bitsets, so each subset
    costs |A| big-int operations instead of a scan over every row."""
    ctx = _sum_context(spec)
    if _zero_sets_settle(spec, masks, ctx):
        return []
    rng = random.Random(seed)
    cols = agcode.column_sets(masks, spec.n)
    mismatches = []
    for size in range(spec.m - 1, min(spec.m + 2, spec.n) + 1):
        for A in sample_subsets(spec.n, size, sample_cap, rng):
            by_rule = _rule(spec, A, ctx)[0] in _STOPPING
            by_matrix = agcode.is_stopping_set_columns(cols, A)
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


def build_report(spec: EllipticCodeSpec, sample_cap: int = 2000, seed: int = 0) -> StoppingReport:
    """Assemble the census: distribution, #S(m), the sets themselves when
    n <= ENUM_MAX_N, #S(m) <= SET_LIMIT and the m-subsets fit
    agcode.subsets_fit, and (when the dual codebook is streamable) the
    oracle's disagreements: none, with no subset drawn, when the zero sets
    of H* settle the casework, else those of `sample_cap` subsets drawn
    per size."""
    dist = distribution(spec)
    sets = None
    if dist[spec.m] <= SET_LIMIT and spec.n <= ENUM_MAX_N and agcode.subsets_fit(spec.n, spec.m):
        sets = enumerate_S_m(spec)
    mismatches = None
    if agcode.rows_fit(spec.field.q, spec.m):
        mismatches = oracle_agreement_check(spec, hstar_support_masks(spec), sample_cap, seed)
    return StoppingReport(
        spec=spec,
        group=group_structure(spec.curve),
        S_m=sets,
        distribution=dist,
        oracle_mismatches=mismatches,
    )
