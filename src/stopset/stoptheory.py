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
import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Collection, Iterable, Sequence

from . import agcode
from .agcode import Distribution, EllipticCodeSpec, hstar_support_masks
from .curve import EllipticCurve, GroupStructure, Point, group_structure, hasse_bound, point_str
from .errors import IntegrityError, SizeLimitError
from .groupcount import AbelianGroup, subset_sum_table

DEFAULT_ENUM_MAX_N = 24
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


_STOPPING = {
    Verdict.STOPPING_BY_SIZE,
    Verdict.STOPPING_SUM_ZERO,
    Verdict.STOPPING_NO_INTERIOR_ZERO,
}


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


@lru_cache(maxsize=None)
def _sum_context(spec: EllipticCodeSpec) -> tuple[tuple[int, int], tuple[tuple[int, int], ...]]:
    """Per-spec group context: the invariant factors (m1, m2) of the curve
    group and the coordinate pair of each point of D in Z/m1 x Z/m2, so
    every sum of points is a componentwise sum mod (m1, m2)."""
    gs = group_structure(spec.curve)
    return (gs.m1, gs.m2), tuple(gs.coordinate_map[P] for P in spec.D)


def _total(moduli: tuple[int, int], coords: Sequence[tuple[int, int]], A: Iterable[int]) -> tuple[int, int]:
    """Coordinates of the sum of the points at positions A (1-based)."""
    s1 = s2 = 0
    for i in A:
        c1, c2 = coords[i - 1]
        s1 += c1
        s2 += c2
    return s1 % moduli[0], s2 % moduli[1]


def _check_indices(spec: EllipticCodeSpec, A: Iterable[int]) -> tuple[int, ...]:
    out = tuple(sorted(set(A)))
    if out and (out[0] < 1 or out[-1] > spec.n):
        raise ValueError(f"indices must lie in [1, {spec.n}]")
    return out


def classify(spec: EllipticCodeSpec, A: Iterable[int]) -> StoppingStatus:
    """Size casework on the subset A of positions (1-based).

    The empty set is stopping by definition and reports Stopping-BySize.
    """
    A = _check_indices(spec, A)
    m = spec.m
    if len(A) == 0:
        return StoppingStatus(Verdict.STOPPING_BY_SIZE)
    if len(A) <= m - 1:
        return StoppingStatus(Verdict.NOT_STOPPING_BY_SIZE)
    if len(A) >= m + 2:
        return StoppingStatus(Verdict.STOPPING_BY_SIZE)
    moduli, coords = _sum_context(spec)
    total = _total(moduli, coords, A)
    if len(A) == m:
        if total == (0, 0):
            return StoppingStatus(Verdict.STOPPING_SUM_ZERO)
        return StoppingStatus(Verdict.NOT_STOPPING_SUM_NONZERO)
    # size m + 1: sum(A \ {i}) = O exactly when P_i equals the full sum
    for i in A:
        if coords[i - 1] == total:
            return StoppingStatus(Verdict.NOT_STOPPING_INTERIOR_ZERO, witness=i)
    return StoppingStatus(Verdict.STOPPING_NO_INTERIOR_ZERO)


def enumerate_S_m(spec: EllipticCodeSpec, max_n: int = DEFAULT_ENUM_MAX_N) -> list[tuple[int, ...]]:
    """All size-m stopping sets, in lexicographic order."""
    if spec.n > max_n:
        raise SizeLimitError(f"n = {spec.n} exceeds the enumeration bound {max_n}")
    (m1, m2), coords = _sum_context(spec)
    m = spec.m
    # pack (c1, c2) as c1 * M + c2 with M above any sum of m second
    # coordinates, so one integer sum carries both; the zero sums are then
    # the packed (i * m1, j * m2) with i, j < m
    M = m * m2
    packed = [c1 * M + c2 for c1, c2 in coords]
    zeros = {i * m1 * M + j * m2 for i in range(m) for j in range(m)}
    return [
        A
        for A, vals in zip(combinations(range(1, spec.n + 1), m), combinations(packed, m))
        if sum(vals) in zeros
    ]


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


def enumerate_S_m1(spec: EllipticCodeSpec, max_n: int = DEFAULT_ENUM_MAX_N) -> list[tuple[int, ...]]:
    """All size-(m+1) stopping sets: the complement of S+(m) among all
    (m+1)-subsets."""
    if spec.n > max_n:
        raise SizeLimitError(f"n = {spec.n} exceeds the enumeration bound {max_n}")
    blocked = set(build_S_m_plus(spec, enumerate_S_m(spec, max_n)))
    return [A for A in combinations(range(1, spec.n + 1), spec.m + 1) if A not in blocked]


def enumerate_S_m1_direct(spec: EllipticCodeSpec, max_n: int = DEFAULT_ENUM_MAX_N) -> list[tuple[int, ...]]:
    """Size-(m+1) stopping sets by filtering every subset through classify;
    the slow cross-check for enumerate_S_m1."""
    if spec.n > max_n:
        raise SizeLimitError(f"n = {spec.n} exceeds the enumeration bound {max_n}")
    return [
        A
        for A in combinations(range(1, spec.n + 1), spec.m + 1)
        if classify(spec, A).is_stopping
    ]


def recover_S_m(spec: EllipticCodeSpec, S_plus: Sequence[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Invert the extension map: each member I of S+(m) sums to one of its
    own points P_j, and dropping that j returns the size-m stopping set."""
    moduli, coords = _sum_context(spec)
    out = set()
    for I in S_plus:
        total = _total(moduli, coords, I)
        j = next((i for i in I if coords[i - 1] == total), None)
        if j is None:
            raise IntegrityError(f"{I} does not sum to any of its own points")
        out.add(tuple(i for i in I if i != j))
    return sorted(out)


def count_S_m_of_spec(spec: EllipticCodeSpec) -> int:
    """#S(m) for the spec's own evaluation set: a subset-sum DP over the
    points' coordinates in the curve group, stopped at layer m.  Checks
    n * m * N against DP_MAX_WORK before the group is computed."""
    work = spec.n * spec.m * hasse_bound(spec.field.q)
    if work > DP_MAX_WORK:
        raise SizeLimitError(f"subset-sum work n * m * N = {work} exceeds the bound {DP_MAX_WORK}")
    moduli, coords = _sum_context(spec)
    G = AbelianGroup.from_cyclic_factors(moduli)
    elements = [G.element(c for c, d in zip(pair, moduli) if d != 1) for pair in coords]
    return subset_sum_table(elements, spec.m)[spec.m].get(G.identity().coords, 0)


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
    out = set()
    while len(out) < cap:
        out.add(tuple(sorted(rng.sample(range(1, n + 1), size))))
    return sorted(out)


def oracle_agreement_check(
    spec: EllipticCodeSpec, masks: Collection[int], sample_cap: int = 5000, seed: int = 0
) -> list[dict]:
    """Compare classify against the parity-check oracle given by the H*
    support `masks` on subsets of sizes m-1..m+2 (all of them, or
    `sample_cap` sampled per size); returns one record per disagreement.

    The masks are transposed once into column bitsets, so each subset
    costs |A| big-int operations instead of a scan over every row."""
    rng = random.Random(seed)
    cols = agcode.column_sets(masks, spec.n)
    mismatches = []
    for size in range(spec.m - 1, min(spec.m + 2, spec.n) + 1):
        for A in sample_subsets(spec.n, size, sample_cap, rng):
            by_rule = classify(spec, A).is_stopping
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
    n <= DEFAULT_ENUM_MAX_N and #S(m) <= SET_LIMIT, and (when the dual
    codebook is streamable) the oracle's disagreements."""
    dist = distribution(spec)
    sets = None
    if dist[spec.m] <= SET_LIMIT and spec.n <= DEFAULT_ENUM_MAX_N:
        sets = enumerate_S_m(spec)
    mismatches = None
    if spec.field.q ** spec.m <= agcode.row_limit(None):
        mismatches = oracle_agreement_check(spec, hstar_support_masks(spec), sample_cap, seed)
    return StoppingReport(
        spec=spec,
        group=group_structure(spec.curve),
        S_m=sets,
        distribution=dist,
        oracle_mismatches=mismatches,
    )
