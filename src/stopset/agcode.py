"""Residue codes on elliptic curves and their maximal parity-check matrix.

The code is C(D, m): the null space of the m x n evaluation matrix whose
rows are the pole-order-sorted monomial basis x^i y^j (j <= 1, 2i + 3j <= m)
evaluated on an ordered tuple D of n distinct affine points.  The maximal
parity-check matrix H* consists of *all* q^m - 1 nonzero words of the row
space of that evaluation matrix.  H* is streamed, never stored, and
`hstar_rows` streams it up to scalars, one word per scalar class: scaling
a row keeps its support, so the stopping sets and the peeling decoder's
outcome are those of the full H*.

A subset S of column indices (1-based) is a stopping set of H when no row
of H restricted to S has Hamming weight exactly 1.  The empty set counts
as a stopping set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations, compress
from typing import Iterable, Iterator, Sequence

from .curve import EllipticCurve, Point, point_str, rational_points
from .errors import FieldMismatchError, IntegrityError, SizeLimitError
from .ffield import FieldSpec

ROW_LIMIT = 2 ** 22  # q^m guard for streaming the full dual codebook
STREAM_LIMIT = 2 ** 27  # q^m * n guard on the entries of the full H* stream
SUBSET_LIMIT = 10 ** 6

ROLE_GENERATOR = "generator"
ROLE_PARITY = "parity-check"


def rows_fit(q: int, dim: int) -> bool:
    """True when the q^dim words of a dim-dimensional space fit the row
    bound; every route that streams such a space asks this first."""
    return q ** dim <= ROW_LIMIT


def _require_rows(q: int, dim: int, what: str) -> None:
    if not rows_fit(q, dim):
        raise SizeLimitError(f"{q}^{dim} {what} exceed the bound {ROW_LIMIT}")


def require_stream(q: int, m: int, n: int) -> None:
    """Refuse an H* stream past STREAM_LIMIT entries, counted as the q^m
    rows of n entries of the full H* even though `hstar_rows` yields one row
    per scalar class.  As q >= 2, an m of the bound's bit length or more is
    past it whatever n is, and is refused before q^m is formed."""
    if m >= STREAM_LIMIT.bit_length() or q ** m * n > STREAM_LIMIT:
        raise SizeLimitError(f"{q}^{m} rows of {n} entries exceed the stream bound {STREAM_LIMIT}")


def subsets_fit(n: int, size: int) -> bool:
    """True when the C(n, size) subsets of n positions fit SUBSET_LIMIT;
    every walk over them asks this first."""
    return math.comb(n, size) <= SUBSET_LIMIT


def require_subsets(n: int, size: int) -> None:
    """Refuse a walk over the C(n, size) subsets of n positions past
    SUBSET_LIMIT."""
    if not subsets_fit(n, size):
        raise SizeLimitError(f"C({n},{size}) subsets exceed the bound {SUBSET_LIMIT}")


@dataclass(frozen=True)
class EllipticCodeSpec:
    """An ordered evaluation set D of affine points plus the pole bound m."""

    curve: EllipticCurve
    D: tuple[Point, ...]
    m: int

    def __post_init__(self) -> None:
        seen = set()
        for P in self.D:
            if P.is_infinity:
                raise ValueError("evaluation points must be affine")
            if not self.curve.is_on_curve(P):
                raise ValueError(f"{point_str(self.field, P)} is not on the curve")
            if P in seen:
                raise ValueError(f"duplicate evaluation point {point_str(self.field, P)}")
            seen.add(P)
        n = len(self.D)
        if not 0 < self.m < n:
            raise ValueError(f"need 0 < m < n, got m={self.m}, n={n}")
        # the generated hash would re-hash every point of D on each call,
        # which costs more than the per-spec cache lookups it keys
        object.__setattr__(self, "_hash", hash((self.curve, self.D, self.m)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def n(self) -> int:
        return len(self.D)

    @property
    def field(self) -> FieldSpec:
        return self.curve.field


def spec_all_points(curve: EllipticCurve, m: int) -> EllipticCodeSpec:
    """The canonical spec: D = all rational points except infinity."""
    D = tuple(P for P in rational_points(curve) if not P.is_infinity)
    return EllipticCodeSpec(curve, D, m)


@dataclass(frozen=True)
class CodeMatrix:
    """A matrix over `spec` with rows of canonical field values."""

    spec: FieldSpec
    entries: tuple[tuple[int, ...], ...]
    role: str

    def __post_init__(self) -> None:
        if self.role not in (ROLE_GENERATOR, ROLE_PARITY):
            raise ValueError(f"unknown role {self.role!r}")
        widths = {len(row) for row in self.entries}
        if len(widths) > 1:
            raise ValueError("ragged matrix")
        q = self.spec.q
        if not all(0 <= v < q for row in self.entries for v in row):
            raise FieldMismatchError("entry outside the matrix field")

    @property
    def nrows(self) -> int:
        return len(self.entries)

    @property
    def ncols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    def values(self) -> list[tuple[int, ...]]:
        """The rows as a list."""
        return list(self.entries)


def rr_basis(m: int) -> list[tuple[int, int]]:
    """Exponent pairs (i, j) for the monomials x^i y^j spanning the
    functions with pole order <= m at infinity: j in {0, 1}, 2i + 3j <= m,
    sorted by pole order 2i + 3j.  Exactly m pairs (order 1 is a gap)."""
    if m < 1:
        raise ValueError("pole bound must be >= 1")
    pairs = [(i, j) for j in (0, 1) for i in range((m - 3 * j) // 2 + 1) if 2 * i + 3 * j <= m]
    return sorted(pairs, key=lambda ij: 2 * ij[0] + 3 * ij[1])


def generator_matrix(spec: EllipticCodeSpec) -> CodeMatrix:
    """The m x n evaluation matrix of the monomial basis on D.

    Its row space is the full dual of the residue code, so it doubles as a
    (minimal) parity-check matrix of that code.
    """
    f = spec.field
    mul = f.mul_val
    basis = rr_basis(spec.m)
    top = max(i for i, _ in basis)
    columns = []
    for P in spec.D:
        powers = [1]  # x^0 .. x^top at P, one multiplication each
        for _ in range(top):
            powers.append(mul(powers[-1], P.x))
        columns.append([mul(powers[i], P.y) if j else powers[i] for i, j in basis])
    return CodeMatrix(f, tuple(zip(*columns)), ROLE_GENERATOR)


# ---------------------------------------------------------------------------
# streaming the dual codebook


def _combination_stream(spec: FieldSpec, rows: Sequence[Sequence[int]]) -> Iterator[tuple[int, ...]]:
    """One representative per scalar class of the nonzero linear
    combinations of `rows`, as value tuples: (q^len(rows) - 1)/(q - 1)
    words, each with its first nonzero coefficient fixed to 1.  Scaling by
    a nonzero constant never changes a word's support, so this is enough
    whenever only supports matter.  The full stream of all q^m words is
    stopset.reference.dual_rows.
    """
    q = spec.q
    add, mul = spec.add_val, spec.mul_val
    # the walk reads row 0 at c = 1 only
    pre = [[tuple(mul(c, v) for v in row) for c in range(q if i else 2)] for i, row in enumerate(rows)]

    def walk(level: int, acc: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        if level == len(rows):
            yield acc
            return
        for c in range(q):
            scaled = pre[level][c]
            nxt = acc if c == 0 else tuple(map(add, acc, scaled))
            yield from walk(level + 1, nxt)

    for lead in range(len(rows)):
        base = pre[lead][1 % q]
        yield from walk(lead + 1, base)


def hstar_rows(spec: EllipticCodeSpec) -> Iterator[tuple[int, ...]]:
    """Stream H* up to scalars: one normalized nonzero dual word per scalar
    class, (q^m - 1)/(q - 1) value tuples.

    A row c*h has the support of h, so the stopping sets of these rows are
    those of all q^m - 1 nonzero words; and c*h meets an erased set where h
    does and solves the same position with the same value, so peeling over
    them recovers the same values and stalls on the same residual."""
    _require_rows(spec.field.q, spec.m, "dual rows")
    yield from _combination_stream(spec.field, generator_matrix(spec).entries)


@dataclass(frozen=True)
class DualCensus:
    """What one pass over a dual of q^dual_dim words yields: the distinct
    row supports (bit j-1 = column j) and the dual weight counts B_0..B_n
    (B_0 = 1 for the zero word)."""

    masks: frozenset[int]
    dual_weights: tuple[int, ...]
    q: int
    dual_dim: int

    @cached_property
    def code_weights(self) -> tuple[int, ...]:
        """The code's weight counts A_0..A_n by the MacWilliams transform,
        computed once per census."""
        return macwilliams_transform(self.dual_weights, self.q, self.dual_dim)


def _stream_census(spec: FieldSpec, rows: Sequence[Sequence[int]], n: int) -> DualCensus:
    """One representative per scalar class of the row space of the
    independent length-n `rows`, taken by pencils; scalar multiples share a
    support and a weight, so each class adds its mask once and q - 1 to its
    weight's count.

    The classes are g = rows[-1] and acc + c*g for every normalized
    combination acc of the other rows and every c in F_q.  Scaling each
    column j with g_j != 0 by 1 / g_j first changes no support and no
    weight, and makes g_j = 1 there.  Along a pencil such a coordinate then
    vanishes at c = -acc_j only, and one with g_j = 0 keeps acc_j.  So the
    coordinates sharing a value acc_j vanish together, at one scalar each
    value, and a pencil costs O(n) dictionary steps, one mask per distinct
    value, and one shared "generic" mask for the scalars at which nothing
    vanishes."""
    q = spec.q
    bits = [1 << j for j in range(n)]
    masks = set()
    hist = [0] * (n + 1)
    if rows:
        g = rows[-1]
        on_g = [bool(v) for v in g]
        g_bits = list(compress(bits, on_g))
        g_mask = sum(g_bits)
        scale = [spec.inv_val(v) if v else 1 for v in g]
        scaled = [tuple(map(spec.mul_val, row, scale)) for row in rows[:-1]]
        for acc in _combination_stream(spec, scaled):
            vanish: dict[int, int] = {}  # acc_j -> the coordinates with it
            for bit, value in zip(g_bits, compress(acc, on_g)):
                vanish[value] = vanish.get(value, 0) | bit
            generic = sum(compress(bits, acc)) | g_mask
            for zeros in vanish.values():
                mask = generic ^ zeros
                masks.add(mask)
                hist[mask.bit_count()] += 1
            if len(vanish) < q:
                masks.add(generic)
                hist[generic.bit_count()] += q - len(vanish)
        masks.add(g_mask)
        hist[len(g_bits)] += 1
    weights = [(q - 1) * h for h in hist]
    weights[0] += 1
    return DualCensus(frozenset(masks), tuple(weights), q, len(rows))


@lru_cache(maxsize=None)
def hstar_census(spec: EllipticCodeSpec) -> DualCensus:
    """Support masks and dual weight counts of H*, from one cached pass."""
    _require_rows(spec.field.q, spec.m, "dual rows")
    return _stream_census(spec.field, generator_matrix(spec).entries, spec.n)


def hstar_support_masks(spec: EllipticCodeSpec) -> frozenset[int]:
    """Distinct support bitmasks of H* rows (bit j-1 = column j)."""
    return hstar_census(spec).masks


# callers read the pass's cache statistics under the masks' name
hstar_support_masks.cache_info = hstar_census.cache_info
hstar_support_masks.cache_clear = hstar_census.cache_clear


# ---------------------------------------------------------------------------
# weight enumerator by the MacWilliams identity


def macwilliams_transform(dual_weights: Sequence[int], q: int, dual_dim: int) -> tuple[int, ...]:
    """Weight counts A_0..A_n of a code from those of its dual, B_0..B_n,
    where the dual has q^dual_dim words (MacWilliams 1963):

        q^dual_dim * A_w = sum_i B_i K_w(i),

    with the Krawtchouk polynomials K_w(i) = sum_j (-1)^j (q-1)^(w-j)
    C(i, j) C(n-i, w-j), taken for each i with B_i != 0 from the
    three-term recurrence K_0 = 1, K_1 = (q-1) n - q i,

        (k+1) K_(k+1) = ((q-1)(n-k) + k - q i) K_k - (q-1)(n-k+1) K_(k-1),

    in O(n) steps per i.  Exact in integers.  Raises IntegrityError when
    the sum is not divisible by q^dual_dim, some A_w < 0, A_0 != 1 or
    sum A_w != q^(n - dual_dim).
    """
    n = len(dual_weights) - 1
    scale = q ** dual_dim
    totals = [0] * (n + 1)
    for i, b in enumerate(dual_weights):
        if b:
            before, k_w = 0, 1
            for w in range(n + 1):
                totals[w] += b * k_w
                step = ((q - 1) * (n - w) + w - q * i) * k_w - (q - 1) * (n - w + 1) * before
                before, k_w = k_w, step // (w + 1)
    A = []
    for w, total in enumerate(totals):
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


def weight_enumerator(code: EllipticCodeSpec | CodeMatrix) -> tuple[int, ...]:
    """Weight counts A_0..A_n of a code, by the MacWilliams transform of
    its dual's weight counts.

    For an EllipticCodeSpec the code is the residue code and its dual
    counts come from the cached H* pass that also yields the stopping-set
    masks, and the transform is cached with that pass.  For a CodeMatrix
    the code is its null space and the dual is its row space.  Guarded by
    q^(dual dimension) <= the row bound.
    """
    if isinstance(code, EllipticCodeSpec):
        return hstar_census(code).code_weights
    spec = code.spec
    basis, _ = _rref(spec, code.entries)
    _require_rows(spec.q, len(basis), "dual words")
    return _stream_census(spec, basis, code.ncols).code_weights


# ---------------------------------------------------------------------------
# stopping-set oracle, straight from the definition


def subset_mask(S: Iterable[int]) -> int:
    """1-based column indices to a bitmask."""
    mask = 0
    for i in S:
        mask |= 1 << (i - 1)
    return mask


def row_support(row: Sequence[int]) -> int:
    """The support of one row as a bitmask (bit j-1 = column j)."""
    return sum(1 << j for j, v in enumerate(row) if v)


def is_stopping_set_masks(masks: Iterable[int], s_mask: int) -> bool:
    """True when no row, given by its support mask, meets the subset
    s_mask in exactly one position: the definition of a stopping set, one
    scan over the rows per subset.  The oracle check tests each subset it
    draws with it."""
    for r in masks:
        if (r & s_mask).bit_count() == 1:
            return False
    return True


# ---------------------------------------------------------------------------
# linear algebra over the field, on value rows


def _rref(spec: FieldSpec, rows: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns)."""
    rows = [list(r) for r in rows]
    ncols = len(rows[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = spec.inv_val(rows[r][c])
        rows[r] = [spec.mul_val(inv, v) for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [spec.sub_val(a, spec.mul_val(f, b)) for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def matrix_rank(M: CodeMatrix) -> int:
    return len(_rref(M.spec, M.entries)[0])


def null_space(M: CodeMatrix) -> CodeMatrix:
    """A basis of the right null space of M, as a parity-check-role matrix:
    its rows span exactly the code checked by M."""
    spec, width = M.spec, M.ncols
    reduced, pivots = _rref(spec, M.entries)
    free = [c for c in range(width) if c not in pivots]
    basis = []
    for fc in free:
        vec = [0] * width
        vec[fc] = 1
        for r, pc in enumerate(pivots):
            vec[pc] = spec.neg_val(reduced[r][fc])
        basis.append(tuple(vec))
    return CodeMatrix(spec, tuple(basis), ROLE_PARITY)


def min_distance_bruteforce(M: CodeMatrix) -> int:
    """Minimum Hamming weight over the nonzero row space of M, found by
    enumerating one representative per scalar class (weight is invariant
    under scaling).  Guarded by q^rank <= the row bound.

    A test oracle: exponential in the code dimension, so no production
    route calls it; residue codes get their distance from
    `weight_enumerator` or the column search.  It stays here, not in
    stopset.reference, because perfbench's SPANS table traces it under
    this module's name."""
    spec = M.spec
    basis, _ = _rref(spec, M.entries)
    if not basis:
        raise ValueError("zero code has no minimum distance")
    _require_rows(spec.q, len(basis), "codewords")
    return min(len(word) - word.count(0) for word in _combination_stream(spec, basis))


def min_distance_dependent_columns(H: CodeMatrix) -> int:
    """Minimum distance of the code whose parity-check matrix is H: the
    least w for which some w columns of H are linearly dependent
    (MacWilliams and Sloane, The Theory of Error-Correcting Codes, Ch. 1).

    At that w every dependency among the w columns has full support, or
    fewer columns would be dependent, so it is a codeword of weight w.
    Exhaustive per size, capped at rank + 1 by the Singleton bound.
    """
    spec = H.spec
    rows, _ = _rref(spec, H.entries)
    n = H.ncols
    r = len(rows)
    if r == n:
        raise ValueError("zero code has no minimum distance")
    for w in range(1, r + 2):
        require_subsets(n, w)
        for cols in combinations(range(n), w):
            if len(_rref(spec, [[row[c] for c in cols] for row in rows])[0]) < w:
                return w
    raise ValueError("unreachable: every code has distance <= rank + 1")


def residue_min_distance(spec: EllipticCodeSpec) -> int:
    """Minimum distance of the residue code, by pure linear algebra.

    When q^m fits the row bound it is the smallest positive weight of the
    weight enumerator, from the same H* pass as the stopping-set oracle;
    otherwise the minimal dependent column sets of the evaluation matrix
    give it.  `min_distance_bruteforce` on the null space is the oracle.
    """
    if rows_fit(spec.field.q, spec.m):
        A = hstar_census(spec).code_weights
        return next(w for w in range(1, spec.n + 1) if A[w])
    return min_distance_dependent_columns(generator_matrix(spec))


# ---------------------------------------------------------------------------
# MDS codes


def mds_distribution(n: int, k: int) -> "Distribution":
    """Stopping-set distribution of any MDS [n, k] code under its maximal
    parity-check matrix: every subset from size n - k + 1 up, and the empty set."""
    if not 1 <= k < n:
        raise ValueError(f"need 1 <= k < n, got k={k}, n={n}")
    return Distribution.near_mds(n, n - k, 0)


def _binomial_row(n: int) -> list[int]:
    """C(n, 0..n) by the running product C(n, i+1) = C(n, i) * (n - i) / (i + 1)."""
    row = [1]
    for i in range(n):
        row.append(row[-1] * (n - i) // (i + 1))
    return row


@dataclass(frozen=True)
class Distribution:
    """Stopping-set counts T_0..T_n; T_0 = 1 and T_i <= C(n, i)."""

    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.counts or self.counts[0] != 1:
            raise ValueError("T_0 must be 1: the empty set is a stopping set")
        n = len(self.counts) - 1
        for i, (t, c) in enumerate(zip(self.counts, _binomial_row(n))):
            if not 0 <= t <= c:
                raise ValueError(f"T_{i} = {t} outside [0, C({n},{i})]")

    @classmethod
    def near_mds(cls, n: int, m: int, s_m: int) -> "Distribution":
        """T_0..T_n under the maximal parity-check matrix, for 0 < m < n: T_0 = 1,
        nothing else below m, T_m = s_m, T_(m+1) = C(n, m+1) - (n - m) * s_m by
        the disjoint-extension identity, and every subset from m + 2 up.  An
        elliptic code has s_m = #S(m); an MDS [n, k] code is m = n - k, s_m = 0."""
        row = _binomial_row(n)
        row[1:m] = [0] * (m - 1)
        row[m], row[m + 1] = s_m, row[m + 1] - (n - m) * s_m
        return cls(tuple(row))

    @property
    def n(self) -> int:
        return len(self.counts) - 1

    @property
    def stopping_distance(self) -> int | None:
        """The size of the smallest nonempty stopping set: the least i >= 1
        with T_i > 0, or None when the empty set is the only one."""
        return next((i for i in range(1, len(self.counts)) if self.counts[i]), None)

    def __len__(self) -> int:
        return len(self.counts)

    def __getitem__(self, i: int) -> int:
        return self.counts[i]

    def __iter__(self):
        return iter(self.counts)
