"""Reference routes: slow, definitional versions of what the production
modules compute, kept so that tests and demos can check one against the
other.  No command runs them, and no production module imports this one.

Each route and the production route it checks:

  dp_count                  groupcount.count_formula and count_S_m, the
                            Moebius count, by a DP over the elements
  all_groups_of_order       the same counts and the closed forms, over
                            every group shape of an order
  enumerate_S_m1            Distribution.near_mds's T_(m+1), as the
                            complement of stoptheory.build_S_m_plus
  enumerate_S_m1_direct     enumerate_S_m1, by classify on every subset
  recover_S_m               stoptheory.enumerate_S_m and build_S_m_plus,
                            by inverting the extension map
  support_masks             agcode.hstar_support_masks, the pencil census,
                            from explicit rows
  stopping_distribution_from_rows
                            stoptheory.distribution and
                            agcode.mds_distribution, by the definition on
                            every subset
  rs_code                   agcode.mds_distribution, and the H* census,
                            the minimum distance routes and the decoder,
                            which take its matrix as they take an
                            elliptic code's, on Reed-Solomon codes
  scale_columns             that stopping sets depend only on supports, as
                            agcode.hstar_rows assumes when it streams one
                            row per scalar class
  residual_is_stopping      decoder.peel's stall on a stopping set
  dual_rows                 agcode.hstar_rows and hstar_census, which
                            read H* up to scalars, and cli's fault
                            injection, which indexes the full H*

The oracles curve.point_order, groupcount.subset_sum_table and
agcode.min_distance_bruteforce stay in their modules, because the
benchmark's span table traces them under those modules' names.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, product
from typing import Iterable, Iterator, Sequence

from . import agcode
from .agcode import (
    CodeMatrix,
    Distribution,
    EllipticCodeSpec,
    is_stopping_set_masks,
    row_support,
    subset_mask,
)
from .errors import FieldMismatchError, IntegrityError, SizeLimitError
from .ffield import FieldSpec
from .groupcount import AbelianGroup, divisors, subset_sum_table
from .stoptheory import build_S_m_plus, classify, enumerate_S_m

# ---------------------------------------------------------------------------
# subset sums in an abelian group


def dp_count(G: AbelianGroup, elements: Sequence[tuple[int, ...]], k: int, b: Sequence[int]) -> int:
    """Definitional count of k-subsets of `elements` summing to b; a
    reference, like subset_sum_table."""
    if not 0 <= k <= len(elements):
        raise ValueError(f"subset size {k} outside [0, {len(elements)}]")
    return subset_sum_table(G, elements, k)[k].get(G.element(b), 0)


@lru_cache(maxsize=None)
def all_groups_of_order(N: int) -> tuple[AbelianGroup, ...]:
    """Every abelian group of order N, one per invariant-factor chain."""
    if N < 1:
        raise ValueError("order must be positive")

    def chains(n: int, max_last: int) -> list[tuple[int, ...]]:
        # chains d1 | d2 | ... with product n and last factor <= max_last
        out = []
        if n == 1:
            out.append(())
        for last in divisors(n):
            if last < 2 or last > max_last:
                continue
            for rest in chains(n // last, last):
                if not rest or last % rest[-1] == 0:
                    out.append(rest + (last,))
        return out

    return tuple(AbelianGroup(c) for c in sorted(chains(N, N)))


# ---------------------------------------------------------------------------
# stopping sets of size m + 1 by the group law


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
        j = classify(spec, I).witness
        if j is None:
            raise IntegrityError(f"{I} does not sum to any of its own points")
        out.add(tuple(i for i in I if i != j))
    return sorted(out)


# ---------------------------------------------------------------------------
# stopping sets straight from the rows


def support_masks(rows: Iterable[Sequence[int]]) -> frozenset[int]:
    """Distinct nonzero row supports as bitmasks (bit j-1 = column j)."""
    masks = set(map(row_support, rows))
    masks.discard(0)
    return frozenset(masks)


def stopping_distribution_from_rows(rows: Iterable[Sequence], n: int) -> "Distribution":
    """T_i for i = 0..n by running the oracle over every subset of [n].

    Definitional and exponential; guarded at n <= 20.
    """
    if n > 20:
        raise SizeLimitError(f"2^{n} subsets exceed the oracle sweep bound")
    masks = support_masks(rows)
    counts = [0] * (n + 1)
    for s in range(1 << n):
        if is_stopping_set_masks(masks, s):
            counts[s.bit_count()] += 1
    return Distribution(tuple(counts))


def dual_rows(G: CodeMatrix) -> Iterator[tuple[int, ...]]:
    """Stream all q^m words of the row space of G, m rows, as canonical
    value tuples, zero first, in coefficient-odometer order: the word with
    coefficients (c_0, ..., c_(m-1)), c_0 the most significant digit, is
    the sum of c_i G_i over the rows G_i.  For independent rows its
    q^m - 1 nonzero words are the full H*.  Guarded by the row bound."""
    f, m = G.field, G.nrows
    if not agcode.rows_fit(f.q, m):
        raise SizeLimitError(f"{f.q}^{m} dual rows exceed the bound {agcode.ROW_LIMIT}")
    for coeffs in product(range(f.q), repeat=m):
        word = (0,) * G.ncols
        for c, row in zip(coeffs, G.entries):
            if c:
                word = tuple(f.add_val(w, f.mul_val(c, v)) for w, v in zip(word, row))
        yield word


def residual_is_stopping(rows: Iterable[Sequence[int]], residual: Iterable[int]) -> bool:
    """The stall certificate: the residual must be a stopping set of the
    rows the decoder ran over."""
    return is_stopping_set_masks(support_masks(rows), subset_mask(residual))


# ---------------------------------------------------------------------------
# MDS reference family


def rs_code(field: FieldSpec, n: int, k: int) -> CodeMatrix:
    """Generator of the [n, k] Reed-Solomon code evaluating polynomials of
    degree < k at the values 0, 1, ..., n - 1."""
    if not 1 <= k < n:
        raise ValueError(f"need 1 <= k < n, got k={k}, n={n}")
    if n > field.q:
        raise ValueError(f"need n <= q = {field.q} distinct evaluation points")
    rows = tuple(tuple(field.pow_val(x, i) for x in range(n)) for i in range(k))
    return CodeMatrix(field, rows)


def scale_columns(M: CodeMatrix, scalars: Sequence[int]) -> CodeMatrix:
    """Multiply column j by the value scalars[j]; scalars must be nonzero
    (a zero would change the code, not just its presentation)."""
    if len(scalars) != M.ncols:
        raise ValueError("one scalar per column required")
    for s in scalars:
        if not 0 <= s < M.field.q:
            raise FieldMismatchError("scalar outside the matrix field")
        if s == 0:
            raise ValueError("column scalars must be nonzero")
    mul = M.field.mul_val
    ent = tuple(tuple(mul(e, s) for e, s in zip(row, scalars)) for row in M.entries)
    return CodeMatrix(M.field, ent)
