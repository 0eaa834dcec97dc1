"""Exact counting of k-subsets of G \\ {0} with a prescribed sum, for a
finite abelian group G given by its invariant factors.

The closed count comes from a Moebius inversion over the divisors of the
exponent of G; a dynamic-programming count over the actual elements serves
as an independent oracle.  All arithmetic is exact big-integer arithmetic.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

from .errors import IntegrityError
from .ffield import factorize, is_prime


def moebius(n: int) -> int:
    """Moebius function: 0 on non-squarefree n, else (-1)^(#prime factors)."""
    if n < 1:
        raise ValueError("moebius expects a positive integer")
    mu = 1
    for _, e in factorize(n).items():
        if e > 1:
            return 0
        mu = -mu
    return mu


def divisors(n: int) -> list[int]:
    """All positive divisors, ascending."""
    return _divisors_of(factorize(n))


def _divisors_of(factors: dict[int, int]) -> list[int]:
    """All divisors of the number factored as {prime: exponent}, ascending."""
    divs = [1]
    for p, e in factors.items():
        divs = [d * p ** i for d in divs for i in range(e + 1)]
    return sorted(divs)


@dataclass(frozen=True)
class AbelianGroup:
    """Z/d1 x ... x Z/dr in invariant-factor form: d1 | d2 | ... | dr.

    Trivial factors are dropped, so the trivial group is the empty tuple.
    """

    invariant_factors: tuple[int, ...]

    def __post_init__(self) -> None:
        factors = tuple(d for d in self.invariant_factors if d != 1)
        for d in factors:
            if d < 1:
                raise ValueError("invariant factors must be positive")
        for a, b in zip(factors, factors[1:]):
            if b % a:
                raise ValueError(f"{factors} is not a divisibility chain")
        object.__setattr__(self, "invariant_factors", factors)

    @classmethod
    def from_cyclic_factors(cls, factors: Iterable[int]) -> "AbelianGroup":
        """Normalize an arbitrary direct sum of cyclic groups into a
        divisibility chain, e.g. (4, 3) -> (12,).

        Z/a x Z/b is Z/gcd(a, b) x Z/lcm(a, b), the Smith form of a
        diagonal matrix (Cohen, A Course in Computational Algebraic Number
        Theory, 2.4).  Replacing each pair (f_i, f_j), i < j, by (gcd, lcm)
        leaves every factor dividing each later one.
        """
        chain = list(factors)
        if any(d < 1 for d in chain):
            raise ValueError("cyclic factors must be positive")
        for i, j in itertools.combinations(range(len(chain)), 2):
            chain[i], chain[j] = math.gcd(chain[i], chain[j]), math.lcm(chain[i], chain[j])
        return cls(tuple(chain))

    @property
    def order(self) -> int:
        return math.prod(self.invariant_factors)

    @property
    def exponent(self) -> int:
        return self.invariant_factors[-1] if self.invariant_factors else 1

    def identity(self) -> tuple[int, ...]:
        return (0,) * len(self.invariant_factors)

    def element(self, coords: Iterable[int]) -> tuple[int, ...]:
        """coords reduced mod the invariant factors, one per factor."""
        coords = tuple(coords)
        if len(coords) != len(self.invariant_factors):
            raise ValueError(f"expected {len(self.invariant_factors)} coordinates")
        return tuple(c % d for c, d in zip(coords, self.invariant_factors))

    def elements(self) -> list[tuple[int, ...]]:
        """All elements, identity first, in lexicographic coordinate order."""
        return list(itertools.product(*(range(d) for d in self.invariant_factors)))

    def nonzero_elements(self) -> list[tuple[int, ...]]:
        return self.elements()[1:]

    def __repr__(self) -> str:
        if not self.invariant_factors:
            return "Z/1"
        return " x ".join(f"Z/{d}" for d in self.invariant_factors)


def torsion_count(G: AbelianGroup, d: int) -> int:
    """#G[d], the number of elements killed by d: prod gcd(d, d_i)."""
    if d < 1:
        raise ValueError("torsion index must be positive")
    return math.prod(math.gcd(d, di) for di in G.invariant_factors)


def e_of_b(G: AbelianGroup, b: Sequence[int]) -> int:
    """The largest divisor d of exp(G) with b in dG, for b given by its
    coordinates.

    b is in dG iff each coordinate b_i is divisible by gcd(d, d_i), because
    d*x = b_i (mod d_i) is solvable exactly under that condition.
    """
    return _e_of_b(G, b, divisors(G.exponent))


def _e_of_b(G: AbelianGroup, b: Sequence[int], divs: list[int]) -> int:
    """e_of_b over divs, the divisors of exp(G)."""
    b = G.element(b)
    return max(d for d in divs if all(bi % math.gcd(d, di) == 0 for bi, di in zip(b, G.invariant_factors)))


def count_formula(G: AbelianGroup, k: int, b: Sequence[int]) -> int:
    """Number of k-subsets of G \\ {0} summing to b, by Moebius inversion.

    The divisor sum runs over s | exp(G); the inner sum over divisors d of
    gcd(e(b), s) weighs the d-torsion by mu(s/d).  Since mu vanishes off
    the squarefree numbers, the inner sum runs over the squarefree t | s
    with s/t | e(b), and d = s/t.  The grand total is divisible by the
    group order exactly, which is asserted.
    """
    N = G.order
    if not 0 <= k <= N - 1:
        raise ValueError(f"subset size {k} outside [0, {N - 1}]")
    factors = factorize(G.exponent)
    divs = _divisors_of(factors)
    eb = _e_of_b(G, b, divs)
    total = 0
    for s in divs:
        sign = -1 if (k + k // s) % 2 else 1
        outer = math.comb(N // s - 1, k // s)
        squarefree = [(1, 1)]  # (t, mu(t)) over the squarefree t | s
        for p in factors:
            if s % p == 0:
                squarefree += [(t * p, -mu) for t, mu in squarefree]
        inner = sum(mu * torsion_count(G, s // t) for t, mu in squarefree if eb % (s // t) == 0)
        total += sign * outer * inner
    if total % N:
        raise IntegrityError(f"count {total} not divisible by group order {N}")
    return total // N


def count_S_m(G: AbelianGroup, m: int) -> int:
    """Number of m-subsets of G \\ {0} summing to the identity."""
    N = G.order
    if not 1 <= m <= N - 1:
        raise ValueError(f"m = {m} outside [1, {N - 1}]")
    return count_formula(G, m, G.identity())


def subset_sum_table(
    G: AbelianGroup, elements: Sequence[tuple[int, ...]], top: int | None = None
) -> list[dict[tuple[int, ...], int]]:
    """table[k][coords] = number of k-subsets of `elements` summing there,
    for k = 0..top (default: every size up to len(elements)).

    One dynamic-programming pass over (index, size, sum) that never fills a
    layer above `top`; the elements must be distinct reduced coordinate
    tuples of G.  The reference for the packed DP of
    stoptheory.count_S_m_of_spec.
    """
    for g in elements:
        if G.element(g) != tuple(g):
            raise ValueError(f"{g} is not a reduced element of {G!r}")
    if len(set(elements)) != len(elements):
        raise ValueError("elements must be distinct")
    if top is None:
        top = len(elements)
    if not 0 <= top <= len(elements):
        raise ValueError(f"top layer {top} outside [0, {len(elements)}]")
    table: list[dict[tuple[int, ...], int]] = [defaultdict(int) for _ in range(top + 1)]
    table[0][G.identity()] = 1
    for idx, g in enumerate(elements):
        for k in range(min(idx + 1, top), 0, -1):
            if not table[k - 1]:
                continue
            bucket = table[k]
            for coords, cnt in table[k - 1].items():
                s = tuple((a + c) % d for a, c, d in zip(coords, g, G.invariant_factors))
                bucket[s] += cnt
    return table


def dp_count(G: AbelianGroup, elements: Sequence[tuple[int, ...]], k: int, b: Sequence[int]) -> int:
    """Definitional count of k-subsets of `elements` summing to b; a
    reference, like subset_sum_table."""
    if not 0 <= k <= len(elements):
        raise ValueError(f"subset size {k} outside [0, {len(elements)}]")
    return subset_sum_table(G, elements, k)[k].get(G.element(b), 0)


# ---------------------------------------------------------------------------
# closed forms for special group shapes; all reduce count_S_m to binomials


def _int_log(p: int, m: int) -> int:
    """floor(log_p m) by integer arithmetic; m >= 1."""
    L = 0
    while p ** (L + 1) <= m:
        L += 1
    return L


def closed_form_p_power(p: int, t: int, m: int) -> int:
    """#S(m) for the cyclic group Z/p^t."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    N = p ** t
    if not 1 <= m < N:
        raise ValueError(f"m = {m} outside [1, {N - 1}]")
    L = _int_log(p, m)
    total = math.comb(N - 1, m)
    total += (-1) ** m * (N - p ** L)
    for i in range(1, L + 1):
        sign = -1 if (m + m // p ** i) % 2 else 1
        total += sign * (p ** i - p ** (i - 1)) * math.comb(p ** (t - i) - 1, m // p ** i)
    if total % N:
        raise IntegrityError(f"closed form total {total} not divisible by {N}")
    return total // N


def closed_form_two_power_terms(p: int, t1: int, t2: int, m: int) -> int:
    """#S(m) for Z/p^t1 x Z/p^t2 with t1 <= t2."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if t1 > t2:
        raise ValueError("need t1 <= t2")
    N = p ** (t1 + t2)
    if not 1 <= m < N:
        raise ValueError(f"m = {m} outside [1, {N - 1}]")
    total = math.comb(N - 1, m)
    for i in range(1, t2 + 1):
        sign = -1 if (m + m // p ** i) % 2 else 1
        weight = p ** (i + min(i, t1)) - p ** (i - 1 + min(i - 1, t1))
        total += sign * weight * math.comb(p ** (t1 + t2 - i) - 1, m // p ** i)
    if total % N:
        raise IntegrityError(f"closed form total {total} not divisible by {N}")
    return total // N


def closed_form_two_primes(p1: int, t1: int, p2: int, t2: int, m: int) -> int:
    """#S(m) for Z/p1^t1 x Z/p2^t2 with p1, p2 distinct primes."""
    if not (is_prime(p1) and is_prime(p2)):
        raise ValueError("p1 and p2 must be prime")
    if p1 == p2:
        raise ValueError("primes must be distinct")
    N = p1 ** t1 * p2 ** t2
    if not 1 <= m < N:
        raise ValueError(f"m = {m} outside [1, {N - 1}]")
    total = math.comb(N - 1, m)
    for i in range(1, t1 + 1):
        for j in range(1, t2 + 1):
            s = p1 ** i * p2 ** j
            sign = -1 if (m + m // s) % 2 else 1
            total += (
                (p1 - 1) * (p2 - 1) * sign * p1 ** (i - 1) * p2 ** (j - 1)
                * math.comb(p1 ** (t1 - i) * p2 ** (t2 - j) - 1, m // s)
            )
    for i in range(1, t1 + 1):
        sign = -1 if (m + m // p1 ** i) % 2 else 1
        total += (
            sign * (p1 ** i - p1 ** (i - 1))
            * math.comb(p1 ** (t1 - i) * p2 ** t2 - 1, m // p1 ** i)
        )
    for j in range(1, t2 + 1):
        sign = -1 if (m + m // p2 ** j) % 2 else 1
        total += (
            sign * (p2 ** j - p2 ** (j - 1))
            * math.comb(p1 ** t1 * p2 ** (t2 - j) - 1, m // p2 ** j)
        )
    if total % N:
        raise IntegrityError(f"closed form total {total} not divisible by {N}")
    return total // N


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
