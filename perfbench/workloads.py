"""Seeded inputs for the three benchmark workloads, and the check each call's
output must pass.

A workload is a list of slots.  One cycle of the workload makes one call
per slot; the seed picks the curve, the codeword and the erased positions
inside each slot, while the slot fixes the field, m and the group order N,
which set the amount of work.  Runs therefore measure the same work mix on
every seed, with different inputs.

Every check uses a route that the timed call does not take:
  verify_sweep  the instance count comes from this file's own point count
  census_large  #S(m) must match the Moebius formula on Z/m1 x Z/m2, the
                distribution must obey the T_(m+1) identity
  decode_peel   the residual must be the largest stopping subset of the
                erased set, found with the group law (`classify`)
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from itertools import combinations
from typing import Callable

from stopset import agcode
from stopset.curve import EllipticCurve
from stopset.ffield import FieldSpec
from stopset.groupcount import AbelianGroup, count_S_m
from stopset.stoptheory import classify

ORACLE_ROWS = 2 ** 22  # stopset's default STOPSET_MAX_ROWS; children run without the variable
VERIFY_ROWS = 2 ** 17  # `verify` caps q^m at this as well


@dataclass(frozen=True)
class Call:
    """One CLI invocation, the work units it completes, and its check.

    check(rc, stdout) returns None when the output is right, else a reason.
    """

    argv: tuple[str, ...]
    units: int
    check: Callable[[int, str], "str | None"]


class Fq:
    """F_p or F_(p^2) on stopset's value encoding (value = c0 + c1 p) with
    the modulus stopset picks.  Counts points and formats elements without
    the program's own field and curve code."""

    def __init__(self, p: int, k: int):
        self.p, self.k, self.q = p, k, p ** k
        self.modulus = FieldSpec(p, k).modulus
        self.squares = {self.mul(v, v) for v in range(self.q)}

    def add(self, a: int, b: int) -> int:
        p = self.p
        if self.k == 1:
            return (a + b) % p
        return (a % p + b % p) % p + (a // p + b // p) % p * p

    def mul(self, a: int, b: int) -> int:
        p = self.p
        if self.k == 1:
            return a * b % p
        a0, a1, b0, b1 = a % p, a // p, b % p, b // p
        c0, c1 = self.modulus[0], self.modulus[1]
        hi = a1 * b1  # x^2 = -c0 - c1 x
        lo = a0 * b0 - hi * c0
        mid = a0 * b1 + a1 * b0 - hi * c1
        return lo % p + (mid % p) * p

    def text(self, v: int) -> str:
        if self.k == 1:
            return str(v)
        return f"{v % self.p}.{v // self.p}"

    def field_arg(self) -> str:
        return str(self.p) if self.k == 1 else f"{self.p},{self.k}"

    def nonsingular(self, a: int, b: int) -> bool:
        a3 = self.mul(a, self.mul(a, a))
        return self.add(self.mul(4 % self.p, a3), self.mul(27 % self.p, self.mul(b, b))) != 0

    def point_count(self, a: int, b: int) -> int:
        """#E(F_q) for y^2 = x^3 + a x + b, infinity included."""
        total = 1
        for x in range(self.q):
            rhs = self.add(self.mul(x, self.add(self.mul(x, x), a)), b)
            total += 1 if rhs == 0 else 2 if rhs in self.squares else 0
        return total

    def random_curve(self, rng: random.Random, N: int) -> tuple[int, int]:
        """(a, b) of a random nonsingular curve with N points."""
        for _ in range(100000):
            a, b = rng.randrange(self.q), rng.randrange(self.q)
            if self.nonsingular(a, b) and self.point_count(a, b) == N:
                return a, b
        raise RuntimeError(f"no curve over F_{self.q} with {N} points")

    def curve_args(self, a: int, b: int) -> tuple[str, ...]:
        return ("--field", self.field_arg(), "--a", self.text(a), "--b", self.text(b))


def _load(rc: int, stdout: str):
    """(parsed stdout, None) for a call that exited 0, else (None, reason)."""
    if rc != 0:
        return None, f"exit code {rc}"
    try:
        return json.loads(stdout), None
    except ValueError as exc:
        return None, f"stdout is not JSON: {exc}"


# ---------------------------------------------------------------------------
# verify_sweep


def verify_instances(max_q: int, max_m: int) -> int:
    """How many (curve, m) pairs `verify --max-q --max-m` must sweep."""
    count = 0
    for p in range(5, max_q + 1):
        if any(p % d == 0 for d in range(2, p)):
            continue
        F = Fq(p, 1)
        for a in range(p):
            for b in range(p):
                if F.nonsingular(a, b):
                    n = F.point_count(a, b) - 1
                    count += sum(1 for m in range(2, max_m + 1) if m < n and p ** m <= VERIFY_ROWS)
    return count


def verify_sweep(rng: random.Random, max_q: int = 7, max_m: int = 3):
    instances = verify_instances(max_q, max_m)

    def check(rc: int, stdout: str):
        out, err = _load(rc, stdout)
        if err:
            return err
        if out.get("mismatch_count") != 0 or out.get("mismatches"):
            return f"mismatch_count {out.get('mismatch_count')}"
        if out.get("instances") != instances:
            return f"instances {out.get('instances')}, expected {instances}"
        return None

    def cycle() -> list[Call]:
        argv = ("verify", "--max-q", str(max_q), "--max-m", str(max_m), "--seed", str(rng.randrange(10 ** 6)))
        return [Call(argv, instances, check)]

    return cycle


# ---------------------------------------------------------------------------
# census_large


def census_check(F: Fq, m: int, N: int):
    n = N - 1

    def check(rc: int, stdout: str):
        out, err = _load(rc, stdout)
        if err:
            return err
        if out["n"] != n or len(out["D"]) != n:
            return f"n = {out['n']}, expected {n}"
        m1, m2 = out["group"]["m1"], out["group"]["m2"]
        if m1 * m2 != N or m2 % m1 or (F.q - 1) % m1:
            return f"group Z/{m1} x Z/{m2} impossible for N = {N} over F_{F.q}"
        s_m = out["s_m_count"]
        expect = count_S_m(AbelianGroup.from_cyclic_factors((m1, m2)), m)
        if s_m != expect:
            return f"s_m_count {s_m}, Moebius formula gives {expect}"
        want = [1] + [0] * (m - 1) + [s_m, math.comb(n, m + 1) - (n - m) * s_m]
        want += [math.comb(n, i) for i in range(m + 2, n + 1)]
        if out["distribution"] != want:
            return "distribution breaks the size casework or the T_(m+1) identity"
        if out["stopping_distance"] != (m if s_m else m + 1):
            return f"stopping_distance {out['stopping_distance']}"
        if out["s_m"] is not None and len(out["s_m"]) != s_m:
            return f"{len(out['s_m'])} listed size-m stopping sets, count says {s_m}"
        oracle = out["oracle_agreement"]
        if oracle is not (True if F.q ** m <= ORACLE_ROWS else None):
            return f"oracle_agreement {oracle} with q^m = {F.q ** m}"
        return None

    return check


# (p, k, m, N): each side of the n > 24 switch (enumeration vs DP) and of
# the q^m <= 2^22 switch (oracle check run or skipped), over prime fields
# and F_(p^2).  N is pinned and squarefree, which makes the group cyclic,
# so the seed changes the curve but not the amount of work.  The slot count
# is odd, so the median call falls inside one slot's calls rather than in
# the gap between two slots, where it would swing with their extremes.
CENSUS_SLOTS = (
    (31, 1, 3, 23),  # n <= 24: enumeration, oracle
    (5, 2, 4, 23),  # n <= 24: enumeration, oracle
    (37, 1, 4, 39),  # DP, oracle
    (101, 1, 3, 103),  # DP, oracle
    (7, 2, 3, 51),  # DP, oracle
    (7, 2, 4, 55),  # DP, no oracle
    (127, 1, 4, 131),  # DP, no oracle
)


def census_large(rng: random.Random):
    fields = {(p, k): Fq(p, k) for p, k, _, _ in CENSUS_SLOTS}

    def cycle() -> list[Call]:
        calls = []
        for p, k, m, N in CENSUS_SLOTS:
            F = fields[p, k]
            a, b = F.random_curve(rng, N)
            argv = ("report", *F.curve_args(a, b), "--m", str(m), "--seed", str(rng.randrange(10 ** 6)))
            calls.append(Call(argv, 1, census_check(F, m, N)))
        return calls

    return cycle


# ---------------------------------------------------------------------------
# decode_peel


def largest_stopping_subset(spec, erased: tuple[int, ...]) -> tuple[int, ...]:
    """Stopping sets are closed under union, so the largest one inside the
    erased set is the union of all of them; the peeling decoder over the
    full H* stalls on exactly that set."""
    out: set[int] = set()
    for size in range(1, len(erased) + 1):
        for T in combinations(erased, size):
            if classify(spec, T).is_stopping:
                out.update(T)
    return tuple(sorted(out))


def decode_check(F: Fq, word: list[int], erased: tuple[int, ...], residual: tuple[int, ...]):
    def check(rc: int, stdout: str):
        out, err = _load(rc, stdout)
        if err:
            return err
        if out["erased"] != list(erased):
            return f"erased {out['erased']}, expected {list(erased)}"
        if out["residual"] != list(residual):
            return f"residual {out['residual']}, largest stopping subset is {list(residual)}"
        if out["fully_recovered"] != (not residual):
            return "fully_recovered disagrees with the residual"
        want = [None if j + 1 in residual else F.text(v) for j, v in enumerate(word)]
        if out["recovered"] != want:
            return "recovered values differ from the codeword"
        return None

    return check


# (p, k, m, N, erased size, outcome): q^m between 10^4 and 3*10^4 rows,
# erased sizes m-1 .. m+3, and an odd slot count as for CENSUS_SLOTS.
# "recover" peels every position; "partial" stalls on a size-m stopping set
# after recovering the rest; "stall" erases a stopping set, so peeling stops
# at once.  Recovering calls make one more pass over H* than stalling ones.
DECODE_SLOTS = (
    (13, 1, 4, 18, 3, "recover"),
    (23, 1, 3, 24, 3, "recover"),
    (5, 2, 3, 27, 4, "partial"),
    (11, 1, 4, 14, 6, "stall"),
    (5, 2, 3, 27, 6, "stall"),
)


def _erasure(rng: random.Random, spec, size: int, outcome: str):
    for _ in range(100000):
        erased = tuple(sorted(rng.sample(range(1, spec.n + 1), size)))
        residual = largest_stopping_subset(spec, erased)
        got = "recover" if not residual else "stall" if residual == erased else "partial"
        if got == outcome:
            return erased, residual
    raise RuntimeError(f"no size-{size} erasure with outcome {outcome}")


def decode_peel(rng: random.Random):
    fields = {(p, k): Fq(p, k) for p, k, *_ in DECODE_SLOTS}

    def cycle() -> list[Call]:
        calls = []
        for p, k, m, N, size, outcome in DECODE_SLOTS:
            F = fields[p, k]
            a, b = F.random_curve(rng, N)
            field = FieldSpec(p, k)
            E = EllipticCurve(field, field.from_value(a), field.from_value(b))
            spec = agcode.spec_all_points(E, m)
            basis = agcode.null_space(agcode.generator_matrix(spec)).values()
            word = [0] * spec.n
            while not any(word):
                coeffs = [rng.randrange(F.q) for _ in basis]
                word = [0] * spec.n
                for c, row in zip(coeffs, basis):
                    word = [F.add(w, F.mul(c, v)) for w, v in zip(word, row)]
            erased, residual = _erasure(rng, spec, size, outcome)
            argv = (
                "decode",
                *F.curve_args(a, b),
                "--m",
                str(m),
                "--erased",
                ",".join(map(str, erased)),
                "--codeword",
                ",".join(F.text(v) for v in word),
            )
            calls.append(Call(argv, 1, decode_check(F, word, erased, residual)))
        return calls

    return cycle


WORKLOADS = {
    "verify_sweep": verify_sweep,
    "census_large": census_large,
    "decode_peel": decode_peel,
}
