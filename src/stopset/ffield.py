"""Exact arithmetic in small finite fields F_q with q = p^k.

Elements of F_(p^k) are polynomials over F_p modulo a monic irreducible
modulus of degree k.  Coefficient lists are constant-term first.  Every
element is stored by its canonical integer value

    c0 + c1*p + ... + c_(k-1)*p^(k-1),

which doubles as the element's position in enumeration order: sorting by
value is sorting by enumeration order, and value 0 is the zero element.
An extension field multiplies, negates and inverts by discrete logs to its
least primitive element, built at its first arithmetic, not with the field.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Callable, Iterable, Iterator, Sequence

from .errors import SizeLimitError

MAX_FIELD_SIZE = 2 ** 20  # guard on q = p^k
_OP_TABLE_BOUND = 2 ** 10  # up to this, an extension field keeps a q*q addition table beside its logs


def _prime_factors(n: int) -> Iterator[int]:
    """The prime factors of n >= 1, ascending and with multiplicity, by
    trial division; fine at desk scale.  Lazy, so a caller that needs only
    the least factor stops there."""
    d = 2
    while d * d <= n:
        while n % d == 0:
            yield d
            n //= d
        d += 1
    if n > 1:
        yield n


def is_prime(n: int) -> bool:
    return n >= 2 and next(_prime_factors(n)) == n


def factorize(n: int) -> dict[int, int]:
    """Prime factorization as {prime: exponent}."""
    if n < 1:
        raise ValueError("factorize expects a positive integer")
    out: dict[int, int] = {}
    for d in _prime_factors(n):
        out[d] = out.get(d, 0) + 1
    return out


# ---------------------------------------------------------------------------
# polynomial helpers over F_p; coefficient lists are constant-first and the
# index equals the power of the variable


def _poly_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_mul(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(out)

def _poly_rem(a: Sequence[int], mod: Sequence[int], p: int) -> list[int]:
    # mod must be monic
    r = [c % p for c in a]
    d = len(mod) - 1
    while len(_poly_trim(r)) > d:
        shift = len(r) - 1 - d
        lead = r[-1]
        for i, mc in enumerate(mod):
            r[shift + i] = (r[shift + i] - lead * mc) % p
    return r  # trimmed by the loop test


def _is_irreducible(modulus: Sequence[int], p: int) -> bool:
    """Trial division by every monic polynomial of degree 1..deg/2."""
    degrees = range(1, (len(modulus) - 1) // 2 + 1)
    return all(_poly_rem(modulus, [*tail, 1], p) for d in degrees for tail in itertools.product(range(p), repeat=d))


def _smallest_irreducible(p: int, k: int) -> tuple[int, ...]:
    # lexicographically smallest coefficient tuple (constant first), monic
    monic = (tuple(tail) + (1,) for tail in itertools.product(range(p), repeat=k))
    return next(cand for cand in monic if _is_irreducible(cand, p))


def _power(mul: Callable, base, e: int, one):
    """base^e for e >= 0 by square-and-multiply, with the product mul."""
    result = one
    while e:
        if e & 1:
            result = mul(result, base)
        base = mul(base, base)
        e >>= 1
    return result


class _ValueOp:
    """A FieldSpec value op: the first read on an instance binds all six there."""

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name

    def __get__(self, spec: "FieldSpec | None", owner: type | None = None):
        if spec is None:
            return self
        spec.__dict__.update(_value_ops(spec))
        return spec.__dict__[self.name]


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FieldSpec:
    """A finite field F_(p^k), prime subfield F_p in the k = 1 case.

    modulus is the defining polynomial, length k + 1, monic, constant-first;
    it stays empty for prime fields.  When omitted for k >= 2 the
    lexicographically smallest monic irreducible polynomial is chosen, so
    equal (p, k) pairs always name the same field.  The value ops, plain
    functions from _value_ops, are bound on the instance at the first read
    of any, so a field is built and sized without its tables.
    """

    p: int
    k: int = 1
    modulus: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        # p^k is not formed for a huge k: for p >= 2 it passes the bound once
        # k reaches the bound's bit length.  Trial division runs last, on a p
        # the bound has already capped.
        if self.k < 1:
            raise ValueError("extension degree must be >= 1")
        if self.p >= 2 and self.p ** min(self.k, MAX_FIELD_SIZE.bit_length()) > MAX_FIELD_SIZE:
            raise SizeLimitError(f"field size {self.p}^{self.k} exceeds {MAX_FIELD_SIZE}")
        if not is_prime(self.p):
            raise ValueError(f"characteristic {self.p} is not prime")
        if self.k == 1:
            if self.modulus:
                raise ValueError("prime fields take no modulus")
        elif not self.modulus:
            object.__setattr__(self, "modulus", _smallest_irreducible(self.p, self.k))
        else:
            mod = tuple(c % self.p for c in self.modulus)
            if len(mod) != self.k + 1:
                raise ValueError(f"modulus must have {self.k + 1} coefficients")
            if mod[-1] != 1:
                raise ValueError("modulus must be monic")
            if not _is_irreducible(mod, self.p):
                raise ValueError(f"modulus {mod} is reducible over F_{self.p}")
            object.__setattr__(self, "modulus", mod)

    def __reduce__(self):
        # the bound value ops are closures; a copy binds its own
        return FieldSpec, (self.p, self.k, self.modulus)

    @property
    def q(self) -> int:
        return self.p ** self.k

    # -- element construction ------------------------------------------------

    def from_value(self, value: int) -> int:
        """The canonical value itself, after its range check."""
        if not 0 <= value < self.q:
            raise ValueError(f"value {value} outside [0, {self.q})")
        return value

    def element(self, x: "int | Sequence[int]") -> int:
        """The canonical value of x.

        Integers embed through the prime subfield (n times one); sequences
        are coefficient lists, constant-term first.
        """
        if isinstance(x, int):
            return x % self.p
        coeffs = list(x)
        if len(coeffs) > self.k:
            raise ValueError(f"at most {self.k} coefficients expected")
        return self.value_of(coeffs)

    # -- value <-> coefficient conversions ------------------------------------

    def coeffs_of(self, value: int) -> tuple[int, ...]:
        out = []
        for _ in range(self.k):
            value, c = divmod(value, self.p)
            out.append(c)
        return tuple(out)

    def value_of(self, coeffs: Iterable[int]) -> int:
        v = 0
        for c in reversed([c % self.p for c in coeffs]):
            v = v * self.p + c
        return v

    # -- arithmetic on canonical values ---------------------------------------
    add_val, neg_val, sub_val, mul_val, inv_val, dot_vals = (_ValueOp() for _ in range(6))

    def pow_val(self, a: int, e: int) -> int:
        if e < 0:
            a, e = self.inv_val(a), -e
        return _power(self.mul_val, a, e, 1)

    def sqrt_vals(self, a: int) -> tuple[int, ...]:
        """All square roots of the value a, sorted, possibly empty."""
        return _sqrt_table(self)[a]

    # -- formatting -----------------------------------------------------------

    def format_element(self, value: int) -> str:
        """The text form of a value: the integer itself in a prime field,
        dotted coefficients (constant first) in an extension."""
        if self.k == 1:
            return str(value)
        return ".".join(str(c) for c in self.coeffs_of(value))

    def __repr__(self) -> str:
        if self.k == 1:
            return f"F({self.p})"
        return f"F({self.p}^{self.k})"


def _value_ops(spec: FieldSpec) -> dict[str, Callable]:
    """The value ops of `spec`: `%` arithmetic in a prime field; in an
    extension, products, negatives and inverses by the logs of `_op_tables`,
    sums by its addition table, or coefficient-wise past _OP_TABLE_BOUND.
    The inverse of zero raises ZeroDivisionError in every field."""
    p, q = spec.p, spec.q
    if spec.k == 1:
        add = lambda a, b: (a + b) % p
        neg = lambda a: -a % p
        sub = lambda a, b: (a - b) % p
        mul = lambda a, b: a * b % p
        invert = lambda a: pow(a, -1, p)
        dot = lambda a, b: sum(map(operator.mul, a, b)) % p
    else:
        add_table, exp, log = _op_tables(spec)
        if add_table is None:
            coeffs, value_of = spec.coeffs_of, spec.value_of
            add = lambda a, b: value_of(map(operator.add, coeffs(a), coeffs(b)))
        else:
            add = lambda a, b: add_table[a][b]
        minus_one = log[p - 1]  # the log of the constant -1: 0 in characteristic 2
        neg = lambda a: a and exp[log[a] + minus_one]
        sub = lambda a, b: add(a, neg(b))
        mul = lambda a, b: a and b and exp[log[a] + log[b]]
        invert = lambda a: exp[q - 1 - log[a]]
        dot = lambda a, b: reduce(add, map(mul, a, b), 0)

    def inv(a: int) -> int:
        if a == 0:
            raise ZeroDivisionError(f"inverse of zero in F_{q}")
        return invert(a)

    return {"add_val": add, "neg_val": neg, "sub_val": sub, "mul_val": mul, "inv_val": inv, "dot_vals": dot}


@lru_cache(maxsize=None)
def _op_tables(spec: FieldSpec):
    """(add, exp, log) for an extension field: exp[e] = g^e for the least
    primitive g, listed twice so that no exponent up to 2(q - 2) needs
    reducing; log[g^e] = e, with log[0] = 0 never read; the q x q addition
    table, grown one coefficient at a time, up to _OP_TABLE_BOUND, else None."""
    q, p = spec.q, spec.p
    # entries are taken from one list of q ints, so the tables hold q int
    # objects, not a new one for each entry past 256
    values = list(range(q))
    exp = [values[v] for v in _powers_of_primitive(spec)]
    log = [0] * q
    for e, v in enumerate(exp):
        log[v] = values[e]
    if q > _OP_TABLE_BOUND:
        return None, tuple(exp + exp), tuple(log)
    digit = [[(a + b) % p for b in range(p)] for a in range(p)]
    add = digit
    for _ in range(spec.k - 1):
        # a = a0 + p * a', b = b0 + p * b': the sum is digit[a0][b0] + p * add[a'][b']
        add = [[values[d + p * h] for h in add[a // p] for d in digit[a % p]] for a in range(p * len(add))]
    return tuple(map(tuple, add)), tuple(exp + exp), tuple(log)


def _powers_of_primitive(spec: FieldSpec) -> list[int]:
    """[g^0, ..., g^(q-2)] for the generator g of F_q^* of least value.  A
    candidate g is refused when g^((q-1)/l) = 1 for a prime l | q - 1, by
    square-and-multiply on coefficient lists; then only g's powers are
    walked, each step x -> x * g as the matrix whose row j is t^j * g."""
    q, p, mod = spec.q, spec.p, spec.modulus
    mul = lambda a, b: _poly_rem(_poly_mul(a, b, p), mod, p)
    cofactors = [(q - 1) // l for l in factorize(q - 1)]
    g = next(g for g in map(spec.coeffs_of, range(2, q)) if all(_power(mul, g, e, [1]) != [1] for e in cofactors))
    cols = list(zip(*(spec.coeffs_of(spec.value_of(mul([0] * j + [1], g))) for j in range(spec.k))))
    step = lambda x, _: [sum(map(operator.mul, x, col)) % p for col in cols]
    return list(map(spec.value_of, itertools.accumulate(range(q - 2), step, initial=spec.coeffs_of(1))))


@lru_cache(maxsize=None)
def _sqrt_table(spec: FieldSpec) -> tuple[tuple[int, ...], ...]:
    # one squaring per element; r runs upward, so each slot fills ascending
    roots: list[tuple[int, ...]] = [()] * spec.q
    for r in range(spec.q):
        roots[spec.mul_val(r, r)] += (r,)
    return tuple(roots)


# ---------------------------------------------------------------------------
# text forms used by the command line and by serialized configs


def parse_field(text: str) -> FieldSpec:
    """Parse 'p', 'p,k' or 'p,k,c0.c1...ck' (modulus constant-first)."""
    parts = [s.strip() for s in text.split(",")]
    try:
        if len(parts) > 3:
            raise ValueError
        p_k = [int(s) for s in parts[:2]]
        modulus = tuple(int(c) for c in parts[2].split(".")) if len(parts) == 3 else ()
    except ValueError:
        raise ValueError(f"cannot parse field description {text!r}") from None
    return FieldSpec(*p_k, modulus=modulus)


def field_str(spec: FieldSpec) -> str:
    if spec.k == 1:
        return str(spec.p)
    return f"{spec.p},{spec.k}," + ".".join(str(c) for c in spec.modulus)


def parse_element(spec: FieldSpec, text: str) -> int:
    """Parse an element to its canonical value: a bare integer
    (prime-subfield embedding) or a dot-separated coefficient list,
    constant term first."""
    text = text.strip()
    try:
        coeffs = [int(c) for c in text.split(".")]
    except ValueError:
        raise ValueError(f"cannot read {text!r} as an element of {spec!r}") from None
    return spec.element(coeffs if "." in text else coeffs[0])
