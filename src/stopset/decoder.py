"""Iterative peeling decoder for erasures.

Codewords, recovered words and parity-check rows hold canonical field
values; rows are tuples, as `hstar_rows` streams them.  Any row meeting
the erased set in exactly one position solves that position.  The first
pass reads the rows once, so a one-shot stream is enough; each later pass
revisits only the rows that still met two or more erased positions.  The
decoder stalls exactly on the maximal stopping subset of the erased set
when run over the full dual codebook, which is what ties decoding
behaviour to stopping sets.  One row per scalar class is enough, which is
what `hstar_rows` streams: a row c*h has the support of h, so the stopping
sets are the same, and it solves the same position with the same value,
-c*s / (c*h_j) = -s / h_j for the syndrome s of h.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .agcode import EllipticCodeSpec, generator_matrix
from .errors import FieldMismatchError, IntegrityError
from .ffield import FieldSpec


@dataclass(frozen=True)
class ErasureInstance:
    field: FieldSpec
    codeword: tuple[int, ...]  # canonical values
    erased: frozenset[int]  # 1-based positions

    def __post_init__(self) -> None:
        if not all(0 <= v < self.field.q for v in self.codeword):
            raise FieldMismatchError("codeword entry outside the field")
        for i in self.erased:
            if not 1 <= i <= len(self.codeword):
                raise ValueError(f"erased position {i} outside [1, {len(self.codeword)}]")


def make_instance(spec: EllipticCodeSpec, codeword: Sequence[int], erased: Iterable[int]) -> ErasureInstance:
    """Validate membership: the word must be orthogonal to every row of the
    evaluation matrix, i.e. lie in the residue code."""
    word = tuple(codeword)
    if len(word) != spec.n:
        raise ValueError(f"codeword length {len(word)} != n = {spec.n}")
    instance = ErasureInstance(spec.field, word, frozenset(erased))
    for row in generator_matrix(spec).entries:
        if spec.field.dot_vals(row, word):
            raise IntegrityError("word is not in the code (nonzero syndrome)")
    return instance


def _picker(positions: Sequence[int]) -> Callable[[Sequence[int]], tuple[int, ...]]:
    """A row's entries at `positions`, always as a tuple."""
    if len(positions) > 1:
        return operator.itemgetter(*positions)
    if positions:
        j = positions[0]
        return lambda row: (row[j],)
    return lambda row: ()


def peel(rows: Iterable[Sequence[int]], instance: ErasureInstance) -> tuple[list[int | None], frozenset[int]]:
    """Run peeling passes until one recovers nothing.

    rows holds parity-check rows as value tuples: a list or a one-shot
    iterable such as `hstar_rows(spec)`.  It is read once; later passes
    revisit only the rows that still met two or more erased positions.
    Returns (recovered vector, residual erased positions); unrecovered
    slots hold None.  A row is checked once, on the first visit that finds
    it fully known (known values never change): a nonzero syndrome raises
    IntegrityError, the input was not a codeword.
    """
    f = instance.field
    dot = f.dot_vals
    # erased slots hold 0, so a row's syndrome on its known positions is a
    # plain inner product
    values = [0 if j in instance.erased else v for j, v in enumerate(instance.codeword, 1)]
    unknown_at = sorted(j - 1 for j in instance.erased)
    pending = rows
    progressed = True
    while progressed:
        pick = _picker(unknown_at)
        progressed = False
        kept = []
        for row in pending:
            at = pick(row)
            zeros = at.count(0)
            if zeros < len(at) - 1:  # two or more unknowns
                kept.append(row)
                continue
            syndrome = dot(row, values)
            if zeros == len(at):
                if syndrome:
                    raise IntegrityError("known positions violate a parity check")
                continue
            j = unknown_at.pop(next(i for i, v in enumerate(at) if v))
            values[j] = f.mul_val(f.neg_val(syndrome), f.inv_val(row[j]))
            pick = _picker(unknown_at)
            progressed = True
        pending = kept
    recovered: list[int | None] = [None if j in unknown_at else v for j, v in enumerate(values)]
    return recovered, frozenset(j + 1 for j in unknown_at)
