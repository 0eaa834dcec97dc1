from __future__ import annotations

import io
import itertools
import json
import random
import tracemalloc
from contextlib import redirect_stdout

import pytest

from stopset import (
    ErasureInstance,
    FieldMismatchError,
    IntegrityError,
    generator_matrix,
    hstar_rows,
    make_instance,
    null_space,
    peel,
)
from stopset.cli import main
from stopset.reference import dual_rows, enumerate_S_m1, residual_is_stopping

STOPPING_3 = [
    (1, 2, 6), (1, 3, 5), (2, 3, 4), (3, 7, 8), (4, 6, 8), (5, 6, 7),
]


@pytest.fixture(scope="module")
def star_rows(ref_spec):
    return list(hstar_rows(generator_matrix(ref_spec)))


@pytest.fixture(scope="module")
def codeword(ref_spec):
    return null_space(generator_matrix(ref_spec)).entries[0]


def test_full_recovery(ref_spec, star_rows, codeword):
    inst = make_instance(generator_matrix(ref_spec), codeword, {1, 2, 3})
    recovered, residual = peel(star_rows, inst)
    assert residual == frozenset()
    assert tuple(recovered) == codeword


def test_stall_on_stopping_set(ref_spec, star_rows, codeword):
    inst = make_instance(generator_matrix(ref_spec), codeword, {1, 2, 6})
    recovered, residual = peel(star_rows, inst)
    assert residual == {1, 2, 6}
    for j, e in enumerate(recovered, start=1):
        if j in residual:
            assert e is None
        else:
            assert e == codeword[j - 1]
    assert residual_is_stopping(star_rows, residual)
    assert not residual_is_stopping(star_rows, {1, 2, 3})  # peels fully, as in test_full_recovery
    assert not residual_is_stopping(iter(star_rows), {1, 2})  # below m, never stopping


def test_peel_to_maximal_stopping_subset(ref_spec, star_rows, codeword):
    # of the four erased positions only {2, 3, 4} is a stopping set
    inst = make_instance(generator_matrix(ref_spec), codeword, {2, 3, 4, 5})
    recovered, residual = peel(star_rows, inst)
    assert residual == {2, 3, 4}
    assert recovered[4] == codeword[4]


def test_recovery_iff_no_stopping_subset(ref_spec, star_rows, codeword):
    stopping = [set(s) for s in STOPPING_3 + enumerate_S_m1(ref_spec)]
    for size in range(6):
        for S in itertools.combinations(range(1, 9), size):
            inst = ErasureInstance(ref_spec.field, codeword, frozenset(S))
            recovered, residual = peel(star_rows, inst)
            hit = [s for s in stopping if s <= set(S)]
            if size >= 5:
                hit.append(set(S))  # size m + 2 and up is always stopping
            if hit:
                assert residual, f"{S} should stall"
                assert residual_is_stopping(star_rows, residual)
                assert all(s <= residual for s in hit)  # residual is maximal
            else:
                assert residual == frozenset()
            for j in range(1, 9):
                if j not in residual:
                    assert recovered[j - 1] == codeword[j - 1]


def test_row_order_never_changes_residual(ref_spec, star_rows, codeword):
    inst = make_instance(generator_matrix(ref_spec), codeword, {2, 3, 4, 5})
    baseline = peel(star_rows, inst)[1]
    rng = random.Random(3)
    for _ in range(10):
        shuffled = star_rows[:]
        rng.shuffle(shuffled)
        assert peel(shuffled, inst)[1] == baseline


def test_minimal_check_matrix_may_need_more_passes(ref_spec, codeword):
    # the three evaluation rows alone still peel, just not in one sweep:
    # row 0 meets both erasures, so it is kept for a second pass, which a
    # one-shot stream must allow as well
    rows = generator_matrix(ref_spec).values()
    inst = make_instance(generator_matrix(ref_spec), codeword, {1, 2})
    _, residual = peel(rows, inst)
    assert residual == frozenset() or residual_is_stopping(rows, residual)
    assert peel(iter(rows), inst) == (list(codeword), frozenset())


def test_make_instance_validation(ref_spec, codeword, f5):
    with pytest.raises(ValueError):
        make_instance(generator_matrix(ref_spec), codeword[:5], {1})
    corrupted = (f5.add_val(codeword[0], 1),) + codeword[1:]
    with pytest.raises(IntegrityError):
        make_instance(generator_matrix(ref_spec), corrupted, {1})
    zero = (0,) * 8
    assert make_instance(generator_matrix(ref_spec), zero, {2}).erased == {2}


def test_erased_positions_validated(codeword, f5):
    with pytest.raises(ValueError):
        ErasureInstance(f5, codeword, frozenset({0}))
    with pytest.raises(ValueError):
        ErasureInstance(f5, codeword, frozenset({9}))
    with pytest.raises(FieldMismatchError):
        ErasureInstance(f5, (5,) + codeword[1:], frozenset({1}))  # values stay below q


def test_peel_flags_noncodeword(ref_spec, star_rows, codeword, f5):
    corrupted = (f5.add_val(codeword[0], 1),) + codeword[1:]
    inst = ErasureInstance(f5, corrupted, frozenset())
    with pytest.raises(IntegrityError):
        peel(star_rows, inst)


def test_stream_rows_are_int_tuples(ref_spec):
    G = generator_matrix(ref_spec)
    for stream in (dual_rows(G), hstar_rows(G)):
        for row in stream:
            assert type(row) is tuple and len(row) == ref_spec.n
            assert all(type(v) is int for v in row)


@pytest.mark.parametrize("which", ["reference", "F25"])
def test_one_shot_and_list_agree(ref_spec, f25_spec, which):
    spec = ref_spec if which == "reference" else f25_spec
    f = spec.field
    rng = random.Random(4)
    word = [0] * spec.n
    for row in null_space(generator_matrix(spec)).values():
        c = rng.randrange(1, f.q)
        word = [f.add_val(w, f.mul_val(c, v)) for w, v in zip(word, row)]
    codeword = tuple(word)
    G = generator_matrix(spec)
    star = list(hstar_rows(G))
    full = [r for r in dual_rows(G) if any(r)]
    outcomes = set()
    for size in range(spec.n + 1):
        for S in itertools.combinations(range(1, spec.n + 1), size):
            inst = make_instance(G, codeword, S)
            recovered, residual = peel(star, inst)
            assert peel(hstar_rows(G), inst) == (recovered, residual), S
            # one row per scalar class peels as every nonzero dual word does
            assert peel(full, inst) == (recovered, residual), S
            assert residual <= inst.erased
            assert residual_is_stopping(star, residual)
            for j in range(1, spec.n + 1):
                assert recovered[j - 1] == (None if j in residual else codeword[j - 1])
            outcomes.add("stall" if residual == inst.erased and residual else "peel" if residual else "recover")
    assert outcomes == {"recover", "peel", "stall"}


@pytest.mark.parametrize("erased", [{1, 2}, {1, 2, 5}])
def test_bad_row_known_only_in_a_later_pass_raises(f5, erased):
    # row 0 meets two erasures in the first pass; rows 1 and 2 then solve
    # positions 2 and 1, so row 0 is fully known only from the second pass
    # on, where its syndrome 4 + 4 + 0 = 3 is nonzero.  Position 5 is in no
    # row, so with it erased the check happens while an erasure remains.
    rows = [(1, 1, 1, 0, 0), (0, 1, 0, 1, 0), (1, 0, 0, 1, 0)]
    word = (0, 0, 0, 1, 0)
    inst = ErasureInstance(f5, word, frozenset(erased))
    recovered, residual = peel(rows[1:], inst)  # the first pass without row 0
    assert [str(v) for v in recovered[:2]] == ["4", "4"]
    assert residual == erased - {1, 2}
    with pytest.raises(IntegrityError):
        peel(rows, inst)
    with pytest.raises(IntegrityError):
        peel(iter(rows), inst)


def test_decode_memory_stays_bounded():
    # F_37, m = 4, n = 47: 52022 H* rows, one per scalar class.  No set of
    # fewer than m points is a stopping set, so three erasures peel fully,
    # peeling keeps only the few rows read before the last one is solved,
    # and the call peaks near 0.1 MB; holding every row as an int tuple
    # would peak near 21 MB
    argv = ["decode", "--p", "37", "--a", "1", "--b", "1", "--m", "4", "--erased", "1,2,3"]
    tracemalloc.start()
    try:
        with redirect_stdout(io.StringIO()) as out:
            assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert json.loads(out.getvalue())["fully_recovered"]
    assert peak < 16 * 2 ** 20, peak
