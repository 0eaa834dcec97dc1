"""The matrix side takes a code by its matrix G: the H* stream and census,
the weights, the distance and the decoder answer for G's row space, and
`generator_matrix` is the one bridge from an elliptic spec to it."""

from __future__ import annotations

import ast
import contextlib
import io
import itertools
import json
import random
from pathlib import Path

import pytest

from stopset import agcode
from stopset import (
    CodeMatrix,
    EllipticCodeSpec,
    FieldSpec,
    generator_matrix,
    hstar_rows,
    hstar_support_masks,
    make_instance,
    mds_distribution,
    null_space,
    peel,
    rational_points,
    residue_min_distance,
    spec_all_points,
    weight_enumerator,
)
from stopset.agcode import _rref, hstar_census, is_stopping_set_masks, matrix_rank, subset_mask
from stopset.cli import main
from stopset.ffield import parse_field
from stopset.reference import rs_code
from stopset.stoptheory import is_subgroup_minus_O

from conftest import nonsingular_curves

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "stopset"


def _names(node: ast.AST) -> set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)} | {
        n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)
    }


def test_only_the_bridge_takes_a_spec():
    tree = ast.parse((PACKAGE / "agcode.py").read_text())
    bridge = {"EllipticCodeSpec", "spec_all_points", "generator_matrix"}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in bridge:
            assert not _names(node) & {"EllipticCodeSpec", "spec_all_points"}, node.name
            args = [a.arg for n in ast.walk(node) if isinstance(n, ast.FunctionDef) for a in n.args.args]
            assert "spec" not in args, node.name
    weights = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "weight_enumerator")
    assert not [n for n in ast.walk(weights) if isinstance(n, (ast.If, ast.IfExp, ast.Try))]
    decoder = ast.parse((PACKAGE / "decoder.py").read_text())
    assert "EllipticCodeSpec" not in _names(decoder)
    assert not any(
        a.name == "EllipticCodeSpec" for n in ast.walk(decoder) if isinstance(n, ast.ImportFrom) for a in n.names
    )


def test_each_command_evaluates_G_once_per_spec(monkeypatch):
    # rr_basis runs once for every evaluation of an evaluation matrix
    evaluations = []
    real = agcode.rr_basis
    monkeypatch.setattr(agcode, "rr_basis", lambda m: evaluations.append(m) or real(m))
    agcode.generator_matrix.cache_clear()
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["decode", "--p", "13", "--a", "1", "--b", "1", "--m", "4", "--erased", "1,2,3"]) == 0
    assert evaluations == [4]
    agcode.generator_matrix.cache_clear()
    agcode.hstar_census.cache_clear()
    evaluations.clear()
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(["verify", "--max-q", "5", "--max-m", "3"]) == 0
    instances = json.loads(out.getvalue())["instances"]
    assert len(evaluations) == instances
    # the oracle's masks, the weight enumerator and the distance read one census
    info = agcode.hstar_census.cache_info()
    assert (info.misses, info.hits) == (instances, 2 * instances)


def test_a_zero_code_has_no_distance():
    G = CodeMatrix(FieldSpec(5), ((1, 0), (0, 1)))
    assert weight_enumerator(G) == (1, 0, 0)
    with pytest.raises(ValueError, match="zero code"):
        residue_min_distance(G)


def random_codeword(G: CodeMatrix, rng: random.Random) -> tuple[int, ...]:
    f = G.field
    word = [0] * G.ncols
    for row in null_space(G).values():
        c = rng.randrange(f.q)
        word = [f.add_val(w, f.mul_val(c, v)) for w, v in zip(word, row)]
    return tuple(word)


def mask_scan(masks, n: int) -> tuple[int, ...]:
    counts = [0] * (n + 1)
    for s in range(1 << n):
        if is_stopping_set_masks(masks, s):
            counts[s.bit_count()] += 1
    return tuple(counts)


@pytest.mark.parametrize("text", ["5", "7", "11", "13", "5,2"])
def test_grs_codes_run_through_the_matrix_side(text):
    # rs_code(f, n, k) generates the [n, k] RS code, so its row space is H*
    # of the dual [n, n - k] GRS code, an MDS code of distance k + 1.  Two
    # lengths per field, the longest n <= 10 and n = 6, and every k with
    # at most 2^12 H* words
    field = parse_field(text)
    rng = random.Random(f"grs-{text}")
    for n in sorted({min(field.q, 10), min(field.q, 6)}):
        for k in (k for k in range(1, n) if field.q ** k <= 2 ** 12):
            G = rs_code(field, n, k)
            assert mask_scan(hstar_support_masks(G), n) == tuple(mds_distribution(n, n - k)), (n, k)
            assert residue_min_distance(G) == k + 1, (n, k)
            codeword = random_codeword(G, rng)
            star = list(hstar_rows(G))
            for size in range(n + 1):
                for S in itertools.combinations(range(1, n + 1), size):
                    recovered, residual = peel(star, make_instance(G, codeword, S))
                    if size <= k:
                        assert residual == frozenset() and tuple(recovered) == codeword, (n, k, S)
                    else:
                        assert residual == frozenset(S), (n, k, S)


def column_rank(G: CodeMatrix, cols) -> int:
    sub = tuple(tuple(row[j - 1] for j in cols) for row in G.entries)
    return matrix_rank(CodeMatrix(G.field, sub))


def stopping_by_rank(G: CodeMatrix, S: tuple[int, ...]) -> bool:
    """The paper's general description: S is stopping under H* iff no
    column of G_S lies outside the span of the others, i.e. rank G_S =
    rank G_(S minus i) for every i in S; a row of H* meets S only at i
    exactly when column i is outside that span."""
    full = column_rank(G, S)
    return all(column_rank(G, [j for j in S if j != i]) == full for i in S)


def non_subgroup_spec():
    """Every second affine point of the first curve over F_13 where that
    makes at least eight points and no subgroup."""
    for E in nonsingular_curves(FieldSpec(13)):
        D = tuple(P for P in rational_points(E) if not P.is_infinity)[::2]
        if len(D) >= 8 and is_subgroup_minus_O(E, D) is None:
            return EllipticCodeSpec(E, D, 3)


@pytest.mark.parametrize("which", ["reference", "RS", "non-subgroup", "F25"])
def test_rank_criterion_matches_the_mask_scan(ref_spec, f25_spec, which):
    G = {
        "reference": lambda: generator_matrix(ref_spec),
        "RS": lambda: rs_code(FieldSpec(11), 10, 4),
        "non-subgroup": lambda: generator_matrix(non_subgroup_spec()),
        "F25": lambda: generator_matrix(f25_spec),
    }[which]()
    n, m = G.ncols, G.nrows
    masks = hstar_support_masks(G)
    subsets = [S for size in range(m + 3) for S in itertools.combinations(range(1, n + 1), size)]
    rng = random.Random(f"rank-{which}")
    for _ in range(500):
        size = rng.randint(m + 3, n)
        subsets.append(tuple(sorted(rng.sample(range(1, n + 1), size))))
    verdicts = set()
    for S in subsets:
        by_rank = stopping_by_rank(G, S)
        assert by_rank == is_stopping_set_masks(masks, subset_mask(S)), (which, S)
        verdicts.add((len(S) <= m + 1, by_rank))
    assert (True, True) in verdicts and (True, False) in verdicts


def other_bases(G: CodeMatrix, rng: random.Random) -> dict[str, CodeMatrix]:
    """Two more bases of G's row space, its RREF and a seeded invertible
    row mix, and a spanning set with one dependent row."""
    f, m = G.field, G.nrows
    while True:
        mix = [[rng.randrange(f.q) for _ in range(m)] for _ in range(m)]
        if len(_rref(f, mix)[0]) == m:
            break
    mixed = tuple(
        tuple(f.dot_vals(coeffs, column) for column in zip(*G.entries)) for coeffs in mix
    )
    extra = tuple(map(f.add_val, G.entries[0], G.entries[-1]))
    return {
        "rref": CodeMatrix(f, tuple(map(tuple, _rref(f, G.entries)[0]))),
        "mix": CodeMatrix(f, mixed),
        "dependent": CodeMatrix(f, G.entries + (extra,)),
    }


@pytest.mark.parametrize("which", ["reference", "F7", "F25"])
def test_answers_depend_on_the_row_space_only(ref_spec, f25_spec, which):
    spec = {
        "reference": lambda: ref_spec,
        "F7": lambda: spec_all_points(next(E for E in nonsingular_curves(FieldSpec(7)) if len(rational_points(E)) >= 10), 3),
        "F25": lambda: f25_spec,
    }[which]()
    G = generator_matrix(spec)
    rng = random.Random(f"basis-{which}")
    codeword = random_codeword(G, rng)
    erasures = [S for size in range(spec.n + 1) for S in itertools.combinations(range(1, spec.n + 1), size)]
    if len(erasures) > 300:
        erasures = rng.sample(erasures, 300)
    census = hstar_census(G)

    def answers(M: CodeMatrix):
        c = hstar_census(M)
        star = list(hstar_rows(M))
        outcomes = [peel(star, make_instance(M, codeword, S)) for S in erasures]
        return c.masks, c.dual_weights, weight_enumerator(M), residue_min_distance(M), outcomes

    want = answers(G)
    assert {residual for _, residual in want[-1]} != {frozenset()}  # some erasures stall
    for name, M in other_bases(G, rng).items():
        assert M is not G and M.entries != G.entries
        assert answers(M) == want, name
        assert hstar_census(M).dual_dim == census.dual_dim == spec.m
