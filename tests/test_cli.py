from __future__ import annotations

import argparse
import hashlib
import json
import math
import random
import subprocess
import sys
import time

import pytest

from stopset import AbelianGroup, FieldSpec, count_S_m, curve, generator_matrix, spec_all_points
from stopset import cli
from stopset.cli import _read, _verify_instance, build_parser, main
from stopset.errors import IntegrityError

REF = ["--p", "5", "--a", "1", "--b", "1"]
# evaluation points listed as successive multiples of (0, 1)
REF_D = "0,1;4,2;2,1;3,4;3,1;2,4;4,3;0,4"


def run_json(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return json.loads(captured.out)


def test_points(capsys):
    doc = run_json(capsys, ["points", *REF])
    assert doc["schema"] == 1
    assert doc["count"] == 9
    assert doc["points"][0] == "inf"
    assert doc["points"][1] == ["0", "1"]
    assert doc["field"] == "5"


def test_points_extension_field(capsys):
    doc = run_json(capsys, ["points", "--field", "5,2", "--a", "1", "--b", "2"])
    assert (doc["count"] - 26) ** 2 <= 100  # Hasse for q = 25


def test_structure(capsys):
    doc = run_json(capsys, ["structure", *REF])
    assert (doc["m1"], doc["m2"], doc["order"]) == (1, 9, 9)
    assert doc["generators"][0] == "inf"


def test_groupcount(capsys):
    doc = run_json(capsys, ["groupcount", "--group", "2x4", "--k", "3", "--target", "0,2"])
    assert doc["group"] == [2, 4]
    assert doc["count"] == 6
    identity = run_json(capsys, ["groupcount", "--group", "9", "--k", "3"])
    assert identity["count"] == 6
    normalized = run_json(capsys, ["groupcount", "--group", "4x3", "--k", "2"])
    assert normalized["group"] == [12]


def test_gen(capsys):
    doc = run_json(capsys, ["gen", *REF, "--m", "3"])
    assert doc["role"] == "generator"
    assert len(doc["matrix"]) == 3
    assert len(doc["matrix"][0]) == 8
    assert doc["matrix"][0] == ["1"] * 8
    assert len(doc["D"]) == 8


def test_report_canonical_order(capsys):
    doc = run_json(capsys, ["report", *REF, "--m", "3"])
    assert doc["s_m_count"] == 6
    assert doc["distribution"] == [1, 0, 0, 6, 40, 56, 28, 8, 1]
    assert doc["stopping_distance"] == 3
    assert doc["oracle_agreement"] is True
    assert doc["group"] == {"m1": 1, "m2": 9}
    assert doc["s_m"] == [
        [1, 3, 5], [1, 4, 7], [2, 3, 8], [2, 4, 6], [3, 6, 7], [4, 5, 8],
    ]


def test_report_explicit_point_order(capsys):
    doc = run_json(capsys, ["report", *REF, "--m", "3", "--D", REF_D])
    assert doc["s_m"] == [
        [1, 2, 6], [1, 3, 5], [2, 3, 4], [3, 7, 8], [4, 6, 8], [5, 6, 7],
    ]
    assert doc["distribution"] == [1, 0, 0, 6, 40, 56, 28, 8, 1]


def test_report_csv(capsys):
    code = main(["report", *REF, "--m", "3", "--format", "csv"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "size,count"
    assert lines[1] == "0,1"
    assert lines[4] == "3,6"
    assert len(lines) == 10


def test_mds(capsys):
    doc = run_json(capsys, ["mds", "--n", "5", "--k", "2"])
    assert doc["distribution"] == [1, 0, 0, 0, 5, 1]
    code = main(["mds", "--n", "5", "--k", "2", "--format", "csv"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[-1] == "5,1"


def test_decode_recovers(capsys):
    doc = run_json(capsys, ["decode", *REF, "--m", "3", "--erased", "1,2,3"])
    assert doc["fully_recovered"] is True
    assert doc["residual"] == []
    assert doc["recovered"] == ["0"] * 8


def test_decode_stalls_on_stopping_set(capsys):
    doc = run_json(capsys, ["decode", *REF, "--m", "3", "--erased", "1,3,5"])
    assert doc["fully_recovered"] is False
    assert doc["residual"] == [1, 3, 5]
    assert doc["recovered"][0] is None


def test_decode_spec_file(capsys, tmp_path):
    spec_file = tmp_path / "code.json"
    spec_file.write_text(
        json.dumps({"field": "5", "a": "1", "b": "1", "m": 3, "D": REF_D.split(";")})
    )
    doc = run_json(capsys, ["decode", "--spec", str(spec_file), "--erased", "1,2,6"])
    assert doc["residual"] == [1, 2, 6]


def test_out_file(capsys, tmp_path):
    target = tmp_path / "points.json"
    code = main(["points", *REF, "--out", str(target)])
    assert code == 0
    assert capsys.readouterr().out == ""
    doc = json.loads(target.read_text())
    assert doc["count"] == 9


def test_output_is_deterministic(capsys):
    main(["report", *REF, "--m", "3"])
    first = capsys.readouterr().out
    main(["report", *REF, "--m", "3"])
    second = capsys.readouterr().out
    assert first == second


def test_verify_clean_sweep(capsys):
    doc = run_json(capsys, ["verify", "--max-q", "5", "--max-m", "2"])
    assert doc["instances"] > 0
    assert doc["mismatch_count"] == 0
    assert doc["mismatches"] == []


def test_verify_instance_lists_S_m_past_the_report_bound():
    # 26 points: n = 25 is past the n <= ENUM_MAX_N rule on report's listing
    E = curve(FieldSpec(17), 3, 0)
    for m in (2, 3):
        spec = spec_all_points(E, m)
        assert spec.n == 25
        assert _verify_instance(spec, 0, None) == []


def test_verify_clamps_m_below_n(capsys):
    t0 = time.monotonic()
    huge = run_json(capsys, ["verify", "--max-q", "5", "--max-m", "1000000000"])
    assert time.monotonic() - t0 < 2.0
    small = run_json(capsys, ["verify", "--max-q", "5", "--max-m", "10"])
    assert (huge["instances"], huge["mismatch_count"]) == (small["instances"], small["mismatch_count"])


def test_verify_fault_injection(capsys):
    code = main(["verify", "--max-q", "5", "--max-m", "2", "--corrupt", "0"])
    captured = capsys.readouterr()
    assert code == 1
    assert "verification mismatch" in captured.err
    doc = json.loads(captured.out)
    assert doc["mismatch_count"] >= 1
    assert doc["corrupted"] is True
    assert "subset" in doc["mismatches"][0]


def test_every_corrupt_value_injects_a_fault(capsys):
    # adding 1 to an entry in 1..q-2 keeps its row's support; the hook must
    # change the set of supports whatever the entry holds
    for corrupt in range(41):
        code = main(["verify", "--max-q", "5", "--max-m", "2", "--corrupt", str(corrupt)])
        doc = json.loads(capsys.readouterr().out)
        assert code == 1, corrupt
        assert doc["corrupted"] is True and doc["mismatch_count"] >= 1, corrupt


@pytest.mark.parametrize(
    "argv",
    [
        ["--max-q", "5", "--max-m", "1", "--corrupt", "3"],
        ["--max-q", "4", "--corrupt", "3"],
        ["--max-q", "5", "--max-m", "1"],
        ["--max-q", "4"],
    ],
    ids=["m-below-2", "no-prime", "m-below-2-clean", "no-prime-clean"],
)
def test_verify_corrupt_on_an_empty_sweep_exit_2(capsys, argv):
    # with no instance, a fault cannot be injected, and a clean verdict
    # would speak for no code
    assert main(["verify", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "sweep" in captured.err and "empty" in captured.err


def test_usage_errors(capsys):
    assert main(["points", "--a", "1", "--b", "1"]) == 2  # no field given
    capsys.readouterr()
    assert main(["points", "--p", "6", "--a", "1", "--b", "1"]) == 2  # 6 not prime
    capsys.readouterr()
    assert main(["points", "--p", "5", "--a", "0", "--b", "0"]) == 2  # singular
    capsys.readouterr()
    assert main(["decode", *REF, "--erased", "1"]) == 2  # m missing, no spec file
    capsys.readouterr()
    assert main(["decode", "--spec", "/nonexistent.json", "--erased", "1"]) == 2
    capsys.readouterr()
    assert main(["report", *REF, "--m", "9"]) == 2  # m must stay below n
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--group", "2x", "--k", "1"], "--group '2x': '' is not an integer"),
        (["--group", "2x4", "--k", "1", "--target", "x"], "--target 'x': 'x' is not an integer"),
    ],
    ids=["group", "target"],
)
def test_groupcount_bad_input_exits_2(capsys, argv, message):
    assert main(["groupcount", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_missing_required_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--p", "5", "--a", "1", "--b", "1"])  # no --m
    assert exc.value.code == 2


def test_size_bound_exit(capsys, set_row_limit):
    set_row_limit(10)
    code = main(["decode", *REF, "--m", "3", "--erased", "1"])
    captured = capsys.readouterr()
    assert code == 3
    assert "size bound" in captured.err


def test_row_bound_ignores_the_environment(capsys, monkeypatch):
    # the row bound is a fixed constant, which no environment variable lowers
    monkeypatch.setenv("STOPSET_MAX_ROWS", "10")
    argv, code, digest = GOLDEN_LADDER[0]
    assert argv == ["report", *REF, "--m", "3"]
    assert main(argv) == code
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--p", "5", "--a", "1", "--b", "1", "--m", "3", "--D", "0,1;0,1"], "duplicate evaluation point 0,1"),
        (["--p", "7", "--a", "0", "--b", "1", "--m", "2", "--D", "inf"], "evaluation points must be affine"),
        (["--p", "5", "--a", "1", "--b", "1", "--m", "3", "--D", "0,z"], "cannot read 'z' as an element of F(5)"),
    ],
    ids=["duplicate", "infinity", "unreadable"],
)
def test_bad_points_named_before_m(capsys, argv, message):
    # D with too few points for m is still named by its faulty point
    assert main(["report", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize(
    "extra, message",
    [
        (["--erased", "0"], "erased position 0 outside [1, 8]"),
        (["--erased", "1,x"], "--erased '1,x': 'x' is not an integer"),
        (["--erased", "1", "--codeword", "0,0,0"], "codeword length 3 != n = 8"),
        (["--erased", "1", "--codeword", "1,0,0,0,0,0,0,0"], "not in the code"),
        (["--erased", "1", "--codeword", "0,y"], "cannot read 'y' as an element of F(5)"),
    ],
)
def test_decode_bad_input_exits_2(capsys, extra, message):
    assert main(["decode", *REF, "--m", "3", *extra]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err


def test_verify_weight_enumerator_mismatch(capsys, monkeypatch):
    from stopset import agcode

    real = agcode.weight_enumerator

    def tampered(G):
        A = list(real(G))
        A[G.nrows] += 1
        return tuple(A)

    monkeypatch.setattr(agcode, "weight_enumerator", tampered)
    code = main(["verify", "--max-q", "5", "--max-m", "2"])
    captured = capsys.readouterr()
    assert code == 1
    doc = json.loads(captured.out)
    flagged = [rec for rec in doc["mismatches"] if rec.get("check") == "weight-enumerator"]
    assert len(flagged) == doc["instances"]
    assert all(rec["A_m"] == 4 * rec["s_m_count"] + 1 for rec in flagged)


def test_verify_broken_enumerator_is_a_mismatch(capsys, monkeypatch):
    from stopset import agcode

    def broken(G):
        raise IntegrityError("A_0 = 2, not 1")

    monkeypatch.setattr(agcode, "weight_enumerator", broken)
    code = main(["verify", "--max-q", "5", "--max-m", "2"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 1
    assert doc["mismatch_count"] == doc["instances"]
    assert doc["mismatches"][0]["check"] == "weight-enumerator"


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "stopset", "mds", "--n", "4", "--k", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["distribution"] == [1, 0, 0, 4, 1]


F25 = ["--field", "5,2", "--a", "1", "--b", "2"]
# a word of the m = 3 residue code on all 31 affine points of that curve
F25_WORD = "2.0,2.0,2.2,1.0,0.0,0.0,0.0,0.0,1.0,0.0,0.0,0.0,2.3" + ",0.0" * 18

# stdout digest and exit code of a fixed ladder of calls, so a change of
# route cannot change a byte of what the commands print
GOLDEN_LADDER = [
    (["report", *REF, "--m", "3"], 0,
     "97c82c11b3c2812eb3350fc79d5aaebc8e499d06ddd0e568a6f60f91f9cea778"),
    (["report", *REF, "--m", "3", "--format", "csv"], 0,
     "562c6c1015cb56093e0d92a8c3a185dacf8544c7e142c59b318c756d5a3899c9"),
    (["report", "--p", "31", "--a", "1", "--b", "2", "--m", "3"], 0,
     "9f625f6b37f06cdf9422baa51b3daad5aa297c368aa42f13a6792e027b073431"),
    (["report", "--p", "29", "--a", "1", "--b", "1", "--m", "3"], 0,  # n = 35 > 24
     "b85c01345c940231d40f1a0d01aec09f101f644edfb0eb1bc9015638d8267d0f"),
    (["report", *REF, "--m", "2", "--D", "0,1;4,2;2,1;3,4;3,1"], 0,  # no subgroup
     "10915a6db5df84df544b419e5bc18c9bf8e70073d51dfe84a8e62a6b18e71b9f"),
    (["verify", "--max-q", "5", "--max-m", "3"], 0,
     "3a9e4888b7d1105f6c80dd8fa20b52d8cabace48847dab0e852bfc5a1e205362"),
    (["verify", "--max-q", "5", "--max-m", "2", "--corrupt", "0"], 1,
     "85738371d2dd15129665d22d761462fd8316ceb8c8f128892c534a7274ecd403"),
    (["decode", *REF, "--m", "3", "--erased", "1,3,5"], 0,
     "0b931d4140b4da3fd2bacf259111f989c5b01b294842d05b0a7d729ed470f0ad"),
    # extension fields: dotted elements in and out of every printing command
    (["points", *F25], 0,
     "1ed8b07e7b2582db42fc312a2a2bc9c419b37f152b605b1dbb915faa84d45a33"),
    (["structure", *F25], 0,
     "977df630626d480ca072b0373b7d3f3c9d32bbeb5a00baa3667702b79c964cc4"),
    (["gen", *F25, "--m", "3"], 0,
     "e8b709db7d0433cb1c5c7b6ac5409f52adbeec8afc4d3231c4e02aca4e662403"),
    (["report", "--field", "7,2", "--a", "1", "--b", "3", "--m", "2",
      "--D", "1.3,1.3;1.3,6.4;6.2,0.1"], 0,
     "7463d9298e329100fcc335ec900683f4713259f8b5562032f23118c587a0e8fa"),
    (["decode", *F25, "--m", "3", "--codeword", F25_WORD, "--erased", "1,2,13"], 0,
     "7fd184ec8080cdaf8bd58d065454c806c92e442d1de7ec4294eb5ed756ddf62d"),
    # the reach of the group law: N = 1060, Z/2 x Z/530
    (["report", "--p", "1009", "--a", "1", "--b", "3", "--m", "4"], 0,
     "ee31e824ab9394e7afd9ed798b7bdfc27e8797fe1b6b824eb4b3f51054202f37"),
    # the addition table at its largest prime square, q = 961, and
    # coefficient-wise sums past the table bound, q = 1369; both multiply
    # by logs
    (["points", "--field", "31,2", "--a", "1", "--b", "3"], 0,
     "5d24bf3c92eab72b9ccfb5a978a779fb8e49825bb9db93355574356dcb5d8aa8"),
    (["gen", "--field", "37,2", "--a", "1", "--b", "3", "--m", "3"], 0,
     "fa4355307ace1fad5ebd9d558174807a771030c63f073316d30350a7d5d90c96"),
    # corrupted supports settle nothing, so the oracle tests sizes
    # m - 1..m + 2 subset by subset, as it does without the zero-set proof
    (["verify", "--max-q", "7", "--max-m", "3", "--corrupt", "11"], 1,
     "25768679a7134542d8ac7d5c33e1f604184a3c67b1f2fb5a3413b98da9a6bd1a"),
    # n = 46 > 24, with every size m - 1..m + 2 past the 5,000-subset cap
    (["report", "--p", "43", "--a", "1", "--b", "3", "--m", "4"], 0,
     "2fbf26a15f856e246b1868951148405d53b2daaa9488c086a613585d32553685"),
    # MDS codes: the near-MDS shape with no size-m set
    (["mds", "--n", "7", "--k", "3"], 0,
     "4c6552dd14c75bc7d66e34ddad5b182b91118d0f6501bd8232d86d5c36f30370"),
    (["mds", "--n", "7", "--k", "3", "--format", "csv"], 0,
     "88702692793b67d976de700146230a3f3a17aee51568311b6675c50324195dff"),
    (["mds", "--n", "4096", "--k", "2048"], 0,
     "8b1ff4482123b7efa3b33520280703cc11cdf9c28bcf89d45025745cdeeb40e2"),
    # the invariant factors of a direct sum of cyclic groups, up to a prime
    # order of 40 bits
    (["groupcount", "--group", "4x3", "--k", "2"], 0,
     "3389fd37b7253c5e13297264a52c8cb45ce1b4fff3b38b6a47b646caf24a7637"),
    (["groupcount", "--group", "2x3x4x9", "--k", "3", "--target", "0,2"], 0,
     "092a784b4d23ef78e5275668eca14cba9bdac9a915a97e83c4a65783ead08595"),
    (["groupcount", "--group", "963761198400", "--k", "3"], 0,
     "9b8dee20bb78019605b95cf54a0a058d136d56386a118935da43c591873a976e"),
    (["groupcount", "--group", "1099511627689", "--k", "3"], 0,
     "77bf2d74dd4e09dfd1a2d87684cc5d9bdffdadac83e4869e04e3089aca98cabe"),
    # the group law and the H* census over the largest table field a curve
    # uses, q = 961: multiplication, negation and inversion by logs
    (["structure", "--field", "31,2", "--a", "1", "--b", "3"], 0,
     "140c952a7b05eee02215caa60919ad811aee9cbfc2533521a76fbb583159d1d2"),
    (["report", "--field", "31,2", "--a", "1", "--b", "3", "--m", "2"], 0,
     "4c6177154e3026a792a37a33fc6d3afacad720d412c4ea9ea0839cfbb52205e1"),
]


@pytest.mark.parametrize(
    "argv, code, digest", GOLDEN_LADDER, ids=[f"{argv[0]}-{i}" for i, (argv, _, _) in enumerate(GOLDEN_LADDER)]
)
def test_golden_stdout(capsys, argv, code, digest):
    assert main(argv) == code
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def tree_subparsers():
    """The tree's subparsers by command name."""
    action = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


@pytest.mark.parametrize("name", list(tree_subparsers()))
def test_one_command_parser_matches_the_tree(name):
    # the read knows every flag the tree's subparser declares but -h
    sub = tree_subparsers()[name]
    assert cli._COMMANDS[name][1].keys() == {s for a in sub._actions for s in a.option_strings} - {"-h", "--help"}
    ladder = [argv for argv, _, _ in GOLDEN_LADDER if argv[0] == name]
    assert ladder
    for argv in ladder:
        args = _read(name, argv[1:])
        assert args is not None, argv
        assert vars(args) == vars(build_parser().parse_args(argv))


@pytest.mark.parametrize(
    "argv, code",
    [
        (["bogus"], 2),
        ([], 2),
        (["rep"], 2),
        (["mds", "--n", "5", "--k", "2", "stray"], 2),
        (["mds", "--n", "five", "--k", "2"], 2),
        (["report", *REF, "--m", "3", "--format", "xml"], 2),
        (["report", *REF, "--m", "3.0"], 2),
        (["report", "-h"], 0),
    ],
    ids=["unknown", "none", "prefix", "stray", "bad-int", "bad-format", "float-m", "help"],
)
def test_usage_errors_match_the_tree(capsys, argv, code):
    with pytest.raises(SystemExit) as tree:
        build_parser().parse_args(argv)
    expected = capsys.readouterr()
    with pytest.raises(SystemExit) as one:
        main(argv)
    got = capsys.readouterr()
    assert one.value.code == tree.value.code == code
    assert (got.out, got.err) == (expected.out, expected.err)
    assert (got.err if code else got.out).startswith("usage: stopset")


@pytest.mark.parametrize(
    "argv, plain",
    [
        (["--fie", "5", "--a", "1", "--b", "1", "--m", "3"], [*REF, "--m", "3"]),
        (["--p", "5", "--a=1", "--b", "1", "--m", "3"], [*REF, "--m", "3"]),
        (["--p", "5", "--a", "-1", "--b", "1", "--m", "3"], ["--p", "5", "--a", "4", "--b", "1", "--m", "3"]),
        ([*REF, "--m", "2", "--m", "3"], [*REF, "--m", "3"]),
    ],
    ids=["abbreviation", "equals", "negative", "repeat"],
)
def test_forms_the_read_declines_print_what_the_plain_form_prints(capsys, argv, plain):
    # the tree parses these; the read hands them over untouched
    assert _read("report", argv) is None
    assert main(["report", *argv]) == 0
    declined = capsys.readouterr()
    assert main(["report", *plain]) == 0
    assert declined.out == capsys.readouterr().out and declined.err == ""


def _mixed_argv(name, rng):
    """A seeded argv for one command: plain pairs for its required flags and
    some others, then up to two changes of the kinds argparse accepts or
    refuses in ways the read must not copy."""
    sub = tree_subparsers()[name]
    actions = [a for a in sub._actions if a.option_strings and a.dest != "help"]

    def value(a):
        if a.choices:
            return rng.choice(list(a.choices))
        if a.type is int:
            return str(rng.randrange(40))
        return rng.choice(["1", "5", "7,2", "0,1;4,2", "zero", "x", ""])

    pairs = [[a.option_strings[0], value(a)] for a in actions if a.required or rng.random() < 0.4]
    rng.shuffle(pairs)
    for _ in range(rng.choice([0, 0, 1, 2])):
        kind = rng.choice(
            ["drop", "abbreviate", "equals", "negative", "repeat", "bad", "help", "stray", "unknown", "dangling"]
        )
        whole = [i for i, pair in enumerate(pairs) if len(pair) == 2]
        pick = rng.choice(whole) if whole else None
        if pick is None and kind not in ("help", "stray", "unknown", "dangling"):
            continue  # nothing to edit
        if kind == "drop":
            pairs.pop(pick)
        elif kind == "abbreviate":
            pairs[pick][0] = pairs[pick][0][:-1]
        elif kind == "equals":
            pairs[pick] = ["=".join(pairs[pick])]
        elif kind == "negative":
            pairs[pick][1] = "-" + (pairs[pick][1] or "1")
        elif kind == "repeat":
            pairs.append([pairs[pick][0], rng.choice([pairs[pick][1], "3"])])
        elif kind == "bad":
            pairs[pick][1] = rng.choice(["3.0", "x", "xml", "", "1 2"])
        elif kind == "help":
            pairs.insert(rng.randrange(len(pairs) + 1), [rng.choice(["-h", "--help"])])
        elif kind == "stray":
            pairs.insert(rng.randrange(len(pairs) + 1), ["stray"])
        elif kind == "unknown":
            pairs.insert(rng.randrange(len(pairs) + 1), ["--zzz", "1"])
        elif kind == "dangling":
            pairs.append([rng.choice(actions).option_strings[0]])
    return [name, *(token for pair in pairs for token in pair)]


@pytest.mark.parametrize("name", list(tree_subparsers()))
def test_the_read_gives_the_tree_namespace_or_declines(capsys, name):
    tree = build_parser()
    rng = random.Random(name)
    read = declined = 0
    for _ in range(300):
        argv = _mixed_argv(name, rng)
        try:
            want = tree.parse_args(argv)
        except SystemExit:
            want = None  # a usage error, exit 2, or help, exit 0
        got = _read(name, argv[1:])
        assert got is None or got == want, argv
        read += got is not None
        declined += got is None and want is not None
    capsys.readouterr()
    # both sides of the read are exercised: argv it reads, and valid argv it hands over
    assert read >= 50 and declined >= 10, (read, declined)


def test_every_flag_is_a_declaration_the_read_models():
    # one `--` option string per flag, keywords among the five the read
    # models, an int type that fails by ValueError, no typed str default for
    # argparse to convert, and one dest per flag, none of them the two the
    # tree sets by default
    for name, (_, flags, _) in cli._COMMANDS.items():
        dests = {flag[2:].replace("-", "_") for flag in flags}
        assert len(dests) == len(flags) and not dests & {"command", "func"}, name
        for flag, kw in flags.items():
            assert flag.startswith("--") and len(flag) > 2, (name, flag)
            assert kw.keys() <= {"type", "required", "default", "choices", "help"}, (name, flag)
            assert kw.get("type", int) is int, (name, flag)
            assert not ("type" in kw and isinstance(kw.get("default"), str)), (name, flag)


def test_a_clean_call_builds_no_tree(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an argparse parser was built")

    monkeypatch.setattr(cli, "build_parser", refuse)
    monkeypatch.setattr(argparse, "ArgumentParser", refuse)
    assert run_json(capsys, ["mds", "--n", "5", "--k", "2"])["distribution"] == [1, 0, 0, 0, 5, 1]
    assert run_json(capsys, ["report", "--field", "7,2", "--a", "3.3", "--b", "1.3", "--m", "3", "--seed", "7"])


def test_failed_verify_writes_its_report_to_out(capsys, tmp_path):
    argv = ["verify", "--max-q", "7", "--max-m", "3", "--corrupt", "11"]
    digest = next(d for a, _, d in GOLDEN_LADDER if a == argv)
    out = tmp_path / "v.json"
    assert main([*argv, "--out", str(out)]) == 1
    assert capsys.readouterr().out == ""
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_verify_corrupt_goes_through_the_oracle_check(capsys, monkeypatch):
    from stopset import stoptheory

    monkeypatch.setattr(stoptheory, "oracle_agreement_check", lambda spec, masks, seed: [])
    assert main(["verify", "--max-q", "5", "--max-m", "2", "--corrupt", "0"]) == 0
    assert json.loads(capsys.readouterr().out)["corrupted"] is True


def test_verify_corrupt_reads_hstar_once(capsys, monkeypatch):
    from stopset import agcode

    agcode.hstar_census.cache_clear()
    census = _count_calls(monkeypatch, agcode, ("hstar_census",))
    walked = []
    real_stream = agcode._combination_stream

    def recorded(spec, rows):
        walked.append(len(rows))
        return real_stream(spec, rows)

    monkeypatch.setattr(agcode, "_combination_stream", recorded)
    assert main(["verify", "--max-q", "5", "--max-m", "2", "--corrupt", "0"]) == 1
    assert json.loads(capsys.readouterr().out)["corrupted"] is True
    # the clean supports come from one census, whose pencils walk the
    # m - 1 = 1 rows before the last; no walk covers all m rows of G
    assert census == {"hstar_census": 1}
    assert walked == [1]


def corrupted_masks_reference(supports, n, corrupt):
    """`cli._corrupted_masks` as first written: the clean supports listed
    from the full H*, the nonzero words of `reference.dual_rows` in order."""
    clean = frozenset(supports)
    entries = len(supports) * n
    start = corrupt % len(supports) * n + corrupt % n
    for k in range(start, start + entries):
        row, col = divmod(k % entries, n)
        flipped = supports[row] ^ (1 << col)
        if flipped and flipped not in clean:
            return clean | {flipped}
    raise ValueError("no single-entry change alters the supports of H*")


@pytest.mark.parametrize("which", ["F5", "F7", "F25"])
def test_corrupted_masks_match_the_full_stream(ref_spec, f25_spec, which):
    from stopset.agcode import row_support
    from stopset.reference import dual_rows

    spec = {"F5": ref_spec, "F7": spec_all_points(curve(FieldSpec(7), 3, 2), 2), "F25": f25_spec}[which]
    G = generator_matrix(spec)
    supports = [row_support(r) for r in dual_rows(G) if any(r)]
    rng = random.Random(31)
    for c in [*range(3 * spec.n), *(rng.randrange(10 ** 6) for _ in range(200))]:
        assert cli._corrupted_masks(G, c) == corrupted_masks_reference(supports, spec.n, c), c


def test_verify_sweep_bound_within_the_row_bound():
    from stopset import agcode, cli

    assert cli.VERIFY_MAX_ROWS <= agcode.ROW_LIMIT  # every swept H* fits the row bound


def _count_calls(monkeypatch, module, names):
    counts = dict.fromkeys(names, 0)
    for name in names:
        real = getattr(module, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return counts


def test_one_route_per_question(capsys, monkeypatch):
    from stopset import agcode, stoptheory

    names = ("enumerate_S_m", "count_S_m_of_spec", "is_subgroup_minus_O", "oracle_agreement_check")
    counts = _count_calls(monkeypatch, stoptheory, names)
    transforms = _count_calls(monkeypatch, agcode, ("weight_enumerator", "macwilliams_transform"))
    agcode.hstar_support_masks.cache_clear()  # the transform is cached with each H* pass
    doc = run_json(capsys, ["verify", "--max-q", "5", "--max-m", "3"])
    assert counts == dict.fromkeys(names, doc["instances"])
    assert transforms == dict.fromkeys(transforms, doc["instances"])
    counts.update(dict.fromkeys(names, 0))
    run_json(capsys, ["report", "--p", "31", "--a", "1", "--b", "2", "--m", "3"])
    assert counts["enumerate_S_m"] == counts["count_S_m_of_spec"] == 1


def test_verify_flags_each_counting_route(capsys, monkeypatch):
    from stopset import cli, stoptheory

    real_list, real_formula = stoptheory.enumerate_S_m, cli.count_S_m
    monkeypatch.setattr(stoptheory, "enumerate_S_m", lambda spec: real_list(spec)[1:])
    monkeypatch.setattr(cli, "count_S_m", lambda G, m: real_formula(G, m) + 1)
    code = main(["verify", "--max-q", "5", "--max-m", "2"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 1
    listing = [rec for rec in doc["mismatches"] if rec["check"] == "s_m-listing"]
    formula = [rec for rec in doc["mismatches"] if rec["check"] == "distribution"]
    assert len(listing) + len(formula) == doc["mismatch_count"]
    assert all(rec["enumerate"] == rec["dp"] - 1 for rec in listing)
    assert all(rec["formula"] == rec["dp"] + 1 for rec in formula)
    assert listing and len(formula) == doc["instances"]  # D = E minus O is a subgroup


@pytest.mark.parametrize(
    "argv",
    [
        ["groupcount", "--group", "100000", "--k", "50000"],
        ["groupcount", "--group", "1000000000000000000", "--k", "3"],
        ["mds", "--n", "20000", "--k", "10000"],
        ["structure", "--p", "100003", "--a", "1", "--b", "3"],  # the order census
        ["report", "--p", "1009", "--a", "1", "--b", "3", "--m", "40"],  # the subset-sum DP
        ["points", "--p", "1000003", "--a", "1", "--b", "3"],  # the point listing
        ["gen", "--p", "1000003", "--a", "1", "--b", "3", "--m", "3"],  # the matrix entries
        ["report", "--field", "31,4", "--a", "1", "--b", "3", "--m", "3"],  # the census, before the points
        ["report", "--p", "1000003", "--a", "1", "--b", "3", "--m", "3"],
        ["decode", "--p", "1009", "--a", "1", "--b", "3", "--m", "2", "--erased", "1,2"],  # the H* stream
        ["decode", "--field", "31,4", "--a", "1", "--b", "3", "--m", "2", "--erased", "1"],
        ["decode", "--p", "5", "--a", "1", "--b", "1", "--m", "1000000000", "--erased", "1"],  # no 5^m formed
        ["points", "--p", "2305843009213693951", "--a", "1", "--b", "1"],  # the field size, before trial division
        ["points", "--field", "5,1000000000", "--a", "1", "--b", "1"],  # no 5^(10^9) formed
        ["verify", "--max-q", "1000"],  # the sweep's curve count
        ["points", "--field", "31,4", "--a", "0", "--b", "0"],  # sized before the singular curve is built
        ["decode", "--field", "31,4", "--a", "0", "--b", "0", "--m", "2", "--D", "1,1;2,2", "--erased", "1"],  # n = 2 entries
        ["points", "--field", "2,20", "--a", "1", "--b", "1"],  # the modulus search, before the listing bound
        ["structure", "--field", "3,12", "--a", "1", "--b", "1"],  # the modulus search, before the census bound
    ],
)
def test_size_bounds_exit_3(argv):
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, "-m", "stopset", *argv], capture_output=True, text=True, timeout=30)
    assert time.monotonic() - t0 < 2.0
    assert proc.returncode == 3
    assert "size bound exceeded" in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--m", "0"],
        ["report", "--m", "0"],
        ["decode", "--m", "0", "--erased", "1"],
        ["decode", "--spec", "{spec}", "--erased", "1"],
    ],
    ids=["gen", "report", "decode-flags", "decode-spec"],
)
def test_bad_m_exits_2_before_any_bound(tmp_path, argv):
    # over F_1000003 a point enumeration takes seconds and the census bound
    # exits 3, so the m check must come first
    spec_file = tmp_path / "code.json"
    spec_file.write_text(json.dumps({"field": "1000003", "a": "1", "b": "1", "m": 0}))
    curve_flags = [] if "--spec" in argv else ["--p", "1000003", "--a", "1", "--b", "1"]
    argv = [arg.format(spec=spec_file) for arg in argv]
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "stopset", *argv[:1], *curve_flags, *argv[1:]], capture_output=True, text=True, timeout=30
    )
    assert time.monotonic() - t0 < 2.0
    assert proc.returncode == 2
    assert "need 0 < m" in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("command", [["points"], ["structure"], ["gen", "--m", "2"]], ids=["points", "structure", "gen"])
@pytest.mark.parametrize(
    "curve, message",
    [
        (["--p", "6", "--a", "1", "--b", "1"], "not prime"),
        (["--field", "5,2,4.0.1", "--a", "1", "--b", "1"], "reducible"),
        (["--p", "5", "--a", "0", "--b", "0"], "singular curve"),
        (["--p", "7", "--a", "x", "--b", "1"], "cannot read 'x' as an element of F(7)"),
        (["--field", "5,2", "--a", "1.x", "--b", "1"], "cannot read '1.x' as an element of F(5^2)"),
        (["--field", "5,x", "--a", "1", "--b", "1"], "cannot parse field description '5,x'"),
    ],
    ids=["not-prime", "reducible", "singular", "bad-element", "bad-coefficient", "bad-field"],
)
def test_bad_curve_exits_2(capsys, command, curve, message):
    assert main([command[0], *curve, *command[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err


class _Enumerated(Exception):
    pass


@pytest.mark.parametrize(
    "argv, inside",
    [
        (["points", "--p", "130349"], True),  # Hasse bound 2^17
        (["points", "--p", "130363"], False),
        (["gen", "--p", "348323", "--m", "3"], True),  # 3 * Hasse bound 2^20 - 64
        (["gen", "--p", "348353", "--m", "3"], False),
    ],
)
def test_points_and_gen_bounds_are_checked_first(capsys, monkeypatch, argv, inside):
    from stopset import agcode, cli

    def enumerated(*args):
        raise _Enumerated

    monkeypatch.setattr(cli, "rational_points", enumerated)
    monkeypatch.setattr(agcode, "rational_points", enumerated)
    argv = [*argv, "--a", "1", "--b", "3"]
    if inside:
        with pytest.raises(_Enumerated):
            main(argv)
    else:
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "size bound exceeded" in captured.err


@pytest.mark.parametrize("source", ["flags", "spec-file"])
@pytest.mark.parametrize(
    "p, m, inside",
    [
        ("101", 3, True),  # 101^3 * Hasse bound 122 < 2^27
        ("1009", 2, False),  # 1009^2 * Hasse bound 1073 > 2^27
    ],
)
def test_decode_stream_bound_is_checked_first(capsys, monkeypatch, tmp_path, source, p, m, inside):
    from stopset import agcode, cli

    def enumerated(*args):
        raise _Enumerated

    monkeypatch.setattr(cli, "rational_points", enumerated)
    monkeypatch.setattr(agcode, "rational_points", enumerated)
    if source == "flags":
        argv = ["decode", "--p", p, "--a", "1", "--b", "3", "--m", str(m), "--erased", "1,2"]
    else:
        spec_file = tmp_path / "code.json"
        spec_file.write_text(json.dumps({"field": p, "a": "1", "b": "3", "m": m}))
        argv = ["decode", "--spec", str(spec_file), "--erased", "1,2"]
    if inside:
        with pytest.raises(_Enumerated):
            main(argv)
    else:
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "stream bound" in captured.err


DECODE_D = "1,45;1,56;2,35;2,66"  # on y^2 = x^3 + x + 3 over F_101


@pytest.mark.parametrize("bound, code", [(101 ** 2 * 4, 0), (101 ** 2 * 4 - 1, 3)])
def test_decode_bounds_a_given_D_by_its_size(capsys, monkeypatch, bound, code):
    # the Hasse bound, 122 points, would refuse both
    from stopset import agcode

    monkeypatch.setattr(agcode, "STREAM_LIMIT", bound)
    argv = ["decode", "--p", "101", "--a", "1", "--b", "3", "--m", "2", "--D", DECODE_D, "--erased", "1"]
    assert main(argv) == code
    captured = capsys.readouterr()
    if code:
        assert captured.out == "" and "101^2 rows of 4 entries" in captured.err
    else:
        assert json.loads(captured.out)["fully_recovered"] is True


GEN_D = "2,231543;3,828842;4,737829;6,15"  # on y^2 = x^3 + x + 3 over F_1000003


@pytest.mark.parametrize("bound, code", [(8, 0), (7, 3)])
def test_gen_bounds_a_given_D_by_its_size(capsys, monkeypatch, bound, code):
    from stopset import cli

    monkeypatch.setattr(cli, "GEN_MAX_ENTRIES", bound)
    argv = ["gen", "--p", "1000003", "--a", "1", "--b", "3", "--m", "2", "--D", GEN_D]
    assert main(argv) == code
    captured = capsys.readouterr()
    if code:
        assert captured.out == "" and "m * |D| = 8 matrix entries" in captured.err
    else:
        assert json.loads(captured.out)["matrix"] == [["1"] * 4, ["2", "3", "4", "6"]]


def test_readme_examples_inside_the_bounds(capsys):
    assert run_json(capsys, ["groupcount", "--group", "2x4", "--k", "3", "--target", "0,2"])["count"] == 6
    assert run_json(capsys, ["mds", "--n", "5", "--k", "2"])["distribution"] == [1, 0, 0, 0, 5, 1]
    doc = run_json(capsys, ["mds", "--n", "4096", "--k", "2048"])
    assert doc["distribution"][2048] == 0 and doc["distribution"][2049] == math.comb(4096, 2049)


@pytest.mark.parametrize(
    "doc, message",
    [
        ([{"field": "5", "a": "1", "b": "1", "m": 3}], "must hold a JSON object"),
        ({"field": "5", "a": "1", "b": "1", "m": 3, "D": [1, 2]}, "'D' must be"),
        ({"field": 5, "a": "1", "b": "1", "m": 3}, "'field' must be a string"),
        ({"field": "5", "a": "1", "b": "1", "m": [3]}, "'m' must be an integer"),
        ({"field": "5", "a": "1", "b": "1", "m": True}, "'m' must be an integer"),
        ({"field": "5", "a": "1", "b": "1", "m": "abc"}, "'m' must be an integer"),
        # a misspelled "D" must not fall back to all-minus-O
        ({"field": "5", "a": "1", "b": "1", "m": 3, "d": REF_D}, "unknown spec key 'd'"),
    ],
)
def test_decode_spec_of_wrong_shape_exits_2(capsys, tmp_path, doc, message):
    spec_file = tmp_path / "code.json"
    spec_file.write_text(json.dumps(doc))
    assert main(["decode", "--spec", str(spec_file), "--erased", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err


# the first 24 affine points `points` lists on y^2 = x^3 + x + 3 over F_1009
P1009_D24 = (
    "0,149;0,860;1,244;1,765;4,468;4,541;6,15;6,994;7,290;7,719;8,98;8,911;"
    "9,126;9,883;10,2;10,1007;11,423;11,586;17,336;17,673;18,306;18,703;20,256;20,753"
)


def test_report_omits_S_m_past_the_subset_bound(capsys):
    # n = 24 and #S(12) = 4208 pass the listing rule, but C(24, 12) does not
    # fit the subset bound of the enumeration
    doc = run_json(capsys, ["report", "--p", "1009", "--a", "1", "--b", "3", "--m", "12", "--D", P1009_D24])
    assert doc["s_m_count"] == 4208
    assert doc["s_m"] is None


def test_report_counts_past_the_old_dp_bound(capsys):
    # n * m * N = 2081 * 3 * 2093 was past the list DP's 2^23 additions;
    # the packed layers take its 4.2e8 bits.  D = E minus O is cyclic of
    # order 2082, so the Moebius formula checks the count
    doc = run_json(capsys, ["report", "--p", "2003", "--a", "1", "--b", "3", "--m", "3"])
    assert doc["group"] == {"m1": 1, "m2": 2082}
    assert doc["s_m_count"] == count_S_m(AbelianGroup.from_cyclic_factors([2082]), 3) == 720374


def _assert_named_twice(capsys, argv, sources):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and all(source in captured.err for source in sources)


def test_points_names_a_bad_prime_not_a_missing_one(capsys):
    assert main(["points", "--p", "0", "--a", "1", "--b", "1"]) == 2
    err = capsys.readouterr().err
    assert "characteristic 0 is not prime" in err and "need --p" not in err


def test_report_refuses_a_field_named_twice(capsys):
    _assert_named_twice(capsys, ["report", "--p", "7", "--field", "5", "--a", "1", "--b", "1", "--m", "2"], ["--p", "--field"])


def test_decode_refuses_flags_beside_a_spec_file(capsys, tmp_path):
    spec_file = tmp_path / "code.json"
    spec_file.write_text(json.dumps({"field": "5", "a": "1", "b": "1", "m": 3}))
    argv = ["decode", "--spec", str(spec_file), "--p", "7", "--erased", "1"]
    _assert_named_twice(capsys, argv, ["--spec", "--p"])


@pytest.mark.parametrize(
    "flags_D, doc_D",
    [(None, None), (REF_D, REF_D), (REF_D, REF_D.split(";"))],
    ids=["all-minus-O", "D-string", "D-list"],
)
def test_decode_spec_prints_what_the_flags_print(capsys, tmp_path, flags_D, doc_D):
    tail = ["--erased", "1,2,6"]
    assert main(["decode", *REF, "--m", "3", *(["--D", flags_D] if flags_D else []), *tail]) == 0
    by_flags = capsys.readouterr().out
    doc = {"field": "5", "a": "1", "b": "1", "m": 3, **({"D": doc_D} if doc_D else {})}
    spec_file = tmp_path / "code.json"
    spec_file.write_text(json.dumps(doc))
    assert main(["decode", "--spec", str(spec_file), *tail]) == 0
    assert capsys.readouterr().out == by_flags
