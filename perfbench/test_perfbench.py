"""Tests of the benchmark itself, including negative controls: a wrong answer,
a verification failure and a hang must each count as a failed call.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from workloads import CENSUS_SLOTS, DECODE_SLOTS, WORKLOADS, Call, Fq, census_check, decode_peel, verify_instances  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def tampered(check, edit):
    """The same check, applied to the call's stdout after `edit` changed it."""

    def wrong(rc, stdout):
        out = json.loads(stdout)
        edit(out)
        return check(rc, json.dumps(out))

    return wrong


def census_call():
    p, k, m, N = CENSUS_SLOTS[0]
    F = Fq(p, k)
    a, b = F.random_curve(random.Random(0), N)
    return Call(("report", *F.curve_args(a, b), "--m", str(m)), 1, census_check(F, m, N))


def test_census_call_passes_its_check():
    rec = run.checked(census_call(), trace=False)
    assert rec["ok"], rec.get("error")
    assert len(rec["sha256"]) == 64


def test_tampered_s_m_count_is_a_failure():
    call = census_call()

    def bump(out):
        out["s_m_count"] += 1

    rec = run.checked(Call(call.argv, 1, tampered(call.check, bump)), trace=False)
    assert not rec["ok"] and "Moebius" in rec["error"]
    assert rec["units"] == 0


def test_output_of_another_shape_is_a_failure_not_a_crash():
    call = census_call()
    rec = run.checked(Call(call.argv, 1, tampered(call.check, lambda out: out.pop("group"))), trace=False)
    assert not rec["ok"] and rec["error"].startswith("unexpected output")


def test_tampered_recovered_value_is_a_failure():
    call = decode_peel(random.Random(0))()[0]  # the first slot recovers every position

    def flip(out):
        j = next(i for i, v in enumerate(out["recovered"]) if v is not None)
        out["recovered"][j] = "0" if out["recovered"][j] != "0" else "1"

    assert run.checked(call, trace=False)["ok"]
    rec = run.checked(Call(call.argv, 1, tampered(call.check, flip)), trace=False)
    assert not rec["ok"] and "codeword" in rec["error"]


def test_verify_corrupt_exits_1_and_is_a_failure():
    verify = WORKLOADS["verify_sweep"](random.Random(0), max_q=5, max_m=3)
    check = verify().pop().check
    rec = run.checked(Call(("verify", "--max-q", "5", "--max-m", "3", "--corrupt", "0"), 1, check), trace=False)
    assert rec["rc"] == 1
    assert not rec["ok"] and rec["units"] == 0


def test_timeout_is_a_failure_not_a_hang():
    call = WORKLOADS["verify_sweep"](random.Random(0))().pop()
    rec = run.checked(call, trace=False, timeout=0.05)
    assert not rec["ok"] and rec["error"].startswith("timeout")


def test_verify_instance_count_matches_the_documented_sweep():
    assert verify_instances(7, 3) == 109


def test_same_seed_same_inputs():
    for make in WORKLOADS.values():
        first = [c.argv for c in make(random.Random("s/3"))()]
        again = [c.argv for c in make(random.Random("s/3"))()]
        other = [c.argv for c in make(random.Random("s/4"))()]
        assert first == again != other


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )
    return proc.returncode, proc.stdout.splitlines()


def test_result_line_has_every_end_to_end_metric():
    rc, lines = bench("--workload", "decode_peel", "--seed", "1", "--seconds", "0", "--trace", "0")
    assert rc == 0
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())
    details = json.loads(lines[-2])
    assert details["error_rate"] == 0 and details["calls"] == len(DECODE_SLOTS)


def test_traced_run_has_every_per_layer_metric_and_self_times_add_up():
    rc, lines = bench("--workload", "decode_peel", "--seed", "1", "--seconds", "0", "--trace", "1")
    assert rc == 0
    result = json.loads(lines[-1])
    assert result["correct"] and result["attempted"] == 2 * len(DECODE_SLOTS)
    want = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    shares = sum(v["value"] for k, v in result["metrics"].items() if k.endswith(".self_share"))
    assert abs(shares - 1) < 1e-9
    assert result["metrics"]["agcode.hstar_rows.self_share"]["value"] > 0.5


def test_without_the_program_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    rc, lines = bench("--workload", "decode_peel", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert rc != 0 and lines == []
