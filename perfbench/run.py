"""Benchmark of the stopset command line, measured from outside the program.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout: the program is the `stopset` package under
src/.  Every call is a real CLI invocation, `cli.main(argv)` in a fresh
child interpreter (child.py), so no lru_cache carries over between calls,
as for a user of the CLI.  One call runs at a time: a closed loop with one
client.  The loop runs whole cycles of the workload (workloads.py) until
another cycle would pass S seconds, and always at least one.

Each call's output is checked after the call, outside its timed span; a
non-zero exit, a timeout or a failed check counts as a failed call.

--trace 0 prints the end-to-end metrics:
  units_per_s  work units of correct calls / summed wall time of all calls
               (spawn to exit); a unit is a curve instance checked, a code
               census, or an erasure pattern decoded
  call_s_p50   median time a call spends inside cli.main
  setup_s      median time from spawning a child to `import stopset` done
  peak_rss_mb  highest peak RSS of any child
--trace 1 runs every call twice, untraced and then traced (child.py wraps
the program's functions in spans), and prints the per-layer metrics:
  <span>.self_share  self time of the span / time inside cli.main
  <span>.calls       calls of the span; hstar_rows also counts .rows and
                     hstar_support_masks the .masks it returned
  <cache>.cache_hit_ratio  hits / lookups of a program lru_cache, summed
                     over calls, read at each child's exit
  cli.main.total_s   time in the traced cli.main span, summed over calls
  trace_overhead_s   time inside cli.main of the traced calls minus that of
                     the untraced calls

The last line of stdout is the result object; the line before it holds the
details: every call with its exit code, times and the sha256 of its stdout,
the span self times in seconds, the error rate, and the machine's nproc,
Python version and load average.  The same details are written to
.perfbench/<workload>-seed<N>-trace<0|1>.json under the checkout, so two
commits can be compared for byte-identical output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CHILD = Path(__file__).resolve().parent / "child.py"
CALL_TIMEOUT_S = 60.0
RUN_LIMIT_S = 150.0  # calls still due after this count as failed, so a run ends within 180 s
P90_MIN_CALLS = 100  # a p90 needs at least 10 samples above it


def call_once(argv, trace: bool, timeout: float = CALL_TIMEOUT_S) -> dict:
    """Spawn one child for `stopset argv`; never raises for a failed call."""
    env = {k: v for k, v in os.environ.items() if k not in ("STOPSET_MAX_ROWS", "PYTHONPATH")}
    cmd = [sys.executable, str(CHILD), str(SRC), "1" if trace else "0", json.dumps(list(argv))]
    t_spawn = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as proc:
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return {"argv": list(argv), "rc": None, "error": f"timeout after {timeout:.1f} s"}
        except BaseException:  # interrupted: leave no child behind, then re-raise
            proc.kill()
            raise
    wall_s = time.perf_counter() - t_spawn
    try:
        rec = json.loads(out.splitlines()[-1])
    except (IndexError, ValueError):
        return {"argv": list(argv), "rc": proc.returncode, "error": "child died: " + err.strip()[-300:]}
    return {
        "argv": list(argv),
        "rc": rec["rc"],
        "stdout": rec["stdout"],
        "sha256": hashlib.sha256(rec["stdout"].encode()).hexdigest(),
        "wall_s": wall_s,
        "setup_s": rec["imported_at"] - t_spawn,
        "main_s": rec["main_s"],
        "maxrss_mb": rec["maxrss_kb"] / 1024,
        "trace": rec.get("trace"),
        "stderr": err.strip()[-300:],
    }


def checked(call, trace: bool, timeout: float = CALL_TIMEOUT_S) -> dict:
    """call_once plus the workload's check; sets "ok" and "error"."""
    rec = call_once(call.argv, trace, timeout)
    if "error" not in rec:
        try:
            reason = call.check(rec["rc"], rec["stdout"])
        except (KeyError, IndexError, TypeError) as exc:  # output of another shape
            reason = f"unexpected output: {exc!r}"
        if reason:
            rec["error"] = reason
    rec["ok"] = "error" not in rec
    rec["units"] = call.units if rec["ok"] else 0
    rec.pop("stdout", None)
    return rec


def run_workload(cycle, seconds: float, trace: bool) -> tuple[list[dict], list[dict]]:
    """(untraced records, traced records) for whole cycles within `seconds`."""
    plain, traced = [], []
    start = time.perf_counter()

    def bounded(call, traced_call: bool) -> dict:
        left = start + RUN_LIMIT_S - time.perf_counter()
        if left <= 0:
            return {"argv": list(call.argv), "rc": None, "ok": False, "units": 0, "error": "run time limit reached"}
        return checked(call, traced_call, min(CALL_TIMEOUT_S, left))

    while True:
        t0 = time.perf_counter()
        for call in cycle():
            plain.append(bounded(call, False))
            if trace:
                traced.append(bounded(call, True))
        elapsed = time.perf_counter() - start
        if elapsed + (time.perf_counter() - t0) > seconds:
            return plain, traced


def end_to_end(plain: list[dict]) -> dict:
    done = [r for r in plain if "wall_s" in r]
    if not done:
        return {}
    return {
        "units_per_s": (sum(r["units"] for r in plain) / sum(r["wall_s"] for r in done), "1/s"),
        "call_s_p50": (statistics.median(r["main_s"] for r in done), "s"),
        "setup_s": (statistics.median(r["setup_s"] for r in done), "s"),
        "peak_rss_mb": (max(r["maxrss_mb"] for r in done), "MB"),
    }


def per_layer(plain: list[dict], traced: list[dict]) -> tuple[dict, dict]:
    """(per-layer metrics, span self times in seconds)."""
    from child import CACHES, SPANS

    spans = [f"{mod}.{fn}" for mod, fns in SPANS.items() for fn in fns]
    self_s = dict.fromkeys(spans, 0.0)
    calls = dict.fromkeys(spans, 0)
    counts = {"agcode.hstar_rows.rows": 0, "agcode.hstar_support_masks.masks": 0}
    caches = {f"{mod}.{fn}": [0, 0] for mod, fn in CACHES}
    pairs = [(p, t) for p, t in zip(plain, traced) if t.get("trace") and "main_s" in p]
    for _, t in pairs:
        tr = t["trace"]
        for name, v in tr["self_s"].items():
            self_s[name] += v
        for name, v in tr["calls"].items():
            calls[name] += v
        for name, v in tr["counts"].items():
            counts[name] += v
        for name, (hits, misses) in tr["caches"].items():
            caches[name][0] += hits
            caches[name][1] += misses
    total = sum(self_s.values())  # the cli.main span, which holds every other span
    metrics = {}
    for name in spans:
        metrics[name + ".self_share"] = (self_s[name] / total if total else 0.0, "ratio")
        metrics[name + ".calls"] = (calls[name], "count")
    for name, v in counts.items():
        metrics[name] = (v, "count")
    for name, (hits, misses) in caches.items():
        metrics[name + ".cache_hit_ratio"] = (hits / (hits + misses) if hits + misses else 0.0, "ratio")
    metrics["cli.main.total_s"] = (total, "s")
    metrics["trace_overhead_s"] = (sum(t["main_s"] - p["main_s"] for p, t in pairs), "s")
    return metrics, self_s


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "stopset" / "cli.py").is_file():
        sys.stderr.write(f"no stopset package under {SRC}; run from the root of a stopset checkout\n")
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.stderr.write(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}\n")
        return 2
    cycle = WORKLOADS[args.workload](random.Random(f"{args.workload}/{args.seed}"))
    # SIGTERM unwinds like Ctrl-C, so call_once kills and reaps the running child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    plain, traced = run_workload(cycle, args.seconds, bool(args.trace))
    records = plain + traced
    failed = sum(1 for r in records if not r["ok"])
    if args.trace:
        metrics, self_s = per_layer(plain, traced)
    else:
        metrics, self_s = end_to_end(plain), None
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "loadavg": os.getloadavg(),
        },
        "calls": len(plain),
        "error_rate": failed / len(records),
        "call_s_p90": f"not reported: {len(plain)} calls, a p90 with 10 samples above it needs {P90_MIN_CALLS}",
        "span_self_s": self_s,
        "span_self_s_sum": sum(self_s.values()) if self_s else None,
        "records": [{k: v for k, v in r.items() if k != "trace"} for r in records],
    }
    text = json.dumps(details, sort_keys=True)
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(text + "\n")
    print(text)
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
