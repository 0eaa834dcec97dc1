"""Run one stopset CLI call in this fresh interpreter and report on it.

    python3 child.py SRC_DIR TRACE ARGV_JSON

SRC_DIR holds the `stopset` package, TRACE is 0 or 1 and ARGV_JSON is the
argument list for `cli.main`.  The call's stdout is captured, not printed;
this process prints one JSON line instead:

  imported_at  time.perf_counter() when `import stopset` had finished.  On
               Linux it reads CLOCK_MONOTONIC, which every process shares,
               so the parent subtracts its own spawn time from it.
  rc, main_s   exit code of `cli.main` and the wall time spent inside it
  stdout       what the call wrote to stdout
  maxrss_kb    peak resident set size of this process
  trace        with TRACE=1: self time and calls per span, counters, and
               the lru_cache statistics of the program's caches at exit

Tracing wraps each function in SPANS under every name any stopset module
bound it to, because `from .x import y` copies the binding at import time.
A span's self time is its wall time minus the time of the spans it called,
so the self times of one call add up to the `cli.main` span.
"""

from __future__ import annotations

import functools
import inspect
import io
import json
import resource
import sys
import time
from collections import defaultdict

SPANS = {
    "cli": ("main",),
    "stoptheory": (
        "build_report",
        "distribution",
        "count_S_m_of_spec",
        "enumerate_S_m",
        "is_subgroup_minus_O",
        "build_S_m_plus",
        "stopping_distance",
        "oracle_agreement_check",
        "sample_subsets",
        "classify",
    ),
    "curve": ("rational_points", "group_structure", "point_order"),
    "groupcount": ("subset_sum_table", "count_S_m"),
    "agcode": (
        "spec_all_points",
        "generator_matrix",
        "null_space",
        "min_distance_bruteforce",
        "residue_min_distance",
        "hstar_rows",
        "hstar_support_masks",
        "is_stopping_set_masks",
    ),
    "decoder": ("make_instance", "peel"),
}

# lru_cache'd functions whose hit ratio the trace reports
CACHES = (
    ("curve", "rational_points"),
    ("stoptheory", "_sum_context"),
    ("agcode", "hstar_support_masks"),
    ("ffield", "_op_tables"),
    ("ffield", "_sqrt_table"),
)


class Tracer:
    """Per-span self time and call counts for one process."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[list[float]] = []  # child time of each open span

    def _timed(self, name: str, fn, *args, **kwargs):
        frame = [0.0]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            self._stack.pop()
            self.self_s[name] += dt - frame[0]
            if self._stack:
                self._stack[-1][0] += dt

    def wrap(self, name: str, fn):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            result = self._timed(name, fn, *args, **kwargs)
            if name == "agcode.hstar_support_masks":
                self.counts[name + ".masks"] += len(result)
            return result

        return wrapper

    def _wrap_generator(self, name: str, fn):
        """Time spent inside next(), and one `.rows` count per item."""
        done = object()

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            it = fn(*args, **kwargs)
            while True:
                item = self._timed(name, next, it, done)
                if item is done:
                    return
                self.counts[name + ".rows"] += 1
                yield item

        return wrapper

    def install(self) -> None:
        package = [m for n, m in list(sys.modules.items()) if n == "stopset" or n.startswith("stopset.")]
        for mod_name, fn_names in SPANS.items():
            home = sys.modules["stopset." + mod_name]
            for fn_name in fn_names:
                original = getattr(home, fn_name)
                wrapper = self.wrap(f"{mod_name}.{fn_name}", original)
                for mod in package:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)

    def report(self, caches: dict) -> dict:
        return {
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "caches": caches,
        }


def cache_stats() -> dict:
    out = {}
    for mod_name, fn_name in CACHES:
        fn = getattr(sys.modules["stopset." + mod_name], fn_name)
        while not hasattr(fn, "cache_info"):  # under a span wrapper
            fn = fn.__wrapped__
        info = fn.cache_info()
        out[f"{mod_name}.{fn_name}"] = [info.hits, info.misses]
    return out


def main() -> None:
    src, trace, argv = sys.argv[1], sys.argv[2] == "1", json.loads(sys.argv[3])
    sys.path.insert(0, src)
    from stopset import cli

    imported_at = time.perf_counter()
    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install()
    real_stdout, captured = sys.stdout, io.StringIO()
    sys.stdout = captured
    t0 = time.perf_counter()
    try:
        rc = sys.modules["stopset.cli"].main(argv)
    except SystemExit as exc:  # argparse rejects bad argv this way
        rc = exc.code if isinstance(exc.code, int) else 2
    finally:
        main_s = time.perf_counter() - t0
        sys.stdout = real_stdout
    record = {
        "imported_at": imported_at,
        "rc": rc,
        "main_s": main_s,
        "stdout": captured.getvalue(),
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        record["trace"] = tracer.report(cache_stats())
    sys.stdout.write(json.dumps(record) + "\n")


if __name__ == "__main__":
    main()
