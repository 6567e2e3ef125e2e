"""Self-tests of the benchmark harness; they run before every benchmark run.

    python3 bench/selftest.py

Checks the metric names and units of BENCHMARK.json, the self-time
arithmetic of ``spans.py`` on a synthetic span tree, and that a corrupt
CSV, a non-zero exit and a bound violation each raise the failed share of
grid points in ``checks.py``, and that repeated runs count each grid point
once.  Nothing here runs the package.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import checks
import spans

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")

_CONFIG = {
    "lattice": "E4",
    "K": 4,
    "snr_db": {"start": 0.0, "stop": 10.0, "step": 10.0},
    "curves": ["SEP_SIM", "MSLB", "MSUB"],
}


def _files(sep_at_10db: str = "0.1,0.0941,0.1059,10000,1000") -> dict[str, bytes]:
    sep_rows = ["0,0.5,0.4902,0.5098,10000,5000", "10," + sep_at_10db]
    return {
        "e4-4pam-sep_sim.csv": (
            checks.SEP_HEADER + "\n" + "".join(f"{r},direct_mc,E4,4,1\n" for r in sep_rows)
        ).encode(),
        "e4-4pam-mslb.csv": (checks.BOUND_HEADER + "\n0,0.45,mslb,E4,4\n10,0.08,mslb,E4,4\n").encode(),
        "e4-4pam-msub.csv": (checks.BOUND_HEADER + "\n0,0.55,msub,E4,4\n10,0.12,msub,E4,4\n").encode(),
        "e4-4pam-curves.csv": (
            "snr_db,sep_sim,mslb,msub\n0,0.5,0.45,0.55\n10," + sep_at_10db.split(",")[0] + ",0.08,0.12\n"
        ).encode(),
    }


def _failed_frac(files: dict[str, bytes], returncode: int = 0) -> float:
    check, _ = checks.check_run(files, _CONFIG, returncode)
    return len(check.failed) / check.points


def check_names(benchmark: dict) -> tuple[bool, str]:
    declared = benchmark["end_to_end"] + benchmark["per_layer"]
    names = [m["name"] for m in declared] + [w["name"] for w in benchmark["workloads"]]
    bad = [n for n in names if not NAME.match(n)] + [m["unit"] for m in declared if not UNIT.match(m["unit"])]
    if bad or len(set(names)) != len(names):
        return False, f"bad or repeated names/units: {bad or names}"
    traced = set(spans.TRACE_METRICS) | {"trace.overhead_s"}
    if {m["name"] for m in benchmark["per_layer"]} != traced:
        return False, "per_layer names differ from the traced metrics"
    if set(spans.layer_metrics([], 0.0)) != set(spans.TRACE_METRICS):
        return False, "layer_metrics returns other names than TRACE_METRICS"
    return True, f"{len(names)} names and units valid and unique"


def check_self_times() -> tuple[bool, str]:
    def span(name, start, end, parent, **counts):
        return {"name": name, "start": start, "end": end, "parent": parent, "counts": counts}

    rows = {"rows": 10, "dim": 4, "brute": False}
    tree = [
        span("sep.simulate_sep", 0.0, 10.0, None, trials=10, errors=2),  # 0: children 1 and 2
        span("streams.stream", 1.0, 4.0, 0, seed=1, path=[0, 0]),
        span("cvp.decode", 5.0, 9.0, 0, **rows),  # 2: child 3
        span("cvp.decode_indices", 6.0, 7.5, 2, **rows),
        span("bounds.mslb", 10.0, 10.5, None),
        span("sep.exact_sep_theorem1", 11.0, 20.0, None),  # 5: overlapping children
        span("streams.stream", 12.0, 16.0, 5, seed=2, path=[0]),
        span("streams.stream", 14.0, 18.0, 5, seed=2, path=[1]),
    ]
    got = spans.self_times(tree)
    want = [3.0, 3.0, 2.5, 1.5, 0.5, 3.0, 4.0, 4.0]
    metrics = spans.layer_metrics(tree, 21.0)
    ok = all(abs(g - w) < 1e-12 for g, w in zip(got, want))
    ok = ok and sum(got[:4]) == 10.0 and metrics["cli.self_s"] == 1.5
    ok = ok and metrics["cvp.decode_calls"] == 1 and metrics["cvp.decode_s"] == 4.0
    ok = ok and metrics["sep.sim_self_s"] == 3.0 and metrics["cvp.useful_frac"] == 0.2
    return ok, f"self times {got} (expected {want}); cli.self_s {metrics['cli.self_s']}"


def check_failure_injection() -> tuple[bool, str]:
    clean = _failed_frac(_files())
    corrupt = _files()
    corrupt["e4-4pam-mslb.csv"] = corrupt["e4-4pam-mslb.csv"][:-5]
    truncated = _failed_frac(corrupt)
    crashed = _failed_frac(_files(), returncode=1)
    below = _failed_frac(_files("0.05,0.0457,0.0543,10000,500"))
    ok = clean == 0.0 and truncated == 1.0 and crashed == 1.0 and below == 0.5
    return ok, f"failed share clean {clean}, corrupt CSV {truncated}, exit 1 {crashed}, below MSLB {below}"


def check_failed_points() -> tuple[bool, str]:
    def run(files, returncode=0):
        return checks.check_run(files, _CONFIG, returncode)[0]

    below = run(_files("0.05,0.0457,0.0543,10000,500"))
    repeated = checks.failed_points([below, below, run(_files())])
    crashed = checks.failed_points([below, run(_files(), returncode=1)])
    ok = repeated == 1 and crashed == 2
    return ok, f"failed of 2 grid points over 3 runs with one bad point {repeated}, with a crash {crashed}"


def run_all(benchmark: dict) -> list[tuple[str, bool, str]]:
    return [
        ("metric names", *check_names(benchmark)),
        ("span self times", *check_self_times()),
        ("failure injection", *check_failure_injection()),
        ("failed points", *check_failed_points()),
    ]


if __name__ == "__main__":
    root = Path(__file__).resolve().parent.parent
    results = run_all(json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8")))
    for name, ok, detail in results:
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    sys.exit(0 if all(ok for _, ok, _ in results) else 1)
