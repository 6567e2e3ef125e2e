"""Benchmark of the latticesep command line: four workloads, checked outputs.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere inside a source checkout; the package is imported from
the checkout's ``src/``.  Each workload is one experiment config, written
from the ``--seed`` argument and run by ``latticesep.cli.main`` in a child
process (``child.py``) with BLAS/OpenMP pinned to one thread.

``--trace 0`` sets the workload up ``SETUP_REPEATS`` times, then alternates
``--threads 1`` and ``--threads 2`` runs until ``--seconds`` would be
exceeded, and reports medians of the end-to-end metrics.  ``--trace 1``
alternates untraced and traced ``--threads 1`` runs and reports the
per-layer metrics of ``spans.py``.  Every run's CSVs are checked
(``checks.py``), compared byte for byte with the first run's, and, at the
default seed, with the SHA-256 digests in ``digests.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give each metric with its unit and direction, the environment, and every
failed check.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import selftest
import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
DIGESTS = BENCH / "digests.json"

DEFAULT_SEED = 1
SETUP_REPEATS = 7
DEADLINE_S = 160.0  # every child is stopped by then, inside the 180 s limit
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

_BOUNDS = ["MSLB", "MSUB", "SLB", "SUB"]

# Why each workload exists is in README.md; the configs are the seed-free
# parts of the experiment files the runs start from.
WORKLOADS = {
    # The shipped e4-4pam preset: brute force over a 256-point table.
    "sim-brute": {
        "lattice": "E4",
        "K": 4,
        "snr_db": {"start": 0.0, "stop": 20.0, "step": 1.0},
        "curves": ["SEP_SIM"] + _BOUNDS,
        "max_trials": 200000,
        "target_errors": 100,
        "decoder": "brute_force",
    },
    # The e8-4pam preset on a 6 dB grid: the pure-Python sphere decoder.
    "sim-sphere": {
        "lattice": "E8",
        "K": 4,
        "snr_db": {"start": 6.0, "stop": 24.0, "step": 6.0},
        "curves": ["SEP_SIM"] + _BOUNDS,
        "max_trials": 10000,
        "target_errors": 100,
        "decoder": "sphere_decoder",
    },
    # The shipped z8-4pam preset: diagonal decode path and the closed form.
    "sim-cubic": {
        "lattice": "Z8",
        "K": 4,
        "snr_db": {"start": 0.0, "stop": 24.0, "step": 1.0},
        "curves": ["SEP_SIM", "SEP_EXACT"] + _BOUNDS,
        "max_trials": 200000,
        "target_errors": 100,
        "decoder": "sphere_decoder",
    },
    # Facet decomposition by Monte Carlo Voronoi integrals; no simulation.
    "exact-mc": {
        "lattice": "E4",
        "K": 4,
        "snr_db": {"start": 0.0, "stop": 20.0, "step": 1.0},
        "curves": ["SEP_EXACT"] + _BOUNDS,
        "trials_per_j": 100000,
    },
}


class Workload:
    """One benchmark invocation: its config, scratch directory and verdicts."""

    def __init__(self, name: str, seed: int, work: Path, check_digests: bool):
        self.name = name
        self.seed = seed
        self.digests = _load_digests().get(name, {}) if check_digests and seed == DEFAULT_SEED else None
        self.config = dict(WORKLOADS[name], seed=seed)
        self.work = work
        self.config_path = work / "config.json"
        self.config_path.write_text(json.dumps(self.config, indent=2) + "\n", encoding="utf-8")
        self.env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "LATTICESEP_THREADS")}
        self.env.update(PINNED_ENV, PYTHONPATH=str(SRC))
        self.started = time.perf_counter()
        self.checks = []
        self.reference = None
        self.curves = None
        self.steps = 0
        self.setup_failures = 0

    def _child(self, mode: str, spec: dict) -> tuple[subprocess.CompletedProcess | None, float]:
        remaining = DEADLINE_S - (time.perf_counter() - self.started)
        spec = dict(spec, src=str(SRC))
        start = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "child.py"), mode, json.dumps(spec)],
                cwd=ROOT,
                env=self.env,
                capture_output=True,
                text=True,
                timeout=max(1.0, remaining),
            )
        except subprocess.TimeoutExpired:
            print(f"{mode}: child stopped after the {DEADLINE_S:.0f} s deadline", flush=True)
            return None, time.perf_counter() - start
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            tail = (proc.stderr or proc.stdout).strip().splitlines()[-5:]
            print(f"{mode}: child exited with {proc.returncode}: " + " | ".join(tail), flush=True)
        return proc, elapsed

    def setup(self) -> float:
        """Interpreter start, package import and the workload's precomputation."""
        proc, elapsed = self._child("setup", {"config": self.config})
        if proc is None or proc.returncode != 0:
            self.setup_failures += 1
        return elapsed

    def run(self, threads: int, trace: bool) -> dict:
        """One ``latticesep run``; returns its result with the checks applied."""
        self.steps += 1
        out = self.work / f"run-{self.steps}"
        result_path = self.work / f"run-{self.steps}.json"
        argv = ["run", "--config", str(self.config_path), "--threads", str(threads), "--out", str(out)]
        proc, elapsed = self._child("run", {"argv": argv, "trace": trace, "result": str(result_path)})
        result = {"rc": -1, "wall_s": elapsed, "peak_rss_mb": 0.0, "spans": None}
        if proc is not None and result_path.is_file():
            result = json.loads(result_path.read_text(encoding="utf-8"))
        elif proc is not None:
            result["rc"] = proc.returncode or -1
        files = {p.name: p.read_bytes() for p in out.glob("*.csv")} if out.is_dir() else {}
        shutil.rmtree(out, ignore_errors=True)
        result_path.unlink(missing_ok=True)

        check, curves = checks.check_run(files, self.config, result["rc"])
        if not check.hard:
            self._compare_bytes(files, check, f"--threads {threads}" + (" traced" if trace else ""))
        if not check.hard and self.curves is None:
            self.curves = curves
        self.checks.append(check)
        print(
            f"run {self.steps}: threads={threads} trace={int(trace)} rc={result['rc']} "
            f"wall_s={result['wall_s']:.4f} failed_points={len(check.failed)}/{check.points}",
            flush=True,
        )
        return result

    def _compare_bytes(self, files: dict[str, bytes], check, label: str) -> None:
        names = checks.expected_files(self.config)
        if self.reference is None:
            self.reference = {n: files[n] for n in names}
        for name in names:
            if files[name] != self.reference[name]:
                check.fail_all(f"{name} ({label}) differs from the first run's bytes")
        if self.digests is not None:
            for name in names:
                if self.digests.get(name) != hashlib.sha256(files[name]).hexdigest():
                    check.fail_all(f"{name} does not match its stored SHA-256 digest")

    def measure(self, seconds: float, kinds: list[tuple[int, bool]]) -> dict:
        """Alternate the run kinds until the next run would end after ``seconds``."""
        results: dict[tuple[int, bool], list[dict]] = {kind: [] for kind in kinds}
        last: dict[tuple[int, bool], float] = {}
        i = 0
        while True:
            kind = kinds[i % len(kinds)]
            elapsed = time.perf_counter() - self.started
            if i >= len(kinds) and (elapsed + last.get(kind, 0.0) > seconds or elapsed > DEADLINE_S / 2):
                return results
            start = time.perf_counter()
            results[kind].append(self.run(*kind))
            last[kind] = time.perf_counter() - start
            i += 1

    def tally(self) -> tuple[int, int, list[str]]:
        attempted = len(checks.grid_db(self.config))
        failed = checks.failed_points(self.checks)
        hard = [reason for c in self.checks for reason in c.hard]
        hard += ["set-up failed"] * self.setup_failures
        return attempted, failed, hard


def _load_digests() -> dict:
    if not DIGESTS.is_file():
        return {}
    return json.loads(DIGESTS.read_text(encoding="utf-8"))["workloads"]


def _record_digests(workload: Workload) -> None:
    stored = _load_digests()
    stored[workload.name] = {n: hashlib.sha256(b).hexdigest() for n, b in sorted(workload.reference.items())}
    DIGESTS.write_text(
        json.dumps({"seed": DEFAULT_SEED, "workloads": dict(sorted(stored.items()))}, indent=2) + "\n",
        encoding="utf-8",
    )


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    """What the timings depend on besides the code."""
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_text = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_text = "unknown"
    return {
        "pinned": PINNED_ENV,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_text,
    }


def end_to_end(workload: Workload, seconds: float) -> dict[str, float]:
    setups = [workload.setup() for _ in range(SETUP_REPEATS)]
    print("setup_s samples: " + " ".join(f"{s:.4f}" for s in setups), flush=True)
    runs = workload.measure(seconds, [(1, False), (2, False)])
    wall = statistics.median(r["wall_s"] for r in runs[(1, False)])
    attempted, failed, _ = workload.tally()
    trials = checks.mc_trials(workload.curves or {})
    return {
        "wall_s": wall,
        "wall_2t_s": statistics.median(r["wall_s"] for r in runs[(2, False)]),
        "setup_s": statistics.median(setups),
        "trials_per_s": trials / wall,
        "peak_rss_mb": max(r["peak_rss_mb"] for rs in runs.values() for r in rs),
        "passed_frac": 1.0 - failed / attempted,
    }


def per_layer(workload: Workload, seconds: float) -> dict[str, float]:
    runs = workload.measure(seconds, [(1, False), (1, True)])
    traced = [r for r in runs[(1, True)] if r["spans"] is not None]
    if not traced:
        return {name: 0.0 for name in spans.TRACE_METRICS + ("trace.overhead_s",)}
    metrics = spans.median_metrics([spans.layer_metrics(r["spans"], r["wall_s"]) for r in traced])
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    metrics["trace.overhead_s"] = traced_wall - statistics.median(r["wall_s"] for r in runs[(1, False)])
    gap = metrics["cli.self_s"]
    print(
        f"trace accounting: layer self times cover {traced_wall - gap:.4f} s of the traced "
        f"wall_s {traced_wall:.4f} s; the {gap:.4f} s left in the CLI is "
        f"{'within' if abs(gap) <= max(abs(metrics['trace.overhead_s']), 0.01 * traced_wall) else 'OUTSIDE'} "
        f"the trace overhead {metrics['trace.overhead_s']:.4f} s",
        flush=True,
    )
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record-digests",
        action="store_true",
        help=f"store the CSV digests of this workload at seed {DEFAULT_SEED} instead of checking them",
    )
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.record_digests and args.seed != DEFAULT_SEED:
        parser.error(f"--record-digests needs --seed {DEFAULT_SEED}")
    if not (SRC / "latticesep" / "__init__.py").is_file():
        print(f"error: no latticesep package under {SRC}", file=sys.stderr)
        return 2
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    failures = [f"{name}: {detail}" for name, ok, detail in selftest.run_all(benchmark) if not ok]
    if failures:
        print("error: harness self-test failed: " + "; ".join(failures), file=sys.stderr)
        return 1

    # SIGTERM unwinds like an exception, so subprocess.run stops and waits
    # for the running child and the finally clause removes the scratch files.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    os.environ.update(PINNED_ENV)
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        workload = Workload(args.workload, args.seed, work, check_digests=not args.record_digests)
        print("env " + json.dumps(environment()), flush=True)
        if args.trace:
            metrics, declared = per_layer(workload, args.seconds), benchmark["per_layer"]
        else:
            metrics, declared = end_to_end(workload, args.seconds), benchmark["end_to_end"]
        if args.record_digests:
            _record_digests(workload)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    if sorted(metrics) != sorted(m["name"] for m in declared):
        print("error: measured metrics differ from BENCHMARK.json", file=sys.stderr)
        return 1
    attempted, failed, hard = workload.tally()
    for reason in sorted(set(hard).union(*(c.failed.values() for c in workload.checks))):
        print(f"check failed: {reason}")
    for spec in declared:
        print(f"metric {spec['name']} = {metrics[spec['name']]:.6g} {spec['unit']} ({spec['better']} is better)")
    print(f"failed_frac = {failed / attempted:.6g} ({failed} of {attempted} grid points over {workload.steps} runs)")
    print(
        json.dumps(
            {
                "correct": not hard,
                "attempted": attempted,
                "failed": failed,
                "metrics": {s["name"]: {"value": metrics[s["name"]], "unit": s["unit"]} for s in declared},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
