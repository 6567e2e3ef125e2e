"""Span recorder for the traced benchmark run, and the per-layer metrics.

The recorder wraps the public functions that ``latticesep.sep`` and
``latticesep.cli`` call, by replacing the names in the calling module's
namespace (and the ``BatchDecoder`` methods on the class) for the life of
one child process.  No file of the package changes.

Each wrapped call records one span: a name ``<layer>.<function>``, start
and end (``time.perf_counter``), the index of the enclosing span, and
counts taken at the same boundary.  Spans stay in memory and are written
out with the child's result.  Tracing assumes one thread: the traced run
always uses ``--threads 1``.
"""

from __future__ import annotations

import functools
import os
import statistics
import time

TRACE_METRICS = (
    "streams.calls",
    "streams.s",
    "streams.normals",
    "streams.symbols",
    "streams.ns_per_normal",
    "cvp.decode_calls",
    "cvp.decode_rows",
    "cvp.decode_s",
    "cvp.us_per_row",
    "cvp.table_points",
    "cvp.decode_share",
    "cvp.useful_frac",
    "cvp.gemm_gflop",
    "cvp.setup_s",
    "sep.sim_s",
    "sep.sim_self_s",
    "sep.sim_trials",
    "sep.sim_errors",
    "sep.shards",
    "sep.parallel_shard_frac",
    "sep.exact_s",
    "sep.exact_self_s",
    "sep.exact_samples",
    "bounds.s",
    "lattices.s",
    "cli.write_s",
    "cli.bytes_written",
    "cli.self_s",
)
"""Per-layer metrics computed from one traced run (``trace.overhead_s``
needs an untraced run as well and is added by the caller)."""

_DECODE = ("cvp.decode", "cvp.decode_indices")


class Recorder:
    """Collects spans from wrapped calls, in call order."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def wrap(self, name, fn, count=None):
        """Return ``fn`` wrapped to record a span; ``count(args, kwargs, result)``
        returns the span's counts."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = {"name": name, "parent": self._stack[-1] if self._stack else None}
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                span["counts"] = count(args, kwargs, result)
            return result

        return wrapper


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def install(recorder: Recorder) -> None:
    """Wrap the layer boundaries that ``latticesep.cli.main("run", ...)`` crosses."""
    import latticesep.cli as cli
    import latticesep.cvp as cvp
    import latticesep.sep as sep

    def stream_counts(args, kwargs, result):
        return {"seed": int(args[0]), "path": [int(p) for p in args[1:]]}

    def derive_counts(args, kwargs, result):
        return {"child_seed": int(result), "path": [int(p) for p in args[1:]]}

    def normals_counts(args, kwargs, result):
        return {"normals": int(_arg(args, kwargs, 1, "count"))}

    def symbols_counts(args, kwargs, result):
        return {"symbols": int(_arg(args, kwargs, 1, "count"))}

    def init_counts(args, kwargs, result):
        decoder, box = args[0], int(_arg(args, kwargs, 2, "box"))
        dim = len(_arg(args, kwargs, 1, "generator"))
        brute = decoder.method is cvp.Decoder.BRUTE_FORCE
        return {"table_points": box**dim if brute else 0}

    def decode_counts(args, kwargs, result):
        targets = _arg(args, kwargs, 1, "targets")
        rows, dim = len(targets), len(targets[0]) if len(targets) else 0
        return {"rows": rows, "dim": dim, "brute": args[0].method is cvp.Decoder.BRUTE_FORCE}

    def vectors_counts(args, kwargs, result):
        return {"vectors": len(result)}

    def sim_counts(args, kwargs, result):
        return {
            "trials": sum(est.trials for est in result),
            "errors": sum(est.errors_observed for est in result),
        }

    def written(index, name):
        def counts(args, kwargs, result):
            return {"bytes": os.path.getsize(_arg(args, kwargs, index, name))}

        return counts

    for name, count in (
        ("stream", stream_counts),
        ("derive_seed", derive_counts),
        ("standard_normals", normals_counts),
        ("uniform_symbols", symbols_counts),
    ):
        setattr(sep, name, recorder.wrap(f"streams.{name}", getattr(sep, name), count))
    sep.voronoi_test_vectors = recorder.wrap(
        "cvp.voronoi_test_vectors", sep.voronoi_test_vectors, vectors_counts
    )
    sep.sublattice_generator = recorder.wrap("lattices.sublattice_generator", sep.sublattice_generator)
    batch = cvp.BatchDecoder
    batch.__init__ = recorder.wrap("cvp.BatchDecoder.__init__", batch.__init__, init_counts)
    batch.decode = recorder.wrap("cvp.decode", batch.decode, decode_counts)
    batch.decode_indices = recorder.wrap("cvp.decode_indices", batch.decode_indices, decode_counts)

    cli.simulate_sep = recorder.wrap("sep.simulate_sep", cli.simulate_sep, sim_counts)
    cli.exact_sep_theorem1 = recorder.wrap("sep.exact_sep_theorem1", cli.exact_sep_theorem1)
    for name in ("mslb", "msub", "slb", "sub"):
        setattr(cli, name, recorder.wrap(f"bounds.{name}", getattr(cli, name)))
    cli.catalog_lattice = recorder.wrap("lattices.catalog_lattice", cli.catalog_lattice)
    cli.write_sep_csv = recorder.wrap("cli.write_sep_csv", cli.write_sep_csv, written(0, "path"))
    cli.write_curve_csv = recorder.wrap("cli.write_curve_csv", cli.write_curve_csv, written(1, "path"))


def _union_length(intervals) -> float:
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += max(0.0, end - start)
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: list[list[int]] = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span["parent"] is not None:
            children[span["parent"]].append(i)
    out = []
    for i, span in enumerate(spans):
        covered = _union_length(
            (max(spans[c]["start"], span["start"]), min(spans[c]["end"], span["end"]))
            for c in children[i]
        )
        out.append(span["end"] - span["start"] - covered)
    return out


def layer_metrics(spans: list[dict], wall_s: float) -> dict[str, float]:
    """The :data:`TRACE_METRICS` of one traced run whose ``run`` call took ``wall_s``."""
    self_s = self_times(spans)
    names = [span["name"] for span in spans]

    def dur(i):
        return spans[i]["end"] - spans[i]["start"]

    def where(predicate):
        return [i for i, span in enumerate(spans) if predicate(span)]

    def count(indices, key):
        return sum(spans[i].get("counts", {}).get(key, 0) for i in indices)

    def parent_name(span):
        return None if span["parent"] is None else names[span["parent"]]

    streams = where(lambda s: s["name"].startswith("streams."))
    opens = where(lambda s: s["name"] == "streams.stream")
    normals = where(lambda s: s["name"] == "streams.standard_normals")
    decodes = where(lambda s: s["name"] in _DECODE and parent_name(s) not in _DECODE)
    sims = where(lambda s: s["name"] == "sep.simulate_sep")
    exacts = where(lambda s: s["name"] == "sep.exact_sep_theorem1")
    normals_total = count(normals, "normals")
    rows = count(decodes, "rows")
    trials = count(sims, "trials")
    errors = count(sims, "errors")
    decode_s = sum(dur(i) for i in decodes)

    shards_per_point: dict[tuple[int, int], int] = {}
    for i in opens:
        if parent_name(spans[i]) == "sep.simulate_sep":
            key = (spans[i]["parent"], spans[i]["counts"]["path"][0])
            shards_per_point[key] = shards_per_point.get(key, 0) + 1
    shards = sum(shards_per_point.values())

    # A J-integral shard opens stream(child_seed, s) and then draws m * k
    # normals, where k is the facet rank that derive_seed(seed, k, p) was
    # called with; that recovers the sample count m without private hooks.
    rank_of_seed: dict[int, int] = {}
    rank = None
    exact_samples = 0
    for i, span in enumerate(spans):
        if parent_name(span) != "sep.exact_sep_theorem1":
            continue
        counts = span.get("counts", {})
        if span["name"] == "streams.derive_seed":
            rank_of_seed[counts["child_seed"]] = counts["path"][0]
        elif span["name"] == "streams.stream":
            rank = rank_of_seed.get(counts["seed"])
        elif span["name"] == "streams.standard_normals" and rank:
            exact_samples += counts["normals"] // rank

    inits = where(lambda s: s["name"] == "cvp.BatchDecoder.__init__")
    table_points = max((count([i], "table_points") for i in inits), default=0)
    gemm = sum(
        2.0 * spans[i]["counts"]["rows"] * table_points * spans[i]["counts"]["dim"]
        for i in decodes
        if spans[i]["counts"]["brute"]
    )
    roots = where(lambda s: s["parent"] is None)
    return {
        "streams.calls": len(opens),
        "streams.s": sum(dur(i) for i in streams),
        "streams.normals": normals_total,
        "streams.symbols": count(streams, "symbols"),
        "streams.ns_per_normal": 1e9 * sum(dur(i) for i in normals) / normals_total if normals_total else 0.0,
        "cvp.decode_calls": len(decodes),
        "cvp.decode_rows": rows,
        "cvp.decode_s": decode_s,
        "cvp.us_per_row": 1e6 * decode_s / rows if rows else 0.0,
        "cvp.table_points": table_points,
        "cvp.decode_share": rows / trials if trials else 0.0,
        "cvp.useful_frac": errors / rows if rows else 0.0,
        "cvp.gemm_gflop": gemm / 1e9,
        "cvp.setup_s": sum(dur(i) for i in inits + where(lambda s: s["name"] == "cvp.voronoi_test_vectors")),
        "sep.sim_s": sum(dur(i) for i in sims),
        "sep.sim_self_s": sum(self_s[i] for i in sims),
        "sep.sim_trials": trials,
        "sep.sim_errors": errors,
        "sep.shards": shards,
        "sep.parallel_shard_frac": (
            sum(n for n in shards_per_point.values() if n > 1) / shards if shards else 0.0
        ),
        "sep.exact_s": sum(dur(i) for i in exacts),
        "sep.exact_self_s": sum(self_s[i] for i in exacts),
        "sep.exact_samples": exact_samples,
        "bounds.s": sum(dur(i) for i in where(lambda s: s["name"].startswith("bounds."))),
        "lattices.s": sum(dur(i) for i in where(lambda s: s["name"].startswith("lattices."))),
        "cli.write_s": sum(dur(i) for i in where(lambda s: s["name"].startswith("cli.write_"))),
        "cli.bytes_written": count(where(lambda s: s["name"].startswith("cli.write_")), "bytes"),
        "cli.self_s": wall_s - sum(dur(i) for i in roots),
    }


def median_metrics(runs: list[dict[str, float]]) -> dict[str, float]:
    """Per-metric median over several traced runs."""
    return {name: statistics.median(run[name] for run in runs) for name in runs[0]}
