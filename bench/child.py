"""Child process of the benchmark: one set-up or one ``latticesep run``.

    python3 child.py setup '<spec json>'
    python3 child.py run '<spec json>'

``setup`` imports the package and builds the workload's lattice,
constellation and decoder precomputation through public calls, then
exits; the parent times the whole process, interpreter start included.

``run`` times ``latticesep.cli.main(spec["argv"])``, optionally with the
span recorder installed, and writes ``{"rc", "wall_s", "peak_rss_mb",
"spans"}`` to ``spec["result"]``.  The child exits with the CLI's code.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def _import_package(src: str):
    import latticesep

    where = Path(latticesep.__file__).resolve()
    if Path(src).resolve() not in where.parents:
        raise SystemExit(f"imported latticesep from {where}, not from {src}")
    return latticesep


def setup(spec: dict) -> None:
    ls = _import_package(spec["src"])
    config = spec["config"]
    lattice = ls.catalog_lattice(config["lattice"])
    ls.FiniteConstellation(lattice=lattice, K=config["K"])
    if "SEP_SIM" in config["curves"]:
        ls.BatchDecoder(lattice.generator, config["K"], ls.Decoder(config["decoder"]))
    if "SEP_EXACT" in config["curves"] and not ls.is_integer_orthonormal(lattice):
        ls.voronoi_test_vectors(lattice.generator)


def run(spec: dict) -> int:
    _import_package(spec["src"])
    import latticesep.cli as cli

    recorder = None
    if spec["trace"]:
        import spans

        recorder = spans.Recorder()
        spans.install(recorder)
    start = time.perf_counter()
    rc = cli.main(spec["argv"])
    wall = time.perf_counter() - start
    result = {
        "rc": rc,
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "spans": recorder.spans if recorder else None,
    }
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    return rc


if __name__ == "__main__":
    mode, spec = sys.argv[1], json.loads(sys.argv[2])
    if mode == "setup":
        setup(spec)
        sys.exit(0)
    sys.exit(run(spec))
