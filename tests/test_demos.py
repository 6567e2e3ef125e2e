"""Smoke tests: every demo script, and a traced CLI run through the benchmark's
span recorder, run to completion in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), env.get("PYTHONPATH", "")])
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=600
    )


@pytest.mark.parametrize("script", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(script, tmp_path):
    result = _run([str(script)], cwd=tmp_path)
    assert result.returncode == 0, result.stderr


# Every function that bench/spans.py wraps must still exist under the same
# name, and the traced run must still finish: A2 with K = 2 crosses every
# layer (simulation, Monte Carlo exact curve, all four bounds, both CSV
# writers) in well under a second.
TRACED_RUN = """
import sys, time
sys.path.insert(0, sys.argv[1])
import spans
from latticesep.cli import main

recorder = spans.Recorder()
spans.install(recorder)
start = time.perf_counter()
rc = main(["run", "--config", sys.argv[2], "--out", sys.argv[3]])
spans.layer_metrics(recorder.spans, time.perf_counter() - start)
sys.exit(rc)
"""


def test_traced_run_completes(tmp_path):
    config = tmp_path / "a2.json"
    config.write_text(
        '{"lattice": "A2", "K": 2, "snr_db": {"start": 6, "stop": 12, "step": 6},'
        ' "curves": ["SEP_SIM", "SEP_EXACT", "MSLB", "MSUB", "SLB", "SUB"],'
        ' "max_trials": 10000, "target_errors": 50, "trials_per_j": 10000}'
    )
    result = _run(
        ["-c", TRACED_RUN, str(ROOT / "bench"), str(config), str(tmp_path / "out")], cwd=tmp_path
    )
    assert result.returncode == 0, result.stderr
    assert len(list((tmp_path / "out").glob("*.csv"))) == 7
