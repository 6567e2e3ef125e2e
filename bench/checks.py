"""Output checks for one ``latticesep run``: CSV format and statistical sanity.

A run is checked grid point by grid point.  A point fails when any check
that covers it fails:

* a non-zero exit, a missing or malformed CSV, or CSV bytes that differ
  from the reference (checked by the caller) fail every point of the run;
* a reliable Monte Carlo point (``SEP_SIM`` with at least 20 errors, or a
  ``SEP_EXACT`` facet-integral estimate) fails when it lies outside
  ``[MSLB - 3 sigma, MSUB + 3 sigma]``;
* a reliable ``SEP_SIM`` point fails when it lies more than 3 sigma from a
  closed-form ``SEP_EXACT`` curve of the same run.

``sigma`` is the CSV's confidence half-width divided by 1.96.  The checks
read only the CSV files, never the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

SEP_HEADER = "snr_db,sep,ci_low,ci_high,trials,errors,method,lattice,K,seed"
BOUND_HEADER = "snr_db,value,kind,lattice,K"
RELIABLE_ERRORS = 20  # the simulator's own threshold for a confidence claim
CI_FACTOR = 1.96
SLACK_SIGMAS = 3.0
_METHODS = ("direct_mc", "theorem1", "closed_form_zn")


class Malformed(ValueError):
    """A CSV does not have the documented format."""


@dataclass
class RunCheck:
    """Failed grid points of one run, each with the first reason found."""

    points: int
    failed: dict[int, str] = field(default_factory=dict)
    hard: list[str] = field(default_factory=list)

    def fail(self, index: int, reason: str) -> None:
        self.failed.setdefault(index, reason)

    def fail_all(self, reason: str) -> None:
        """A failure of the whole run: every point fails and the run is wrong."""
        self.hard.append(reason)
        for i in range(self.points):
            self.fail(i, reason)


def failed_points(run_checks: list[RunCheck]) -> int:
    """Grid points that any run of one invocation failed.

    Every run computes the same grid points from the same seed, so a point
    counts once however many runs timed it.  The count then depends on the
    seed and the code only, not on how many runs fit in the measuring time.
    """
    return len(set().union(*(check.failed for check in run_checks)))


def grid_db(config: dict) -> list[float]:
    snr = config["snr_db"]
    count = int(math.floor((snr["stop"] - snr["start"]) / snr["step"] + 0.5)) + 1
    return [snr["start"] + i * snr["step"] for i in range(count)]


def stem(config: dict) -> str:
    return f"{config['lattice'].lower()}-{config['K']}pam"


def expected_files(config: dict) -> list[str]:
    """Every CSV the run writes: one per curve plus the merged one."""
    base = stem(config)
    return [f"{base}-{name.lower()}.csv" for name in config["curves"]] + [f"{base}-curves.csv"]


def _number(text: str, what: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise Malformed(f"{what}: {text!r} is not a number") from None
    if not math.isfinite(value):
        raise Malformed(f"{what}: {text!r} is not finite")
    return value


def _probability(text: str, what: str) -> float:
    value = _number(text, what)
    if not 0.0 <= value <= 1.0:
        raise Malformed(f"{what}: {value} is not a probability")
    return value


def _count(text: str, what: str) -> int:
    if not text.isdigit():
        raise Malformed(f"{what}: {text!r} is not a count")
    return int(text)


def _rows(data: bytes, header: str | None, db: list[float], name: str) -> tuple[str, list[list[str]]]:
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError:
        raise Malformed(f"{name}: not ASCII") from None
    if not text.endswith("\n"):
        raise Malformed(f"{name}: missing final newline")
    lines = text[:-1].split("\n")
    if header is not None and lines[0] != header:
        raise Malformed(f"{name}: header {lines[0]!r}")
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != len(db):
        raise Malformed(f"{name}: {len(rows)} rows for {len(db)} grid points")
    width = len(lines[0].split(","))
    for i, row in enumerate(rows):
        if len(row) != width:
            raise Malformed(f"{name}: row {i + 1} has {len(row)} fields, expected {width}")
        if abs(_number(row[0], f"{name} row {i + 1} snr_db") - db[i]) > 1e-6:
            raise Malformed(f"{name}: row {i + 1} is at {row[0]} dB, expected {db[i]:g}")
    return lines[0], rows


def parse_curve(data: bytes, db: list[float], name: str) -> dict:
    """Columns of one per-curve CSV (``SEP_*`` or bound format), validated."""
    header, rows = _rows(data, None, db, name)
    if header == BOUND_HEADER:
        return {"text": [r[1] for r in rows], "value": [_probability(r[1], f"{name} value") for r in rows]}
    if header != SEP_HEADER:
        raise Malformed(f"{name}: header {header!r}")
    curve = {"text": [], "value": [], "half": [], "trials": [], "errors": [], "method": rows[0][6]}
    for i, row in enumerate(rows):
        where = f"{name} row {i + 1}"
        sep, low, high = (_probability(row[j], where) for j in (1, 2, 3))
        trials, errors = _count(row[4], f"{where} trials"), _count(row[5], f"{where} errors")
        if not low <= sep <= high:
            raise Malformed(f"{where}: sep {sep} outside its interval [{low}, {high}]")
        if errors > trials or row[6] not in _METHODS or row[6] != curve["method"]:
            raise Malformed(f"{where}: inconsistent trials/errors/method {row[4:7]}")
        curve["text"].append(row[1])
        curve["value"].append(sep)
        curve["half"].append(max(sep - low, high - sep))
        curve["trials"].append(trials)
        curve["errors"].append(errors)
    return curve


def mc_trials(curves: dict[str, dict]) -> int:
    """Monte Carlo trials of a run: the ``trials`` column of its sampled curves."""
    return sum(sum(c["trials"]) for c in curves.values() if c.get("method") in ("direct_mc", "theorem1"))


def check_run(files: dict[str, bytes], config: dict, returncode: int) -> tuple[RunCheck, dict[str, dict]]:
    """Check one run's CSV files; returns the verdict and the parsed curves."""
    db = grid_db(config)
    result = RunCheck(points=len(db))
    if returncode != 0:
        result.fail_all(f"exit code {returncode}")
        return result, {}
    names = expected_files(config)
    missing = [n for n in names if n not in files]
    if missing:
        result.fail_all(f"missing {', '.join(missing)}")
        return result, {}
    curves = {}
    try:
        for curve_name, file_name in zip(config["curves"], names):
            curves[curve_name] = parse_curve(files[file_name], db, file_name)
        merged_header = ",".join(["snr_db"] + [c.lower() for c in config["curves"]])
        _, merged = _rows(files[names[-1]], merged_header, db, names[-1])
        for j, curve_name in enumerate(config["curves"], start=1):
            if [row[j] for row in merged] != curves[curve_name]["text"]:
                raise Malformed(f"{names[-1]}: column {curve_name.lower()} differs from its own CSV")
    except Malformed as exc:
        result.fail_all(str(exc))
        return result, {}

    lower, upper = curves["MSLB"]["value"], curves["MSUB"]["value"]
    exact = curves.get("SEP_EXACT")
    for name in ("SEP_SIM", "SEP_EXACT"):
        curve = curves.get(name)
        if curve is None or curve["method"] == "closed_form_zn":
            continue
        for i, value in enumerate(curve["value"]):
            if name == "SEP_SIM" and curve["errors"][i] < RELIABLE_ERRORS:
                continue
            slack = SLACK_SIGMAS * curve["half"][i] / CI_FACTOR
            if value < lower[i] - slack or value > upper[i] + slack:
                result.fail(
                    i,
                    f"{name} {value:.6g} at {db[i]:g} dB outside [MSLB {lower[i]:.6g}, "
                    f"MSUB {upper[i]:.6g}] by more than 3 sigma ({slack / 3:.3g})",
                )
            if name == "SEP_SIM" and exact is not None and exact["method"] == "closed_form_zn":
                if abs(value - exact["value"][i]) > slack:
                    result.fail(
                        i,
                        f"SEP_SIM {value:.6g} at {db[i]:g} dB is more than 3 sigma "
                        f"({slack / 3:.3g}) from the closed form {exact['value'][i]:.6g}",
                    )
    return result, curves
