"""Command-line front end: lattice catalog, experiment runs, self-checks.

Three subcommands:

``latticesep catalog``
    Print the built-in lattices with their dimension, determinant, mean
    basis norm, minimum distance, and generator matrix.

``latticesep run --config FILE | --figure NAME [options]``
    Compute the curves requested by an experiment config (a JSON file, or
    a named preset shipped with the package) over an SNR grid.  Writes
    one CSV per curve, a merged wide-format CSV, an optional SVG plot,
    and prints a per-curve summary.

``latticesep verify``
    Run the fast self-check suite (combinatorial identities, catalog
    fidelity, closed-form equivalence, a small simulation sandwich, and
    decoder agreement, including the simulator's own verdicts on E8 K=4
    against its full point table) and exit non-zero on any failure.

SNR convention: every dB value is ``10 log10(rho)`` with
``rho = 1 / sigma**2``, the reciprocal per-coordinate noise variance of
the unit-volume lattice.  No energy normalization is applied, so curves
are not directly comparable to Es/N0-normalized plots.

Exit codes: 0 success, 1 failed checks or runtime errors, 2 usage or
config errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path

import numpy as np

from .bounds import (
    _CI_FACTOR, SepEstimate, SepMethod, SnrGrid, format_sig, mslb, msub, slb, sub, write_curve_csv
)
from .constellation import FiniteConstellation, facet_count, points_per_facet
from .cvp import BatchDecoder, Decoder, shortest_vector_norm
from .exceptions import LatticeSepError, check_integer
from .lattices import Lattice, catalog_lattice, catalog_names, is_integer_orthonormal, read_lattice_file
from .sep import (
    _RELIABLE_ERRORS,
    JSource,
    SimPlan,
    _certificate,
    _check_budget,
    _check_theorem1,
    _decoder,
    _errors,
    exact_sep_theorem1,
    simulate_sep,
    write_sep_csv,
)
from .special import q_function
from .streams import _check_seed, stream
from .svgplot import CurveSeries, write_svg

__all__ = ["ConfigError", "ExperimentConfig", "main", "parse_config_data", "preset_names"]

CURVE_NAMES = ("SEP_SIM", "SEP_EXACT", "MSLB", "MSUB", "SLB", "SUB")


class ConfigError(ValueError):
    """An experiment config (file, preset, or flag) is invalid."""


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: a constellation, an SNR grid, and curve requests."""

    lattice: str
    K: int
    snr_start: float
    snr_stop: float
    snr_step: float
    curves: tuple[str, ...]
    seed: int = 0
    max_trials: int = 10**6
    target_errors: int = 100
    trials_per_j: int = 10**5
    out: str = ""
    description: str = ""

    def __post_init__(self):
        if not self.curves:
            raise ConfigError("curves must name at least one of " + ", ".join(CURVE_NAMES))
        for name in self.curves:
            if name not in CURVE_NAMES:
                raise ConfigError(f"unknown curve {name!r}; choose from {', '.join(CURVE_NAMES)}")
        if len(set(self.curves)) != len(self.curves):
            raise ConfigError("curves contains duplicates")
        if not self.snr_step > 0:
            raise ConfigError(f"snr_db.step must be positive, got {self.snr_step}")
        if not self.snr_start < self.snr_stop:
            raise ConfigError(
                f"snr_db.start must be below snr_db.stop, got {self.snr_start} >= {self.snr_stop}"
            )
        # K and the curves' own limits are checked when the run is planned.
        try:
            _check_seed(self.seed)
            for name in ("max_trials", "target_errors", "trials_per_j"):
                _check_budget(name, getattr(self, name))
        except ValueError as exc:
            raise ConfigError(str(exc)) from None


def _require(data: dict, key: str, source: str):
    if key not in data:
        raise ConfigError(f"{source}: missing required field {key!r}")
    return data[key]


def _as_int(value, field: str, source: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{source}: field {field!r} must be an integer, got {value!r}")
    return value


def _as_number(value, field: str, source: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{source}: field {field!r} must be a number, got {value!r}")
    return float(value)


def parse_config_data(data, source: str = "config") -> ExperimentConfig:
    """Build an :class:`ExperimentConfig` from decoded JSON, with diagnostics.

    Unknown fields are rejected so typos fail loudly rather than being
    silently ignored.
    """
    if not isinstance(data, dict):
        raise ConfigError(f"{source}: top level must be an object, got {type(data).__name__}")
    known = {
        "lattice",
        "K",
        "snr_db",
        "curves",
        "seed",
        "max_trials",
        "target_errors",
        "decoder",
        "trials_per_j",
        "out",
        "description",
    }
    unknown = sorted(set(data) - known)
    if unknown:
        raise ConfigError(f"{source}: unknown fields {', '.join(unknown)}")

    lattice = _require(data, "lattice", source)
    if not isinstance(lattice, str) or not lattice:
        raise ConfigError(f"{source}: field 'lattice' must be a non-empty string")
    big_k = _as_int(_require(data, "K", source), "K", source)

    snr = _require(data, "snr_db", source)
    if not isinstance(snr, dict) or set(snr) != {"start", "stop", "step"}:
        raise ConfigError(f"{source}: field 'snr_db' must be an object with start, stop, step")
    start = _as_number(snr["start"], "snr_db.start", source)
    stop = _as_number(snr["stop"], "snr_db.stop", source)
    step = _as_number(snr["step"], "snr_db.step", source)

    curves = _require(data, "curves", source)
    if not isinstance(curves, list) or not all(isinstance(c, str) for c in curves):
        raise ConfigError(f"{source}: field 'curves' must be a list of curve names")

    # `decoder` is still accepted and validated, so that older configs run,
    # but it has no effect: simulate_sep picks its own search.
    decoders = [d.value for d in Decoder]
    if data.get("decoder", decoders[0]) not in decoders:
        choices = ", ".join(decoders)
        raise ConfigError(f"{source}: unknown decoder {data['decoder']!r}; choose from {choices}")

    # Only the optional fields given are passed on, so each default is the
    # dataclass's; checked here, not in the try below, as these name the source.
    optional = {}
    for name, kind in (("description", "a string"), ("out", "a directory path string")):
        if name in data:
            if not isinstance(data[name], str):
                raise ConfigError(f"{source}: field {name!r} must be {kind}")
            optional[name] = data[name]
    for name in ("seed", "max_trials", "target_errors", "trials_per_j"):
        if name in data:
            optional[name] = _as_int(data[name], name, source)
    try:
        return ExperimentConfig(
            lattice=lattice,
            K=big_k,
            snr_start=start,
            snr_stop=stop,
            snr_step=step,
            curves=tuple(curves),
            **optional,
        )
    except ConfigError as exc:
        raise ConfigError(f"{source}: {exc}") from None


def load_config_file(path) -> ExperimentConfig:
    """Parse an experiment config from a JSON file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    return parse_config_data(data, source=str(path))


def preset_names() -> tuple[str, ...]:
    """Names of the figure presets shipped with the package."""
    root = resources.files("latticesep").joinpath("presets")
    return tuple(sorted(p.name[: -len(".json")] for p in root.iterdir() if p.name.endswith(".json")))


def load_preset(name: str) -> ExperimentConfig:
    """Load the named figure preset."""
    available = preset_names()
    if name not in available:
        raise ConfigError(f"unknown figure preset {name!r}; available: {', '.join(available)}")
    text = resources.files("latticesep").joinpath("presets", f"{name}.json").read_text("utf-8")
    return parse_config_data(json.loads(text), source=f"preset {name}")


def _resolve_lattice(name_or_path: str) -> Lattice:
    try:
        return catalog_lattice(name_or_path)
    except ValueError as exc:
        catalog_error = exc
    path = Path(name_or_path)
    if path.exists():
        try:
            return read_lattice_file(path)
        except (ValueError, LatticeSepError, OSError) as exc:
            # read_lattice_file's own messages already start with the path.
            detail = str(exc)
            if str(path) not in detail:
                detail = f"{path}: {detail}"
            raise ConfigError(f"lattice file {detail}") from None
    raise ConfigError(f"lattice {name_or_path!r} is not an existing file: {catalog_error}")


def _stem(lattice_name: str, big_k: int) -> str:
    safe = re.sub(r"[^A-Za-z0-9_.-]+", "_", lattice_name.lower())
    return f"{safe}-{big_k}pam"


def cmd_catalog(args) -> int:
    print("Built-in lattices (unit-volume generators; any Z<N> up to N=16 is accepted):")
    for name in catalog_names():
        lat = catalog_lattice(name)
        det = abs(float(np.linalg.det(lat.generator)))
        print(
            f"\n{lat.name}  N={lat.dimension}  |det M|={det:.6g}  "
            f"W={lat.mean_norm:.6g}  d_min={lat.d_min:.6g}"
        )
        for row in lat.generator:
            print("    " + "  ".join(f"{x: .6g}" for x in row))
    return 0


def _beyond_3_sigma(est: SepEstimate, bound: float, is_lower: bool) -> bool:
    """Whether a bound sits on the wrong side of a simulated estimate by more than 3 sigma."""
    slack = 3.0 * est.ci_half_width / _CI_FACTOR
    return bound > est.mean + slack if is_lower else est.mean - slack > bound


def _plan_curves(config: ExperimentConfig, constellation: FiniteConstellation, grid: SnrGrid, threads: int):
    """Every requested curve as the call that computes it; returns name -> call.

    Making the calls runs the library's checks (each ``SimPlan``, the
    Theorem-1 arguments), so a broken limit raises ``ValueError`` naming
    the curve before any curve runs.  The functions are looked up here, at
    run time, so that a tracer may replace them.
    """
    lattice = constellation.lattice
    bounds = {"MSLB": mslb, "MSUB": msub, "SLB": slb, "SUB": sub}
    calls = {}
    for name in config.curves:
        try:
            if name == "SEP_SIM":
                plan = SimPlan(constellation, grid, config.seed, config.max_trials, config.target_errors)
                calls[name] = functools.partial(simulate_sep, plan, threads=threads)
            elif name == "SEP_EXACT":
                source = JSource.ANALYTIC_ZN if is_integer_orthonormal(lattice) else JSource.MC_VORONOI
                sampling = (config.trials_per_j, config.seed)  # ANALYTIC_ZN ignores them
                _check_theorem1(constellation, source, *sampling)
                calls[name] = functools.partial(exact_sep_theorem1, constellation, grid, source, *sampling)
            else:
                arg = lattice if name in ("SLB", "SUB") else constellation
                calls[name] = functools.partial(bounds[name], arg, grid)
        except ValueError as exc:
            raise ValueError(f"curves: {name}: {exc}") from None
    return calls


def _write_outputs(config, constellation, grid, results, out_dir: Path, plot: bool) -> list[Path]:
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = _stem(constellation.lattice.name, config.K)
    written = []

    for name, curve in results.items():
        path = out_dir / f"{stem}-{name.lower()}.csv"
        if name.startswith("SEP_"):
            seed = None if curve[0].method is SepMethod.CLOSED_FORM_ZN else config.seed
            write_sep_csv(path, curve, constellation, seed)
        else:
            write_curve_csv(curve, path, constellation)
        written.append(path)

    merged = out_dir / f"{stem}-curves.csv"
    header = ["snr_db"] + [name.lower() for name in results]
    lines = [",".join(header)]
    columns = [curve.values for curve in results.values()]
    for i, db in enumerate(grid.db):
        lines.append(",".join([format_sig(db)] + [format_sig(col[i]) for col in columns]))
    merged.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
    written.append(merged)

    if plot:
        series = [
            CurveSeries(label=name, x=grid.db, y=curve.values)
            for name, curve in results.items()
        ]
        svg_path = out_dir / f"{stem}.svg"
        write_svg(svg_path, series, title=f"{constellation.lattice.name} {config.K}-PAM")
        written.append(svg_path)
    return written


def _print_summary(config, results) -> None:
    for name, curve in results.items():
        values = curve.values
        print(f"  {name}: min={values.min():.6g} max={values.max():.6g}")
    if "SEP_SIM" in results:
        estimates = results["SEP_SIM"]
        unreliable = sum(1 for est in estimates if not est.reliable)
        if unreliable:
            print(f"  SEP_SIM: {unreliable} grid point(s) with < {_RELIABLE_ERRORS} errors (no CI claim)")
        for bound_name, is_lower in (("MSLB", True), ("MSUB", False)):
            if bound_name not in results:
                continue
            violations = sum(
                est.reliable and _beyond_3_sigma(est, bound.mean, is_lower)
                for est, bound in zip(estimates, results[bound_name])
            )
            print(f"  sandwich {bound_name} vs SEP_SIM: {violations} violation(s) beyond 3 sigma")


def cmd_run(args) -> int:
    if (args.config is None) == (args.figure is None):
        raise ConfigError("exactly one of --config or --figure is required")
    config = load_config_file(args.config) if args.config else load_preset(args.figure)

    flags = {name: getattr(args, name) for name in ("seed", "max_trials", "target_errors")}
    config = replace(config, **{name: value for name, value in flags.items() if value is not None})

    try:
        check_integer("--threads", args.threads, 1)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    lattice = _resolve_lattice(config.lattice)
    try:
        grid = SnrGrid.from_db(config.snr_start, config.snr_stop, config.snr_step)
    except ValueError as exc:
        raise ConfigError(f"snr_db: {exc}") from None
    label = args.figure or str(args.config)
    try:
        constellation = FiniteConstellation(lattice=lattice, K=config.K)
        calls = _plan_curves(config, constellation, grid, args.threads)
    except ValueError as exc:
        raise ConfigError(f"{label}: {exc}") from None

    print(f"run {label}: {lattice.name} {config.K}-PAM, {len(grid)} SNR points, seed {config.seed}")
    if config.description:
        print(f"  {config.description}")

    results = {name: call() for name, call in calls.items()}
    out_dir = Path(args.out or config.out or ".")
    written = _write_outputs(config, constellation, grid, results, out_dir, args.plot)
    _print_summary(config, results)
    for path in written:
        print(f"  wrote {path}")
    return 0


# --- verify -----------------------------------------------------------------

_CATALOG_EXPECTED = {
    "Z4": (1.0, 1.0),
    "A2": (math.sqrt(2.0 / math.sqrt(3.0)), math.sqrt(2.0 / math.sqrt(3.0))),
    "E4": (2.0 / 8.0**0.25, 2.0 / 8.0**0.25),
    "E8": ((2.0 + 7.0 * math.sqrt(2.0)) / 8.0, math.sqrt(2.0)),
}


def _check_point_counts():
    for n in range(1, 9):
        for big_k in (2, 3, 4, 8):
            total = sum(
                facet_count(n, k) * points_per_facet(big_k, k) for k in range(n + 1)
            )
            if total != big_k**n:
                return False, f"facet totals disagree with K**N at N={n}, K={big_k}"
    return True, "facet-count identity holds for N <= 8, K in {2, 3, 4, 8}"


def _check_facet_example():
    edges, faces, vertices = facet_count(3, 1), facet_count(3, 2), facet_count(3, 0)
    ok = (edges, faces, vertices) == (12, 6, 8)
    return ok, f"3-cube boundary: {edges} edges, {faces} faces, {vertices} vertices"


def _check_catalog():
    worst = 0.0
    for name, (w_expected, d_expected) in _CATALOG_EXPECTED.items():
        matrix = catalog_lattice(name).generator
        det_err = abs(abs(float(np.linalg.det(matrix))) - 1.0)
        if det_err > 1e-9:
            return False, f"{name}: |det M| deviates from 1 by {det_err:.3g}"
        w_err = abs(float(np.mean(np.linalg.norm(matrix, axis=0))) - w_expected)
        if w_err > 1e-9:
            return False, f"{name}: mean basis norm off by {w_err:.3g}"
        d_err = abs(shortest_vector_norm(matrix) - d_expected)
        if d_err > 1e-9:
            return False, f"{name}: enumerated d_min off by {d_err:.3g}"
        worst = max(worst, det_err, w_err, d_err)
    return True, f"determinants, mean norms, enumerated d_min all within 1e-9 (worst {worst:.2g})"


def _check_cubic_closed_form():
    grid = SnrGrid.from_db(0.0, 20.0, 4.0)
    worst = 0.0
    for n in (1, 2, 4):
        lattice = catalog_lattice(f"Z{n}")
        for big_k in (2, 4):
            c = FiniteConstellation(lattice=lattice, K=big_k)
            for est in exact_sep_theorem1(c, grid, JSource.ANALYTIC_ZN):
                q = q_function(math.sqrt(est.rho) / 2.0)
                closed = 1.0 - ((1.0 + (big_k - 1) * (1.0 - 2.0 * q)) / big_k) ** n
                worst = max(worst, abs(est.mean - closed))
    ok = worst <= 1e-12
    return ok, f"decomposition vs closed form, worst |delta| = {worst:.2e}"


def _check_simulation_sandwich():
    lattice = catalog_lattice("Z2")
    c = FiniteConstellation(lattice=lattice, K=4)
    grid = SnrGrid.from_db_values([6.0, 10.0, 14.0])
    plan = SimPlan(constellation=c, grid=grid, seed=0, max_trials=5 * 10**4, target_errors=10**9)
    estimates = simulate_sep(plan)
    lower = mslb(c, grid).values
    upper = msub(c, grid).values
    for i, est in enumerate(estimates):
        if not est.reliable:
            return False, f"unexpectedly few errors at {est.snr_db} dB"
        if _beyond_3_sigma(est, lower[i], True) or _beyond_3_sigma(est, upper[i], False):
            return False, f"bound sandwich violated at {est.snr_db} dB"
    return True, "MSLB <= simulated SEP <= MSUB (3 sigma) at 6, 10, 14 dB"


def _check_decoder_agreement():
    lattice = catalog_lattice("A2")
    brute = BatchDecoder(lattice.generator, 4, Decoder.BRUTE_FORCE)
    sphere = BatchDecoder(lattice.generator, 4, Decoder.SPHERE_DECODER)
    rng = stream(0, 0)
    u = (rng.random((2000, 2)) * 4).astype(np.int64)
    y = u @ lattice.generator.T + rng.standard_normal((2000, 2)) * 0.5
    mismatches = int(np.count_nonzero(np.any(brute.decode(y) != sphere.decode(y), axis=1)))
    # The simulator's own verdicts (certificate, radius query, sphere
    # search) on E8 K = 4, 65536 points, against the full point table.
    e8 = catalog_lattice("E8").generator
    rng = stream(0, 1)
    u = (rng.random((400, 8)) * 4).astype(np.int64)
    e = rng.standard_normal((400, 8)) * 10.0 ** (-9.0 / 20.0)
    table = BatchDecoder(e8, 4, Decoder.BRUTE_FORCE).decode(u @ e8.T + e)
    verdicts = _errors(e8, _decoder(e8, 4), _certificate(e8, 4), u, e)
    wrong = int(np.count_nonzero(verdicts != np.any(table != u, axis=1)))
    return mismatches == 0 and wrong == 0, (
        f"sphere vs brute force on 2000 noisy A2 points, {mismatches} mismatches; "
        f"simulator vs brute force on 400 E8 K=4 trials at 9 dB, {wrong} mismatches"
    )


VERIFY_CHECKS = (
    ("point-count identity", _check_point_counts),
    ("facet example", _check_facet_example),
    ("catalog fidelity", _check_catalog),
    ("cubic closed form", _check_cubic_closed_form),
    ("simulation sandwich", _check_simulation_sandwich),
    ("decoder agreement", _check_decoder_agreement),
)


def cmd_verify(args) -> int:
    failures = 0
    for name, check in VERIFY_CHECKS:
        ok, detail = check()
        failures += 0 if ok else 1
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    total = len(VERIFY_CHECKS)
    print(f"{total - failures}/{total} checks passed")
    return 0 if failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latticesep",
        description=(
            "Symbol-error probabilities of finite lattice constellations in AWGN. "
            "SNR is rho = 1/sigma**2 per coordinate (dB = 10 log10 rho); no energy "
            "normalization is applied."
        ),
    )
    sub_parsers = parser.add_subparsers(dest="command", required=True)

    p_catalog = sub_parsers.add_parser("catalog", help="list the built-in lattices")
    p_catalog.set_defaults(func=cmd_catalog)

    p_run = sub_parsers.add_parser("run", help="run an experiment config or figure preset")
    p_run.add_argument("--config", help="path to an experiment config (JSON)")
    p_run.add_argument("--figure", help="name of a bundled preset (run with an unknown name to list them)")
    p_run.add_argument("--seed", type=int, help="override the config seed")
    p_run.add_argument("--max-trials", type=int, help="override the per-point trial cap")
    p_run.add_argument("--target-errors", type=int, help="override the early-stopping error target")
    p_run.add_argument("--threads", type=int, default=1, help="SNR points simulated at once (default 1)")
    p_run.add_argument("--out", help="output directory (overrides the config's 'out'; default: current directory)")
    p_run.add_argument("--plot", action="store_true", help="also write an SVG plot")
    p_run.set_defaults(func=cmd_run)

    p_verify = sub_parsers.add_parser("verify", help="run the fast self-check suite")
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    # A name that stdout cannot encode (a lattice file's, under an ASCII
    # locale) is printed escaped rather than failing the run.
    if hasattr(sys.stdout, "reconfigure"):
        sys.stdout.reconfigure(errors="backslashreplace")
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (LatticeSepError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
