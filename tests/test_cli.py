"""Tests for the command-line interface: config parsing, subcommands, exit codes."""

import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from latticesep import cli
from latticesep.cvp import BatchDecoder
from latticesep.cli import (
    ConfigError,
    ExperimentConfig,
    _check_catalog,
    _check_decoder_agreement,
    load_config_file,
    load_preset,
    main,
    parse_config_data,
    preset_names,
)


def make_config_data(**overrides):
    data = {
        "lattice": "Z2",
        "K": 4,
        "snr_db": {"start": 4.0, "stop": 12.0, "step": 4.0},
        "curves": ["SEP_SIM", "MSLB"],
        "seed": 3,
        "max_trials": 20000,
    }
    data.update(overrides)
    return data


class TestConfigParsing:
    def test_minimal_config(self):
        config = parse_config_data(make_config_data())
        assert config.lattice == "Z2"
        assert config.K == 4
        assert config.curves == ("SEP_SIM", "MSLB")
        assert config.seed == 3
        assert config.max_trials == 20000
        assert config.target_errors == 100
        assert config.trials_per_j == 10**5

    def test_missing_field(self):
        data = make_config_data()
        del data["K"]
        with pytest.raises(ConfigError, match="missing required field 'K'"):
            parse_config_data(data)

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError, match="unknown fields"):
            parse_config_data(make_config_data(snr_grid={"start": 0}))

    def test_unknown_curve(self):
        with pytest.raises(ConfigError, match="unknown curve"):
            parse_config_data(make_config_data(curves=["SEP_SIM", "BER"]))

    def test_empty_curves(self):
        with pytest.raises(ConfigError, match="at least one"):
            parse_config_data(make_config_data(curves=[]))

    def test_duplicate_curves(self):
        with pytest.raises(ConfigError, match="duplicates"):
            parse_config_data(make_config_data(curves=["MSLB", "MSLB"]))

    def test_bad_step(self):
        data = make_config_data(snr_db={"start": 0.0, "stop": 10.0, "step": 0.0})
        with pytest.raises(ConfigError, match="step must be positive"):
            parse_config_data(data)

    def test_start_not_below_stop(self):
        data = make_config_data(snr_db={"start": 10.0, "stop": 10.0, "step": 1.0})
        with pytest.raises(ConfigError, match="start must be below"):
            parse_config_data(data)

    def test_bad_decoder(self):
        with pytest.raises(ConfigError, match="unknown decoder"):
            parse_config_data(make_config_data(decoder="viterbi"))
        with pytest.raises(ConfigError, match="unknown decoder"):
            parse_config_data(make_config_data(decoder=["brute_force"]))

    def test_decoder_is_accepted_and_ignored(self):
        # The simulator picks its own search; a valid key changes nothing.
        plain = parse_config_data(make_config_data())
        for name in ("brute_force", "sphere_decoder"):
            assert parse_config_data(make_config_data(decoder=name)) == plain

    def test_boolean_is_not_an_integer(self):
        with pytest.raises(ConfigError, match="must be an integer"):
            parse_config_data(make_config_data(seed=True))

    def test_top_level_must_be_object(self):
        with pytest.raises(ConfigError, match="top level"):
            parse_config_data([1, 2, 3])

    def test_config_file_round_trip(self, tmp_path):
        path = tmp_path / "experiment.json"
        path.write_text(json.dumps(make_config_data()))
        assert load_config_file(path) == parse_config_data(make_config_data())

    def test_config_file_json_error_has_location(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"lattice": "Z2",}')
        with pytest.raises(ConfigError, match="line 1"):
            load_config_file(path)

    def test_missing_config_file_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read config"):
            load_config_file(tmp_path / "absent.json")


class TestPresets:
    def test_expected_presets_present(self):
        names = preset_names()
        assert "z2-4pam" in names
        assert "e8-4pam" in names
        assert len(names) >= 8

    def test_all_presets_parse(self):
        for name in preset_names():
            config = load_preset(name)
            assert config.curves
            assert config.snr_start < config.snr_stop

    def test_unknown_preset_lists_available(self):
        with pytest.raises(ConfigError, match="z2-4pam"):
            load_preset("does-not-exist")


class TestCatalogCommand:
    def test_catalog_lists_families(self, capsys):
        assert main(["catalog"]) == 0
        out = capsys.readouterr().out
        for name in ("Z2", "A2", "E4", "E8"):
            assert name in out
        assert "1.07457" in out  # A2 mean basis norm
        assert "1.48744" in out  # E8 mean basis norm


class TestRunCommand:
    def test_run_config_end_to_end(self, tmp_path, capsys):
        config_path = tmp_path / "experiment.json"
        config_path.write_text(json.dumps(make_config_data(curves=["SEP_SIM", "SEP_EXACT", "MSLB", "MSUB"])))
        out_dir = tmp_path / "results"
        assert main(["run", "--config", str(config_path), "--out", str(out_dir), "--plot"]) == 0

        for suffix in ("sep_sim", "sep_exact", "mslb", "msub", "curves"):
            assert (out_dir / f"z2-4pam-{suffix}.csv").exists()
        assert (out_dir / "z2-4pam.svg").exists()

        wide = (out_dir / "z2-4pam-curves.csv").read_text().strip().splitlines()
        assert wide[0] == "snr_db,sep_sim,sep_exact,mslb,msub"
        assert len(wide) == 1 + 3  # header + 4, 8, 12 dB

        out = capsys.readouterr().out
        assert "sandwich MSLB vs SEP_SIM" in out
        assert "wrote" in out

    def test_run_requires_exactly_one_source(self, capsys):
        assert main(["run"]) == 2
        assert main(["run", "--config", "x.json", "--figure", "z2-4pam"]) == 2

    def test_run_unknown_figure_exits_2(self, capsys):
        assert main(["run", "--figure", "not-a-preset"]) == 2
        assert "z2-4pam" in capsys.readouterr().err

    def test_run_bad_config_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(make_config_data(curves=[])))
        assert main(["run", "--config", str(path)]) == 2

    def test_flag_overrides_config_seed(self, tmp_path):
        config_path = tmp_path / "experiment.json"
        config_path.write_text(json.dumps(make_config_data(curves=["SEP_SIM"], seed=3)))
        main(["run", "--config", str(config_path), "--out", str(tmp_path / "a")])
        main(["run", "--config", str(config_path), "--seed", "3", "--out", str(tmp_path / "b")])
        main(["run", "--config", str(config_path), "--seed", "4", "--out", str(tmp_path / "c")])
        a = (tmp_path / "a" / "z2-4pam-sep_sim.csv").read_bytes()
        b = (tmp_path / "b" / "z2-4pam-sep_sim.csv").read_bytes()
        c = (tmp_path / "c" / "z2-4pam-sep_sim.csv").read_bytes()
        assert a == b
        assert a != c

    def test_thread_count_does_not_change_bytes(self, tmp_path):
        config_path = tmp_path / "experiment.json"
        config_path.write_text(json.dumps(make_config_data(curves=["SEP_SIM"], max_trials=300000)))
        main(["run", "--config", str(config_path), "--out", str(tmp_path / "t1"), "--threads", "1"])
        main(["run", "--config", str(config_path), "--out", str(tmp_path / "t4"), "--threads", "4"])
        one = (tmp_path / "t1" / "z2-4pam-sep_sim.csv").read_bytes()
        four = (tmp_path / "t4" / "z2-4pam-sep_sim.csv").read_bytes()
        assert one == four

    def test_config_out_field_and_flag_override(self, tmp_path):
        from_config = tmp_path / "from_config"
        data = make_config_data(curves=["MSLB"], out=str(from_config))
        config_path = tmp_path / "experiment.json"
        config_path.write_text(json.dumps(data))
        assert main(["run", "--config", str(config_path)]) == 0
        assert (from_config / "z2-4pam-mslb.csv").exists()

        flag_dir = tmp_path / "from_flag"
        assert main(["run", "--config", str(config_path), "--out", str(flag_dir)]) == 0
        assert (flag_dir / "z2-4pam-mslb.csv").exists()

    def test_non_string_out_rejected(self):
        with pytest.raises(ConfigError, match="'out'"):
            parse_config_data(make_config_data(out=7))

    def test_lattice_file_config(self, tmp_path):
        generator = [[2.0, 0.0], [0.0, 0.5]]
        lattice_path = tmp_path / "stretched.json"
        lattice_path.write_text(
            json.dumps({"name": "stretched", "dimension": 2, "generator": generator})
        )
        config_path = tmp_path / "experiment.json"
        config_path.write_text(
            json.dumps(make_config_data(lattice=str(lattice_path), curves=["MSLB", "MSUB"]))
        )
        out_dir = tmp_path / "results"
        assert main(["run", "--config", str(config_path), "--out", str(out_dir)]) == 0
        assert (out_dir / "stretched-4pam-mslb.csv").exists()

    def test_csvs_are_utf8_with_lf_under_the_c_locale(self, tmp_path):
        # A lattice named with a non-ASCII letter, in an interpreter whose
        # locale encoding is ASCII: the lattice file is read as UTF-8,
        # whether the name is \u-escaped or written raw; every CSV is
        # still written as UTF-8 with \n newlines; and an ASCII stdout
        # prints the name escaped.
        src = str(Path(__file__).resolve().parents[1] / "src")
        for escaped_name, utf8_stdout in ((True, True), (False, True), (True, False)):
            case = tmp_path / f"escaped{escaped_name:d}-utf8{utf8_stdout:d}"
            case.mkdir()
            lattice_path = case / "lambda.json"
            lattice_path.write_text(
                json.dumps(
                    {"name": "Λ2", "dimension": 2, "generator": [[2.0, 0.0], [0.0, 0.5]]},
                    ensure_ascii=escaped_name,
                ),
                encoding="utf-8",
            )
            config_path = case / "experiment.json"
            config_path.write_text(
                json.dumps(
                    make_config_data(
                        lattice=str(lattice_path),
                        curves=["SEP_SIM", "MSLB", "SLB"],
                        max_trials=10000,
                    )
                )
            )
            env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0")
            env.pop("PYTHONIOENCODING", None)
            if utf8_stdout:
                env["PYTHONIOENCODING"] = "utf-8"
            env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
            out_dir = case / "results"
            command = ["run", "--config", str(config_path), "--out", str(out_dir)]
            result = subprocess.run(
                [sys.executable, "-m", "latticesep.cli", *command],
                env=env,
                capture_output=True,
                timeout=300,
            )
            assert result.returncode == 0, (case.name, result.stderr.decode("utf-8", "replace"))
            shown = "Λ2" if utf8_stdout else "\\u039b2"
            assert f": {shown} 4-PAM,".encode("utf-8") in result.stdout, case.name
            written = {p.name: p.read_bytes() for p in out_dir.glob("*.csv")}
            assert sorted(written) == [
                f"_2-4pam-{kind}.csv" for kind in ("curves", "mslb", "sep_sim", "slb")
            ]
            for name, data in written.items():
                assert b"\r" not in data, name
                data.decode("utf-8")
            for kind in ("mslb", "sep_sim"):
                assert ",Λ2,4" in written[f"_2-4pam-{kind}.csv"].decode("utf-8")

    def test_unresolvable_lattice_exits_2(self, tmp_path, capsys):
        config_path = tmp_path / "experiment.json"
        config_path.write_text(json.dumps(make_config_data(lattice="Q7")))
        assert main(["run", "--config", str(config_path)]) == 2

    @pytest.mark.parametrize(
        "field,value",
        [
            ("seed", -1),
            ("max_trials", 5),
            ("target_errors", 1),
            ("trials_per_j", 5),
            ("lattice", "Z99"),
            ("K", 1),
        ],
    )
    def test_out_of_range_field_exits_2(self, tmp_path, capsys, field, value):
        # Whatever the curves: sampled ones, or a bound alone.
        for i, curves in enumerate((["SEP_SIM", "SEP_EXACT"], ["MSLB"])):
            data = make_config_data(lattice="E4", curves=curves)
            data[field] = value
            config_path = tmp_path / f"experiment-{i}.json"
            config_path.write_text(json.dumps(data))
            out_dir = tmp_path / f"results-{i}"
            assert main(["run", "--config", str(config_path), "--out", str(out_dir)]) == 2
            err = capsys.readouterr().err
            assert field in err
            assert field == "lattice" or str(config_path) in err
            assert not out_dir.exists()

    @pytest.mark.parametrize(
        "field, value, named",
        [
            ("snr_db", {"start": "0", "stop": 12.0, "step": 4.0}, "snr_db.start"),
            ("snr_db", {"start": 4.0, "stop": 12.0}, "snr_db"),
            ("lattice", "", "lattice"),
            ("lattice", 4, "lattice"),
            ("curves", "MSLB", "curves"),
            ("curves", ["MSLB", 3], "curves"),
        ],
    )
    def test_malformed_config_field_exits_2(self, tmp_path, capsys, field, value, named):
        config_path = tmp_path / "experiment.json"
        config_path.write_text(json.dumps(make_config_data(**{field: value})))
        out_dir = tmp_path / "results"
        assert main(["run", "--config", str(config_path), "--out", str(out_dir)]) == 2
        assert f"field {named!r}" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_simulation_beyond_8_dimensions_exits_2_before_any_curve(self, tmp_path, capsys):
        config_path = tmp_path / "experiment.json"
        config_path.write_text(json.dumps(make_config_data(lattice="Z9", curves=["MSLB", "SEP_SIM"])))
        out_dir = tmp_path / "results"
        assert main(["run", "--config", str(config_path), "--out", str(out_dir)]) == 2
        err = capsys.readouterr().err
        assert "curves" in err and "SEP_SIM" in err and "N=9" in err
        assert not out_dir.exists()

    def test_monte_carlo_exact_beyond_8_dimensions_exits_2(self, tmp_path, capsys):
        generator = [[1.0 if i == j else 0.0 for j in range(9)] for i in range(9)]
        generator[0][1] = 0.5  # not the identity, so SEP_EXACT would need Monte Carlo
        lattice_path = tmp_path / "skewed9.json"
        lattice_path.write_text(
            json.dumps({"name": "skewed9", "dimension": 9, "generator": generator})
        )
        config_path = tmp_path / "experiment.json"
        config_path.write_text(
            json.dumps(make_config_data(lattice=str(lattice_path), curves=["MSLB", "SEP_EXACT"]))
        )
        out_dir = tmp_path / "results"
        assert main(["run", "--config", str(config_path), "--out", str(out_dir)]) == 2
        err = capsys.readouterr().err
        assert "curves" in err and "SEP_EXACT" in err and "N=9" in err
        assert not out_dir.exists()

    def test_ill_conditioned_simulation_exits_2_before_any_curve(self, tmp_path, capsys):
        # Condition number 4e8: brute force and the sphere decoder disagree
        # on such a basis, so sampled curves are refused, on a diagonal
        # generator too.
        turn = math.pi / 6.0
        rotation = [[math.cos(turn), -math.sin(turn)], [math.sin(turn), math.cos(turn)]]
        needle = [[row[0] * 2e4, row[1] * 5e-5] for row in rotation]
        for name, generator in (("needle", needle), ("diagonal", [[2e4, 0.0], [0.0, 5e-5]])):
            lattice_path = tmp_path / f"{name}.json"
            lattice_path.write_text(json.dumps({"name": name, "dimension": 2, "generator": generator}))
            config_path = tmp_path / "experiment.json"
            config_path.write_text(
                json.dumps(make_config_data(lattice=str(lattice_path), curves=["MSLB", "SEP_SIM"]))
            )
            out_dir = tmp_path / f"results-{name}"
            assert main(["run", "--config", str(config_path), "--out", str(out_dir)]) == 2
            err = capsys.readouterr().err
            assert "curves" in err and "SEP_SIM" in err and "4e+08" in err
            assert not out_dir.exists()

    @pytest.mark.parametrize(
        "payload",
        [
            5,
            {"name": "x", "dimension": 2, "generator": {"a": 1}},
            {"name": "x", "dimension": 2, "generator": [[1, 0], [0, 0]]},
            {"name": 'my,lat"x', "dimension": 2, "generator": [[1.0, 0.0], [0.0, 1.0]]},
            {"name": "x", "dimension": 2, "generator": [[4.0, 0.0], [0.0, 1.0]], "normalize": "false"},
            {"name": "x", "dimension": True, "generator": [[1.0]]},
        ],
    )
    def test_malformed_lattice_file_exits_2(self, tmp_path, capsys, payload):
        # The message names the file once, whether the file reader or the
        # generator check refuses it, and nothing is written: a name that
        # would break the CSV rows, or a field of the wrong JSON type, is
        # refused as well.
        lattice_path = tmp_path / "malformed.json"
        lattice_path.write_text(json.dumps(payload))
        config_path = tmp_path / "experiment.json"
        config_path.write_text(json.dumps(make_config_data(lattice=str(lattice_path))))
        out_dir = tmp_path / "results"
        assert main(["run", "--config", str(config_path), "--out", str(out_dir)]) == 2
        assert capsys.readouterr().err.count(str(lattice_path)) == 1
        assert not out_dir.exists()

    @pytest.mark.parametrize("field", ["seed", "max_trials", "target_errors", "trials_per_j"])
    def test_non_integer_budget_names_the_config_once(self, tmp_path, capsys, field):
        config_path = tmp_path / "experiment.json"
        config_path.write_text(json.dumps(make_config_data(**{field: 1e5})))
        assert main(["run", "--config", str(config_path), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.count(str(config_path)) == 1
        assert f"field {field!r} must be an integer" in err

    @pytest.mark.parametrize("stop, step", [(4000.0, 1000.0), (1e300, 1.0)])
    def test_unusable_snr_grid_exits_2_before_any_curve(self, tmp_path, capsys, stop, step):
        data = make_config_data(curves=["MSLB"], snr_db={"start": 0.0, "stop": stop, "step": step})
        config_path = tmp_path / "experiment.json"
        config_path.write_text(json.dumps(data))
        out_dir = tmp_path / "results"
        assert main(["run", "--config", str(config_path), "--out", str(out_dir)]) == 2
        assert "snr_db" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_simulation_beyond_2_to_20_levels_exits_2_before_any_curve(self, tmp_path, capsys):
        config_path = tmp_path / "experiment.json"
        config_path.write_text(json.dumps(make_config_data(K=(1 << 20) + 1, curves=["MSLB", "SEP_SIM"])))
        out_dir = tmp_path / "results"
        assert main(["run", "--config", str(config_path), "--out", str(out_dir)]) == 2
        err = capsys.readouterr().err
        assert "SEP_SIM" in err and "K=1048577" in err
        assert not out_dir.exists()

    def test_out_of_range_seed_flag_exits_2(self, tmp_path, capsys):
        config_path = tmp_path / "experiment.json"
        config_path.write_text(json.dumps(make_config_data(curves=["MSLB"])))
        argv = ["run", "--config", str(config_path), "--seed", "-1", "--out", str(tmp_path)]
        assert main(argv) == 2
        assert "seed" in capsys.readouterr().err


class TestVerifyCommand:
    def test_verify_passes(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 6
        assert "FAIL" not in out
        assert "6/6 checks passed" in out

    def test_catalog_check_catches_corruption(self, monkeypatch):
        real = cli.catalog_lattice

        def corrupted(name):
            lattice = real(name)
            if lattice.name != "E8":
                return lattice
            # Unit determinant, and no basis vector shorter than d_min,
            # so the lattice is valid; only its mean basis norm is wrong.
            generator = lattice.generator * np.array([1.0 / 1.001, 1.001] + [1.0] * 6)
            return dataclasses.replace(lattice, generator=generator)

        monkeypatch.setattr(cli, "catalog_lattice", corrupted)
        ok, detail = _check_catalog()
        assert not ok
        assert "E8: mean basis norm" in detail

    def test_decoder_agreement_reaches_the_radius_query(self, monkeypatch):
        # A query that places a closer point next to every row it sees
        # turns open E8 trials into errors, which the table check catches.
        real = BatchDecoder.radius_query

        def corrupted(self, u, e):
            own, other = real(self, u, e)
            return own, own - 1.0

        monkeypatch.setattr(BatchDecoder, "radius_query", corrupted)
        ok, detail = _check_decoder_agreement()
        assert not ok
        assert "E8 K=4" in detail and "0 mismatches" in detail  # the A2 part still agrees

    def test_catalog_check_passes_uncorrupted(self):
        ok, detail = _check_catalog()
        assert ok
        assert "1e-9" in detail


class TestUsageErrors:
    def test_run_negative_threads(self, tmp_path):
        config_path = tmp_path / "experiment.json"
        config_path.write_text(json.dumps(make_config_data(curves=["MSLB"])))
        assert main(["run", "--config", str(config_path), "--threads", "0"]) == 2

    def test_config_validation_survives_dataclass_construction(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(
                lattice="Z2",
                K=4,
                snr_start=0.0,
                snr_stop=10.0,
                snr_step=1.0,
                curves=("NOT_A_CURVE",),
            )


class TestStartup:
    def test_import_loads_no_network_or_xml_modules(self):
        # Every ``latticesep`` start imports the CLI; the SVG escape once
        # pulled in urllib.request, http.client and the email package.
        # urllib.parse stays: pathlib imports it.
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        result = subprocess.run(
            [sys.executable, "-c", "import sys, latticesep.cli; print(*sorted(sys.modules))"],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        loaded = result.stdout.split()
        assert "latticesep.cli" in loaded
        banned = [
            name
            for name in loaded
            if name == "urllib.request" or name.partition(".")[0] in ("http", "email", "xml")
        ]
        assert banned == []
