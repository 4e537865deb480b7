"""CLI contract tests: config resolution, exit codes, output files."""

import json
import math
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from isacwave import cli, kpi, montecarlo
from isacwave.admm import ProblemSpec, papr_cap
from isacwave.signal_model import (
    ChannelRealization,
    chirp_reference,
    draw_channel,
    draw_symbols,
)


def _design_config(**overrides):
    cfg = {
        "n_antennas": 4, "k_users": 2, "n_samples": 16,
        "epsilon": 1.0, "eta": 2.0, "rho": 1.0, "m_iter": 2000,
        "channel_seed": 7, "symbol_seed": 8,
    }
    cfg.update(overrides)
    return {"design": {k: v for k, v in cfg.items() if v is not None}}


def _experiment_config(**overrides):
    cfg = {
        "n_antennas": 4, "k_users": 2, "n_samples": 8,
        "rho": [1.0], "eta_db": [3.0], "epsilon": [1.0],
        "snr_db": [10.0], "n_trials": 3, "base_seed": 11, "m_iter": 80,
    }
    cfg.update(overrides)
    return {"experiment": {k: v for k, v in cfg.items() if v is not None}}


def _write(tmp_path, config, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return str(path)


def _run(tmp_path, command, config, *extra):
    path = _write(tmp_path, config)
    out = str(tmp_path / "out")
    code = cli.main([command, "--config", path, "--out", out, *extra])
    return code, out


def _rank_deficient(k_users, n_antennas, rng_seed):
    row = np.ones((1, n_antennas), dtype=complex)
    return ChannelRealization(np.vstack([row] * k_users))


class TestConfigValidation:
    def test_missing_channel_seed_names_field(self, tmp_path, capsys):
        config = _design_config(channel_seed=None)
        code, _ = _run(tmp_path, "design", config)
        assert code == cli.EXIT_BAD_CONFIG
        assert "design.channel_seed" in capsys.readouterr().err

    def test_unknown_key_rejected_with_path(self, tmp_path, capsys):
        config = _design_config()
        config["design"]["typo_field"] = 1
        code, _ = _run(tmp_path, "design", config)
        assert code == cli.EXIT_BAD_CONFIG
        assert "design.typo_field" in capsys.readouterr().err

    def test_unknown_section_rejected(self, tmp_path):
        config = _design_config()
        config["extras"] = {}
        code, _ = _run(tmp_path, "design", config)
        assert code == cli.EXIT_BAD_CONFIG

    # a file holds the section its command reads and no other, even a
    # section that another command would accept
    def test_section_of_another_command_rejected(self, tmp_path, capsys):
        config = {**_experiment_config(), **_design_config()}
        code, out = _run(tmp_path, "ccdf", config)
        assert code == cli.EXIT_BAD_CONFIG
        assert "config error at design: " in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_eta_and_eta_db_together_rejected(self, tmp_path, capsys):
        config = _design_config(eta_db=3.0)
        code, _ = _run(tmp_path, "design", config)
        assert code == cli.EXIT_BAD_CONFIG
        assert "exactly one" in capsys.readouterr().err

    def test_neither_eta_nor_eta_db_rejected(self, tmp_path):
        config = _design_config(eta=None)
        code, _ = _run(tmp_path, "design", config)
        assert code == cli.EXIT_BAD_CONFIG

    def test_missing_file(self, tmp_path):
        out = str(tmp_path / "out")
        code = cli.main(["design", "--config",
                         str(tmp_path / "nope.json"), "--out", out])
        assert code == cli.EXIT_BAD_CONFIG

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code = cli.main(["design", "--config", str(path),
                         "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_BAD_CONFIG

    @pytest.mark.parametrize("kind", ["directory", "not-utf8"])
    def test_unreadable_config_reported_at_its_path(self, tmp_path, capsys,
                                                    kind):
        path = tmp_path / "config"
        if kind == "directory":
            path.mkdir()
        else:
            path.write_bytes(b'{"design": {"rho": "\xff"}}')
        out = tmp_path / "out"
        code = cli.main(["design", "--config", str(path), "--out", str(out)])
        assert code == cli.EXIT_BAD_CONFIG
        assert capsys.readouterr().err.startswith(
            f"isacwave: config error at {path}: ")
        assert not out.exists()

    # the file stands for --out itself or for a parent of it
    @pytest.mark.parametrize("command,config,below", [
        ("design", _design_config(), False),
        ("ccdf", _experiment_config(), False),
        ("ccdf", _experiment_config(), True),
    ], ids=["design", "ccdf", "ccdf-below-file"])
    def test_out_naming_a_file_rejected_before_any_work(
            self, tmp_path, monkeypatch, capsys, command, config, below):
        solves = []
        monkeypatch.setattr(cli, "solve", solves.append)
        monkeypatch.setattr(montecarlo, "solve", solves.append)
        taken = tmp_path / "taken"
        taken.write_text("keep")
        out = taken / "run" if below else taken
        code = cli.main([command, "--config", _write(tmp_path, config),
                         "--out", str(out)])
        assert code == cli.EXIT_BAD_CONFIG
        assert solves == []
        assert "config error at --out: " in capsys.readouterr().err
        assert taken.read_text() == "keep"

    # a bare field is a design field; "experiment." marks an experiment
    # field, run through ccdf.  Range errors come from the library, which
    # may name a field its own way.
    @pytest.mark.parametrize("field,value", [
        ("n_antennas", 0), ("n_antennas", 2.5), ("epsilon", -1.0),
        ("rho", 0.0), ("m_iter", True), ("channel_seed", -1),
        ("snr_convention", "bogus"),
        ("n_antennas", -1), ("k_users", 0), ("k_users", -1),
        ("n_samples", 0), ("n_samples", -1), ("epsilon", -1e-9),
        ("eta", 0.0), ("eta", -2.0), ("eta", 0.5), ("rho", -1.0),
        ("m_iter", 0), ("m_iter", -1), ("m_iter", 2.5),
        ("feasibility_tolerance", 0.0), ("feasibility_tolerance", -1.0),
        ("experiment.n_antennas", 0), ("experiment.n_antennas", -1),
        ("experiment.k_users", 0), ("experiment.k_users", -1),
        ("experiment.n_samples", 0), ("experiment.n_samples", -1),
        ("experiment.n_trials", 0), ("experiment.n_trials", -1),
        ("experiment.n_trials", 2.5), ("experiment.n_trials", True),
        ("experiment.m_iter", 0), ("experiment.m_iter", -1),
        ("experiment.m_iter", 2.5), ("experiment.rho", 0.0),
    ])
    def test_bad_field_values(self, tmp_path, capsys, field, value):
        section, _, name = field.rpartition(".")
        if section == "experiment":
            command, config = "ccdf", _experiment_config(**{name: value})
        else:
            command, config = "design", _design_config(**{name: value})
        library_name = {"m_iter": "max_iterations",
                        "experiment.rho": "rho_grid"}.get(field, name)
        code, out = _run(tmp_path, command, config)
        assert code == cli.EXIT_BAD_CONFIG
        assert not os.path.exists(out)
        err = capsys.readouterr().err
        assert err.startswith("isacwave: config error at ")
        assert name in err or library_name in err

    def test_experiment_section_required_for_sweeps(self, tmp_path, capsys):
        code, _ = _run(tmp_path, "ccdf", _design_config())
        assert code == cli.EXIT_BAD_CONFIG
        assert "experiment" in capsys.readouterr().err

    def test_eta_out_of_papr_range(self, tmp_path):
        code, _ = _run(tmp_path, "design", _design_config(eta=0.5))
        assert code == cli.EXIT_BAD_CONFIG

    # each message holds a fragment naming what was rejected: the field,
    # the rule, the flag, or for exit 3 the dependent channel
    @pytest.mark.parametrize("command,config,extra,expected,named", [
        ("design", _design_config(constellation="8psk"), (),
         cli.EXIT_BAD_CONFIG, "constellation"),
        ("design", _design_config(snr_convention="zf-normalized", k_users=5),
         (), cli.EXIT_BAD_CONFIG, "k_users"),
        ("design", _design_config(eta=None, eta_db=1e4), (),
         cli.EXIT_BAD_CONFIG, "eta"),
        ("ser", _experiment_config(constellation="16qam"), (),
         cli.EXIT_BAD_CONFIG, "qpsk"),
        ("sumrate", _experiment_config(snr_db=[0.0, 10.0]), (),
         cli.EXIT_BAD_CONFIG, "SNR"),
        # every trial of these sweeps draws a rank-deficient channel
        ("ccdf", _experiment_config(snr_convention="raw"), (),
         cli.EXIT_SINGULAR, "dependent"),
        ("ser", _experiment_config(snr_convention="raw"), (),
         cli.EXIT_SINGULAR, "dependent"),
        # a linear SNR or noise variance of 0 or inf
        ("design", _design_config(snr_db=-4000.0), (), cli.EXIT_BAD_CONFIG,
         "snr_db"),
        ("design", _design_config(snr_db=4000.0), (), cli.EXIT_BAD_CONFIG,
         "snr_db"),
        ("ser", _experiment_config(snr_db=[-4000.0]), (),
         cli.EXIT_BAD_CONFIG, "snr_db"),
        ("ser", _experiment_config(snr_db=[4000.0]), (), cli.EXIT_BAD_CONFIG,
         "snr_db"),
        ("sumrate", _experiment_config(snr_db=[-4000.0]), (),
         cli.EXIT_BAD_CONFIG, "snr_db"),
        ("sumrate", _experiment_config(snr_db=[4000.0]), (),
         cli.EXIT_BAD_CONFIG, "snr_db"),
        # ccdf holds epsilon fixed, so a second entry would go unread
        ("ccdf", _experiment_config(epsilon=[1.0, 0.2]), (),
         cli.EXIT_BAD_CONFIG, "epsilon_grid"),
        # --seed S fills symbol_seed with S + 1, one past the largest u64;
        # the flag is named, not a config field the command line filled
        ("design", _design_config(channel_seed=None, symbol_seed=None),
         ("--seed", str(2 ** 64 - 1)), cli.EXIT_BAD_CONFIG,
         "config error at --seed + 1: "),
        # a sweep's --seed fills base_seed, and the flag is named too
        ("ccdf", _experiment_config(), ("--seed", "-1"), cli.EXIT_BAD_CONFIG,
         "config error at --seed: "),
    ], ids=["design-8psk", "design-zf-k-above-n", "design-eta-db-overflow",
            "ser-16qam", "sumrate-two-snr", "ccdf-raw-singular",
            "ser-raw-singular", "design-snr-low", "design-snr-high",
            "ser-snr-low", "ser-snr-high", "sumrate-snr-low",
            "sumrate-snr-high", "ccdf-two-epsilon", "design-seed-overflow",
            "ccdf-seed-negative"])
    def test_library_rejections_exit_with_documented_code(
            self, tmp_path, monkeypatch, capsys, command, config, extra,
            expected, named):
        if expected == cli.EXIT_SINGULAR:
            monkeypatch.setattr(montecarlo, "draw_channel", _rank_deficient)
        code, out = _run(tmp_path, command, config, *extra)
        assert code == expected
        # nothing was written, so no output directory was made
        assert not os.path.exists(out)
        err = capsys.readouterr().err
        if expected == cli.EXIT_BAD_CONFIG:
            assert err.startswith("isacwave: config error at ")
        assert named in err


# what the installed console script runs
_SCRIPT = "import sys; from isacwave.cli import main; sys.exit(main())"


class TestCommandLine:
    @pytest.mark.parametrize("how", ["main", "script"])
    @pytest.mark.parametrize("args, named", [
        (["bogus"], "bogus"),
        ([], "command"),
        (["ccdf", "--bogus"], "--bogus"),
        (["ccdf", "--threads", "abc"], "--threads"),
        (["ccdf", "--seed", "abc"], "--seed"),
    ], ids=["unknown-command", "missing-command", "unknown-flag",
            "threads-not-int", "seed-not-int"])
    def test_malformed_command_line_exits_1(self, tmp_path, capsys, how,
                                            args, named):
        # argparse's own code would be 2, the code of an infeasible design
        argv = [*args, "--config", _write(tmp_path, _experiment_config()),
                "--out", str(tmp_path / "out")]
        if how == "main":
            with pytest.raises(SystemExit) as exited:
                cli.main(argv)
            code, err = exited.value.code, capsys.readouterr().err
        else:
            env = dict(os.environ,
                       PYTHONPATH=os.pathsep.join(filter(None, sys.path)))
            done = subprocess.run([sys.executable, "-c", _SCRIPT, *argv],
                                  env=env, capture_output=True, text=True,
                                  timeout=120)
            code, err = done.returncode, done.stderr
        assert code == cli.EXIT_BAD_CONFIG
        message = err[err.index("isacwave: error: "):]
        assert named in message
        assert not os.path.exists(tmp_path / "out")

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exited:
            cli.main(["--help"])
        assert exited.value.code == cli.EXIT_OK
        assert capsys.readouterr().out.startswith("usage: isacwave")


class TestOverrides:
    def test_set_flag_overrides_field(self, tmp_path):
        code, out = _run(tmp_path, "ccdf", _experiment_config(),
                         "--set", "experiment.n_trials=2")
        assert code == cli.EXIT_OK
        manifest = json.load(open(os.path.join(out, "manifest.json")))
        assert manifest["config"]["experiment"]["n_trials"] == 2

    def test_set_parses_json_values(self, tmp_path):
        code, out = _run(tmp_path, "ccdf", _experiment_config(),
                         "--set", "experiment.rho=[0.5, 2.0]")
        assert code == cli.EXIT_OK
        manifest = json.load(open(os.path.join(out, "manifest.json")))
        assert manifest["config"]["experiment"]["rho"] == [0.5, 2.0]

    def test_set_without_equals_rejected(self, tmp_path):
        code, _ = _run(tmp_path, "ccdf", _experiment_config(),
                       "--set", "experiment.n_trials")
        assert code == cli.EXIT_BAD_CONFIG

    def test_set_unknown_section_rejected(self, tmp_path):
        code, _ = _run(tmp_path, "ccdf", _experiment_config(),
                       "--set", "nope.n_trials=2")
        assert code == cli.EXIT_BAD_CONFIG

    # ccdf reads the experiment section only, so a design field it would
    # never read is rejected, not ignored
    def test_set_of_another_section_rejected(self, tmp_path, capsys):
        code, out = _run(tmp_path, "ccdf", _experiment_config(),
                         "--set", "design.bogus=1")
        assert code == cli.EXIT_BAD_CONFIG
        assert "config error at design.bogus: " in capsys.readouterr().err
        assert not os.path.exists(out)

    # the environment sets nothing: neither a flag nor a config field
    @pytest.mark.parametrize("name", ["ISAC_BOGUS_FIELD", "ISAC_SEED",
                                      "ISAC_THREADS", "ISAC_OUT",
                                      "ISAC_CONFIG",
                                      "ISAC_EXPERIMENT_N_TRIALS",
                                      "ISAC_DESIGN_M_ITER"])
    def test_unrecognized_env_rejected(self, tmp_path, monkeypatch, capsys,
                                       name):
        monkeypatch.setenv(name, "1")
        code, out = _run(tmp_path, "ccdf", _experiment_config())
        assert code == cli.EXIT_BAD_CONFIG
        err = capsys.readouterr().err
        assert f"config error at {name}:" in err
        assert "--set" in err
        assert not os.path.exists(out)

    def test_seed_flag_sets_base_seed(self, tmp_path):
        code, out = _run(tmp_path, "ccdf", _experiment_config(), "--seed",
                         "99")
        assert code == cli.EXIT_OK
        manifest = json.load(open(os.path.join(out, "manifest.json")))
        assert manifest["config"]["experiment"]["base_seed"] == 99
        assert manifest["seed"] == 99

    def test_seed_flag_fills_design_seeds(self, tmp_path):
        config = _design_config(channel_seed=None, symbol_seed=None)
        code, out = _run(tmp_path, "design", config, "--seed", "7")
        assert code == cli.EXIT_OK
        manifest = json.load(open(os.path.join(out, "manifest.json")))
        assert manifest["seed"] == [7, 8]

    def test_explicit_seeds_win_over_seed_flag(self, tmp_path):
        code, out = _run(tmp_path, "design", _design_config(), "--seed",
                         "123")
        assert code == cli.EXIT_OK
        manifest = json.load(open(os.path.join(out, "manifest.json")))
        assert manifest["seed"] == [7, 8]


class TestDesignCommand:
    def test_feasible_design_exit_zero_and_kpi_bounds(self, tmp_path):
        code, out = _run(tmp_path, "design", _design_config())
        assert code == cli.EXIT_OK
        report = json.load(open(os.path.join(out, "kpi.json")))
        assert report["papr_linear"] <= 2.0 + 1e-3
        assert report["similarity_distance"] <= 1.0 + 1e-3
        waveform = json.load(open(os.path.join(out, "waveform.json")))
        assert waveform["n_antennas"] == 4
        assert waveform["n_samples"] == 16
        assert len(waveform["entries"]) == 4
        assert len(waveform["entries"][0]) == 16
        assert len(waveform["entries"][0][0]) == 2
        assert set(waveform["residual_history"]) == {
            "energy", "similarity", "papr"}
        assert waveform["rho_trajectory"][0] == [0, 1.0]

    def test_noise_enters_only_the_evaluation(self, tmp_path):
        # the design reads the channel, symbols, chirp and caps, so the
        # same block comes out at any snr_db; only the KPIs move
        runs = {}
        for snr_db in (10.0, 20.0):
            run_dir = tmp_path / f"snr-{snr_db:g}"
            run_dir.mkdir()
            code, out = _run(run_dir, "design", _design_config(snr_db=snr_db))
            assert code == cli.EXIT_OK
            with open(os.path.join(out, "waveform.json"), "rb") as handle:
                waveform = handle.read()
            with open(os.path.join(out, "kpi.json"), encoding="utf-8") as handle:
                sinr = json.load(handle)["per_user_sinr"]
            assert max(sinr) <= 10.0 ** (snr_db / 10.0)
            runs[snr_db] = waveform, np.array(sinr)
        assert runs[10.0][0] == runs[20.0][0]
        assert np.all(runs[20.0][1] > runs[10.0][1])

    def test_epsilon_zero_emits_reference(self, tmp_path):
        code, out = _run(tmp_path, "design", _design_config(epsilon=0.0))
        assert code == cli.EXIT_OK
        waveform = json.load(open(os.path.join(out, "waveform.json")))
        block = np.array([[complex(re, im) for re, im in row]
                          for row in waveform["entries"]])
        assert np.allclose(block, chirp_reference(4, 16).entries,
                           atol=1e-12)
        assert waveform["iterations_run"] == 0

    def test_infeasible_design_exit_two(self, tmp_path):
        # starve the solver so violations stay above tolerance
        config = _design_config(m_iter=1, epsilon=0.2, eta=1.05)
        code, out = _run(tmp_path, "design", config)
        assert code == cli.EXIT_INFEASIBLE
        # outputs are still written for inspection
        assert os.path.exists(os.path.join(out, "waveform.json"))
        assert os.path.exists(os.path.join(out, "kpi.json"))

    @pytest.mark.parametrize("command,config", [
        ("design", _design_config(epsilon=0.0, eta=1.0)),
        ("ccdf", _experiment_config(n_samples=16, epsilon=[0.0],
                                    eta_db=[0.0])),
    ])
    def test_epsilon_zero_accepts_chirp_at_unit_cap(self, tmp_path, command,
                                                    config):
        # the chirp's PAPR is 1 exactly, but computes above 1 by roundoff
        assert kpi.papr(chirp_reference(4, 16).vec) > 1.0
        code, _ = _run(tmp_path, command, config)
        assert code == cli.EXIT_OK

    def test_singular_channel_exit_three(self, tmp_path, monkeypatch):
        monkeypatch.setattr(montecarlo, "draw_channel", _rank_deficient)
        code, _ = _run(tmp_path, "design", _design_config())
        assert code == cli.EXIT_SINGULAR

    def test_manifest_contents(self, tmp_path):
        code, out = _run(tmp_path, "design", _design_config())
        assert code == cli.EXIT_OK
        manifest = json.load(open(os.path.join(out, "manifest.json")))
        assert manifest["command"] == "design"
        assert manifest["version"]
        assert manifest["duration_seconds"] >= 0
        assert manifest["outputs"] == ["waveform.json", "kpi.json"]
        resolved = manifest["config"]["design"]
        assert resolved["feasibility_tolerance"] == 1e-3
        assert resolved["snr_convention"] == "raw"


class TestExperimentCommands:
    def test_ccdf_axis_and_header(self, tmp_path):
        config = _experiment_config(rho=[0.5, 1.0], eta_db=[0.0, 3.0])
        code, out = _run(tmp_path, "ccdf", config)
        assert code == cli.EXIT_OK
        lines = open(os.path.join(out, "ccdf.csv")).read().splitlines()
        assert lines[0].startswith("gamma_db,")
        for label in ("rho=0.5,eta=0dB", "rho=1,eta=3dB"):
            assert f'"{label}"' in lines[0]
        axis = [float(line.split(",")[0]) for line in lines[1:]]
        assert len(axis) == 201
        assert axis[0] == 0.0
        deltas = np.diff(axis)
        assert np.allclose(deltas, 0.05, atol=1e-12)

    def test_sumrate_has_capacity_series(self, tmp_path):
        code, out = _run(tmp_path, "sumrate", _experiment_config())
        assert code == cli.EXIT_OK
        lines = open(os.path.join(out, "sumrate.csv")).read().splitlines()
        header = lines[0].split(",")
        assert header[0] == "epsilon"
        assert "awgn_capacity" in header
        column = header.index("awgn_capacity")
        values = {line.split(",")[column] for line in lines[1:]}
        assert len(values) == 1
        assert float(values.pop()) == pytest.approx(np.log2(11.0),
                                                    rel=1e-12)

    def test_ser_columns(self, tmp_path):
        config = _experiment_config(n_antennas=4, snr_db=[0.0, 4.0],
                                    n_samples=4)
        code, out = _run(tmp_path, "ser", config)
        assert code == cli.EXIT_OK
        lines = open(os.path.join(out, "ser.csv")).read().splitlines()
        assert lines[0] == "snr_db,designed,zero_mui"
        assert len(lines) == 3

    def test_rerun_byte_identical(self, tmp_path):
        config = _experiment_config()
        path = _write(tmp_path, config)
        outs = [str(tmp_path / name) for name in ("a", "b")]
        for out in outs:
            assert cli.main(["ccdf", "--config", path, "--out", out]) == 0
        first = open(os.path.join(outs[0], "ccdf.csv"), "rb").read()
        second = open(os.path.join(outs[1], "ccdf.csv"), "rb").read()
        assert first == second

    def test_csv_floats_round_trip(self, tmp_path):
        code, out = _run(tmp_path, "sumrate", _experiment_config())
        assert code == cli.EXIT_OK
        lines = open(os.path.join(out, "sumrate.csv")).read().splitlines()
        for line in lines[1:]:
            for cell in line.split(","):
                value = float(cell)
                assert repr(value) == cell

    def test_threads_flag_does_not_change_results(self, tmp_path):
        config = _experiment_config()
        path = _write(tmp_path, config)
        outs = [str(tmp_path / name) for name in ("t1", "t2")]
        assert cli.main(["ccdf", "--config", path, "--out", outs[0],
                         "--threads", "1"]) == 0
        assert cli.main(["ccdf", "--config", path, "--out", outs[1],
                         "--threads", "2"]) == 0
        first = open(os.path.join(outs[0], "ccdf.csv"), "rb").read()
        second = open(os.path.join(outs[1], "ccdf.csv"), "rb").read()
        assert first == second

    def test_bad_threads_rejected(self, tmp_path, capsys):
        code, out = _run(tmp_path, "ccdf", _experiment_config(),
                         "--threads", "0")
        assert code == cli.EXIT_BAD_CONFIG
        # the library owns the rule; the CLI reports it at the section
        assert "config error at experiment: threads" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_design_ignores_threads(self, tmp_path):
        code, _ = _run(tmp_path, "design", _design_config(), "--threads", "0")
        assert code == cli.EXIT_OK

    def test_linear_eta_config(self, tmp_path):
        config = _experiment_config(eta_db=None, eta=[1.5, 3.0])
        code, out = _run(tmp_path, "sumrate", config)
        assert code == cli.EXIT_OK
        header = open(os.path.join(out, "sumrate.csv")).readline()
        assert "eta=1.5" in header
        assert "eta=3" in header


class TestShippedConfigs:
    @pytest.mark.parametrize("name,section", [
        ("ccdf.json", "experiment"), ("sumrate.json", "experiment"),
        ("ser.json", "experiment"), ("design.json", "design"),
    ])
    def test_shipped_configs_validate(self, name, section):
        root = os.path.join(os.path.dirname(__file__), "..", "configs")
        config = json.load(open(os.path.join(root, name)))
        resolved = cli._resolve_section(section, config[section])
        assert resolved["n_antennas"] >= resolved["k_users"]

    def test_shipped_design_stops_feasible_and_certified(self, tmp_path):
        path = os.path.join(os.path.dirname(__file__), "..", "configs",
                            "design.json")
        out = str(tmp_path / "out")
        code = cli.main(["design", "--config", path, "--out", out])
        assert code == cli.EXIT_OK
        waveform = json.load(open(os.path.join(out, "waveform.json")))
        m_iter = json.load(open(path))["design"]["m_iter"]
        assert waveform["iterations_run"] < m_iter
        assert waveform["certified_gap"] <= 1e-8
        assert max(waveform["constraint_violations"].values()) <= 1e-3
        assert waveform["certified_gap"] == (
            (waveform["objective"] - waveform["lower_bound"])
            / waveform["objective"])


class TestPaprCapRule:
    def test_linear_cap_at_n_l_reaches_the_solver_exactly(self, tmp_path,
                                                          monkeypatch):
        # through dB and back, a cap of 64 would arrive as 63.999999999999986
        assert 10.0 ** (10.0 * math.log10(64.0) / 10.0) != 64.0
        caps = []
        solve = cli.solve
        monkeypatch.setattr(cli, "solve",
                            lambda spec: caps.append(spec.eta) or solve(spec))
        code, _ = _run(tmp_path, "design", _design_config(eta=64, m_iter=1))
        assert code in (cli.EXIT_OK, cli.EXIT_INFEASIBLE)
        assert caps == [64.0]

        # a sweep keeps its linear caps linear too: 80 is not 79.99999999999996
        sweep_caps = []
        sweep_solve = montecarlo.solve
        monkeypatch.setattr(
            montecarlo, "solve",
            lambda specs: sweep_caps.extend(s.eta for s in specs)
            or sweep_solve(specs))
        config = _experiment_config(n_antennas=5, n_samples=16, eta_db=None,
                                    eta=[80], n_trials=1, m_iter=1)
        code, _ = _run(tmp_path, "sumrate", config)
        assert code == cli.EXIT_OK
        assert sweep_caps == [80.0]

    @settings(max_examples=60, deadline=None)
    @given(n_antennas=st.integers(1, 6), n_samples=st.integers(1, 12),
           upper_edge=st.booleans(), rel=st.floats(-1e-8, 1e-8),
           as_db=st.booleans())
    def test_design_and_sweeps_share_one_cap_rule(
            self, n_antennas, n_samples, upper_edge, rel, as_db):
        n_total = n_antennas * n_samples
        eta = (n_total if upper_edge else 1.0) * (1.0 + rel)
        cap = {"eta_db": 10.0 * math.log10(eta)} if as_db else {"eta": eta}
        shape = {"n_antennas": n_antennas, "k_users": 1,
                 "n_samples": n_samples}
        design = {**shape, **cap, "epsilon": 1.0, "m_iter": 1,
                  "channel_seed": 1, "symbol_seed": 2}
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "config.json")
            with open(path, "w") as handle:
                json.dump({"design": design}, handle)
            code = cli.main(["design", "--config", path, "--out", tmp])
        design_accepts = code != cli.EXIT_BAD_CONFIG

        experiment = cli._resolve_section("experiment", {
            **shape, **cap, "rho": [1.0], "epsilon": [1.0],
            "snr_db": [10.0]})
        try:
            cli._experiment_config(experiment)
            sweep_accepts = True
        except ValueError:
            sweep_accepts = False
        assert design_accepts == sweep_accepts

        excess = max(1.0 - eta, eta / n_total - 1.0)
        if excess < 0.5e-9:
            assert design_accepts
        if excess > 2e-9:
            assert not design_accepts
        if design_accepts:
            linear = papr_cap(
                10.0 ** (cap["eta_db"] / 10.0) if as_db else eta, n_total)
            assert 1.0 <= linear <= n_total
            ProblemSpec(
                channel=draw_channel(1, n_antennas, 1),
                symbols=draw_symbols(1, n_samples, "qpsk", 2),
                reference=chirp_reference(n_antennas, n_samples),
                epsilon=1.0, eta=linear,
            )
