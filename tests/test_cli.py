"""End-to-end CLI tests: subcommands, exit codes, determinism."""

import argparse
import csv
import json
from importlib import resources

import numpy as np
import pytest

from hmts import capacity, channel
from hmts.capacity import default_table
from hmts.channel import BeamConfig
from hmts.cli import main, resolve_settings
from hmts.errors import DegenerateRateError
from hmts.rates import pair_gain
from hmts.sim import ScenarioConfig


def run_cli(args, capsys):
    try:
        code = main(args)
    except SystemExit as exc:  # argparse's own usage errors
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_csv(path, reader=csv.DictReader):
    """Every row of the CSV file at ``path``, the file closed."""
    with open(path, newline="") as fh:
        return list(reader(fh))


class TestConstellationCommand:
    def test_solution_curves(self, tmp_path, capsys):
        code, out, _ = run_cli(
            ["--out-dir", str(tmp_path), "constellation",
             "--rho", "0.8", "--rho", "0.9", "--samples", "64"],
            capsys,
        )
        assert code == 0
        files = sorted(tmp_path.glob("solution_rho*.csv"))
        assert len(files) == 2
        curves = {}
        for path in files:
            rows = read_csv(path)
            curves[path.name] = [(float(r["gamma"]), float(r["theta_deg"])) for r in rows]
        c08 = curves["solution_rho0.8.csv"]
        c09 = curves["solution_rho0.9.csv"]
        # at matching ring ratios the higher-energy curve sits below
        g08 = np.array([g for g, _ in c08])
        t08 = np.array([t for _, t in c08])
        for g, t in c09:
            assert t < np.interp(g, g08, t08)

    def test_symbol_file(self, tmp_path, capsys):
        code, out, _ = run_cli(
            ["--out-dir", str(tmp_path), "constellation",
             "--gamma", "2.3", "--theta", "28.4"],
            capsys,
        )
        assert code == 0
        (path,) = tmp_path.glob("constellation_*.csv")
        rows = read_csv(path)
        assert len(rows) == 16
        energy = np.mean([float(r["I"]) ** 2 + float(r["Q"]) ** 2 for r in rows])
        assert energy == pytest.approx(1.0, abs=1e-9)

    def test_invalid_rho_exit_2(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["--out-dir", str(tmp_path), "constellation", "--rho", "0.3"], capsys
        )
        assert code == 2
        assert "rho_he" in err and "0.5" in err

    def test_nothing_to_do(self, tmp_path, capsys):
        code, _, err = run_cli(["--out-dir", str(tmp_path), "constellation"], capsys)
        assert code == 2


class TestThresholdsCommand:
    def test_estimate_emits_schema(self, tmp_path, capsys):
        code, out, _ = run_cli(
            ["--out-dir", str(tmp_path), "thresholds", "estimate",
             "--rho", "0.8", "--rates", "1/2,2/3", "--quality", "2000"],
            capsys,
        )
        assert code == 0
        path = tmp_path / "thresholds_estimated.csv"
        lines = path.read_text().splitlines()
        assert lines[0] == "modulation,code_rate,stream,threshold_db"
        rows = read_csv(path)
        assert {r["stream"] for r in rows} == {"HE", "LE"}
        assert all(r["modulation"] == "H16APSK-0.80" for r in rows)
        # emitted files round-trip through the loader
        from hmts.capacity import load_thresholds

        table = load_thresholds(path)
        assert len(table.entries) == 4

    @pytest.mark.parametrize("margin", ["1e308", "-100", "nan", "inf"])
    def test_margin_out_of_range_exit_2(self, margin, tmp_path, capsys):
        code, _, err = run_cli(
            ["--out-dir", str(tmp_path), "thresholds", "estimate", "--rho", "0.8",
             "--rates", "1/2", "--quality", "1000", f"--margin={margin}"],
            capsys,
        )
        assert code == 2
        assert "loss margin" in err
        assert not list(tmp_path.iterdir())


    @pytest.mark.parametrize("flags, repeated", [
        (["--rho", "0.8", "--rho", "0.8"], "--rho repeats H16APSK-0.80"),
        # 0.801 is no longer rounded to the id of 0.80, so it is refused
        # before it could repeat that id
        (["--rho", "0.8", "--rho", "0.801"], "rho_he must be a multiple of 0.01, got 0.801"),
        (["--rho", "0.8", "--rates", "1/2,2/3,2/4"], "--rates repeats 1/2"),
    ], ids=["rho", "rho-same-id", "rates"])
    def test_repeat_exit_2_before_estimating(self, flags, repeated, tmp_path, capsys,
                                             monkeypatch):
        def no_evaluation(*args, **kwargs):
            raise AssertionError("MI evaluated")

        monkeypatch.setattr(capacity, "stream_mutual_information", no_evaluation)
        code, _, err = run_cli(
            ["--out-dir", str(tmp_path), "thresholds", "estimate", *flags], capsys
        )
        assert code == 2
        assert err == f"error: {repeated}\n"
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("code_rates", ["9/10,3/2", "1/2,2/3,3/2"])
    def test_rate_out_of_range_exit_2_before_estimating(self, code_rates, tmp_path, capsys,
                                                        monkeypatch):
        calls = []
        monkeypatch.setattr(capacity, "stream_mutual_information",
                            lambda *args, **kwargs: calls.append(args))
        code, _, err = run_cli(
            ["--out-dir", str(tmp_path), "thresholds", "estimate", "--rho", "0.8",
             "--rates", code_rates], capsys
        )
        assert code == 2
        assert "code rate must lie in (0, 1], got 3/2" in err
        assert calls == []
        assert not list(tmp_path.iterdir())

    def test_rho_off_the_hundredths_exit_2_before_estimating(self, tmp_path, capsys,
                                                            monkeypatch):
        def no_evaluation(*args, **kwargs):
            raise AssertionError("MI evaluated")

        monkeypatch.setattr(capacity, "stream_mutual_information", no_evaluation)
        code, _, err = run_cli(
            ["--out-dir", str(tmp_path), "thresholds", "estimate", "--rho", "0.725"], capsys
        )
        assert code == 2
        assert err == "error: rho_he must be a multiple of 0.01, got 0.725\n"
        assert not list(tmp_path.iterdir())

    def test_unknown_rho_exit_2_before_estimating(self, tmp_path, capsys, monkeypatch):
        # the known rho comes first: its thresholds are not estimated
        def no_evaluation(*args, **kwargs):
            raise AssertionError("MI evaluated")

        monkeypatch.setattr(capacity, "stream_mutual_information", no_evaluation)
        code, _, err = run_cli(
            ["--out-dir", str(tmp_path), "thresholds", "estimate", "--rho", "0.8", "--rho", "0.77"],
            capsys,
        )
        assert code == 2
        assert err.startswith("error: no adopted geometry for rho_he=0.77; known: ")
        assert not list(tmp_path.iterdir())


class TestRatesCommand:
    def test_pair_output(self, tmp_path, capsys):
        code, out, _ = run_cli(
            ["--out-dir", str(tmp_path), "rates", "pair", "--snr1", "7", "--snr2", "10"],
            capsys,
        )
        assert code == 0
        path = tmp_path / "rates_pair_7_10.csv"
        kinds = [row.split(",")[0] for row in path.read_text().splitlines()[1:]]
        assert {"point", "hull", "r_ts", "r_hm", "gain"} <= set(kinds)

    def test_pair_from_preset_config(self, tmp_path, capsys):
        code, out, _ = run_cli(
            ["--out-dir", str(tmp_path), "--config", "pair_7_10", "rates", "pair"],
            capsys,
        )
        assert code == 0
        assert (tmp_path / "rates_pair_7_10.csv").exists()

    def test_global_flags_after_subcommand(self, tmp_path, capsys):
        code, out, _ = run_cli(
            ["rates", "pair", "--config", "pair_7_10", "--out-dir", str(tmp_path)],
            capsys,
        )
        assert code == 0
        assert (tmp_path / "rates_pair_7_10.csv").exists()

    def test_grid_nonnegative(self, tmp_path, capsys):
        code, out, _ = run_cli(
            ["--out-dir", str(tmp_path), "rates", "grid",
             "--min", "6", "--max", "9", "--step", "1"],
            capsys,
        )
        assert code == 0
        rows = read_csv(tmp_path / "rates_gain_grid.csv")
        gains = [float(r["gain"]) for r in rows if r["gain"] != ""]
        assert gains and all(g >= 0.0 for g in gains)

    def test_default_grid_has_no_negative_gain(self, tmp_path, capsys):
        code, _, _ = run_cli(["--out-dir", str(tmp_path), "rates", "grid"], capsys)
        assert code == 0
        rows = read_csv(tmp_path / "rates_gain_grid.csv")
        gains = {(r["snr1_db"], r["snr2_db"]): r["gain"] for r in rows}
        # 9 and 10 dB share their best single rate and their pair rate,
        # and r_hm / r_ts - 1 rounds to -1.1e-16 there
        assert gains["9", "10"] == "0"
        assert all(float(g) >= 0.0 for g in gains.values() if g != "")

    def test_pair_9_10_gain_is_zero(self, tmp_path, capsys):
        code, _, _ = run_cli(
            ["--out-dir", str(tmp_path), "rates", "pair", "--snr1", "9", "--snr2", "10"],
            capsys,
        )
        assert code == 0
        lines = (tmp_path / "rates_pair_9_10.csv").read_text().splitlines()
        assert lines[-1] == "gain,0,,"

    def test_pair_and_grid_print_pair_gain(self, tmp_path, capsys):
        # the gain `rates pair` prints is rates.pair_gain's, and the grid
        # prints the same for the pairs on it; -5 dB decodes nothing
        table = default_table()
        rng = np.random.default_rng(9)
        pairs = [(9.0, 10.0), (7.0, 10.0), (10.0, 7.0), (6.5, 6.5), (12.0, 12.0),
                 (-5.0, 10.0), *(rng.integers(-10, 29, size=(10, 2)) / 2).tolist()]
        code, _, _ = run_cli(
            ["--out-dir", str(tmp_path), "rates", "grid",
             "--min", "-5", "--max", "14", "--step", "0.5"],
            capsys,
        )
        assert code == 0
        grid = {(r["snr1_db"], r["snr2_db"]): r["gain"]
                for r in read_csv(tmp_path / "rates_gain_grid.csv")}
        for s1, s2 in pairs:
            code, _, err = run_cli(
                ["--out-dir", str(tmp_path), "rates", "pair",
                 "--snr1", str(s1), "--snr2", str(s2)],
                capsys,
            )
            on_grid = grid[f"{min(s1, s2):g}", f"{max(s1, s2):g}"]
            try:
                expected = f"{pair_gain(s1, s2, table):.10g}"
            except DegenerateRateError:
                assert code == 3 and "error:" in err
                assert on_grid == ""
                continue
            assert code == 0
            path = tmp_path / f"rates_pair_{s1:g}_{s2:g}.csv"
            assert path.read_text().splitlines()[-1] == f"gain,{expected},,"
            assert on_grid == expected

    def test_missing_snrs(self, tmp_path, capsys):
        code, _, err = run_cli(["--out-dir", str(tmp_path), "rates", "pair"], capsys)
        assert code == 2

    def test_pair_text_pins_tie_break_and_hull(self, tmp_path, capsys):
        # at 6.5 dB QPSK 9/10 and 8PSK 3/5 give 1.8 bit/symbol up to one
        # ulp (3 * 0.6 rounds below 1.8); QPSK 9/10 names the point
        code, out, _ = run_cli(
            ["--out-dir", str(tmp_path), "rates", "pair", "--snr1", "6.5", "--snr2", "10"],
            capsys,
        )
        assert code == 0
        expected = [
            "kind,r1,r2,source",
            "point,1.8,0,QPSK 9/10",
            "point,0,3,16APSK 3/4",
            "point,1.2,1.333333333,H16APSK-0.75 3/5 HE + H16APSK-0.75 2/3 LE",
            "point,1.333333333,1.2,H16APSK-0.80 2/3 HE + H16APSK-0.80 3/5 LE",
            "point,1.333333333,1,H16APSK-0.85 2/3 HE + H16APSK-0.85 1/2 LE",
            "point,1.5,0.8,H16APSK-0.90 3/4 HE + H16APSK-0.90 2/5 LE",
            "hull,0,0,",
            "hull,1.8,0,",
            "hull,1.5,0.8,",
            "hull,1.333333333,1.2,",
            "hull,0,3,",
            "r_ts,1.125,1.125,",
            "r_hm,1.276595745,1.276595745,",
            "gain,0.134751773,,",
        ]
        text = (tmp_path / "rates_pair_6.5_10.csv").read_bytes().decode()
        assert text == "".join(line + "\r\n" for line in expected)


class TestPairingCommand:
    def test_inline_snrs(self, tmp_path, capsys):
        code, out, _ = run_cli(
            ["--out-dir", str(tmp_path), "pairing", "--strategy", "A",
             "--snrs", "4,4,12,12"],
            capsys,
        )
        assert code == 0
        assert "delta_avg = 8" in out
        rows = read_csv(tmp_path / "pairing_A.csv", csv.reader)
        assert rows[0] == ["receiver_i", "receiver_j", "snr_i_db", "snr_j_db", "delta_db"]

    def test_population_file_input(self, tmp_path, capsys):
        pop_file = tmp_path / "pop.csv"
        pop_file.write_text(
            "snr_db,class,weight\n4.0,personal,1\n12.0,personal,1\n"
        )
        code, out, _ = run_cli(
            ["--out-dir", str(tmp_path), "pairing", "--strategy", "D",
             "--snrs", str(pop_file)],
            capsys,
        )
        assert code == 0
        assert "delta_avg = 8" in out

    def test_odd_count_exit_2(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["--out-dir", str(tmp_path), "pairing", "--strategy", "A",
             "--snrs", "4,5,6"],
            capsys,
        )
        assert code == 2

    def test_nan_snr_exit_2(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["--out-dir", str(tmp_path), "pairing", "--strategy", "A",
             "--snrs", "nan,1,2,3"],
            capsys,
        )
        assert code == 2
        assert "finite" in err
        assert not list(tmp_path.glob("pairing_*.csv"))

    @pytest.mark.parametrize("strategy", ["A", "B", "C", "D"])
    def test_overflowing_snr_spread_exit_2(self, tmp_path, capsys, strategy):
        code, _, err = run_cli(
            ["--out-dir", str(tmp_path), "pairing", "--strategy", strategy,
             "--snrs=1e308,-1e308,0,1"],
            capsys,
        )
        assert code == 2
        assert "finite" in err
        assert not list(tmp_path.iterdir())

    def test_nan_population_row_exit_2(self, tmp_path, capsys):
        pop_file = tmp_path / "pop.csv"
        pop_file.write_text(
            "snr_db,class,weight\n4.0,personal,1\nnan,personal,1\n"
        )
        code, _, err = run_cli(
            ["--out-dir", str(tmp_path), "pairing", "--strategy", "D",
             "--snrs", str(pop_file)],
            capsys,
        )
        assert code == 2
        assert "line 3" in err

    @pytest.mark.parametrize("row", [
        "4.0,corporate,1", "4.0,personal,0", "4.0,personal,-1", "4.0,personal,1.5",
        "inf,personal,1", "-inf,professional,1", "6.0,professional,99999999999999999999",
    ])
    def test_bad_population_row_exit_2(self, tmp_path, capsys, row):
        pop_file = tmp_path / "pop.csv"
        pop_file.write_text(f"snr_db,class,weight\n4.0,personal,1\n{row}\n")
        out = tmp_path / "out"
        code, _, err = run_cli(
            ["--out-dir", str(out), "pairing", "--strategy", "A", "--snrs", str(pop_file)],
            capsys,
        )
        assert code == 2
        assert err.count("error:") == 1 and "line 3" in err
        assert not out.exists()


def write_tiny_config(path, **overrides):
    cfg = {
        "mode": "homogeneous",
        "scenario": {
            "n_receivers": 20,
            "n_trials": 2,
            "snr_max_grid": [10.0],
            "strategies": ["A"],
        },
    }
    cfg.update(overrides)
    path.write_text(json.dumps(cfg))
    return path


class TestSimulateCommand:
    def test_deterministic_outputs(self, tmp_path, capsys):
        cfg = write_tiny_config(tmp_path / "cfg.json")
        out1 = tmp_path / "run1"
        out2 = tmp_path / "run2"
        for out in (out1, out2):
            code, _, _ = run_cli(
                ["--seed", "1", "--out-dir", str(out), "--config", str(cfg), "simulate"],
                capsys,
            )
            assert code == 0
        assert (out1 / "report.csv").read_bytes() == (out2 / "report.csv").read_bytes()
        assert (out1 / "summary.csv").read_bytes() == (out2 / "summary.csv").read_bytes()

    def test_config_seed_honored(self, tmp_path, capsys):
        cfg_a = write_tiny_config(tmp_path / "a.json", seed=5)
        cfg_b = write_tiny_config(tmp_path / "b.json", seed=6)
        outs = {}
        for name, cfg in (("a", cfg_a), ("b", cfg_b)):
            out = tmp_path / name
            code, _, _ = run_cli(
                ["--out-dir", str(out), "--config", str(cfg), "simulate"], capsys
            )
            assert code == 0
            outs[name] = (out / "report.csv").read_bytes()
        assert outs["a"] != outs["b"]  # different config seeds, different draws

    def test_unknown_config_keys_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"mode": "homogeneous", "typo_key": 1}))
        code, _, err = run_cli(
            ["--out-dir", str(tmp_path), "--config", str(path), "simulate"], capsys
        )
        assert code == 2
        assert "typo_key" in err

    def test_unknown_scenario_keys_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"scenario": {"receivers": 10}}))
        code, _, err = run_cli(
            ["--out-dir", str(tmp_path), "--config", str(path), "simulate"], capsys
        )
        assert code == 2

    def test_scenario_seed_key_exit_2(self, tmp_path, capsys):
        # the seed has one config location, the top-level "seed"
        cfg = write_tiny_config(
            tmp_path / "cfg.json",
            scenario={"n_receivers": 20, "n_trials": 2, "snr_max_grid": [10.0],
                      "strategies": ["A"], "seed": 5},
        )
        out = tmp_path / "out"
        code, _, err = run_cli(
            ["--out-dir", str(out), "--config", str(cfg), "simulate"], capsys
        )
        assert code == 2
        assert err.count("error:") == 1 and "seed" in err
        assert not out.exists()

    def test_rho_off_the_hundredths_exit_2(self, tmp_path, capsys):
        # rounded, 0.803 would run as rho 0.80
        cfg = write_tiny_config(
            tmp_path / "cfg.json",
            scenario={"n_receivers": 20, "n_trials": 1, "snr_max_grid": [10.0],
                      "strategies": ["A"], "rho_set": [0.803]},
        )
        out = tmp_path / "out"
        code, _, err = run_cli(
            ["--out-dir", str(out), "--config", str(cfg), "simulate"], capsys
        )
        assert code == 2
        assert err == "error: rho_he must be a multiple of 0.01, got 0.803\n"
        assert not out.exists()

    def test_degenerate_population_exit_3(self, tmp_path, capsys):
        cfg = write_tiny_config(
            tmp_path / "cfg.json",
            scenario={
                "n_receivers": 8, "n_trials": 1,
                "snr_max_grid": [-20.0], "strategies": ["A"],
            },
        )
        code, _, err = run_cli(
            ["--out-dir", str(tmp_path), "--config", str(cfg), "simulate"], capsys
        )
        assert code == 3

    def test_degenerate_trial_inside_a_batch_exit_3(self, tmp_path, capsys):
        # at 1 dB, trial 27 is the first of two receivers that decode
        # nothing; the trials before it are dumped, and it is, as one
        # trial at a time would dump them, and no report is written
        cfg = write_tiny_config(
            tmp_path / "cfg.json",
            seed=1,
            scenario={"n_receivers": 2, "n_trials": 40, "snr_max_grid": [10.0, 1.0],
                      "strategies": ["A", "C"]},
        )
        out = tmp_path / "out"
        code, _, err = run_cli(
            ["--out-dir", str(out), "--config", str(cfg), "simulate", "--dump-populations"],
            capsys,
        )
        assert code == 3
        assert err == "error: no receiver can decode any modcod\nreceivers: [0, 1]\n"
        dumped = {p.name for p in (out / "populations").iterdir()}
        assert dumped == (
            {f"population_snr10_share0_trial{t}.csv" for t in range(40)}
            | {f"population_snr1_share0_trial{t}.csv" for t in range(28)}
        )
        lowest = min(e.threshold_db for e in default_table().singles())
        last = channel.read_population(out / "populations" / "population_snr1_share0_trial27.csv")
        assert (last.snr_db < lowest).all()
        assert not (out / "report.csv").exists()

    def test_sweep_value_off_the_thousandths_exit_2(self, tmp_path, capsys):
        # keyed in thousandths, 10.0004 would draw 10.0's populations
        cfg = write_tiny_config(
            tmp_path / "cfg.json",
            scenario={"n_receivers": 20, "n_trials": 1, "snr_max_grid": [10.0, 10.0004],
                      "strategies": ["A"]},
        )
        out = tmp_path / "out"
        code, _, err = run_cli(
            ["--out-dir", str(out), "--config", str(cfg), "simulate"], capsys
        )
        assert code == 2
        assert err == "error: snr_max_grid values must be multiples of 0.001, got 10.0004\n"
        assert not out.exists()

    def test_missing_preset_exit_2(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["--out-dir", str(tmp_path), "--config", "no_such_preset", "simulate"],
            capsys,
        )
        assert code == 2

    @pytest.mark.parametrize("key, value", [
        ("professional_weight", 2.0),
        ("professional_weight", True),
        ("professional_weight", 2**70),  # above 2**63 - 1, what an int64 array holds
        ("n_receivers", 20.0),
        ("n_receivers", "20"),
        ("n_trials", 1.5),
        ("n_trials", False),
    ])
    def test_non_integer_counts_exit_2(self, key, value, tmp_path, capsys):
        scenario = {"n_receivers": 20, "n_trials": 1, "snr_max_grid": [10.0],
                    "strategies": ["A"], "professional_share_grid": [0.5],
                    "professional_weight": 2, key: value}
        cfg = write_tiny_config(tmp_path / "cfg.json", mode="heterogeneous", scenario=scenario)
        out = tmp_path / "out"
        code, _, err = run_cli(
            ["--out-dir", str(out), "--config", str(cfg), "simulate"], capsys
        )
        assert code == 2
        assert err.count("error:") == 1 and key in err
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [
        ("snr_max_grid", ["10"]),
        ("snr_max_grid", [float("nan")]),
        ("snr_max_grid", [10.0, float("inf")]),
        ("snr_max_grid", 10),
        ("snr_max_grid", []),
        ("snr_max_grid", [True]),
        ("snr_max_grid", [5000.0]),
        ("snr_max_grid", [-1e300]),
        ("professional_share_grid", ["0.5"]),
        ("professional_share_grid", []),
        ("professional_share_grid", [None]),
        ("rho_set", ["0.8"]),
        ("rho_set", []),
        ("rho_set", 0.8),
        ("snr_max_grid", [10, 10.0]),
        ("strategies", "AB"),
        ("strategies", []),
        ("strategies", ["A", "A"]),
    ])
    def test_bad_sweeps_exit_2(self, key, value, tmp_path, capsys):
        scenario = {"n_receivers": 20, "n_trials": 1, "snr_max_grid": [10.0],
                    "strategies": ["A"], "professional_share_grid": [0.5], key: value}
        cfg = write_tiny_config(tmp_path / "cfg.json", mode="heterogeneous", scenario=scenario)
        out = tmp_path / "out"
        code, _, err = run_cli(
            ["--out-dir", str(out), "--config", str(cfg), "simulate"], capsys
        )
        assert code == 2
        assert err.count("error:") == 1 and key in err
        assert not out.exists()

    def test_unmatched_rho_set_exit_2(self, tmp_path, capsys):
        scenario = {"n_receivers": 20, "n_trials": 1, "snr_max_grid": [10.0],
                    "strategies": ["A"], "rho_set": [0.5, 0.95]}
        cfg = write_tiny_config(tmp_path / "cfg.json", scenario=scenario)
        out = tmp_path / "out"
        code, _, err = run_cli(
            ["--out-dir", str(out), "--config", str(cfg), "simulate", "--dump-populations"],
            capsys,
        )
        assert code == 2
        assert err.count("error:") == 1
        assert "[0.5, 0.95]" in err and "[0.75, 0.8, 0.85, 0.9]" in err
        assert not (out / "report.csv").exists()

    def test_population_dump(self, tmp_path, capsys):
        cfg = write_tiny_config(tmp_path / "cfg.json")
        code, _, _ = run_cli(
            ["--out-dir", str(tmp_path), "--config", str(cfg), "simulate",
             "--dump-populations"],
            capsys,
        )
        assert code == 0
        assert list((tmp_path / "populations").glob("population_*.csv"))


class TestTableOverride:
    def test_config_thresholds_path(self, tmp_path, capsys):
        table_path = tmp_path / "tiny.csv"
        table_path.write_text(
            "modulation,code_rate,stream,threshold_db\n"
            "QPSK,1/2,single,1.0\n"
            "QPSK,9/10,single,6.42\n"
        )
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"thresholds_path": str(table_path)}))
        code, out, _ = run_cli(
            ["--out-dir", str(tmp_path), "--config", str(cfg),
             "rates", "pair", "--snr1", "7", "--snr2", "10"],
            capsys,
        )
        assert code == 0
        content = (tmp_path / "rates_pair_7_10.csv").read_text()
        assert "8PSK" not in content and "H16APSK" not in content  # only the tiny table

    def test_bad_table_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("modulation,code_rate\n")
        code, _, err = run_cli(
            ["--table", str(bad), "--out-dir", str(tmp_path),
             "rates", "pair", "--snr1", "7", "--snr2", "10"],
            capsys,
        )
        assert code == 2

    def test_non_canonical_rho_id_exit_2(self, tmp_path, capsys):
        # the shipped table with rho 0.80 spelt 0.8: simulate's filter_rho
        # would drop those rows while rates pair used them
        shipped = resources.files("hmts.data").joinpath("dvbs2_thresholds.csv").read_text()
        table = tmp_path / "table.csv"
        table.write_text(shipped.replace("H16APSK-0.80,", "H16APSK-0.8,"))
        first = next(k for k, line in enumerate(shipped.splitlines(), 1)
                     if line.startswith("H16APSK-0.80,"))
        cfg = write_tiny_config(tmp_path / "cfg.json")
        out = tmp_path / "out"
        code, _, err = run_cli(
            ["--table", str(table), "--out-dir", str(out), "--config", str(cfg), "simulate"],
            capsys,
        )
        assert code == 2
        assert err.startswith(f"error: {table}: line {first}: ") and "'H16APSK-0.8'" in err
        assert not out.exists()


class TestSettingsPrecedence:
    """flag given on the command line > --config file > default"""

    def test_seed_flag_beats_config(self, tmp_path, capsys):
        reports = []
        for name, cfg_seed, flags in (("a", 5, ["--seed", "6"]), ("b", 6, []), ("c", 5, [])):
            cfg = write_tiny_config(tmp_path / f"{name}.json", seed=cfg_seed)
            code, _, _ = run_cli(
                ["--out-dir", str(tmp_path / name), "--config", str(cfg), *flags, "simulate"],
                capsys,
            )
            assert code == 0
            reports.append((tmp_path / name / "report.csv").read_bytes())
        assert reports[0] == reports[1] != reports[2]

    @pytest.mark.parametrize("flag", [".", "flagged"])
    def test_out_dir_flag_beats_config(self, flag, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = write_tiny_config(tmp_path / "cfg.json", out_dir="from_config")
        code, _, _ = run_cli(["--config", str(cfg), "simulate", "--out-dir", flag], capsys)
        assert code == 0
        assert (tmp_path / flag / "report.csv").exists()
        assert not (tmp_path / "from_config").exists()

    def test_out_dir_from_config(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = write_tiny_config(tmp_path / "cfg.json", out_dir="from_config")
        code, _, _ = run_cli(["--config", str(cfg), "simulate"], capsys)
        assert code == 0
        assert (tmp_path / "from_config" / "report.csv").exists()

    def test_snr_flags_beat_config(self, tmp_path, capsys):
        code, _, _ = run_cli(
            ["--out-dir", str(tmp_path), "rates", "pair", "--config", "pair_7_10",
             "--snr1", "5", "--snr2", "6"],
            capsys,
        )
        assert code == 0
        assert [p.name for p in tmp_path.glob("rates_pair_*.csv")] == ["rates_pair_5_6.csv"]

    def test_step_flag_beats_config(self, tmp_path, capsys):
        code, _, _ = run_cli(
            ["--out-dir", str(tmp_path), "rates", "grid", "--config", "gain_grid_4_12",
             "--step", "1"],
            capsys,
        )
        assert code == 0
        rows = read_csv(tmp_path / "rates_gain_grid.csv")
        assert len(rows) == 9 * 10 // 2  # 4, 5, ..., 12 dB
        assert {r["snr1_db"] for r in rows} == {str(k) for k in range(4, 13)}

    def test_weather_path_from_config_and_flag(self, tmp_path, capsys):
        weather = tmp_path / "weather.csv"
        weather.write_text("attenuation_db,cumulative_probability\n3.0,0.0\n3.0,1.0\n")
        runs = {
            "config": (write_tiny_config(tmp_path / "w.json", weather_path=str(weather)), []),
            # a missing config path is never read when the flag is given
            "flag": (write_tiny_config(tmp_path / "m.json", weather_path="missing.csv"),
                     ["--weather", str(weather)]),
            "shipped": (write_tiny_config(tmp_path / "s.json"), []),
        }
        reports = {}
        for name, (cfg, flags) in runs.items():
            code, _, _ = run_cli(
                ["--out-dir", str(tmp_path / name), "--config", str(cfg), "simulate", *flags],
                capsys,
            )
            assert code == 0
            reports[name] = (tmp_path / name / "report.csv").read_bytes()
        assert reports["config"] == reports["flag"] != reports["shipped"]

    def test_pairing_c_seed_from_config(self, tmp_path, capsys):
        snrs = ",".join(str(v) for v in range(12))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 3}))
        outputs = {}
        for name, flags in (("config", ["--config", str(cfg)]), ("flag", ["--seed", "3"]),
                            ("default", [])):
            out = tmp_path / name
            code, _, _ = run_cli(
                ["--out-dir", str(out), *flags, "pairing", "--strategy", "C", "--snrs", snrs],
                capsys,
            )
            assert code == 0
            outputs[name] = (out / "pairing_C.csv").read_bytes()
        assert outputs["config"] == outputs["flag"] != outputs["default"]

    @pytest.mark.parametrize("argv", [
        ["pairing", "--strategy", "A", "--snrs", "1,2"],
        ["constellation", "--rho", "0.8"],
        ["thresholds", "estimate", "--rho", "0.8", "--rates", "1/2"],
    ], ids=["pairing", "constellation", "thresholds-estimate"])
    def test_missing_preset_exit_2(self, argv, tmp_path, capsys):
        code, _, err = run_cli(
            ["--out-dir", str(tmp_path), "--config", "no_such_preset", *argv], capsys
        )
        assert code == 2
        assert "no_such_preset" in err
        assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("config, message", [
    ({"scenario": 5}, "scenario must be a JSON object, got 5"),
    ({"scenario": None}, "scenario must be a JSON object, got None"),
    ({"beam": "abc"}, "beam must be a JSON object, got 'abc'"),
    ({"pair": [7, 10]}, "pair must be a JSON object"),
    ({"grid": None}, "grid must be a JSON object"),
    ([{"mode": "homogeneous"}], "top level must be a JSON object"),
    ({"beam": {"frequency_hz": "x"}}, "frequency_hz must be a finite number > 0, got 'x'"),
    ({"beam": {"frequency_hz": None}}, "frequency_hz must be a finite number > 0, got None"),
    ({"beam": {"frequency_hz": float("nan")}}, "frequency_hz must be a finite number > 0"),
    ({"beam": {"edge_attenuation_db": float("inf")}}, "edge_attenuation_db must be a finite"),
    ({"beam": {"antenna_diameter_m": True}}, "antenna_diameter_m must be a finite number"),
    ({"beam": {"antenna_diameter_m": 0}}, "antenna_diameter_m must be a finite number"),
    # the altitude cancels out of the model: no beam key sets it
    ({"beam": {"satellite_altitude_m": 1000.0}}, "unknown beam keys ['satellite_altitude_m']"),
    ({"scenario": {"strategies": "AB"}}, "strategies must be a nonempty list of distinct"),
], ids=["scenario-5", "scenario-null", "beam-string", "pair-list", "grid-null", "top-list",
        "beam-frequency-string", "beam-frequency-null", "beam-frequency-nan",
        "beam-edge-inf", "beam-diameter-true", "beam-diameter-0", "beam-altitude",
        "scenario-strategies-string"])
@pytest.mark.parametrize("command", [
    ["simulate"], ["rates", "pair", "--snr1", "7", "--snr2", "10"],
], ids=["simulate", "rates-pair"])
def test_malformed_config_exit_2(config, message, command, tmp_path, capsys):
    # every subcommand reads the whole config, so each rejects it
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    code, _, err = run_cli(["--out-dir", str(out), "--config", str(path), *command], capsys)
    assert code == 2
    assert err.startswith("error: ") and err.count("error:") == 1 and message in err
    assert not out.exists()


def test_every_preset_builds_scenario_and_beam():
    configs = resources.files("hmts.data.configs")
    presets = [ref.name for ref in configs.iterdir() if ref.name.endswith(".json")]
    assert len(presets) >= 4
    for preset in presets:
        args = argparse.Namespace(config=preset)
        resolve_settings(args)
        assert isinstance(args.scenario, ScenarioConfig) and args.scenario.seed == args.seed
        assert args.beam == BeamConfig()  # no preset sets the antenna


@pytest.mark.parametrize("argv, config", [
    (["rates", "grid", "--min", "nan"], None),
    (["rates", "grid", "--step", "nan"], None),
    (["rates", "pair", "--snr1", "nan", "--snr2", "10"], None),
    (["rates", "pair", "--snr1", "inf", "--snr2", "10"], None),
    (["rates", "grid", "--min", "5", "--max", "4"], None),
    (["rates", "grid", "--min", "0", "--max", "1e300", "--step", "1e-300"], None),
    (["rates", "grid", "--min=-1e308", "--max=1e308", "--step", "1"], None),
    (["thresholds", "estimate", "--rho", "0.8", "--rates", "abc"], None),
    (["thresholds", "estimate", "--rho", "0.8", "--rates", "1/0"], None),
    (["pairing", "--strategy", "C", "--seed", "-1", "--snrs", "1,2,3,4"], None),
    (["rates", "pair"], {"pair": {"snr1": "7", "snr2": 10}}),
    (["rates", "grid"], {"grid": {"step": float("nan")}}),
    (["pairing", "--strategy", "C", "--snrs", "1,2,3,4"], {"seed": True}),
    (["rates", "pair"], {"pair": {"snr1": True, "snr2": 10}}),
    (["rates", "grid"], {"grid": {"snr_max": 10**400}}),
    (["rates", "grid"], {"grid": {"snr_min": -10**308, "snr_max": 10**308, "step": 1}}),
], ids=["grid-min-nan", "grid-step-nan", "pair-snr1-nan", "pair-snr1-inf", "grid-min-above-max",
        "grid-count-overflow", "grid-span-overflow",
        "rates-abc", "rates-1/0", "seed-negative", "config-snr1-string", "config-step-nan",
        "config-seed-true", "config-snr1-true", "config-max-huge-int", "config-int-span-overflow"])
def test_bad_numeric_input_exit_2(argv, config, tmp_path, capsys):
    if config is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        argv = [*argv, "--config", str(path)]
    out = tmp_path / "out"
    code, _, err = run_cli(["--out-dir", str(out), *argv], capsys)
    assert code == 2
    assert err.count("error:") == 1
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["--out-dir", "{out}", "--table", "{missing}", "rates", "pair", "--snr1", "7", "--snr2", "10"],
    ["--out-dir", "{out}", "--config", "{config}", "simulate", "--weather", "{missing}"],
    ["--out-dir", "{file}", "rates", "pair", "--snr1", "7", "--snr2", "10"],
], ids=["missing-table", "missing-weather", "out-dir-is-a-file"])
def test_unusable_path_exit_2(argv, tmp_path, capsys):
    paths = {
        "out": str(tmp_path / "out"),
        "missing": str(tmp_path / "nofile.csv"),
        "config": str(write_tiny_config(tmp_path / "cfg.json")),
        "file": str(tmp_path / "a_file"),
    }
    (tmp_path / "a_file").write_text("")
    code, _, err = run_cli([a.format(**paths) for a in argv], capsys)
    assert code == 2
    assert err.startswith("error: ") and err.count("error:") == 1
    assert not (tmp_path / "out").exists()
    assert (tmp_path / "a_file").read_text() == ""


def test_nonfinite_weather_exit_2(tmp_path, capsys):
    weather = tmp_path / "weather.csv"
    weather.write_text("attenuation_db,cumulative_probability\n0,0.5\ninf,1.0\n")
    out = tmp_path / "out"
    cfg = write_tiny_config(tmp_path / "cfg.json")
    code, _, err = run_cli(
        ["--out-dir", str(out), "--config", str(cfg), "simulate", "--weather", str(weather)], capsys
    )
    assert code == 2
    assert err == f"error: {weather}: line 3: attenuation_db must be finite, got inf\n"
    assert not out.exists()


@pytest.mark.parametrize("key", ["out_dir", "thresholds_path", "weather_path"])
def test_non_string_path_setting_exit_2(key, tmp_path, capsys):
    cfg = write_tiny_config(tmp_path / "cfg.json", **{key: 5})
    out = tmp_path / "out"
    argv = ["--config", str(cfg), "rates", "pair", "--snr1", "7", "--snr2", "10"]
    if key != "out_dir":
        argv = ["--out-dir", str(out), *argv]
    code, _, err = run_cli(argv, capsys)
    assert code == 2
    assert err.startswith("error: ") and err.count("error:") == 1
    assert key in err
    assert not out.exists()
