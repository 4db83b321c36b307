"""CLI behavior: artifacts, error paths, exit codes, rerun determinism."""

import json
import subprocess
import sys

import numpy as np
import pytest

import hes_regkit.offline as offline
from hes_regkit.cli import main
from hes_regkit.config import load_config, resolve_archive
from hes_regkit.controller import load_trace_csv
from hes_regkit.reports import read_csv

BASE = """\
[hes]
gen_p_max = 3.0
load_p_max = 3.0
batt_p_max = 5.0
batt_energy_capacity = 5.0
batt_eta_c = 0.95
batt_eta_d = 0.95
batt_soc_min = 0.1
batt_soc_max = 0.9
batt_soc_init = 0.5
dt_seconds = 2.0

[market]
lambda_c = 40.0
lambda_m = 10.0
x_p_min = 0.75
gamma = 0.9
c_max = 20.0

[sweep]
c_lo = 1.0
c_hi = 20.0
coarse_step = 0.25
refine_tol = 0.01

[signal]
synth_kind = energy-neutral-random
synth_n = 240
synth_windows = 5
window_len = 240

[run]
out_dir = out
seed = 11
"""


@pytest.fixture
def config_path(tmp_path):
    p = tmp_path / "exp.ini"
    p.write_text(BASE)
    return p


def run(args):
    return main([str(a) for a in args])


class TestCharacterize:
    def test_artifacts(self, config_path, tmp_path):
        out = tmp_path / "o"
        assert run(["characterize", "--config", config_path, "--out", out]) == 0
        header, rows, _ = read_csv(out / "window_stats.csv")
        assert header == ["window", "w", "w_inf", "mileage"]
        assert len(rows) == 5
        for row in rows:
            assert abs(float(row[1])) <= float(row[2]) + 1e-15  # |w| <= w_inf
        report = json.loads((out / "characterize.json").read_text())
        assert report["experiment"] == "characterize"
        assert report["n_windows"] == 5
        assert "inputs_digest" in report
        hh, hrows, _ = read_csv(out / "histograms.csv")
        mass = sum(int(r[3]) for r in hrows if r[0] == "w")
        assert mass == 5


class TestDispatch:
    def test_both_modes_write_traces_and_reports(self, config_path, tmp_path):
        out = tmp_path / "o"
        assert (
            run(
                ["dispatch", "--config", config_path, "--capacity", 10, "--mode",
                 "both", "--window", 2, "--out", out]
            )
            == 0
        )
        rt_trace, r, c = load_trace_csv(out / "trace_rt.csv")
        assert c == 10.0
        assert rt_trace.n_steps == 240
        off_trace, _, _ = load_trace_csv(out / "trace_offline.csv")
        assert off_trace.n_steps == 240
        bench = json.loads((out / "benchmark.json").read_text())
        assert bench["hypothesis_held"] is True
        assert abs(bench["gap"]) <= 1e-6 * max(1.0, bench["j_off"])
        perf = json.loads((out / "performance_rt.json").read_text())
        assert perf["performance"]["x_p"] <= 1.0
        offp = json.loads((out / "performance_offline.json").read_text())
        assert offp["solver_path"] in ("lp", "lp-with-repair")

    def test_both_modes_solve_each_lp_once(self, config_path, tmp_path, monkeypatch):
        calls = []
        real_linprog = offline.linprog

        def counting_linprog(*args, **kwargs):
            calls.append(1)
            return real_linprog(*args, **kwargs)

        monkeypatch.setattr(offline, "linprog", counting_linprog)
        out = tmp_path / "o"
        argv = ["dispatch", "--config", config_path, "--capacity", 10, "--mode",
                "both", "--window", 2, "--out", out]
        assert run(argv) == 0
        assert len(calls) == 1
        bench = json.loads((out / "benchmark.json").read_text())
        cfg = load_config(config_path)
        sig = resolve_archive(cfg).windows[2]
        expected = offline.benchmark_controller(cfg.hes, 10.0, sig).to_dict()
        assert {k: bench[k] for k in expected} == expected

    def test_missing_capacity(self, config_path, capsys):
        assert run(["dispatch", "--config", config_path]) == 1
        assert "--capacity" in capsys.readouterr().err

    def test_nonpositive_capacity(self, config_path, capsys):
        assert run(["dispatch", "--config", config_path, "--capacity", -2]) == 1
        assert "capacity" in capsys.readouterr().err

    def test_window_out_of_range(self, config_path, capsys):
        assert (
            run(["dispatch", "--config", config_path, "--capacity", 5, "--window", 99])
            == 1
        )
        assert "out of range" in capsys.readouterr().err

    def test_offline_budget_guard(self, tmp_path, capsys):
        big = BASE.replace("synth_n = 240", "synth_n = 20002").replace(
            "window_len = 240", "window_len = 20002"
        )
        p = tmp_path / "big.ini"
        p.write_text(big)
        assert run(["dispatch", "--config", p, "--capacity", 5, "--mode", "offline"]) == 1
        assert "downsample" in capsys.readouterr().err

    def test_rt_only_skips_offline_artifacts(self, config_path, tmp_path):
        out = tmp_path / "o"
        assert (
            run(["dispatch", "--config", config_path, "--capacity", 8, "--mode", "rt",
                 "--out", out])
            == 0
        )
        assert (out / "trace_rt.csv").exists()
        assert not (out / "trace_offline.csv").exists()
        assert not (out / "benchmark.json").exists()


class TestBid:
    def test_artifacts_and_invariants(self, config_path, tmp_path):
        out = tmp_path / "o"
        assert run(["bid", "--config", config_path, "--out", out]) == 0
        header, rows, _ = read_csv(out / "bid_curve.csv")
        assert header == ["c", "mean_xp", "z_gamma", "prob_compliant", "objective"]
        report = json.loads((out / "bid_solution.json").read_text())
        assert report["c_star"] == min(report["c_hat"], 20.0)
        assert report["c_bar"] >= report["c_hat"]
        zs = {row[0]: float(row[2]) for row in rows}
        assert min(float(c) for c in zs) >= 1.0

    def test_single_window_rejected(self, tmp_path, capsys):
        p = tmp_path / "one.ini"
        p.write_text(BASE.replace("synth_windows = 5", "synth_windows = 1"))
        assert run(["bid", "--config", p]) == 1
        assert "2 windows" in capsys.readouterr().err


class TestAsymSweep:
    def test_results_and_knees(self, config_path, tmp_path):
        out = tmp_path / "o"
        assert (
            run(["asym-sweep", "--config", config_path, "--vary", "gen", "--values",
                 "0,3", "--out", out])
            == 0
        )
        report = json.loads((out / "asym_sweep.json").read_text())
        assert [r["value"] for r in report["results"]] == [0.0, 3.0]
        assert report["results"][0]["knee_low"] == 5.0  # min(0,3)+5
        assert report["results"][0]["knee_high"] == 8.0
        assert report["results"][1]["knee_low"] == 8.0
        assert (out / "curve_gen_0.csv").exists()
        assert (out / "curve_gen_3.csv").exists()
        header, rows, _ = read_csv(out / "asym_sweep.csv")
        assert len(rows) == 2
        # more generator headroom never hurts the bid
        assert float(rows[1][1]) >= float(rows[0][1]) - 1e-9

    def test_empty_values_is_empty_sweep(self, config_path, tmp_path):
        out = tmp_path / "o"
        assert (
            run(["asym-sweep", "--config", config_path, "--vary", "load", "--values",
                 "", "--out", out])
            == 0
        )
        report = json.loads((out / "asym_sweep.json").read_text())
        assert report["results"] == []

    def test_bad_values_rejected(self, config_path, capsys):
        assert (
            run(["asym-sweep", "--config", config_path, "--vary", "gen", "--values",
                 "1,two"])
            == 1
        )
        assert "--values" in capsys.readouterr().err


class TestSocDrift:
    def test_fixed_capacity_summaries(self, config_path, tmp_path):
        out = tmp_path / "o"
        assert (
            run(["soc-drift", "--config", config_path, "--capacity", 8, "--out", out])
            == 0
        )
        report = json.loads((out / "soc_drift.json").read_text())
        case = report["cases"][0]
        assert case["capacity"] == 8.0
        assert case["windows"] == 5
        header, rows, _ = read_csv(out / "soc_windows_base.csv")
        assert len(rows) == 5
        for row in rows:
            assert 0.1 <= float(row[2]) and float(row[3]) <= 0.9

    def test_varied_cases(self, config_path, tmp_path):
        out = tmp_path / "o"
        assert (
            run(["soc-drift", "--config", config_path, "--vary", "gen", "--values",
                 "0,3", "--capacity", 6, "--out", out])
            == 0
        )
        report = json.loads((out / "soc_drift.json").read_text())
        assert [c["case"] for c in report["cases"]] == ["gen_0", "gen_3"]
        assert (out / "soc_windows_gen_0.csv").exists()


class TestSynth:
    def test_reloadable_archive(self, config_path, tmp_path):
        from hes_regkit import load_archive

        out = tmp_path / "o"
        assert run(["synth", "--config", config_path, "--out", out]) == 0
        arch = load_archive(out / "signal.csv", window_len=240, dt=2 / 3600)
        assert arch.n_windows == 5
        report = json.loads((out / "synth.json").read_text())
        assert report["n_windows"] == 5
        assert len(report["per_window"]) == 5

    def test_requires_synth_source(self, tmp_path, capsys):
        import numpy as np
        from hes_regkit import save_signal

        save_signal(tmp_path / "d.csv", np.zeros(480) + 0.1)
        text = BASE.replace(
            "synth_kind = energy-neutral-random\nsynth_n = 240\nsynth_windows = 5\n",
            f"archive = {tmp_path / 'd.csv'}\n",
        )
        p = tmp_path / "a.ini"
        p.write_text(text)
        assert run(["synth", "--config", p]) == 1
        assert "synth" in capsys.readouterr().err

    def test_too_short_window_rejected(self, tmp_path, capsys):
        p = tmp_path / "short.ini"
        p.write_text(BASE.replace("synth_n = 240", "synth_n = 1"))
        assert run(["synth", "--config", p]) == 1
        assert "n >= 2" in capsys.readouterr().err


class TestPlumbing:
    def test_print_schema(self, capsys):
        assert main(["--print-schema"]) == 0
        assert "[market]" in capsys.readouterr().out

    def test_no_command(self, capsys):
        assert main([]) == 2
        assert "subcommand" in capsys.readouterr().err

    def test_bad_config_path(self, capsys):
        assert run(["bid", "--config", "/does/not/exist.ini"]) == 1
        assert "not found" in capsys.readouterr().err

    def test_usage_error_exits_two(self):
        proc = subprocess.run(
            [sys.executable, "-m", "hes_regkit.cli", "dispatch"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert "--config" in proc.stderr

    def test_seed_override_changes_synthetic_data(self, config_path, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        run(["synth", "--config", config_path, "--out", out_a])
        run(["synth", "--config", config_path, "--out", out_b, "--seed", "99"])
        assert (out_a / "signal.csv").read_bytes() != (out_b / "signal.csv").read_bytes()

    def test_stdout_stays_quiet(self, config_path, tmp_path, capsys):
        run(["characterize", "--config", config_path, "--out", tmp_path / "o"])
        captured = capsys.readouterr()
        assert captured.out == ""
