"""CLI behavior: artifacts, error paths, exit codes, rerun determinism."""

import dataclasses
import json
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import hes_regkit.offline as offline
from hes_regkit.bidding import BracketError
from hes_regkit.cli import _build_parser, main
from hes_regkit.config import ConfigError, load_config, resolve_archive
from hes_regkit.controller import load_trace_csv, rt_dispatch_batch, validate_trace
from hes_regkit.reports import read_csv, write_csv
from hes_regkit.signals import SignalError, save_signal
from helpers import subprocess_env

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


# z_gamma(14) clears x_p_min at load_p_max 3 but not at 0
NARROW_SWEEP = BASE.replace("c_hi = 20.0", "c_hi = 14.0")

# 242 SoC points per window; at --capacity 8 some windows reach a SoC bound
DRIFTING = (
    BASE.replace("batt_energy_capacity = 5.0", "batt_energy_capacity = 0.2")
    .replace("synth_kind = energy-neutral-random",
             "synth_kind = drifting\nsynth_bias = 0.1\nsynth_noise = 0.9")
    .replace("synth_n = 240", "synth_n = 241")
    .replace("window_len = 240", "window_len = 241")
    .replace("synth_windows = 5", "synth_windows = 8")
)

# one 60-step window at 3-minute steps whose LP repair fails at --capacity
# 12.21, so the offline route ends in the grid oracle
DP_ROUTE = (
    BASE.replace("dt_seconds = 2.0", "dt_hours = 0.05")
    .replace("synth_kind = energy-neutral-random",
             "synth_kind = drifting\nsynth_bias = -0.7\nsynth_noise = 0.3")
    .replace("synth_n = 240", "synth_n = 60")
    .replace("window_len = 240", "window_len = 60")
    .replace("synth_windows = 5", "synth_windows = 1")
    .replace("seed = 11", "seed = 20260814")
)


# one two-hour window of charging drift (seed 0) that pins the SoC ceiling
ABSORBING_SIGNAL = """\
synth_kind = drifting
synth_bias = -0.5
synth_noise = 0.8
synth_n = 3600
synth_windows = 1

"""


@pytest.fixture
def config_path(tmp_path):
    p = tmp_path / "exp.ini"
    p.write_text(BASE)
    return p


def run(args):
    return main([str(a) for a in args])


def outputs(out) -> dict:
    """Every file a run wrote, by name, as bytes."""
    return {f.name: f.read_bytes() for f in out.iterdir()}


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

    def test_both_modes_refuse_disagreeing_objectives(
        self, config_path, tmp_path, capsys, monkeypatch
    ):
        # the window stays interior, so the rule must match the offline
        # optimum; an offline objective 1 MW off raises EquivalenceError
        real = offline.offline_dispatch

        def perturbed(*args):
            sol = real(*args)
            return dataclasses.replace(sol, objective=sol.objective + 1.0)

        monkeypatch.setattr("hes_regkit.cli.offline_dispatch", perturbed)
        out = tmp_path / "o"
        argv = ["dispatch", "--config", config_path, "--capacity", 10, "--mode",
                "both", "--window", 2, "--out", out]
        assert run(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: rule-based objective ")
        assert err[0].endswith(" disagree although SoC stayed interior")
        assert not out.exists()

    def test_missing_capacity(self, config_path, capsys):
        assert run(["dispatch", "--config", config_path]) == 1
        assert "--capacity" in capsys.readouterr().err

    def test_nonpositive_capacity(self, config_path, capsys):
        assert run(["dispatch", "--config", config_path, "--capacity", -2]) == 1
        assert "capacity" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_capacity_writes_nothing(self, config_path, tmp_path, capsys, value):
        out = tmp_path / "o"
        argv = ["dispatch", "--config", config_path, "--capacity", value, "--mode", "rt",
                "--out", out]
        assert run(argv) == 1
        assert "--capacity must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_window_out_of_range(self, config_path, capsys):
        assert (
            run(["dispatch", "--config", config_path, "--capacity", 5, "--window", 99])
            == 1
        )
        assert "out of range" in capsys.readouterr().err

    def test_long_absorbing_window_benchmarked(self, tmp_path):
        # symmetric.ini's fleet on two hours of charging drift at c = 12: the
        # offline route ends in the grid oracle, which answers
        text = (Path(__file__).resolve().parents[1] / "profiles" / "symmetric.ini").read_text()
        text = re.sub(r"(?ms)^\[signal\].*?(?=^\[)", "[signal]\n" + ABSORBING_SIGNAL, text)
        p = tmp_path / "absorbing.ini"
        p.write_text(text.replace("seed = 2026", "seed = 0"))
        out = tmp_path / "o"
        assert run(["dispatch", "--config", p, "--capacity", 12, "--mode", "both",
                    "--out", out]) == 0
        bench = json.loads((out / "benchmark.json").read_text())
        offp = json.loads((out / "performance_offline.json").read_text())
        assert bench["solver_path"] == offp["solver_path"] == "dp"
        assert offp["lp_bound"] <= bench["j_off"] <= bench["j_on"]
        trace, _, _ = load_trace_csv(out / "trace_offline.csv")
        assert trace.n_steps == 3600
        assert validate_trace(load_config(p).hes, trace) == []

    @pytest.mark.parametrize(
        "change, message",
        [("capacity", "tracking LP failed"), ("steps", "downsample")],
    )
    def test_offline_failure_writes_nothing(self, change, message, tmp_path, capsys):
        # the rule runs clean in both cases; the offline solve fails after it
        text, capacity = BASE, 5
        if change == "capacity":
            capacity = 1e20  # accepted, but HiGHS refuses the model
        else:
            n = offline.STEP_LIMIT + 1
            text = BASE.replace("synth_n = 240", f"synth_n = {n}").replace(
                "window_len = 240", f"window_len = {n}")
        p = tmp_path / "exp.ini"
        p.write_text(text)
        out = tmp_path / "o"
        assert run(["dispatch", "--config", p, "--capacity", capacity, "--mode", "both",
                    "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not out.exists()

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

    def test_refine_tol_below_float_spacing_refused(self, tmp_path, capsys):
        # at 1e-17 a bisection midpoint rounds onto its bracket's end: no end
        p = tmp_path / "fine.ini"
        p.write_text(BASE.replace("refine_tol = 0.01", "refine_tol = 1e-17"))
        out = tmp_path / "o"
        assert run(["bid", "--config", p, "--out", out]) == 1
        assert "error: refine_tol must be >= " in capsys.readouterr().err
        assert not out.exists()

    def test_coarse_step_over_point_limit_refused(self, tmp_path, capsys):
        # the grid once reached numpy, which asked for 1.35 PiB
        p = tmp_path / "fine.ini"
        p.write_text(BASE.replace("coarse_step = 0.25", "coarse_step = 1e-13"))
        out = tmp_path / "o"
        assert run(["bid", "--config", p, "--out", out]) == 1
        assert "error: coarse_step must be >= 0.00019" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "line, bad, message",
        [
            ("load_p_max = 3.0", "load_p_max = nan", "load p_max must be finite, got nan"),
            ("dt_seconds = 2.0", "dt_seconds = nan", "dt must be finite, got nan"),
            ("lambda_c = 40.0", "lambda_c = inf", "lambda_c must be finite, got inf"),
        ],
    )
    def test_non_finite_parameter_refused(self, tmp_path, capsys, line, bad, message):
        # a NaN load limit once gave a NaN quantile that counted as compliant
        p = tmp_path / "nan.ini"
        p.write_text(BASE.replace(line, bad))
        out = tmp_path / "o"
        assert run(["bid", "--config", p, "--out", out]) == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_undecodable_archive_file_named(self, tmp_path, capsys):
        data = tmp_path / "data"
        data.mkdir()
        save_signal(data / "a.csv", np.zeros(480) + 0.1)
        (data / "b.csv").write_bytes(b"timestamp,r\n0,0.5\n1,\xff\n")
        p = tmp_path / "a.ini"
        p.write_text(BASE.replace(
            "synth_kind = energy-neutral-random\nsynth_n = 240\nsynth_windows = 5\n",
            f"archive = {data}\n",
        ))
        out = tmp_path / "o"
        assert run(["bid", "--config", p, "--out", out]) == 1
        assert f"error: {data / 'b.csv'}: not UTF-8 at byte 20" in capsys.readouterr().err
        assert not out.exists()


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

    @pytest.mark.parametrize("values", ["", " , "], ids=["empty", "commas-only"])
    def test_values_with_no_number_refused(self, config_path, tmp_path, capsys, values):
        out = tmp_path / "o"
        assert run(["asym-sweep", "--config", config_path, "--vary", "load", "--values",
                    values, "--out", out]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: --values needs at least one number, got {values!r}"
        ]
        assert not out.exists()

    def test_single_window_refused_before_any_write(self, tmp_path, capsys):
        p = tmp_path / "one.ini"
        p.write_text(BASE.replace("synth_windows = 5", "synth_windows = 1"))
        out = tmp_path / "o"
        assert run(["asym-sweep", "--config", p, "--vary", "gen", "--values", "0,8",
                    "--out", out]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: bid selection needs >= 2 windows, archive has 1"
        ]
        assert not out.exists()

    def test_bad_values_rejected(self, config_path, capsys):
        assert (
            run(["asym-sweep", "--config", config_path, "--vary", "gen", "--values",
                 "1,two"])
            == 1
        )
        assert "--values" in capsys.readouterr().err

    @pytest.mark.parametrize("values", ["0,inf", "8,-1", "nan", "3,-inf"])
    def test_out_of_range_values_refused_before_any_work(
        self, config_path, tmp_path, capsys, values
    ):
        out = tmp_path / "o"
        assert run(["asym-sweep", "--config", config_path, "--vary", "gen", "--values",
                    values, "--out", out]) == 1
        assert "--values entries must be finite and >= 0" in capsys.readouterr().err
        assert not out.exists()

    def test_bracket_error_names_the_value(self, tmp_path, capsys):
        p = tmp_path / "exp.ini"
        p.write_text(NARROW_SWEEP)
        assert run(["asym-sweep", "--config", p, "--vary", "load", "--values", "0,3",
                    "--out", tmp_path / "o"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: load=3: z_gamma(14) = ")
        assert err.rstrip().endswith("still clears x_p_min = 0.75; raise c_hi")

    @pytest.mark.parametrize(
        "values, named",
        [
            ("8,8.0000001", "8.0 and 8.0000001 both name files '8'"),
            ("3,3", "3.0 and 3.0 both name files '3'"),
            ("0,1e-7,0.0", "0.0 and 0.0 both name files '0'"),
        ],
    )
    def test_values_sharing_a_file_label_refused_before_any_work(
        self, config_path, tmp_path, capsys, values, named
    ):
        # curve_gen_<value %g>.csv: two such values would write one file
        out = tmp_path / "o"
        assert run(["asym-sweep", "--config", config_path, "--vary", "gen", "--values",
                    values, "--out", out]) == 1
        assert f"--values {named}" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_zero_is_zero(self, config_path, tmp_path, capsys):
        # -0 names the files 0 names, so the two are one value
        out = tmp_path / "o"
        assert run(["asym-sweep", "--config", config_path, "--vary", "gen", "--values",
                    "0,-0", "--out", out]) == 1
        assert "--values 0.0 and 0.0 both name files '0'" in capsys.readouterr().err
        assert not out.exists()
        for value in ("0", "-0"):
            assert run(["asym-sweep", "--config", config_path, "--vary", "gen", "--values",
                        value, "--out", tmp_path / value]) == 0
        assert outputs(tmp_path / "-0") == outputs(tmp_path / "0")
        assert sorted(outputs(tmp_path / "0")) == [
            "asym_sweep.csv", "asym_sweep.json", "curve_gen_0.csv"
        ]

    def test_bracket_error_keeps_every_finished_value(self, tmp_path, capsys):
        p = tmp_path / "exp.ini"
        p.write_text(NARROW_SWEEP)
        out = tmp_path / "o"
        # the failing value first: the values after it still run
        assert run(["asym-sweep", "--config", p, "--vary", "load", "--values", "3,0",
                    "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: load=3: z_gamma(14) = ") and err.count("\n") == 1
        report = json.loads((out / "asym_sweep.json").read_text())
        assert report["values"] == [3.0, 0.0]
        assert [r["value"] for r in report["results"]] == [0.0]
        assert report["failed"] == [{"value": 3.0, "error": err[len("error: "):].rstrip()}]
        _, rows, _ = read_csv(out / "asym_sweep.csv")
        assert [row[0] for row in rows] == ["0"]
        assert sorted(outputs(out)) == ["asym_sweep.csv", "asym_sweep.json", "curve_load_0.csv"]
        # a sweep where every value finishes has no failed list
        assert run(["asym-sweep", "--config", p, "--vary", "load", "--values", "0",
                    "--out", tmp_path / "ok"]) == 0
        ok = json.loads((tmp_path / "ok" / "asym_sweep.json").read_text())
        assert "failed" not in ok
        assert ok["results"] == report["results"]


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

    def test_non_finite_capacity_writes_nothing(self, config_path, tmp_path, capsys):
        out = tmp_path / "o"
        assert run(["soc-drift", "--config", config_path, "--capacity", "nan",
                    "--out", out]) == 1
        assert "--capacity must be finite" in capsys.readouterr().err
        assert not out.exists()

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

    def test_values_without_vary_refused(self, config_path, tmp_path, capsys):
        out = tmp_path / "o"
        assert run(["soc-drift", "--config", config_path, "--values", "1,2",
                    "--capacity", 6, "--out", out]) == 1
        assert "--values needs --vary" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_value_refused_before_any_work(self, config_path, tmp_path, capsys):
        out = tmp_path / "o"
        assert run(["soc-drift", "--config", config_path, "--vary", "load", "--values",
                    "2,-1", "--capacity", 6, "--out", out]) == 1
        assert "--values" in capsys.readouterr().err
        assert not out.exists()

    def test_vary_without_values_refused(self, config_path, tmp_path, capsys):
        out = tmp_path / "o"
        assert run(["soc-drift", "--config", config_path, "--vary", "gen",
                    "--capacity", 6, "--out", out]) == 1
        assert "soc-drift --vary needs --values" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("vary", [[], ["--vary", "gen"]], ids=["no-vary", "vary"])
    def test_values_with_no_number_refused(self, config_path, tmp_path, capsys, vary):
        # not read as "no --values": without --vary that ran the base case
        out = tmp_path / "o"
        assert run(["soc-drift", "--config", config_path, *vary, "--values", "",
                    "--capacity", 6, "--out", out]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: --values needs at least one number, got ''"
        ]
        assert not out.exists()

    def test_single_window_needs_a_capacity(self, tmp_path, capsys):
        # with no --capacity the bid is selected, which needs two windows
        p = tmp_path / "one.ini"
        p.write_text(BASE.replace("synth_windows = 5", "synth_windows = 1"))
        out = tmp_path / "o"
        assert run(["soc-drift", "--config", p, "--out", out]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: bid selection needs >= 2 windows, archive has 1"
        ]
        assert not out.exists()
        assert run(["soc-drift", "--config", p, "--capacity", 12, "--out", out]) == 0
        assert json.loads((out / "soc_drift.json").read_text())["cases"][0]["windows"] == 1

    def test_bracket_error_names_the_value(self, tmp_path, capsys):
        p = tmp_path / "exp.ini"
        p.write_text(NARROW_SWEEP)
        assert run(["soc-drift", "--config", p, "--vary", "load", "--values", "0,3",
                    "--out", tmp_path / "o"]) == 1
        assert capsys.readouterr().err.startswith("error: load=3: z_gamma(14) = ")
        # the unvaried case has no value to name
        assert run(["soc-drift", "--config", p, "--out", tmp_path / "o"]) == 1
        assert capsys.readouterr().err.startswith("error: z_gamma(14) = ")

    def test_summaries_match_window_by_window(self, tmp_path):
        p = tmp_path / "exp.ini"
        p.write_text(DRIFTING)
        out = tmp_path / "o"
        assert run(["soc-drift", "--config", p, "--capacity", 8, "--out", out]) == 0
        cfg = load_config(p)
        archive = resolve_archive(cfg)
        batt = cfg.hes.batt
        batch = rt_dispatch_batch(cfg.hes, 8.0, archive.samples, archive.dt)
        assert batch.soc.shape[1] % 2 == 0  # the median averages two points
        # the summaries one window at a time, as they were first written
        rows, finals = [], []
        for i, soc in enumerate(batch.soc):
            at_floor = soc <= batt.soc_min + 1e-9
            at_ceiling = soc >= batt.soc_max - 1e-9
            hit = bool(np.any(at_floor) or np.any(at_ceiling))
            hit_idx = np.flatnonzero(at_floor | at_ceiling)
            finals.append(float(soc[-1]))
            rows.append([i, float(np.median(soc)), float(soc.min()), float(soc.max()),
                         float(soc[-1]), hit, int(hit_idx[0]) if hit else -1])
        assert 0 < sum(row[5] for row in rows) < len(rows)
        expected = write_csv(
            tmp_path / "expected.csv",
            ["window", "soc_median", "soc_min", "soc_max", "soc_final", "hit_bound",
             "first_hit"],
            rows,
        )
        assert (out / "soc_windows_base.csv").read_bytes() == expected.read_bytes()
        case = json.loads((out / "soc_drift.json").read_text())["cases"][0]
        assert case["windows_hitting_bounds"] == sum(row[5] for row in rows)
        assert case["mean_final_soc"] == float(np.mean(finals))
        assert case["min_final_soc"] == float(np.min(finals))
        assert case["max_final_soc"] == float(np.max(finals))

    def test_values_sharing_a_file_label_refused_before_any_work(
        self, config_path, tmp_path, capsys
    ):
        # soc_windows_load_<value %g>.csv: both values would write one file
        out = tmp_path / "o"
        assert run(["soc-drift", "--config", config_path, "--vary", "load", "--values",
                    "2,2.0000001", "--capacity", 6, "--out", out]) == 1
        assert "--values 2.0 and 2.0000001 both name files '2'" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_zero_is_zero(self, config_path, tmp_path, capsys):
        out = tmp_path / "o"
        assert run(["soc-drift", "--config", config_path, "--vary", "load", "--values",
                    "0,-0", "--capacity", 6, "--out", out]) == 1
        assert "--values 0.0 and 0.0 both name files '0'" in capsys.readouterr().err
        assert not out.exists()
        for value in ("0", "-0"):
            assert run(["soc-drift", "--config", config_path, "--vary", "load", "--values",
                        value, "--capacity", 6, "--out", tmp_path / value]) == 0
        assert outputs(tmp_path / "-0") == outputs(tmp_path / "0")
        assert sorted(outputs(tmp_path / "0")) == ["soc_drift.json", "soc_windows_load_0.csv"]

    def test_bracket_error_keeps_every_finished_value(self, tmp_path, capsys):
        p = tmp_path / "exp.ini"
        p.write_text(NARROW_SWEEP)
        out = tmp_path / "o"
        assert run(["soc-drift", "--config", p, "--vary", "load", "--values", "3,0",
                    "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: load=3: z_gamma(14) = ") and err.count("\n") == 1
        report = json.loads((out / "soc_drift.json").read_text())
        assert [c["case"] for c in report["cases"]] == ["load_0"]
        assert report["failed"] == [{"value": 3.0, "error": err[len("error: "):].rstrip()}]
        assert sorted(outputs(out)) == ["soc_drift.json", "soc_windows_load_0.csv"]
        assert run(["soc-drift", "--config", p, "--vary", "load", "--values", "0",
                    "--out", tmp_path / "ok"]) == 0
        ok = json.loads((tmp_path / "ok" / "soc_drift.json").read_text())
        assert "failed" not in ok
        assert ok["cases"] == report["cases"]


# per MW, no output of BASE's 240-step windows exceeds max(240, lambda_c +
# lambda_m * 2 * 239) in magnitude; --capacity keeps that within half the
# largest float
CAPACITY_LIMIT = sys.float_info.max / 2.0 / (40.0 + 10.0 * 2.0 * 239)


@pytest.mark.parametrize(
    "command", [["dispatch", "--mode", "rt"], ["soc-drift"]], ids=["dispatch", "soc-drift"]
)
def test_capacity_limit_refuses_overflow_and_nothing_below(command, config_path, tmp_path,
                                                          capsys):
    above = float(np.nextafter(CAPACITY_LIMIT, np.inf))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = tmp_path / "refused"
        assert run([*command, "--config", config_path, "--capacity", above,
                    "--out", out]) == 1
        assert capsys.readouterr().err == (
            f"error: --capacity must be <= {CAPACITY_LIMIT!r} MW on 240-step windows "
            f"at these prices, got {above!r}\n"
        )
        assert not out.exists()
        out = tmp_path / "accepted"
        assert run([*command, "--config", config_path, "--capacity", CAPACITY_LIMIT,
                    "--out", out]) == 0
    assert capsys.readouterr().err == ""
    for path in out.glob("*.json"):
        json.loads(path.read_text(), parse_constant=lambda name: pytest.fail(name))
    if command[0] == "dispatch":
        perf = json.loads((out / "performance_rt.json").read_text())["performance"]
        # the error sum is near C * sum|r|, and finite
        assert perf["c"] == CAPACITY_LIMIT and perf["abs_error"] > CAPACITY_LIMIT


def test_sweep_c_hi_limit_refuses_overflow_and_nothing_below(tmp_path, capsys):
    # the sweep scores capacities up to c_hi, so c_hi meets --capacity's limit
    huge = (
        BASE.replace("coarse_step = 0.25", "coarse_step = 1e304")
        .replace("refine_tol = 0.01", "refine_tol = 1e300")
    )
    p = tmp_path / "huge.ini"
    p.write_text(huge.replace("c_hi = 20.0", "c_hi = 1e308"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = tmp_path / "refused"
        assert run(["bid", "--config", p, "--out", out]) == 1
        assert capsys.readouterr().err == (
            f"error: [sweep] c_hi must be <= {CAPACITY_LIMIT!r} MW on 240-step windows "
            "at these prices, got 1e+308\n"
        )
        assert not out.exists()
        p.write_text(huge.replace("c_hi = 20.0", f"c_hi = {CAPACITY_LIMIT!r}"))
        assert load_config(p).sweep.c_hi == CAPACITY_LIMIT
        assert run(["bid", "--config", p, "--out", tmp_path / "accepted"]) == 0
    assert capsys.readouterr().err == ""



@pytest.mark.parametrize(
    "command",
    [["bid"], ["asym-sweep", "--vary", "gen", "--values", "0,3"], ["soc-drift"]],
    ids=["bid", "asym-sweep", "soc-drift"],
)
def test_flat_archive_writes_nothing(command, tmp_path, capsys):
    # no window moves, so the bid fails before the first write
    save_signal(tmp_path / "flat.csv", np.zeros(50))
    p = tmp_path / "flat.ini"
    p.write_text(BASE.replace(
        "synth_kind = energy-neutral-random\nsynth_n = 240\nsynth_windows = 5\n"
        "window_len = 240\n",
        f"archive = {tmp_path / 'flat.csv'}\nwindow_len = 10\n",
    ))
    out = tmp_path / "o"
    assert run([*command, "--config", p, "--out", out]) == 1
    assert capsys.readouterr().err == (
        "error: archive has no window with nonzero command movement\n"
    )
    assert not out.exists()

# tracemalloc peak over the archive's matrix bytes, on synthetic hour-long
# windows. soc-drift: the matrix, the SoC paths the summaries need and one
# step block of the rule; 2.29x measured, 4.17x while a synthetic archive
# kept a stack beside its windows and the stream transposed the whole
# matrix, 9.06x while the batch built every kernel column over it. bid: the
# matrix and expected_revenue's |diff|; 2.22x on 80 windows, 4.12x with the
# kept stack, the transpose and a second |diff| temporary. characterize: the
# matrix; 1.05x. dispatch: the matrix, one window's trace and the LP's
# arrays; 2.22x. asym-sweep: bid's, once per value; 2.08x
@pytest.mark.parametrize(
    "command, n_windows, bound",
    [
        (["soc-drift", "--capacity", 12], 250, 2.5),
        (["bid"], 80, 2.45),
        (["characterize"], 250, 1.3),
        (["dispatch", "--capacity", 12], 250, 2.45),
        (["asym-sweep", "--vary", "load", "--values", "0,3"], 80, 2.3),
    ],
    ids=["soc-drift", "bid", "characterize", "dispatch", "asym-sweep"],
)
def test_traced_peak_within_a_multiple_of_the_matrix(command, n_windows, bound, tmp_path):
    n_steps = 1800
    p = tmp_path / "exp.ini"
    p.write_text(
        BASE.replace("synth_n = 240", f"synth_n = {n_steps}")
        .replace("window_len = 240", f"window_len = {n_steps}")
        .replace("synth_windows = 5", f"synth_windows = {n_windows}")
    )
    tracemalloc.start()
    try:
        assert run([*command, "--config", p, "--out", tmp_path / "o"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * n_windows * n_steps * 8


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


HEADER = {"experiment", "tool_version", "config", "inputs_digest"}
DISPATCH_HEADER = HEADER | {"window", "capacity", "mode"}
PERFORMANCE = {"c", "x_p", "abs_error", "mileage", "revenue"}
OFFLINE = DISPATCH_HEADER | {
    "performance", "solver_path", "complementarity_clean", "objective", "lp_bound"
}


class TestReportKeys:
    """Each JSON record's keys, written out: renaming a result dataclass
    field must fail here before it changes an artifact."""

    def test_dispatch_reports(self, config_path, tmp_path):
        out = tmp_path / "o"
        assert run(["dispatch", "--config", config_path, "--capacity", 10, "--out", out]) == 0
        rt = json.loads((out / "performance_rt.json").read_text())
        assert set(rt) == DISPATCH_HEADER | {"performance"}
        assert set(rt["performance"]) == PERFORMANCE
        off = json.loads((out / "performance_offline.json").read_text())
        assert off["solver_path"] == "lp"
        assert set(off) == OFFLINE
        assert set(off["performance"]) == PERFORMANCE
        bench = json.loads((out / "benchmark.json").read_text())
        assert set(bench) == DISPATCH_HEADER | {
            "c", "j_on", "j_off", "gap", "hypothesis_held", "solver_path"
        }

    def test_offline_report_on_the_dp_route(self, tmp_path):
        p = tmp_path / "exp.ini"
        p.write_text(DP_ROUTE)
        out = tmp_path / "o"
        argv = ["dispatch", "--config", p, "--capacity", 12.21, "--mode", "offline",
                "--out", out]
        assert run(argv) == 0
        off = json.loads((out / "performance_offline.json").read_text())
        assert off["solver_path"] == "dp"
        assert set(off) == OFFLINE | {"dp_value"}
        assert set(off["performance"]) == PERFORMANCE

    def test_bid_solution(self, config_path, tmp_path):
        out = tmp_path / "o"
        assert run(["bid", "--config", config_path, "--out", out]) == 0
        report = json.loads((out / "bid_solution.json").read_text())
        assert set(report) == HEADER | {
            "c_bar", "c_hat", "c_star", "curve", "diagnostics", "revenue"
        }
        assert set(report["diagnostics"]) == {
            "n_windows", "zero_signal_windows", "coarse_points", "refine_iterations",
            "upper_bracket_c", "upper_bracket_z", "z_monotonicity_violations",
        }
        assert isinstance(report["diagnostics"]["z_monotonicity_violations"], list)
        assert set(report["revenue"]) == {"c_star", "mean_xp", "capacity_only", "with_mileage"}
        assert set(report["curve"][0]) == {
            "c", "mean_xp", "std_xp", "z_gamma", "prob_compliant", "objective", "n_scores"
        }

    def test_synth_per_window(self, config_path, tmp_path):
        out = tmp_path / "o"
        assert run(["synth", "--config", config_path, "--out", out]) == 0
        report = json.loads((out / "synth.json").read_text())
        assert [set(s) for s in report["per_window"]] == [{"w", "w_inf", "mileage"}] * 5


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
            env=subprocess_env(),
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

    @pytest.mark.parametrize(
        "command, source, key, value",
        [
            (["bid"], "energy-neutral-random", "noise", "inf"),
            (["bid"], "energy-neutral-random", "bias", "nan"),
            (["bid"], "energy-neutral-random", "amplitude", "-inf"),
            (["characterize"], "energy-neutral-random", "noise", "inf"),
            (["dispatch", "--capacity", 12], "drifting", "noise", "nan"),
        ],
    )
    def test_non_finite_synth_float_refused(self, tmp_path, capsys, command, source, key, value):
        # bid once wrote bid_curve.csv and then failed serializing the config
        # digest; a drifting source once failed naming no key
        text = (Path(__file__).resolve().parents[1] / "profiles" / "symmetric.ini").read_text()
        text = re.sub(r"(?ms)^\[signal\].*?(?=^\[)", f"[signal]\nsynth_kind = {source}\n"
                      f"synth_n = 60\nsynth_windows = 3\nsynth_{key} = {value}\n\n", text)
        p = tmp_path / "bad.ini"
        p.write_text(text)
        out = tmp_path / "o"
        assert run([*command, "--config", p, "--out", out]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: [signal] synth_{key} must be finite, got {value}"
        ]
        assert not out.exists()

    @pytest.mark.parametrize(
        "line, bad, message",
        [
            ("batt_p_max = 5.0", "batt_p_max = 5e-324", "dt * battery p_max = "),
            ("batt_eta_c = 0.95", "batt_eta_c = 5e-324", "battery eta_c * dt * p_max = "),
        ],
    )
    @pytest.mark.parametrize("command", [["dispatch", "--capacity", 5], ["bid"], ["soc-drift"]])
    def test_headroom_product_underflow_refused(self, tmp_path, capsys, command, line, bad, message):
        # the product once reached the rule's headroom as 0, a ZeroDivisionError
        p = tmp_path / "tiny.ini"
        p.write_text(BASE.replace(line, bad))
        out = tmp_path / "o"
        assert run([*command, "--config", p, "--out", out]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {message}")
        assert err[0].endswith(" underflows to 0")
        assert not out.exists()

    @pytest.mark.parametrize("eta_d", ["5e-324", "1e-320"])
    @pytest.mark.parametrize(
        "command", [["dispatch", "--mode", "rt", "--capacity", 4], ["bid"], ["soc-drift"]]
    )
    def test_subnormal_eta_d_refused(self, tmp_path, capsys, command, eta_d):
        # the rule once wrote a trace with SoC far outside its bounds here
        p = tmp_path / "tiny.ini"
        p.write_text(BASE.replace("batt_eta_d = 0.95", f"batt_eta_d = {eta_d}"))
        out = tmp_path / "o"
        assert run([*command, "--config", p, "--out", out]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: battery eta_d must be at least the smallest normal float "
            f"2.2250738585072014e-308, got {eta_d}"
        ]
        assert not out.exists()

    @pytest.mark.parametrize(
        "config, command",
        [
            (config, command)
            for config in ("capacity-5e-324", "eta_d-smallest-normal", "capacity-1e-308-drifting")
            for command in ("dispatch", "soc-drift", "bid")
            if (config, command) != ("capacity-1e-308-drifting", "bid")  # one window: no bid
        ],
    )
    def test_tiny_battery_runs_without_warnings(self, tmp_path, capsys, config, command):
        # a one-step SoC change overflows, or on the drifting window a running
        # sum of finite ones; pytest raises any RuntimeWarning as an error
        text = {
            "capacity-5e-324": BASE.replace(
                "batt_energy_capacity = 5.0", "batt_energy_capacity = 5e-324"
            ),
            "eta_d-smallest-normal": BASE.replace(
                "batt_eta_d = 0.95", "batt_eta_d = 2.2250738585072014e-308"
            ),
            "capacity-1e-308-drifting": DP_ROUTE.replace(
                "batt_energy_capacity = 5.0", "batt_energy_capacity = 1e-308"
            ),
        }[config]
        p = tmp_path / "tiny.ini"
        p.write_text(text)
        out = tmp_path / "o"
        args = ["dispatch", "--mode", "rt", "--capacity", 8] if command == "dispatch" else [command]
        if (config, command) == ("capacity-1e-308-drifting", "soc-drift"):
            args += ["--capacity", 8]  # one window: no bid to select
        assert run([*args, "--config", p, "--out", out]) == 0
        assert capsys.readouterr().err == ""
        if command == "dispatch":
            trace = load_trace_csv(out / "trace_rt.csv")[0]
            assert validate_trace(load_config(p).hes, trace) == []

    @pytest.mark.parametrize(
        "error",
        [ConfigError, SignalError, BracketError, offline.SolverError, offline.BudgetError,
         offline.EquivalenceError, OSError, ValueError],
        ids=lambda e: e.__name__,
    )
    def test_refusal_exits_one_with_one_error_line(
        self, error, config_path, tmp_path, capsys, monkeypatch
    ):
        def refuse(cfg):
            raise error("refused here")

        monkeypatch.setattr("hes_regkit.cli.resolve_archive", refuse)
        out = tmp_path / "o"
        assert run(["bid", "--config", config_path, "--out", out]) == 1
        assert capsys.readouterr().err.splitlines()[-1] == "error: refused here"
        assert not out.exists()

    @pytest.mark.parametrize("error", [TypeError, RuntimeError], ids=lambda e: e.__name__)
    def test_programming_errors_propagate(self, error, config_path, tmp_path, monkeypatch):
        def fail(cfg):
            raise error("a bug")

        monkeypatch.setattr("hes_regkit.cli.resolve_archive", fail)
        with pytest.raises(error, match="a bug"):
            run(["bid", "--config", config_path, "--out", tmp_path / "o"])

    def test_override_flags_reach_the_report(self, tmp_path):
        out = tmp_path / "o"
        profile = Path(__file__).resolve().parents[1] / "profiles" / "symmetric.ini"
        argv = ["bid", "--config", profile, "--out", out,
                "--gamma", "0.8", "--xp-min", "0.7", "--seed", "5"]
        assert run(argv) == 0
        report = json.loads((out / "bid_solution.json").read_text())
        assert report["config"]["market"]["gamma"] == 0.8
        assert report["config"]["market"]["x_p_min"] == 0.7
        assert report["config"]["seed"] == 5
        assert report["c_bar"] == pytest.approx(17.71, abs=0.01)  # 15.75 without them

    def test_bad_override_writes_nothing(self, config_path, tmp_path, capsys):
        out = tmp_path / "o"
        assert run(["bid", "--config", config_path, "--out", out, "--gamma", "2"]) == 1
        assert capsys.readouterr().err.splitlines() == ["error: gamma must be in (0, 1), got 2.0"]
        assert not out.exists()

    def test_negative_seed_writes_nothing(self, config_path, tmp_path, capsys):
        out = tmp_path / "o"
        assert run(["bid", "--config", config_path, "--out", out, "--seed", "-1"]) == 1
        assert capsys.readouterr().err.splitlines() == ["error: [run] seed must be >= 0, got -1"]
        assert not out.exists()

    @pytest.mark.parametrize("source", ["synthetic", "archive"])
    def test_negative_window_offset_writes_nothing(self, source, tmp_path, capsys):
        text = BASE.replace("window_len = 240", "window_len = 240\nwindow_offset = -7")
        if source == "archive":
            save_signal(tmp_path / "d.csv", np.zeros(480) + 0.1)
            text = text.replace(
                "synth_kind = energy-neutral-random\nsynth_n = 240\nsynth_windows = 5\n",
                f"archive = {tmp_path / 'd.csv'}\n",
            )
        p = tmp_path / "a.ini"
        p.write_text(text)
        out = tmp_path / "o"
        assert run(["bid", "--config", p, "--out", out]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: [signal] window_offset must be >= 0, got -7"
        ]
        assert not out.exists()

    def test_parser_is_built_once(self):
        assert _build_parser() is _build_parser()

    @pytest.mark.parametrize(
        "first, second",
        [
            (["soc-drift", "--vary", "gen", "--values", "0,3"], ["soc-drift"]),
            (["dispatch", "--capacity", "8", "--mode", "rt"], ["dispatch", "--capacity", "8"]),
            (["asym-sweep", "--vary", "gen", "--values", "0"],
             ["asym-sweep", "--vary", "gen", "--values", "8"]),
        ],
        ids=["soc-drift", "dispatch", "asym-sweep"],
    )
    def test_a_call_leaves_nothing_for_the_next(self, first, second, config_path, tmp_path):
        # two calls on the shared parser write what each writes on a new one
        shared = []
        for i, argv in enumerate((first, second)):
            out = tmp_path / f"shared-{i}"
            assert run([*argv, "--config", config_path, "--out", out]) == 0
            shared.append(outputs(out))
        for i, argv in enumerate((first, second)):
            _build_parser.cache_clear()
            out = tmp_path / f"new-{i}"
            assert run([*argv, "--config", config_path, "--out", out]) == 0
            assert outputs(out) == shared[i]

    def test_every_subcommand_parses_to_its_handler(self):
        parser = _build_parser()
        required = {"asym-sweep": ["--vary", "gen", "--values", "1"]}
        names = ["characterize", "dispatch", "bid", "asym-sweep", "soc-drift", "synth"]
        handlers = [
            parser.parse_args([name, "--config", "x.ini", *required.get(name, [])]).run
            for name in names
        ]
        assert all(callable(h) for h in handlers)
        assert len(set(handlers)) == len(names)
