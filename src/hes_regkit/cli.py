"""Command-line front end.

Subcommands:
  characterize  archive-wide signal statistics (energy content, excursions,
                mileage) with histograms
  dispatch      run one window through the real-time rule and/or the offline
                benchmark, write traces and performance reports
  bid           sweep capacities over the archive and select the bid
  asym-sweep    repeat the bid selection while varying one asset limit
  soc-drift     per-window SoC trajectory summaries, optionally per asset
                asymmetry value
  synth         generate a synthetic archive CSV for later runs

All data goes to files in the output directory; stdout stays quiet, stderr
carries diagnostics. Reruns with the same config and seed are byte-identical.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .bidding import BidSolution, BracketError, expected_revenue, solve_bid
from .config import (
    ConfigError,
    RunConfig,
    config_digest_payload,
    load_config,
    print_schema,
    resolve_archive,
)
from .controller import rt_dispatch, rt_dispatch_batch, save_trace_csv
from .model import HesConfig
from .offline import (
    BudgetError,
    EquivalenceError,
    SolverError,
    _benchmark_report,
    offline_dispatch,
)
from .reports import digest_of, write_csv, write_json
from .scoring import make_report
from .signals import (
    SignalArchive,
    SignalError,
    archive_stats,
    energy_stats,
    save_signal,
)

__all__ = ["main"]

_OFFLINE_STEP_LIMIT = 20000

_CURVE_HEADER = ["c", "mean_xp", "z_gamma", "prob_compliant", "objective"]


def _report_header(experiment: str, cfg: RunConfig, archive: SignalArchive | None) -> dict:
    payload = config_digest_payload(cfg)
    blobs = (
        tuple(w.samples.tobytes() for w in archive.windows) if archive is not None else ()
    )
    return {
        "experiment": experiment,
        "tool_version": __version__,
        "config": payload,
        "inputs_digest": digest_of(payload, *blobs),
    }


def _pick_window(archive: SignalArchive, index: int):
    if not 0 <= index < archive.n_windows:
        raise ConfigError(
            f"--window {index} out of range; archive has {archive.n_windows} windows"
        )
    return archive.windows[index]


def _out_dir(cfg: RunConfig) -> Path:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _summary_dict(s) -> dict:
    return {"mean": s.mean, "std": s.std, "min": s.min, "max": s.max}


def cmd_characterize(cfg: RunConfig) -> int:
    archive = resolve_archive(cfg)
    stats = archive_stats(archive)
    out = _out_dir(cfg)
    write_csv(
        out / "window_stats.csv",
        ["window", "w", "w_inf", "mileage"],
        (
            [i, s.w, s.w_inf, s.mileage]
            for i, s in enumerate(stats.per_window)
        ),
    )
    hist_rows = []
    for name, summary in (("w", stats.w), ("w_inf", stats.w_inf), ("mileage", stats.mileage)):
        for lo, hi, count in zip(summary.bin_edges, summary.bin_edges[1:], summary.counts):
            hist_rows.append([name, lo, hi, count])
    write_csv(out / "histograms.csv", ["metric", "bin_lo", "bin_hi", "count"], hist_rows)
    report = _report_header("characterize", cfg, archive)
    report.update(
        {
            "n_windows": archive.n_windows,
            "window_len": archive.window_len,
            "dt_hours": archive.dt,
            "source": archive.source,
            "w": _summary_dict(stats.w),
            "w_inf": _summary_dict(stats.w_inf),
            "mileage": _summary_dict(stats.mileage),
        }
    )
    write_json(out / "characterize.json", report)
    return 0


def cmd_dispatch(cfg: RunConfig, *, window: int, capacity: float | None, mode: str) -> int:
    if capacity is None:
        raise ConfigError("dispatch needs --capacity (MW)")
    if capacity <= 0.0:
        raise ConfigError(f"--capacity must be > 0 MW, got {capacity}")
    archive = resolve_archive(cfg)
    sig = _pick_window(archive, window)
    out = _out_dir(cfg)
    header = _report_header("dispatch", cfg, archive)
    header.update({"window": window, "capacity": capacity, "mode": mode})

    if mode in ("offline", "both") and sig.n > _OFFLINE_STEP_LIMIT:
        raise BudgetError(
            f"offline benchmark limited to {_OFFLINE_STEP_LIMIT} steps per window, "
            f"got {sig.n}; downsample the window first"
        )

    if mode in ("rt", "both"):
        trace = rt_dispatch(cfg.hes, capacity, sig)
        j_on = trace.abs_error()
        save_trace_csv(out / "trace_rt.csv", trace, sig.samples, capacity)
        perf = make_report(capacity, sig, trace, cfg.market)
        rt_report = dict(header)
        rt_report["performance"] = perf.to_dict()
        write_json(out / "performance_rt.json", rt_report)
    if mode in ("offline", "both"):
        sol = offline_dispatch(cfg.hes, capacity, sig)
        save_trace_csv(out / "trace_offline.csv", sol.trace, sig.samples, capacity)
        perf = make_report(capacity, sig, sol.trace, cfg.market)
        off_report = dict(header)
        off_report["performance"] = perf.to_dict()
        off_report["solver_path"] = sol.solver_path
        off_report["complementarity_clean"] = sol.complementarity_clean
        off_report["objective"] = sol.objective
        if sol.lp_bound is not None:
            off_report["lp_bound"] = sol.lp_bound
        if sol.dp_value is not None:
            off_report["dp_value"] = sol.dp_value
        write_json(out / "performance_offline.json", off_report)
    if mode == "both":
        # what benchmark_controller would compute, from the runs above
        bench = _benchmark_report(cfg.hes, capacity, sig, j_on, sol)
        bench_report = dict(header)
        bench_report.update(bench.to_dict())
        write_json(out / "benchmark.json", bench_report)
    return 0


def _curve_rows(solution: BidSolution):
    for pt in solution.curve:
        yield [pt.c, pt.mean_xp, pt.z_gamma, pt.prob_compliant, pt.objective]


def _solution_dict(solution: BidSolution) -> dict:
    d = solution.diagnostics
    return {
        "c_bar": solution.c_bar,
        "c_hat": solution.c_hat,
        "c_star": solution.c_star,
        "curve": [
            {
                "c": pt.c,
                "mean_xp": pt.mean_xp,
                "std_xp": float(np.std(pt.scores)),
                "z_gamma": pt.z_gamma,
                "prob_compliant": pt.prob_compliant,
                "objective": pt.objective,
                "n_scores": int(pt.scores.size),
            }
            for pt in solution.curve
        ],
        "diagnostics": {
            "n_windows": d.n_windows,
            "zero_signal_windows": d.zero_signal_windows,
            "coarse_points": d.coarse_points,
            "refine_iterations": d.refine_iterations,
            "upper_bracket_c": d.upper_bracket_c,
            "upper_bracket_z": d.upper_bracket_z,
            "z_monotonicity_violations": list(d.z_monotonicity_violations),
        },
    }


def cmd_bid(cfg: RunConfig) -> int:
    archive = resolve_archive(cfg)
    if archive.n_windows < 2:
        raise ConfigError(
            f"bid selection needs >= 2 windows, archive has {archive.n_windows}"
        )
    solution = solve_bid(cfg.hes, archive, cfg.market, cfg.sweep)
    rev = expected_revenue(solution, archive, cfg.market)
    out = _out_dir(cfg)
    write_csv(out / "bid_curve.csv", _CURVE_HEADER, _curve_rows(solution))
    report = _report_header("bid", cfg, archive)
    report.update(_solution_dict(solution))
    report["revenue"] = rev.to_dict()
    write_json(out / "bid_solution.json", report)
    return 0


def _vary_config(hes: HesConfig, vary: str, value: float) -> HesConfig:
    if vary == "gen":
        return dataclasses.replace(hes, gen=dataclasses.replace(hes.gen, p_max=value))
    if vary == "load":
        return dataclasses.replace(hes, load=dataclasses.replace(hes.load, p_max=value))
    raise ConfigError(f"--vary must be 'gen' or 'load', got {vary!r}")


def _parse_values(raw: str | None) -> list[float]:
    if raw is None or raw.strip() == "":
        return []
    try:
        return [float(tok) for tok in raw.split(",") if tok.strip() != ""]
    except ValueError:
        raise ConfigError(f"--values must be comma-separated numbers, got {raw!r}") from None


def cmd_asym_sweep(cfg: RunConfig, *, vary: str, values: list[float]) -> int:
    archive = resolve_archive(cfg)
    out = _out_dir(cfg)
    results = []
    for value in values:
        if value < 0.0:
            raise ConfigError(f"--values entries must be >= 0, got {value}")
        hes = _vary_config(cfg.hes, vary, value)
        solution = solve_bid(hes, archive, cfg.market, cfg.sweep)
        at_star = solution.point_at(solution.c_star)
        knee_low = min(hes.gen.p_max, hes.load.p_max) + hes.batt.p_max
        knee_high = max(hes.gen.p_max, hes.load.p_max) + hes.batt.p_max
        results.append(
            {
                "value": value,
                "c_star": solution.c_star,
                "c_bar": solution.c_bar,
                "c_hat": solution.c_hat,
                "mean_xp_at_c_star": at_star.mean_xp,
                "knee_low": knee_low,
                "knee_high": knee_high,
            }
        )
        write_csv(
            out / ("curve_%s_%g.csv" % (vary, value)),
            ["c", "mean_xp", "std_xp", "z_gamma", "prob_compliant", "objective"],
            (
                [pt.c, pt.mean_xp, float(np.std(pt.scores)), pt.z_gamma,
                 pt.prob_compliant, pt.objective]
                for pt in solution.curve
            ),
        )
    write_csv(
        out / "asym_sweep.csv",
        ["value", "c_star", "c_bar", "c_hat", "mean_xp_at_c_star", "knee_low", "knee_high"],
        (
            [r["value"], r["c_star"], r["c_bar"], r["c_hat"],
             r["mean_xp_at_c_star"], r["knee_low"], r["knee_high"]]
            for r in results
        ),
    )
    report = _report_header("asym-sweep", cfg, archive)
    report.update({"vary": vary, "values": values, "results": results})
    write_json(out / "asym_sweep.json", report)
    return 0


def cmd_soc_drift(
    cfg: RunConfig, *, vary: str | None, values: list[float], capacity: float | None
) -> int:
    archive = resolve_archive(cfg)
    out = _out_dir(cfg)
    batt = cfg.hes.batt
    cases = [(vary, v) for v in values] if vary else [(None, None)]
    summaries = []
    for vary_name, value in cases:
        hes = cfg.hes if vary_name is None else _vary_config(cfg.hes, vary_name, value)
        if capacity is not None:
            if capacity <= 0.0:
                raise ConfigError(f"--capacity must be > 0 MW, got {capacity}")
            c_used = capacity
        else:
            c_used = solve_bid(hes, archive, cfg.market, cfg.sweep).c_star
        rows = []
        hit_count = 0
        finals = []
        batch = rt_dispatch_batch(hes, c_used, archive.matrix(), archive.dt)
        for i, soc in enumerate(batch.soc):
            at_floor = soc <= batt.soc_min + 1e-9
            at_ceiling = soc >= batt.soc_max - 1e-9
            hit = bool(np.any(at_floor) or np.any(at_ceiling))
            hit_idx = np.flatnonzero(at_floor | at_ceiling)
            hit_count += hit
            finals.append(float(soc[-1]))
            rows.append(
                [
                    i,
                    float(np.median(soc)),
                    float(soc.min()),
                    float(soc.max()),
                    float(soc[-1]),
                    hit,
                    int(hit_idx[0]) if hit else -1,
                ]
            )
        label = "base" if vary_name is None else "%s_%g" % (vary_name, value)
        write_csv(
            out / f"soc_windows_{label}.csv",
            ["window", "soc_median", "soc_min", "soc_max", "soc_final", "hit_bound", "first_hit"],
            rows,
        )
        summaries.append(
            {
                "case": label,
                "vary": vary_name,
                "value": value,
                "capacity": c_used,
                "windows": archive.n_windows,
                "windows_hitting_bounds": hit_count,
                "mean_final_soc": float(np.mean(finals)),
                "min_final_soc": float(np.min(finals)),
                "max_final_soc": float(np.max(finals)),
            }
        )
    report = _report_header("soc-drift", cfg, archive)
    report["cases"] = summaries
    write_json(out / "soc_drift.json", report)
    return 0


def cmd_synth(cfg: RunConfig) -> int:
    if cfg.synth is None:
        raise ConfigError("synth needs a [signal] synth_kind source in the config")
    archive = resolve_archive(cfg)
    out = _out_dir(cfg)
    data = np.concatenate([w.samples for w in archive.windows])
    save_signal(out / "signal.csv", data)
    report = _report_header("synth", cfg, archive)
    report.update(
        {
            "kind": cfg.synth.kind,
            "n_per_window": archive.window_len,
            "n_windows": archive.n_windows,
            "dt_hours": archive.dt,
            "seed": cfg.seed,
            "per_window": [
                {"w": s.w, "w_inf": s.w_inf, "mileage": s.mileage}
                for s in (energy_stats(w) for w in archive.windows)
            ],
        }
    )
    write_json(out / "synth.json", report)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hes-regkit",
        description="Capacity bidding and dispatch for hybrid energy systems "
        "in frequency-regulation markets.",
    )
    parser.add_argument(
        "--print-schema",
        action="store_true",
        help="print the config file schema and exit",
    )
    sub = parser.add_subparsers(dest="command")

    def add(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="experiment INI file")
        p.add_argument("--out", help="override [run] out_dir")
        p.add_argument("--seed", type=int, help="override [run] seed")
        p.add_argument("--gamma", type=float, help="override [market] gamma")
        p.add_argument("--xp-min", type=float, help="override [market] x_p_min")
        return p

    add("characterize", "signal archive statistics")

    p = add("dispatch", "dispatch one window")
    p.add_argument("--window", type=int, default=0, help="archive window index")
    p.add_argument("--capacity", type=float, help="capacity bid C in MW")
    p.add_argument("--mode", choices=("rt", "offline", "both"), default="both")

    add("bid", "select the capacity bid over the archive")

    p = add("asym-sweep", "bid selection vs one asset limit")
    p.add_argument("--vary", required=True, choices=("gen", "load"))
    p.add_argument("--values", required=True, help="comma-separated limits in MW")

    p = add("soc-drift", "per-window SoC summaries")
    p.add_argument("--vary", choices=("gen", "load"))
    p.add_argument("--values", help="comma-separated limits in MW")
    p.add_argument("--capacity", type=float, help="fixed capacity (default: solve bid)")

    add("synth", "write the configured synthetic archive to CSV")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.print_schema:
        sys.stdout.write(print_schema())
        return 0
    if args.command is None:
        print("error: a subcommand is required (see --help)", file=sys.stderr)
        return 2
    try:
        cfg = load_config(args.config).with_overrides(
            out_dir=args.out, seed=args.seed, gamma=args.gamma, x_p_min=args.xp_min
        )
        if args.command == "characterize":
            return cmd_characterize(cfg)
        if args.command == "dispatch":
            return cmd_dispatch(
                cfg, window=args.window, capacity=args.capacity, mode=args.mode
            )
        if args.command == "bid":
            return cmd_bid(cfg)
        if args.command == "asym-sweep":
            return cmd_asym_sweep(
                cfg, vary=args.vary, values=_parse_values(args.values)
            )
        if args.command == "soc-drift":
            return cmd_soc_drift(
                cfg,
                vary=args.vary,
                values=_parse_values(args.values),
                capacity=args.capacity,
            )
        if args.command == "synth":
            return cmd_synth(cfg)
        raise AssertionError(f"unhandled command {args.command!r}")
    except (
        ConfigError,
        SignalError,
        SolverError,
        BudgetError,
        BracketError,
        EquivalenceError,
        ValueError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
