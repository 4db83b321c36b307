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
import functools
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .bidding import BidSolution, BracketError, expected_revenue, solve_bid
from .config import (
    ConfigError,
    RunConfig,
    _capacity_limit,
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
from .signals import SignalArchive, archive_stats, energy_stats, save_signal

__all__ = ["main"]

_BID_CURVE_COLUMNS = ["c", "mean_xp", "z_gamma", "prob_compliant", "objective"]
_SWEEP_CURVE_COLUMNS = ["c", "mean_xp", "std_xp", "z_gamma", "prob_compliant", "objective"]
_SWEEP_COLUMNS = [
    "value", "c_star", "c_bar", "c_hat", "mean_xp_at_c_star", "knee_low", "knee_high"
]


def _report_header(experiment: str, cfg: RunConfig, archive: SignalArchive) -> dict:
    payload = config_digest_payload(cfg)
    return {
        "experiment": experiment,
        "tool_version": __version__,
        "config": payload,
        "inputs_digest": digest_of(payload, archive.samples),
    }


def _pick_window(archive: SignalArchive, index: int):
    if not 0 <= index < archive.n_windows:
        raise ConfigError(
            f"--window {index} out of range; archive has {archive.n_windows} windows"
        )
    return archive.windows[index]


def _out_dir(cfg: RunConfig) -> Path:
    """The output directory, created here. Each command calls this just
    before its first write, so a command that fails earlier leaves none."""
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _summary_dict(s) -> dict:
    return {"mean": s.mean, "std": s.std, "min": s.min, "max": s.max}


def cmd_characterize(cfg: RunConfig, args: argparse.Namespace) -> int:
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
    report = _report_header(args.command, cfg, archive)
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


def _check_capacity(capacity: float, cfg: RunConfig) -> None:
    """Refuse a capacity whose outputs could overflow on the config's windows."""
    if not math.isfinite(capacity):
        raise ConfigError(f"--capacity must be finite, got {capacity}")
    if capacity <= 0.0:
        raise ConfigError(f"--capacity must be > 0 MW, got {capacity}")
    limit = _capacity_limit(cfg.window_len, cfg.market)
    if capacity > limit:
        raise ConfigError(f"--capacity must be <= {limit!r} MW on {cfg.window_len}-step "
                          f"windows at these prices, got {capacity}")


def cmd_dispatch(cfg: RunConfig, args: argparse.Namespace) -> int:
    window, capacity, mode = args.window, args.capacity, args.mode
    if capacity is None:
        raise ConfigError("dispatch needs --capacity (MW)")
    _check_capacity(capacity, cfg)
    archive = resolve_archive(cfg)
    sig = _pick_window(archive, window)
    header = _report_header(args.command, cfg, archive)
    header.update({"window": window, "capacity": capacity, "mode": mode})

    # every result first, so that a failing solve leaves no file behind
    traces, reports = {}, {}
    if mode in ("rt", "both"):
        trace = rt_dispatch(cfg.hes, capacity, sig)
        perf = make_report(capacity, sig, trace, cfg.market)
        traces["trace_rt.csv"] = trace
        reports["performance_rt.json"] = {**header, "performance": perf.to_dict()}
    if mode in ("offline", "both"):
        sol = offline_dispatch(cfg.hes, capacity, sig)
        perf = make_report(capacity, sig, sol.trace, cfg.market)
        traces["trace_offline.csv"] = sol.trace
        off_report = {**header, "performance": perf.to_dict()}
        for field in dataclasses.fields(sol):
            value = getattr(sol, field.name)
            if field.name != "trace" and value is not None:
                off_report[field.name] = value
        reports["performance_offline.json"] = off_report
    if mode == "both":
        # what benchmark_controller would compute, from the runs above
        bench = _benchmark_report(cfg.hes, capacity, sig, trace.abs_error(), sol)
        reports["benchmark.json"] = {**header, **bench.to_dict()}

    out = _out_dir(cfg)
    for name, result in traces.items():
        save_trace_csv(out / name, result, sig.samples, capacity)
    for name, report in reports.items():
        write_json(out / name, report)
    return 0


def _curve_points(solution: BidSolution) -> list[dict]:
    """Every bid-curve point as one dict; each artifact picks its columns."""
    return [
        {
            "c": pt.c,
            "mean_xp": pt.mean_xp,
            "std_xp": pt.std_xp,
            "z_gamma": pt.z_gamma,
            "prob_compliant": pt.prob_compliant,
            "objective": pt.objective,
            "n_scores": int(pt.scores.size),
        }
        for pt in solution.curve
    ]


def _rows(records: list[dict], columns: list[str]):
    return ([r[k] for k in columns] for r in records)


def _solution_dict(solution: BidSolution, points: list[dict]) -> dict:
    return {
        "c_bar": solution.c_bar,
        "c_hat": solution.c_hat,
        "c_star": solution.c_star,
        "curve": points,
        "diagnostics": dataclasses.asdict(solution.diagnostics),
    }


def cmd_bid(cfg: RunConfig, args: argparse.Namespace) -> int:
    archive = resolve_archive(cfg)
    solution = solve_bid(cfg.hes, archive, cfg.market, cfg.sweep)
    rev = expected_revenue(solution, archive, cfg.market)
    out = _out_dir(cfg)
    points = _curve_points(solution)
    write_csv(out / "bid_curve.csv", _BID_CURVE_COLUMNS, _rows(points, _BID_CURVE_COLUMNS))
    report = _report_header(args.command, cfg, archive)
    report.update(_solution_dict(solution, points))
    report["revenue"] = rev.to_dict()
    write_json(out / "bid_solution.json", report)
    return 0


def _vary_config(hes: HesConfig, vary: str, value: float) -> HesConfig:
    """hes with value as the p_max of its ``vary`` asset, a field name
    ('gen' or 'load', argparse's choices for --vary)."""
    return dataclasses.replace(hes, **{vary: dataclasses.replace(getattr(hes, vary), p_max=value)})


def _parse_values(raw: str | None) -> list[float]:
    """The numbers of a --values list; [] when the flag is not given."""
    if raw is None:
        return []
    try:
        # + 0.0 stores -0 as 0, as the model stores a -0.0 limit, so that it
        # names the files 0 names
        values = [float(tok) + 0.0 for tok in raw.split(",") if tok.strip() != ""]
    except ValueError:
        raise ConfigError(f"--values must be comma-separated numbers, got {raw!r}") from None
    if not values:
        raise ConfigError(f"--values needs at least one number, got {raw!r}")
    labels: dict[str, float] = {}
    for value in values:
        if not math.isfinite(value) or value < 0.0:
            raise ConfigError(f"--values entries must be finite and >= 0, got {value}")
        label = "%g" % value  # names the value's output files
        if label in labels:
            raise ConfigError(f"--values {labels[label]!r} and {value!r} both name files {label!r}")
        labels[label] = value
    return values


def _sweep(cases, run_case) -> tuple[list, list[dict]]:
    """run_case(vary, value) over every case. A varied case whose bid has
    no bracket gets one 'error: <vary>=<value>: ...' line on stderr, and the
    sweep goes on; the unvaried case's error propagates. Returns the
    finished cases' results and a {"value", "error"} record per failed
    case."""
    results, failed = [], []
    for vary, value in cases:
        try:
            results.append(run_case(vary, value))
        except BracketError as exc:
            if vary is None:
                raise
            message = f"{vary}={value:g}: {exc}"
            print(f"error: {message}", file=sys.stderr)
            failed.append({"value": value, "error": message})
    return results, failed


def cmd_asym_sweep(cfg: RunConfig, args: argparse.Namespace) -> int:
    vary, values = args.vary, _parse_values(args.values)
    archive = resolve_archive(cfg)

    def run_case(vary: str, value: float) -> dict:
        hes = _vary_config(cfg.hes, vary, value)
        solution = solve_bid(hes, archive, cfg.market, cfg.sweep)
        write_csv(
            _out_dir(cfg) / ("curve_%s_%g.csv" % (vary, value)),
            _SWEEP_CURVE_COLUMNS,
            _rows(_curve_points(solution), _SWEEP_CURVE_COLUMNS),
        )
        return {
            "value": value,
            "c_star": solution.c_star,
            "c_bar": solution.c_bar,
            "c_hat": solution.c_hat,
            "mean_xp_at_c_star": solution.point_at(solution.c_star).mean_xp,
            "knee_low": min(hes.gen.p_max, hes.load.p_max) + hes.batt.p_max,
            "knee_high": max(hes.gen.p_max, hes.load.p_max) + hes.batt.p_max,
        }

    results, failed = _sweep([(vary, v) for v in values], run_case)
    out = _out_dir(cfg)
    write_csv(out / "asym_sweep.csv", _SWEEP_COLUMNS, _rows(results, _SWEEP_COLUMNS))
    report = _report_header(args.command, cfg, archive)
    report.update({"vary": vary, "values": values, "results": results})
    if failed:
        report["failed"] = failed
    write_json(out / "asym_sweep.json", report)
    return 1 if failed else 0


def cmd_soc_drift(cfg: RunConfig, args: argparse.Namespace) -> int:
    vary, values, capacity = args.vary, _parse_values(args.values), args.capacity
    if values and vary is None:
        raise ConfigError("soc-drift --values needs --vary")
    if vary is not None and not values:
        raise ConfigError("soc-drift --vary needs --values")
    if capacity is not None:
        _check_capacity(capacity, cfg)
    archive = resolve_archive(cfg)
    batt = cfg.hes.batt

    def run_case(vary_name: str | None, value: float | None) -> dict:
        hes = cfg.hes if vary_name is None else _vary_config(cfg.hes, vary_name, value)
        if capacity is not None:
            c_used = capacity
        else:
            c_used = solve_bid(hes, archive, cfg.market, cfg.sweep).c_star
        batch = rt_dispatch_batch(hes, c_used, archive.samples, archive.dt)
        soc = batch.soc
        at_bound = (soc <= batt.soc_min + 1e-9) | (soc >= batt.soc_max - 1e-9)
        hit = at_bound.any(axis=1)
        first_hit = np.where(hit, at_bound.argmax(axis=1), -1)
        finals = soc[:, -1].copy()  # contiguous, so np.mean sums as over a list
        lows, highs = soc.min(axis=1), soc.max(axis=1)
        medians = np.median(soc, axis=1, overwrite_input=True)  # last: partitions soc
        label = "base" if vary_name is None else "%s_%g" % (vary_name, value)
        write_csv(
            _out_dir(cfg) / f"soc_windows_{label}.csv",
            ["window", "soc_median", "soc_min", "soc_max", "soc_final", "hit_bound", "first_hit"],
            zip(
                range(archive.n_windows),
                medians.tolist(),
                lows.tolist(),
                highs.tolist(),
                finals.tolist(),
                hit.tolist(),
                first_hit.tolist(),
            ),
        )
        return {
            "case": label,
            "vary": vary_name,
            "value": value,
            "capacity": c_used,
            "windows": archive.n_windows,
            "windows_hitting_bounds": int(hit.sum()),
            "mean_final_soc": float(np.mean(finals)),
            "min_final_soc": float(np.min(finals)),
            "max_final_soc": float(np.max(finals)),
        }

    cases = [(vary, v) for v in values] if vary else [(None, None)]
    summaries, failed = _sweep(cases, run_case)
    report = _report_header(args.command, cfg, archive)
    report["cases"] = summaries
    if failed:
        report["failed"] = failed
    write_json(_out_dir(cfg) / "soc_drift.json", report)
    return 1 if failed else 0


def cmd_synth(cfg: RunConfig, args: argparse.Namespace) -> int:
    if cfg.synth is None:
        raise ConfigError("synth needs a [signal] synth_kind source in the config")
    archive = resolve_archive(cfg)
    out = _out_dir(cfg)
    save_signal(out / "signal.csv", archive.samples.ravel())
    report = _report_header(args.command, cfg, archive)
    report.update(
        {
            "kind": cfg.synth.kind,
            "n_per_window": archive.window_len,
            "n_windows": archive.n_windows,
            "dt_hours": archive.dt,
            "seed": cfg.seed,
            "per_window": [dataclasses.asdict(energy_stats(w)) for w in archive.windows],
        }
    )
    write_json(out / "synth.json", report)
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The subcommand table, built on the first call and shared by every
    later call in the process. parse_args keeps no state between calls, and
    no option has a mutable default, so each call still gets a Namespace of
    its own. Each subcommand's handler is bound here once: to change what a
    handler does in-process, patch the names it calls, not the cmd_*
    function."""
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

    def add(name: str, help_text: str, handler) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(run=handler)
        p.add_argument("--config", required=True, help="experiment INI file")
        p.add_argument("--out", help="override [run] out_dir")
        p.add_argument("--seed", type=int, help="override [run] seed")
        p.add_argument("--gamma", type=float, help="override [market] gamma")
        p.add_argument("--xp-min", type=float, help="override [market] x_p_min")
        return p

    add("characterize", "signal archive statistics", cmd_characterize)

    p = add("dispatch", "dispatch one window", cmd_dispatch)
    p.add_argument("--window", type=int, default=0, help="archive window index")
    p.add_argument("--capacity", type=float, help="capacity bid C in MW")
    p.add_argument("--mode", choices=("rt", "offline", "both"), default="both")

    add("bid", "select the capacity bid over the archive", cmd_bid)

    p = add("asym-sweep", "bid selection vs one asset limit", cmd_asym_sweep)
    p.add_argument("--vary", required=True, choices=("gen", "load"))
    p.add_argument("--values", required=True, help="comma-separated limits in MW")

    p = add("soc-drift", "per-window SoC summaries", cmd_soc_drift)
    p.add_argument("--vary", choices=("gen", "load"))
    p.add_argument("--values", help="comma-separated limits in MW")
    p.add_argument("--capacity", type=float, help="fixed capacity (default: solve bid)")

    add("synth", "write the configured synthetic archive to CSV", cmd_synth)
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
        return args.run(cfg, args)
    except (ValueError, OSError, SolverError, BudgetError, EquivalenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
