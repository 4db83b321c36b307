"""Spans recorded around public package calls, and the per-layer metrics.

The benchmark never edits the package. In a traced pass it replaces public
functions with timing wrappers under the names the calling module looks them
up by (``hes_regkit.bidding.rt_dispatch_batch``, ``hes_regkit.cli.solve_bid``,
``hes_regkit.config.load_archive`` ...). Per-step functions (``rt_step``,
``soc_step``, ``check_step_feasible``) are not wrapped: a wrapper would cost
more than the call.

A span is ``[name, start_ns, end_ns, parent_index, attrs]``. Spans live in
memory for the whole pass and are written out once, when it ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import statistics
import time
from collections import defaultdict


# (module the caller looks the name up in, attribute, span name, attrs)
# attrs(arguments, result) -> dict of counts recorded on the span.
TARGETS = (
    ("hes_regkit.cli", "load_config", "config.load_config", None),
    ("hes_regkit.cli", "resolve_archive", "config.resolve_archive", None),
    ("hes_regkit.config", "load_archive", "signals.load_archive",
     lambda a, r: {"samples": r.n_windows * r.window_len}),
    ("hes_regkit.config", "synth_signal", "signals.synth_signal", None),
    ("hes_regkit.bidding", "rt_dispatch_batch", "controller.rt_dispatch_batch",
     lambda a, r: dict(zip(("rows", "steps"), a["samples"].shape))),
    ("hes_regkit.cli", "rt_dispatch", "controller.rt_dispatch",
     lambda a, r: {"steps": a["sig"].n}),
    ("hes_regkit.offline", "rt_dispatch", "controller.rt_dispatch",
     lambda a, r: {"steps": a["sig"].n}),
    ("hes_regkit.offline", "validate_trace", "controller.validate_trace", None),
    ("hes_regkit.cli", "save_trace_csv", "controller.save_trace_csv",
     lambda a, r: {"rows": a["trace"].n_steps}),
    ("hes_regkit.cli", "solve_bid", "bidding.solve_bid",
     lambda a, r: {"curve_points": len(r.curve),
                   "refine_iterations": r.diagnostics.refine_iterations}),
    ("hes_regkit.cli", "expected_revenue", "bidding.expected_revenue", None),
    ("hes_regkit.cli", "offline_dispatch", "offline.offline_dispatch",
     lambda a, r: {"steps": a["sig"].n, "path": r.solver_path}),
    ("hes_regkit.offline", "offline_dispatch", "offline.offline_dispatch",
     lambda a, r: {"steps": a["sig"].n, "path": r.solver_path}),
    ("hes_regkit.offline", "linprog", "offline.linprog", None),
    ("hes_regkit.offline", "closed_form_dispatch", "offline.closed_form_dispatch",
     lambda a, r: {"held": int(r is not None)}),
    ("hes_regkit.cli", "benchmark_controller", "offline.benchmark_controller", None),
    ("hes_regkit.cli", "make_report", "scoring.make_report", None),
    ("hes_regkit.cli", "write_csv", "reports.write_csv",
     lambda a, r: {"bytes": os.path.getsize(r)}),
    ("hes_regkit.cli", "write_json", "reports.write_json",
     lambda a, r: {"bytes": os.path.getsize(r)}),
)


class Tracer:
    """Records nested spans; single-threaded, like the package."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.missing: list[str] = []

    def span(self, name: str, fn, attrs=None):
        bind = inspect.signature(fn).bind if attrs is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            record = [name, 0, 0, parent, {}]
            self.spans.append(record)
            self._stack.append(idx)
            record[1] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter_ns()
                self._stack.pop()
            if attrs is not None:
                record[4] = attrs(bind(*args, **kwargs).arguments, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target that exists; list the ones that do not."""
        for module_name, attr, name, attrs in TARGETS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self.span(name, fn, attrs))


def self_ns(spans: list[list]) -> list[int]:
    """Each span's duration minus its children's durations.

    Spans come from one call stack, so the children of a span are disjoint
    and lie inside it.
    """
    out = [end - start for _name, start, end, _parent, _attrs in spans]
    for _name, start, end, parent, _attrs in spans:
        if parent is not None:
            out[parent] -= end - start
    return out


def _ancestor_named(spans, idx, name) -> bool:
    parent = spans[idx][3]
    while parent is not None:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one traced pass. Layers that did not run read 0."""
    own_ns = self_ns(spans)
    total = defaultdict(float)  # inclusive seconds per span name
    self_s = defaultdict(float)
    calls = defaultdict(int)
    sums = defaultdict(int)  # "<span>.<attr>" -> summed count
    paths = defaultdict(int)
    for i, (name, start, end, _parent, attrs) in enumerate(spans):
        total[name] += (end - start) / 1e9
        self_s[name] += own_ns[i] / 1e9
        calls[name] += 1
        for key, value in attrs.items():
            if key == "path":
                paths[value] += 1
            else:
                sums[f"{name}.{key}"] += value

    def per(num: float, den: float, scale: float) -> float:
        return num / den * scale if den else 0.0

    batch = "controller.rt_dispatch_batch"
    batch_steps = sum(
        s[4].get("steps", 0) for s in spans if s[0] == batch
    )
    kernel_in_bid = sum(
        1 for i, s in enumerate(spans)
        if s[0] == batch and _ancestor_named(spans, i, "bidding.solve_bid")
    )
    m = {
        "cli.bid_s": total["cli.bid"],
        "cli.soc_drift_s": total["cli.soc-drift"],
        "cli.asym_sweep_s": total["cli.asym-sweep"],
        "cli.dispatch_s": total["cli.dispatch"],
        "config.load_config_s": total["config.load_config"],
        "config.resolve_archive_s": total["config.resolve_archive"],
        "signals.load_archive_s": total["signals.load_archive"],
        "signals.load_archive_calls": calls["signals.load_archive"],
        "signals.samples_parsed": sums["signals.load_archive.samples"],
        "signals.load_archive_ns_per_sample": per(
            total["signals.load_archive"], sums["signals.load_archive.samples"], 1e9),
        "signals.synth_signal_s": total["signals.synth_signal"],
        "controller.batch_s": total[batch],
        "controller.batch_calls": calls[batch],
        "controller.batch_row_steps": sum(
            s[4].get("rows", 0) * s[4].get("steps", 0) for s in spans if s[0] == batch
        ),
        "controller.rt_dispatch_s": total["controller.rt_dispatch"],
        "controller.rt_dispatch_steps": sums["controller.rt_dispatch.steps"],
        "controller.validate_trace_s": total["controller.validate_trace"],
        "controller.save_trace_csv_s": total["controller.save_trace_csv"],
        "controller.trace_rows_written": sums["controller.save_trace_csv.rows"],
        "bidding.solve_bid_s": total["bidding.solve_bid"],
        "bidding.solve_bid_self_s": self_s["bidding.solve_bid"],
        "bidding.solve_bid_calls": calls["bidding.solve_bid"],
        "bidding.curve_points": sums["bidding.solve_bid.curve_points"],
        "bidding.refine_iterations": sums["bidding.solve_bid.refine_iterations"],
        "bidding.kernel_calls_per_solve": per(
            kernel_in_bid, calls["bidding.solve_bid"], 1.0),
        "bidding.expected_revenue_s": total["bidding.expected_revenue"],
        "offline.offline_dispatch_s": total["offline.offline_dispatch"],
        "offline.offline_dispatch_self_s": self_s["offline.offline_dispatch"],
        "offline.offline_dispatch_calls": calls["offline.offline_dispatch"],
        "offline.linprog_s": total["offline.linprog"],
        "offline.linprog_calls": calls["offline.linprog"],
        "offline.lp_steps": sums["offline.offline_dispatch.steps"],
        "offline.path_lp": paths["lp"],
        "offline.path_lp_with_repair": paths["lp-with-repair"],
        "offline.path_dp": paths["dp"],
        "offline.closed_form_s": total["offline.closed_form_dispatch"],
        "offline.closed_form_held": sums["offline.closed_form_dispatch.held"],
        "offline.benchmark_controller_self_s": self_s["offline.benchmark_controller"],
        "scoring.make_report_s": total["scoring.make_report"],
        "reports.write_csv_s": total["reports.write_csv"],
        "reports.write_json_s": total["reports.write_json"],
        "reports.files_written": calls["reports.write_csv"] + calls["reports.write_json"],
        "reports.bytes_written": (
            sums["reports.write_csv.bytes"] + sums["reports.write_json.bytes"]
        ),
    }
    m["controller.batch_us_per_step"] = per(m["controller.batch_s"], batch_steps, 1e6)
    m["controller.batch_ns_per_row_step"] = per(
        m["controller.batch_s"], m["controller.batch_row_steps"], 1e9)
    m["controller.rt_dispatch_us_per_step"] = per(
        m["controller.rt_dispatch_s"], m["controller.rt_dispatch_steps"], 1e6)
    return m


# Counts that must repeat exactly between two traced runs of one seed.
EXACT_COUNTS = (
    "controller.batch_calls",
    "controller.batch_row_steps",
    "controller.rt_dispatch_steps",
    "offline.linprog_calls",
    "offline.path_lp",
    "offline.path_lp_with_repair",
    "offline.path_dp",
    "bidding.curve_points",
    "reports.bytes_written",
)


def median_metrics(passes: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(p[k] for p in passes) for k in passes[0]}
