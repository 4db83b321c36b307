"""The package's public names, pinned: adding or removing an export changes
this list in the same diff."""

import hes_regkit

PUBLIC_NAMES = [
    # model
    "POWER_TOL",
    "SOC_TOL",
    "BatteryParams",
    "DispatchStep",
    "GeneratorParams",
    "HesConfig",
    "LoadParams",
    "check_step_feasible",
    "ensure_dispatchable",
    "soc_step",
    # controller
    "BatchDispatch",
    "DispatchTrace",
    "load_trace_csv",
    "rt_dispatch",
    "rt_dispatch_batch",
    "rt_step",
    "save_trace_csv",
    "validate_trace",
    # offline
    "BenchmarkReport",
    "BudgetError",
    "EquivalenceError",
    "OfflineSolution",
    "SolverError",
    "benchmark_controller",
    "closed_form_dispatch",
    "dp_oracle",
    "offline_dispatch",
    # bidding
    "BidCurvePoint",
    "BidDiagnostics",
    "BidSolution",
    "BracketError",
    "RevenueSummary",
    "SweepGrid",
    "expected_revenue",
    "quantile_lower",
    "score_samples",
    "solve_bid",
    # scoring
    "MarketParams",
    "PerformanceReport",
    "ZeroSignalError",
    "make_report",
    "performance_score",
    "revenue",
    # signals
    "ArchiveStats",
    "DistributionSummary",
    "EmptyArchiveError",
    "RegSignal",
    "SignalArchive",
    "SignalError",
    "SignalParseError",
    "SignalRangeError",
    "SignalStats",
    "archive_stats",
    "energy_stats",
    "load_archive",
    "mileage",
    "save_signal",
    "synth_signal",
]


def test_public_names_are_pinned():
    assert hes_regkit.__all__ == sorted(PUBLIC_NAMES)

