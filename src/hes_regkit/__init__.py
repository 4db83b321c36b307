"""hes-regkit: capacity bidding and real-time dispatch for hybrid energy
systems providing frequency regulation.

A hybrid system (generator + battery + controllable load behind one meter)
follows a normalized regulation command r[k] in [-1, 1] scaled by its
capacity bid C. The toolkit simulates the real-time allocation rule,
benchmarks it against offline optima computed with perfect foresight, scores
tracking performance the way the market does, and selects capacity bids that
keep the score's lower quantile above the compliance threshold.
"""

__version__ = "0.1.0"

from .bidding import (
    BidCurvePoint,
    BidDiagnostics,
    BidSolution,
    BracketError,
    RevenueSummary,
    SweepGrid,
    expected_revenue,
    quantile_lower,
    score_samples,
    solve_bid,
)
from .controller import (
    BatchDispatch,
    DispatchTrace,
    load_trace_csv,
    rt_dispatch,
    rt_dispatch_batch,
    rt_step,
    save_trace_csv,
    validate_trace,
)
from .model import (
    POWER_TOL,
    SOC_TOL,
    BatteryParams,
    DispatchStep,
    GeneratorParams,
    HesConfig,
    LoadParams,
    check_step_feasible,
    ensure_dispatchable,
    soc_step,
)
from .offline import (
    BenchmarkReport,
    BudgetError,
    EquivalenceError,
    OfflineSolution,
    SolverError,
    benchmark_controller,
    closed_form_dispatch,
    dp_oracle,
    offline_dispatch,
)
from .scoring import (
    MarketParams,
    PerformanceReport,
    ZeroSignalError,
    make_report,
    performance_score,
    revenue,
)
from .signals import (
    ArchiveStats,
    DistributionSummary,
    EmptyArchiveError,
    RegSignal,
    SignalArchive,
    SignalError,
    SignalParseError,
    SignalRangeError,
    SignalStats,
    archive_stats,
    energy_stats,
    load_archive,
    mileage,
    save_signal,
    synth_signal,
)

# the re-exported names, sorted; the submodules these imports bind stay out
__all__ = [
    "ArchiveStats", "BatchDispatch", "BatteryParams", "BenchmarkReport",
    "BidCurvePoint", "BidDiagnostics", "BidSolution", "BracketError",
    "BudgetError", "DispatchStep", "DispatchTrace", "DistributionSummary",
    "EmptyArchiveError", "EquivalenceError", "GeneratorParams",
    "HesConfig", "LoadParams", "MarketParams", "OfflineSolution",
    "POWER_TOL", "PerformanceReport", "RegSignal", "RevenueSummary",
    "SOC_TOL", "SignalArchive", "SignalError", "SignalParseError",
    "SignalRangeError", "SignalStats", "SolverError", "SweepGrid",
    "ZeroSignalError", "archive_stats", "benchmark_controller",
    "check_step_feasible", "closed_form_dispatch", "dp_oracle",
    "energy_stats", "ensure_dispatchable", "expected_revenue",
    "load_archive", "load_trace_csv", "make_report", "mileage",
    "offline_dispatch", "performance_score", "quantile_lower", "revenue",
    "rt_dispatch", "rt_dispatch_batch", "rt_step", "save_signal",
    "save_trace_csv", "score_samples", "soc_step", "solve_bid",
    "synth_signal", "validate_trace",
]
