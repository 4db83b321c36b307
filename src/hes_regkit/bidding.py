"""Capacity bid selection against a historical signal archive.

For a candidate capacity C the controller is simulated over every archive
window, giving an empirical score sample per window. The bid machinery then

1. finds C_bar, the largest capacity whose empirical lower gamma-quantile
   z_gamma(C) still clears the compliance threshold x_p_min (coarse sweep
   up, then bisection refinement of the crossing bracket),
2. picks C_hat maximizing C * mean(x_p) over evaluated compliant capacities,
3. returns C_star = min(C_hat, market c_max).

Scores are evaluated in-sample over the same archive; windows whose command
never moves (sum|r| = 0) are excluded and counted in the diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .controller import rt_dispatch_batch
from .model import HesConfig
from .scoring import MarketParams
from .signals import SignalArchive, mileage

__all__ = [
    "BracketError",
    "SweepGrid",
    "BidCurvePoint",
    "BidDiagnostics",
    "BidSolution",
    "RevenueSummary",
    "score_samples",
    "quantile_lower",
    "solve_bid",
    "expected_revenue",
]


class BracketError(ValueError):
    """The compliance crossing does not lie inside the sweep interval."""


@dataclass(frozen=True)
class SweepGrid:
    """Capacity sweep: coarse grid [c_lo, c_hi] then bisection to refine_tol."""

    c_lo: float
    c_hi: float
    coarse_step: float = 0.25
    refine_tol: float = 0.01

    def __post_init__(self) -> None:
        if not 0.0 < self.c_lo < self.c_hi:
            raise ValueError(
                f"need 0 < c_lo < c_hi, got c_lo={self.c_lo}, c_hi={self.c_hi}"
            )
        if self.coarse_step <= 0.0:
            raise ValueError(f"coarse_step must be > 0, got {self.coarse_step}")
        if self.refine_tol <= 0.0:
            raise ValueError(f"refine_tol must be > 0, got {self.refine_tol}")

    def coarse_points(self) -> np.ndarray:
        n = int(math.floor((self.c_hi - self.c_lo) / self.coarse_step + 1e-9))
        pts = self.c_lo + self.coarse_step * np.arange(n + 1)
        if pts[-1] < self.c_hi - 1e-12:
            pts = np.append(pts, self.c_hi)
        else:
            pts[-1] = self.c_hi
        return pts


@dataclass(frozen=True, eq=False)
class BidCurvePoint:
    """Archive-wide score statistics at one candidate capacity.

    ``scores`` are raw (unclamped) per-window samples; ``prob_compliant``
    uses scores clamped into [0, 1]. ``objective`` is c * mean_xp.
    """

    c: float
    scores: np.ndarray
    mean_xp: float
    z_gamma: float
    prob_compliant: float
    objective: float


@dataclass(frozen=True)
class BidDiagnostics:
    n_windows: int
    zero_signal_windows: int
    coarse_points: int
    refine_iterations: int
    upper_bracket_c: float
    upper_bracket_z: float
    z_monotonicity_violations: tuple[float, ...]


@dataclass(frozen=True, eq=False)
class BidSolution:
    """Bid sweep result: curve points (ascending c) plus selected capacities.

    c_bar   largest capacity found compliant (z_gamma >= x_p_min)
    c_hat   revenue-proxy argmax over compliant evaluated capacities
    c_star  min(c_hat, market c_max), the bid to submit
    """

    curve: tuple[BidCurvePoint, ...]
    c_bar: float
    c_hat: float
    c_star: float
    market: MarketParams
    diagnostics: BidDiagnostics

    def point_at(self, c: float) -> BidCurvePoint:
        for pt in self.curve:
            if pt.c == c:
                return pt
        raise KeyError(f"no curve point at c={c!r}")


def score_samples(cfg: HesConfig, c: float, archive: SignalArchive) -> np.ndarray:
    """Per-window controller scores at capacity c (zero-signal windows dropped)."""
    return _CurveEvaluator(cfg, archive).scores(c)


def quantile_lower(scores: np.ndarray, gamma: float) -> float:
    """Empirical lower quantile: the (floor((1-gamma)*H) + 1)-th smallest score.

    With H samples this is the largest z such that at least gamma of the
    sample mass sits at or above z. The small nudge before floor() keeps
    exact decimal products like (1-0.8)*5 from landing one order statistic
    low due to binary rounding.
    """
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"gamma must be in (0, 1), got {gamma}")
    s = np.sort(np.asarray(scores, dtype=float))
    if s.size == 0:
        raise ValueError("need at least one score sample")
    m = int(math.floor((1.0 - gamma) * s.size + 1e-9))
    return float(s[min(m, s.size - 1)])


class _CurveEvaluator:
    """Scores windows, and caches per-capacity curve points, over one archive."""

    def __init__(
        self, cfg: HesConfig, archive: SignalArchive, market: MarketParams | None = None
    ):
        matrix = archive.matrix()
        l1 = np.sum(np.abs(matrix), axis=1)
        valid = l1 > 0.0
        if not np.any(valid):
            raise ValueError("archive has no window with nonzero command movement")
        self._cfg = cfg
        self._dt = archive.dt
        self._matrix = matrix[valid]
        self._l1 = l1[valid]
        self._market = market
        self.zero_windows = int(np.sum(~valid))
        self.n_windows = int(matrix.shape[0])
        self._cache: dict[float, BidCurvePoint] = {}

    def scores(self, c: float) -> np.ndarray:
        """Per-window scores at capacity c, zero-signal windows dropped."""
        batch = rt_dispatch_batch(self._cfg, c, self._matrix, self._dt)
        return 1.0 - batch.err_sums / (c * self._l1)

    def __call__(self, c: float) -> BidCurvePoint:
        c = float(c)
        pt = self._cache.get(c)
        if pt is None:
            scores = self.scores(c)
            clamped = np.clip(scores, 0.0, 1.0)
            mean_xp = float(scores.mean())
            pt = BidCurvePoint(
                c=c,
                scores=scores,
                mean_xp=mean_xp,
                z_gamma=quantile_lower(scores, self._market.gamma),
                prob_compliant=float(np.mean(clamped >= self._market.x_p_min)),
                objective=c * mean_xp,
            )
            self._cache[c] = pt
        return pt


def solve_bid(
    cfg: HesConfig,
    archive: SignalArchive,
    market: MarketParams,
    sweep: SweepGrid,
) -> BidSolution:
    """Select the capacity bid for one archive. See module docstring.

    Raises BracketError unless z_gamma(c_lo) >= x_p_min > z_gamma(c_hi):
    the compliance boundary must lie strictly inside the sweep range.
    """
    evaluate = _CurveEvaluator(cfg, archive, market)
    pts = sweep.coarse_points()
    first = evaluate(float(pts[0]))
    if first.z_gamma < market.x_p_min:
        raise BracketError(
            f"z_gamma({pts[0]:g}) = {first.z_gamma:.6g} is already below "
            f"x_p_min = {market.x_p_min:g}; lower c_lo"
        )
    last_compliant = float(pts[0])
    upper = None
    for c in pts[1:]:
        pt = evaluate(float(c))
        if pt.z_gamma >= market.x_p_min:
            last_compliant = float(c)
        else:
            upper = float(c)
            break
    if upper is None:
        tail = evaluate(float(pts[-1]))
        raise BracketError(
            f"z_gamma({pts[-1]:g}) = {tail.z_gamma:.6g} still clears "
            f"x_p_min = {market.x_p_min:g}; raise c_hi"
        )

    # bisection-refine the crossing bracket [last_compliant, upper]
    lo, hi = last_compliant, upper
    iterations = 0
    while hi - lo > sweep.refine_tol:
        mid = 0.5 * (lo + hi)
        if evaluate(mid).z_gamma >= market.x_p_min:
            lo = mid
        else:
            hi = mid
        iterations += 1
    c_bar = lo

    evaluated = sorted(evaluate._cache)
    compliant = [c for c in evaluated if c <= c_bar]
    best = max(compliant, key=lambda c: (evaluate(c).objective, -c))
    c_hat = float(best)
    c_star = min(c_hat, market.c_max)
    evaluate(c_star)  # ensure the selected bid has a curve point

    curve_cs = sorted(evaluate._cache)
    curve = tuple(evaluate(c) for c in curve_cs)
    violations = tuple(
        b.c for a, b in zip(curve, curve[1:]) if b.z_gamma > a.z_gamma + 1e-9
    )
    diags = BidDiagnostics(
        n_windows=evaluate.n_windows,
        zero_signal_windows=evaluate.zero_windows,
        coarse_points=len(pts),
        refine_iterations=iterations,
        upper_bracket_c=hi,
        upper_bracket_z=evaluate(hi).z_gamma,
        z_monotonicity_violations=violations,
    )
    return BidSolution(
        curve=curve,
        c_bar=c_bar,
        c_hat=c_hat,
        c_star=c_star,
        market=market,
        diagnostics=diags,
    )


@dataclass(frozen=True)
class RevenueSummary:
    """Expected earnings at the selected bid."""

    c_star: float
    mean_xp: float
    capacity_only: float  # c_star * mean_xp * lambda_c
    with_mileage: float  # mean over windows of full capacity+mileage payment

    def to_dict(self) -> dict:
        return {
            "c_star": self.c_star,
            "mean_xp": self.mean_xp,
            "capacity_only": self.capacity_only,
            "with_mileage": self.with_mileage,
        }


def expected_revenue(
    solution: BidSolution, archive: SignalArchive, market: MarketParams
) -> RevenueSummary:
    """Average per-window payment at c_star over the archive."""
    pt = solution.point_at(solution.c_star)
    l1 = np.array([float(np.sum(np.abs(w.samples))) for w in archive.windows])
    miles = np.array([mileage(w) for w in archive.windows])[l1 > 0.0]
    per_window = solution.c_star * pt.scores * (market.lambda_c + market.lambda_m * miles)
    return RevenueSummary(
        c_star=solution.c_star,
        mean_xp=pt.mean_xp,
        capacity_only=solution.c_star * pt.mean_xp * market.lambda_c,
        with_mileage=float(per_window.mean()),
    )
