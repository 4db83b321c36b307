"""Performance scoring and revenue for regulation service.

The market grades tracking quality with
    x_p = 1 - sum|C r[k] - p_hes[k]| / (C * sum|r[k]|)
and pays capacity and mileage on it:
    revenue = C * x_p * (lambda_c + lambda_m * M),  M = sum|r[k+1] - r[k]|.

x_p is 1 for perfect tracking and can go negative for dispatch worse than
doing nothing; report consumers clamp to [0, 1] where that matters.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .controller import DispatchTrace
from .model import _require_finite
from .signals import RegSignal, mileage

__all__ = [
    "ZeroSignalError",
    "MarketParams",
    "PerformanceReport",
    "performance_score",
    "revenue",
    "make_report",
]


class ZeroSignalError(ValueError):
    """Window with sum|r| = 0; the score is undefined there."""


@dataclass(frozen=True)
class MarketParams:
    """Market-side constants for bidding.

    lambda_c  capacity price, $/MW per window
    lambda_m  mileage price, $/MW of movement
    x_p_min   compliance threshold on the score
    gamma     confidence level for the score's lower quantile
    c_max     market cap on the capacity bid, MW
    """

    lambda_c: float
    lambda_m: float
    x_p_min: float
    gamma: float
    c_max: float

    def __post_init__(self) -> None:
        _require_finite("", self, "lambda_c", "lambda_m", "c_max")
        if self.lambda_c < 0.0 or self.lambda_m < 0.0:
            raise ValueError(
                f"prices must be >= 0, got lambda_c={self.lambda_c}, "
                f"lambda_m={self.lambda_m}"
            )
        if not 0.0 < self.x_p_min <= 1.0:
            raise ValueError(f"x_p_min must be in (0, 1], got {self.x_p_min}")
        if not 0.0 < self.gamma < 1.0:
            raise ValueError(f"gamma must be in (0, 1), got {self.gamma}")
        if self.c_max <= 0.0:
            raise ValueError(f"c_max must be > 0 MW, got {self.c_max}")


@dataclass(frozen=True)
class PerformanceReport:
    """Score and earnings of one dispatched window."""

    c: float
    x_p: float
    abs_error: float
    mileage: float
    revenue: float

    def to_dict(self) -> dict:
        return asdict(self)


def performance_score(c: float, sig: RegSignal, trace: DispatchTrace) -> float:
    """Tracking score of one window. Raises ZeroSignalError on a flat window."""
    if c <= 0.0:
        raise ValueError(f"capacity must be > 0 MW, got {c}")
    if trace.n_steps != sig.n:
        raise ValueError(
            f"trace has {trace.n_steps} steps, signal has {sig.n} samples"
        )
    l1 = float(np.sum(np.abs(sig.samples)))
    if l1 == 0.0:
        raise ZeroSignalError("sum|r| = 0, performance score undefined")
    return 1.0 - trace.abs_error() / (c * l1)


def revenue(c: float, x_p: float, market: MarketParams, sig_mileage: float) -> float:
    """Window payment at capacity c given score and signal mileage."""
    if c <= 0.0:
        raise ValueError(f"capacity must be > 0 MW, got {c}")
    if sig_mileage < 0.0:
        raise ValueError(f"mileage must be >= 0, got {sig_mileage}")
    return c * x_p * (market.lambda_c + market.lambda_m * sig_mileage)


def make_report(
    c: float, sig: RegSignal, trace: DispatchTrace, market: MarketParams
) -> PerformanceReport:
    x_p = performance_score(c, sig, trace)
    m = mileage(sig)
    return PerformanceReport(
        c=c,
        x_p=x_p,
        abs_error=trace.abs_error(),
        mileage=m,
        revenue=revenue(c, x_p, market, m),
    )
