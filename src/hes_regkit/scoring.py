"""Performance scoring and revenue for regulation service.

The market grades tracking quality with
    x_p = 1 - sum|C r[k] - p_hes[k]| / (C * sum|r[k]|)
and pays capacity and mileage on it:
    revenue = C * x_p * (lambda_c + lambda_m * M),  M = sum|r[k+1] - r[k]|.

x_p is 1 for perfect tracking and can go negative for dispatch worse than
doing nothing; report consumers clamp to [0, 1] where that matters.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .controller import DispatchTrace
from .model import _require_finite
from .signals import mileage

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


def _check_finite(**values: float) -> None:
    """Refuse a NaN or infinite argument, naming it."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


def performance_score(trace: DispatchTrace) -> float:
    """Tracking score of one window's trace, at its capacity and commands.
    Raises ZeroSignalError on a flat window."""
    l1 = float(np.sum(np.abs(trace.r)))
    if l1 == 0.0:
        raise ZeroSignalError("sum|r| = 0, performance score undefined")
    return 1.0 - trace.abs_error() / (trace.c * l1)


def revenue(c: float, x_p: float, market: MarketParams, sig_mileage: float) -> float:
    """Window payment at capacity c given score and signal mileage."""
    _check_finite(c=c, x_p=x_p, sig_mileage=sig_mileage)
    if c <= 0.0:
        raise ValueError(f"capacity must be > 0 MW, got {c}")
    if sig_mileage < 0.0:
        raise ValueError(f"mileage must be >= 0, got {sig_mileage}")
    return c * x_p * (market.lambda_c + market.lambda_m * sig_mileage)


def make_report(trace: DispatchTrace, market: MarketParams) -> PerformanceReport:
    """Score and earnings of one window's trace."""
    x_p = performance_score(trace)
    m = mileage(trace.r)
    return PerformanceReport(
        c=trace.c,
        x_p=x_p,
        abs_error=trace.abs_error(),
        mileage=m,
        revenue=revenue(trace.c, x_p, market, m),
    )
