"""Performance score and revenue arithmetic."""

import numpy as np
import pytest

from hes_regkit import (
    DispatchTrace,
    MarketParams,
    RegSignal,
    ZeroSignalError,
    make_report,
    performance_score,
    revenue,
    rt_dispatch,
    synth_signal,
)
from helpers import DT_2S, reference_market, reference_system


def trace_for(target, p_hes, soc0=0.5):
    n = len(target)
    z = np.zeros(n)
    return DispatchTrace(
        target=np.asarray(target, float),
        p_gen=np.asarray(p_hes, float),  # attribute everything to the generator
        p_load=z,
        p_discharge=z,
        p_charge=z,
        p_hes=np.asarray(p_hes, float),
        soc=np.full(n + 1, soc0),
    )


class TestScore:
    def test_perfect_tracking_scores_one(self):
        sig = RegSignal(samples=np.array([0.5, -0.5, 1.0]), dt=1.0)
        trace = trace_for(2.0 * sig.samples, 2.0 * sig.samples)
        assert performance_score(2.0, sig, trace) == 1.0

    def test_hand_value(self):
        # errors 1 and 1 against C*l1 = 2*2: score 0.5
        sig = RegSignal(samples=np.array([1.0, -1.0]), dt=1.0)
        trace = trace_for([2.0, -2.0], [1.0, -1.0])
        assert performance_score(2.0, sig, trace) == pytest.approx(0.5, abs=1e-15)

    def test_doing_nothing_scores_zero(self):
        sig = RegSignal(samples=np.array([0.5, -0.25, 0.75]), dt=1.0)
        trace = trace_for(4.0 * sig.samples, np.zeros(3))
        assert performance_score(4.0, sig, trace) == pytest.approx(0.0, abs=1e-15)

    def test_opposing_dispatch_goes_negative(self):
        sig = RegSignal(samples=np.array([1.0, 1.0]), dt=1.0)
        trace = trace_for([2.0, 2.0], [-2.0, -2.0])
        assert performance_score(2.0, sig, trace) == pytest.approx(-1.0, abs=1e-15)

    def test_zero_signal_raises(self):
        sig = RegSignal(samples=np.zeros(4), dt=1.0)
        trace = trace_for(np.zeros(4), np.zeros(4))
        with pytest.raises(ZeroSignalError):
            performance_score(2.0, sig, trace)

    def test_capacity_must_be_positive(self):
        sig = RegSignal(samples=np.array([1.0, -1.0]), dt=1.0)
        trace = trace_for([1.0, -1.0], [1.0, -1.0])
        with pytest.raises(ValueError, match="capacity"):
            performance_score(0.0, sig, trace)

    def test_length_mismatch(self):
        sig = RegSignal(samples=np.array([1.0, -1.0, 0.5]), dt=1.0)
        trace = trace_for([1.0, -1.0], [1.0, -1.0])
        with pytest.raises(ValueError, match="steps"):
            performance_score(1.0, sig, trace)


class TestRevenue:
    def test_hand_value(self):
        market = reference_market()
        # 10 MW at score 0.9, mileage 100: 10 * 0.9 * (40 + 10*100)
        assert revenue(10.0, 0.9, market, 100.0) == pytest.approx(9360.0, abs=1e-9)

    def test_scales_linearly_in_capacity(self):
        market = reference_market()
        assert revenue(4.0, 0.8, market, 10.0) == pytest.approx(
            2 * revenue(2.0, 0.8, market, 10.0), abs=1e-9
        )

    def test_rejects_bad_inputs(self):
        market = reference_market()
        with pytest.raises(ValueError):
            revenue(-1.0, 0.9, market, 10.0)
        with pytest.raises(ValueError):
            revenue(1.0, 0.9, market, -1.0)


class TestMarketParams:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"lambda_c": -1.0},
            {"lambda_m": -0.5},
            {"x_p_min": 0.0},
            {"x_p_min": 1.1},
            {"gamma": 0.0},
            {"gamma": 1.0},
            {"c_max": 0.0},
        ],
    )
    def test_validation(self, overrides):
        with pytest.raises(ValueError):
            reference_market(**overrides)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("field", ["lambda_c", "lambda_m", "c_max"])
    def test_prices_and_cap_must_be_finite(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            reference_market(**{field: value})


class TestReport:
    def test_consistent_with_parts(self):
        cfg = reference_system()
        market = reference_market()
        sig = synth_signal("energy-neutral-random", 200, DT_2S, 8)
        trace = rt_dispatch(cfg, 9.0, sig)
        report = make_report(9.0, sig, trace, market)
        assert report.x_p == performance_score(9.0, sig, trace)
        assert report.abs_error == trace.abs_error()
        assert report.revenue == pytest.approx(
            9.0 * report.x_p * (40.0 + 10.0 * report.mileage), rel=1e-12
        )
        d = report.to_dict()
        assert set(d) == {"c", "x_p", "abs_error", "mileage", "revenue"}
