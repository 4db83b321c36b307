"""Asset parameter validation, SoC stepping, per-step feasibility checks."""

import dataclasses
import sys

import numpy as np
import pytest

from hes_regkit import (
    BatteryParams,
    DispatchStep,
    GeneratorParams,
    HesConfig,
    LoadParams,
    check_step_feasible,
    ensure_dispatchable,
    rt_dispatch,
    rt_step,
    soc_step,
    synth_signal,
    validate_trace,
)
from helpers import reference_system


def make_batt(**overrides):
    kwargs = dict(
        p_max=5.0,
        energy_capacity=5.0,
        eta_c=0.95,
        eta_d=0.95,
        soc_min=0.1,
        soc_max=0.9,
        soc_init=0.5,
    )
    kwargs.update(overrides)
    return BatteryParams(**kwargs)


class TestValidation:
    def test_generator_rejects_negative_floor(self):
        with pytest.raises(ValueError, match="p_min"):
            GeneratorParams(p_max=3.0, p_min=-1.0)

    def test_generator_rejects_floor_above_ceiling(self):
        with pytest.raises(ValueError):
            GeneratorParams(p_max=3.0, p_min=4.0)

    def test_load_rejects_negative_limit(self):
        with pytest.raises(ValueError):
            LoadParams(p_max=-0.5)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"p_max": 0.0},
            {"p_max": -1.0},
            {"energy_capacity": 0.0},
            {"eta_c": 0.0},
            {"eta_c": 1.2},
            {"eta_d": -0.1},
            {"soc_min": -0.01},
            {"soc_max": 1.01},
            {"soc_min": 0.6, "soc_max": 0.5},
            {"soc_init": 0.95},
            {"soc_init": 0.05},
        ],
    )
    def test_battery_rejects_bad_params(self, overrides):
        with pytest.raises(ValueError):
            make_batt(**overrides)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda v: GeneratorParams(p_max=v), "generator p_max must be finite"),
            (lambda v: LoadParams(p_max=v), "load p_max must be finite"),
        ],
        ids=["generator", "load"],
    )
    def test_asset_limits_must_be_finite(self, make, message, value):
        with pytest.raises(ValueError, match=message):
            make(value)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("field", ["p_max", "energy_capacity"])
    def test_battery_ratings_must_be_finite(self, field, value):
        with pytest.raises(ValueError, match=f"battery {field} must be finite"):
            make_batt(**{field: value})

    @pytest.mark.parametrize("dt", [float("nan"), float("inf")])
    def test_config_dt_must_be_finite(self, dt):
        with pytest.raises(ValueError, match="dt must be finite"):
            HesConfig(gen=GeneratorParams(3.0), load=LoadParams(3.0), batt=make_batt(), dt=dt)

    def test_config_rejects_nonpositive_dt(self):
        with pytest.raises(ValueError, match="dt"):
            HesConfig(
                gen=GeneratorParams(3.0), load=LoadParams(3.0), batt=make_batt(), dt=0.0
            )

    @pytest.mark.parametrize(
        "overrides, dt, message",
        [
            ({"p_max": 5e-324}, 2.0 / 3600, "dt * battery p_max = 0.0005555555555555556 * 5e-324"),
            ({"eta_c": 5e-324}, 2.0 / 3600, "battery eta_c * dt * p_max = 5e-324 * "),
            # dt * p_max is the least subnormal; 0.4 of it rounds to 0
            ({"p_max": 5e-324, "eta_c": 0.4}, 1.0, "battery eta_c * dt * p_max = 0.4 * 1.0 * "),
        ],
    )
    def test_config_rejects_a_headroom_product_that_underflows(self, overrides, dt, message):
        # the SoC headroom divides by dt * p_max and eta_c * dt * p_max
        with pytest.raises(ValueError, match="underflows to 0") as info:
            HesConfig(GeneratorParams(3.0), LoadParams(3.0), make_batt(**overrides), dt)
        assert str(info.value).startswith(message)

    def test_smallest_headroom_products_are_accepted(self):
        # both products are the least subnormal; the rule runs on it
        cfg = HesConfig(GeneratorParams(3.0), LoadParams(3.0), make_batt(p_max=5e-324), 1.0)
        assert cfg.dt * cfg.batt.p_max == cfg.batt.eta_c * cfg.dt * cfg.batt.p_max == 5e-324
        step, nxt = rt_step(cfg, 1.0, -0.5, 0.5)
        assert (step.p_load, step.p_charge, nxt) == (0.5, 0.0, 0.5)

    @pytest.mark.parametrize("eta_d", [5e-324, 1e-320, float(np.nextafter(sys.float_info.min, 0.0))])
    def test_battery_refuses_a_subnormal_eta_d(self, eta_d):
        # the rule's discharge headroom underflows there, and dividing by
        # eta_d magnified its error: the SoC reached -0.4 at 5e-324
        with pytest.raises(ValueError) as info:
            make_batt(eta_d=eta_d)
        assert str(info.value) == (
            "battery eta_d must be at least the smallest normal float "
            f"2.2250738585072014e-308, got {eta_d}"
        )

    @pytest.mark.parametrize("bias", [0.5, 0.0, -0.5])
    def test_smallest_normal_eta_d_keeps_the_soc_envelope(self, bias):
        # the full discharge step overflows to -inf; the rule derates it
        cfg = HesConfig(
            GeneratorParams(3.0), LoadParams(3.0), make_batt(eta_d=sys.float_info.min), 2.0 / 3600
        )
        sig = synth_signal("drifting", 1800, cfg.dt, 3, bias=bias, noise=0.5)
        for c in (4.0, 12.0, 20.0):
            assert validate_trace(cfg, rt_dispatch(cfg, c, sig)) == []

    def test_dispatchable_requires_zero_floor(self):
        cfg = HesConfig(
            gen=GeneratorParams(3.0, p_min=0.5),
            load=LoadParams(3.0),
            batt=make_batt(),
            dt=1.0,
        )
        with pytest.raises(ValueError, match="p_min"):
            ensure_dispatchable(cfg)
        ensure_dispatchable(reference_system())  # zero floor passes


class TestSocStep:
    def test_charging_raises_soc_with_efficiency_loss(self):
        # full-power charge for one hour: de = -0.95 * (-5) * 1 / 5 = +0.95
        batt = make_batt()
        out = soc_step(batt, 0.5, p_charge=-5.0, p_discharge=0.0, dt=1.0)
        assert out == pytest.approx(1.45, abs=1e-15)

    def test_discharging_drains_more_than_delivered(self):
        batt = make_batt()
        out = soc_step(batt, 0.5, p_charge=0.0, p_discharge=5.0, dt=1.0)
        assert out == pytest.approx(0.5 - 1.0 / 0.95, abs=1e-12)

    def test_no_clamping(self):
        # stepping is pure dynamics; envelope enforcement is a separate check
        batt = make_batt()
        out = soc_step(batt, 0.9, p_charge=-5.0, p_discharge=0.0, dt=1.0)
        assert out > batt.soc_max

    def test_two_second_interval(self):
        batt = make_batt()
        out = soc_step(batt, 0.5, p_charge=-5.0, p_discharge=0.0, dt=2 / 3600)
        assert out == pytest.approx(0.5 + 0.95 * 5.0 * (2 / 3600) / 5.0, abs=1e-15)

    def test_idle_is_exact_identity(self):
        batt = make_batt()
        assert soc_step(batt, 0.37, 0.0, 0.0, 1.0) == 0.37


class TestDispatchStep:
    def test_p_hes_combines_with_sign_convention(self):
        # the four asset powers are the fields; p_hes is derived from them
        step = DispatchStep(3.0, 1.0, 2.0, -0.5)
        assert [f.name for f in dataclasses.fields(step)] == [
            "p_gen", "p_load", "p_discharge", "p_charge"
        ]
        assert step.p_hes == 3.0 - 1.0 + 2.0 - 0.5

    def test_charge_counts_negative(self):
        assert DispatchStep(0.0, 0.0, 0.0, -4.0).p_hes == -4.0


class TestFeasibility:
    def setup_method(self):
        self.cfg = reference_system()

    def check(self, *powers, e_next=0.5, **tols):
        return check_step_feasible(self.cfg, DispatchStep(*powers), e_next, **tols)

    def test_clean_step_passes(self):
        assert self.check(3.0, 0.0, 5.0, 0.0, e_next=0.4) == ()

    def test_generator_violation(self):
        violations = self.check(3.5, 0.0, 0.0, 0.0)
        assert violations
        assert any("generator" in v for v in violations)

    def test_load_violation(self):
        assert any("load" in v for v in self.check(0.0, 3.2, 0.0, 0.0))

    def test_battery_power_violations(self):
        assert any("discharge" in v for v in self.check(0.0, 0.0, 5.5, 0.0))
        assert any("charge" in v for v in self.check(0.0, 0.0, 0.0, -5.5))

    def test_complementarity_violation(self):
        assert any("complementarity" in v for v in self.check(0.0, 0.0, 1.0, -1.0))

    def test_soc_violation(self):
        assert any("soc" in v for v in self.check(0.0, 0.0, 0.0, 0.0, e_next=0.95))
        assert any("soc" in v for v in self.check(0.0, 0.0, 0.0, 0.0, e_next=0.05))

    def test_multiple_violations_all_reported(self):
        assert len(self.check(4.0, 0.0, 6.0, -1.0, e_next=1.2)) >= 3

    def test_power_tolerance_edge(self):
        assert self.check(0.0, 0.0, 5.0 + 5e-10, 0.0) == ()
        assert self.check(0.0, 0.0, 5.0 + 1e-8, 0.0) != ()

    def test_soc_tolerance_edge(self):
        assert self.check(0.0, 0.0, 0.0, 0.0, e_next=0.9 + 5e-13) == ()
        assert self.check(0.0, 0.0, 0.0, 0.0, e_next=0.9 + 1e-11) != ()

    def test_custom_tolerances(self):
        assert self.check(0.0, 0.0, 5.001, 0.0, power_tol=0.01) == ()
