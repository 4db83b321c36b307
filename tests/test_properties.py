"""Bitwise properties of the priority rule's entry points, on random fleets.

Equality is checked on the bytes of each float, so 0.0 and -0.0 differ
(``np.array_equal`` would call them equal). The reference is the rule as
plain Python floats, one step at a time, which is how the rule was first
written and what the trace files were recorded from.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from hes_regkit import (
    BatteryParams,
    DispatchStep,
    GeneratorParams,
    HesConfig,
    LoadParams,
    RegSignal,
    SocState,
    closed_form_dispatch,
    rt_dispatch,
    rt_dispatch_batch,
    rt_step,
    soc_step,
)
from hes_regkit.controller import rt_error_sums

COLUMNS = ("target", "p_gen", "p_load", "p_discharge", "p_charge", "p_hes", "soc")
PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def same_bits(a, b) -> bool:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def has_negative_zero(a) -> bool:
    a = np.asarray(a)
    return bool(np.any((a == 0.0) & np.signbit(a)))


def reference_rule(cfg: HesConfig, c: float, samples: np.ndarray, e: float) -> dict:
    """The rule in plain Python floats; columns as lists, soc with e first."""
    batt = cfg.batt
    cols = {name: [] for name in COLUMNS}
    cols["soc"].append(e)
    for r_k in samples.tolist():
        target = c * r_k
        if r_k > 0.0:
            delta_d = min(
                batt.eta_d * (e - batt.soc_min) * batt.energy_capacity
                / (cfg.dt * batt.p_max),
                1.0,
            )
            p_gen = min(target, cfg.gen.p_max)
            p_load = 0.0
            p_discharge = max(0.0, min(target - p_gen, delta_d * batt.p_max))
            p_charge = 0.0
        else:
            delta_c = min(
                (batt.soc_max - e) * batt.energy_capacity
                / (batt.eta_c * cfg.dt * batt.p_max),
                1.0,
            )
            p_gen = 0.0
            p_load = min(-target, cfg.load.p_max)
            p_discharge = 0.0
            p_charge = min(0.0, max(target + p_load, -delta_c * batt.p_max))
        step = DispatchStep.from_assets(p_gen, p_load, p_discharge, p_charge)
        e = soc_step(batt, SocState(e), p_charge, p_discharge, cfg.dt).e
        cols["target"].append(target)
        for name in ("p_gen", "p_load", "p_discharge", "p_charge", "p_hes"):
            cols[name].append(getattr(step, name))
        cols["soc"].append(e)
    return cols


@st.composite
def fleets(draw) -> HesConfig:
    """Valid systems; small batteries and long steps reach the SoC bounds."""
    limit = st.one_of(st.just(0.0), st.floats(0.0, 10.0))
    soc_min = draw(st.floats(0.0, 0.4))
    soc_max = draw(st.floats(0.6, 1.0))
    soc_init = draw(
        st.one_of(st.just(soc_min), st.just(soc_max), st.floats(soc_min, soc_max))
    )
    return HesConfig(
        gen=GeneratorParams(p_max=draw(limit)),
        load=LoadParams(p_max=draw(limit)),
        batt=BatteryParams(
            p_max=draw(st.floats(0.1, 10.0)),
            energy_capacity=draw(st.floats(0.01, 20.0)),
            eta_c=draw(st.floats(0.5, 1.0)),
            eta_d=draw(st.floats(0.5, 1.0)),
            soc_min=soc_min,
            soc_max=soc_max,
            soc_init=soc_init,
        ),
        dt=draw(st.floats(1e-4, 0.25)),
    )


@st.composite
def windows(draw) -> np.ndarray:
    """(windows, steps) commands with exact 0, -0 and +-1 among them; some
    windows only push up or only pull down, so SoC drifts to a bound."""
    shape = (draw(st.integers(1, 4)), draw(st.integers(2, 40)))
    element = st.one_of(st.floats(-1.0, 1.0), st.sampled_from([-1.0, -0.0, 0.0, 1.0]))
    matrix = draw(hnp.arrays(np.float64, shape, elements=element))
    for i in range(shape[0]):
        drift = draw(st.sampled_from(["none", "up", "down"]))
        if drift == "up":
            matrix[i] = np.abs(matrix[i])
        elif drift == "down":
            matrix[i] = -np.abs(matrix[i])
    return matrix


capacities = st.floats(0.05, 30.0)


@PROPERTY
@given(cfg=fleets(), c=capacities, matrix=windows())
def test_rt_dispatch_matches_reference_bitwise(cfg, c, matrix):
    for row in matrix:
        trace = rt_dispatch(cfg, c, RegSignal(samples=row, dt=cfg.dt))
        ref = reference_rule(cfg, c, row, cfg.batt.soc_init)
        for name in COLUMNS:
            assert same_bits(getattr(trace, name), ref[name]), name
        assert not has_negative_zero(trace.p_discharge)
        assert not has_negative_zero(trace.p_charge)
        step, nxt = rt_step(cfg, c, float(row[0]), SocState(cfg.batt.soc_init))
        for name in COLUMNS[1:6]:
            assert same_bits(getattr(step, name), ref[name][0]), name
        assert same_bits(nxt.e, ref["soc"][1])


@PROPERTY
@given(cfg=fleets(), c=capacities, matrix=windows(), data=st.data())
def test_batch_rows_match_rt_dispatch_bitwise(cfg, c, matrix, data):
    batt = cfg.batt
    e0 = data.draw(st.floats(batt.soc_min, batt.soc_max))
    batch = rt_dispatch_batch(cfg, c, matrix, cfg.dt, soc_init=e0)
    assert batch.soc.shape == (matrix.shape[0], matrix.shape[1] + 1)
    for i, row in enumerate(matrix):
        trace = rt_dispatch(cfg, c, RegSignal(samples=row, dt=cfg.dt), soc_init=e0)
        assert same_bits(batch.soc[i], trace.soc)
        assert same_bits(batch.soc_final[i], trace.soc[-1])
        running = 0.0  # err_sums add step by step, in step order
        for x in np.abs(trace.target - trace.p_hes).tolist():
            running += x
        assert same_bits(batch.err_sums[i], running)


@PROPERTY
@given(cfg=fleets(), c=capacities, matrix=windows())
def test_closed_form_matches_rule_where_it_applies(cfg, c, matrix):
    for row in matrix:
        sig = RegSignal(samples=row, dt=cfg.dt)
        trace = rt_dispatch(cfg, c, sig)
        cf = closed_form_dispatch(cfg, c, sig)
        if cf is not None:
            for name in COLUMNS:
                assert same_bits(getattr(cf.trace, name), getattr(trace, name)), name


@PROPERTY
@given(cfg=fleets(), matrix=windows(), data=st.data())
def test_stacked_error_sums_match_batch_bitwise(cfg, matrix, data):
    # unsorted capacity sets, with repeats
    distinct = data.draw(st.lists(capacities, min_size=1, max_size=4))
    cs = data.draw(st.lists(st.sampled_from(distinct), min_size=1, max_size=8))
    stacked = rt_error_sums(cfg, cs, matrix, cfg.dt)
    assert stacked.shape == (len(cs), matrix.shape[0])
    for row, c in zip(stacked, cs):
        assert same_bits(row, rt_dispatch_batch(cfg, c, matrix, cfg.dt).err_sums)


bad_capacities = st.sampled_from([0.0, -0.0, -1.0, np.nan, np.inf, -np.inf])


@PROPERTY
@given(cfg=fleets(), matrix=windows(), data=st.data())
def test_stacked_error_sums_reject_bad_input(cfg, matrix, data):
    cs = data.draw(st.lists(capacities, min_size=1, max_size=4))
    bad = list(cs)
    bad.insert(data.draw(st.integers(0, len(cs))), data.draw(bad_capacities))
    with pytest.raises(ValueError, match="capacity must be"):
        rt_error_sums(cfg, bad, matrix, cfg.dt)
    with pytest.raises(ValueError, match="does not match config dt"):
        rt_error_sums(cfg, cs, matrix, 2.0 * cfg.dt)
    for shape in ((0,), (1, len(cs))):
        with pytest.raises(ValueError, match="non-empty 1-D"):
            rt_error_sums(cfg, np.ones(shape), matrix, cfg.dt)
