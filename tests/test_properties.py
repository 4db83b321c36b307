"""Bitwise properties of the priority rule's entry points, on random fleets,
of signal CSV ingest, on random file text, of ingest's decimal kernel, on
random fields, and of the trace CSV round trip; and the SoC envelope at
every dispatch entry point.

Equality is checked on the bytes of each float, so 0.0 and -0.0 differ
(``np.array_equal`` would call them equal). The rule's reference is the rule
as plain Python floats, one step at a time, which is how the rule was first
written and what the trace files were recorded from. The ingest reference is
the line-by-line reader every file once went through, the kernel's is
float() on each field, and the envelope check's is the per-step loop
validate_trace once ran.
"""

import contextlib
import dataclasses
import math
import tempfile
import warnings
from decimal import Decimal, localcontext
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from hes_regkit import (
    POWER_TOL,
    SOC_TOL,
    BatteryParams,
    DispatchStep,
    DispatchTrace,
    EmptyArchiveError,
    GeneratorParams,
    HesConfig,
    LoadParams,
    RegSignal,
    SignalError,
    SignalParseError,
    SignalRangeError,
    check_step_feasible,
    closed_form_dispatch,
    dp_oracle,
    load_archive,
    load_trace_csv,
    offline_dispatch,
    rt_dispatch,
    rt_dispatch_batch,
    rt_step,
    save_signal,
    save_trace_csv,
    soc_step,
    validate_trace,
)
from hes_regkit import controller, signals
from hes_regkit.controller import rt_error_sums
from hes_regkit.model import soc_change
from helpers import (
    DT_2S, random_capacity, random_signal, random_system, reference_system, same_bits,
)

COLUMNS = ("target", "p_gen", "p_load", "p_discharge", "p_charge", "p_hes", "soc")
PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)


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
        step = DispatchStep(p_gen, p_load, p_discharge, p_charge)
        e = soc_step(batt, e, p_charge, p_discharge, cfg.dt)
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
@example(  # rounding leaves the headroom a hair below 0 at the SoC floor
    cfg=HesConfig(
        gen=GeneratorParams(p_max=0.0),
        load=LoadParams(p_max=0.0),
        batt=BatteryParams(
            p_max=1.0, energy_capacity=1.0, eta_c=1.0, eta_d=1.0,
            soc_min=7.368990982424278e-208, soc_init=7.368990982424278e-208,
        ),
        dt=0.25,
    ),
    c=1.0,
    matrix=np.array([[-1.0, 1.0, -1.0]]),
)
def test_rt_dispatch_matches_reference_bitwise(cfg, c, matrix):
    for row in matrix:
        trace = rt_dispatch(cfg, c, RegSignal(samples=row, dt=cfg.dt))
        ref = reference_rule(cfg, c, row, cfg.batt.soc_init)
        for name in COLUMNS:
            assert same_bits(getattr(trace, name), ref[name]), name
        assert not has_negative_zero(trace.p_discharge)
        assert not has_negative_zero(trace.p_charge)
        step, nxt = rt_step(cfg, c, float(row[0]), cfg.batt.soc_init)
        for name in COLUMNS[1:6]:
            assert same_bits(getattr(step, name), ref[name][0]), name
        assert same_bits(nxt, ref["soc"][1])


@PROPERTY
@given(cfg=fleets(), c=capacities, matrix=windows(), data=st.data())
def test_batch_rows_match_rt_dispatch_bitwise(cfg, c, matrix, data):
    batt = cfg.batt
    e0 = data.draw(st.floats(batt.soc_min, batt.soc_max))
    cfg = HesConfig(cfg.gen, cfg.load, dataclasses.replace(batt, soc_init=e0), cfg.dt)
    batch = rt_dispatch_batch(cfg, c, matrix, cfg.dt)
    assert batch.soc.shape == (matrix.shape[0], matrix.shape[1] + 1)
    for i, row in enumerate(matrix):
        trace = rt_dispatch(cfg, c, RegSignal(samples=row, dt=cfg.dt))
        assert same_bits(batch.soc[i], trace.soc)
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


@pytest.mark.parametrize("shape", ["1 x 1", "1 x W", "many x 1"])
@pytest.mark.parametrize("block", ["one step", "ragged", "whole window"])
@settings(PROPERTY, max_examples=50)
@given(cfg=fleets(), matrix=windows(), data=st.data())
def test_error_sums_same_for_every_step_block(shape, block, cfg, matrix, data):
    # shapes are capacities x windows; a budget counts capacities x windows x steps
    n_caps = data.draw(st.integers(2, 6)) if shape == "many x 1" else 1
    cs = data.draw(st.lists(capacities, min_size=n_caps, max_size=n_caps))
    if shape != "1 x W":
        matrix = matrix[:1]
    n_steps = matrix.shape[1]
    per_step = len(cs) * matrix.shape[0]
    # n // 2 + 1 steps per block leave a shorter last block where n >= 3
    budget = {"one step": 1, "ragged": (n_steps // 2 + 1) * per_step,
              "whole window": n_steps * per_step}[block]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(controller, "_STEP_BLOCK_ELEMENTS", budget)
        stacked = rt_error_sums(cfg, cs, matrix, cfg.dt)
    for row, c in zip(stacked, cs):
        assert same_bits(row, rt_dispatch_batch(cfg, c, matrix, cfg.dt).err_sums)


SIGNED_COMMANDS = [0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0]


@pytest.mark.parametrize("c", [0.05, 2.0], ids=["c*r underflows", "c*r does not"])
@pytest.mark.parametrize("gen_max", [-0.0, 0.0, 3.0])
@pytest.mark.parametrize("load_max", [-0.0, 0.0, 3.0])
def test_split_corner_cases_match_reference_bitwise(c, gen_max, load_max):
    # signed zeros, the smallest subnormals and full commands, at zero and
    # non-zero limits; a battery that stays interior, so the closed form holds
    cfg = HesConfig(
        gen=GeneratorParams(p_max=gen_max),
        load=LoadParams(p_max=load_max),
        batt=BatteryParams(p_max=2.0, energy_capacity=1.0, soc_init=0.5),
        dt=0.01,
    )
    assert not np.signbit(cfg.gen.p_max) and not np.signbit(cfg.load.p_max)
    row = np.array(SIGNED_COMMANDS)
    matrix = np.stack([row, row[::-1], *(np.full(row.size, r) for r in SIGNED_COMMANDS)])
    refs = [reference_rule(cfg, c, r, 0.5) for r in matrix]
    # the rule's one signed zero: p_load is -0.0 where r is +0.0, and 0.0
    # where r > 0, also where c * r underflows to +0.0
    p_load = refs[0]["p_load"]
    assert [math.copysign(1.0, x) for x in p_load[:3]] == [-1.0, 1.0, 1.0]
    assert (refs[0]["target"][2] == 0.0) == (c == 0.05)
    batch = rt_dispatch_batch(cfg, c, matrix, cfg.dt)
    stacked = rt_error_sums(cfg, [c, 3.0 * c], matrix, cfg.dt)
    for i, (r, ref) in enumerate(zip(matrix, refs)):
        sig = RegSignal(samples=r, dt=cfg.dt)
        cf = closed_form_dispatch(cfg, c, sig)
        assert cf is not None
        for trace in (rt_dispatch(cfg, c, sig), cf.trace):
            for name in COLUMNS:
                assert same_bits(getattr(trace, name), ref[name]), (i, name)
        assert same_bits(batch.soc[i], ref["soc"]), i
        assert same_bits(batch.err_sums[i], reference_error_sum(ref)), i
        assert same_bits(stacked[0, i], reference_error_sum(ref)), i
        assert same_bits(
            stacked[1, i], reference_error_sum(reference_rule(cfg, 3.0 * c, r, 0.5))
        ), i


def prefix_system(e0: float) -> HesConfig:
    """From SoC 0.5 the route leaves windows of up to k* = 16 steps
    unchecked (free_steps), from 0.3 up to 8, and from either bound none."""
    return HesConfig(
        gen=GeneratorParams(p_max=1.0),
        load=LoadParams(p_max=0.5),
        batt=BatteryParams(
            p_max=2.0, energy_capacity=1.0, eta_c=0.9, eta_d=0.85,
            soc_min=0.1, soc_max=0.9, soc_init=e0,
        ),
        dt=0.01,
    )


def free_steps(cfg: HesConfig, e0: float, n_steps: int) -> int:
    """k*: the longest window, up to n_steps, that controller._route sends
    unchecked from SoC e0, by bisection over the length (the route's reach
    grows with it)."""
    lo, hi = 0, n_steps
    while lo < hi:
        mid = (lo + hi + 1) // 2
        lo, hi = (lo, mid - 1) if controller._route(cfg, e0, mid) else (mid, hi)
    return lo


def reference_error_sum(ref: dict) -> float:
    running = 0.0  # step by step, in step order
    for t, p in zip(ref["target"], ref["p_hes"]):
        running += abs(t - p)
    return running


def prefix_windows(n_steps: int) -> np.ndarray:
    """Commands that pull the battery at full power one way or the other,
    so that the steps after the prefix reach a bound, and two that wander."""
    rng = np.random.default_rng(9)
    steps = np.arange(n_steps)
    return np.stack([
        np.ones(n_steps), -np.ones(n_steps), np.where(steps % 3, 0.9, -1.0),
        rng.uniform(-1.0, 1.0, n_steps),
    ])


@pytest.mark.parametrize(
    "e0, n_steps, steps_per_block, k_star",
    [
        pytest.param(0.1, 40, None, 0, id="k* 0 at the floor"),
        pytest.param(0.9, 40, None, 0, id="k* 0 at the ceiling"),
        pytest.param(0.5, 40, None, 16, id="ends mid-window"),
        pytest.param(0.5, 40, 5, 16, id="ends inside a step block"),
        pytest.param(0.3, 40, 4, 8, id="ends at a step block's end"),
        pytest.param(0.5, 12, 5, 12, id="covers the window"),
    ],
)
def test_prefix_entry_points_match_reference_bitwise(e0, n_steps, steps_per_block, k_star):
    cfg = prefix_system(e0)
    pb = cfg.batt.p_max
    matrix = prefix_windows(n_steps)
    assert free_steps(cfg, e0, n_steps) == k_star
    cs = [0.7, 3.0, 9.0]  # at 9 MW the battery is asked for more than p_max
    refs = {(c, i): reference_rule(cfg, c, row, e0) for c in cs for i, row in enumerate(matrix)}
    # past the prefix the rule's headroom binds: the loop's steps are tested too
    binds = min(refs[(9.0, 0)]["p_discharge"]) < pb or max(refs[(9.0, 1)]["p_charge"]) > -pb
    assert binds == (k_star < n_steps)
    for (c, i), ref in refs.items():
        trace = rt_dispatch(cfg, c, RegSignal(samples=matrix[i], dt=cfg.dt))
        for name in COLUMNS:
            assert same_bits(getattr(trace, name), ref[name]), (c, i, name)
    with pytest.MonkeyPatch.context() as mp:
        # both many-window entry points run steps_per_block steps a block:
        # the batch's kept SoC path crosses the blocks' boundaries too
        if steps_per_block is not None:
            mp.setattr(controller, "_STEP_BLOCK_ELEMENTS", steps_per_block * matrix.shape[0])
        for c in cs:
            batch = rt_dispatch_batch(cfg, c, matrix, cfg.dt)
            for i in range(matrix.shape[0]):
                assert same_bits(batch.soc[i], refs[(c, i)]["soc"]), (c, i)
                assert same_bits(batch.err_sums[i], reference_error_sum(refs[(c, i)])), (c, i)
        if steps_per_block is not None:
            per_step = len(cs) * matrix.shape[0]
            mp.setattr(controller, "_STEP_BLOCK_ELEMENTS", steps_per_block * per_step)
        stacked = rt_error_sums(cfg, cs, matrix, cfg.dt)
    for j, c in enumerate(cs):
        for i in range(matrix.shape[0]):
            assert same_bits(stacked[j, i], reference_error_sum(refs[(c, i)])), (c, i)


# the reference battery's full-headroom interval [e_lo, e_hi] at 2 s and 60
# s steps: full discharge from e_lo up, full charge up to e_hi
THRESHOLDS = {
    2: (0.10058479532163744, 0.8994722222222222),
    60: (0.11754385964912281, 0.8841666666666667),
}


def assert_thresholds_tight(cfg: HesConfig, e_lo: float, e_hi: float) -> None:
    """Full headroom holds at each threshold and not one ulp outside it."""
    pb = cfg.batt.p_max
    assert controller._headroom(cfg, e_lo)[0] == pb
    assert controller._headroom(cfg, math.nextafter(e_lo, -math.inf))[0] < pb
    assert controller._headroom(cfg, e_hi)[1] == -pb
    assert controller._headroom(cfg, math.nextafter(e_hi, math.inf))[1] > -pb


def test_reference_battery_prefix():
    # 5 MW / 5 MWh at 0.95 one way, SoC in [0.1, 0.9] from 0.5, 2 s steps
    cfg = reference_system()
    assert free_steps(cfg, 0.5, 10**6) == 683
    assert free_steps(cfg, 0.5, 180) == 180
    assert free_steps(cfg, 0.1, 180) == 0
    assert_thresholds_tight(cfg, *THRESHOLDS[2])


def assert_scored_without_the_split(cfg: HesConfig, cs, matrix, e0: float) -> None:
    """rt_error_sums with the rule's split and battery share made to raise,
    so that only the whole-prefix route can run, against the reference rule
    bitwise."""
    def unused(*args, **kwargs):
        raise AssertionError("the whole-prefix route ran the rule's split")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(controller, "_split_command", unused)
        mp.setattr(controller, "_battery_share", unused)
        stacked = rt_error_sums(cfg, cs, matrix, cfg.dt)
    for j, c in enumerate(cs):
        for i, r in enumerate(matrix):
            ref = reference_error_sum(reference_rule(cfg, c, r, e0))
            assert same_bits(stacked[j, i], ref), (c, i)


@pytest.mark.parametrize(
    "gen_max, load_max",
    [(1.5, 0.75), (0.75, 1.5), (1.5, 0.0), (0.0, 1.5), (0.0, 0.0), (-0.0, 1.5), (1.5, 1.5)],
)
def test_whole_prefix_scoring_runs_no_split(gen_max, load_max):
    # limits exact in binary, so that at c = 8 commands land on each knee of
    # the rule: gen.p_max, gen.p_max + batt.p_max and their load twins
    cfg = HesConfig(
        gen=GeneratorParams(p_max=gen_max),
        load=LoadParams(p_max=load_max),
        batt=BatteryParams(p_max=2.0, energy_capacity=1.0, soc_init=0.5),
        dt=0.01,
    )
    pb = cfg.batt.p_max
    knees = [gen_max, gen_max + pb, -load_max, -(load_max + pb)]
    row = np.array(SIGNED_COMMANDS + [k / 8.0 for k in knees])
    assert (8.0 * row[len(SIGNED_COMMANDS):]).tolist() == knees
    matrix = np.stack([row, row[::-1], *(np.full(row.size, r) for r in row)])
    assert free_steps(cfg, 0.5, row.size) == row.size
    # c * r underflows at 0.05
    assert_scored_without_the_split(cfg, [8.0, 0.05, 2.0, 16.0], matrix, 0.5)


@PROPERTY
@given(cfg=fleets(), matrix=windows(), data=st.data())
def test_whole_prefix_scoring_matches_reference_bitwise(cfg, matrix, data):
    # from mid-envelope, with dt cut so that the window fits in the prefix
    batt = cfg.batt
    n = matrix.shape[1]
    half = 0.5 * (batt.soc_max - batt.soc_min)
    dt = min(cfg.dt, 0.5 * half * batt.energy_capacity * batt.eta_d / (batt.p_max * (n + 1)))
    e0 = batt.soc_min + half
    cfg = HesConfig(cfg.gen, cfg.load, dataclasses.replace(batt, soc_init=e0), dt)
    assert free_steps(cfg, e0, n) == n
    cs = data.draw(st.lists(capacities, min_size=1, max_size=4))
    assert_scored_without_the_split(cfg, cs, matrix, e0)


QUIET_LIMITS = [0.0, 5e-324, 0.1, 0.3, 3.0, 1e300]


def quiet_system(gen_max: float, load_max: float, batt_max: float) -> HesConfig:
    """A battery so large for its power that every short window is
    unchecked (_route), so bid scoring may skip quiet rows (_quiet)."""
    return HesConfig(
        gen=GeneratorParams(p_max=gen_max),
        load=LoadParams(p_max=load_max),
        batt=BatteryParams(p_max=batt_max, energy_capacity=1e3, soc_init=0.5),
        dt=DT_2S,
    )


def assert_quiet_rows_change_no_bit(cfg: HesConfig, cs, matrix) -> np.ndarray:
    """rt_error_sums against the same call with no row quiet, bitwise;
    returns the sums."""
    assert not controller._route(cfg, cfg.batt.soc_init, matrix.shape[1])
    sums = rt_error_sums(cfg, cs, matrix, cfg.dt)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(controller, "_quiet", lambda cfg, cs, r_lo, r_hi: np.zeros(len(cs), bool))
        streamed = rt_error_sums(cfg, cs, matrix, cfg.dt)
    for j, c in enumerate(cs):
        assert same_bits(sums[j], streamed[j]), c
    return sums


@pytest.mark.parametrize(
    "gen_max, batt_max, c, error",
    [
        # 0.1 is no multiple of ulp(0.49999999999999994) = 2**-54
        (0.1, 5.0, 0.49999999999999994, 2.0**-54),
        # nextafter(8, 9) - 3 is exact, but one ulp of 8 past the battery
        (3.0, 5.0, math.nextafter(8.0, 9.0), 2.0**-49),
    ],
    ids=["limit no multiple of the ulp", "one ulp past the battery"],
)
def test_rows_just_past_the_quiet_edge_are_streamed(gen_max, batt_max, c, error):
    cfg = quiet_system(gen_max, 3.0, batt_max)
    matrix = np.array([[1.0, 0.5, -0.25]])
    assert not controller._quiet(cfg, np.array([c]), -0.25, 1.0)[0]
    assert assert_quiet_rows_change_no_bit(cfg, [c], matrix)[0, 0] == error


@PROPERTY
@given(
    gen_max=st.sampled_from(QUIET_LIMITS),
    load_max=st.sampled_from(QUIET_LIMITS),
    batt_max=st.sampled_from([0.1, 5.0]),
    data=st.data(),
)
def test_quiet_rows_match_streamed_rows_bitwise(gen_max, load_max, batt_max, data):
    # capacities at each edge of _quiet's two tests, on each side, and one
    # ulp either way: the largest command times c at a limit, or at a limit
    # plus batt.p_max
    cfg = quiet_system(gen_max, load_max, batt_max)
    r_hi = data.draw(st.one_of(st.just(1.0), st.floats(0.01, 1.0)))
    r_lo = -data.draw(st.one_of(st.just(1.0), st.floats(0.01, 1.0)))
    matrix = data.draw(hnp.arrays(
        np.float64, (data.draw(st.integers(1, 3)), data.draw(st.integers(2, 20))),
        elements=st.one_of(st.floats(r_lo, r_hi), st.sampled_from([r_lo, r_hi, 0.0])),
    ))
    matrix[0, :2] = r_hi, r_lo
    edges = []
    for limit, r in ((gen_max, r_hi), (load_max, -r_lo)):
        for edge in (limit, limit + batt_max):
            c = edge / r
            edges += [math.nextafter(c, 0.0), c, math.nextafter(c, math.inf)]
    edges = [c for c in edges if 0.0 < c < math.inf]
    cs = data.draw(st.lists(st.sampled_from(edges), min_size=1, max_size=6))
    assert_quiet_rows_change_no_bit(cfg, cs, matrix)


def soc_near_a_threshold(data, cfg: HesConfig) -> float:
    """An initial SoC anywhere in the envelope, or a few full steps from
    where the headroom starts to bind."""
    batt = cfg.batt
    m_dis = -soc_change(batt, 0.0, batt.p_max, cfg.dt)
    m_ch = soc_change(batt, -batt.p_max, 0.0, cfg.dt)
    steps = data.draw(st.integers(0, 40)) + data.draw(st.floats(0.0, 1.0))
    e0 = data.draw(st.sampled_from([
        data.draw(st.floats(batt.soc_min, batt.soc_max)),
        batt.soc_min + m_dis * (1.0 + steps),
        batt.soc_max - m_ch * (1.0 + steps),
    ]))
    return min(max(e0, batt.soc_min), batt.soc_max)


@PROPERTY
@given(cfg=fleets(), data=st.data())
def test_prefix_never_outlasts_full_headroom(cfg, data):
    # at full power one way, the reference rule's headroom binds as early as
    # any command can make it; it must not bind before step k*
    batt = cfg.batt
    e0 = soc_near_a_threshold(data, cfg)
    k_star = free_steps(cfg, e0, 10**9)
    n_steps = min(k_star + 3, 3000)
    up = data.draw(st.booleans())
    limit = cfg.gen.p_max if up else cfg.load.p_max
    c = 2.0 * (batt.p_max + limit) + data.draw(st.floats(0.0, 10.0))
    ref = reference_rule(cfg, c, np.full(n_steps, 1.0 if up else -1.0), e0)
    free = min(k_star, n_steps)
    if up:
        assert ref["p_discharge"][:free] == [batt.p_max] * free
    else:
        assert ref["p_charge"][:free] == [-batt.p_max] * free


@contextlib.contextmanager
def loop_only_route():
    """Every window steps the battery through the loop at every step: each
    is checked (_route), and no state has full headroom (_full). rt_step
    steps at its state's headroom either way."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(controller, "_route", lambda cfg, e0, n_steps: True)
        mp.setattr(controller, "_full", lambda cfg, lo, hi: np.zeros(np.shape(lo), dtype=bool))
        yield


def assert_loop_only_bits(cfg: HesConfig, c: float, cs, matrix):
    """Every entry point, from cfg.batt.soc_init, against the loop-only
    route bitwise: rt_step on the first command, rt_dispatch on every
    window, rt_dispatch_batch and rt_error_sums. Returns the loop-only
    batch."""
    e0 = cfg.batt.soc_init

    def every_entry_point():
        return (
            rt_step(cfg, c, float(matrix[0, 0]), e0),
            [rt_dispatch(cfg, c, RegSignal(samples=row, dt=cfg.dt)) for row in matrix],
            rt_dispatch_batch(cfg, c, matrix, cfg.dt),
            rt_error_sums(cfg, cs, matrix, cfg.dt),
        )

    default = every_entry_point()
    with loop_only_route():
        loop_only = every_entry_point()
    (step, nxt), traces, batch, sums = default
    (step0, nxt0), traces0, batch0, sums0 = loop_only
    for name in COLUMNS[1:6]:
        assert same_bits(getattr(step, name), getattr(step0, name)), name
    assert same_bits(nxt, nxt0)
    for i, (trace, trace0) in enumerate(zip(traces, traces0)):
        for name in COLUMNS:
            assert same_bits(getattr(trace, name), getattr(trace0, name)), (i, name)
    for name in ("err_sums", "soc"):
        assert same_bits(getattr(batch, name), getattr(batch0, name)), name
    assert same_bits(sums, sums0)
    return batch0


@PROPERTY
@given(cfg=fleets(), c=capacities, matrix=windows(), data=st.data())
def test_loop_only_route_gives_the_same_bits(cfg, c, matrix, data):
    e0 = soc_near_a_threshold(data, cfg)
    cfg = HesConfig(cfg.gen, cfg.load, dataclasses.replace(cfg.batt, soc_init=e0), cfg.dt)
    assert_loop_only_bits(cfg, c, [c, 0.5 * c, 2.0 * c], matrix)


@st.composite
def banded_fleets(draw) -> HesConfig:
    """Fleets from mid-envelope whose full discharge moves the SoC 1/k of
    its span a step, k from 3 to 40: a window of k steps at full power
    reaches the band, the last full-power step before a SoC bound."""
    cfg = draw(fleets())
    batt = cfg.batt
    span = batt.soc_max - batt.soc_min
    k = draw(st.integers(3, 40))
    dt = span * batt.energy_capacity * batt.eta_d / (batt.p_max * k)
    batt = dataclasses.replace(batt, soc_init=batt.soc_min + 0.5 * span)
    return HesConfig(cfg.gen, cfg.load, batt, dt)


def saturating_capacity(cfg: HesConfig, data) -> float:
    """A capacity at which a full command asks the battery for more than
    p_max, either way."""
    reach = cfg.batt.p_max + max(cfg.gen.p_max, cfg.load.p_max)
    return 2.0 * reach + data.draw(st.floats(0.0, 5.0))


def outside_full_headroom(cfg: HesConfig, soc: np.ndarray) -> np.ndarray:
    """Per window (row of soc), whether the headroom is not full at some
    state a step starts from."""
    states = soc[:, :-1]
    return ~controller._full(cfg, states, states).all(axis=1)


@PROPERTY
@given(cfg=banded_fleets(), data=st.data())
def test_windows_in_and_out_of_the_band_match_loop_only_route(cfg, data):
    # one call in which some windows enter the band and others do not
    c = saturating_capacity(cfg, data)
    assert controller._full(cfg, cfg.batt.soc_init, cfg.batt.soc_init)
    span_steps = math.ceil(
        (cfg.batt.soc_max - cfg.batt.soc_min) / -soc_change(cfg.batt, 0.0, cfg.batt.p_max, cfg.dt)
    )
    n = span_steps + data.draw(st.integers(0, 2 * span_steps))
    random_rows = data.draw(hnp.arrays(
        np.float64, (data.draw(st.integers(0, 2)), n), elements=st.floats(-1.0, 1.0)
    ))
    rows = [np.ones(n), np.zeros(n), -np.ones(n), *random_rows]
    matrix = np.stack(data.draw(st.permutations(rows)))
    cs = [c, 0.5 * c, 2.0 * c, 1e-3 * c]
    batch = assert_loop_only_bits(cfg, c, cs, matrix)
    outside = outside_full_headroom(cfg, batch.soc)
    assert outside.any() and not outside.all()


@PROPERTY
@given(cfg=banded_fleets(), data=st.data())
def test_square_wave_touching_the_floor_matches_loop_only_route(cfg, data):
    # full discharge down to the floor, then full charge back into the
    # interval, a few times; its mirror pulls the other way
    batt = cfg.batt
    c = saturating_capacity(cfg, data)
    m_dis = -soc_change(batt, 0.0, batt.p_max, cfg.dt)
    m_ch = soc_change(batt, -batt.p_max, 0.0, cfg.dt)
    down = math.floor((batt.soc_init - batt.soc_min) / m_dis) + data.draw(st.integers(2, 5))
    up = math.ceil((batt.soc_init - batt.soc_min) / m_ch) + data.draw(st.integers(0, 3))
    wave = np.tile(np.r_[np.ones(down), -np.ones(up)], data.draw(st.integers(1, 3)))
    matrix = np.stack([wave, -wave, np.zeros(wave.size)])
    batch = assert_loop_only_bits(cfg, c, [c, 0.5 * c], matrix)
    trace = rt_dispatch(cfg, c, RegSignal(samples=wave, dt=cfg.dt))
    ref = reference_rule(cfg, c, wave, batt.soc_init)
    for name in COLUMNS:
        assert same_bits(getattr(trace, name), ref[name]), name
    # the wave is derated at the floor, and full headroom returns after it
    derated = np.flatnonzero(trace.p_discharge[:down] < batt.p_max)
    assert derated.size
    back = trace.soc[down + 1 : down + up + 1]
    assert np.any(controller._full(cfg, back, back))
    assert outside_full_headroom(cfg, batch.soc)[[0, 2]].tolist() == [True, False]


def ulp_neighbours(x: float, k: int) -> list[float]:
    """x and the k floats on either side of it."""
    out = [x]
    for direction in (-math.inf, math.inf):
        y = x
        for _ in range(k):
            y = math.nextafter(y, direction)
            out.append(y)
    return out


@PROPERTY
@given(cfg=fleets(), data=st.data())
def test_headroom_is_monotone_in_the_soc(cfg, data):
    # what _full rests on: in floating point, d_max and c_max never fall as
    # the SoC rises, within the envelope, outside it (the route tests SoCs a
    # reach beyond e0), and among the ulp neighbours of the two SoCs where,
    # in real arithmetic, the headroom starts to bind
    batt = cfg.batt
    pb, cap, dt = batt.p_max, batt.energy_capacity, cfg.dt
    binds = [batt.soc_min + dt * pb / (batt.eta_d * cap), batt.soc_max - batt.eta_c * dt * pb / cap]
    k = data.draw(st.integers(1, 64))
    near = [e for b in binds for e in ulp_neighbours(b, k)]
    drawn = data.draw(st.lists(st.floats(batt.soc_min - 1.0, batt.soc_max + 1.0), max_size=16))
    states = np.array(sorted(near + drawn + [batt.soc_min, batt.soc_max]))
    d_max, c_max = controller._headroom(cfg, states)
    assert np.all(np.diff(d_max) >= 0.0)
    assert np.all(np.diff(c_max) >= 0.0)
    # and _full on each range [lo, hi] is full headroom at every state in it
    full = (d_max == pb) & (c_max == -pb)
    for lo, hi in data.draw(st.lists(st.tuples(*[st.integers(0, states.size - 1)] * 2), max_size=8)):
        lo, hi = min(lo, hi), max(lo, hi)
        assert controller._full(cfg, states[lo], states[hi]) == full[lo : hi + 1].all()


def test_widened_interval_changes_the_bits():
    # what the route tests above would catch: a _full that tests its range
    # one full-power step inside each end lets a derated step through at
    # full headroom
    cfg = reference_system()
    batt = cfg.batt
    full = controller._full
    m_dis = -soc_change(batt, 0.0, batt.p_max, cfg.dt)
    m_ch = soc_change(batt, -batt.p_max, 0.0, cfg.dt)
    wave = np.r_[np.ones(800), -np.ones(800)]

    def dispatched():  # one window a call, down to the floor, or up to the ceiling
        return [
            (rt_dispatch(cfg, 20.0, RegSignal(samples=w, dt=cfg.dt)).soc,
             rt_dispatch_batch(cfg, 20.0, w[None], cfg.dt).soc[0],
             rt_error_sums(cfg, [20.0], w[None], cfg.dt)[0, 0])
            for w in (wave, -wave)
        ]

    with loop_only_route():
        loop_only = dispatched()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(controller, "_full", lambda cfg, lo, hi: full(cfg, lo + m_dis, hi - m_ch))
        widened = dispatched()
    for i, (got, want) in enumerate(zip(widened, loop_only)):
        for j in range(3):
            assert not same_bits(got[j], want[j]), (i, j)


@pytest.mark.parametrize("e0, n_steps", [(0.5, 16), (0.5, 5), (0.3, 8)])
def test_windows_within_the_prefix_compute_no_thresholds(e0, n_steps):
    # windows of at most k* steps keep the prefix's route: no state is
    # checked against the headroom, and they give the rule's bits
    cfg = prefix_system(e0)
    assert free_steps(cfg, e0, n_steps) >= n_steps
    matrix = prefix_windows(n_steps)
    cs = [0.7, 3.0, 9.0]

    def unused(cfg, states):
        raise AssertionError("a window within the prefix checked its states")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(controller, "_first_derated", unused)
        stacked = rt_error_sums(cfg, cs, matrix, cfg.dt)
        batches = [rt_dispatch_batch(cfg, c, matrix, cfg.dt) for c in cs]
        traces = [rt_dispatch(cfg, 9.0, RegSignal(samples=row, dt=cfg.dt)) for row in matrix]
    for j, (c, batch) in enumerate(zip(cs, batches)):
        for i, row in enumerate(matrix):
            ref = reference_rule(cfg, c, row, e0)
            assert same_bits(stacked[j, i], reference_error_sum(ref)), (c, i)
            assert same_bits(batch.err_sums[i], reference_error_sum(ref)), (c, i)
            assert same_bits(batch.soc[i], ref["soc"]), (c, i)
    for trace, row in zip(traces, matrix):
        ref = reference_rule(cfg, 9.0, row, e0)
        for name in COLUMNS:
            assert same_bits(getattr(trace, name), ref[name]), name


@pytest.mark.parametrize("end", [0, 1], ids=["e_lo", "e_hi"])
@pytest.mark.parametrize("seconds", [2, 60])
def test_windows_from_a_threshold_match_reference_bitwise(seconds, end):
    # the reference battery at 2 s and 60 s steps, from exactly e_lo or
    # e_hi: one step runs at full headroom, so the route leaves it
    # unchecked, also at 60 s, where e_lo lies below soc_min plus one
    # full-power step in real arithmetic; the next state may be derated,
    # and every entry point gives the reference rule's bits
    base = reference_system()
    e0 = THRESHOLDS[seconds][end]
    cfg = HesConfig(
        base.gen, base.load, dataclasses.replace(base.batt, soc_init=e0), seconds / 3600
    )
    assert_thresholds_tight(cfg, *THRESHOLDS[seconds])
    assert not controller._route(cfg, e0, 1)
    cs = [20.0, 1.0]
    for c, r in zip(cs * 3, [1.0, -1.0, 0.5, -0.5, 0.0, -0.0]):
        step, nxt = rt_step(cfg, c, r, e0)
        ref = reference_rule(cfg, c, np.array([r]), e0)
        for name in COLUMNS[1:6]:
            assert same_bits(getattr(step, name), ref[name][0]), (c, r, name)
        assert same_bits(nxt, ref["soc"][1]), (c, r)
    for n_steps in (2, 5):
        matrix = prefix_windows(n_steps)
        refs = {(c, i): reference_rule(cfg, c, row, e0) for c in cs for i, row in enumerate(matrix)}
        stacked = rt_error_sums(cfg, cs, matrix, cfg.dt)
        for j, c in enumerate(cs):
            batch = rt_dispatch_batch(cfg, c, matrix, cfg.dt)
            for i, row in enumerate(matrix):
                ref = refs[(c, i)]
                trace = rt_dispatch(cfg, c, RegSignal(samples=row, dt=cfg.dt))
                for name in COLUMNS:
                    assert same_bits(getattr(trace, name), ref[name]), (n_steps, c, i, name)
                assert same_bits(batch.soc[i], ref["soc"]), (n_steps, c, i)
                assert same_bits(batch.err_sums[i], reference_error_sum(ref)), (n_steps, c, i)
                assert same_bits(stacked[j, i], reference_error_sum(ref)), (n_steps, c, i)


def test_steps_and_windows_near_a_bound_match_reference_bitwise():
    # rt_step near a bound steps at its state's headroom; windows near a
    # bound are checked
    cfg = reference_system()
    rng = np.random.default_rng(3)
    states = [0.1003, 0.9, 0.1, 0.8996, *rng.uniform(0.1, 0.1006, 48),
              *rng.uniform(0.8994, 0.9, 48)]
    commands = rng.choice([1.0, -1.0, 0.5, -0.5, 0.0], size=len(states))
    steps = [rt_step(cfg, 20.0, float(r), e) for e, r in zip(states, commands)]
    near = HesConfig(cfg.gen, cfg.load, dataclasses.replace(cfg.batt, soc_init=0.1003), cfg.dt)
    assert controller._route(near, 0.1003, 2)
    windows = rng.choice([1.0, -1.0, 0.5], size=(100, 2))
    traces = [rt_dispatch(near, 20.0, RegSignal(samples=w, dt=cfg.dt)) for w in windows]
    for (step, nxt), e, r in zip(steps, states, commands):
        ref = reference_rule(cfg, 20.0, np.array([r]), e)
        for name in COLUMNS[1:6]:
            assert same_bits(getattr(step, name), ref[name][0]), (e, r, name)
        assert same_bits(nxt, ref["soc"][1]), (e, r)
    for trace, w in zip(traces, windows):
        ref = reference_rule(near, 20.0, w, 0.1003)
        for name in COLUMNS:
            assert same_bits(getattr(trace, name), ref[name]), (w, name)


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


def reference_parse(path: Path) -> list[float]:
    """The signal CSV reader as it was: one line at a time from the file."""
    samples: list[float] = []
    saw_header = False
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if not saw_header:
                cols = [c.strip().lower() for c in line.split(",")]
                if cols != ["timestamp", "r"]:
                    raise SignalParseError(
                        f"{path}:{lineno}: expected header 'timestamp,r', got {line!r}"
                    )
                saw_header = True
                continue
            parts = line.split(",")
            if len(parts) != 2:
                raise SignalParseError(
                    f"{path}:{lineno}: expected 2 columns, got {len(parts)}: {line!r}"
                )
            try:
                value = float(parts[1])
            except ValueError:
                raise SignalParseError(
                    f"{path}:{lineno}: bad sample value {parts[1]!r}"
                ) from None
            if not math.isfinite(value) or value < -1.0 or value > 1.0:
                raise SignalRangeError(
                    f"{path}:{lineno}: sample {value!r} outside [-1, 1]"
                )
            samples.append(value)
    if not saw_header:
        raise SignalParseError(f"{path}: no header line found")
    return samples


def reference_windows(files: list[Path], source: Path, window_len: int, offset: int):
    samples: list[float] = []
    for f in files:
        try:
            samples.extend(reference_parse(f))
        except UnicodeDecodeError as exc:  # named as load_archive names it, in
            # files under text mode's 8 KiB decode chunk, where exc.start is
            # the offset in the file
            raise SignalParseError(f"{f}: not UTF-8 at byte {exc.start}: {exc.reason}") from exc
    usable = len(samples) - offset
    n_win = usable // window_len if usable > 0 else 0
    if n_win <= 0:
        raise EmptyArchiveError(
            f"no complete window of length {window_len} in {source} "
            f"({len(samples)} samples, offset {offset})"
        )
    return np.array(samples[offset : offset + n_win * window_len]).reshape(n_win, window_len)


# each variation below as the old reader took it (_OK) or refused it (_BAD)
HEADERS_OK = ["timestamp,r", "Timestamp,R", " timestamp , r ", "TIMESTAMP,r\t"]
HEADERS_BAD = ["timestamp,r,x", "time,r", "timestamp", "timestamp;r", "\ufefftimestamp,r"]
# comments, and lines blank once stripped
SKIPPED = ["# comment", "#", "", "   ", "\t", "\x0c", "\u2028", "\x1c", " # note",
           "#timestamp,r", "#1,0.5", "# 2, -0.25"]
VALUES_OK = ["+0.5", ".5", "-0", "1_0e-1", "0.\u0665", "5e-324"]
VALUES_BAD = ["nan", "-nan", "inf", "-inf", "1e999", "-1e999", "1.5", "-1.0000000000000002",
              "abc", "", "0x1p-2", "\u0663"]
# \x0c, \x1c-\x1e, \x85 and \u2028 split lines in str.splitlines, not in a file
SPACING = ["{}", " {} ", "{}\x0c", "\u2028{}", "{}\t", "\x85{}", "{}\x1e"]
FORMS_OK = ["{k},{v}", ",{v}", "{k}\x0c,{v}", " {k} ,{v}"]
FORMS_BAD = ["{v}", "{k},{v},{k}", "{k},,{v}"]


@st.composite
def signal_texts(draw) -> str:
    """Signal CSV text: the plain layout; variations the old reader took
    (header case and spacing, CR or CRLF, comment and blank lines, spaces
    and odd whitespace around cells); or such a variant with one fault."""
    kind = draw(st.sampled_from(["plain", "variant", "faulty"]))
    value = st.floats(-1.0, 1.0).map(repr)
    header, spacing, form = st.just("timestamp,r"), st.just("{}"), st.just("{k},{v}")
    if kind != "plain":
        header = st.sampled_from(HEADERS_OK)
        value = st.one_of(value, st.sampled_from(VALUES_OK))
        spacing = st.sampled_from(SPACING)
        form = st.sampled_from(FORMS_OK)
    lines = [draw(header)]
    for k in range(draw(st.integers(0, 12))):
        lines.append(draw(form).format(k=k, v=draw(spacing).format(draw(value))))
    if kind == "faulty":
        fault = draw(st.sampled_from(["header", "value", "columns", "no header", "empty"]))
        at = draw(st.integers(1, len(lines)))
        if fault == "header":
            lines[0] = draw(st.sampled_from(HEADERS_BAD))
        elif fault == "value":
            bad = draw(spacing).format(draw(st.sampled_from(VALUES_BAD)))
            lines.insert(at, draw(form).format(k=at, v=bad))
        elif fault == "columns":
            lines.insert(at, draw(st.sampled_from(FORMS_BAD)).format(k=at, v=draw(value)))
        elif fault == "no header":
            del lines[0]
        else:
            lines = []
    if kind != "plain":
        for _ in range(draw(st.integers(0, 3))):
            lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(SKIPPED)))
    newline = "\n" if kind == "plain" else draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = newline.join(lines)
    return text + newline if draw(st.booleans()) else text


# 40 000 plain lines, about 0.9 MB: 15 reads of signals._PIECE_BYTES
LONG_BODY = "timestamp,r\n" + "".join(f"{k},{k % 7 / 7 - 0.5!r}\n" for k in range(40000))
# a CRLF file whose first read ends between the CR and the LF of a line
CUT_CRLF = "timestamp,r\r\n" + "7" * (signals._PIECE_BYTES - 18) + ",0.5\r\n" + "1,-0.25\r\n" * 9000


@settings(PROPERTY, max_examples=400)
@given(
    texts=st.lists(signal_texts(), min_size=1, max_size=3),
    window_len=st.integers(2, 5),
    offset=st.integers(0, 3),
)
@example(texts=["timestamp,r\n0,0.5\n1,nan\n"], window_len=2, offset=0)
@example(texts=["timestamp,r\n0,0.5\x0c\n1,\u20280.25\n2,-1"], window_len=3, offset=0)
@example(texts=["timestamp,r\n0,0.5\x0c1,0.25\n2,-1\n"], window_len=2, offset=0)
@example(texts=["timestamp,r\n0,0.5\n#1,0.25\n2,-1\n"], window_len=2, offset=0)
@example(
    texts=["timestamp,r\n", "timestamp,r", "timestamp,r\n0,1\n1,-1\n"], window_len=2, offset=0
)
# the byte path's edges. Two faults in one line pair that keep the comma
# count right; \x1c and \x1f, which str float() strips and bytes float()
# does not; a timestamp that is not ASCII, or not UTF-8; CRLF
@example(texts=["timestamp,r\n0,0.5,0.25\n0.75\n"], window_len=2, offset=0)
@example(texts=["timestamp,r\n0,\x1c0.5\x1f\n1,0.25\n"], window_len=2, offset=0)
@example(texts=["timestamp,r\n\u0663,0.5\n1,0.25\n"], window_len=2, offset=0)
@example(texts=[b"timestamp,r\n0,0.5\n\xff,0.25\n"], window_len=2, offset=0)
@example(texts=["timestamp,r\r\n0,0.5\r\n1,-0.25\r\n"], window_len=2, offset=0)
# most values in another form than [-]D.F, so the piece goes to float() whole
@example(texts=["timestamp,r\n0,5.0e-01\n1,-2.5E-01\n2,0.125\n3,1\n"], window_len=2, offset=0)
# files longer than one read (signals._PIECE_BYTES): a bad value, a blank
# line, a value float() refuses and a comment in the last of several reads;
# a last line without LF; a line longer than a read; CRLF, CRLF cut by a
# read, and lone CRs to the end. Then a bad plain file before a
# sub-directory named like a CSV file (None), which fails to read
@example(texts=[LONG_BODY + "40000,1.5\n"], window_len=5, offset=0)
@example(texts=[LONG_BODY + "\n40000,-0.25\n"], window_len=5, offset=0)
@example(texts=[LONG_BODY + "40000,0.2x5\n40001,0.5\n"], window_len=5, offset=0)
@example(texts=[LONG_BODY + "# end\n40000,-0.25"], window_len=5, offset=0)
@example(texts=[LONG_BODY + "40000,-0.25", "timestamp,r\n0,0.5\n"], window_len=7, offset=3)
@example(texts=["timestamp,r\n0," + " " * 70000 + "0.5\n1,-0.25\n"], window_len=2, offset=0)
@example(texts=[LONG_BODY.replace("\n", "\r\n")], window_len=5, offset=0)
@example(texts=[CUT_CRLF], window_len=3, offset=0)
@example(texts=[LONG_BODY.replace("\n", "\r")], window_len=5, offset=0)
@example(texts=["timestamp,r\n0,0.5\n1,1.5\n", None], window_len=2, offset=0)
# more long files, each piece that is not plain read alone by the line
# reader: a comment in a middle read; a comment before the header; blank
# lines in four reads; a non-ASCII comment in the third read; \x1c and \x1f
# lines, and a value the kernel refuses, in a middle read. Then a bad value
# on line 2 and a byte that is not UTF-8 in the eighth read: the first
# faulty line in stream order decides the error
@example(texts=[LONG_BODY.replace("\n20000,", "\n# a note\n20000,")], window_len=5, offset=0)
@example(texts=["# a note\n" + LONG_BODY], window_len=5, offset=0)
@example(
    texts=[LONG_BODY.replace("\n1000", "\n\n1000").replace("\n3000", "\n \n3000")],
    window_len=5,
    offset=0,
)
@example(texts=[LONG_BODY.replace("\n7000,", "\n# caf\u00e9 \u2603\n7000,")], window_len=5, offset=0)
@example(
    texts=[LONG_BODY.replace("\n20000,", "\n\x1c\n\x1f\n20000,\x1c")], window_len=5, offset=0
)
@example(
    texts=[LONG_BODY.encode().replace(b"\n0,-0.5\n", b"\n0,1.5\n").replace(b"\n20000,", b"\n\xff,")],
    window_len=5,
    offset=0,
)
# empty lines in plain files of one group, which the kernel reads with them
# dropped; then a value out of range in such a group, which the line reader
# names by its line number in the file as read
@example(
    texts=["timestamp,r\n0,0.5\n1,-0.25\n\n", "timestamp,r\n\n0,0.125\n\n\n1,0.75\n\n"],
    window_len=2,
    offset=0,
)
@example(
    texts=["timestamp,r\n0,0.5\n1,-0.25\n\n", "timestamp,r\n\n0,0.125\n\n\n1,1.5\n\n"],
    window_len=2,
    offset=0,
)
def test_load_archive_matches_line_reader(texts, window_len, offset):
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        for i, text in enumerate(texts):
            path = d / f"day{i}.csv"
            if text is None:
                path.mkdir()
            else:
                path.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
        files = sorted(d.glob("*.csv"))
        source = d if len(files) > 1 else files[0]
        try:
            expected = reference_windows(files, source, window_len, offset)
        except (SignalError, OSError) as exc:
            with pytest.raises((SignalError, OSError)) as got:
                load_archive(source, window_len, 1.0, offset=offset)
            assert type(got.value) is type(exc)
            assert str(got.value) == str(exc)
            return
        archive = load_archive(source, window_len, 1.0, offset=offset)
    assert same_bits(archive.samples, expected)


def test_float_route_matches_line_reader():
    # the same examples with the decimal kernel gated off: the only route
    # where long double is binary64 (macOS arm64, Windows)
    with mock.patch.object(signals, "_EXACT_DIVISION", False):
        test_load_archive_matches_line_reader()


DIGITS = "0123456789"


@st.composite
def decimal_fields(draw) -> str:
    """A value field: a sign, 0-3 integer digits and 0-25 fraction digits,
    leading zeros, an exponent, '_', spaces or a junk byte; or the decimal
    expansion of a midpoint between two doubles, cut short, where rounding
    twice can go wrong."""
    sign = draw(st.sampled_from(["", "", "-", "+"]))
    if draw(st.booleans()):
        x = draw(st.floats(1e-6, 1.0, exclude_max=True))
        with localcontext() as ctx:
            ctx.prec = 200
            mid = (Decimal(x) + Decimal(math.nextafter(x, 2.0))) / 2
        return sign + f"{mid:f}"[: draw(st.integers(3, 28))]
    whole = draw(st.text(DIGITS, max_size=3))
    frac = "0" * draw(st.integers(0, 20)) + draw(st.text(DIGITS, max_size=25))
    text = sign + whole + "." + frac[:25] if frac or draw(st.booleans()) else sign + whole
    if draw(st.booleans()):
        text += draw(st.sampled_from(["e", "E", "e-", "e+"])) + draw(st.text(DIGITS, max_size=3))
    if draw(st.booleans()):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(["_", " ", "\t", "x", ":", "/", "\x00"])) + text[at:]
    return text


def kernel_values(fields: list[str]) -> np.ndarray:
    """signals._decimals over one piece of '<i>,<field>' lines, followed by
    more '0.5' lines than fields so that the kernel never leaves the piece
    to float() as one mostly in another form."""
    lines = fields + ["0.5"] * (len(fields) + 1)
    piece = "".join(f"{i},{f}\n" for i, f in enumerate(lines)).encode("ascii")
    buf = np.concatenate((signals._ZERO_ROW, np.frombuffer(piece, np.uint8)))
    cuts = np.flatnonzero((buf == ord(",")) | (buf == ord("\n")))
    return signals._decimals(piece, buf, cuts[0::2], cuts[1::2])[: len(fields)]


@pytest.mark.skipif(not signals._EXACT_DIVISION, reason="long double cannot carry the kernel")
@settings(PROPERTY, max_examples=300)
@given(fields=st.lists(decimal_fields(), min_size=1, max_size=60))
# double-rounding ties: q is a midpoint, float64(q) the wrong neighbour
@example(fields=["0.718599913353987374", "-0.0535481715063898904"])
# 20 fraction digits; digits that weigh over 10^18, M past 2^64
@example(fields=["0.00012345678901234567", "0.99999999999999999999", "9.9999999999999999999999"])
@example(fields=["-0.0", "-0", "1", "5.", ".5", "+0.5", "0.1_5", "1e-05", "nan"])
@example(fields=["0." + "1234567890" * 2 + "123"])  # 23 fraction digits
def test_decimal_kernel_matches_float_bitwise(fields):
    try:
        expected = np.array([float(f) for f in fields])
    except ValueError:
        with pytest.raises(ValueError):
            kernel_values(fields)
        return
    assert same_bits(kernel_values(fields), expected)


@PROPERTY
@given(
    values=hnp.arrays(
        np.float64,
        st.integers(2, 60),
        elements=st.one_of(
            st.floats(-1.0, 1.0),
            st.sampled_from([-0.0, 5e-324, -5e-324, 1.1125369292536007e-308, -1.0, 1.0]),
        ),
    )
)
def test_signal_csv_round_trip_bitwise(values):
    with tempfile.TemporaryDirectory() as tmp:
        path = save_signal(Path(tmp) / "sig.csv", values)
        archive = load_archive(path, window_len=values.size, dt=1.0)
    assert same_bits(archive.windows[0].samples, values)


def test_archive_windows_are_read_only(tmp_path):
    save_signal(tmp_path / "sig.csv", np.linspace(-1.0, 1.0, 9))
    archive = load_archive(tmp_path / "sig.csv", window_len=4, dt=1.0, offset=1)
    for w in archive.windows:
        assert not w.samples.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            w.samples[0] = 0.0


def assert_trace_round_trip(path: Path, trace, r: np.ndarray, c: float) -> None:
    loaded, r_back, c_back = load_trace_csv(save_trace_csv(path, trace, r, c))
    for name in COLUMNS:  # soc[0] is the soc_init metadata line
        assert same_bits(getattr(loaded, name), getattr(trace, name)), name
    assert same_bits(r_back, r)
    assert same_bits(c_back, c)


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), dt=st.floats(1e-4, 0.25), c=capacities,
       matrix=windows())
def test_rule_trace_csv_round_trip_bitwise(seed, dt, c, matrix):
    cfg = random_system(np.random.default_rng(seed), dt)
    with tempfile.TemporaryDirectory() as tmp:
        for i, row in enumerate(matrix):
            row[0] = 0.0  # a +0.0 command, whose p_load is -0.0
            trace = rt_dispatch(cfg, c, RegSignal(samples=row, dt=dt))
            assert np.signbit(trace.p_load[0])
            assert_trace_round_trip(Path(tmp) / f"trace_{i}.csv", trace, row, c)


def test_offline_trace_csv_round_trip_bitwise(tmp_path):
    rng = np.random.default_rng(59)
    cfg = random_system(rng, 0.05)
    sig = random_signal(rng, 60, cfg.dt)
    c = random_capacity(rng, cfg)
    sol = offline_dispatch(cfg, c, sig)
    assert_trace_round_trip(tmp_path / "trace.csv", sol.trace, sig.samples, c)


def soc_within(cfg: HesConfig, soc: np.ndarray, tol: float) -> bool:
    batt = cfg.batt
    return bool(np.all((soc >= batt.soc_min - tol) & (soc <= batt.soc_max + tol)))


@PROPERTY
@given(cfg=fleets(), c=capacities, matrix=windows())
def test_rule_entry_points_keep_soc_in_envelope(cfg, c, matrix):
    assert soc_within(cfg, rt_dispatch_batch(cfg, c, matrix, cfg.dt).soc, SOC_TOL)
    for row in matrix:
        sig = RegSignal(samples=row, dt=cfg.dt)
        assert soc_within(cfg, rt_dispatch(cfg, c, sig).soc, SOC_TOL)
        cf = closed_form_dispatch(cfg, c, sig)
        if cf is not None:
            assert soc_within(cfg, cf.trace.soc, SOC_TOL)


def offline_soc_tol(solver_path: str, n: int) -> float:
    """The SoC tolerance offline_dispatch accepts on each route: the LP's SoC
    is clipped into the envelope and the grid oracle moves within 1e-12 of
    it, while a repaired trace is re-simulated and accepted within
    2e-8 per step + 1e-9."""
    return 2e-8 * n + 1e-9 if solver_path == "lp-with-repair" else SOC_TOL


@settings(PROPERTY, max_examples=25)
@given(cfg=fleets(), c=capacities, matrix=windows())
def test_offline_entry_points_keep_soc_in_envelope(cfg, c, matrix):
    for row in matrix:
        sig = RegSignal(samples=row, dt=cfg.dt)
        assert soc_within(cfg, dp_oracle(cfg, c, sig).trace.soc, SOC_TOL)
        sol = offline_dispatch(cfg, c, sig)
        assert soc_within(cfg, sol.trace.soc, offline_soc_tol(sol.solver_path, sig.n))


def reference_check_step(cfg, step, e_next, *, power_tol, soc_tol) -> tuple[str, ...]:
    """The envelope check as it was: one step, in plain Python floats."""
    violations: list[str] = []
    gen, load, batt = cfg.gen, cfg.load, cfg.batt
    if not gen.p_min - power_tol <= step.p_gen <= gen.p_max + power_tol:
        violations.append(
            f"generator-bounds: p_gen={step.p_gen!r} outside "
            f"[{gen.p_min}, {gen.p_max}]"
        )
    if not -power_tol <= step.p_load <= load.p_max + power_tol:
        violations.append(
            f"load-bounds: p_load={step.p_load!r} outside [0, {load.p_max}]"
        )
    if not -power_tol <= step.p_discharge <= batt.p_max + power_tol:
        violations.append(
            f"battery-discharge-bounds: p_discharge={step.p_discharge!r} "
            f"outside [0, {batt.p_max}]"
        )
    if not -batt.p_max - power_tol <= step.p_charge <= power_tol:
        violations.append(
            f"battery-charge-bounds: p_charge={step.p_charge!r} "
            f"outside [{-batt.p_max}, 0]"
        )
    if step.p_discharge * (-step.p_charge) > power_tol:
        violations.append(
            "complementarity: simultaneous charge and discharge "
            f"(p_discharge={step.p_discharge!r}, p_charge={step.p_charge!r})"
        )
    if not batt.soc_min - soc_tol <= e_next <= batt.soc_max + soc_tol:
        violations.append(
            f"soc-bounds: e={e_next!r} outside [{batt.soc_min}, {batt.soc_max}]"
        )
    return tuple(violations)


def reference_validate(cfg, trace, *, power_tol, soc_tol) -> list:
    """validate_trace as it was: a DispatchStep, the next SoC and its
    violations per step."""
    bad = []
    for k in range(trace.n_steps):
        step = DispatchStep(
            p_gen=float(trace.p_gen[k]),
            p_load=float(trace.p_load[k]),
            p_discharge=float(trace.p_discharge[k]),
            p_charge=float(trace.p_charge[k]),
        )
        violations = reference_check_step(
            cfg, step, float(trace.soc[k + 1]), power_tol=power_tol, soc_tol=soc_tol
        )
        if violations:
            bad.append((k, violations))
    return bad


def near(*edges: float) -> list[float]:
    """Each edge and its two float neighbours."""
    return [x for e in edges for x in (np.nextafter(e, -np.inf), e, np.nextafter(e, np.inf))]


@st.composite
def envelope_cases(draw):
    """A fleet (generator p_min too), tolerances, and a trace whose every
    column holds values on, next to and beyond each bound it is checked
    against, with and without the tolerance, plus +-0.0, NaN and +-inf."""
    cfg = draw(fleets())
    gen = GeneratorParams(p_max=cfg.gen.p_max + 1.0, p_min=draw(st.sampled_from([0.0, 0.5])))
    cfg = dataclasses.replace(cfg, gen=gen)
    n = draw(st.integers(1, 12))
    power_tol, soc_tol = draw(
        st.one_of(
            st.just((POWER_TOL, SOC_TOL)),
            st.just((1e-6, 2e-8 * n + 1e-9)),  # the offline repair's tolerances
            st.just((0.0, 0.0)),
            st.tuples(st.floats(0.0, 0.5), st.floats(0.0, 0.05)),
        )
    )
    batt, ptol, stol = cfg.batt, power_tol, soc_tol
    edges = {
        "p_gen": (gen.p_min, gen.p_max, gen.p_min - ptol, gen.p_max + ptol),
        "p_load": (0.0, cfg.load.p_max, -ptol, cfg.load.p_max + ptol),
        # 1.0 * ptol is ptol exactly: on the complementarity bound with -ptol
        "p_discharge": (0.0, 1.0, batt.p_max, -ptol, batt.p_max + ptol, math.sqrt(ptol)),
        "p_charge": (0.0, -batt.p_max, -batt.p_max - ptol, ptol, -ptol, -math.sqrt(ptol)),
        "soc": (batt.soc_min, batt.soc_max, batt.soc_min - stol, batt.soc_max + stol),
    }
    cols = {}
    for name, bounds in edges.items():
        special = near(*bounds) + [0.0, -0.0, math.nan, math.inf, -math.inf]
        element = st.one_of(
            st.sampled_from(special),
            st.floats(min(bounds) - 1.0, max(bounds) + 1.0),
            st.floats(allow_nan=True, allow_infinity=True),
        )
        size = n + 1 if name == "soc" else n
        cols[name] = np.array(draw(st.lists(element, min_size=size, max_size=size)))
    trace = DispatchTrace(target=np.zeros(n), p_hes=np.zeros(n), **cols)
    return cfg, trace, power_tol, soc_tol


@settings(PROPERTY, max_examples=300)
@given(case=envelope_cases())
def test_validate_trace_matches_per_step_loop(case):
    cfg, trace, power_tol, soc_tol = case
    expected = reference_validate(cfg, trace, power_tol=power_tol, soc_tol=soc_tol)
    with warnings.catch_warnings():  # Python floats do not warn on inf * 0.0
        warnings.simplefilter("error", RuntimeWarning)
        got = validate_trace(cfg, trace, power_tol=power_tol, soc_tol=soc_tol)
    assert got == expected
    if (power_tol, soc_tol) == (POWER_TOL, SOC_TOL):
        assert validate_trace(cfg, trace) == expected
    # check_step_feasible is the same check on one step
    violations = dict(expected)
    for k in range(trace.n_steps):
        step = DispatchStep(*(float(getattr(trace, name)[k]) for name in COLUMNS[1:5]))
        got = check_step_feasible(
            cfg, step, float(trace.soc[k + 1]), power_tol=power_tol, soc_tol=soc_tol
        )
        assert got == violations.get(k, ())
