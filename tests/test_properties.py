"""Bitwise properties of the priority rule's entry points, on random fleets,
of signal CSV ingest, on random file text, and of the trace CSV round trip;
and the SoC envelope at every dispatch entry point.

Equality is checked on the bytes of each float, so 0.0 and -0.0 differ
(``np.array_equal`` would call them equal). The rule's reference is the rule
as plain Python floats, one step at a time, which is how the rule was first
written and what the trace files were recorded from. The ingest reference is
the line-by-line reader every file once went through, and the envelope
check's is the per-step loop validate_trace once ran.
"""

import dataclasses
import math
import tempfile
import warnings
from pathlib import Path

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
    FeasibilityVerdict,
    GeneratorParams,
    HesConfig,
    LoadParams,
    RegSignal,
    SignalError,
    SignalParseError,
    SignalRangeError,
    SocState,
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
from hes_regkit import controller
from hes_regkit.controller import rt_error_sums
from hes_regkit.model import soc_change
from helpers import random_capacity, random_signal, random_system, reference_system, same_bits

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
        step, nxt = rt_step(cfg, c, float(row[0]), SocState(cfg.batt.soc_init))
        for name in COLUMNS[1:6]:
            assert same_bits(getattr(step, name), ref[name][0]), name
        assert same_bits(nxt.e, ref["soc"][1])


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
    """From SoC 0.5 its battery runs k* = 16 steps at full headroom, from
    0.3 it runs 8, and from either bound none."""
    return HesConfig(
        gen=GeneratorParams(p_max=1.0),
        load=LoadParams(p_max=0.5),
        batt=BatteryParams(
            p_max=2.0, energy_capacity=1.0, eta_c=0.9, eta_d=0.85,
            soc_min=0.1, soc_max=0.9, soc_init=e0,
        ),
        dt=0.01,
    )


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
    assert controller._free_steps(cfg, e0, n_steps) == k_star
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


def test_reference_battery_prefix():
    # 5 MW / 5 MWh at 0.95 one way, SoC in [0.1, 0.9] from 0.5, 2 s steps
    cfg = reference_system()
    assert controller._free_steps(cfg, 0.5, 10**6) == 683
    assert controller._free_steps(cfg, 0.5, 180) == 180
    assert controller._free_steps(cfg, 0.1, 180) == 0


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
    assert controller._free_steps(cfg, 0.5, row.size) == row.size
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
    assert controller._free_steps(cfg, e0, n) == n
    cs = data.draw(st.lists(capacities, min_size=1, max_size=4))
    assert_scored_without_the_split(cfg, cs, matrix, e0)


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
    k_star = controller._free_steps(cfg, e0, 10**9)
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


@PROPERTY
@given(cfg=fleets(), c=capacities, matrix=windows(), data=st.data())
def test_loop_only_route_gives_the_same_bits(cfg, c, matrix, data):
    e0 = soc_near_a_threshold(data, cfg)
    cfg = HesConfig(cfg.gen, cfg.load, dataclasses.replace(cfg.batt, soc_init=e0), cfg.dt)
    cs = [c, 0.5 * c, 2.0 * c]
    sig = RegSignal(samples=matrix[0], dt=cfg.dt)

    def every_entry_point():
        return (
            rt_step(cfg, c, float(matrix[0, 0]), SocState(e0)),
            rt_dispatch(cfg, c, sig),
            rt_dispatch_batch(cfg, c, matrix, cfg.dt),
            rt_error_sums(cfg, cs, matrix, cfg.dt),
        )

    default = every_entry_point()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(controller, "_free_steps", lambda cfg, e0, n_steps: 0)
        loop_only = every_entry_point()
    (step, nxt), trace, batch, sums = default
    (step0, nxt0), trace0, batch0, sums0 = loop_only
    for name in COLUMNS[1:6]:
        assert same_bits(getattr(step, name), getattr(step0, name)), name
    assert same_bits(nxt.e, nxt0.e)
    for name in COLUMNS:
        assert same_bits(getattr(trace, name), getattr(trace0, name)), name
    for name in ("err_sums", "soc"):
        assert same_bits(getattr(batch, name), getattr(batch0, name)), name
    assert same_bits(sums, sums0)


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
        samples.extend(reference_parse(f))
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
def test_load_archive_matches_line_reader(texts, window_len, offset):
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        for i, text in enumerate(texts):
            (d / f"day{i}.csv").write_bytes(text.encode("utf-8"))
        files = sorted(d.glob("*.csv"))
        source = d if len(files) > 1 else files[0]
        try:
            expected = reference_windows(files, source, window_len, offset)
        except SignalError as exc:
            with pytest.raises(SignalError) as got:
                load_archive(source, window_len, 1.0, offset=offset)
            assert type(got.value) is type(exc)
            assert str(got.value) == str(exc)
            return
        archive = load_archive(source, window_len, 1.0, offset=offset)
    assert same_bits(np.stack([w.samples for w in archive.windows]), expected)


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


def reference_check_step(cfg, step, e_next, *, power_tol, soc_tol) -> FeasibilityVerdict:
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
    if not batt.soc_min - soc_tol <= e_next.e <= batt.soc_max + soc_tol:
        violations.append(
            f"soc-bounds: e={e_next.e!r} outside [{batt.soc_min}, {batt.soc_max}]"
        )
    return FeasibilityVerdict(violations=tuple(violations))


def reference_validate(cfg, trace, *, power_tol, soc_tol) -> list:
    """validate_trace as it was: a DispatchStep, a SocState and a verdict
    per step."""
    bad = []
    for k in range(trace.n_steps):
        step = DispatchStep(
            p_gen=float(trace.p_gen[k]),
            p_load=float(trace.p_load[k]),
            p_discharge=float(trace.p_discharge[k]),
            p_charge=float(trace.p_charge[k]),
            p_hes=float(trace.p_hes[k]),
        )
        verdict = reference_check_step(
            cfg, step, SocState(e=float(trace.soc[k + 1])), power_tol=power_tol, soc_tol=soc_tol
        )
        if not verdict.feasible:
            bad.append((k, verdict))
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
    verdicts = dict(expected)
    for k in range(trace.n_steps):
        step = DispatchStep.from_assets(
            *(float(getattr(trace, name)[k]) for name in COLUMNS[1:5])
        )
        verdict = check_step_feasible(
            cfg, step, SocState(float(trace.soc[k + 1])), power_tol=power_tol, soc_tol=soc_tol
        )
        assert verdict == verdicts.get(k, FeasibilityVerdict(violations=()))
