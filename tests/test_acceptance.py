"""Acceptance suite. One test per criterion, one printed verdict line each.

Every tolerance is pinned here, next to the check that uses it. Criterion 6
needs a real regulation-signal year archive and is skipped (and says so)
unless HES_REGKIT_PJM_ARCHIVE points at one.
"""

import os
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    DT_2S,
    batch_envelope,
    random_capacity,
    random_signal,
    random_system,
    reference_market,
    reference_system,
    same_bits,
)
from hes_regkit.bidding import SweepGrid, score_samples, solve_bid
from hes_regkit.cli import main
from hes_regkit.controller import rt_dispatch, rt_dispatch_batch, validate_trace
from hes_regkit.model import GeneratorParams, HesConfig, LoadParams
from hes_regkit.offline import (
    BudgetError,
    DpOracleConfig,
    EquivalenceError,
    benchmark_controller,
    dp_oracle,
    offline_dispatch,
)
from hes_regkit.signals import SignalArchive, archive_stats, load_archive, synth_signal

ARCHIVE_ENV = "HES_REGKIT_PJM_ARCHIVE"


def _verdict(capsys, num: int, name: str, ok: bool, detail: str = "") -> None:
    with capsys.disabled():
        print(f"[acceptance] criterion {num} ({name}): {'PASS' if ok else 'FAIL'}",
              flush=True)
    assert ok, f"criterion {num} ({name}): {detail}"


def _skip(capsys, num: int, name: str, why: str) -> None:
    with capsys.disabled():
        print(f"[acceptance] criterion {num} ({name}): SKIP ({why})", flush=True)
    pytest.skip(why)


def _grid_resolution_mw(cfg: HesConfig, grid: DpOracleConfig) -> float:
    de = (cfg.batt.soc_max - cfg.batt.soc_min) / (grid.soc_grid_points - 1)
    dp = 2 * cfg.batt.p_max / (grid.power_grid_points - 1)
    return max(dp, de * cfg.batt.energy_capacity / (cfg.dt * cfg.batt.eta_d))


def _neutral_archive(n: int, n_windows: int, seed0: int, dt: float = DT_2S) -> SignalArchive:
    windows = tuple(
        synth_signal("energy-neutral-random", n=n, dt=dt, seed=seed0 + i)
        for i in range(n_windows)
    )
    return SignalArchive(windows=windows, source="acceptance-synthetic")


def test_criterion_1_interior_equivalence(capsys):
    # >= 500 randomized instances where the closed form certifies the SoC
    # stayed strictly interior; there the rule's L1 error must equal the
    # offline optimum to 1e-6 relative (floored at 1 MW of slack).
    rng = np.random.default_rng(20260814)
    needed, cap_attempts = 500, 3000
    held = attempts = 0
    worst = 0.0
    failures = []
    while held < needed and attempts < cap_attempts:
        attempts += 1
        cfg = random_system(rng, DT_2S)
        n = int(rng.integers(60, 601))
        sig = random_signal(rng, n, DT_2S)
        c = random_capacity(rng, cfg)
        try:
            rep = benchmark_controller(cfg, c, sig, dp_step_budget=700)
        except BudgetError:
            continue
        except EquivalenceError as exc:
            failures.append(str(exc))
            held += 1
            continue
        if rep.hypothesis_held:
            held += 1
            worst = max(worst, abs(rep.gap) / max(1.0, rep.j_off))
    ok = held >= needed and not failures and worst <= 1e-6
    _verdict(
        capsys, 1, "interior-equivalence", ok,
        f"held={held}/{needed} attempts={attempts} worst_rel_gap={worst:.3e} "
        f"failures={failures[:3]}",
    )


def test_criterion_2_oracle_agreement(capsys):
    # >= 100 short instances where the LP route applied cleanly must agree
    # with the value-iteration oracle within twice its grid resolution, and
    # the LP relaxation bound may never exceed the oracle (1e-6 slack).
    rng = np.random.default_rng(7041776)
    grid = DpOracleConfig(soc_grid_points=101, power_grid_points=101)
    clean = 0
    bad_gap = []
    bad_bound = []
    for _ in range(120):
        dt = float(rng.uniform(0.02, 0.1))
        cfg = random_system(rng, dt)
        n = int(rng.integers(20, 61))
        sig = random_signal(rng, n, dt)
        c = random_capacity(rng, cfg)
        off = offline_dispatch(cfg, c, sig)
        dp = dp_oracle(cfg, c, sig, grid)
        if off.lp_bound is not None and off.lp_bound > dp.objective + 1e-6 * max(
            1.0, abs(dp.objective)
        ):
            bad_bound.append((off.lp_bound, dp.objective))
        if off.solver_path in ("lp", "lp-with-repair"):
            clean += 1
            tol = 2.0 * _grid_resolution_mw(cfg, grid)
            if abs(dp.objective - off.objective) > tol:
                bad_gap.append((off.objective, dp.objective, tol))
    ok = clean >= 100 and not bad_gap and not bad_bound
    _verdict(
        capsys, 2, "oracle-agreement", ok,
        f"clean={clean}/100 gap_violations={bad_gap[:3]} bound_violations={bad_bound[:3]}",
    )


def test_criterion_3_dispatch_safety(capsys):
    # 10^4 fuzzed windows: SoC inside its envelope to 1e-12, no simultaneous
    # charge/discharge, every asset inside its power bounds to 1e-9.
    rng = np.random.default_rng(90125)
    n_systems, windows_per, n = 100, 100, 240
    problems = []
    for i in range(n_systems):
        cfg = random_system(rng, DT_2S)
        c = random_capacity(rng, cfg)
        samples = np.stack(
            [random_signal(rng, n, DT_2S).samples for _ in range(windows_per)]
        )
        b = rt_dispatch_batch(cfg, c, samples, DT_2S)
        # the envelope over every step of the rule's columns, whose SoC is b's
        bad, soc = batch_envelope(cfg, c, samples, power_tol=1e-9, soc_tol=1e-12)
        if bad:
            problems.append(f"system {i}: {bad[0]}")
        if not same_bits(b.soc, soc.T):
            problems.append(f"system {i}: batch SoC is not the rule's columns")
    # spot-check the scalar path with the full per-step validator too
    for i in range(50):
        cfg = random_system(rng, DT_2S)
        sig = random_signal(rng, 200, DT_2S)
        trace = rt_dispatch(cfg, random_capacity(rng, cfg), sig)
        bad = validate_trace(cfg, trace, soc_tol=1e-12)
        if bad:
            problems.append(f"scalar {i}: {bad[0]}")
    _verdict(capsys, 3, "dispatch-safety", not problems, f"violations={problems[:5]}")


def test_criterion_4_score_regimes(capsys):
    # Reference system, SoC-interior synthetic archive: the score is exactly
    # 1.0 for every bid at or below the 8 MW reach, and per-window scores
    # never increase with the bid (1e-12 slack on the monotonicity diffs).
    cfg = reference_system()
    arch = _neutral_archive(n=1800, n_windows=6, seed0=41000)
    problems = []
    for c in (1.0, 2.5, 5.0, 7.0, 8.0):
        scores = score_samples(cfg, c, arch)
        if not np.all(scores == 1.0):
            problems.append(f"c={c}: scores={scores}")
    ladder = np.arange(0.5, 20.01, 0.5)
    table = np.stack([score_samples(cfg, float(c), arch) for c in ladder])
    diffs = np.diff(table, axis=0)
    if diffs.max() > 1e-12:
        k = np.unravel_index(np.argmax(diffs), diffs.shape)
        problems.append(
            f"window {k[1]} score rose by {diffs[k]:.3e} at c={ladder[k[0] + 1]}"
        )
    _verdict(capsys, 4, "score-regimes", not problems, f"problems={problems[:4]}")


def test_criterion_5_bid_crossing(capsys):
    # Square-wave archive, amplitude 0.8: each step saturates at the 8 MW
    # reach once the bid exceeds 10, so the score is exactly 8/(0.8 c) there
    # and the compliance crossing sits at 8/(0.8 * 0.75) = 40/3 MW. The
    # solver must land within 0.01 MW of it and must cap the bid exactly.
    cfg = reference_system()
    windows = tuple(
        synth_signal("square-wave", n=360, dt=DT_2S, seed=0, amplitude=0.8)
        for _ in range(4)
    )
    arch = SignalArchive(windows=windows, source="acceptance-square")
    grid = SweepGrid(c_lo=1.0, c_hi=18.0)
    problems = []

    sol = solve_bid(cfg, arch, reference_market(), grid)
    analytic = 40.0 / 3.0
    if abs(sol.c_bar - analytic) > 0.01:
        problems.append(f"c_bar={sol.c_bar!r} vs analytic {analytic!r}")
    if sol.c_star != min(sol.c_hat, 20.0):
        problems.append(f"c_star={sol.c_star!r} c_hat={sol.c_hat!r}")

    capped = solve_bid(cfg, arch, reference_market(c_max=5.0), grid)
    if capped.c_star != 5.0:
        problems.append(f"capped c_star={capped.c_star!r}")
    _verdict(capsys, 5, "bid-crossing", not problems, f"problems={problems}")


def test_criterion_6_dataset_reproduction(capsys):
    # Needs the real year-long 2-second regulation archive; everything here
    # is conditional on that data, so absence means SKIP, not PASS.
    src = os.environ.get(ARCHIVE_ENV, "").strip()
    if not src:
        _skip(capsys, 6, "dataset-reproduction",
              f"set {ARCHIVE_ENV} to a year archive to run")
    arch = load_archive(Path(src), window_len=1800, dt=DT_2S)
    cfg = reference_system()
    market = reference_market()
    grid = SweepGrid(c_lo=1.0, c_hi=20.0)
    problems = []

    stats = archive_stats(arch)
    if abs(stats.w.mean - (-0.02)) > 0.01:
        problems.append(f"mean W={stats.w.mean:.4f} expected -0.02 +/- 0.01")

    sol = solve_bid(cfg, arch, market, grid)
    star = sol.point_at(sol.c_star)
    if abs(sol.c_star - 12.21) > 0.05:
        problems.append(f"c_star={sol.c_star:.3f} expected 12.21 +/- 0.05")
    if star is None or abs(star.z_gamma - 0.750) > 0.005:
        problems.append(f"z_gamma={None if star is None else star.z_gamma}")
    if star is None or abs(star.mean_xp - 0.813) > 0.01:
        problems.append(f"mean_xp={None if star is None else star.mean_xp}")

    expected_gen = {0: 9.78, 3: 12.21, 5: 13.43, 8: 14.88, 13: 15.78, 25: 14.92, 50: 14.92}
    expected_load = {0: 9.2, 3: 12.21, 5: 13.75, 8: 15.8, 13: 18.12, 25: 17.34, 50: 17.34}
    for attr, expected in (("gen", expected_gen), ("load", expected_load)):
        for value, want in expected.items():
            if attr == "gen":
                varied = HesConfig(gen=GeneratorParams(p_max=float(value)),
                                   load=cfg.load, batt=cfg.batt, dt=cfg.dt)
            else:
                varied = HesConfig(gen=cfg.gen, load=LoadParams(p_max=float(value)),
                                   batt=cfg.batt, dt=cfg.dt)
            got = solve_bid(varied, arch, market, grid).c_star
            if abs(got - want) > 0.3:
                problems.append(f"{attr}={value}: c_star={got:.2f} expected {want} +/- 0.3")
    _verdict(capsys, 6, "dataset-reproduction", not problems, f"problems={problems[:6]}")


def test_criterion_7_knee_structure(capsys):
    # Mean score curves: exactly 1 up to the smaller total reach, strictly
    # decreasing once past the larger one (margin 1e-9 per 0.5 MW step).
    base = reference_system()
    arch = _neutral_archive(n=900, n_windows=4, seed0=500)
    problems = []
    for gen, load in ((3.0, 3.0), (1.0, 3.0), (3.0, 0.0)):
        cfg = HesConfig(gen=GeneratorParams(p_max=gen), load=LoadParams(p_max=load),
                        batt=base.batt, dt=base.dt)
        b1 = min(gen, load) + cfg.batt.p_max
        b2 = max(gen, load) + cfg.batt.p_max
        for c in (0.5 * b1, 0.9 * b1, b1):
            m = float(np.mean(score_samples(cfg, c, arch)))
            if m != 1.0:
                problems.append(f"gen={gen} load={load} c={c}: mean={m!r} below knee")
        curve = [
            float(np.mean(score_samples(cfg, b2 + 0.5 * i, arch))) for i in range(13)
        ]
        diffs = np.diff(curve)
        if diffs.max() > -1e-9:
            problems.append(
                f"gen={gen} load={load}: not strictly decreasing past {b2} "
                f"(max diff {diffs.max():.3e})"
            )
    _verdict(capsys, 7, "knee-structure", not problems, f"problems={problems[:4]}")


CLI_CONFIG = """\
[hes]
gen_p_max = 3.0
load_p_max = 3.0
batt_p_max = 5.0
batt_energy_capacity = 5.0
batt_eta_c = 0.95
batt_eta_d = 0.95
batt_soc_min = 0.1
batt_soc_max = 0.9
batt_soc_init = 0.5
dt_seconds = 2.0

[market]
lambda_c = 40.0
lambda_m = 10.0
x_p_min = 0.75
gamma = 0.9
c_max = 20.0

[sweep]
c_lo = 1.0
c_hi = 20.0

[signal]
synth_kind = energy-neutral-random
synth_n = 240
synth_windows = 5
window_len = 240

[run]
out_dir = out
seed = 11
"""


def test_criterion_8_cli_determinism(capsys, tmp_path):
    # Every subcommand, run twice with the same config and seed, must emit
    # byte-identical artifact sets.
    config = tmp_path / "exp.ini"
    config.write_text(CLI_CONFIG)
    commands = {
        "characterize": ["characterize"],
        "dispatch": ["dispatch", "--capacity", "10", "--mode", "both", "--window", "1"],
        "bid": ["bid"],
        "asym-sweep": ["asym-sweep", "--vary", "gen", "--values", "0,3"],
        "soc-drift": ["soc-drift", "--capacity", "8"],
        "synth": ["synth"],
    }
    problems = []
    for label, args in commands.items():
        outs = []
        for run_id in ("a", "b"):
            out = tmp_path / f"{label}-{run_id}"
            rc = main(args + ["--config", str(config), "--out", str(out)])
            if rc != 0:
                problems.append(f"{label}: exit {rc}")
            outs.append(out)
        names = [sorted(p.name for p in out.iterdir()) for out in outs]
        if names[0] != names[1]:
            problems.append(f"{label}: file sets differ {names[0]} vs {names[1]}")
            continue
        for name in names[0]:
            if (outs[0] / name).read_bytes() != (outs[1] / name).read_bytes():
                problems.append(f"{label}: {name} differs between reruns")
    _verdict(capsys, 8, "cli-determinism", not problems, f"problems={problems[:6]}")
