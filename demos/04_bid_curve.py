"""From score distribution to capacity bid.

For each candidate bid C the toolkit dispatches every archive window, turns
the tracking errors into scores x_p(C), and takes an empirical lower
confidence bound z_gamma(C). The bid solver finds where that bound crosses
the compliance threshold and then picks the revenue-maximizing compliant bid.

A square-wave archive makes the whole pipeline checkable by hand: every
step asks for +/- 0.8 C, the system can move 8 MW, so

    x_p(C) = 1                  for C <= 10
    x_p(C) = 8 / (0.8 C)        for C >  10

and the 0.75 threshold is crossed exactly at C = 40/3 = 13.333 MW.

Run:  python3 demos/04_bid_curve.py [out_dir]
"""

import sys
from pathlib import Path

import numpy as np

from hes_regkit import (
    BatteryParams,
    GeneratorParams,
    HesConfig,
    LoadParams,
    MarketParams,
    SignalArchive,
    SweepGrid,
    expected_revenue,
    solve_bid,
    synth_signal,
)
from hes_regkit.reports import write_csv

cfg = HesConfig(
    gen=GeneratorParams(p_max=3.0),
    load=LoadParams(p_max=3.0),
    batt=BatteryParams(p_max=5.0, energy_capacity=5.0, eta_c=0.95, eta_d=0.95,
                       soc_min=0.1, soc_max=0.9, soc_init=0.5),
    dt=2.0 / 3600.0,
)
market = MarketParams(lambda_c=40.0, lambda_m=10.0, x_p_min=0.75, gamma=0.9, c_max=20.0)

print("hand-checkable case: square wave, amplitude 0.8")
square = SignalArchive(
    np.stack([synth_signal("square-wave", n=1800, dt=cfg.dt, seed=0, amplitude=0.8).samples
              for _ in range(4)]),
    cfg.dt,
    "demo:square",
)
sol = solve_bid(cfg, square, market, SweepGrid(c_lo=1.0, c_hi=18.0))
print(f"  compliance crossing C_bar : {sol.c_bar:.4f} MW (analytic 40/3 = {40 / 3:.4f})")
print(f"  best compliant bid C_hat  : {sol.c_hat:.4f} MW")
print(f"  submitted bid C_star      : {sol.c_star:.4f} MW (cap {market.c_max})")

print("\nrealistic case: 8 energy-neutral synthetic hours")
neutral = SignalArchive(
    np.stack([synth_signal("energy-neutral-random", n=1800, dt=cfg.dt, seed=100 + i).samples
              for i in range(8)]),
    cfg.dt,
    "demo:neutral",
)
sol2 = solve_bid(cfg, neutral, market, SweepGrid(c_lo=1.0, c_hi=20.0))
print("      C     mean x_p   z_0.9   compliant share")
for pt in sol2.curve[::8]:
    print(f"  {pt.c:6.2f}   {pt.mean_xp:7.4f}  {pt.z_gamma:6.4f}   {pt.prob_compliant:5.3f}")
print(f"  crossing C_bar {sol2.c_bar:.3f} MW, submitted C_star {sol2.c_star:.3f} MW")
summary = expected_revenue(sol2, neutral, market)
print(f"  expected hourly revenue at C_star: ${summary.with_mileage:,.0f} "
      f"(${summary.capacity_only:,.0f} capacity part)")

print("""
The square-wave run lands within the bisection tolerance of the analytic
crossing, which is the cheapest possible end-to-end correctness check. On
the random archive the curve bends smoothly instead of kinking, but the
shape is the same: flat at 1.0 while every command is reachable, then a
decay whose crossing sets the bid.
""".rstrip())

if len(sys.argv) > 1:
    out = Path(sys.argv[1])
    out.mkdir(parents=True, exist_ok=True)
    write_csv(
        out / "bid_curve.csv",
        ["c", "mean_xp", "z_gamma", "prob_compliant"],
        ([pt.c, pt.mean_xp, pt.z_gamma, pt.prob_compliant] for pt in sol2.curve),
    )
    print(f"\nwrote {out / 'bid_curve.csv'}")
