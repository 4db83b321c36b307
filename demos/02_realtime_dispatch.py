"""Follow the real-time rule through one window, step by step.

A 3 MW generator, 3 MW controllable load and a 5 MW / 5 MWh battery track
C times a normalized regulation signal. The rule is greedy and causal:
generator first against upward commands, load first against downward ones,
battery covers the remainder subject to state-of-charge headroom.

Run:  python3 demos/02_realtime_dispatch.py [out_dir]
With an out_dir it also writes the full trace as CSV.
"""

import sys
from pathlib import Path

from hes_regkit import (
    BatteryParams,
    GeneratorParams,
    HesConfig,
    LoadParams,
    MarketParams,
    make_report,
    rt_dispatch,
    save_trace_csv,
    synth_signal,
)

cfg = HesConfig(
    gen=GeneratorParams(p_max=3.0),
    load=LoadParams(p_max=3.0),
    batt=BatteryParams(p_max=5.0, energy_capacity=5.0, eta_c=0.95, eta_d=0.95,
                       soc_min=0.1, soc_max=0.9, soc_init=0.5),
    dt=2.0 / 3600.0,
)
market = MarketParams(lambda_c=40.0, lambda_m=10.0, x_p_min=0.75, gamma=0.9, c_max=20.0)

sig = synth_signal("energy-neutral-random", n=1800, dt=cfg.dt, seed=7)

for c in (6.0, 12.0):
    trace = rt_dispatch(cfg, c, sig)
    report = make_report(trace, market)  # the trace carries c and the signal
    print(f"\nbid C = {c:.0f} MW")
    print(f"  score x_p     : {report.x_p:.4f}")
    print(f"  SoC range     : [{trace.soc.min():.4f}, {trace.soc.max():.4f}] "
          f"(limits 0.10 / 0.90)")
    print(f"  hourly revenue: ${report.revenue:,.0f}")
    print("  k    r       target   gen    load   batt    achieved")
    for k in (0, 1, 2, 600, 1200):
        batt = trace.p_discharge[k] + trace.p_charge[k]
        print(f"  {k:<4d} {trace.r[k]:+.3f}  {trace.target[k]:+7.3f}  "
              f"{trace.p_gen[k]:5.2f}  {trace.p_load[k]:5.2f}  {batt:+6.2f}  "
              f"{trace.p_hes[k]:+7.3f}")

print("""
At 6 MW every command is within the 8 MW reach on both sides, so the
achieved output equals the target and the score is exactly 1. At 12 MW the
signal peaks ask for more than the assets can move; the shortfall shows up
directly in x_p. The battery barely moves the state of charge in an hour
of 2-second wiggles, which is why the same rule stays safe window after
window.
""".rstrip())

if len(sys.argv) > 1:
    out = Path(sys.argv[1])
    out.mkdir(parents=True, exist_ok=True)
    trace = rt_dispatch(cfg, 12.0, sig)
    save_trace_csv(out / "trace_c12.csv", trace)
    print(f"\nwrote {out / 'trace_c12.csv'}")
