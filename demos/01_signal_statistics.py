"""What do regulation signals look like, and why does the archive shape the bid?

Builds three small synthetic archives (energy-neutral, drifting, square-wave)
and prints the per-window statistics the rest of the toolkit keys off:
hourly energy W, worst prefix energy W_inf, and mileage.

Run:  python3 demos/01_signal_statistics.py [out_dir]
With an out_dir it also writes one window of each kind as CSV.
"""

import sys
from pathlib import Path

import numpy as np

from hes_regkit import SignalArchive, archive_stats, save_signal, synth_signal

DT = 2.0 / 3600.0  # 2-second sampling, expressed in hours
N = 1800           # one hour per window


def build(kind, seeds, **kw):
    # one (windows, N) matrix; each window of the archive is a row of it
    windows = [synth_signal(kind, n=N, dt=DT, seed=s, **kw).samples for s in seeds]
    return SignalArchive(np.stack(windows), DT, f"demo:{kind}")


def describe(label, arch):
    stats = archive_stats(arch)
    print(f"\n{label} ({arch.n_windows} windows of {N} samples)")
    print(f"  energy W    : mean {stats.w.mean:+.4f}  std {stats.w.std:.4f}  "
          f"range [{stats.w.min:+.4f}, {stats.w.max:+.4f}] MWh per MW of bid")
    print(f"  worst prefix: mean {stats.w_inf.mean:.4f} MWh per MW of bid")
    print(f"  mileage     : mean {stats.mileage.mean:.1f} per window")


neutral = build("energy-neutral-random", seeds=range(6))
drifting = build("drifting", seeds=range(6), bias=-0.15, noise=0.5)
square = build("square-wave", seeds=[0] * 3, amplitude=0.8, period=2)

describe("energy-neutral", neutral)
describe("drifting (bias -0.15)", drifting)
describe("square wave (amplitude 0.8)", square)

print("""
Reading the numbers:
  * W is the net energy a 1 MW bid would push through the battery in an
    hour. Near zero means the battery ends where it started; a persistent
    bias drains or fills it and eventually caps how large a bid is safe.
  * W_inf bounds the in-hour excursion, which is what actually hits the
    state-of-charge limits.
  * Mileage multiplies the mileage price in the revenue model, so two
    archives with equal W can still pay very differently.
""".rstrip())

if len(sys.argv) > 1:
    out = Path(sys.argv[1])
    out.mkdir(parents=True, exist_ok=True)
    for name, arch in (("neutral", neutral), ("drifting", drifting), ("square", square)):
        save_signal(out / f"window_{name}.csv", arch.windows[0].samples)
    print(f"\nwrote one example window per kind to {out}/")
