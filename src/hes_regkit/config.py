"""Experiment configuration: INI parsing, overrides, signal-source resolution.

One INI file describes a full experiment: the system under test ([hes]),
market constants ([market]), the capacity sweep ([sweep]), exactly one signal
source ([signal]: an archive path or a synthetic spec), and run plumbing
([run]: output directory and RNG seed). ``print_schema`` documents every key.

The parameter dataclasses are the key list: a key is a field name, prefixed
with ``gen_``, ``load_`` or ``batt_`` in [hes] and ``synth_`` in [signal];
the field's annotation is its type and the field's default its default.
Only ``dt_seconds``/``dt_hours``, ``archive``, ``window_len``,
``window_offset``, ``out_dir`` and ``seed`` are read by name. Unknown
sections and keys are refused. With a synthetic source, ``window_len`` and
``synth_n`` are one length: either key sets both, and a pair that disagrees
is refused.
"""

from __future__ import annotations

import configparser
import dataclasses
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bidding import SweepGrid
from .model import BatteryParams, GeneratorParams, HesConfig, LoadParams
from .scoring import MarketParams
from .signals import SYNTH_KINDS, SignalArchive, load_archive, synth_signal

__all__ = [
    "ConfigError",
    "SynthSpec",
    "RunConfig",
    "load_config",
    "resolve_archive",
    "config_digest_payload",
    "print_schema",
    "SCHEMA",
]


class ConfigError(ValueError):
    """Bad or missing configuration value; message names section and key."""


def _capacity_limit(n: int, market: MarketParams) -> float:
    """Largest capacity, MW, whose outputs cannot overflow on n-step windows:
    per MW, C * sum|r| and the L1 error sum are at most n (|r| <= 1), the
    revenue at most lambda_c + lambda_m * 2(n - 1) (x_p <= 1); half the
    largest float leaves room for the sums' rounding."""
    return sys.float_info.max / 2.0 / max(
        n, market.lambda_c + market.lambda_m * 2.0 * (n - 1)
    )


@dataclass(frozen=True)
class SynthSpec:
    """Synthetic archive recipe: ``windows`` windows of ``n`` samples each."""

    kind: str
    n: int
    windows: int = 1
    amplitude: float = 1.0
    period: int = 2
    bias: float = 0.0
    noise: float = 0.5

    def __post_init__(self) -> None:
        if self.kind not in SYNTH_KINDS:
            raise ConfigError(
                f"[signal] synth_kind must be one of {SYNTH_KINDS}, got {self.kind!r}"
            )
        if self.n < 2:
            raise ConfigError(
                f"[signal] synth_n: a window needs n >= 2 samples, got {self.n}"
            )
        if self.windows < 1:
            raise ConfigError(f"[signal] synth_windows must be >= 1, got {self.windows}")


@dataclass(frozen=True)
class RunConfig:
    """Everything one CLI invocation needs, resolved and validated."""

    hes: HesConfig
    market: MarketParams
    sweep: SweepGrid
    archive_path: str | None
    window_len: int
    window_offset: int
    synth: SynthSpec | None
    out_dir: str
    seed: int

    def with_overrides(
        self,
        *,
        out_dir: str | None = None,
        seed: int | None = None,
        gamma: float | None = None,
        x_p_min: float | None = None,
    ) -> "RunConfig":
        def given(**values) -> dict:
            return {k: v for k, v in values.items() if v is not None}

        market = dataclasses.replace(self.market, **given(gamma=gamma, x_p_min=x_p_min))
        return dataclasses.replace(
            self, market=market, **given(out_dir=out_dir, seed=seed)
        )


SCHEMA = """\
# hes-regkit experiment configuration (INI). '#' and ';' start comments.
# Unknown sections and keys are refused.

[hes]
gen_p_max = 3.0           # generator limit, MW
gen_p_min = 0.0           # generator floor, MW (dispatch requires 0)
load_p_max = 3.0          # controllable load limit, MW (consumption)
batt_p_max = 5.0          # battery charge/discharge limit, MW
batt_energy_capacity = 5.0  # battery capacity, MWh (SoC base)
batt_eta_c = 0.95         # charge efficiency, (0, 1]
batt_eta_d = 0.95         # discharge efficiency, (0, 1]
batt_soc_min = 0.1        # SoC floor, [0, 1)
batt_soc_max = 0.9        # SoC ceiling, (0, 1]
batt_soc_init = 0.5       # initial SoC
dt_seconds = 2.0          # control interval (alternatively: dt_hours)

[market]
lambda_c = 40.0           # capacity price, $/MW per window
lambda_m = 10.0           # mileage price, $/MW moved
x_p_min = 0.75            # compliance threshold on the score
gamma = 0.9               # confidence for the score lower quantile
c_max = 20.0              # market cap on the bid, MW

[sweep]
c_lo = 1.0                # sweep start, MW
c_hi = 20.0               # sweep end, MW
coarse_step = 0.25        # coarse grid step, MW
refine_tol = 0.01         # bisection width target, MW

[signal]                  # exactly one source: archive OR synth_kind
# archive = data/regd/    # CSV file or directory of CSVs (header: timestamp,r)
window_len = 1800         # samples per window (synth_n, with a synth source)
window_offset = 0         # samples to skip before the first window
synth_kind = energy-neutral-random  # or: drifting | square-wave
synth_n = 1800            # samples per synthetic window
synth_windows = 8         # number of synthetic windows
synth_amplitude = 1.0     # energy-neutral-random / square-wave level
synth_period = 2          # square-wave period, even
synth_bias = 0.0          # drifting mean level, [-1, 1]
synth_noise = 0.5         # drifting noise half-width, >= 0

[run]
out_dir = out             # where reports are written
seed = 0                  # base RNG seed for synthetic sources
"""


def print_schema() -> str:
    return SCHEMA


# the assets of HesConfig; field f of asset a is the [hes] key "a_f"
_ASSETS = {"gen": GeneratorParams, "load": LoadParams, "batt": BatteryParams}

_TYPES = {"float": (float, "a number"), "int": (int, "an integer"), "str": (str, "")}


def _pop(items: dict, section: str, key: str, type_name: str, default):
    """Remove ``key`` from one section's items and parse it as ``type_name``;
    ``default`` is ``dataclasses.MISSING`` for a required key."""
    if key not in items:
        if default is dataclasses.MISSING:
            raise ConfigError(f"[{section}] missing required key {key!r}")
        return default
    raw = items.pop(key)
    parse, kind = _TYPES[type_name]
    try:
        return parse(raw)
    except ValueError:
        raise ConfigError(f"[{section}] {key} must be {kind}, got {raw!r}") from None


def _build(cls, items: dict, section: str, prefix: str = "", **defaults):
    """One dataclass from the keys ``prefix + field name``. A field's annotation
    gives the key's type, and its default (or ``defaults``) the key's default."""
    return cls(
        **{
            f.name: _pop(
                items, section, prefix + f.name, f.type, defaults.get(f.name, f.default)
            )
            for f in dataclasses.fields(cls)
        }
    )


def load_config(path: str | Path) -> RunConfig:
    """Parse and validate one experiment INI file. Unknown sections and keys
    are refused."""
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(p, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except configparser.Error as exc:
        raise ConfigError(f"{p}: {exc}") from None
    if parser.defaults():  # would be read into every section
        raise ConfigError(f"unknown section [{parser.default_section}]")
    sections = {name: {} for name in ("hes", "market", "sweep", "signal", "run")}
    for name in parser.sections():
        if name not in sections:
            raise ConfigError(f"unknown section [{name}]")
        sections[name] = dict(parser.items(name))
    hes_s, sig_s, run_s = sections["hes"], sections["signal"], sections["run"]

    if ("dt_seconds" in hes_s) == ("dt_hours" in hes_s):
        raise ConfigError("[hes] needs exactly one of dt_seconds / dt_hours")
    if "dt_seconds" in hes_s:
        dt = _pop(hes_s, "hes", "dt_seconds", "float", None) / 3600.0
    else:
        dt = _pop(hes_s, "hes", "dt_hours", "float", None)
    try:
        hes = HesConfig(
            **{a: _build(cls, hes_s, "hes", a + "_") for a, cls in _ASSETS.items()},
            dt=dt,
        )
        market = _build(MarketParams, sections["market"], "market")
        sweep = _build(SweepGrid, sections["sweep"], "sweep")
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(str(exc)) from None

    archive_path = _pop(sig_s, "signal", "archive", "str", None)
    has_synth = "synth_kind" in sig_s
    if (archive_path is None) == (not has_synth):
        raise ConfigError(
            "[signal] needs exactly one source: 'archive' or 'synth_kind'"
        )
    len_given = "window_len" in sig_s
    window_len = _pop(sig_s, "signal", "window_len", "int", 1800)
    synth = None
    if has_synth:  # one window length: either key gives the other's default
        synth = _build(SynthSpec, sig_s, "signal", "synth_", n=window_len)
        if len_given and window_len != synth.n:
            raise ConfigError(
                f"[signal] window_len = {window_len} disagrees with synth_n = {synth.n}"
            )
        window_len = synth.n
    c_limit = _capacity_limit(window_len, market)
    if sweep.c_hi > c_limit:
        raise ConfigError(f"[sweep] c_hi must be <= {c_limit!r} MW on {window_len}-step "
                          f"windows at these prices, got {sweep.c_hi!r}")
    cfg = RunConfig(
        hes=hes,
        market=market,
        sweep=sweep,
        archive_path=archive_path,
        window_len=window_len,
        window_offset=_pop(sig_s, "signal", "window_offset", "int", 0),
        synth=synth,
        out_dir=_pop(run_s, "run", "out_dir", "str", "out"),
        seed=_pop(run_s, "run", "seed", "int", 0),
    )
    for name, items in sections.items():
        if items:
            raise ConfigError(f"[{name}] unknown key {', '.join(map(repr, items))}")
    return cfg


def resolve_archive(cfg: RunConfig) -> SignalArchive:
    """Materialize the configured signal source into an archive."""
    if cfg.archive_path is not None:
        return load_archive(
            cfg.archive_path, cfg.window_len, cfg.hes.dt, offset=cfg.window_offset
        )
    spec = cfg.synth
    samples = np.empty((spec.windows, spec.n))
    for i, row in enumerate(samples):  # window i from seed + i, in place
        row[:] = synth_signal(
            spec.kind,
            spec.n,
            cfg.hes.dt,
            cfg.seed + i,
            amplitude=spec.amplitude,
            period=spec.period,
            bias=spec.bias,
            noise=spec.noise,
        ).samples
    samples.setflags(write=False)
    return SignalArchive(samples, cfg.hes.dt, f"synth:{spec.kind}")


def config_digest_payload(cfg: RunConfig) -> dict:
    """Canonical dict of everything that influences results (not out_dir)."""
    hes = {
        f"{asset}_{name}": value
        for asset in _ASSETS
        for name, value in dataclasses.asdict(getattr(cfg.hes, asset)).items()
    }
    payload = {
        "hes": {**hes, "dt_hours": cfg.hes.dt},
        "market": dataclasses.asdict(cfg.market),
        "sweep": dataclasses.asdict(cfg.sweep),
        "signal": {
            "archive": cfg.archive_path,
            "window_len": cfg.window_len,
            "window_offset": cfg.window_offset,
        },
        "seed": cfg.seed,
    }
    if cfg.synth is not None:
        payload["signal"]["synth"] = dataclasses.asdict(cfg.synth)
    return payload
