"""Experiment configuration: INI parsing, overrides, signal-source resolution.

One INI file describes a full experiment: the system under test ([hes]),
market constants ([market]), the capacity sweep ([sweep]), exactly one signal
source ([signal]: an archive path or a synthetic spec), and run plumbing
([run]: output directory and RNG seed). ``print_schema`` documents every key.
"""

from __future__ import annotations

import configparser
import dataclasses
from dataclasses import dataclass
from pathlib import Path

from .bidding import SweepGrid
from .model import BatteryParams, GeneratorParams, HesConfig, LoadParams
from .scoring import MarketParams
from .signals import SYNTH_KINDS, RegSignal, SignalArchive, load_archive, synth_signal

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


@dataclass(frozen=True)
class SynthSpec:
    """Synthetic archive recipe: ``windows`` windows of ``n`` samples each."""

    kind: str
    n: int
    windows: int
    amplitude: float = 1.0
    period: int = 2
    bias: float = 0.0
    noise: float = 0.5

    def __post_init__(self) -> None:
        if self.kind not in SYNTH_KINDS:
            raise ConfigError(
                f"[signal] synth_kind must be one of {SYNTH_KINDS}, got {self.kind!r}"
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
        cfg = self
        if out_dir is not None:
            cfg = dataclasses.replace(cfg, out_dir=out_dir)
        if seed is not None:
            cfg = dataclasses.replace(cfg, seed=seed)
        if gamma is not None or x_p_min is not None:
            market = dataclasses.replace(
                cfg.market,
                gamma=cfg.market.gamma if gamma is None else gamma,
                x_p_min=cfg.market.x_p_min if x_p_min is None else x_p_min,
            )
            cfg = dataclasses.replace(cfg, market=market)
        return cfg


SCHEMA = """\
# hes-regkit experiment configuration (INI). '#' and ';' start comments.

[hes]
gen_p_max = 3.0           # generator limit, MW
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
window_len = 1800         # samples per window
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


class _Section:
    """Typed accessors over one INI section with decent error messages."""

    def __init__(self, parser: configparser.ConfigParser, name: str):
        self._name = name
        self._items = dict(parser.items(name)) if parser.has_section(name) else {}

    def has(self, key: str) -> bool:
        return key in self._items

    def _raw(self, key: str, default):
        if key not in self._items:
            if default is _REQUIRED:
                raise ConfigError(f"[{self._name}] missing required key {key!r}")
            return None
        return self._items[key]

    def get_float(self, key: str, default=None) -> float | None:
        raw = self._raw(key, default)
        if raw is None:
            return default
        try:
            return float(raw)
        except ValueError:
            raise ConfigError(
                f"[{self._name}] {key} must be a number, got {raw!r}"
            ) from None

    def get_int(self, key: str, default=None) -> int | None:
        raw = self._raw(key, default)
        if raw is None:
            return default
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(
                f"[{self._name}] {key} must be an integer, got {raw!r}"
            ) from None

    def get_str(self, key: str, default=None) -> str | None:
        raw = self._raw(key, default)
        return default if raw is None else str(raw)


_REQUIRED = object()


def load_config(path: str | Path) -> RunConfig:
    """Parse and validate one experiment INI file."""
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(p, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except configparser.Error as exc:
        raise ConfigError(f"{p}: {exc}") from None

    hes_s = _Section(parser, "hes")
    if hes_s.has("dt_seconds") == hes_s.has("dt_hours"):
        raise ConfigError("[hes] needs exactly one of dt_seconds / dt_hours")
    dt = (
        hes_s.get_float("dt_seconds") / 3600.0
        if hes_s.has("dt_seconds")
        else hes_s.get_float("dt_hours")
    )
    try:
        hes = HesConfig(
            gen=GeneratorParams(
                p_max=hes_s.get_float("gen_p_max", _REQUIRED),
                p_min=hes_s.get_float("gen_p_min", 0.0),
            ),
            load=LoadParams(p_max=hes_s.get_float("load_p_max", _REQUIRED)),
            batt=BatteryParams(
                p_max=hes_s.get_float("batt_p_max", _REQUIRED),
                energy_capacity=hes_s.get_float("batt_energy_capacity", _REQUIRED),
                eta_c=hes_s.get_float("batt_eta_c", 1.0),
                eta_d=hes_s.get_float("batt_eta_d", 1.0),
                soc_min=hes_s.get_float("batt_soc_min", 0.0),
                soc_max=hes_s.get_float("batt_soc_max", 1.0),
                soc_init=hes_s.get_float("batt_soc_init", 0.5),
            ),
            dt=dt,
        )

        market_s = _Section(parser, "market")
        market = MarketParams(
            lambda_c=market_s.get_float("lambda_c", _REQUIRED),
            lambda_m=market_s.get_float("lambda_m", _REQUIRED),
            x_p_min=market_s.get_float("x_p_min", _REQUIRED),
            gamma=market_s.get_float("gamma", _REQUIRED),
            c_max=market_s.get_float("c_max", _REQUIRED),
        )

        sweep_s = _Section(parser, "sweep")
        sweep = SweepGrid(
            c_lo=sweep_s.get_float("c_lo", _REQUIRED),
            c_hi=sweep_s.get_float("c_hi", _REQUIRED),
            coarse_step=sweep_s.get_float("coarse_step", 0.25),
            refine_tol=sweep_s.get_float("refine_tol", 0.01),
        )
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(str(exc)) from None

    sig_s = _Section(parser, "signal")
    archive_path = sig_s.get_str("archive")
    has_synth = sig_s.has("synth_kind")
    if (archive_path is None) == (not has_synth):
        raise ConfigError(
            "[signal] needs exactly one source: 'archive' or 'synth_kind'"
        )
    synth = None
    window_len = sig_s.get_int("window_len", 1800)
    if has_synth:
        synth = SynthSpec(
            kind=sig_s.get_str("synth_kind"),
            n=sig_s.get_int("synth_n", window_len),
            windows=sig_s.get_int("synth_windows", 1),
            amplitude=sig_s.get_float("synth_amplitude", 1.0),
            period=sig_s.get_int("synth_period", 2),
            bias=sig_s.get_float("synth_bias", 0.0),
            noise=sig_s.get_float("synth_noise", 0.5),
        )

    run_s = _Section(parser, "run")
    return RunConfig(
        hes=hes,
        market=market,
        sweep=sweep,
        archive_path=archive_path,
        window_len=window_len,
        window_offset=sig_s.get_int("window_offset", 0),
        synth=synth,
        out_dir=run_s.get_str("out_dir", "out"),
        seed=run_s.get_int("seed", 0),
    )


def resolve_archive(cfg: RunConfig) -> SignalArchive:
    """Materialize the configured signal source into an archive."""
    if cfg.archive_path is not None:
        return load_archive(
            cfg.archive_path, cfg.window_len, cfg.hes.dt, offset=cfg.window_offset
        )
    spec = cfg.synth
    windows = tuple(
        synth_signal(
            spec.kind,
            spec.n,
            cfg.hes.dt,
            cfg.seed + i,
            amplitude=spec.amplitude,
            period=spec.period,
            bias=spec.bias,
            noise=spec.noise,
        )
        for i in range(spec.windows)
    )
    return SignalArchive(windows=windows, source=f"synth:{spec.kind}")


def config_digest_payload(cfg: RunConfig) -> dict:
    """Canonical dict of everything that influences results (not out_dir)."""
    hes, market, sweep = cfg.hes, cfg.market, cfg.sweep
    payload = {
        "hes": {
            "gen_p_max": hes.gen.p_max,
            "gen_p_min": hes.gen.p_min,
            "load_p_max": hes.load.p_max,
            "batt_p_max": hes.batt.p_max,
            "batt_energy_capacity": hes.batt.energy_capacity,
            "batt_eta_c": hes.batt.eta_c,
            "batt_eta_d": hes.batt.eta_d,
            "batt_soc_min": hes.batt.soc_min,
            "batt_soc_max": hes.batt.soc_max,
            "batt_soc_init": hes.batt.soc_init,
            "dt_hours": hes.dt,
        },
        "market": {
            "lambda_c": market.lambda_c,
            "lambda_m": market.lambda_m,
            "x_p_min": market.x_p_min,
            "gamma": market.gamma,
            "c_max": market.c_max,
        },
        "sweep": {
            "c_lo": sweep.c_lo,
            "c_hi": sweep.c_hi,
            "coarse_step": sweep.coarse_step,
            "refine_tol": sweep.refine_tol,
        },
        "signal": {
            "archive": cfg.archive_path,
            "window_len": cfg.window_len,
            "window_offset": cfg.window_offset,
        },
        "seed": cfg.seed,
    }
    if cfg.synth is not None:
        payload["signal"]["synth"] = {
            "kind": cfg.synth.kind,
            "n": cfg.synth.n,
            "windows": cfg.synth.windows,
            "amplitude": cfg.synth.amplitude,
            "period": cfg.synth.period,
            "bias": cfg.synth.bias,
            "noise": cfg.synth.noise,
        }
    return payload
