"""INI config parsing, validation and overrides."""

import configparser
import dataclasses
import re
from pathlib import Path

import pytest

from hes_regkit.bidding import SweepGrid
from hes_regkit.config import (
    ConfigError,
    SynthSpec,
    config_digest_payload,
    load_config,
    print_schema,
    resolve_archive,
)
from hes_regkit.model import BatteryParams, GeneratorParams, LoadParams
from hes_regkit.scoring import MarketParams

PROFILES = sorted((Path(__file__).resolve().parents[1] / "profiles").glob("*.ini"))

GOOD = """\
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
synth_kind = square-wave
synth_n = 120
synth_windows = 3
synth_amplitude = 0.8
window_len = 120

[run]
out_dir = out
seed = 5
"""


def write_config(tmp_path, text):
    p = tmp_path / "exp.ini"
    p.write_text(text)
    return p


class TestLoad:
    def test_full_round_trip(self, tmp_path):
        cfg = load_config(write_config(tmp_path, GOOD))
        assert cfg.hes.gen.p_max == 3.0
        assert cfg.hes.dt == pytest.approx(2.0 / 3600.0)
        assert cfg.market.gamma == 0.9
        assert cfg.sweep.coarse_step == 0.25  # default
        assert cfg.synth.kind == "square-wave"
        assert cfg.seed == 5

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.ini")

    def test_missing_key_named(self, tmp_path):
        broken = GOOD.replace("gen_p_max = 3.0\n", "")
        with pytest.raises(ConfigError, match="gen_p_max"):
            load_config(write_config(tmp_path, broken))

    def test_non_numeric_value_named(self, tmp_path):
        broken = GOOD.replace("lambda_c = 40.0", "lambda_c = forty")
        with pytest.raises(ConfigError, match="lambda_c"):
            load_config(write_config(tmp_path, broken))

    def test_both_dt_keys_rejected(self, tmp_path):
        broken = GOOD.replace("dt_seconds = 2.0", "dt_seconds = 2.0\ndt_hours = 1.0")
        with pytest.raises(ConfigError, match="dt_seconds / dt_hours"):
            load_config(write_config(tmp_path, broken))

    def test_dt_hours_accepted(self, tmp_path):
        cfg = load_config(
            write_config(tmp_path, GOOD.replace("dt_seconds = 2.0", "dt_hours = 0.05"))
        )
        assert cfg.hes.dt == 0.05

    def test_two_signal_sources_rejected(self, tmp_path):
        broken = GOOD.replace("[signal]", "[signal]\narchive = some.csv")
        with pytest.raises(ConfigError, match="exactly one source"):
            load_config(write_config(tmp_path, broken))

    def test_no_signal_source_rejected(self, tmp_path):
        broken = GOOD.replace("synth_kind = square-wave\n", "")
        with pytest.raises(ConfigError, match="exactly one source"):
            load_config(write_config(tmp_path, broken))

    def test_unknown_synth_kind(self, tmp_path):
        broken = GOOD.replace("square-wave", "sawtooth")
        with pytest.raises(ConfigError, match="synth_kind"):
            load_config(write_config(tmp_path, broken))

    def test_domain_validation_bubbles_as_config_error(self, tmp_path):
        broken = GOOD.replace("batt_soc_max = 0.9", "batt_soc_max = 1.5")
        with pytest.raises(ConfigError, match="soc"):
            load_config(write_config(tmp_path, broken))

    def test_negative_seed_refused(self, tmp_path):
        # with an archive source too: the seed is in every report's digest
        archive = GOOD.replace(
            "synth_kind = square-wave\nsynth_n = 120\nsynth_windows = 3\nsynth_amplitude = 0.8\n",
            "archive = data.csv\n",
        )
        for text in (GOOD, archive):
            with pytest.raises(ConfigError, match=r"^\[run\] seed must be >= 0, got -1$"):
                load_config(write_config(tmp_path, text.replace("seed = 5", "seed = -1")))

    def test_inline_comments_stripped(self, tmp_path):
        cfg = load_config(
            write_config(tmp_path, GOOD.replace("seed = 5", "seed = 5  ; rng seed"))
        )
        assert cfg.seed == 5


class TestOverrides:
    def test_override_fields(self, tmp_path):
        cfg = load_config(write_config(tmp_path, GOOD))
        out = cfg.with_overrides(out_dir="elsewhere", seed=9, gamma=0.8, x_p_min=0.6)
        assert out.out_dir == "elsewhere"
        assert out.seed == 9
        assert out.market.gamma == 0.8
        assert out.market.x_p_min == 0.6
        # untouched fields survive
        assert out.market.lambda_c == 40.0
        assert out.hes is cfg.hes

    def test_noop_override(self, tmp_path):
        cfg = load_config(write_config(tmp_path, GOOD))
        assert cfg.with_overrides() == cfg


class TestResolve:
    def test_synth_archive_is_seeded_per_window(self, tmp_path):
        cfg = load_config(write_config(tmp_path, GOOD))
        arch = resolve_archive(cfg)
        assert arch.n_windows == 3
        assert arch.window_len == 120
        again = resolve_archive(cfg)
        for a, b in zip(arch.windows, again.windows):
            assert (a.samples == b.samples).all()

    def test_archive_source(self, tmp_path):
        from hes_regkit import save_signal
        import numpy as np

        save_signal(tmp_path / "data.csv", np.linspace(-0.5, 0.5, 240))
        text = GOOD.replace(
            "synth_kind = square-wave\nsynth_n = 120\nsynth_windows = 3\nsynth_amplitude = 0.8\n",
            f"archive = {tmp_path / 'data.csv'}\n",
        )
        cfg = load_config(write_config(tmp_path, text))
        arch = resolve_archive(cfg)
        assert arch.n_windows == 2

    def test_digest_payload_excludes_out_dir(self, tmp_path):
        cfg = load_config(write_config(tmp_path, GOOD))
        payload_a = config_digest_payload(cfg)
        payload_b = config_digest_payload(cfg.with_overrides(out_dir="x"))
        assert payload_a == payload_b
        assert config_digest_payload(cfg.with_overrides(seed=6)) != payload_a


class TestSchema:
    def test_schema_parses_as_ini(self):
        parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
        parser.read_string(print_schema())
        assert set(parser.sections()) == {"hes", "market", "sweep", "signal", "run"}


# config_digest_payload(GOOD) as every artifact embeds it: key order and
# int/float types are part of the inputs digest
GOOD_PAYLOAD = {
    "hes": {
        "gen_p_max": 3.0,
        "gen_p_min": 0.0,
        "load_p_max": 3.0,
        "batt_p_max": 5.0,
        "batt_energy_capacity": 5.0,
        "batt_eta_c": 0.95,
        "batt_eta_d": 0.95,
        "batt_soc_min": 0.1,
        "batt_soc_max": 0.9,
        "batt_soc_init": 0.5,
        "dt_hours": 2.0 / 3600.0,
    },
    "market": {
        "lambda_c": 40.0,
        "lambda_m": 10.0,
        "x_p_min": 0.75,
        "gamma": 0.9,
        "c_max": 20.0,
    },
    "sweep": {"c_lo": 1.0, "c_hi": 20.0, "coarse_step": 0.25, "refine_tol": 0.01},
    "signal": {
        "archive": None,
        "window_len": 120,
        "window_offset": 0,
        "synth": {
            "kind": "square-wave",
            "n": 120,
            "windows": 3,
            "amplitude": 0.8,
            "period": 2,
            "bias": 0.0,
            "noise": 0.5,
        },
    },
    "seed": 5,
}


def _typed(obj):
    """Dicts as ordered (key, value) lists and leaves as (type, value) pairs,
    so equality also checks key order and int vs float."""
    if isinstance(obj, dict):
        return [(k, _typed(v)) for k, v in obj.items()]
    return (type(obj).__name__, obj)


def _accepted_keys() -> dict:
    """Every key load_config reads, per section."""
    def keys(prefix, cls):
        return [prefix + f.name for f in dataclasses.fields(cls)]

    return {
        "hes": keys("gen_", GeneratorParams) + keys("load_", LoadParams)
        + keys("batt_", BatteryParams) + ["dt_seconds", "dt_hours"],
        "market": keys("", MarketParams),
        "sweep": keys("", SweepGrid),
        "signal": keys("synth_", SynthSpec) + ["archive", "window_len", "window_offset"],
        "run": ["out_dir", "seed"],
    }


class TestKeySet:
    def test_digest_payload_pinned(self, tmp_path):
        payload = config_digest_payload(load_config(write_config(tmp_path, GOOD)))
        assert _typed(payload) == _typed(GOOD_PAYLOAD)

    def test_synth_defaults(self, tmp_path):
        text = GOOD.replace("synth_n = 120\nsynth_windows = 3\n", "")
        synth = load_config(write_config(tmp_path, text)).synth
        assert (synth.n, synth.windows, synth.period) == (120, 1, 2)

    def test_window_len_defaults_to_synth_n(self, tmp_path):
        text = GOOD.replace("window_len = 120\n", "").replace("synth_n = 120", "synth_n = 100")
        cfg = load_config(write_config(tmp_path, text))
        assert (cfg.window_len, cfg.synth.n) == (100, 100)
        assert config_digest_payload(cfg)["signal"]["window_len"] == 100

    def test_window_len_disagreeing_with_synth_n_refused(self, tmp_path):
        text = GOOD.replace("window_len = 120", "window_len = 100")
        with pytest.raises(ConfigError, match="window_len = 100 disagrees with synth_n = 120"):
            load_config(write_config(tmp_path, text))

    def test_synth_n_below_two_refused_first(self, tmp_path):
        text = GOOD.replace("synth_n = 120", "synth_n = 1")
        with pytest.raises(ConfigError, match="synth_n: a window needs n >= 2 samples, got 1"):
            load_config(write_config(tmp_path, text))

    @pytest.mark.parametrize(
        "section, line, key",
        [
            ("hes", "batt_soc_int = 0.2", "batt_soc_int"),
            ("sweep", "coarse_stp = 1.0", "coarse_stp"),
            ("market", "lamda_c = 1.0", "lamda_c"),
            ("signal", "synth_nosie = 0.1", "synth_nosie"),
            ("run", "sed = 3", "sed"),
        ],
    )
    def test_unknown_key_refused(self, tmp_path, section, line, key):
        text = GOOD.replace(f"[{section}]", f"[{section}]\n{line}")
        with pytest.raises(ConfigError, match=rf"\[{section}\] unknown key '{key}'"):
            load_config(write_config(tmp_path, text))

    def test_synth_keys_refused_with_archive_source(self, tmp_path):
        text = GOOD.replace("synth_kind = square-wave\n", "archive = data.csv\n")
        with pytest.raises(ConfigError, match="synth_n"):
            load_config(write_config(tmp_path, text))

    @pytest.mark.parametrize("section", ["sweeps", "DEFAULT"])
    def test_unknown_section_refused(self, tmp_path, section):
        text = f"[{section}]\nseed = 3\n" + GOOD
        with pytest.raises(ConfigError, match=rf"unknown section \[{section}\]"):
            load_config(write_config(tmp_path, text))

    def test_non_integer_named(self, tmp_path):
        text = GOOD.replace("synth_windows = 3", "synth_windows = 2.5")
        with pytest.raises(ConfigError, match="synth_windows must be an integer"):
            load_config(write_config(tmp_path, text))

    def test_schema_loads(self, tmp_path):
        cfg = load_config(write_config(tmp_path, print_schema()))
        assert cfg.synth.windows == 8

    @pytest.mark.parametrize("profile", PROFILES, ids=lambda p: p.name)
    def test_profile_loads(self, profile):
        assert load_config(profile).synth is not None

    def test_profiles_found(self):
        assert PROFILES

    def test_every_accepted_key_in_schema(self):
        schema = print_schema()
        parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
        parser.read_string(schema)
        for section, keys in _accepted_keys().items():
            # the alternatives to dt_seconds and synth_kind are named in comments
            assert set(parser[section]) == set(keys) - {"dt_hours", "archive"}
            text = schema.split(f"[{section}]")[1].split("\n[")[0]
            for key in keys:
                assert re.search(rf"\b{key}\b", text), (section, key)
