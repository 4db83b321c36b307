"""Real-time rule: hand-traced steps, priority/safety properties, batch parity."""

import dataclasses

import numpy as np
import pytest

from hes_regkit import (
    RegSignal,
    SignalError,
    SignalRangeError,
    closed_form_dispatch,
    load_trace_csv,
    offline_dispatch,
    rt_dispatch,
    rt_dispatch_batch,
    rt_step,
    save_trace_csv,
    synth_signal,
    validate_trace,
)
from hes_regkit.controller import rt_error_sums
from helpers import (
    DT_2S,
    batch_envelope,
    random_capacity,
    random_signal,
    random_system,
    reference_system,
    same_bits,
)


class TestRtStep:
    def setup_method(self):
        self.cfg = reference_system()

    def test_upward_uses_generator_then_battery(self):
        step, _ = rt_step(self.cfg, 12.21, 0.5, 0.5)
        assert step.p_gen == 3.0
        assert step.p_load == 0.0
        assert step.p_charge == 0.0
        assert step.p_discharge == pytest.approx(3.105, abs=1e-12)
        assert step.p_hes == pytest.approx(6.105, abs=1e-12)

    def test_downward_saturates_both_assets(self):
        step, nxt = rt_step(self.cfg, 12.21, -1.0, 0.5)
        assert step.p_load == 3.0
        assert step.p_charge == -5.0
        assert step.p_hes == -8.0
        # charging at 5 MW for 2 s raises SoC by 0.95 * 5 * dt / 5
        assert nxt == pytest.approx(0.5 + 0.95 * DT_2S, abs=1e-15)

    def test_empty_battery_cannot_discharge(self):
        step, _ = rt_step(self.cfg, 10.0, 0.2, 0.1)
        assert step.p_discharge == 0.0
        assert step.p_hes == 2.0

    def test_full_battery_cannot_charge(self):
        step, _ = rt_step(self.cfg, 10.0, -1.0, 0.9)
        assert step.p_charge == 0.0
        assert step.p_hes == -3.0

    def test_partial_headroom_throttles_discharge(self):
        cfg = reference_system(dt=0.1)  # big steps so headroom binds
        e = 0.1 + 0.02  # delta_d = 0.95 * 0.02 * 5 / (0.1 * 5) = 0.19
        step, nxt = rt_step(cfg, 20.0, 1.0, e)
        assert step.p_discharge == pytest.approx(0.19 * 5.0, abs=1e-12)
        assert nxt == pytest.approx(0.1, abs=1e-12)  # lands exactly on the floor

    def test_zero_command_idles(self):
        step, nxt = rt_step(self.cfg, 10.0, 0.0, 0.5)
        assert step.p_hes == 0.0
        assert (step.p_gen, step.p_load, step.p_discharge) == (0.0, 0.0, 0.0)
        assert step.p_charge == 0.0
        assert type(nxt) is float and nxt == 0.5

    @pytest.mark.parametrize(
        "c, r_k, e, gen_p_min, error, match",
        [
            pytest.param(8.0, 0.5, 0.5, 1.0, ValueError, "p_min = 0", id="gen p_min 1"),
            pytest.param(np.nan, 0.5, 0.5, 0.0, ValueError, "finite", id="nan capacity"),
            pytest.param(-4.0, 0.5, 0.5, 0.0, ValueError, "> 0 MW", id="negative capacity"),
            pytest.param(8.0, 7.0, 0.5, 0.0, SignalRangeError, "7.0", id="r_k 7"),
            pytest.param(8.0, -1.5, 0.5, 0.0, SignalRangeError, "-1.5", id="r_k -1.5"),
            pytest.param(8.0, np.nan, 0.5, 0.0, SignalRangeError, "nan", id="nan r_k"),
            pytest.param(8.0, np.inf, 0.5, 0.0, SignalRangeError, "inf", id="inf r_k"),
            pytest.param(8.0, 0.5, 1.7, 0.0, ValueError, "state SoC 1.7", id="SoC 1.7"),
            pytest.param(8.0, 0.5, 0.1 - 1e-9, 0.0, ValueError, "state SoC", id="SoC below"),
            pytest.param(8.0, 0.5, np.nan, 0.0, ValueError, "state SoC nan", id="nan SoC"),
        ],
    )
    def test_refuses_what_the_other_entry_points_refuse(
        self, c, r_k, e, gen_p_min, error, match
    ):
        cfg = self.cfg
        if gen_p_min:
            cfg = dataclasses.replace(
                cfg, gen=dataclasses.replace(cfg.gen, p_min=gen_p_min)
            )
        with pytest.raises(error, match=match):
            rt_step(cfg, c, r_k, e)

    @pytest.mark.parametrize("r_k", [1.0, -1.0])
    def test_accepts_every_soc_the_rule_gives(self, r_k):
        # from a hair inside each bound, at full power towards it, the rule
        # lands on the bound give or take rounding; that state steps on
        cfg = reference_system(dt=0.1)
        batt = cfg.batt
        e = batt.soc_min + 1e-6 if r_k > 0 else batt.soc_max - 1e-6
        _, nxt = rt_step(cfg, 20.0, r_k, e)
        assert abs(nxt - (batt.soc_min if r_k > 0 else batt.soc_max)) <= 1e-15
        rt_step(cfg, 20.0, r_k, nxt)
        for edge in (batt.soc_min - 0.5e-12, batt.soc_max + 0.5e-12):
            rt_step(cfg, 20.0, r_k, edge)


class TestRtDispatch:
    def setup_method(self):
        self.cfg = reference_system()

    def test_square_wave_at_reach_tracks_exactly(self):
        sig = synth_signal("square-wave", 1800, DT_2S, 0, amplitude=1.0, period=2)
        trace = rt_dispatch(self.cfg, 8.0, sig)
        assert np.all(trace.p_hes == trace.target)  # +-8 exactly every step
        assert trace.abs_error() == 0.0
        # alternation loses a little energy each cycle but stays interior
        assert trace.soc.min() > 0.4 and trace.soc.max() <= 0.5

    def test_trace_soc_consistent_with_dynamics(self):
        rng = np.random.default_rng(11)
        sig = RegSignal(samples=rng.uniform(-1, 1, 200), dt=DT_2S)
        trace = rt_dispatch(self.cfg, 10.0, sig)
        batt = self.cfg.batt
        e = trace.soc[0]
        for k in range(trace.n_steps):
            de = (
                -(batt.eta_c * trace.p_charge[k] + trace.p_discharge[k] / batt.eta_d)
                * self.cfg.dt
                / batt.energy_capacity
            )
            e = e + de
            assert trace.soc[k + 1] == e  # bitwise identical chain

    def test_output_recombines_assets(self):
        sig = synth_signal("drifting", 128, DT_2S, 5, bias=0.2, noise=0.6)
        trace = rt_dispatch(self.cfg, 9.0, sig)
        recon = trace.p_gen - trace.p_load + trace.p_discharge + trace.p_charge
        assert np.array_equal(recon, trace.p_hes)

    def test_priority_order(self):
        rng = np.random.default_rng(3)
        sig = RegSignal(samples=rng.uniform(-1, 1, 300), dt=DT_2S)
        trace = rt_dispatch(self.cfg, 12.0, sig)
        engaged_d = trace.p_discharge > 1e-12
        assert np.all(trace.p_gen[engaged_d] == self.cfg.gen.p_max)
        engaged_c = trace.p_charge < -1e-12
        assert np.all(trace.p_load[engaged_c] == self.cfg.load.p_max)

    def test_soc_init_override(self):
        sig = synth_signal("square-wave", 16, DT_2S, 0)
        batt = dataclasses.replace(self.cfg.batt, soc_init=0.2)
        trace = rt_dispatch(dataclasses.replace(self.cfg, batt=batt), 8.0, sig)
        assert trace.soc[0] == 0.2

    def test_rejects_bad_inputs(self):
        sig = synth_signal("square-wave", 16, DT_2S, 0)
        with pytest.raises(ValueError, match="capacity"):
            rt_dispatch(self.cfg, 0.0, sig)
        with pytest.raises(ValueError, match="dt"):
            rt_dispatch(self.cfg, 8.0, RegSignal(samples=np.zeros(4), dt=1.0))

    def test_randomized_traces_always_feasible(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            cfg = random_system(rng, dt=float(rng.uniform(0.001, 0.1)))
            sig = random_signal(rng, int(rng.integers(20, 200)), cfg.dt)
            c = random_capacity(rng, cfg, hi=1.6)
            trace = rt_dispatch(cfg, c, sig)
            assert validate_trace(cfg, trace) == []


class TestBatchParity:
    def test_batch_matches_scalar(self):
        cfg = reference_system()
        rng = np.random.default_rng(23)
        matrix = rng.uniform(-1, 1, size=(6, 80))
        batch = rt_dispatch_batch(cfg, 11.0, matrix, DT_2S)
        for i in range(6):
            trace = rt_dispatch(cfg, 11.0, RegSignal(samples=matrix[i], dt=DT_2S))
            assert batch.err_sums[i] == pytest.approx(trace.abs_error(), abs=1e-9)
            assert same_bits(batch.soc[i], trace.soc)

    def test_batch_extremes_respect_bounds(self):
        rng = np.random.default_rng(29)
        for _ in range(10):
            cfg = random_system(rng, dt=float(rng.uniform(0.005, 0.05)))
            matrix = rng.uniform(-1, 1, size=(40, 60))
            c = random_capacity(rng, cfg, hi=1.5)
            batch = rt_dispatch_batch(cfg, c, matrix, cfg.dt)
            # every power bound, the overlap and the SoC to 1e-12
            bad, soc = batch_envelope(cfg, c, matrix, power_tol=1e-12, soc_tol=1e-12)
            assert bad == []
            assert same_bits(batch.soc, soc.T)

    def test_batch_rejects_bad_shapes(self):
        cfg = reference_system()
        with pytest.raises(ValueError, match="2-D"):
            rt_dispatch_batch(cfg, 8.0, np.zeros(5), DT_2S)


class TestBatchValidation:
    """The batch entry point rejects what rt_dispatch and RegSignal reject."""

    def setup_method(self):
        self.cfg = reference_system()
        self.matrix = np.random.default_rng(31).uniform(-1, 1, size=(3, 20))

    def test_rejects_nan_samples(self):
        self.matrix[1, 7] = np.nan
        with pytest.raises(SignalRangeError, match="non-finite"):
            rt_dispatch_batch(self.cfg, 8.0, self.matrix, DT_2S)

    def test_rejects_samples_outside_unit_range(self):
        self.matrix[2, 3] = 5.0
        with pytest.raises(SignalRangeError, match=r"outside \[-1, 1\]"):
            rt_dispatch_batch(self.cfg, 8.0, self.matrix, DT_2S)

    def test_rejects_windows_shorter_than_a_signal(self):
        for shape in ((0, 20), (3, 1)):
            with pytest.raises(SignalError, match="at least 2 samples"):
                rt_dispatch_batch(self.cfg, 8.0, np.zeros(shape), DT_2S)


class TestNonFiniteCapacity:
    """Every entry point that takes a capacity names a NaN or infinite one."""

    @pytest.mark.parametrize("c", [np.nan, np.inf, -np.inf])
    def test_rejected_everywhere(self, c):
        cfg = reference_system()
        sig = synth_signal("energy-neutral-random", 20, DT_2S, 3)
        matrix = sig.samples[None, :]
        calls = (
            lambda: rt_dispatch(cfg, c, sig),
            lambda: rt_dispatch_batch(cfg, c, matrix, DT_2S),
            lambda: rt_error_sums(cfg, [8.0, c], matrix, DT_2S),
            lambda: closed_form_dispatch(cfg, c, sig),
            lambda: offline_dispatch(cfg, c, sig),
        )
        for call in calls:
            with pytest.raises(ValueError, match="capacity must be finite"):
                call()


class TestTraceCsv:
    def test_round_trip_bit_exact(self, tmp_path):
        cfg = reference_system()
        sig = synth_signal("energy-neutral-random", 50, DT_2S, 9)
        trace = rt_dispatch(cfg, 12.21, sig)
        p = save_trace_csv(tmp_path / "trace.csv", trace, sig.samples, 12.21)
        loaded, r, c = load_trace_csv(p)
        assert c == 12.21
        assert np.array_equal(r, sig.samples)
        for name in ("target", "p_gen", "p_load", "p_discharge", "p_charge", "p_hes", "soc"):
            assert np.array_equal(getattr(loaded, name), getattr(trace, name)), name
        # second serialization is byte-identical
        p2 = save_trace_csv(tmp_path / "trace2.csv", loaded, r, c)
        assert p.read_bytes() == p2.read_bytes()

    def test_rejects_wrong_header(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("# c=1\n# soc_init=0.5\nk,r,oops\n")
        with pytest.raises(ValueError, match="header"):
            load_trace_csv(p)

    def test_rejects_missing_metadata(self, tmp_path):
        cfg = reference_system()
        sig = synth_signal("square-wave", 8, DT_2S, 0)
        trace = rt_dispatch(cfg, 8.0, sig)
        p = save_trace_csv(tmp_path / "t.csv", trace, sig.samples, 8.0)
        body = [ln for ln in p.read_text().splitlines() if not ln.startswith("# c=")]
        p.write_text("\n".join(body) + "\n")
        with pytest.raises(ValueError, match="metadata"):
            load_trace_csv(p)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_rejects_non_finite_cell(self, tmp_path, cell):
        cfg = reference_system()
        sig = synth_signal("square-wave", 8, DT_2S, 0)
        p = save_trace_csv(tmp_path / "t.csv", rt_dispatch(cfg, 8.0, sig), sig.samples, 8.0)
        lines = p.read_text().splitlines()
        data = next(i for i, ln in enumerate(lines) if ln.startswith("k,")) + 3
        cells = lines[data].split(",")
        cells[7] = cell  # data row 3's p_hes
        lines[data] = ",".join(cells)
        p.write_text("\n".join(lines) + "\n")
        problem = f"data row 3: p_hes must be finite, got {cell}"
        with pytest.raises(ValueError, match=f"t.csv: {problem}"):
            load_trace_csv(p)

    @pytest.mark.parametrize("key", ["c", "soc_init"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_rejects_non_finite_metadata(self, tmp_path, key, value):
        cfg = reference_system()
        sig = synth_signal("square-wave", 8, DT_2S, 0)
        p = save_trace_csv(tmp_path / "t.csv", rt_dispatch(cfg, 8.0, sig), sig.samples, 8.0)
        lines = [
            f"# {key}={value}" if ln.startswith(f"# {key}=") else ln
            for ln in p.read_text().splitlines()
        ]
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f"t.csv: metadata {key} must be finite, got {value}"):
            load_trace_csv(p)
