"""Signal parsing, synthesis, windowing and statistics."""

import tracemalloc

import numpy as np
import pytest

from hes_regkit import (
    EmptyArchiveError,
    RegSignal,
    SignalArchive,
    SignalError,
    SignalParseError,
    SignalRangeError,
    archive_stats,
    energy_stats,
    load_archive,
    mileage,
    save_signal,
    synth_signal,
)
from hes_regkit import signals
from helpers import DT_2S


class TestRegSignal:
    def test_samples_are_copied_and_frozen(self):
        raw = np.array([0.1, -0.2, 0.3])
        sig = RegSignal(samples=raw, dt=1.0)
        raw[0] = 9.0  # must not leak into the signal
        assert sig.samples[0] == 0.1
        with pytest.raises(ValueError):
            sig.samples[0] = 0.0

    def test_rejects_out_of_range(self):
        with pytest.raises(SignalRangeError):
            RegSignal(samples=np.array([0.0, 1.2]), dt=1.0)
        with pytest.raises(SignalRangeError):
            RegSignal(samples=np.array([-1.01, 0.0]), dt=1.0)
        # the check reads only the min and the max: NaN reaches both, an
        # infinity one, and NaN is named even next to an out-of-range sample
        for bad in ([0.0, np.nan], [np.inf, 0.0], [0.0, -np.inf], [np.nan, 2.0]):
            with pytest.raises(SignalRangeError, match="non-finite samples"):
                RegSignal(samples=np.array(bad), dt=1.0)

    def test_rejects_nan(self):
        with pytest.raises(SignalRangeError):
            RegSignal(samples=np.array([0.0, np.nan]), dt=1.0)

    def test_rejects_short_and_bad_dt(self):
        with pytest.raises(SignalError):
            RegSignal(samples=np.array([0.5]), dt=1.0)
        with pytest.raises(SignalError):
            RegSignal(samples=np.array([0.5, 0.5]), dt=0.0)

    @pytest.mark.parametrize("dt", [np.nan, np.inf])
    def test_rejects_non_finite_dt(self, dt):
        with pytest.raises(SignalError, match="dt must be finite"):
            RegSignal(samples=np.array([0.5, 0.5]), dt=dt)

    def test_len(self):
        assert len(RegSignal(samples=np.zeros(7), dt=1.0)) == 7


class TestStats:
    def test_mileage_hand_value(self):
        sig = RegSignal(samples=np.array([0.0, 1.0, -1.0, 0.5]), dt=1.0)
        assert mileage(sig.samples) == pytest.approx(1.0 + 2.0 + 1.5, abs=1e-15)

    def test_energy_stats_hand_values(self):
        sig = RegSignal(samples=np.array([1.0, 1.0, -1.0]), dt=0.5)
        stats = energy_stats(sig)
        assert stats.w == pytest.approx(0.5, abs=1e-15)
        assert stats.w_inf == pytest.approx(1.0, abs=1e-15)
        assert stats.mileage == pytest.approx(2.0, abs=1e-15)

    def test_constant_hour_integrates_to_one(self):
        sig = RegSignal(samples=np.ones(1800), dt=DT_2S)
        stats = energy_stats(sig)
        assert stats.w == pytest.approx(1.0, abs=1e-12)
        assert stats.w_inf == pytest.approx(1.0, abs=1e-12)
        assert stats.mileage == 0.0

    def test_w_inf_dominates_w(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            sig = RegSignal(samples=rng.uniform(-1, 1, 64), dt=0.25)
            stats = energy_stats(sig)
            assert stats.w_inf >= abs(stats.w) - 1e-15

    def test_archive_stats_histogram_mass(self):
        windows = tuple(
            synth_signal("energy-neutral-random", 32, 1.0, seed) for seed in range(9)
        )
        stats = archive_stats(SignalArchive(np.stack([w.samples for w in windows]), 1.0), bins=10)
        assert sum(stats.w.counts) == 9
        assert sum(stats.w_inf.counts) == 9
        assert len(stats.per_window) == 9


class TestArchiveIO:
    def test_round_trip_exact(self, tmp_path):
        values = np.array([0.1, -1.0, 1.0, 1 / 3, -1e-17, 0.7000000000000001, 0.0, 0.25])
        path = save_signal(tmp_path / "sig.csv", values)
        arch = load_archive(path, window_len=4, dt=1.0)
        assert arch.n_windows == 2
        merged = np.concatenate([w.samples for w in arch.windows])
        assert np.array_equal(merged, values)  # bit-exact through text

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        p = tmp_path / "sig.csv"
        p.write_text(
            "# leading comment\n\ntimestamp,r\n0,0.5\n# middle\n1,-0.5\n\n2,0.25\n3,0\n"
        )
        arch = load_archive(p, window_len=2, dt=1.0)
        assert arch.n_windows == 2
        assert arch.windows[0].samples.tolist() == [0.5, -0.5]

    def test_empty_lines_keep_a_directory_on_the_kernel(self, tmp_path, monkeypatch):
        # 365 day files, each ending in an empty line: their groups are parsed
        # with the empty lines dropped, so no line goes through the line reader
        days = [synth_signal("energy-neutral-random", 180, 1.0, s).samples for s in range(365)]
        for i, day in enumerate(days):
            path = save_signal(tmp_path / f"{i:03d}.csv", day)
            path.write_bytes(path.read_bytes() + b"\n")

        def no_line_reader(*args):
            pytest.fail("a plain piece went through the line reader")

        monkeypatch.setattr(signals, "_read_lines", no_line_reader)
        arch = load_archive(tmp_path, window_len=180, dt=1.0)
        assert arch.samples.tobytes() == np.stack(days).tobytes()

    def test_bad_header_names_line(self, tmp_path):
        p = tmp_path / "sig.csv"
        p.write_text("time,value\n0,0.5\n")
        with pytest.raises(SignalParseError, match="sig.csv:1"):
            load_archive(p, window_len=2, dt=1.0)

    def test_bad_column_count_names_line(self, tmp_path):
        p = tmp_path / "sig.csv"
        p.write_text("timestamp,r\n0,0.5\n1,0.5,9\n")
        with pytest.raises(SignalParseError, match="sig.csv:3"):
            load_archive(p, window_len=2, dt=1.0)

    def test_non_numeric_sample(self, tmp_path):
        p = tmp_path / "sig.csv"
        p.write_text("timestamp,r\n0,abc\n")
        with pytest.raises(SignalParseError, match="abc"):
            load_archive(p, window_len=2, dt=1.0)

    def test_out_of_range_sample_names_line(self, tmp_path):
        p = tmp_path / "sig.csv"
        p.write_text("timestamp,r\n0,0.5\n1,1.5\n")
        with pytest.raises(SignalRangeError, match="sig.csv:3"):
            load_archive(p, window_len=2, dt=1.0)

    def test_undecodable_file_is_named(self, tmp_path):
        save_signal(tmp_path / "a.csv", np.array([0.1, 0.2]))
        (tmp_path / "b.csv").write_bytes(b"timestamp,r\n0,0.5\n1,\xff\n")
        with pytest.raises(SignalParseError, match=r"b\.csv: not UTF-8 at byte 20") as got:
            load_archive(tmp_path, window_len=2, dt=1.0)
        assert isinstance(got.value.__cause__, UnicodeDecodeError)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_archive(tmp_path / "nope.csv", window_len=2, dt=1.0)

    def test_empty_directory(self, tmp_path):
        with pytest.raises(EmptyArchiveError):
            load_archive(tmp_path, window_len=2, dt=1.0)

    def test_too_short_for_one_window(self, tmp_path):
        p = tmp_path / "sig.csv"
        p.write_text("timestamp,r\n0,0.5\n1,0.5\n")
        with pytest.raises(EmptyArchiveError, match="no complete window"):
            load_archive(p, window_len=5, dt=1.0)

    def test_offset_and_partial_window_drop(self, tmp_path):
        save_signal(tmp_path / "sig.csv", np.linspace(-1, 1, 10))
        arch = load_archive(tmp_path / "sig.csv", window_len=3, dt=1.0, offset=1)
        assert arch.n_windows == 3  # samples 1..9 -> 3 windows of 3
        expect = np.linspace(-1, 1, 10)[1:4]
        assert np.array_equal(arch.windows[0].samples, expect)

    def test_directory_concatenates_lexicographically(self, tmp_path):
        save_signal(tmp_path / "b.csv", np.array([0.3, 0.4]))
        save_signal(tmp_path / "a.csv", np.array([0.1, 0.2]))
        arch = load_archive(tmp_path, window_len=2, dt=1.0)
        assert arch.n_windows == 2
        assert arch.windows[0].samples.tolist() == [0.1, 0.2]
        assert arch.windows[1].samples.tolist() == [0.3, 0.4]

    @pytest.mark.parametrize(
        "variant", ["plain", "comment in the middle", "leading comment", "blank line"]
    )
    def test_one_file_peak_within_a_multiple_of_the_matrix(self, tmp_path, variant):
        # tracemalloc peak of a one-file load over its matrix bytes: the
        # growing sample buffer, one 64 KiB read and the kernel's arrays, or
        # the line reader's strings, for one piece (the file itself is 3.3x
        # here, never held whole). 1.88-1.97x measured; 21.3x for the three
        # variants while a comment or blank line sent the whole file to the
        # line reader, 30.8x for every file while the whole text, its lines
        # and their value strings were alive at once
        samples = np.concatenate(
            [synth_signal("energy-neutral-random", 1800, 1.0, s).samples for s in range(50)]
        )
        data = save_signal(tmp_path / "year.csv", samples).read_bytes()
        mid = data.index(b"\n", len(data) // 2) + 1
        data = {
            "plain": data,
            "comment in the middle": data[:mid] + b"# a note\n" + data[mid:],
            "leading comment": b"# a note\n" + data,
            "blank line": data[:mid] + b"\n" + data[mid:],
        }[variant]
        path = tmp_path / "variant.csv"
        path.write_bytes(data)
        del data
        tracemalloc.start()
        try:
            arch = load_archive(path, window_len=1800, dt=1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert arch.samples.tobytes() == samples.tobytes()
        assert peak <= 2.35 * arch.samples.nbytes

    def test_undecodable_byte_in_a_late_read_named_by_file_offset(self, tmp_path):
        # CRLF files: turning CRLF into LF shortens every line before the
        # byte, and text mode would name its offset within an 8 KiB decode
        # chunk; the message names its offset in the file
        data = "timestamp,r\r\n" + "".join(f"{k},{k % 7 / 7 - 0.5!r}\r\n" for k in range(40000))
        data = data.encode().replace(b"\r\n30000,", b"\r\n30000\xff,")
        at = data.index(b"\xff")
        assert at > 10 * signals._PIECE_BYTES
        (tmp_path / "sig.csv").write_bytes(data)
        with pytest.raises(
            SignalParseError, match=rf"sig\.csv: not UTF-8 at byte {at}: invalid start byte"
        ) as got:
            load_archive(tmp_path / "sig.csv", window_len=2, dt=1.0)
        assert isinstance(got.value.__cause__, UnicodeDecodeError)

    def test_directory_lists_what_glob_lists(self, tmp_path):
        # one os.scandir, sorted by name: dotfiles and a sub-directory whose
        # name ends in .csv are listed, as glob lists them; .CSV is not
        names = ["b.csv", "a.csv", ".dot.csv", "10.csv", "9.csv", "upper.CSV", "notes.txt"]
        for i, name in enumerate(names):
            save_signal(tmp_path / name, np.array([0.1 * i, -0.1 * i]))
        (tmp_path / "x.csv").mkdir()
        listed = signals._csv_files(tmp_path)
        assert listed == sorted(tmp_path.glob("*.csv"))
        assert [p.name for p in listed] == [
            ".dot.csv", "10.csv", "9.csv", "a.csv", "b.csv", "x.csv",
        ]
        (tmp_path / "x.csv").rmdir()
        arch = load_archive(tmp_path, window_len=2, dt=1.0)
        order = [names.index(p.name) for p in sorted(tmp_path.glob("*.csv"))]
        assert arch.samples.tolist() == [[0.1 * i, -0.1 * i] for i in order]


class TestArchiveContainer:
    @pytest.mark.parametrize(
        "samples, dt, error, match",
        [
            (np.zeros(4), 1.0, SignalError, "must be 2-D"),
            (np.zeros((3, 1)), 1.0, SignalError, "at least 2 samples"),
            ([[0.0, np.nan], [0.0, 0.0]], 1.0, SignalRangeError, "non-finite"),
            ([[0.0, 0.0], [np.inf, 0.0]], 1.0, SignalRangeError, "non-finite"),
            ([[0.0, -np.inf], [0.0, 0.0]], 1.0, SignalRangeError, "non-finite"),
            ([[0.0, 0.5], [1.5, 0.0]], 1.0, SignalRangeError, r"outside \[-1, 1\]"),
            (np.zeros((2, 4)), 0.0, SignalError, "dt must be > 0"),
            (np.zeros((2, 4)), np.nan, SignalError, "dt must be finite"),
        ],
    )
    def test_constructor_refuses_by_name(self, samples, dt, error, match):
        with pytest.raises(error, match=match):
            SignalArchive(samples, dt)

    def test_rejects_empty(self):
        with pytest.raises(EmptyArchiveError, match="archive has no windows"):
            SignalArchive(np.empty((0, 16)), 1.0)

    def test_matrix_shape(self):
        arch = SignalArchive(
            np.stack([synth_signal("drifting", 16, 1.0, s).samples for s in range(3)]), 1.0
        )
        assert arch.samples.shape == (3, 16)
        assert (arch.n_windows, arch.window_len, arch.dt) == (3, 16, 1.0)
        assert [w.n for w in arch.windows] == [16] * 3

    def test_matrix_of_windows_is_stacked_once_read_only(self):
        windows = tuple(synth_signal("drifting", 16, 1.0, s) for s in range(3))
        stacked = np.stack([w.samples for w in windows])
        arch = SignalArchive(stacked, 1.0, "stacked")
        assert not arch.samples.flags.writeable
        assert arch.samples.tobytes() == stacked.tobytes()
        assert all(np.shares_memory(w.samples, arch.samples) for w in arch.windows)

    def test_writable_input_is_copied(self):
        raw = np.zeros((2, 4))
        arch = SignalArchive(raw, 1.0)
        assert not np.shares_memory(arch.samples, raw)
        raw[0, 0] = 9.0  # must not leak into the archive
        assert arch.samples[0, 0] == 0.0 and arch.windows[0].samples[0] == 0.0
        with pytest.raises(ValueError, match="read-only"):
            arch.samples[0, 0] = 0.5

    def test_read_only_float64_input_is_kept(self):
        raw = np.linspace(-1.0, 1.0, 8).reshape(2, 4)
        raw.setflags(write=False)
        arch = SignalArchive(raw, 1.0)
        assert arch.samples is raw
        assert np.shares_memory(arch.windows[1].samples, raw)
        # any other layout or dtype is copied once into a C-ordered float64
        for other in (np.asfortranarray(raw), raw.astype(np.float32), raw.tolist()):
            got = SignalArchive(other, 1.0).samples
            assert got.dtype == np.float64 and got.flags.c_contiguous
            assert not got.flags.writeable
            assert not np.shares_memory(got, raw)

    def test_loaded_matrix_is_the_windows_own_memory(self, tmp_path):
        save_signal(tmp_path / "s.csv", np.linspace(-1.0, 1.0, 21))
        arch = load_archive(tmp_path / "s.csv", window_len=4, dt=1.0, offset=1)
        matrix = arch.samples
        assert not matrix.flags.writeable
        assert matrix.tobytes() == np.stack([w.samples for w in arch.windows]).tobytes()
        assert np.shares_memory(matrix, arch.windows[0].samples)


class TestSynth:
    def test_energy_neutral_properties(self):
        sig = synth_signal("energy-neutral-random", 1800, DT_2S, 42)
        assert abs(float(sig.samples.mean())) < 1e-12
        stats = energy_stats(sig)
        assert abs(stats.w) <= 0.01 * 1800 * DT_2S
        assert sig.samples.min() >= -1.0 and sig.samples.max() <= 1.0

    def test_seed_reproducible(self):
        a = synth_signal("energy-neutral-random", 64, 1.0, 7)
        b = synth_signal("energy-neutral-random", 64, 1.0, 7)
        c = synth_signal("energy-neutral-random", 64, 1.0, 8)
        assert np.array_equal(a.samples, b.samples)
        assert not np.array_equal(a.samples, c.samples)

    def test_drifting_clips_and_biases(self):
        sig = synth_signal("drifting", 4096, 1.0, 3, bias=0.9, noise=0.5)
        assert sig.samples.max() <= 1.0
        assert float(sig.samples.mean()) > 0.7

    def test_square_wave_exact_pattern(self):
        sig = synth_signal("square-wave", 6, 1.0, 0, amplitude=0.8, period=2)
        assert sig.samples.tolist() == [0.8, -0.8, 0.8, -0.8, 0.8, -0.8]
        sig4 = synth_signal("square-wave", 8, 1.0, 0, amplitude=1.0, period=4)
        assert sig4.samples.tolist() == [1, 1, -1, -1, 1, 1, -1, -1]

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"kind": "square-wave", "period": 3},
            {"kind": "square-wave", "amplitude": 1.5},
            {"kind": "drifting", "bias": 1.5},
            {"kind": "drifting", "noise": -0.1},
            {"kind": "no-such-kind"},
        ],
    )
    def test_bad_parameters(self, kwargs):
        kind = kwargs.pop("kind")
        with pytest.raises(SignalError):
            synth_signal(kind, 16, 1.0, 0, **kwargs)

    def test_too_short(self):
        with pytest.raises(SignalError):
            synth_signal("drifting", 1, 1.0, 0)
