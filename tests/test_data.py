import json
import struct

import numpy as np
import pytest

from reslab import data
from reslab.data import (DataFormatError, DataInvariantError, DegenerateTeacherError,
                         InfeasibleMarginError, Teacher, load_dataset, make_teacher,
                         sample_dataset, save_dataset, teacher_eval)
from reslab.numkit import RngState


class TestTeacher:
    def test_single_feature_scorer(self):
        u = np.array([[2.0, 0.0]])
        t = Teacher(u, np.array([1.0]), 0.1)
        xs = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
        np.testing.assert_allclose(teacher_eval(t, xs), [2.0, 0.0, 0.0])

    def test_coefficients_bounded(self):
        with pytest.raises(ValueError):
            Teacher(np.ones((2, 2)), np.array([1.0, 1.5]), 0.1)

    def test_make_teacher_balanced_signs(self):
        t = make_teacher(RngState(0), 6, 64, 0.1)
        assert t.directions.shape == (64, 6)
        assert set(np.unique(t.coeffs)) == {-1.0, 1.0}
        assert abs(float(np.sum(t.coeffs))) <= 1.0  # balanced up to parity

    def test_scorer_mean_near_zero_on_sphere(self):
        # balanced coefficients keep the sphere-average of the scorer small
        rng = RngState(1)
        t = make_teacher(rng.substream("t"), 8, 64, 0.1)
        xs = rng.substream("x").standard_normal((20000, 8))
        xs /= np.linalg.norm(xs, axis=1, keepdims=True)
        vals = teacher_eval(t, xs)
        assert abs(float(np.mean(vals))) <= 3.0 * float(np.std(vals)) / np.sqrt(len(vals)) + 0.01

    def test_eval_matches_naive_oracle(self):
        rng = RngState(2)
        t = make_teacher(rng.substream("t"), 5, 12, 0.0)
        xs = rng.substream("x").standard_normal((7, 5))
        xs /= np.linalg.norm(xs, axis=1, keepdims=True)
        naive = np.array([
            sum(t.coeffs[j] * max(0.0, float(t.directions[j] @ x)) for j in range(12)) / 12
            for x in xs])
        np.testing.assert_allclose(teacher_eval(t, xs), naive, rtol=1e-12)

    def test_eval_bits_match_formula(self):
        # the ReLU is applied in the pre-activations' own buffer
        rng = RngState(3)
        t = make_teacher(rng.substream("t"), 10, 64, 0.1)
        xs = rng.substream("x").standard_normal((500, 10))
        xs /= np.linalg.norm(xs, axis=1, keepdims=True)
        want = np.maximum(xs @ t.directions.T, 0.0) @ t.coeffs / t.n_features
        assert teacher_eval(t, xs).tobytes() == want.tobytes()


class TestSampling:
    def test_margin_certificate_holds(self):
        rng = RngState(0)
        t = make_teacher(rng.substream("t"), 10, 64, 0.1)
        ds = sample_dataset(t, rng.substream("d"), 200)
        assert ds.n == 200
        np.testing.assert_allclose(np.linalg.norm(ds.xs, axis=1), 1.0, atol=1e-12)
        margins = ds.ys * teacher_eval(t, ds.xs)
        assert float(np.min(margins)) >= 0.1
        assert ds.realized_margin == pytest.approx(float(np.min(margins)))

    def test_zero_margin_keeps_everything(self):
        rng = RngState(4)
        t = make_teacher(rng.substream("t"), 6, 32, 0.0)
        ds = sample_dataset(t, rng.substream("d"), 500, pilot_draws=1000)
        assert ds.acceptance_rate == pytest.approx(1.0)
        np.testing.assert_array_equal(ds.ys, np.sign(teacher_eval(t, ds.xs)))

    def test_reproducible_per_seed(self):
        def build():
            rng = RngState(5)
            t = make_teacher(rng.substream("t"), 8, 32, 0.05)
            return sample_dataset(t, rng.substream("d"), 50)
        a, b = build(), build()
        assert a.xs.tobytes() == b.xs.tobytes()
        assert a.acceptance_rate == b.acceptance_rate

    def test_infeasible_margin_rejected(self):
        rng = RngState(0)
        t = make_teacher(rng.substream("t"), 10, 4, 0.9)
        with pytest.raises(InfeasibleMarginError, match="acceptance rate"):
            sample_dataset(t, rng.substream("d"), 10)

    def test_degenerate_teacher_rejected(self):
        # all-positive coefficients give only positive labels
        rng = RngState(7)
        t = Teacher(rng.standard_normal((16, 6)), np.ones(16), 0.05)
        with pytest.raises(DegenerateTeacherError):
            sample_dataset(t, rng, 50, pilot_draws=2000)

    def test_class_balance_floor(self):
        rng = RngState(8)
        t = make_teacher(rng.substream("t"), 10, 64, 0.1)
        ds = sample_dataset(t, rng.substream("d"), 200)
        frac = float(np.mean(ds.ys > 0))
        assert 0.05 <= frac <= 0.95

    def test_sampling_holds_one_chunk_of_pre_activations(self, traced_peak):
        # a chunk's pre-activations take its ReLU in place: the traced peak
        # stays within one and a half chunk x M blocks (1.31 measured, 2.29
        # when the ReLU made a second block)
        rng = RngState(0)
        t = make_teacher(rng.substream("t"), 10, 64, 0.1)
        ds, peak = traced_peak(lambda: sample_dataset(t, rng.substream("d"), 200))
        assert ds.n == 200
        assert peak <= 1.5 * data._CHUNK * 64 * 8

    def test_no_chunk_crosses_the_pilot_end(self, monkeypatch):
        # the pilot is a run of whole chunks, and the samples are the first
        # n accepted rows of the one stream of draws, whatever the chunk size
        rng = RngState(0)
        t = make_teacher(rng.substream("t"), 10, 64, 0.1)
        sizes = []
        rows = data.unit_sphere_rows
        monkeypatch.setattr(data, "unit_sphere_rows",
                            lambda r, count, d: sizes.append(count) or rows(r, count, d))
        ds = sample_dataset(t, rng.substream("d"), 200, pilot_draws=25_000)
        assert sizes == [10_000, 10_000, 5_000]
        monkeypatch.setattr(data, "_CHUNK", 3_000)
        again = sample_dataset(t, rng.substream("d"), 200, pilot_draws=25_000)
        assert sizes[3:] == 8 * [3_000] + [1_000]
        assert again.xs.tobytes() == ds.xs.tobytes()
        assert again.ys.tobytes() == ds.ys.tobytes()
        assert (again.realized_margin, again.acceptance_rate) == (
            ds.realized_margin, ds.acceptance_rate)
        with pytest.raises(ValueError):  # no pilot, no rate
            sample_dataset(t, rng.substream("d"), 200, pilot_draws=0)


class TestPersistence:
    def make_ds(self, seed=9):
        rng = RngState(seed)
        t = make_teacher(rng.substream("t"), 7, 16, 0.05)
        return sample_dataset(t, rng.substream("d"), 40, pilot_draws=5000)

    def test_roundtrip_bit_exact(self, tmp_path):
        ds = self.make_ds()
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        save_dataset(ds, p1)
        loaded = load_dataset(p1)
        assert loaded.xs.tobytes() == ds.xs.tobytes()
        assert loaded.ys.tobytes() == ds.ys.tobytes()
        assert loaded.teacher.directions.tobytes() == ds.teacher.directions.tobytes()
        assert loaded.acceptance_rate == ds.acceptance_rate
        save_dataset(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_off_sphere_sample_rejected_on_load(self, tmp_path):
        ds = self.make_ds()
        bad = data.MarginDataset(ds.xs * 0.9, ds.ys, ds.realized_margin,
                                 ds.teacher, ds.seed, ds.acceptance_rate)
        path = tmp_path / "bad.bin"
        save_dataset(bad, path)
        with pytest.raises(DataInvariantError):
            load_dataset(path)

    def test_nan_sample_rejected_on_load(self, tmp_path):
        ds = self.make_ds()
        xs = ds.xs.copy()
        xs[3] = np.nan
        bad = data.MarginDataset(xs, ds.ys, ds.realized_margin,
                                 ds.teacher, ds.seed, ds.acceptance_rate)
        path = tmp_path / "bad.bin"
        save_dataset(bad, path)
        with pytest.raises(DataInvariantError, match="sample 3"):
            load_dataset(path)

    def test_margin_violation_rejected_on_load(self, tmp_path):
        ds = self.make_ds()
        bad = data.MarginDataset(ds.xs, -ds.ys, ds.realized_margin,
                                 ds.teacher, ds.seed, ds.acceptance_rate)
        path = tmp_path / "bad.bin"
        save_dataset(bad, path)
        with pytest.raises(DataInvariantError):
            load_dataset(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.bin"
        path.write_bytes(b"")
        with pytest.raises(DataFormatError):
            load_dataset(path)

    def test_sample_bytes_pinned_against_hand_built(self, tmp_path):
        # each sample is d little-endian float64 then one signed label byte
        ds = self.make_ds()
        path = tmp_path / "ds.bin"
        save_dataset(ds, path)
        header, payload = path.read_bytes().split(b"\n", 1)
        want = b"".join(struct.pack(f"<{v.size}d", *v.ravel())
                        for v in (ds.teacher.directions, ds.teacher.coeffs))
        want += b"".join(struct.pack(f"<{ds.d}db", *x, int(y))
                         for x, y in zip(ds.xs, ds.ys))
        assert payload == want
        assert json.loads(header)["n"] == ds.n

    def test_truncation_names_the_first_incomplete_sample(self, tmp_path):
        ds = self.make_ds()
        path = tmp_path / "trunc.bin"
        save_dataset(ds, path)
        full = path.read_bytes()
        record = 8 * ds.d + 1
        start = len(full) - ds.n * record  # first sample's offset
        for keep, sample in ((3 * record + 5, 3), (2 * record, 2), (0, 0),
                             (ds.n * record - 1, ds.n - 1)):
            path.write_bytes(full[:start + keep])
            at = start + sample * record
            with pytest.raises(DataFormatError,
                               match=f"truncated sample {sample} at byte {at}: "
                                     f"wanted {record} bytes, got {keep - sample * record}$"):
                load_dataset(path)

    def test_truncation_reported_with_offset(self, tmp_path):
        ds = self.make_ds()
        path = tmp_path / "trunc.bin"
        save_dataset(ds, path)
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(DataFormatError, match="byte"):
            load_dataset(path)

    def test_wrong_kind_rejected(self, tmp_path):
        path = tmp_path / "other.bin"
        path.write_bytes(b'{"kind": "something-else"}\n')
        with pytest.raises(DataFormatError):
            load_dataset(path)
