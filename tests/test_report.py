import json
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layerlens import model as M
from layerlens import report as R
from layerlens.rng import RngStream
from layerlens.sid import SidConfig, estimate_sid


def small_cfg(seed=0, **kw):
    base = dict(max_steps=60, samples_per_step=16, certify_samples=256, baseline_samples=256, max_rounds=8)
    base.update(kw)
    return SidConfig(seed=seed, **base)


class TestConcentration:
    def test_uniform_map_is_zero(self):
        mask = R.Mask.from_bbox(0, 0, 2, 2, (4, 4))
        assert R.concentration(np.ones((4, 4)), mask) == 0.0

    def test_two_unit_arithmetic(self):
        mask = R.Mask(np.array([True, False]))
        assert R.concentration(np.array([1.0, 3.0]), mask) == pytest.approx(2.0)

    def test_channel_mean_applied_first(self):
        h = np.stack([np.zeros((2, 2)), np.array([[2.0, 0.0], [0.0, 0.0]])])
        mask = R.Mask(np.array([[True, False], [False, False]]))
        # channel mean at (0,0) is 1.0, elsewhere 0
        assert R.concentration(h, mask) == pytest.approx(0.0 - 1.0)

    def test_antisymmetry_exact(self, np_rng):
        h = np_rng.normal(size=(5, 5))
        inside = np_rng.uniform(size=(5, 5)) > 0.5
        if not inside.any() or inside.all():
            inside[0, 0] = True
            inside[1, 1] = False
        m = R.Mask(inside)
        assert R.concentration(h, m) == -R.concentration(h, R.Mask(~inside))

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000), shift=st.floats(-50, 50))
    def test_shift_invariance(self, seed, shift):
        rng = np.random.default_rng(seed)
        h = rng.normal(size=(3, 3))
        inside = np.zeros((3, 3), dtype=bool)
        inside[tuple(rng.integers(0, 3, size=2))] = True
        m = R.Mask(inside)
        base = R.concentration(h, m)
        assert R.concentration(h + shift, m) == pytest.approx(base, abs=1e-9)

    def test_empty_region_rejected(self):
        with pytest.raises(R.MaskError):
            R.concentration(np.ones((2, 2)), R.Mask(np.zeros((2, 2), dtype=bool)))
        with pytest.raises(R.MaskError):
            R.concentration(np.ones((2, 2)), R.Mask(np.ones((2, 2), dtype=bool)))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(R.MaskError):
            R.concentration(np.ones((3, 3)), R.Mask(np.array([[True, False]])))

    @pytest.mark.parametrize("box", [(6, 6, 4, 4), (0, 5, 2, 4), (5, 0, 4, 2), (-1, 0, 2, 2)])
    def test_bbox_that_does_not_fit_rejected(self, box):
        with pytest.raises(R.MaskError, match="does not fit the 8x8 grid"):
            R.Mask.from_bbox(*box, (8, 8))

    def test_bbox_on_a_flat_input_rejected(self):
        with pytest.raises(R.MaskError, match="2-D input grid"):
            R.Mask.from_bbox(0, 0, 1, 1, (4,))

    def test_bbox_flush_with_the_edge_fits(self):
        assert R.Mask.from_bbox(4, 4, 4, 4, (8, 8)).inside.sum() == 16


class TestCoherency:
    def setup_method(self):
        self.model = M.tiny_cnn(input_shape=(3, 8, 8), classes=4, seed=11)
        self.x = RngStream(42).normal((3, 8, 8)) * 0.5

    # conv1, with the normalization and without it, is acceptance criterion 5
    @pytest.mark.parametrize("layer", ["conv2"])
    def test_all_relu_separated_pairs_pass(self, layer):
        rep = R.coherency_check(self.model, layer, self.x, small_cfg(max_steps=100))
        assert rep.output_max_diff <= 1e-10
        assert rep.max_abs_delta_h <= 1e-6
        assert rep.passed and rep.conformant

    def test_last_layer_has_no_successor(self):
        with pytest.raises(M.RescaleError):
            R.coherency_check(self.model, "logits", self.x, small_cfg())


class TestLayerwiseReport:
    def test_degenerate_grid_equals_direct_estimate(self):
        g = M.tiny_cnn(input_shape=(1, 4, 4), classes=2, seed=3)
        x = RngStream(9).normal((1, 4, 4))
        cfg = small_cfg(seed=4)
        rep = R.layerwise_report([("m0", g)], ["conv2"], [x], cfg)
        direct = estimate_sid(g, "conv2", x, cfg)
        assert len(rep.records) == 1
        rec = rep.records[0]
        assert rec.H_total == direct.H_total
        assert rec.epsilon == direct.epsilon_achieved
        assert rec.delta_f_sq == direct.delta_f_sq
        assert rec.conformant == direct.conformant
        assert rec.input_set == "inputs[1]"

    def test_two_checkpoints_two_records(self):
        a = M.tiny_cnn(input_shape=(1, 4, 4), classes=2, seed=1)
        b = M.tiny_cnn(input_shape=(1, 4, 4), classes=2, seed=2)
        x = RngStream(2).normal((1, 4, 4))
        rep = R.layerwise_report([("epoch0", a), ("epoch1", b)], ["conv1"], [x], small_cfg())
        assert [r.model for r in rep.records] == ["epoch0", "epoch1"]
        assert all(r.layer == "conv1" for r in rep.records)

    def test_partial_failure_recorded_not_fatal(self):
        g = M.tiny_cnn(input_shape=(1, 4, 4), classes=2, seed=1)
        dead = g.clone()
        dead.params["conv1"]["weight"][:] = 0.0
        dead.params["conv1"]["bias"][:] = 0.0
        x = RngStream(2).normal((1, 4, 4))
        rep = R.layerwise_report([("ok", g), ("dead", dead)], ["conv1"], [x], small_cfg())
        ok, bad = rep.records
        assert ok.conformant and not math.isnan(ok.H_total)
        assert not bad.conformant and math.isnan(bad.H_total)

    def test_parallel_jobs_identical_to_serial(self):
        g = M.tiny_cnn(input_shape=(1, 4, 4), classes=2, seed=3)
        xs = RngStream(7).normal((2, 1, 4, 4))
        serial = R.layerwise_report([("m", g)], ["conv1", "conv2"], xs, small_cfg())
        parallel = R.layerwise_report([("m", g)], ["conv1", "conv2"], xs, small_cfg(), jobs=4)
        assert serial == parallel

    def test_missing_layer_recorded_as_nan_row(self):
        g = M.tiny_cnn(input_shape=(1, 4, 4), classes=2, seed=1)
        x = RngStream(2).normal((1, 4, 4))
        (rec,) = R.layerwise_report([("m", g)], ["ghost"], [x], small_cfg()).records
        assert math.isnan(rec.H_total) and not rec.conformant

    def test_other_key_errors_propagate(self, monkeypatch):
        def broken(*args, **kwargs):
            raise KeyError("not a missing layer")

        monkeypatch.setattr(R, "estimate_sid", broken)
        g = M.tiny_cnn(input_shape=(1, 4, 4), classes=2, seed=1)
        x = RngStream(2).normal((1, 4, 4))
        with pytest.raises(KeyError, match="not a missing layer"):
            R.layerwise_report([("m", g)], ["conv1"], [x], small_cfg())

    def test_worker_processes_match_serial_with_nan_rows(self, tmp_path):
        g = M.tiny_cnn(input_shape=(1, 4, 4), classes=2, seed=1)
        dead = g.clone()
        dead.params["conv1"]["weight"][:] = 0.0
        dead.params["conv1"]["bias"][:] = 0.0
        xs = RngStream(2).normal((2, 1, 4, 4))
        models = [("ok", g), ("dead", dead)]
        layers = ["conv1", "ghost", "conv2"]
        serial = R.layerwise_report(models, layers, xs, small_cfg())
        parallel = R.layerwise_report(models, layers, xs, small_cfg(), jobs=2)
        assert sum(math.isnan(r.H_total) for r in serial.records) == 4  # dead x 3, ok/ghost
        R.export_csv(serial, tmp_path / "serial.csv")
        R.export_csv(parallel, tmp_path / "parallel.csv")
        assert (tmp_path / "serial.csv").read_bytes() == (tmp_path / "parallel.csv").read_bytes()

    def test_uncaught_error_propagates_from_a_worker(self, monkeypatch):
        def broken(*args, **kwargs):
            raise KeyError("not a missing layer")

        # the workers are forked from this process, so they see the patch
        monkeypatch.setattr(R, "_estimate_cell", broken)
        g = M.tiny_cnn(input_shape=(1, 4, 4), classes=2, seed=1)
        x = RngStream(2).normal((1, 4, 4))
        with pytest.raises(KeyError, match="not a missing layer"):
            R.layerwise_report([("m", g)], ["conv1", "conv2"], [x], small_cfg(), jobs=2)

    def test_deepest_cells_submitted_first(self, monkeypatch, pool_recorder):
        monkeypatch.setattr(R.os, "sched_getaffinity", lambda pid: {0, 1})
        a = M.tiny_cnn(input_shape=(1, 4, 4), classes=2, seed=1)
        b = M.tiny_cnn(input_shape=(1, 4, 4), classes=2, seed=2)
        x = RngStream(2).normal((1, 4, 4))
        rep = R.layerwise_report([("a", a), ("b", b)], ["conv1", "ghost", "conv2"], [x], small_cfg(), jobs=2)
        ((workers, submitted),) = pool_recorder
        assert workers == 2
        assert [(mid, layer) for mid, _, layer in submitted] == [
            ("a", "conv2"), ("b", "conv2"), ("a", "conv1"), ("b", "conv1"), ("a", "ghost"), ("b", "ghost"),
        ]
        assert [(r.model, r.layer) for r in rep.records] == [
            ("a", "conv1"), ("a", "ghost"), ("a", "conv2"), ("b", "conv1"), ("b", "ghost"), ("b", "conv2"),
        ]

    def test_workers_capped_at_cores_and_items(self, monkeypatch, pool_recorder):
        monkeypatch.setattr(R.os, "sched_getaffinity", lambda pid: {0, 1, 2})
        assert R.parallel_map(abs, [-1, -2, -3, -4, -5], 64) == [1, 2, 3, 4, 5]
        assert R.parallel_map(abs, [-1, -2], 64) == [1, 2]
        assert R.parallel_map(abs, [-1, -2, -3], 1) == [1, 2, 3]  # in-process, no pool
        assert [workers for workers, _ in pool_recorder] == [3, 2]

    def test_workers_capped_at_affinity_not_core_count(self, monkeypatch, pool_recorder):
        # under `taskset -c 0` or a one-CPU cpuset the machine still has 8 cores
        monkeypatch.setattr(R.os, "sched_getaffinity", lambda pid: {0})
        monkeypatch.setattr(R.os, "cpu_count", lambda: 8)
        assert R.parallel_map(abs, [-1, -2, -3], 2) == [1, 2, 3]
        assert pool_recorder == []

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one_rejected(self, jobs):
        g = M.tiny_cnn(input_shape=(1, 4, 4), classes=2, seed=1)
        x = RngStream(2).normal((1, 4, 4))
        with pytest.raises(ValueError, match="jobs"):
            R.layerwise_report([("m", g)], ["conv1"], [x], small_cfg(), jobs=jobs)


class TestHeatmap:
    def test_constant_map_renders_mid_gray(self, tmp_path):
        R.export_heatmap(np.full((3, 3), 2.5), tmp_path / "h.pgm")
        assert (R.read_pgm(tmp_path / "h.pgm") == 128).all()

    def test_min_max_arithmetic(self, tmp_path):
        R.export_heatmap(np.array([[0.0, 1.0], [1.0, 0.0]]), tmp_path / "h.pgm")
        np.testing.assert_array_equal(
            R.read_pgm(tmp_path / "h.pgm"), [[0, 255], [255, 0]]
        )

    def test_round_trip_within_quantization(self, tmp_path, np_rng):
        field = np_rng.normal(size=(6, 7)) * 3.0
        R.export_heatmap(field, tmp_path / "h.pgm")
        grid = R.read_pgm(tmp_path / "h.pgm")
        bounds = json.loads((tmp_path / "h.pgm.json").read_text())
        back = bounds["min"] + grid / 255.0 * (bounds["max"] - bounds["min"])
        span = field.max() - field.min()
        assert np.abs(back - field).max() <= span / 255.0

    def test_rejects_non_2d(self, tmp_path):
        with pytest.raises(ValueError):
            R.export_heatmap(np.zeros((2, 2, 2)), tmp_path / "h.pgm")

    def test_mask_pgm_round_trip(self, tmp_path):
        m = R.Mask.from_bbox(1, 0, 2, 2, (3, 4))
        R.write_pgm(tmp_path / "mask.pgm", np.where(m.inside, 255, 0).astype(np.uint8))
        back = R.Mask.from_pgm(tmp_path / "mask.pgm")
        assert (back.inside == m.inside).all()

    def test_header_comments_are_skipped(self, tmp_path):
        # netpbm allows '#' comments in the header; GIMP writes one after P5
        payload = bytes(range(0, 240, 40))
        (tmp_path / "plain.pgm").write_bytes(b"P5\n3 2\n255\n" + payload)
        (tmp_path / "gimp.pgm").write_bytes(
            b"P5\n# Created by GIMP version 2.10.34 PNM plug-in\n3 2\n# maxval\n255\n" + payload
        )
        grid = R.read_pgm(tmp_path / "gimp.pgm")
        np.testing.assert_array_equal(grid, R.read_pgm(tmp_path / "plain.pgm"))
        assert grid.shape == (2, 3)

    @pytest.mark.parametrize(
        "raw",
        [
            b"P5\n4 4\n255\n" + bytes(10),  # payload truncated
            b"P5\n4 x\n255\n" + bytes(16),  # non-numeric height
            b"P5\n4",  # header cut short
            b"P5\n4 4\n# no newline ends this comment",  # header lost to a comment
        ],
        ids=["truncated-payload", "non-numeric-height", "short-header", "unterminated-comment"],
    )
    def test_malformed_pgm_is_io_error(self, tmp_path, raw):
        (tmp_path / "bad.pgm").write_bytes(raw)
        with pytest.raises(IOError, match="bad.pgm"):
            R.read_pgm(tmp_path / "bad.pgm")


class TestLayerRecord:
    @staticmethod
    def _result(H_i, eps, conformant):
        H_i = np.asarray(H_i, dtype=np.float64)
        return SimpleNamespace(
            H_i=H_i, H_total=float(H_i.sum()), epsilon_achieved=eps, delta_f_sq=2 * eps, conformant=conformant
        )

    def test_means_over_inputs(self):
        mask = R.Mask.from_bbox(0, 0, 1, 1, (2, 2))
        results = [self._result([[1, 2], [2, 2]], 0.5, True), self._result([[3, 4], [4, 4]], 1.5, False)]
        row = R.LayerRecord.from_results("m", "conv1", "inputs[2]", results, mask)
        assert row == R.LayerRecord("m", "conv1", "inputs[2]", 11.0, None, 1.0, 1.0, 2.0, False)

    def test_all_conformant(self):
        results = [self._result([[1.0]], 0.5, True), self._result([[2.0]], 0.5, True)]
        row = R.LayerRecord.from_results("m", "conv1", "inputs[2]", results)
        assert row.conformant is True
        assert row.concentration is None

    def test_no_results_is_nan_row(self):
        mask = R.Mask.from_bbox(0, 0, 1, 1, (2, 2))
        row = R.LayerRecord.from_results("m", "ghost", "inputs[1]", [], mask)
        assert [math.isnan(v) for v in (row.H_total, row.epsilon, row.delta_f_sq)] == [True] * 3
        assert (row.H_hat_total, row.concentration, row.conformant) == (None, None, False)


class TestCsv:
    def _report(self):
        return R.LayerwiseReport(
            records=[
                R.LayerRecord("m", "conv1", "inputs[2]", -1.5, None, None, 0.01, 0.002, True),
                R.LayerRecord("m", "conv2", "inputs[2]", -2.25, 0.5, 0.125, 0.02, 0.004, False),
            ]
        )

    def test_header_fixed(self, tmp_path):
        R.export_csv(self._report(), tmp_path / "r.csv")
        first = (tmp_path / "r.csv").read_text().splitlines()[0]
        assert first == "model,layer,input_set,H_total,H_hat_total,concentration,epsilon,delta_f_sq,conformant"

    def test_row_count(self, tmp_path):
        R.export_csv(self._report(), tmp_path / "r.csv")
        lines = (tmp_path / "r.csv").read_text().strip().splitlines()
        assert len(lines) == 3

    def test_reparse_equals_original(self, tmp_path):
        rep = self._report()
        R.export_csv(rep, tmp_path / "r.csv")
        assert R.parse_csv(tmp_path / "r.csv") == rep

    def test_bad_header_rejected(self, tmp_path):
        (tmp_path / "bad.csv").write_text("a,b\n1,2\n")
        with pytest.raises(ValueError):
            R.parse_csv(tmp_path / "bad.csv")

    def test_short_row_rejected(self, tmp_path):
        R.export_csv(self._report(), tmp_path / "r.csv")
        text = (tmp_path / "r.csv").read_text()
        (tmp_path / "short.csv").write_text(text + "m,conv3,inputs[2],-1.0\n")
        with pytest.raises(ValueError, match="cells"):
            R.parse_csv(tmp_path / "short.csv")

    def test_failure_row_round_trips(self, tmp_path):
        failed = R.LayerRecord(
            model="m",
            layer="ghost",
            input_set="inputs[1]",
            H_total=math.nan,
            H_hat_total=None,
            concentration=None,
            epsilon=math.nan,
            delta_f_sq=math.nan,
            conformant=False,
        )
        R.export_csv(R.LayerwiseReport(records=[failed]), tmp_path / "f.csv")
        (back,) = R.parse_csv(tmp_path / "f.csv").records
        assert (back.model, back.layer, back.input_set) == ("m", "ghost", "inputs[1]")
        assert math.isnan(back.H_total) and math.isnan(back.epsilon) and math.isnan(back.delta_f_sq)
        assert back.H_hat_total is None and back.concentration is None
        assert back.conformant is False
