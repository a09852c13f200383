import base64
import dataclasses
import json
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gazedet import autodiff as ad
from gazedet import boxes as bx
from gazedet import detector as dt
from gazedet import gradchecks
from gazedet.autodiff import Tensor
from gazedet.dataset import ClassLabel, EllipseAnnotation, ellipse_to_target
from gazedet.detector import DetectorModel, ModelConfig


def small_config(**kw):
    base = dict(
        img_size=64, n_classes=5, seed=0,
        channels=(4, 4, 8, 8), rpn_channels=8, fc_dim=16, mask_channels=4,
        anchor_scales=(8.0, 16.0, 28.0),
    )
    base.update(kw)
    return ModelConfig(**base)


def one_target(img=64):
    ann = EllipseAnnotation(cx=30.0, cy=26.0, rx=9.0, ry=7.0, label=ClassLabel.ATELECTASIS)
    return [ellipse_to_target(ann, img, img)]


class TestBackbone:
    def test_stride_8_shape(self):
        model = DetectorModel(small_config())
        feat = model.fuse(np.zeros((64, 64)), None)
        assert feat.data.shape == (1, 8, 8, 8)

    def test_zero_input_zero_bias_gives_zero(self):
        model = DetectorModel(small_config())
        for name in ("bb_img_0", "bb_img_1", "bb_img_2", "bb_img_3"):
            model.params[name].bias.data[:] = 0.0
        feat = model.fuse(np.zeros((64, 64)), None)
        assert np.all(feat.data == 0.0)

    def test_seeded_determinism(self):
        rng = np.random.default_rng(0)
        image = rng.uniform(size=(64, 64))
        a = DetectorModel(small_config(seed=3)).fuse(image, None)
        b = DetectorModel(small_config(seed=3)).fuse(image, None)
        assert np.array_equal(a.data, b.data)

    def test_size_mismatch(self):
        model = DetectorModel(small_config())
        with pytest.raises(ad.ShapeError):
            model.fuse(np.zeros((32, 32)), None)


class TestFuse:
    def test_mul_with_ones_matches_image_only(self):
        image = np.random.default_rng(1).uniform(size=(64, 64))
        plain = DetectorModel(small_config(use_fixations=False))
        fused = DetectorModel(small_config(
            use_fixations=True, fusion_mode="mul", fusion_point="input"))
        a = plain.fuse(image, None)
        b = fused.fuse(image, np.ones((64, 64)))
        assert np.array_equal(a.data, b.data)

    def test_sum_with_zeros_matches_image_only(self):
        image = np.random.default_rng(2).uniform(size=(64, 64))
        plain = DetectorModel(small_config(use_fixations=False))
        fused = DetectorModel(small_config(
            use_fixations=True, fusion_mode="sum", fusion_point="input"))
        assert np.array_equal(plain.fuse(image, None).data,
                              fused.fuse(image, np.zeros((64, 64))).data)

    def test_feature_mul_with_zero_map_features(self):
        image = np.random.default_rng(3).uniform(size=(64, 64))
        model = DetectorModel(small_config(
            use_fixations=True, fusion_mode="mul", fusion_point="feature"))
        # zero out the fixation branch so its features vanish
        for name in ("bb_fix_0", "bb_fix_1", "bb_fix_2", "bb_fix_3"):
            model.params[name].weights.data[:] = 0.0
            model.params[name].bias.data[:] = 0.0
        fused = model.fuse(image, np.ones((64, 64)))
        assert np.all(fused.data == 0.0)

    def test_missing_map_rejected(self):
        model = DetectorModel(small_config(use_fixations=True))
        with pytest.raises(ValueError, match="fixation map"):
            model.fuse(np.zeros((64, 64)), None)


class TestRoiAlign:
    def test_constant_map(self):
        feat = Tensor(np.full((1, 3, 4, 4), 2.5))
        out = dt.roi_align(feat, np.array([[1.0, 3.0, 20.0, 17.0]]), stride=8, out_size=3)
        assert out.data.shape == (1, 3, 3, 3)
        assert np.allclose(out.data, 2.5, atol=1e-12)

    def test_single_cell_hand_case(self):
        vals = np.array([[1.0, 2.0], [3.0, 5.0]])
        feat = Tensor(vals[None, None])
        # box covers feature cell (0,0); the 2x2 sample points sit at
        # feature coords 0.25 and 0.75 per axis
        out = dt.roi_align(feat, np.array([[0.0, 0.0, 4.0, 4.0]]), stride=4, out_size=1)

        def bilin(y, x):
            uy = min(max(y - 0.5, 0.0), 1.0)
            ux = min(max(x - 0.5, 0.0), 1.0)
            iy, ix = int(np.floor(uy)), int(np.floor(ux))
            fy, fx = uy - iy, ux - ix
            iy1, ix1 = min(iy + 1, 1), min(ix + 1, 1)
            return ((1 - fy) * (1 - fx) * vals[iy, ix] + (1 - fy) * fx * vals[iy, ix1]
                    + fy * (1 - fx) * vals[iy1, ix] + fy * fx * vals[iy1, ix1])

        expected = np.mean([bilin(y, x) for y in (0.25, 0.75) for x in (0.25, 0.75)])
        assert np.isclose(out.data[0, 0, 0, 0], expected, atol=1e-12)

    def test_gradient_vs_finite_differences(self):
        rng = np.random.default_rng(4)
        feat = Tensor(rng.normal(size=(1, 2, 4, 4)), requires_grad=True)
        rois = np.array([[2.0, 1.0, 14.0, 12.0]])
        err = ad.grad_check(
            lambda f: ad.tensor_sum(dt.roi_align(f, rois, stride=4, out_size=2)), [feat]
        )
        assert err < 1e-5

    @pytest.mark.parametrize("seed,fh,fw,out_size", [
        (0, 5, 7, 3), (1, 8, 8, 7), (2, 6, 3, 2), (3, 4, 9, 1),
    ])
    def test_matches_per_sample_reference(self, seed, fh, fw, out_size):
        rng = np.random.default_rng(seed)
        stride, c = 4, 3
        fmap = rng.normal(size=(c, fh, fw))
        # corners up to two cells past each edge, so samples clamp at the
        # first and last row and column
        lo = rng.uniform(-8.0, [fw * stride, fh * stride], size=(12, 2))
        rois = np.concatenate([lo, lo + rng.uniform(0.5, 24.0, size=(12, 2))], axis=1)
        rois = np.vstack([rois, [[-8.0, -8.0, fw * stride + 8.0, fh * stride + 8.0]]])
        g = rng.normal(size=(len(rois), c, out_size, out_size))

        # every (roi, cell, feature pixel, weight) term of 2x2 per-cell sampling
        terms = []
        for r, (x0, y0, x1, y1) in enumerate(rois / stride):
            for oy in range(out_size):
                for ox in range(out_size):
                    for sy in (0.25, 0.75):
                        for sx in (0.25, 0.75):
                            y = y0 + (oy + sy) / out_size * (y1 - y0)
                            x = x0 + (ox + sx) / out_size * (x1 - x0)
                            uy = min(max(y - 0.5, 0.0), fh - 1.0)
                            ux = min(max(x - 0.5, 0.0), fw - 1.0)
                            iy, ix = int(np.floor(uy)), int(np.floor(ux))
                            fy, fx = uy - iy, ux - ix
                            iy1, ix1 = min(iy + 1, fh - 1), min(ix + 1, fw - 1)
                            for yy, wy in ((iy, 1 - fy), (iy1, fy)):
                                for xx, wx in ((ix, 1 - fx), (ix1, fx)):
                                    terms.append((r, oy, ox, yy, xx, wy * wx / 4))
        want_out = np.zeros_like(g)
        want_grad = np.zeros_like(fmap)
        for r, oy, ox, yy, xx, w in terms:
            want_out[r, :, oy, ox] += w * fmap[:, yy, xx]
            want_grad[:, yy, xx] += w * g[r, :, oy, ox]

        feat = Tensor(fmap[None], requires_grad=True)
        out = dt.roi_align(feat, rois, stride=stride, out_size=out_size)
        ad.tensor_sum(ad.elementwise_combine(out, Tensor(g), "mul")).backward()
        assert np.max(np.abs(out.data - want_out)) <= 1e-12
        assert np.max(np.abs(feat.grad[0] - want_grad)) <= 1e-12

    def test_degenerate_box_errors(self):
        feat = Tensor(np.zeros((1, 1, 4, 4)))
        with pytest.raises(ValueError, match="degenerate"):
            dt.roi_align(feat, np.array([[5.0, 5.0, 5.0, 9.0]]), stride=4, out_size=2)


class TestForward:
    def test_high_threshold_untrained_never_errors(self):
        model = DetectorModel(small_config(score_thresh=0.99))
        image = np.random.default_rng(5).uniform(size=(64, 64))
        out = model.forward(image, mode="infer")
        assert isinstance(out.detections, list)

    def test_infer_deterministic(self):
        image = np.random.default_rng(6).uniform(size=(64, 64))
        a = DetectorModel(small_config(seed=1)).forward(image, mode="infer")
        b = DetectorModel(small_config(seed=1)).forward(image, mode="infer")
        assert len(a.detections) == len(b.detections)
        for da, db in zip(a.detections, b.detections):
            assert np.array_equal(da.box, db.box)
            assert da.score == db.score and da.label == db.label
            assert np.array_equal(da.mask, db.mask)

    def test_fusion_identity_end_to_end(self):
        image = np.random.default_rng(7).uniform(size=(64, 64))
        plain = DetectorModel(small_config(use_fixations=False, seed=2))
        fused = DetectorModel(small_config(
            use_fixations=True, fusion_mode="mul", fusion_point="input", seed=2))
        a = plain.forward(image, mode="infer")
        b = fused.forward(image, np.ones((64, 64)), mode="infer")
        assert len(a.detections) == len(b.detections)
        for da, db in zip(a.detections, b.detections):
            assert np.array_equal(da.box, db.box) and da.score == db.score
            assert np.array_equal(da.mask, db.mask)

    def test_detection_invariants(self):
        model = DetectorModel(small_config(score_thresh=0.01))
        image = np.random.default_rng(8).uniform(size=(64, 64))
        for det in model.forward(image, mode="infer").detections:
            assert 0.0 <= det.score <= 1.0
            assert det.box[0] < det.box[2] and det.box[1] < det.box[3]
            assert det.box.min() >= 0 and det.box.max() <= 64
            assert det.mask.min() >= 0.0 and det.mask.max() <= 1.0


class TestAssignTargets:
    def test_exact_anchor_positive_zero_regression(self):
        targets = one_target()
        gt = targets[0].xyxy
        cands = np.stack([gt, gt + np.array([30.0, 30.0, 30.0, 30.0])])
        res = dt.assign_targets(cands, targets, 0.7, 0.3)
        assert res.labels[0] == 1
        deltas = bx.encode_boxes(cands[:1], gt[None])
        assert np.allclose(deltas, 0.0, atol=1e-12)

    def test_no_targets_all_background(self):
        cands = np.random.default_rng(9).uniform(0, 30, size=(5, 2))
        cands = np.concatenate([cands, cands + 10], axis=1)
        res = dt.assign_targets(cands, [], 0.7, 0.3)
        assert np.all(res.labels == 0)

    def test_mid_iou_ignored_unless_best(self):
        targets = one_target()
        x0, y0, x1, y1 = targets[0].xyxy
        w = x1 - x0
        half = np.array([[x0 + w / 3, y0, x1 + w / 3, y1]])  # IoU 0.5
        both = np.concatenate([half, targets[0].xyxy[None]])
        res = dt.assign_targets(both, targets, 0.7, 0.3, force_best=False)
        assert res.labels[0] == -1
        only = dt.assign_targets(half, targets, 0.7, 0.3, force_best=True)
        assert only.labels[0] == 1  # sole candidate is the argmax anchor


class TestComputeLoss:
    def _train_output(self, seed=0):
        cfg = small_config(seed=seed)
        model = DetectorModel(cfg)
        targets = one_target()
        gt = np.stack([t.xyxy for t in targets])
        image = np.random.default_rng(seed).uniform(size=(64, 64))
        out = model.forward(image, mode="train", targets=targets, rng=np.random.default_rng(0))
        return cfg, out, targets, gt

    def test_total_is_exact_component_sum(self):
        cfg, out, targets, _ = self._train_output()
        loss = dt.compute_loss(out, cfg)
        assert loss.total == loss.classification + loss.bbox + loss.mask
        assert abs(loss.tensor.item() - loss.total) < 1e-12
        assert min(loss.classification, loss.bbox, loss.mask) >= 0.0

    def test_perfect_boxes_zero_bbox_loss(self):
        cfg, out, targets, gt = self._train_output()
        rpn_assign = dt.assign_targets(out.anchors, targets, cfg.rpn_fg_thresh,
                                       cfg.rpn_bg_thresh)
        pos = np.flatnonzero(rpn_assign.labels == 1)
        out.rpn_deltas.data[pos] = bx.encode_boxes(
            out.anchors[pos], gt[rpn_assign.matched[pos]])
        head_assign = dt.assign_targets(out.proposals, targets, cfg.head_fg_thresh,
                                        cfg.head_bg_thresh, force_best=False)
        # the box head's rows are the sampled proposals: set every positive one
        at = np.flatnonzero(head_assign.labels[out.head_rows] == 1)
        hpos = out.head_rows[at]
        out.box_deltas.data[at] = bx.encode_boxes(
            out.proposals[hpos], gt[head_assign.matched[hpos]])
        loss = dt.compute_loss(out, cfg)
        assert loss.bbox == 0.0

    def test_uniform_mask_logits_give_ln2(self):
        cfg, out, targets, _ = self._train_output()
        out.mask_logits.data[:] = 0.0
        loss = dt.compute_loss(out, cfg)
        assert np.isclose(loss.mask, np.log(2.0), atol=1e-12)

    def test_smooth_l1_piecewise_values(self):
        pred = Tensor(np.array([[0.5, 0.5, 0.5, 0.5]]), requires_grad=True)
        assert np.isclose(ad.smooth_l1(pred, np.zeros((1, 4))).item(), 4 * 0.125)
        pred2 = Tensor(np.array([[2.0, 2.0, 2.0, 2.0]]))
        assert np.isclose(ad.smooth_l1(pred2, np.zeros((1, 4))).item(), 4 * 1.5)

    def test_annotation_free_reading(self):
        cfg = small_config()
        model = DetectorModel(cfg)
        image = np.random.default_rng(10).uniform(size=(64, 64))
        out = model.forward(image, mode="train", rng=np.random.default_rng(0))
        loss = dt.compute_loss(out, cfg)
        assert loss.bbox == 0.0 and loss.mask == 0.0
        assert loss.classification > 0.0


class TestMaskTargets:
    # mask g holds 20 * g + 5 * y + x at pixel (y, x), so each value names its source
    MASKS = np.arange(40, dtype=np.uint8).reshape(2, 4, 5)

    def test_hand_worked_cell_centres(self):
        rois = np.array([[0.0, 0.0, 4.0, 4.0],     # centres x, y = 1, 3
                         [3.0, -2.0, 9.0, 6.0]])   # x = 4.5, 7.5; y = 0, 4: past the edge
        out = dt._mask_targets(self.MASKS, rois, np.array([1, 0]), 2)
        assert out.dtype == np.float64
        expected = [[[26, 28], [36, 38]],   # mask 1 at y in (1, 3), x in (1, 3)
                    [[4, 4], [19, 19]]]     # mask 0, x clamped to 4, y to (0, 3)
        assert np.array_equal(out, expected)

    def test_zero_rows(self):
        out = dt._mask_targets(self.MASKS, np.zeros((0, 4)), np.zeros(0, dtype=np.intp), 7)
        assert out.shape == (0, 7, 7)


def saved_payload(tmp_path):
    """A saved default checkpoint's path and its parsed JSON payload."""
    path = tmp_path / "ckpt.json"
    dt.save_checkpoint(str(path), DetectorModel(ModelConfig()))
    return path, json.loads(path.read_text())


def finite_f64():
    """Finite float64 values from raw bit patterns, plus the edge cases."""
    edges = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
             sys.float_info.min, sys.float_info.max, -sys.float_info.max]
    bits = st.integers(0, 2**64 - 1).map(
        lambda b: float(np.array(b, dtype=np.uint64).view(np.float64)))
    return st.one_of(st.sampled_from(edges), bits.filter(np.isfinite))


class TestModelConfig:
    @pytest.mark.parametrize("kw, needle", [
        ({"score_thresh": float("nan")}, r"score_thresh must lie in \[0, 1\], got nan"),
        ({"score_thresh": 1.5}, r"score_thresh must lie in \[0, 1\], got 1.5"),
        ({"anchor_scales": (float("inf"),)},
         r"anchor_scales\[0\] must be finite and positive, got inf"),
        ({"anchor_scales": (8.0, -4.0)},
         r"anchor_scales\[1\] must be finite and positive, got -4.0"),
        ({"anchor_scales": (0.0,)}, r"anchor_scales\[0\] must be finite and positive, got 0.0"),
        ({"n_classes": 0}, r"n_classes must lie in \[1, 5\], got 0"),
        ({"n_classes": 7}, r"n_classes must lie in \[1, 5\], got 7"),
        ({"post_nms_top": -1}, "post_nms_top must be >= 0, got -1"),
        ({"img_size": 0}, "img_size must be a positive multiple of the stride-8 backbone, got 0"),
        ({"img_size": -8}, "img_size must be a positive multiple of the stride-8 backbone, got -8"),
        ({"img_size": 36}, "img_size must be a positive multiple of the stride-8 backbone, got 36"),
        ({"seed": -1}, "seed must be an int >= 0, got -1"),
        ({"seed": 1.5}, "seed must be an int >= 0, got 1.5"),
        ({"seed": True}, "seed must be an int >= 0, got True"),
    ], ids=["score_nan", "score_1_5", "scale_inf", "scale_negative", "scale_zero",
            "n_classes_0", "n_classes_7", "post_nms_top_negative", "img_size_0",
            "img_size_negative", "img_size_36", "seed_negative", "seed_float", "seed_bool"])
    def test_rejects_bad_number(self, kw, needle):
        with pytest.raises(ValueError, match=needle):
            ModelConfig(**kw)


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        cfg = small_config(use_fixations=True, fusion_point="feature", seed=5)
        model = DetectorModel(cfg)
        path = str(tmp_path / "ckpt.json")
        dt.save_checkpoint(path, model)
        back = dt.load_checkpoint(path)
        assert back.config == cfg
        for name, p in model.params.items():
            assert np.array_equal(p.weights.data, back.params[name].weights.data)
            assert np.array_equal(p.bias.data, back.params[name].bias.data)

    def test_rejects_missing_layer(self, tmp_path):
        path = tmp_path / "ckpt.json"
        dt.save_checkpoint(str(path), DetectorModel(ModelConfig()))
        payload = json.loads(path.read_text())
        del payload["params"]["fc1"]
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="fc1") as info:
            dt.load_checkpoint(str(path))
        assert str(path) in str(info.value)

    @pytest.mark.parametrize("edit, key", [
        (lambda cfg: cfg.update(dropout=0.5), "dropout"),
        (lambda cfg: cfg.pop("fc_dim"), "fc_dim"),
    ], ids=["unknown_key", "missing_key"])
    def test_rejects_config_key_mismatch(self, tmp_path, edit, key):
        path = tmp_path / "ckpt.json"
        dt.save_checkpoint(str(path), DetectorModel(ModelConfig()))
        payload = json.loads(path.read_text())
        edit(payload["config"])
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=key) as info:
            dt.load_checkpoint(str(path))
        assert str(path) in str(info.value)

    def test_rejects_negative_seed(self, tmp_path):
        path, payload = saved_payload(tmp_path)
        payload["config"]["seed"] = -1
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError) as info:
            dt.load_checkpoint(str(path))
        assert f"{path}: config: seed must be an int >= 0, got -1" in str(info.value)

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{}")
        with pytest.raises(ValueError, match="checkpoint"):
            dt.load_checkpoint(str(path))

    def test_predictions_json_round_trip(self, tmp_path):
        dets = {
            "r0001": [dt.Detection(np.array([1.0, 2.0, 3.0, 4.0]),
                                   ClassLabel.CONSOLIDATION, 0.75,
                                   np.zeros((7, 7)))]
        }
        rows = dt.predictions_to_json(dets)
        back = dt.predictions_from_json(rows)
        assert list(back) == ["r0001"]
        d = back["r0001"][0]
        assert np.array_equal(d.box, [1.0, 2.0, 3.0, 4.0])
        assert d.label is ClassLabel.CONSOLIDATION and d.score == 0.75

    def test_predictions_carry_no_mask(self, tmp_path):
        """predictions.json holds no masks, so a loaded Detection has none."""
        det = dt.Detection(np.array([1.0, 2.0, 3.0, 4.0]), ClassLabel.ATELECTASIS, 0.5,
                           np.ones((7, 7)))
        path = str(tmp_path / "predictions.json")
        dt.save_predictions(path, {"r0001": [det]})
        assert dt.load_predictions(path)["r0001"][0].mask is None

    def test_layout(self, tmp_path):
        _, payload = saved_payload(tmp_path)
        assert sorted(payload) == ["config", "format", "params"]
        assert payload["format"] == "gazedet-checkpoint-v3"
        entry = payload["params"]["fc1"]
        assert sorted(entry) == ["bias", "kind", "weights"]
        assert sorted(entry["weights"]) == ["f64_base64", "shape"]

    def test_rejects_shape_mismatch(self, tmp_path):
        path, payload = saved_payload(tmp_path)
        payload["params"]["fc1"]["bias"]["shape"] = [63]
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=r"'fc1' bias: shape \[63\]") as info:
            dt.load_checkpoint(str(path))
        assert str(path) in str(info.value)

    def test_rejects_text_outside_base64_alphabet(self, tmp_path):
        path, payload = saved_payload(tmp_path)
        text = payload["params"]["cls"]["weights"]["f64_base64"]
        payload["params"]["cls"]["weights"]["f64_base64"] = text[:8] + "*" + text[9:]
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=r"'cls' weights: .*'\*' at offset 8") as info:
            dt.load_checkpoint(str(path))
        assert str(path) in str(info.value)

    def test_rejects_wrong_byte_count(self, tmp_path):
        path, payload = saved_payload(tmp_path)
        entry = payload["params"]["fc1"]["bias"]
        raw = base64.b64decode(entry["f64_base64"])
        entry["f64_base64"] = base64.b64encode(raw[:-8]).decode()
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=f"'fc1' bias: {len(raw) - 8} bytes") as info:
            dt.load_checkpoint(str(path))
        assert str(path) in str(info.value)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_value(self, tmp_path, value):
        path, payload = saved_payload(tmp_path)
        entry = payload["params"]["box"]["weights"]
        arr = np.frombuffer(base64.b64decode(entry["f64_base64"]), dtype="<f8").copy()
        arr[3] = value
        entry["f64_base64"] = base64.b64encode(arr.tobytes()).decode()
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=f"'box' weights: non-finite value {value!r} "
                                             "at flat index 3") as info:
            dt.load_checkpoint(str(path))
        assert str(path) in str(info.value)

    def test_save_refuses_non_finite_weight(self, tmp_path):
        model = DetectorModel(ModelConfig())
        model.params["fc1"].bias.data[0] = np.nan
        path = tmp_path / "ckpt.json"
        with pytest.raises(ValueError, match="'fc1' bias: non-finite value nan "
                                             "at flat index 0") as info:
            dt.save_checkpoint(str(path), model)
        assert str(path) in str(info.value)
        assert list(tmp_path.iterdir()) == []

    def test_save_refuses_non_finite_config(self, tmp_path):
        model = DetectorModel(ModelConfig())
        model.config.score_thresh = np.nan  # set after the config's own checks
        path = tmp_path / "ckpt.json"
        with pytest.raises(ValueError) as info:
            dt.save_checkpoint(str(path), model)
        assert str(info.value).startswith(f"{path}: ")
        assert list(tmp_path.iterdir()) == []

    def test_save_refuses_non_finite_last_array(self, tmp_path):
        # rpn_obj weights is the last array in the file's sorted order
        model = DetectorModel(ModelConfig())
        model.params["rpn_obj"].weights.data.flat[5] = -np.inf
        path = tmp_path / "ckpt.json"
        with pytest.raises(ValueError, match="'rpn_obj' weights: non-finite value -inf "
                                             "at flat index 5"):
            dt.save_checkpoint(str(path), model)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("kw", [{}, {"use_fixations": True, "fusion_point": "feature"},
                                    {"use_fixations": True, "fusion_point": "input"}],
                             ids=["image_only", "feature_fusion", "input_fusion"])
    def test_file_is_sorted_json_dumps(self, tmp_path, kw):
        model = DetectorModel(small_config(seed=4, **kw))
        path = tmp_path / "ckpt.json"
        dt.save_checkpoint(str(path), model)
        payload = {
            "format": dt.CHECKPOINT_FORMAT,
            "config": dataclasses.asdict(model.config),
            "params": {name: {"kind": p.kind,
                              "weights": dt._encode_array(p.weights.data, name),
                              "bias": dt._encode_array(p.bias.data, name)}
                       for name, p in model.params.items()},
        }
        assert path.read_bytes() == (json.dumps(payload, sort_keys=True) + "\n").encode()

    def test_rejects_v2_file_by_format(self, tmp_path):
        path, payload = saved_payload(tmp_path)
        payload["format"] = "gazedet-checkpoint-v2"
        for entry in payload["params"].values():
            for key in ("weights", "bias"):
                raw = base64.b64decode(entry[key]["f64_base64"])
                arr = np.frombuffer(raw, dtype="<f8").reshape(entry[key]["shape"])
                entry[key] = arr.tolist()
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="gazedet-checkpoint-v2") as info:
            dt.load_checkpoint(str(path))
        assert str(path) in str(info.value)

    @pytest.mark.parametrize("text, match", [("[]", "format None"),
                                             ("nope", "not a JSON file")],
                             ids=["json_list", "not_json"])
    def test_rejects_non_checkpoint_text(self, tmp_path, text, match):
        path = tmp_path / "bad.json"
        path.write_text(text)
        with pytest.raises(ValueError, match=match) as info:
            dt.load_checkpoint(str(path))
        assert str(path) in str(info.value)

    def test_loaded_arrays_are_owned_writable_native(self, tmp_path):
        path, _ = saved_payload(tmp_path)
        for p in dt.load_checkpoint(str(path)).params.values():
            for arr in (p.weights.data, p.bias.data):
                assert arr.dtype == np.float64 and arr.dtype.isnative
                assert arr.flags.owndata and arr.flags.writeable

    @given(st.lists(finite_f64(), min_size=1, max_size=48))
    @settings(max_examples=60, deadline=None)
    def test_bit_exact_round_trip(self, tmp_path_factory, values):
        model = DetectorModel(small_config(use_fixations=True, seed=3))
        vals = np.array(values, dtype=np.float64)
        for k, (_, p) in enumerate(sorted(model.params.items())):
            for t in (p.weights, p.bias):
                t.data = np.resize(np.roll(vals, k), t.data.shape)
        d = tmp_path_factory.mktemp("ckpt")
        dt.save_checkpoint(str(d / "a.json"), model)
        back = dt.load_checkpoint(str(d / "a.json"))
        dt.save_checkpoint(str(d / "b.json"), back)
        assert (d / "a.json").read_bytes() == (d / "b.json").read_bytes()
        for name, p in model.params.items():
            for t, u in ((p.weights, back.params[name].weights),
                         (p.bias, back.params[name].bias)):
                assert np.array_equal(t.data, u.data)
                assert np.array_equal(np.signbit(t.data), np.signbit(u.data))

    def test_same_model_saved_twice_gives_identical_bytes(self, tmp_path):
        model = DetectorModel(small_config(seed=7))
        dt.save_checkpoint(str(tmp_path / "a.json"), model)
        dt.save_checkpoint(str(tmp_path / "b.json"), model)
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


class TestZeroProposals:
    """post_nms_top=0 with no targets gives the heads a zero-row batch."""

    def test_infer_heads_have_zero_rows(self):
        cfg = small_config(post_nms_top=0)
        image = np.random.default_rng(11).uniform(size=(64, 64))
        out = DetectorModel(cfg).forward(image, mode="infer")
        assert out.detections == []
        assert out.proposals.shape == (0, 4)
        assert out.cls_logits.data.shape == (0, cfg.n_classes + 1)
        assert out.box_deltas.data.shape == (0, 4)
        assert out.mask_logits.data.shape == (0, cfg.n_classes, cfg.roi_size, cfg.roi_size)

    def test_train_step_leaves_heads_unchanged(self):
        model = DetectorModel(small_config(post_nms_top=0))
        heads = ("fc1", "cls", "box", "mask_conv", "mask_out")
        before = {n: [t.data.copy() for t in model.params[n].tensors()] for n in heads}
        rpn_before = model.params["rpn_obj"].weights.data.copy()
        image = np.random.default_rng(12).uniform(size=(64, 64))
        loss = dt.train_loss(model, image, None, [], np.random.default_rng(0))
        assert loss.bbox == 0.0 and loss.mask == 0.0 and loss.classification > 0.0
        loss.tensor.backward()
        velocities = {n: tuple(np.zeros_like(t.data) for t in p.tensors())
                      for n, p in model.params.items()}
        ad.sgd_step(model.params, velocities, 0.01, 0.9)
        for n in heads:
            for old, t in zip(before[n], model.params[n].tensors()):
                assert np.array_equal(old, t.data), n
        # the RPN objectness term did train
        assert not np.array_equal(rpn_before, model.params["rpn_obj"].weights.data)


def random_targets(rng, img=64):
    targets = []
    for _ in range(int(rng.integers(0, 4))):
        cx, cy = rng.uniform(12, img - 12, size=2)
        rx, ry = rng.uniform(3, 12, size=2)
        ann = EllipseAnnotation(float(cx), float(cy), float(rx), float(ry),
                                ClassLabel(int(rng.integers(5))))
        targets.append(ellipse_to_target(ann, img, img))
    return targets


def all_rows_heads(model, image, proposals, fmap=None):
    """Reference: the box and mask heads over every proposal row, as one
    batch: (cls_logits, box_deltas, mask_logits)."""
    cfg = model.config
    pooled = dt.roi_align(model.fuse(image, fmap), proposals, cfg.feat_stride, cfg.roi_size)
    h1 = ad.relu(ad.linear(ad.flatten(pooled), model.params["fc1"]))
    m = ad.relu(ad.conv2d(pooled, model.params["mask_conv"], stride=1, pad=1))
    return (ad.linear(h1, model.params["cls"]), ad.linear(h1, model.params["box"]),
            ad.conv2d(m, model.params["mask_out"]))


def all_rows_loss(model, image, fmap, targets, rng):
    """Reference: the train step with the heads on every proposal, then the
    loss draws the RPN anchor sample and the proposal sample from ``rng``, in
    that order, and gathers their rows.

    Returns the (classification, bbox, mask) loss tensors and the two draws.
    """
    cfg = model.config
    # the RPN outputs and the proposals; this forward pass's own draws are unused
    out = model.forward(image, fmap, "train", targets, np.random.default_rng(0))
    cls_logits, box_deltas, mask_logits = all_rows_heads(model, image, out.proposals, fmap)
    gt = np.array([t.xyxy for t in targets]).reshape(-1, 4)
    cls_of = np.array([int(t.label) + 1 for t in targets] + [0])

    rpn = dt.assign_targets(out.anchors, targets, cfg.rpn_fg_thresh, cfg.rpn_bg_thresh,
                            force_best=True)
    samp = dt._sample_balanced(rpn.labels, cfg.rpn_batch, 0.5, rng)
    rpn_cls = ad.bce_with_logits(ad.gather_rows(out.rpn_obj, samp),
                                 rpn.labels[samp].astype(np.float64))
    pos_a = np.flatnonzero(rpn.labels == 1)
    rpn_box = ad.smooth_l1(ad.gather_rows(out.rpn_deltas, pos_a),
                           bx.encode_boxes(out.anchors[pos_a], gt[rpn.matched[pos_a]]))

    head = dt.assign_targets(out.proposals, targets, cfg.head_fg_thresh, cfg.head_bg_thresh,
                             force_best=False)
    hsamp = dt._sample_balanced(head.labels, cfg.proposals_per_step, cfg.pos_fraction, rng)
    matched = head.matched[hsamp]
    head_ce = ad.softmax_cross_entropy(ad.gather_rows(cls_logits, hsamp), cls_of[matched])
    pos_p, pos_gt = hsamp[matched >= 0], matched[matched >= 0]
    head_box = ad.smooth_l1(ad.gather_rows(box_deltas, pos_p),
                            bx.encode_boxes(out.proposals[pos_p], gt[pos_gt]))
    masks = np.array([t.mask for t in targets]).reshape(-1, cfg.img_size, cfg.img_size)
    mt = dt._mask_targets(masks, out.proposals[pos_p], pos_gt, cfg.roi_size)
    sel = ad.take_channel_per_row(ad.gather_rows(mask_logits, pos_p), cls_of[pos_gt] - 1)
    terms = (rpn_cls + head_ce, rpn_box + head_box, ad.bce_with_logits(sel, mt))
    return terms, samp, hsamp


def zeroed_grads(model):
    for p in model.params.values():
        for t in p.tensors():
            t.zero_grad()


def param_grads(model):
    """Every parameter tensor's gradient by (layer, index); none counts as zeros."""
    return {(n, k): np.zeros_like(t.data) if t.grad is None else t.grad
            for n, p in model.params.items() for k, t in enumerate(p.tensors())}


class TestMaskRows:
    """The mask head runs on the rows that are read: the sampled head
    positives in training, the kept detections' rows in inference."""

    @pytest.mark.parametrize("seed", range(6))
    def test_train_rows_are_the_head_positives(self, seed):
        rng = np.random.default_rng(seed)
        cfg = small_config(seed=seed)
        targets = random_targets(rng)
        image = rng.uniform(size=(64, 64))
        out = DetectorModel(cfg).forward(image, mode="train", targets=targets,
                                         rng=np.random.default_rng(seed))
        head = dt.assign_targets(out.proposals, targets, cfg.head_fg_thresh,
                                 cfg.head_bg_thresh, force_best=False)
        rpn = dt.assign_targets(out.anchors, targets, cfg.rpn_fg_thresh, cfg.rpn_bg_thresh)
        assert np.array_equal(out.head.labels, head.labels)
        assert np.array_equal(out.head.matched, head.matched)
        assert np.array_equal(out.rpn.labels, rpn.labels)
        assert np.array_equal(out.rpn.matched, rpn.matched)
        draws = np.random.default_rng(seed)
        assert np.array_equal(out.rpn_rows, dt._sample_balanced(rpn.labels, cfg.rpn_batch,
                                                                0.5, draws))
        assert np.array_equal(out.head_rows, dt._sample_balanced(
            head.labels, cfg.proposals_per_step, cfg.pos_fraction, draws))
        assert np.array_equal(out.mask_rows, out.head_rows[head.labels[out.head_rows] == 1])
        assert out.cls_logits.data.shape == (len(out.head_rows), cfg.n_classes + 1)
        assert out.box_deltas.data.shape == (len(out.head_rows), 4)
        assert out.mask_logits.data.shape == (len(out.mask_rows), cfg.n_classes,
                                              cfg.roi_size, cfg.roi_size)

    @pytest.mark.parametrize("seed", range(4))
    def test_mask_loss_and_gradients_match_all_rows_head(self, seed):
        rng = np.random.default_rng(100 + seed)
        model = DetectorModel(small_config(seed=seed))
        targets = random_targets(rng) or one_target()
        image = rng.uniform(size=(64, 64))
        heads = ("mask_conv", "mask_out")

        zeroed_grads(model)
        loss = dt.train_loss(model, image, None, targets, np.random.default_rng(seed))
        loss.tensor.backward()
        got, got_grads = loss.mask, [t.grad for n in heads for t in model.params[n].tensors()]
        zeroed_grads(model)
        (_, _, ref_mask), _, _ = all_rows_loss(model, image, None, targets,
                                               np.random.default_rng(seed))
        ref_mask.backward()
        ref, ref_grads = ref_mask.item(), [t.grad for n in heads
                                           for t in model.params[n].tensors()]
        assert ref > 0.0 and abs(got - ref) <= 1e-12
        for g, r in zip(got_grads, ref_grads):
            assert np.abs(r).max() > 0.0
            np.testing.assert_allclose(g, r, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_infer_masks_match_all_rows_head(self, seed):
        """Reference: the all-rows head, then per-class NMS, the (-score, box)
        sort and the max_detections cut, as one loop over every row."""
        model = DetectorModel(small_config(seed=seed, score_thresh=0.01))
        cfg = model.config
        image = np.random.default_rng(200 + seed).uniform(size=(64, 64))
        out = model.forward(image, mode="infer")
        logits = all_rows_heads(model, image, out.proposals)[2].data
        z = out.cls_logits.data
        probs = np.exp(z - z.max(axis=1, keepdims=True))
        probs /= probs.sum(axis=1, keepdims=True)
        boxes = bx.decode_boxes(out.proposals, out.box_deltas.data, cfg.img_size)
        valid = (boxes[:, 2] - boxes[:, 0] > 0) & (boxes[:, 3] - boxes[:, 1] > 0)
        ref = []
        for c in range(1, cfg.n_classes + 1):
            sel = np.flatnonzero((probs[:, c] >= cfg.score_thresh) & valid)
            for i in sel[bx.nms(boxes[sel], probs[sel, c], cfg.infer_nms_thresh)]:
                ref.append(dt.Detection(boxes[i].copy(), ClassLabel(c - 1), float(probs[i, c]),
                                        1.0 / (1.0 + np.exp(-logits[i, c - 1]))))
        ref.sort(key=lambda d: (-d.score, tuple(d.box)))
        ref = ref[: cfg.max_detections]
        assert len(ref) > 1 and len(out.detections) == len(ref)
        assert len(out.mask_rows) < len(out.proposals)
        for d, r in zip(out.detections, ref):
            assert d.box.tobytes() == r.box.tobytes()
            assert d.label == r.label and d.score == r.score
            np.testing.assert_allclose(d.mask, r.mask, rtol=0.0, atol=1e-12)


class TestSampleFirst:
    """The train step samples its loss rows before the heads: the same loss,
    gradients and draws as the heads on every proposal followed by the
    loss's own draws and gathers (``all_rows_loss``)."""

    @pytest.mark.parametrize("seed, kw, annotated", [
        (0, {}, True), (1, {}, True), (2, {}, True), (3, {}, True), (4, {}, False),
        (5, {"post_nms_top": 0}, True), (6, {"post_nms_top": 0}, False),
        (7, {"use_fixations": True, "fusion_point": "feature"}, True),
    ], ids=["targets_0", "targets_1", "targets_2", "targets_3", "annotation_free",
            "post_nms_top_0", "post_nms_top_0_annotation_free", "feature_fusion"])
    def test_matches_all_rows_reference(self, seed, kw, annotated):
        rng = np.random.default_rng(300 + seed)
        model = DetectorModel(small_config(seed=seed, **kw))
        targets = (random_targets(rng) or one_target()) if annotated else []
        image = rng.uniform(size=(64, 64))
        fmap = rng.uniform(size=(64, 64)) if model.config.use_fixations else None

        zeroed_grads(model)
        draws = np.random.default_rng([seed, 9])
        out = model.forward(image, fmap, "train", targets, draws)
        loss = dt.compute_loss(out, model.config)
        loss.tensor.backward()
        got = param_grads(model)

        zeroed_grads(model)
        ref_draws = np.random.default_rng([seed, 9])
        terms, samp, hsamp = all_rows_loss(model, image, fmap, targets, ref_draws)
        (terms[0] + terms[1] + terms[2]).backward()
        ref = param_grads(model)

        assert np.array_equal(out.rpn_rows, samp) and np.array_equal(out.head_rows, hsamp)
        assert draws.bit_generator.state == ref_draws.bit_generator.state
        for value, term in zip((loss.classification, loss.bbox, loss.mask), terms):
            assert abs(value - term.item()) <= 1e-12
        assert got.keys() == ref.keys()
        for key, g in got.items():
            np.testing.assert_allclose(g, ref[key], rtol=0.0, atol=1e-12, err_msg=str(key))

    def test_train_mode_needs_a_generator(self):
        model = DetectorModel(small_config())
        with pytest.raises(ValueError, match="rng"):
            model.forward(np.zeros((64, 64)), mode="train", targets=one_target())


def old_order_backbone(model, x, prefix):
    """Reference: the backbone with each ReLU before its pool."""
    for i in range(len(model.config.channels)):
        if i:
            x = ad.maxpool2d(x, 2, 2)
        x = ad.relu(ad.conv2d(x, model.params[f"{prefix}_{i}"], stride=1, pad=1))
    return x


class TestBackboneOrder:
    """ReLU after the pool gives the features and every backbone gradient
    of ReLU before it, bit for bit."""

    @pytest.mark.parametrize("size, seed", [(32, 0), (32, 1), (64, 2), (64, 3)])
    def test_bitwise_old_order(self, size, seed):
        model = DetectorModel(ModelConfig(img_size=size, seed=seed))
        rng = np.random.default_rng(seed)
        x = Tensor(rng.uniform(size=(1, 1, size, size)))
        names = [f"bb_img_{i}" for i in range(4)]

        def run(backbone):
            zeroed_grads(model)
            feat = backbone(x)
            g = Tensor(np.random.default_rng(seed).normal(size=feat.data.shape))
            ad.tensor_sum(ad.elementwise_combine(feat, g, "mul")).backward()
            return feat.data, [t.grad for n in names for t in model.params[n].tensors()]

        feat, grads = run(lambda t: model._backbone(t, "bb_img"))
        ref_feat, ref_grads = run(lambda t: old_order_backbone(model, t, "bb_img"))
        assert feat.tobytes() == ref_feat.tobytes()
        assert (feat == 0.0).any() and (feat > 0.0).any()
        for g, r in zip(grads, ref_grads):
            assert g.tobytes() == r.tobytes()


class TestLayerShapes:
    """``layer_shapes`` is the model's layer table: the drawn model has
    exactly its layers, in its order, and loading a checkpoint draws nothing."""

    @pytest.mark.parametrize("cfg", [
        small_config(),
        small_config(use_fixations=True, fusion_point="input", fusion_mode="mul"),
        small_config(use_fixations=True, fusion_point="feature"),
        gradchecks.end_to_end_config(0),
    ], ids=["image_only", "input_fusion", "feature_fusion", "end_to_end"])
    def test_table_matches_drawn_model(self, cfg):
        model = DetectorModel(cfg)
        assert list(dt.layer_shapes(cfg).items()) == [
            (name, p.weights.data.shape) for name, p in model.params.items()]
        for p in model.params.values():
            assert p.bias.data.shape == p.weights.data.shape[:1]

    def test_draw_order(self):
        """The table's order is the draw order, which every checkpoint's
        weights depend on: the image backbone, the RPN, the box head, the
        mask head, then the fixation backbone from its own stream."""
        cfg = small_config(use_fixations=True, fusion_point="feature")
        assert list(dt.layer_shapes(cfg)) == [
            "bb_img_0", "bb_img_1", "bb_img_2", "bb_img_3", "rpn_conv", "rpn_obj", "rpn_delta",
            "fc1", "cls", "box", "mask_conv", "mask_out", "bb_fix_0", "bb_fix_1", "bb_fix_2",
            "bb_fix_3"]

    @pytest.mark.parametrize("field, value, needle", [
        ("channels", [4, 0, 8, 8], "channels must give the 4 backbone widths, each >= 1"),
        ("channels", [-4, 4, 8, 8], "channels must give the 4 backbone widths, each >= 1"),
        ("rpn_channels", 0, "rpn_channels must be >= 1, got 0"),
        ("fc_dim", 0, "fc_dim must be >= 1, got 0"),
        ("mask_channels", -2, "mask_channels must be >= 1, got -2"),
        ("roi_size", 0, "roi_size must be >= 1, got 0"),
    ], ids=["channel_zero", "channel_negative", "rpn_zero", "fc_zero", "mask_negative",
            "roi_zero"])
    def test_load_refuses_a_layer_without_width(self, tmp_path, field, value, needle):
        """The loader draws nothing, so the config itself refuses a width that
        would give a layer no weights."""
        path, payload = saved_payload(tmp_path)
        payload["config"][field] = value
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError) as info:
            dt.load_checkpoint(str(path))
        assert f"{path}: config: {needle}" in str(info.value)

    def test_load_makes_no_kaiming_draws(self, tmp_path, monkeypatch):
        model = DetectorModel(small_config(use_fixations=True, fusion_point="feature", seed=6))
        path = str(tmp_path / "ckpt.json")
        dt.save_checkpoint(path, model)

        def no_draw(*args):
            raise AssertionError("load_checkpoint drew an initialisation")

        monkeypatch.setattr(ad, "kaiming", no_draw)
        monkeypatch.setattr(np.random, "default_rng", no_draw)  # nor any other draw
        back = dt.load_checkpoint(path)
        assert back.config == model.config and list(back.params) == list(model.params)
        for name, p in model.params.items():
            for a, b in zip(p.tensors(), back.params[name].tensors()):
                assert a.data.tobytes() == b.data.tobytes() and b.requires_grad
        resaved = str(tmp_path / "again.json")
        dt.save_checkpoint(resaved, back)
        assert open(resaved, "rb").read() == open(path, "rb").read()
