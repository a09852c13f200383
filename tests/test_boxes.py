import numpy as np
import pytest
from hypothesis import given, strategies as st

from gazedet import boxes as bx


class TestGenerateAnchors:
    def test_count(self):
        anchors = bx.generate_anchors(8, 8, 8, [8.0, 16.0, 24.0], [1.0], 64)
        assert anchors.shape == (192, 4)

    def test_square_at_ratio_one(self):
        anchors = bx.generate_anchors(4, 4, 8, [10.0], [1.0], 10_000)
        interior = anchors[(anchors[:, 0] > 0) & (anchors[:, 1] > 0)]
        assert len(interior) > 0
        w = interior[:, 2] - interior[:, 0]
        h = interior[:, 3] - interior[:, 1]
        assert np.allclose(w, 10.0) and np.allclose(h, 10.0)

    def test_clipped_to_image(self):
        anchors = bx.generate_anchors(8, 8, 8, [8.0, 32.0, 64.0], [0.5, 1.0, 2.0], 64)
        assert np.all(anchors[:, 0] >= 0) and np.all(anchors[:, 1] >= 0)
        assert np.all(anchors[:, 2] <= 64) and np.all(anchors[:, 3] <= 64)


def anchors_reference(feat_h, feat_w, stride, scales, ratios, img_size):
    """One anchor per (cell, scale, ratio) in that nesting order, clipped."""
    rows = []
    for i in range(feat_h):
        for j in range(feat_w):
            y, x = (i + 0.5) * stride, (j + 0.5) * stride
            for s in scales:
                for r in ratios:
                    h, w = s * np.sqrt(r), s / np.sqrt(r)
                    rows.append([x - w / 2, y - h / 2, x + w / 2, y + h / 2])
    return np.clip(np.array(rows), 0.0, float(img_size))


class TestGenerateAnchorsReference:
    @pytest.mark.parametrize("feat_h, feat_w", [(3, 5), (5, 2), (1, 1)])
    def test_matches_loop_order_with_three_ratios(self, feat_h, feat_w):
        args = (feat_h, feat_w, 8, [8.0, 20.0], [0.5, 1.0, 2.0], 40)
        anchors = bx.generate_anchors(*args)
        assert anchors.shape == (feat_h * feat_w * 6, 4)
        assert np.array_equal(anchors, anchors_reference(*args))


class TestDeltaCodec:
    def test_zero_deltas_identity(self):
        anchors = np.array([[10.0, 10.0, 30.0, 40.0], [0.0, 0.0, 8.0, 8.0]])
        out = bx.decode_boxes(anchors, np.zeros((2, 4)))
        assert np.allclose(out, anchors)

    def test_width_doubles(self):
        anchors = np.array([[10.0, 10.0, 30.0, 30.0]])
        deltas = np.array([[0.0, 0.0, np.log(2.0), 0.0]])
        out = bx.decode_boxes(anchors, deltas)
        assert np.isclose(out[0, 2] - out[0, 0], 40.0)
        assert np.isclose((out[0, 0] + out[0, 2]) / 2, 20.0)
        assert np.isclose(out[0, 3] - out[0, 1], 20.0)

    @pytest.mark.parametrize("seed", range(20))
    def test_encode_decode_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        # size ratios stay below the codec's scale clamp (16x)
        x0 = rng.uniform(0, 50, size=(20, 2))
        anchors = np.concatenate([x0, x0 + rng.uniform(4, 40, size=(20, 2))], axis=1)
        g0 = rng.uniform(0, 50, size=(20, 2))
        gts = np.concatenate([g0, g0 + rng.uniform(4, 40, size=(20, 2))], axis=1)
        deltas = bx.encode_boxes(anchors, gts)
        decoded = bx.decode_boxes(anchors, deltas)
        assert np.max(np.abs(decoded - gts)) < 1e-9
        re_encoded = bx.encode_boxes(anchors, decoded)
        assert np.max(np.abs(re_encoded - deltas)) < 1e-9


def nms_reference(boxes, scores, thresh):
    """O(n^2) brute force with the same tie-break contract."""
    order = sorted(range(len(boxes)), key=lambda i: (-scores[i], i))
    kept = []
    for i in order:
        ok = True
        for j in kept:
            x0 = max(boxes[i][0], boxes[j][0])
            y0 = max(boxes[i][1], boxes[j][1])
            x1 = min(boxes[i][2], boxes[j][2])
            y1 = min(boxes[i][3], boxes[j][3])
            inter = max(0.0, x1 - x0) * max(0.0, y1 - y0)
            area_i = (boxes[i][2] - boxes[i][0]) * (boxes[i][3] - boxes[i][1])
            area_j = (boxes[j][2] - boxes[j][0]) * (boxes[j][3] - boxes[j][1])
            if inter / (area_i + area_j - inter) > thresh:
                ok = False
                break
        if ok:
            kept.append(i)
    return kept


class TestNms:
    def test_single_box_kept(self):
        keep = bx.nms(np.array([[0.0, 0.0, 10.0, 10.0]]), np.array([0.3]), 0.5)
        assert list(keep) == [0]

    def test_identical_boxes_keep_higher_score(self):
        boxes = np.array([[0.0, 0.0, 10.0, 10.0], [0.0, 0.0, 10.0, 10.0]])
        keep = bx.nms(boxes, np.array([0.8, 0.9]), 0.5)
        assert list(keep) == [1]

    @pytest.mark.parametrize("seed", range(100))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 51))
        x0 = rng.uniform(0, 50, size=(n, 2))
        boxes = np.concatenate([x0, x0 + rng.uniform(1, 30, size=(n, 2))], axis=1)
        scores = rng.uniform(0, 1, size=n)
        keep = list(bx.nms(boxes, scores, 0.5))
        assert keep == nms_reference(boxes, scores, 0.5)

    @pytest.mark.parametrize("seed", range(100))
    def test_max_keep_gives_the_first_keeps(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 51))
        x0 = rng.uniform(0, 50, size=(n, 2))
        boxes = np.concatenate([x0, x0 + rng.uniform(1, 30, size=(n, 2))], axis=1)
        boxes[rng.integers(0, n, size=n // 4)] = boxes[rng.integers(0, n, size=n // 4)]
        scores = np.round(rng.uniform(0, 1, size=n), 1)  # many ties
        full = list(bx.nms(boxes, scores, 0.5))
        ref = nms_reference(boxes, scores, 0.5)
        for k in (0, 1, 5, n, n + 3):
            keep = list(bx.nms(boxes, scores, 0.5, max_keep=k))
            assert keep == full[:k] == ref[:k]

    def test_max_keep_past_a_suppressed_prefix(self):
        # the ten best boxes are near-copies of one box, so the top 2k = 6
        # candidates give one keep and the pass must go on over all of them
        k = 3
        stack = [[0.0, 0.0, 20.0 + 0.1 * i, 20.0] for i in range(10)]
        apart = [[30.0 * i, 40.0, 30.0 * i + 10.0, 50.0] for i in range(5)]
        boxes = np.array(stack + apart)
        scores = np.linspace(1.0, 0.1, len(boxes))
        top = np.argsort(-scores, kind="stable")[: 2 * k]
        assert len(nms_reference(boxes[top], scores[top], 0.5)) < k
        keep = list(bx.nms(boxes, scores, 0.5, max_keep=k))
        assert keep == nms_reference(boxes, scores, 0.5)[:k] == [0, 10, 11]

    def test_bad_threshold(self):
        with pytest.raises(ValueError):
            bx.nms(np.zeros((1, 4)), np.zeros(1), 1.5)

    def test_negative_max_keep(self):
        with pytest.raises(ValueError, match="max_keep"):
            bx.nms(np.zeros((1, 4)), np.zeros(1), 0.5, max_keep=-1)


class TestRankOrder:
    """Score descending, then box coordinates ascending, then input index:
    the tuple sort both the detector and the AP matcher used to write out."""

    coord = st.sampled_from([-0.0, 0.0, 1.0, 2.0, 3.0])
    score = st.sampled_from([-0.0, 0.0, 0.25, 0.5, 1.0])

    @given(st.lists(st.tuples(score, st.tuples(coord, coord, coord, coord)), max_size=12))
    def test_matches_tuple_sort(self, dets):
        s = [d[0] for d in dets]
        b = [np.array(d[1]) for d in dets]
        want = sorted(range(len(dets)), key=lambda i: (-s[i], tuple(b[i]), i))
        assert bx.rank_order(s, b).tolist() == want
        assert bx.rank_order(np.array(s), np.reshape(b, (-1, 4))).tolist() == want

    def test_empty(self):
        order = bx.rank_order([], [])
        assert order.dtype == np.intp and order.tolist() == []
