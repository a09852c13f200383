from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gazedet import fileio
from gazedet import metrics as mt
from gazedet.dataset import ClassLabel


@dataclass
class Det:
    box: np.ndarray
    score: float


@dataclass
class Gt:
    xyxy: np.ndarray


def det(x0, y0, x1, y1, score):
    return Det(np.array([x0, y0, x1, y1], dtype=np.float64), score)


def gt(x0, y0, x1, y1):
    return Gt(np.array([x0, y0, x1, y1], dtype=np.float64))


def raster_overlap(a, b, kind):
    """Pixel-counting oracle for integer-coordinate boxes."""
    grid = np.zeros((80, 80), dtype=np.uint8)
    ga = grid.copy()
    ga[int(a[1]):int(a[3]), int(a[0]):int(a[2])] = 1
    gb = grid.copy()
    gb[int(b[1]):int(b[3]), int(b[0]):int(b[2])] = 1
    inter = int((ga & gb).sum())
    if kind == "iobb":
        return inter / int(ga.sum())
    return inter / int((ga | gb).sum())


class TestOverlap:
    def test_pred_inside_gt_is_one(self):
        assert mt.iobb([10, 10, 20, 20], [0, 0, 40, 40]) == 1.0

    def test_half_overlap(self):
        assert mt.iobb([0, 0, 10, 10], [5, 0, 15, 10]) == 0.5
        assert np.isclose(mt.iou([0, 0, 10, 10], [5, 0, 15, 10]), 1 / 3)

    def test_identical_boxes(self):
        assert mt.iou([3, 4, 9, 11], [3, 4, 9, 11]) == 1.0
        assert mt.iobb([3, 4, 9, 11], [3, 4, 9, 11]) == 1.0

    def test_disjoint(self):
        assert mt.iobb([0, 0, 5, 5], [10, 10, 20, 20]) == 0.0
        assert mt.iou([0, 0, 5, 5], [10, 10, 20, 20]) == 0.0

    def test_zero_area_pred_rejected(self):
        with pytest.raises(ValueError, match="zero-area"):
            mt.iobb([5, 5, 5, 10], [0, 0, 10, 10])

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            mt.overlap([0, 0, 1, 1], [0, 0, 1, 1], "dice")

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_rasterization(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(100):
            a0 = rng.integers(0, 40, size=2)
            a = np.concatenate([a0, a0 + rng.integers(1, 30, size=2)]).astype(float)
            b0 = rng.integers(0, 40, size=2)
            b = np.concatenate([b0, b0 + rng.integers(1, 30, size=2)]).astype(float)
            assert np.isclose(mt.iobb(a, b), raster_overlap(a, b, "iobb"), atol=1e-12)
            assert np.isclose(mt.iou(a, b), raster_overlap(a, b, "iou"), atol=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_iou_never_exceeds_iobb(self, seed):
        rng = np.random.default_rng(seed + 100)
        a0 = rng.uniform(0, 40, size=2)
        a = np.concatenate([a0, a0 + rng.uniform(1, 30, size=2)])
        b0 = rng.uniform(0, 40, size=2)
        b = np.concatenate([b0, b0 + rng.uniform(1, 30, size=2)])
        assert mt.iou(a, b) <= mt.iobb(a, b) + 1e-12
        assert mt.iou(a, b) <= mt.iobb(b, a) + 1e-12


def match_oracle(dets, gts, thresh, kind):
    """Independent greedy matcher; returns set of (det index, gt index) pairs."""
    order = sorted(range(len(dets)), key=lambda i: (-dets[i].score, tuple(dets[i].box), i))
    taken = set()
    pairs = set()
    for di in order:
        best, best_g = 0.0, None
        for g in range(len(gts)):
            if g in taken:
                continue
            ov = mt.overlap(dets[di].box, gts[g].xyxy, kind)
            if ov >= thresh and ov > best:
                best, best_g = ov, g
        if best_g is not None:
            taken.add(best_g)
            pairs.add((di, best_g))
    return pairs


class TestMatching:
    def test_one_to_one(self):
        dets = [det(0, 0, 10, 10, 0.9), det(0, 0, 10, 10, 0.8)]
        gts = [gt(0, 0, 10, 10)]
        m = mt.match_detections(dets, gts, 0.5)
        assert m.det_is_tp.sum() == 1
        assert m.det_is_tp[0] and not m.det_is_tp[1]  # higher score wins

    def test_inclusive_threshold(self):
        dets = [det(0, 0, 10, 10, 0.5)]
        m = mt.match_detections(dets, [gt(5, 0, 15, 10)], 0.5)  # overlap exactly 0.5
        assert m.det_is_tp[0]

    def test_score_tie_breaks_on_box(self):
        dets = [det(5, 0, 15, 10, 0.7), det(0, 0, 10, 10, 0.7)]
        m = mt.match_detections(dets, [gt(0, 0, 10, 10)], 0.5)
        assert list(m.order) == [1, 0]  # lexicographically smaller box ranks first

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_oracle(self, seed):
        rng = np.random.default_rng(seed)
        nd, ng = int(rng.integers(0, 11)), int(rng.integers(0, 6))
        dets = [
            det(*np.concatenate([p := rng.uniform(0, 30, 2), p + rng.uniform(2, 25, 2)]),
                float(rng.choice([0.3, 0.6, 0.6, 0.9])))
            for _ in range(nd)
        ]
        gts = [gt(*np.concatenate([p := rng.uniform(0, 30, 2), p + rng.uniform(2, 25, 2)]))
               for _ in range(ng)]
        m = mt.match_detections(dets, gts, 0.4)
        got = {(int(m.order[r]), int(m.det_matched_gt[r]))
               for r in range(nd) if m.det_is_tp[r]}
        assert got == match_oracle(dets, gts, 0.4, "iobb")


class TestAveragePrecision:
    def test_no_gt_is_undefined(self):
        assert mt.average_precision([det(0, 0, 5, 5, 0.9)], [], 0.5) is None

    def test_no_dets_is_zero(self):
        assert mt.average_precision([], [gt(0, 0, 5, 5)], 0.5) == 0.0

    def test_tp_then_fp(self):
        dets = [det(0, 0, 10, 10, 0.9), det(50, 50, 60, 60, 0.8)]
        assert mt.average_precision(dets, [gt(0, 0, 10, 10)], 0.5) == 1.0

    def test_fp_then_tp(self):
        dets = [det(50, 50, 60, 60, 0.9), det(0, 0, 10, 10, 0.8)]
        assert mt.average_precision(dets, [gt(0, 0, 10, 10)], 0.5) == 0.5

    def test_two_gts_one_found(self):
        dets = [det(0, 0, 10, 10, 0.9)]
        gts = [gt(0, 0, 10, 10), gt(40, 40, 50, 50)]
        assert mt.average_precision(dets, gts, 0.5) == 0.5

    def test_order_of_input_list_irrelevant(self):
        rng = np.random.default_rng(0)
        dets = [det(*np.concatenate([p := rng.uniform(0, 30, 2), p + rng.uniform(2, 20, 2)]),
                    float(rng.uniform()))
                for _ in range(12)]
        gts = [gt(*np.concatenate([p := rng.uniform(0, 30, 2), p + rng.uniform(2, 20, 2)]))
               for _ in range(4)]
        base = mt.average_precision(dets, gts, 0.4)
        for seed in range(5):
            shuffled = list(dets)
            np.random.default_rng(seed).shuffle(shuffled)
            assert mt.average_precision(shuffled, gts, 0.4) == base

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(3)
        dets = [det(*np.concatenate([p := rng.uniform(0, 30, 2), p + rng.uniform(2, 20, 2)]),
                    float(rng.uniform()))
                for _ in range(20)]
        gts = [gt(*np.concatenate([p := rng.uniform(0, 30, 2), p + rng.uniform(2, 20, 2)]))
               for _ in range(6)]
        aps = [mt.average_precision(dets, gts, t / 10) for t in range(1, 10)]
        ars = [mt.average_recall(dets, gts, t / 10) for t in range(1, 10)]
        assert all(a >= b - 1e-12 for a, b in zip(aps, aps[1:]))
        assert all(a >= b - 1e-12 for a, b in zip(ars, ars[1:]))


class TestAverageRecall:
    def test_all_found(self):
        dets = [det(0, 0, 10, 10, 0.9), det(40, 40, 50, 50, 0.8)]
        gts = [gt(0, 0, 10, 10), gt(40, 40, 50, 50)]
        assert mt.average_recall(dets, gts, 0.5) == 1.0

    def test_max_dets_truncates(self):
        dets = [det(50, 50, 60, 60, 0.9), det(0, 0, 10, 10, 0.8)]
        gts = [gt(0, 0, 10, 10)]
        assert mt.average_recall(dets, gts, 0.5, max_dets=1) == 0.0
        assert mt.average_recall(dets, gts, 0.5, max_dets=2) == 1.0

    def test_no_gt_undefined(self):
        assert mt.average_recall([], [], 0.5) is None


FROZEN_APS = (0.429326, 0.125410, 0.043422, 0.113867, 0.030728)
FROZEN_ARS = (0.810000, 0.529412, 0.226519, 0.308642, 0.410959)


def rows_from(aps, ars, n_gt=10):
    return [
        mt.ClassMetrics(label=c, ap=aps[i], ar=ars[i], n_gt=n_gt, n_det=5)
        for i, c in enumerate(ClassLabel)
    ]


class TestReport:
    def test_headers_verbatim(self):
        report = mt.build_report(rows_from(FROZEN_APS, FROZEN_ARS),
                                 {"metric_kind": "iobb", "threshold": 0.5})
        assert report.ap_header() == "AP@[IoBB=0.50]"
        assert report.ar_header() == "AR@[IoBB=0.50]"

    def test_six_decimal_averages(self):
        report = mt.build_report(rows_from(FROZEN_APS, FROZEN_ARS))
        assert f"{report.average_ap:.6f}" == "0.148551"
        assert f"{report.average_ar:.6f}" == "0.457106"
        md = report.to_markdown()
        assert "| Average | 0.148551 | 0.457106 |" in md
        assert "| 0.429326 | 0.810000 |" in md

    def test_declared_average_mismatch_warns(self):
        report = mt.build_report(rows_from(FROZEN_APS, FROZEN_ARS),
                                 declared_average_ap=0.246415)
        assert any("0.246415" in w and "0.148551" in w for w in report.warnings)

    def test_declared_average_match_silent(self):
        report = mt.build_report(rows_from(FROZEN_APS, FROZEN_ARS),
                                 declared_average_ap=0.1485506,
                                 declared_average_ar=0.4571064)
        assert report.warnings == []

    def test_empty_class_excluded_and_flagged(self):
        rows = rows_from(FROZEN_APS, FROZEN_ARS)
        rows[2] = mt.ClassMetrics(label=list(ClassLabel)[2], ap=None, ar=None, n_gt=0)
        report = mt.build_report(rows)
        kept_aps = [a for i, a in enumerate(FROZEN_APS) if i != 2]
        assert np.isclose(report.average_ap, np.mean(kept_aps))
        assert any("no ground truth" in w for w in report.warnings)

    def test_fixed_class_order(self):
        rows = rows_from(FROZEN_APS, FROZEN_ARS)
        report = mt.build_report(list(reversed(rows)))
        assert [r.label for r in report.rows] == list(ClassLabel)

    @pytest.mark.parametrize("thresh, kind, needle", [
        (float("nan"), "iobb", r"thresh must lie in \[0, 1\], got nan"),
        (2, "iobb", r"thresh must lie in \[0, 1\], got 2"),
        (-1.0, "iou", r"thresh must lie in \[0, 1\], got -1.0"),
        (float("inf"), "iobb", r"thresh must lie in \[0, 1\], got inf"),
        (0.5, "bogus", "kind must be 'iobb' or 'iou', got 'bogus'"),
    ], ids=["thresh_nan", "thresh_2", "thresh_negative", "thresh_inf", "kind_bogus"])
    def test_evaluate_rejects_bad_rule(self, thresh, kind, needle):
        with pytest.raises(ValueError, match=needle):
            mt.evaluate_detections({}, {}, thresh, kind)

    @pytest.mark.parametrize("save", [
        lambda pj, pm, report: mt.save_report(pj, pm, report),
        lambda pj, pm, report: fileio.write_json(pj, report.to_dict(), indent=1),
    ], ids=["save_report", "write_json"])
    def test_nan_refused_and_nothing_written(self, tmp_path, save):
        rows = rows_from(FROZEN_APS, FROZEN_ARS)
        rows[1].ap = float("nan")
        pj, pm = tmp_path / "report.json", tmp_path / "report.md"
        with pytest.raises(ValueError) as info:
            save(str(pj), str(pm), mt.build_report(rows))
        assert str(info.value).startswith(f"{pj}: ")
        assert list(tmp_path.iterdir()) == []  # no report.json, no report.json.tmp

    def test_evaluate_and_save(self, tmp_path):
        c0 = list(ClassLabel)[0]
        dets_by = {c0: [det(0, 0, 10, 10, 0.9)]}
        gts_by = {c0: [gt(0, 0, 10, 10)]}
        report = mt.evaluate_detections(dets_by, gts_by)
        row = report.rows[0]
        assert row.ap == 1.0 and row.ar == 1.0 and row.n_gt == 1
        pj, pm = str(tmp_path / "r.json"), str(tmp_path / "r.md")
        mt.save_report(pj, pm, report)
        import json
        data = json.loads(open(pj).read())
        assert data["classes"][0]["ap"] == 1.0
        assert "AP@[IoBB=0.50]" in open(pm).read()


# ---------------------------------------------------------------------------
# evaluate_detections against one match per metric (AP, AR, precision/recall)


def three_match_rows(dets_by, gts_by, thresh, kind, max_dets):
    """Per-class rows computed with a separate greedy match for AP, AR and P/R."""

    def ap(dets, gts):
        if len(gts) == 0:
            return None
        if len(dets) == 0:
            return 0.0
        m = mt.match_detections(dets, gts, thresh, kind)
        tp = np.cumsum(m.det_is_tp.astype(np.float64))
        fp = np.cumsum((~m.det_is_tp).astype(np.float64))
        recall = tp / len(gts)
        r = np.concatenate([[0.0], recall, [recall[-1]]])
        p = np.concatenate([[0.0], tp / (tp + fp), [0.0]])
        for i in range(len(p) - 2, -1, -1):
            p[i] = max(p[i], p[i + 1])
        return float(np.sum((r[1:] - r[:-1]) * p[1:]))

    def ar(dets, gts):
        if len(gts) == 0:
            return None
        order = sorted(range(len(dets)), key=lambda i: (-dets[i].score, tuple(dets[i].box), i))
        m = mt.match_detections([dets[i] for i in order[:max_dets]], gts, thresh, kind)
        return float(m.gt_matched.sum()) / len(gts)

    def precision_recall(dets, gts):
        if len(dets) == 0:
            return 0.0, 0.0
        tp = float(mt.match_detections(dets, gts, thresh, kind).det_is_tp.sum())
        return tp / len(dets), tp / len(gts) if len(gts) else 0.0

    rows = []
    for c in ClassLabel:
        dets, gts = dets_by.get(c, []), gts_by.get(c, [])
        prec, rec = precision_recall(dets, gts)
        rows.append({"ap": ap(dets, gts), "ar": ar(dets, gts), "precision": prec,
                     "recall": rec, "n_gt": len(gts), "n_det": len(dets)})
    return rows


def outcome(fn):
    try:
        return "ok", repr(fn())
    except ValueError as exc:
        return "error", str(exc)


# integer grid: equal boxes and equal overlaps are common; a side of 0 is rare
GRID_XY = st.integers(0, 6).map(float)
GRID_SIDE = st.sampled_from([0.0] + [1.0, 2.0, 3.0, 5.0] * 8)


@st.composite
def grid_box(draw):
    x0, y0 = draw(GRID_XY), draw(GRID_XY)
    return x0, y0, x0 + draw(GRID_SIDE), y0 + draw(GRID_SIDE)


CLASS_CASES = st.dictionaries(
    st.sampled_from(list(ClassLabel)),
    st.tuples(
        st.lists(st.builds(lambda b, s: det(*b, s), grid_box(),
                           st.sampled_from([0.2, 0.5, 0.5, 0.9])), max_size=9),
        st.lists(st.builds(lambda b: gt(*b), grid_box()), max_size=5),
    ),
)


class TestOneMatchPerClass:
    @given(CLASS_CASES, st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0)),
           st.sampled_from(["iobb", "iou"]), st.sampled_from([1, 2, 5, 100]))
    @settings(max_examples=400, deadline=None)
    def test_rows_equal_three_match_rows(self, cases, thresh, kind, max_dets):
        dets_by = {c: d for c, (d, _) in cases.items()}
        gts_by = {c: g for c, (_, g) in cases.items()}

        def rows():
            report = mt.evaluate_detections(dets_by, gts_by, thresh, kind, max_dets)
            return [{k: v for k, v in row.items() if k != "label"}
                    for row in report.to_dict()["classes"]]

        assert outcome(rows) == outcome(
            lambda: three_match_rows(dets_by, gts_by, thresh, kind, max_dets))
