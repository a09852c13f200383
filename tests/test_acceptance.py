"""End-to-end acceptance checks.

Each test prints a single PASS line on success; the slow two-arm training
comparison (and its identically seeded repeat) is shared by the later
tests through a module-scoped fixture.
"""

import time
from dataclasses import dataclass

import numpy as np
import pytest

from gazedet import dataset as ds
from gazedet import gaze as gz
from gazedet import metrics as mt
from gazedet import trainer as trn
from gazedet.boxes import nms
from gazedet.dataset import ClassLabel, SynthConfig
from gazedet.detector import DetectorModel, ModelConfig
from gazedet.gradchecks import run_gradcheck_suite
from gazedet.trainer import TrainConfig

pytestmark = pytest.mark.filterwarnings("ignore")


def announce(capsys, n, text):
    with capsys.disabled():
        print(f"\nACCEPTANCE {n}: PASS - {text}")


@dataclass
class Det:
    box: np.ndarray
    score: float


@dataclass
class Gt:
    xyxy: np.ndarray


def det(x0, y0, x1, y1, s):
    return Det(np.array([x0, y0, x1, y1], float), s)


def gt(x0, y0, x1, y1):
    return Gt(np.array([x0, y0, x1, y1], float))


@pytest.fixture(scope="module")
def comparison_runs(tmp_path_factory):
    """Two byte-for-byte repeats of the full two-arm training comparison."""
    readings = ds.synth_generate(SynthConfig(n_readings=200, img_size=64), 0)
    train_r, val_r, test_r = ds.split(readings, (0.8, 0.1, 0.1), 0)
    arms = [
        ("image_only", ModelConfig(img_size=64, use_fixations=False, seed=0)),
        ("multimodal", ModelConfig(img_size=64, use_fixations=True,
                                   fusion_mode="sum", fusion_point="feature",
                                   seed=0)),
    ]
    tcfg = TrainConfig(epochs=15, lr=0.01, momentum=0.9, seed=0)
    dirs, reports, elapsed = [], [], []
    for tag in ("run_a", "run_b"):
        root = tmp_path_factory.mktemp(tag)
        t0 = time.perf_counter()
        reports.append(trn.run_comparison(arms, train_r, val_r, test_r, tcfg,
                                          str(root)))
        elapsed.append(time.perf_counter() - t0)
        dirs.append(root)
    return {"dirs": dirs, "reports": reports, "elapsed": elapsed}


def read_curve(path):
    rows = []
    with open(path) as fh:
        assert next(fh).strip() == "step,epoch,cls,bbox,mask,total"
        for line in fh:
            step, epoch, cls, bbox, mask, total = line.strip().split(",")
            rows.append((int(step), int(epoch), float(cls), float(bbox),
                         float(mask), float(total)))
    return rows


def test_criterion_1_gradient_suite(capsys):
    t0 = time.perf_counter()
    results = run_gradcheck_suite(n_seeds=20, include_end_to_end=True)
    elapsed = time.perf_counter() - t0
    worst = max(err for _, err in results)
    assert worst < 1e-4
    assert elapsed < 120.0
    announce(capsys, 1,
             f"gradient suite worst relative error {worst:.2e} in {elapsed:.1f}s")


def test_criterion_2_loss_decomposition(capsys, comparison_runs):
    n_checked = 0
    for arm in ("image_only", "multimodal"):
        rows = read_curve(comparison_runs["dirs"][0] / arm / "loss_curve.csv")
        assert rows
        for _, _, cls, bbox, mask, total in rows:
            assert abs((cls + bbox + mask) - total) < 1e-12
            n_checked += 1
    announce(capsys, 2,
             f"total = cls + bbox + mask within 1e-12 on all {n_checked} logged steps")


def test_criterion_3_metric_oracles(capsys):
    rng = np.random.default_rng(0)
    grid = np.zeros((90, 90), dtype=np.uint8)
    for _ in range(1000):
        a0 = rng.integers(0, 50, 2)
        a = np.concatenate([a0, a0 + rng.integers(1, 35, 2)]).astype(float)
        b0 = rng.integers(0, 50, 2)
        b = np.concatenate([b0, b0 + rng.integers(1, 35, 2)]).astype(float)
        ga, gb = grid.copy(), grid.copy()
        ga[int(a[1]):int(a[3]), int(a[0]):int(a[2])] = 1
        gb[int(b[1]):int(b[3]), int(b[0]):int(b[2])] = 1
        inter = int((ga & gb).sum())
        assert abs(mt.iobb(a, b) - inter / int(ga.sum())) <= 1e-9
        assert abs(mt.iou(a, b) - inter / int((ga | gb).sum())) <= 1e-9

    from test_boxes import nms_reference
    for seed in range(100):
        r = np.random.default_rng(seed + 1)
        n = int(r.integers(1, 51))
        x0 = r.uniform(0, 50, size=(n, 2))
        boxes = np.concatenate([x0, x0 + r.uniform(1, 30, size=(n, 2))], axis=1)
        scores = r.uniform(0, 1, size=n)
        assert list(nms(boxes, scores, 0.5)) == nms_reference(boxes, scores, 0.5)
    announce(capsys, 3, "iobb/iou match rasterization on 1000 pairs; "
                        "nms matches brute force on 100 sets")


def test_criterion_4_ap_hand_cases_and_monotonicity(capsys):
    one_gt = [gt(0, 0, 10, 10)]
    assert mt.average_precision(
        [det(0, 0, 10, 10, 0.9), det(50, 50, 60, 60, 0.8)], one_gt, 0.5) == 1.0
    assert mt.average_precision(
        [det(50, 50, 60, 60, 0.9), det(0, 0, 10, 10, 0.8)], one_gt, 0.5) == 0.5
    assert mt.average_precision(
        [det(0, 0, 10, 10, 0.9)], one_gt + [gt(40, 40, 50, 50)], 0.5) == 0.5

    rng = np.random.default_rng(3)
    mk = lambda: np.concatenate([p := rng.uniform(0, 30, 2), p + rng.uniform(2, 20, 2)])
    dets = [Det(mk(), float(rng.uniform())) for _ in range(25)]
    gts = [Gt(mk()) for _ in range(8)]
    aps = [mt.average_precision(dets, gts, t / 10) for t in range(1, 10)]
    ars = [mt.average_recall(dets, gts, t / 10) for t in range(1, 10)]
    assert all(hi >= lo - 1e-12 for hi, lo in zip(aps, aps[1:]))
    assert all(hi >= lo - 1e-12 for hi, lo in zip(ars, ars[1:]))
    announce(capsys, 4, "AP hand cases exact; AP/AR non-increasing over "
                        "thresholds 0.1..0.9")


def test_criterion_5_report_format(capsys):
    aps = (0.429326, 0.125410, 0.043422, 0.113867, 0.030728)
    ars = (0.810000, 0.529412, 0.226519, 0.308642, 0.410959)
    rows = [mt.ClassMetrics(label=c, ap=aps[i], ar=ars[i], n_gt=10, n_det=5)
            for i, c in enumerate(ClassLabel)]
    report = mt.build_report(rows, {"metric_kind": "iobb", "threshold": 0.5})
    assert f"{report.average_ap:.6f}" == "0.148551"
    assert f"{report.average_ar:.6f}" == "0.457106"
    assert report.ap_header() == "AP@[IoBB=0.50]"
    assert report.ar_header() == "AR@[IoBB=0.50]"

    multi_aps = (0.436229, 0.092772, 0.052553, 0.010061, 0.001856)
    rows2 = [mt.ClassMetrics(label=c, ap=multi_aps[i], ar=0.3, n_gt=10, n_det=5)
             for i, c in enumerate(ClassLabel)]
    flagged = mt.build_report(rows2, declared_average_ap=0.246415)
    assert any("0.246415" in w for w in flagged.warnings)
    assert f"{flagged.average_ap:.6f}" != "0.246415"
    announce(capsys, 5, "averages 0.148551/0.457106 at 6 decimals, verbatim "
                        "headers, declared-average mismatch warned")


def test_criterion_6_gaze_pipeline(capsys):
    rng = np.random.default_rng(0)
    pts = [(50 + rng.normal(0, 1), 50 + rng.normal(0, 1)) for _ in range(21)]
    pts += [(50 + k * 30.0, 50 + k * 14.0) for k in range(1, 5)]
    pts += [(200 + rng.normal(0, 1), 120 + rng.normal(0, 1)) for _ in range(21)]
    stream = gz.GazeStream([i * 10.0 for i in range(len(pts))],
                           [x for x, _ in pts], [y for _, y in pts])
    fixes = gz.detect_fixations(stream, 25.0, 100.0)
    assert len(fixes) == 2
    assert np.hypot(fixes[0].cx_px - 50, fixes[0].cy_px - 50) < 2
    assert np.hypot(fixes[1].cx_px - 200, fixes[1].cy_px - 120) < 2

    sigma = 6.0
    hfix = [gz.Fixation(float(rng.uniform(0, 64)), float(rng.uniform(0, 64)),
                        i * 400.0, i * 400.0 + float(rng.uniform(100, 300)))
            for i in range(5)]
    fmap = gz.render_heatmap(hfix, 64, 64, sigma_px=sigma)
    raw = lambda x, y: sum(
        f.duration_ms * np.exp(-((x - f.cx_px) ** 2 + (y - f.cy_px) ** 2)
                               / (2 * sigma ** 2)) for f in hfix)
    raw_max = max(raw(x, y) for y in range(64) for x in range(64))
    for _ in range(100):
        x, y = int(rng.integers(64)), int(rng.integers(64))
        assert abs(fmap.values[y, x] - raw(x, y) / raw_max) <= 1e-9
    assert np.all(gz.render_heatmap([], 64, 64, sigma_px=sigma).values == 0.0)
    assert fmap.values.max() == 1.0 and fmap.values.min() >= 0.0
    announce(capsys, 6, "2 fixations within 2 px; heatmap matches direct "
                        "evaluation at 100 pixels within 1e-9")


def test_criterion_7_fusion_identities(capsys):
    readings = ds.synth_generate(SynthConfig(n_readings=10, img_size=64), 4)
    plain = DetectorModel(ModelConfig(img_size=64, use_fixations=False, seed=0))
    mul_arm = DetectorModel(ModelConfig(img_size=64, use_fixations=True,
                                        fusion_mode="mul", fusion_point="input",
                                        seed=0))
    sum_arm = DetectorModel(ModelConfig(img_size=64, use_fixations=True,
                                        fusion_mode="sum", fusion_point="input",
                                        seed=0))
    ones, zeros = np.ones((64, 64)), np.zeros((64, 64))
    for r in readings:
        ref = plain.forward(r.image, mode="infer").detections
        for arm, fmap in ((mul_arm, ones), (sum_arm, zeros)):
            got = arm.forward(r.image, fmap, mode="infer").detections
            assert len(got) == len(ref)
            for a, b in zip(ref, got):
                assert np.array_equal(a.box, b.box)
                assert a.score == b.score and a.label == b.label
                assert np.array_equal(a.mask, b.mask)
    announce(capsys, 7, "(mul, ones) and (sum, zeros) bitwise-identical to the "
                        "image-only model on 10 readings")


def test_criterion_8_learning_check(capsys, comparison_runs):
    elapsed = comparison_runs["elapsed"][0]
    assert elapsed <= 600.0
    for arm in ("image_only", "multimodal"):
        rows = read_curve(comparison_runs["dirs"][0] / arm / "loss_curve.csv")
        by_epoch = {}
        for _, epoch, *_rest, total in [(r[0], r[1], r[5]) for r in rows]:
            by_epoch.setdefault(epoch, []).append(total)
        means = {e: np.mean(v) for e, v in by_epoch.items()}
        assert means[max(means)] < means[0]
    report = comparison_runs["reports"][0]["image_only"]
    ap = report.average_ap
    assert ap is not None and ap >= 0.5
    md = (comparison_runs["dirs"][0] / "comparison.md").read_text()
    assert "image_only AP@[IoBB=0.50]" in md
    assert "multimodal AR@[IoBB=0.50]" in md
    assert "| Average |" in md
    announce(capsys, 8, f"15 epochs in {elapsed:.0f}s, loss decreased, held-out "
                        f"image-only average AP {ap:.3f} >= 0.5, two-column "
                        f"comparison emitted")


def test_criterion_9_determinism(capsys, comparison_runs):
    a, b = comparison_runs["dirs"]
    files = ["comparison.md", "comparison.json"]
    for arm in ("image_only", "multimodal"):
        files += [f"{arm}/loss_curve.csv", f"{arm}/checkpoint_last.json",
                  f"{arm}/checkpoint_best.json", f"{arm}/report.json",
                  f"{arm}/report.md", f"{arm}/predictions.json"]
    for rel in files:
        assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel
    announce(capsys, 9, f"repeat run byte-identical across {len(files)} artifacts")
