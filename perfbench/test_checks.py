"""Tests of the benchmark's independent checkers.

Each checker must agree with a hand-worked case and reject a deliberately
corrupted program output. Run from the repository root:

    python3 -m pytest perfbench/test_checks.py
"""

import json
import math
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402


# ---------------------------------------------------------------------------
# I-DT

# two dwells 100 px apart, 10 ms sampling; one dropout and one off-screen row
ROWS = [
    (0.0, 10.0, 10.0, None, 1),
    (10.0, 12.0, 10.0, 3.0, 1),
    (20.0, 11.0, 13.0, 3.0, 1),
    (30.0, 0.0, 0.0, None, 0),      # dropout: filtered
    (40.0, 10.0, 11.0, 3.0, 1),
    (50.0, 110.0, 10.0, 3.0, 1),
    (60.0, -5.0, 50.0, None, 1),    # off-screen: filtered
    (70.0, 111.0, 11.0, 3.0, 1),
    (80.0, 112.0, 12.0, 3.0, 1),
]


def test_filter_drops_invalid_and_offscreen():
    kept = checks.filter_samples(ROWS, 200, 200)
    assert [t for t, _x, _y in kept] == [0.0, 10.0, 20.0, 40.0, 50.0, 70.0, 80.0]


def test_idt_hand_worked():
    samples = checks.filter_samples(ROWS, 200, 200)
    # first window: x in [10, 12], y in [10, 13] -> dispersion 5 <= 6
    got = checks.idt_fixations(samples, dispersion_px=6.0, min_duration_ms=30.0)
    assert got == [
        ((10.0 + 12.0 + 11.0 + 10.0) / 4, (10.0 + 10.0 + 13.0 + 11.0) / 4, 0.0, 40.0, 4),
        ((110.0 + 111.0 + 112.0) / 3, (10.0 + 11.0 + 12.0) / 3, 50.0, 80.0, 3),
    ]
    # a tighter threshold splits the first dwell; only windows >= 30 ms stay
    got = checks.idt_fixations(samples, dispersion_px=4.0, min_duration_ms=30.0)
    assert [(f[2], f[3]) for f in got] == [(50.0, 80.0)]


def test_idt_long_window_crosses_lookahead():
    samples = [(float(k), 5.0 + 0.001 * (k % 7), 5.0, ) for k in range(300)]
    assert checks.idt_fixations(samples, 1.0, 100.0) == [
        (sum(s[1] for s in samples) / 300, 5.0, 0.0, 299.0, 300)]


def test_check_fixations_rejects_corruption():
    samples = checks.filter_samples(ROWS, 200, 200)
    expected = checks.idt_fixations(samples, 6.0, 30.0)
    assert checks.check_fixations(list(expected), expected, 30.0) == []
    shifted = [expected[0][:3] + (expected[0][3] - 20.0, expected[0][4]), expected[1]]
    problems = checks.check_fixations(shifted, expected, 30.0)
    assert len(problems) == 2  # differs from I-DT, and shorter than the minimum
    assert checks.check_fixations(expected[:1], expected, 30.0)


# ---------------------------------------------------------------------------
# heatmap and written maps


def test_gaussian_heatmap_hand_worked():
    # fixation at pixel (1, 1) of a 3x3 grid, sigma 1: exp(-d^2 / 2)
    got = checks.gaussian_heatmap([(1.0, 1.0, 0.0, 200.0, 5)], 3, 3, 1.0)
    e1, e2 = math.exp(-0.5), math.exp(-1.0)
    assert np.allclose(got, [[e2, e1, e2], [e1, 1.0, e1], [e2, e1, e2]], rtol=1e-15)
    # weights are durations: the 300 ms fixation dominates the 100 ms one
    got = checks.gaussian_heatmap([(0.0, 0.0, 0.0, 100.0, 3), (2.0, 0.0, 0.0, 300.0, 3)],
                                  3, 1, 1.0)
    assert got[0, 2] == 1.0
    assert got[0, 0] == pytest.approx((100 + 300 * math.exp(-2.0)) / (300 + 100 * math.exp(-2.0)))


def test_check_heatmap_rejects_corruption():
    expected = checks.gaussian_heatmap([(3.0, 4.0, 0.0, 150.0, 5)], 8, 8, 2.0)
    assert checks.check_heatmap(expected.copy(), expected) == []
    off = expected.copy()
    off[0, 0] *= 1.0 + 1e-9
    assert checks.check_heatmap(off, expected)
    assert checks.check_heatmap(expected * 0.5, expected)  # peak not 1
    assert checks.check_heatmap(np.full((8, 8), np.nan), expected)  # zero-weight NaN map


def test_written_maps_round_trip_and_corruption(tmp_path):
    values = checks.gaussian_heatmap([(3.0, 4.0, 0.0, 150.0, 5)], 8, 6, 2.0)
    pgm, fmap = str(tmp_path / "m.pgm"), str(tmp_path / "m.fmap")
    body = np.round(values * 255.0).astype(np.uint8).tobytes()
    with open(pgm, "wb") as fh:
        fh.write(b"P5\n8 6\n255\n" + body)
    with open(fmap, "wb") as fh:
        fh.write(b"GFMAP 8 6\n" + values.astype("<f8").tobytes())
    assert checks.check_written_maps(values, pgm, fmap) == []
    with open(pgm, "wb") as fh:  # one level off at the peak
        fh.write(b"P5\n8 6\n255\n" + bytes([b ^ 1 if b == 255 else b for b in body]))
    bumped = values.copy()
    bumped[0, 0] = np.nextafter(bumped[0, 0], 2.0)
    problems = checks.check_written_maps(bumped, pgm, fmap)
    assert len(problems) == 2


# ---------------------------------------------------------------------------
# AP/AR matcher and detection properties

GTS = [(0.0, 0.0, 10.0, 10.0), (20.0, 20.0, 30.0, 30.0)]
DETS = [((1.0, 1.0, 9.0, 9.0), 0.9),      # inside gt 0: IoBB 1, TP
        ((50.0, 50.0, 60.0, 60.0), 0.8),  # nowhere: FP
        ((18.0, 18.0, 28.0, 28.0), 0.7)]  # IoBB 64/100 with gt 1: TP


def test_ap_ar_hand_worked():
    # precision 1, 1/2, 2/3 at recall 1/2, 1/2, 1; envelope 1 and 2/3
    ap, ar = checks.class_ap_ar(DETS, GTS)
    assert ap == pytest.approx((1.0 + 2.0 / 3.0) / 2.0, abs=1e-15)
    assert ar == 1.0
    ap, ar = checks.class_ap_ar(DETS, GTS, max_dets=2)
    assert ar == 0.5
    assert checks.class_ap_ar(DETS, []) == (None, None)
    # inclusive threshold: IoBB exactly 0.64 still matches at 0.64
    assert checks.class_ap_ar(DETS[2:], GTS[1:], thresh=0.64)[1] == 1.0
    assert checks.class_ap_ar(DETS[2:], GTS[1:], thresh=0.65)[1] == 0.0


def _report(ap, ar):
    return {"classes": [{"label": "A", "ap": ap, "ar": ar, "n_gt": 2, "n_det": 3},
                        {"label": "B", "ap": None, "ar": None, "n_gt": 0, "n_det": 0}],
            "average": {"ap": ap, "ar": ar}}


def test_check_report_rejects_corruption():
    good = (1.0 + 2.0 / 3.0) / 2.0
    assert checks.check_report(_report(good, 1.0), {"A": DETS}, {"A": GTS}) == []
    assert checks.check_report(_report(good + 1e-9, 1.0), {"A": DETS}, {"A": GTS})
    assert checks.check_report(_report(good, 0.5), {"A": DETS}, {"A": GTS})
    assert checks.check_report(_report(good, 1.0), {"A": DETS[:2]}, {"A": GTS})


def _det(box, label, score):
    return (box, label, score, np.full((7, 7), 0.5))


def test_check_detections_accepts_valid_and_rejects_corruption():
    good = [_det((0.0, 0.0, 10.0, 10.0), 0, 0.9), _det((0.0, 0.0, 10.0, 10.0), 1, 0.8),
            _det((20.0, 20.0, 30.0, 30.0), 0, 0.5)]
    assert checks.check_detections(good, 64, 0.05, 0.5, 100) == []
    cases = [
        good[::-1],                                            # ascending scores
        good + [_det((60.0, 0.0, 70.0, 5.0), 0, 0.1)],         # outside the image
        good + [_det((5.0, 5.0, 5.0, 9.0), 0, 0.1)],           # zero area
        good + [_det((40.0, 40.0, 50.0, 50.0), 0, 0.01)],      # below score_thresh
        good + [_det((1.0, 1.0, 10.0, 10.0), 0, 0.4)],         # same class, IoU 0.81
        [(good[0][0], 0, 0.9, np.full((7, 7), 1.5))],          # mask above 1
    ]
    for dets in cases:
        assert checks.check_detections(dets, 64, 0.05, 0.5, 100), dets
    assert checks.check_detections(good, 64, 0.05, 0.5, 2)


# ---------------------------------------------------------------------------


def test_benchmark_json_matches_the_code():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [m["name"] for m in spec["per_layer"]] == [
        m[0] for m in tracing.PER_LAYER] + ["trace.wall_s"]
    assert [m["unit"] for m in spec["per_layer"]] == [
        m[1] for m in tracing.PER_LAYER] + ["s"]
