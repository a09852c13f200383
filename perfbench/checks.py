"""Independent checkers for the benchmark's workloads.

None of these call gazedet: each recomputes a result from the benchmark's
own inputs by a different formulation, or tests a property the method must
have. Every checker returns a list of problems; an empty list means the
program's output passed.
"""

from __future__ import annotations

import math

import numpy as np

# ---------------------------------------------------------------------------
# gaze: filtering, I-DT, heatmap, file formats


def filter_samples(rows, width: int, height: int):
    """Valid samples inside [0, width] x [0, height], as (t, x, y) tuples."""
    return [(t, x, y) for t, x, y, _p, v in rows
            if v and 0.0 <= x <= width and 0.0 <= y <= height]


def idt_fixations(samples, dispersion_px: float, min_duration_ms: float):
    """Brute-force I-DT over (t, x, y) samples.

    From each window start, the dispersion of every prefix is taken from
    cumulative extrema, and the window is the longest prefix whose
    (max_x - min_x) + (max_y - min_y) stays within the threshold. Returns
    (cx, cy, start_ms, end_ms, n_samples) tuples.
    """
    if not samples:
        return []
    t = np.array([s[0] for s in samples])
    x = np.array([s[1] for s in samples])
    y = np.array([s[2] for s in samples])
    out = []
    i, n = 0, len(samples)
    while i < n:
        look = 64
        while True:  # widen the look-ahead until the window ends inside it
            xs, ys = x[i:i + look], y[i:i + look]
            spread = (np.maximum.accumulate(xs) - np.minimum.accumulate(xs)
                      + np.maximum.accumulate(ys) - np.minimum.accumulate(ys))
            over = np.flatnonzero(spread > dispersion_px)
            if len(over) or i + look >= n:
                break
            look *= 2
        j = i + (int(over[0]) if len(over) else n - i)  # exclusive end
        if t[j - 1] - t[i] >= min_duration_ms:
            window = samples[i:j]
            cx = sum(s[1] for s in window) / len(window)
            cy = sum(s[2] for s in window) / len(window)
            out.append((cx, cy, float(t[i]), float(t[j - 1]), j - i))
        i = j
    return out


def check_fixations(got, expected, min_duration_ms: float) -> list[str]:
    """Program fixations, as (cx, cy, start_ms, end_ms, n_samples), must
    equal the independent I-DT exactly."""
    problems = []
    if got != expected:
        first = next((k for k, (a, b) in enumerate(zip(got, expected)) if a != b),
                     min(len(got), len(expected)))
        problems.append(f"fixations differ from independent I-DT at index {first} "
                        f"({len(got)} vs {len(expected)} fixations)")
    short = [f for f in got if f[3] - f[2] < min_duration_ms]
    if short:
        problems.append(f"{len(short)} fixations shorter than {min_duration_ms} ms")
    return problems


def gaussian_heatmap(fixations, width: int, height: int, sigma_px: float) -> np.ndarray:
    """Duration-weighted Gaussian sum, per pixel, from separable factors."""
    inv = 1.0 / (2.0 * sigma_px * sigma_px)
    xs = np.arange(width, dtype=np.float64)
    ys = np.arange(height, dtype=np.float64)
    grid = np.zeros((height, width))
    for cx, cy, start, end, _n in fixations:
        gx = np.exp(-((xs - cx) ** 2) * inv)
        gy = np.exp(-((ys - cy) ** 2) * inv)
        grid += (end - start) * np.outer(gy, gx)
    return grid / grid.max()


def check_heatmap(values: np.ndarray, expected: np.ndarray, rel_tol: float = 1e-12) -> list[str]:
    problems = []
    if values.shape != expected.shape:
        return [f"heatmap shape {values.shape} != {expected.shape}"]
    if not np.all(np.isfinite(values)):
        return ["heatmap has non-finite values"]
    if values.max() != 1.0:
        problems.append(f"heatmap peak {values.max()!r} is not exactly 1")
    err = float(np.max(np.abs(values - expected)))
    if err > rel_tol * float(np.max(np.abs(expected))):
        problems.append(f"heatmap differs from the independent Gaussian sum by {err:.3e}")
    return problems


def read_pgm(path: str) -> np.ndarray:
    """Minimal P5 reader: 'P5\\n<w> <h>\\n255\\n' header then w*h bytes."""
    with open(path, "rb") as fh:
        raw = fh.read()
    magic, dims, maxval, body = raw.split(b"\n", 3)
    w, h = dims.split()
    if magic != b"P5" or maxval != b"255" or len(body) != int(w) * int(h):
        raise ValueError(f"{path}: unexpected PGM layout")
    return np.frombuffer(body, dtype=np.uint8).reshape(int(h), int(w)) / 255.0


def read_float_map(path: str) -> np.ndarray:
    with open(path, "rb") as fh:
        header = fh.readline().split()
        body = fh.read()
    w, h = int(header[1]), int(header[2])
    if header[0] != b"GFMAP" or len(body) != 8 * w * h:
        raise ValueError(f"{path}: unexpected float-map layout")
    return np.frombuffer(body, dtype="<f8").reshape(h, w)


def check_written_maps(values: np.ndarray, pgm_path: str, fmap_path: str) -> list[str]:
    problems = []
    pgm = read_pgm(pgm_path)
    if pgm.shape != values.shape or np.max(np.abs(pgm - values)) > 1.0 / 510.0 + 1e-15:
        problems.append(f"{pgm_path}: does not read back within 1/510")
    fmap = read_float_map(fmap_path)
    if fmap.shape != values.shape or not np.array_equal(fmap, values):
        problems.append(f"{fmap_path}: does not read back exactly")
    return problems


def read_fixation_rows(path: str):
    with open(path) as fh:
        lines = fh.read().splitlines()
    if lines[0] != "cx_px,cy_px,start_ms,end_ms":
        raise ValueError(f"{path}: bad header")
    return [tuple(float(v) for v in line.split(",")) for line in lines[1:]]


# ---------------------------------------------------------------------------
# detections and AP/AR


def lesion_box(e: dict) -> tuple:
    """Extent box of an ellipse that lies fully inside the image."""
    return (e["cx"] - e["rx"], e["cy"] - e["ry"], e["cx"] + e["rx"], e["cy"] + e["ry"])


def _area(b) -> float:
    return max(0.0, b[2] - b[0]) * max(0.0, b[3] - b[1])


def _inter(a, b) -> float:
    return (max(0.0, min(a[2], b[2]) - max(a[0], b[0]))
            * max(0.0, min(a[3], b[3]) - max(a[1], b[1])))


def iou(a, b) -> float:
    inter = _inter(a, b)
    return inter / (_area(a) + _area(b) - inter)


def iobb(pred, gt) -> float:
    return _inter(pred, gt) / _area(pred)


def _greedy(dets, gts, thresh: float):
    """dets already ranked; each takes the best still-unmatched gt, IoBB >= thresh."""
    used = [False] * len(gts)
    tp = []
    for box, _score in dets:
        best, best_g = 0.0, -1
        for g, gt in enumerate(gts):
            if not used[g]:
                ov = iobb(box, gt)
                if ov >= thresh and ov > best:
                    best, best_g = ov, g
        if best_g >= 0:
            used[best_g] = True
        tp.append(best_g >= 0)
    return tp, sum(used)


def class_ap_ar(dets, gts, thresh: float = 0.5, max_dets: int = 100):
    """(AP, AR) of one class; None for both when there is no ground truth.

    ``dets`` are (box, score) pairs pooled over readings, ranked by score
    descending then box; AP is the area under the precision envelope at
    every recall step, AR the recall of the top ``max_dets`` detections.
    """
    if not gts:
        return None, None
    ranked = sorted(dets, key=lambda d: (-d[1], tuple(d[0])))
    tp, _ = _greedy(ranked, gts, thresh)
    ap = 0.0
    for k, hit in enumerate(tp):
        if hit:  # recall rises by 1/len(gts); best precision at or beyond k
            n_tp = 0
            best = 0.0
            for m, h in enumerate(tp):
                n_tp += h
                if m >= k:
                    best = max(best, n_tp / (m + 1))
            ap += best / len(gts)
    _, n_matched = _greedy(ranked[:max_dets], gts, thresh)
    return ap, n_matched / len(gts)


def check_report(report: dict, dets_by_class: dict, gts_by_class: dict,
                 thresh: float = 0.5, max_dets: int = 100, tol: float = 1e-12) -> list[str]:
    """Report rows, keyed by class title, against the independent matcher."""
    problems = []
    aps, ars = [], []
    rows = {row["label"]: row for row in report["classes"]}
    for title in rows:
        dets = dets_by_class.get(title, [])
        gts = gts_by_class.get(title, [])
        ap, ar = class_ap_ar(dets, gts, thresh, max_dets)
        row = rows[title]
        if row["n_gt"] != len(gts) or row["n_det"] != len(dets):
            problems.append(f"{title}: det/gt counts {row['n_det']}/{row['n_gt']} "
                            f"!= {len(dets)}/{len(gts)}")
        for name, mine, theirs in (("AP", ap, row["ap"]), ("AR", ar, row["ar"])):
            if (mine is None) != (theirs is None) or (
                    mine is not None and abs(mine - theirs) > tol):
                problems.append(f"{title}: {name} {theirs} != independent {mine}")
        if ap is not None:
            aps.append(ap)
            ars.append(ar)
    for name, vals in (("ap", aps), ("ar", ars)):
        mine = sum(vals) / len(vals) if vals else None
        theirs = report["average"][name]
        if (mine is None) != (theirs is None) or (mine is not None and abs(mine - theirs) > tol):
            problems.append(f"average {name} {theirs} != independent {mine}")
    return problems


def check_detections(dets, img_size: int, score_thresh: float, nms_thresh: float,
                     max_detections: int) -> list[str]:
    """Properties every post-processed detection list must have.

    ``dets`` are (box, label, score, mask) tuples in the program's order.
    """
    problems = []
    if len(dets) > max_detections:
        problems.append(f"{len(dets)} detections > max {max_detections}")
    prev = math.inf
    for k, (box, label, score, mask) in enumerate(dets):
        x0, y0, x1, y1 = box
        if not (0.0 <= x0 < x1 <= img_size and 0.0 <= y0 < y1 <= img_size):
            problems.append(f"det {k}: box {tuple(box)} outside the image or empty")
        if not score_thresh <= score <= 1.0:
            problems.append(f"det {k}: score {score} outside [{score_thresh}, 1]")
        if score > prev:
            problems.append(f"det {k}: scores not in descending order")
        prev = score
        if not (np.all(mask >= 0.0) and np.all(mask <= 1.0)):
            problems.append(f"det {k}: mask values outside [0, 1]")
        for m in range(k):
            if dets[m][1] == label and iou(dets[m][0], box) > nms_thresh:
                problems.append(f"dets {m},{k}: same class with IoU above {nms_thresh}")
    return problems
