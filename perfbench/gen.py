"""Seeded input generation for the benchmark workloads.

Everything here is the benchmark's own code: readings and gaze recordings
are written in gazedet's on-disk formats without calling gazedet, so the
program under test only ever sees finished files. The lesion ellipses the
AP/AR checker matches against come from here too.

Usage (normally called by run.py):
    python3 perfbench/gen.py --workload NAME --seed N --out DIR
"""

from __future__ import annotations

import argparse
import json
import os

import numpy as np

# Two well-separated lesion classes, as (file label, intensity, min radius,
# max radius) with radii at 64 px; they scale with the image size.
LESION_CLASSES = (
    ("EnlargedCardiacSilhouette", 0.95, 9.0, 13.0),
    ("Atelectasis", 0.55, 4.0, 6.5),
)
READING_RATE_HZ = 100.0
READING_DWELL_MS = 600.0

# gaze512: (sampling rate Hz, duration s) per recording. Sample and fixation
# counts are fixed by the design, so every seed gives the same amount of
# parsing and rendering work. The five middle cells share one shape, so the
# median op always falls among them and not in a gap between unlike cells.
GAZE_DESIGN = (
    (60, 10), (120, 10), (1000, 10),
    (250, 30), (250, 30), (250, 30), (250, 30), (250, 30),
    (1000, 30), (500, 60), (1000, 60),
)
GAZE_WARMUP = (120, 10)
GAZE_SIZE = 512
GAZE_FIXATIONS_PER_S = 2.0
GAZE_SACCADE_MS = 40.0
GAZE_NOISE_PX = 1.0
GAZE_DROPOUT_P = 0.01
GAZE_OFFSCREEN_EVERY = 5  # one off-screen glance per this many saccades

# Workload sizes. Each op count is large enough that medians settle within
# one run; see README.md for the measured spread.
COMPARE64 = dict(size=64, train=6, val=3, test=6, epochs=3)
EVAL128 = dict(size=128, test=48, prep_train=24, prep_val=2, prep_epochs=6,
               prep_seed=20230206)


def _ellipse_mask(size: int, cx: float, cy: float, rx: float, ry: float) -> np.ndarray:
    xs = (np.arange(size) + 0.5 - cx) / rx
    ys = (np.arange(size) + 0.5 - cy) / ry
    return xs[None, :] ** 2 + ys[:, None] ** 2 <= 1.0


def make_reading(rng: np.random.Generator, size: int) -> dict:
    """One reading: image, lesion ellipses kept fully inside, gaze stream."""
    scale = size / 64.0
    lesions: list[dict] = []
    for _ in range(int(rng.integers(1, 3))):
        label, _, rmin, rmax = LESION_CLASSES[int(rng.integers(len(LESION_CLASSES)))]
        for _attempt in range(30):
            rx = float(rng.uniform(rmin, rmax)) * scale
            ry = float(rng.uniform(rmin, rmax)) * scale
            cx = float(rng.uniform(rx + 1, size - rx - 1))
            cy = float(rng.uniform(ry + 1, size - ry - 1))
            if all(np.hypot(cx - o["cx"], cy - o["cy"])
                   > max(rx, ry) + max(o["rx"], o["ry"]) + 2 for o in lesions):
                lesions.append({"cx": cx, "cy": cy, "rx": rx, "ry": ry, "label": label})
                break
    image = 0.05 + rng.uniform(0.0, 0.04, size=(size, size))
    for e in lesions:
        intensity = next(c[1] for c in LESION_CLASSES if c[0] == e["label"])
        image[_ellipse_mask(size, e["cx"], e["cy"], e["rx"], e["ry"])] = intensity

    stops = [(e["cx"], e["cy"]) for e in lesions]
    for _ in range(30):  # one distractor dwell away from every lesion
        d = (float(rng.uniform(4, size - 4)), float(rng.uniform(4, size - 4)))
        if all(np.hypot(d[0] - e["cx"], d[1] - e["cy"]) > max(e["rx"], e["ry"]) + 4
               for e in lesions):
            stops.append(d)
            break
    dt = 1000.0 / READING_RATE_HZ
    noise = 0.5 * scale
    rows: list[tuple] = []
    pos = (size / 2.0, size / 2.0)
    for stop in stops:
        for k in range(4):
            f = (k + 1) / 5
            rows.append((pos[0] + f * (stop[0] - pos[0]), pos[1] + f * (stop[1] - pos[1]), None, 1))
        for _ in range(int(READING_DWELL_MS / dt)):
            rows.append((stop[0] + float(rng.normal(0, noise)),
                         stop[1] + float(rng.normal(0, noise)),
                         float(rng.uniform(2.5, 4.5)), 1))
        pos = stop
    rows.append((-500.0, -500.0, None, 1))  # off-screen glance
    rows.append((0.0, 0.0, None, 0))  # tracker dropout
    gaze = [(k * dt, x, y, p, v) for k, (x, y, p, v) in enumerate(rows)]
    return {"image": image, "lesions": lesions, "gaze": gaze}


def _write_pgm(path: str, values: np.ndarray) -> None:
    h, w = values.shape
    body = np.round(np.clip(values, 0.0, 1.0) * 255.0).astype(np.uint8).tobytes()
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode() + body)


def write_gaze_csv(path: str, rows) -> None:
    """rows of (t_ms, x, y, pupil or None, valid 0/1) in gazedet's CSV format."""
    lines = ["t_ms,x_px,y_px,pupil_mm,valid"]
    for t, x, y, p, v in rows:
        lines.append(f"{t!r},{x!r},{y!r},{'' if p is None else repr(p)},{v}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_dataset(root: str, readings: list[dict], splits: list[str]) -> None:
    entries = []
    for i, (r, split) in enumerate(zip(readings, splits)):
        rid = f"b{i:04d}"
        rdir = os.path.join(root, "readings", rid)
        os.makedirs(rdir, exist_ok=True)
        _write_pgm(os.path.join(rdir, "image.pgm"), r["image"])
        with open(os.path.join(rdir, "annotations.json"), "w") as fh:
            json.dump(r["lesions"], fh)
        write_gaze_csv(os.path.join(rdir, "gaze.csv"), r["gaze"])
        entries.append({"id": rid, "split": split})
    with open(os.path.join(root, "manifest.json"), "w") as fh:
        json.dump({"readings": entries}, fh)


def make_recording(rng: np.random.Generator, rate_hz: int, duration_s: int) -> dict:
    """Raw gaze at a fixed rate with dwells, saccades, dropouts, off-screen glances.

    Returns the CSV rows and the number of dwells (one fixation each).
    """
    n_dwell = int(round(duration_s * GAZE_FIXATIONS_PER_S))
    total_ms = duration_s * 1000.0
    dwell_ms = rng.uniform(150.0, 700.0, n_dwell)
    dwell_ms *= (total_ms - n_dwell * GAZE_SACCADE_MS) / dwell_ms.sum()
    points = rng.uniform(20.0, GAZE_SIZE - 20.0, size=(n_dwell, 2))
    # segment k: saccade into dwell k, then dwell k
    seg_start = np.concatenate([[0.0], np.cumsum(dwell_ms + GAZE_SACCADE_MS)[:-1]])
    n = int(duration_s * rate_hz)
    t = np.arange(n) * (1000.0 / rate_hz)
    seg = np.clip(np.searchsorted(seg_start, t, side="right") - 1, 0, n_dwell - 1)
    into = t - seg_start[seg]
    prev = np.where(seg[:, None] > 0, points[np.maximum(seg - 1, 0)], GAZE_SIZE / 2.0)
    frac = np.clip(into / GAZE_SACCADE_MS, 0.0, 1.0)[:, None]
    xy = prev + frac * (points[seg] - prev)
    dwelling = into >= GAZE_SACCADE_MS
    xy[dwelling] += rng.normal(0.0, GAZE_NOISE_PX, size=(int(dwelling.sum()), 2))
    offscreen = (~dwelling) & (seg % GAZE_OFFSCREEN_EVERY == 1)
    xy[offscreen] = (-40.0, GAZE_SIZE + 40.0)
    valid = rng.random(n) >= GAZE_DROPOUT_P
    pupil = rng.uniform(2.5, 4.5, n)
    has_pupil = dwelling & valid
    rows = [
        (float(t[k]), float(xy[k, 0]), float(xy[k, 1]),
         float(pupil[k]) if has_pupil[k] else None, int(valid[k]))
        for k in range(n)
    ]
    return {"rows": rows, "n_dwell": n_dwell}


def generate(workload: str, seed: int, out: str) -> dict:
    """Write the workload's inputs under ``out``; return the ground truth."""
    os.makedirs(out, exist_ok=True)
    truth: dict = {"workload": workload, "seed": seed}
    if workload == "compare64":
        c = COMPARE64
        splits = ["train"] * c["train"] + ["val"] * c["val"] + ["test"] * c["test"]
        readings = [make_reading(np.random.default_rng([seed, 64, i]), c["size"])
                    for i in range(len(splits))]
        write_dataset(os.path.join(out, "data"), readings, splits)
        truth["lesions"] = {f"b{i:04d}": r["lesions"] for i, r in enumerate(readings)}
    elif workload == "eval128":
        c = EVAL128
        readings = [make_reading(np.random.default_rng([seed, 128, i]), c["size"])
                    for i in range(c["test"])]
        write_dataset(os.path.join(out, "data"), readings, ["test"] * c["test"])
        truth["lesions"] = {f"b{i:04d}": r["lesions"] for i, r in enumerate(readings)}
        # prep data does not depend on --seed: every run evaluates the same model
        n_prep = c["prep_train"] + c["prep_val"]
        prep = [make_reading(np.random.default_rng([c["prep_seed"], i]), c["size"])
                for i in range(n_prep)]
        write_dataset(os.path.join(out, "prep"), prep,
                      ["train"] * c["prep_train"] + ["val"] * c["prep_val"])
    elif workload == "gaze512":
        gdir = os.path.join(out, "gaze")
        os.makedirs(gdir, exist_ok=True)
        recs = []
        for i, (rate, dur) in enumerate((GAZE_WARMUP,) + GAZE_DESIGN):
            rec = make_recording(np.random.default_rng([seed, 512, i]), rate, dur)
            name = f"g{i:02d}_{rate}hz_{dur}s"
            write_gaze_csv(os.path.join(gdir, name + ".csv"), rec["rows"])
            recs.append({"name": name, "rate_hz": rate, "duration_s": dur,
                         "n_dwell": rec["n_dwell"]})
        truth["recordings"] = recs
    else:
        raise ValueError(f"unknown workload {workload!r}")
    with open(os.path.join(out, "truth.json"), "w") as fh:
        json.dump(truth, fh)
    return truth


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    generate(args.workload, args.seed, args.out)


if __name__ == "__main__":
    main()
