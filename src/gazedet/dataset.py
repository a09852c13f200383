"""Reading storage, ellipse-to-target conversion, and synthetic data.

A dataset root looks like:

    root/
      manifest.json            {"readings": [{"id": "...", "split": "train"}, ...]}
      readings/<id>/
        image.pgm              binary P5, 8-bit
        annotations.json       [{"cx","cy","rx","ry","label"}, ...]
        gaze.csv               raw gaze stream (optional if fixations.csv exists)
        fixations.csv          precomputed fixations (takes precedence)

The synthetic generator plants bright elliptical lesions with per-class
intensity/size priors on a dark background, a gaze stream that dwells near
each lesion plus an off-lesion distractor dwell, and exact ellipse ground
truth. Everything is deterministic per seed.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np

from . import gaze as gz
from .fileio import json_check, json_field, read_json, write_json


class ClassLabel(IntEnum):
    ENLARGED_CARDIAC_SILHOUETTE = 0
    ATELECTASIS = 1
    PLEURAL_ABNORMALITY = 2
    CONSOLIDATION = 3
    PULMONARY_EDEMA = 4


CLASS_NAMES = {
    ClassLabel.ENLARGED_CARDIAC_SILHOUETTE: "EnlargedCardiacSilhouette",
    ClassLabel.ATELECTASIS: "Atelectasis",
    ClassLabel.PLEURAL_ABNORMALITY: "PleuralAbnormality",
    ClassLabel.CONSOLIDATION: "Consolidation",
    ClassLabel.PULMONARY_EDEMA: "PulmonaryEdema",
}
NAME_TO_CLASS = {v: k for k, v in CLASS_NAMES.items()}

REPORT_CLASS_TITLES = {
    ClassLabel.ENLARGED_CARDIAC_SILHOUETTE: "Enlarged Cardiac Silhouette",
    ClassLabel.ATELECTASIS: "Atelectasis",
    ClassLabel.PLEURAL_ABNORMALITY: "Pleural abnormality",
    ClassLabel.CONSOLIDATION: "Consolidation",
    ClassLabel.PULMONARY_EDEMA: "Pulmonary edema",
}


@dataclass(frozen=True)
class EllipseAnnotation:
    cx: float
    cy: float
    rx: float
    ry: float
    label: ClassLabel

    def __post_init__(self):
        values = (self.cx, self.cy, self.rx, self.ry)
        if not (all(map(math.isfinite, values)) and self.rx > 0 and self.ry > 0):
            raise ValueError(f"ellipse (cx, cy, rx, ry) must be finite with positive radii, "
                             f"got {values}")


@dataclass(frozen=True)
class TargetBox:
    x_min: float
    y_min: float
    x_max: float
    y_max: float
    label: ClassLabel
    mask: np.ndarray  # (H, W) uint8, 1 on the ellipse interior

    @property
    def xyxy(self) -> np.ndarray:
        return np.array([self.x_min, self.y_min, self.x_max, self.y_max])


@dataclass
class Reading:
    id: str
    image: np.ndarray  # (H, W) floats in [0, 1]
    gaze: gz.GazeStream = field(default_factory=lambda: gz.GazeStream([], [], []))
    fixations: list[gz.Fixation] | None = None
    annotations: list[EllipseAnnotation] = field(default_factory=list)

    @property
    def height(self) -> int:
        return self.image.shape[0]

    @property
    def width(self) -> int:
        return self.image.shape[1]


def _check_in_frame(e: EllipseAnnotation, img_w: int, img_h: int, where: str = "") -> None:
    """Reject only fully out-of-frame geometry; partial overlap clamps."""
    if e.cx + e.rx <= 0 or e.cy + e.ry <= 0 or e.cx - e.rx >= img_w or e.cy - e.ry >= img_h:
        raise ValueError(f"{where}ellipse at ({e.cx}, {e.cy}) lies entirely "
                         f"outside {img_w}x{img_h}")


def ellipse_to_target(e: EllipseAnnotation, img_w: int, img_h: int) -> TargetBox:
    """Axis-aligned extent box plus a pixel-center rasterized interior mask."""
    _check_in_frame(e, img_w, img_h)
    x0, x1 = e.cx - e.rx, e.cx + e.rx
    y0, y1 = e.cy - e.ry, e.cy + e.ry
    xs = (np.arange(img_w) + 0.5 - e.cx) / e.rx
    ys = (np.arange(img_h) + 0.5 - e.cy) / e.ry
    mask = (xs[None, :] ** 2 + ys[:, None] ** 2 <= 1.0).astype(np.uint8)
    return TargetBox(
        x_min=max(0.0, x0),
        y_min=max(0.0, y0),
        x_max=min(float(img_w), x1),
        y_max=min(float(img_h), y1),
        label=e.label,
        mask=mask,
    )


def reading_targets(reading: Reading) -> list[TargetBox]:
    return [ellipse_to_target(a, reading.width, reading.height) for a in reading.annotations]


# ---------------------------------------------------------------------------
# disk I/O


def label_from_json(obj, where: str) -> ClassLabel:
    """The class named by the ``label`` field of the JSON object ``obj``."""
    name = json_field(obj, "label", str, where)
    if name not in NAME_TO_CLASS:
        raise ValueError(f"{where}: label {name!r} is not one of {sorted(NAME_TO_CLASS)}")
    return NAME_TO_CLASS[name]


def _annotation_from_json(obj, img_w: int, img_h: int, where: str) -> EllipseAnnotation:
    """An object with finite numbers ``cx``, ``cy``, ``rx``, ``ry`` and a known
    ``label``, not wholly outside the image; anything else raises ValueError
    naming ``where``, the field and the value."""
    cx, cy, rx, ry = (float(json_field(obj, key, float, where))
                      for key in ("cx", "cy", "rx", "ry"))
    e = EllipseAnnotation(cx, cy, rx, ry, label_from_json(obj, where))
    _check_in_frame(e, img_w, img_h, f"{where}: ")
    return e


def load_reading(path: str) -> Reading:
    """Load one reading directory; fixations.csv wins over gaze.csv."""
    img_path = os.path.join(path, "image.pgm")
    ann_path = os.path.join(path, "annotations.json")
    image = gz.read_pgm(img_path)
    h, w = image.shape
    annotations = [
        _annotation_from_json(obj, w, h, f"{ann_path}[{i}]")
        for i, obj in enumerate(json_check(read_json(ann_path), list, ann_path))
    ]

    gaze_path = os.path.join(path, "gaze.csv")
    fix_path = os.path.join(path, "fixations.csv")
    samples = gz.GazeStream([], [], [])
    fixations = None
    if os.path.exists(fix_path):
        fixations = gz.read_fixation_csv(fix_path)
    if os.path.exists(gaze_path):
        samples = gz.read_gaze_csv(gaze_path)
    if fixations is None and not os.path.exists(gaze_path):
        raise FileNotFoundError(f"{path}: needs gaze.csv or fixations.csv")
    return Reading(
        id=os.path.basename(os.path.normpath(path)),
        image=image,
        gaze=samples,
        fixations=fixations,
        annotations=annotations,
    )


def save_reading(root: str, reading: Reading) -> str:
    rdir = os.path.join(root, "readings", reading.id)
    os.makedirs(rdir, exist_ok=True)
    gz.write_pgm(os.path.join(rdir, "image.pgm"), reading.image)
    ann = [
        {"cx": a.cx, "cy": a.cy, "rx": a.rx, "ry": a.ry, "label": CLASS_NAMES[a.label]}
        for a in reading.annotations
    ]
    write_json(os.path.join(rdir, "annotations.json"), ann, indent=1)
    gz.write_gaze_csv(os.path.join(rdir, "gaze.csv"), reading.gaze)
    # load_reading prefers fixations.csv to gaze.csv, so a stale one must go
    fix_path = os.path.join(rdir, "fixations.csv")
    if reading.fixations is not None:
        gz.write_fixation_csv(fix_path, reading.fixations)
    elif os.path.exists(fix_path):
        os.remove(fix_path)
    return rdir


def _check_reading_id(rid: str, first_entry: dict[str, int], i: int, where: str) -> None:
    """Refuse an id that is not a single plain path component, or that repeats
    one of ``first_entry`` (id -> entry index); then record it as entry ``i``."""
    if rid in ("", ".", "..") or "/" in rid or os.sep in rid:
        raise ValueError(f"{where}: id {rid!r} is not a single plain path component")
    if rid in first_entry:
        raise ValueError(f"{where}: id {rid!r} repeats readings[{first_entry[rid]}]")
    first_entry[rid] = i


def save_dataset(root: str, readings: list[Reading], splits: dict[str, str] | None = None) -> None:
    """Write all readings, then the manifest last as the atomicity marker.

    A reading ``load_dataset`` would refuse (a bad or repeated id, an ellipse
    wholly outside its image) raises ValueError before anything is written.
    """
    man_path = os.path.join(root, "manifest.json")
    first_entry: dict[str, int] = {}
    for i, r in enumerate(readings):
        where = f"{man_path}: readings[{i}]"
        _check_reading_id(r.id, first_entry, i, where)
        for j, a in enumerate(r.annotations):
            _check_in_frame(a, r.width, r.height, f"{where}: annotations[{j}]: ")
    os.makedirs(root, exist_ok=True)
    for r in readings:
        save_reading(root, r)
    manifest = {
        "readings": [
            {"id": r.id, "split": (splits or {}).get(r.id, "train")} for r in readings
        ]
    }
    write_json(man_path, manifest, indent=1)


def load_dataset(root: str, split: str | None = None) -> list[Reading]:
    """The readings of ``split`` (all when None), in manifest order; a bad
    manifest raises ValueError naming the file, the entry and the value.

    Each id names one directory under ``readings/``, so it must be a single
    plain path component, and no two entries may share one.
    """
    man_path = os.path.join(root, "manifest.json")
    readings = []
    first_entry: dict[str, int] = {}
    for i, entry in enumerate(json_field(read_json(man_path), "readings", list, man_path)):
        where = f"{man_path}: readings[{i}]"
        rid, part = (json_field(entry, key, str, where) for key in ("id", "split"))
        _check_reading_id(rid, first_entry, i, where)
        if split is not None and part != split:
            continue
        readings.append(load_reading(os.path.join(root, "readings", rid)))
    return readings


# ---------------------------------------------------------------------------
# synthetic generation


@dataclass
class SynthConfig:
    n_readings: int = 200
    img_size: int = 64
    classes: tuple[ClassLabel, ...] = (
        ClassLabel.ENLARGED_CARDIAC_SILHOUETTE,
        ClassLabel.ATELECTASIS,
    )
    lesions_min: int = 1
    lesions_max: int = 2

    def __post_init__(self):
        if self.img_size < 32:
            raise ValueError(f"img_size must be >= 32, got {self.img_size}")
        if not 0 <= self.lesions_min <= self.lesions_max:
            raise ValueError(f"lesions per image must satisfy 0 <= lesions_min <= lesions_max, "
                             f"got lesions_min {self.lesions_min}, lesions_max {self.lesions_max}")
        if self.n_readings < 0:
            raise ValueError("n_readings must be non-negative")


# per-class (intensity, min radius, max radius) priors at img_size 64;
# radii scale with image size, intensities chosen for clear separability
_CLASS_PRIORS = {
    ClassLabel.ENLARGED_CARDIAC_SILHOUETTE: (0.95, 9.0, 13.0),
    ClassLabel.ATELECTASIS: (0.55, 4.0, 6.5),
    ClassLabel.PLEURAL_ABNORMALITY: (0.75, 6.0, 9.0),
    ClassLabel.CONSOLIDATION: (0.40, 7.0, 10.0),
    ClassLabel.PULMONARY_EDEMA: (0.85, 4.5, 7.0),
}

_DWELL_MS = 600.0
_DT_MS = 10.0
# per-sample dwell jitter at img_size 64; scaled with img_size so the
# jitter-to-dispersion-threshold ratio (and hence fixation detection
# behavior) is the same at every image size
_GAZE_NOISE_PX = 0.5
_BACKGROUND = 0.05


def _plant_lesions(rng: np.random.Generator, cfg: SynthConfig) -> list[EllipseAnnotation]:
    scale = cfg.img_size / 64.0
    n = int(rng.integers(cfg.lesions_min, cfg.lesions_max + 1))
    placed: list[EllipseAnnotation] = []
    for _ in range(n):
        label = cfg.classes[int(rng.integers(len(cfg.classes)))]
        _, rmin, rmax = _CLASS_PRIORS[label]
        for _attempt in range(30):
            rx = float(rng.uniform(rmin, rmax)) * scale
            ry = float(rng.uniform(rmin, rmax)) * scale
            cx = float(rng.uniform(rx + 1, cfg.img_size - rx - 1))
            cy = float(rng.uniform(ry + 1, cfg.img_size - ry - 1))
            ok = all(
                np.hypot(cx - p.cx, cy - p.cy) > (max(rx, ry) + max(p.rx, p.ry) + 2)
                for p in placed
            )
            if ok:
                placed.append(EllipseAnnotation(cx, cy, rx, ry, label))
                break
    return placed


def _render_image(rng: np.random.Generator, cfg: SynthConfig,
                  lesions: list[EllipseAnnotation]) -> np.ndarray:
    img = _BACKGROUND + rng.uniform(0.0, 0.04, size=(cfg.img_size, cfg.img_size))
    for e in lesions:
        intensity, _, _ = _CLASS_PRIORS[e.label]
        tgt = ellipse_to_target(e, cfg.img_size, cfg.img_size)
        img = np.where(tgt.mask.astype(bool), intensity, img)
    return np.clip(img, 0.0, 1.0)


def _synth_gaze(rng, cfg: SynthConfig, lesions: list[EllipseAnnotation]) -> gz.GazeStream:
    """A 4-sample saccade sweep into each stop, then a dwell there; the rng
    draws x, y and pupil for each dwell sample in that order."""
    n_dwell = int(_DWELL_MS / _DT_MS)
    stops: list[tuple[float, float]] = [(e.cx, e.cy) for e in lesions]
    # one distractor dwell away from every lesion, mimicking interface noise
    for _ in range(30):
        dx = float(rng.uniform(4, cfg.img_size - 4))
        dy = float(rng.uniform(4, cfg.img_size - 4))
        if all(np.hypot(dx - e.cx, dy - e.cy) > max(e.rx, e.ry) + 4 for e in lesions):
            stops.append((dx, dy))
            break
    ts: list[float] = []
    xs: list[float] = []
    ys: list[float] = []
    pupils: list[float] = []
    t = 0.0
    pos = (cfg.img_size / 2.0, cfg.img_size / 2.0)
    noise = _GAZE_NOISE_PX * cfg.img_size / 64.0
    for stop in stops:
        for k in range(4):
            f = (k + 1) / 5
            ts.append(t + k * _DT_MS)
            xs.append(pos[0] + f * (stop[0] - pos[0]))
            ys.append(pos[1] + f * (stop[1] - pos[1]))
            pupils.append(math.nan)
        t = ts[-1] + _DT_MS
        for k in range(n_dwell):
            ts.append(t + k * _DT_MS)
            xs.append(stop[0] + float(rng.normal(0, noise)))
            ys.append(stop[1] + float(rng.normal(0, noise)))
            pupils.append(float(rng.uniform(2.5, 4.5)))
        t = ts[-1] + _DT_MS
        pos = stop
    # sprinkle tracker dropouts and off-screen glances that filtering removes
    ts += [t, t + _DT_MS]
    xs += [-500.0, 0.0]
    ys += [-500.0, 0.0]
    pupils += [math.nan, math.nan]
    return gz.GazeStream(ts, xs, ys, pupils, [True] * (len(ts) - 1) + [False])


def synth_generate(config: SynthConfig, seed: int) -> list[Reading]:
    """Generate readings with exact ellipse ground truth; deterministic per seed."""
    readings = []
    for idx in range(config.n_readings):
        rng = np.random.default_rng([seed, idx])
        lesions = _plant_lesions(rng, config)
        image = _render_image(rng, config, lesions)
        samples = _synth_gaze(rng, config, lesions)
        readings.append(
            Reading(id=f"r{idx:04d}", image=image, gaze=samples, annotations=lesions)
        )
    return readings


def split(
    readings: list[Reading], ratios: tuple[float, float, float], seed: int
) -> tuple[list[Reading], list[Reading], list[Reading]]:
    """Deterministic shuffled partition into train/val/test."""
    if not readings:
        raise ValueError("cannot split an empty reading list")
    if min(ratios) < 0:
        raise ValueError(f"split ratios must be non-negative, got {ratios}")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError(f"split ratios must sum to 1, got {ratios}")
    order = np.random.default_rng(seed).permutation(len(readings))
    n = len(readings)
    n_train = int(round(ratios[0] * n))
    n_val = int(round(ratios[1] * n))
    n_train = min(n_train, n)
    n_val = min(n_val, n - n_train)
    shuffled = [readings[i] for i in order]
    return shuffled[:n_train], shuffled[n_train : n_train + n_val], shuffled[n_train + n_val :]
