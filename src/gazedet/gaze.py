"""Gaze stream processing: filtering, fixation detection, heatmap rendering.

Fixation detection is dispersion-based (I-DT): the stream is segmented into
maximal windows whose Manhattan span (max_x - min_x) + (max_y - min_y) stays
within a dispersion threshold, and windows lasting at least a minimum
duration become fixations. Segment-then-filter keeps the detector monotone:
raising the duration threshold can only drop fixations, never create them.

Heatmaps aggregate all fixations of a reading into one static map: an
isotropic Gaussian per fixation, weighted by dwell time by default, then
divided by the maximum so the peak is exactly 1. The isotropic Gaussian is
separable, exp(-(dx^2 + dy^2) / (2 sigma^2)) = exp(-dx^2 / ...) * exp(-dy^2 / ...),
so the weighted sum over K fixations is one (H, K) @ (K, W) product of
per-axis factors rather than K full-grid evaluations.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .fileio import atomic_write_bytes, atomic_write_text

DEFAULT_DISPERSION_PX = 25.0  # at 512-px image width
DEFAULT_MIN_DURATION_MS = 100.0
DEFAULT_SIGMA_PX = 25.0  # at 512-px image width
REFERENCE_WIDTH_PX = 512.0

GAZE_CSV_HEADER = ["t_ms", "x_px", "y_px", "pupil_mm", "valid"]
FIXATION_CSV_HEADER = ["cx_px", "cy_px", "start_ms", "end_ms"]


@dataclass(frozen=True, slots=True)
class GazeSample:
    t_ms: float
    x_px: float
    y_px: float
    pupil_mm: float | None = None
    valid: bool = True


@dataclass(frozen=True, slots=True)
class Fixation:
    cx_px: float
    cy_px: float
    start_ms: float
    end_ms: float
    n_samples: int = 0

    @property
    def duration_ms(self) -> float:
        return self.end_ms - self.start_ms


@dataclass
class FixationMap:
    """Max-normalized heatmap aligned to an image grid; values in [0, 1]."""

    width: int
    height: int
    values: np.ndarray  # (height, width) float64

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != (self.height, self.width):
            raise ValueError(
                f"values shape {self.values.shape} != ({self.height}, {self.width})"
            )


def scaled_default(value_at_512: float, image_width: int) -> float:
    """Scale a 512-px-reference parameter to the actual image width."""
    return value_at_512 * image_width / REFERENCE_WIDTH_PX


def filter_gaze(
    samples: list[GazeSample], width: int, height: int, margin_px: float = 0.0
) -> list[GazeSample]:
    """Drop invalid samples and samples outside the image plus margin.

    Order is preserved; the result may be empty. Idempotent.
    """
    out = []
    for s in samples:
        if not s.valid:
            continue
        if -margin_px <= s.x_px <= width + margin_px and -margin_px <= s.y_px <= height + margin_px:
            out.append(s)
    return out


def detect_fixations(
    samples: list[GazeSample],
    dispersion_px: float = DEFAULT_DISPERSION_PX,
    min_duration_ms: float = DEFAULT_MIN_DURATION_MS,
) -> list[Fixation]:
    """I-DT fixation detection over a time-sorted sample stream."""
    if dispersion_px <= 0 or min_duration_ms <= 0:
        raise ValueError("dispersion_px and min_duration_ms must be positive")
    for a, b in zip(samples, samples[1:]):
        if b.t_ms <= a.t_ms:
            raise ValueError(f"gaze samples not strictly increasing in time at t={b.t_ms}")

    fixations: list[Fixation] = []
    n = len(samples)
    i = 0
    while i < n:
        min_x = max_x = samples[i].x_px
        min_y = max_y = samples[i].y_px
        j = i
        while j + 1 < n:
            s = samples[j + 1]
            nmin_x, nmax_x = min(min_x, s.x_px), max(max_x, s.x_px)
            nmin_y, nmax_y = min(min_y, s.y_px), max(max_y, s.y_px)
            if (nmax_x - nmin_x) + (nmax_y - nmin_y) > dispersion_px:
                break
            min_x, max_x, min_y, max_y = nmin_x, nmax_x, nmin_y, nmax_y
            j += 1
        window = samples[i : j + 1]
        duration = window[-1].t_ms - window[0].t_ms
        if duration >= min_duration_ms:
            fixations.append(
                Fixation(
                    cx_px=sum(s.x_px for s in window) / len(window),
                    cy_px=sum(s.y_px for s in window) / len(window),
                    start_ms=window[0].t_ms,
                    end_ms=window[-1].t_ms,
                    n_samples=len(window),
                )
            )
        i = j + 1
    return fixations


def render_heatmap(
    fixations: list[Fixation],
    width: int,
    height: int,
    sigma_px: float,
    weighting: str = "duration",
) -> FixationMap:
    """Gaussian-sum fixation map, divided by its max so the peak is 1.

    raw(x, y) = sum_f w_f * exp(-((x-cx)^2 + (y-cy)^2) / (2 sigma^2)),
    w_f = duration_ms in "duration" mode, 1 in "uniform" mode. The Gaussian
    factors into gx[f, x] = exp(-(x-cx)^2 / (2 sigma^2)) and the same gy[f, y],
    so raw = (gy^T * w) @ gx: one exp per axis and one GEMM over fixations. A
    map with zero total weight (zero durations, or fixations far off the
    image) stays all-zero.
    """
    if width <= 0 or height <= 0:
        raise ValueError(f"non-positive heatmap dimensions ({width}, {height})")
    if sigma_px <= 0:
        raise ValueError("sigma_px must be positive")
    if weighting not in ("duration", "uniform"):
        raise ValueError(f"unknown weighting {weighting!r}")
    inv = 1.0 / (2.0 * sigma_px * sigma_px)
    cx = np.array([f.cx_px for f in fixations], dtype=np.float64)[:, None]
    cy = np.array([f.cy_px for f in fixations], dtype=np.float64)[:, None]
    w = np.array([f.duration_ms if weighting == "duration" else 1.0 for f in fixations],
                 dtype=np.float64)
    gx = np.exp(-((np.arange(width, dtype=np.float64) - cx) ** 2) * inv)  # (K, W)
    gy = np.exp(-((np.arange(height, dtype=np.float64) - cy) ** 2) * inv)  # (K, H)
    grid = (gy.T * w) @ gx
    peak = grid.max()
    if peak > 0:
        grid /= peak
    return FixationMap(width, height, grid)


def binarize(fmap: FixationMap, threshold: float) -> FixationMap:
    """Hard mask variant of a heatmap: 1 where value >= threshold."""
    return FixationMap(fmap.width, fmap.height, (fmap.values >= threshold).astype(np.float64))


# ---------------------------------------------------------------------------
# file formats


def read_gaze_csv(path: str) -> list[GazeSample]:
    """Parse `t_ms,x_px,y_px,pupil_mm,valid`; pupil may be empty, valid in {0,1}."""
    samples: list[GazeSample] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != GAZE_CSV_HEADER:
            raise ValueError(f"{path}:1: bad gaze header {header}")
        prev_t = -math.inf
        for lineno, row in enumerate(reader, start=2):
            if len(row) != 5:
                raise ValueError(f"{path}:{lineno}: expected 5 fields, got {len(row)}")
            try:
                t = float(row[0])
                x = float(row[1])
                y = float(row[2])
                pupil = float(row[3]) if row[3] != "" else None
                valid = {"0": False, "1": True}[row[4]]
            except (ValueError, KeyError) as exc:
                raise ValueError(f"{path}:{lineno}: malformed row: {exc}") from exc
            if t < 0:
                raise ValueError(f"{path}:{lineno}: negative timestamp {t}")
            if t <= prev_t:
                raise ValueError(f"{path}:{lineno}: timestamps not strictly increasing")
            prev_t = t
            samples.append(GazeSample(t, x, y, pupil, valid))
    return samples


def write_gaze_csv(path: str, samples: list[GazeSample]) -> None:
    lines = [",".join(GAZE_CSV_HEADER)]
    for s in samples:
        pupil = repr(s.pupil_mm) if s.pupil_mm is not None else ""
        lines.append(f"{s.t_ms!r},{s.x_px!r},{s.y_px!r},{pupil},{1 if s.valid else 0}")
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_fixation_csv(path: str) -> list[Fixation]:
    fixations: list[Fixation] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != FIXATION_CSV_HEADER:
            raise ValueError(f"{path}:1: bad fixation header {header}")
        for lineno, row in enumerate(reader, start=2):
            if len(row) != 4:
                raise ValueError(f"{path}:{lineno}: expected 4 fields, got {len(row)}")
            try:
                cx, cy, start, end = (float(v) for v in row)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: malformed row: {exc}") from exc
            if end < start:
                raise ValueError(f"{path}:{lineno}: end_ms before start_ms")
            fixations.append(Fixation(cx, cy, start, end))
    return fixations


def write_fixation_csv(path: str, fixations: list[Fixation]) -> None:
    lines = [",".join(FIXATION_CSV_HEADER)]
    for f in fixations:
        lines.append(f"{f.cx_px!r},{f.cy_px!r},{f.start_ms!r},{f.end_ms!r}")
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_pgm(path: str, values: np.ndarray) -> None:
    """8-bit binary PGM (P5, maxval 255) from values in [0, 1]."""
    v = np.asarray(values, dtype=np.float64)
    if v.min() < 0 or v.max() > 1:
        raise ValueError("PGM values must lie in [0, 1]")
    h, w = v.shape
    body = np.round(v * 255.0).astype(np.uint8).tobytes()
    atomic_write_bytes(path, f"P5\n{w} {h}\n255\n".encode() + body)


def read_pgm(path: str) -> np.ndarray:
    """Read binary P5 back to floats in [0, 1]."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if not raw.startswith(b"P5"):
        raise ValueError(f"{path}: not a binary PGM")
    fields: list[bytes] = []
    pos = 2
    while len(fields) < 3:
        while pos < len(raw) and raw[pos : pos + 1].isspace():
            pos += 1
        if raw[pos : pos + 1] == b"#":
            while pos < len(raw) and raw[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(raw) and not raw[pos : pos + 1].isspace():
            pos += 1
        fields.append(raw[start:pos])
    w, h, maxval = (int(f) for f in fields)
    if maxval != 255:
        raise ValueError(f"{path}: expected maxval 255, got {maxval}")
    pos += 1
    _check_body_length(path, len(raw) - pos, w * h)
    body = np.frombuffer(raw, dtype=np.uint8, offset=pos)
    return body.reshape(h, w).astype(np.float64) / 255.0


def write_float_map(path: str, values: np.ndarray) -> None:
    """Raw float64 sidecar for exact heatmap round-trips."""
    v = np.ascontiguousarray(values, dtype=np.float64)
    h, w = v.shape
    atomic_write_bytes(path, f"GFMAP {w} {h}\n".encode() + v.tobytes())


def read_float_map(path: str) -> np.ndarray:
    with open(path, "rb") as fh:
        header = fh.readline()
        tag, w, h = header.split()
        if tag != b"GFMAP":
            raise ValueError(f"{path}: not a float map")
        body = fh.read()
    w, h = int(w), int(h)
    _check_body_length(path, len(body), 8 * w * h)
    return np.frombuffer(body, dtype=np.float64).reshape(h, w).copy()


def _check_body_length(path: str, actual: int, expected: int) -> None:
    if actual != expected:
        raise ValueError(f"{path}: expected {expected} body bytes, got {actual}")
