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

import math
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .fileio import atomic_write_bytes, atomic_write_text, refuse_non_finite

DEFAULT_DISPERSION_PX = 25.0  # at 512-px image width
DEFAULT_MIN_DURATION_MS = 100.0
DEFAULT_SIGMA_PX = 25.0  # at 512-px image width
REFERENCE_WIDTH_PX = 512.0

GAZE_CSV_HEADER = ["t_ms", "x_px", "y_px", "pupil_mm", "valid"]
FIXATION_CSV_HEADER = ["cx_px", "cy_px", "start_ms", "end_ms"]


@dataclass(eq=False)
class GazeStream:
    """A gaze recording as columns, one entry per tracker sample in time order.

    ``t_ms``, ``x_px``, ``y_px`` and ``pupil_mm`` are float64 arrays, with
    ``pupil_mm`` NaN where a sample has no pupil reading; ``valid`` is a bool
    array. Omitted, ``pupil_mm`` is all NaN and ``valid`` all True.
    """

    t_ms: np.ndarray
    x_px: np.ndarray
    y_px: np.ndarray
    pupil_mm: np.ndarray | None = None
    valid: np.ndarray | None = None

    def __post_init__(self):
        n = len(self.t_ms)
        if self.pupil_mm is None:
            self.pupil_mm = np.full(n, np.nan)
        if self.valid is None:
            self.valid = np.ones(n, dtype=bool)
        for name in ("t_ms", "x_px", "y_px", "pupil_mm", "valid"):
            column = np.asarray(getattr(self, name), dtype=bool if name == "valid" else np.float64)
            if column.shape != (n,):
                raise ValueError(f"gaze column {name} has shape {column.shape}, expected ({n},)")
            setattr(self, name, column)

    def __len__(self) -> int:
        return len(self.t_ms)


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

    values: np.ndarray  # (height, width) float64


def scaled_default(value_at_512: float, image_width: int) -> float:
    """Scale a 512-px-reference parameter to the actual image width."""
    return value_at_512 * image_width / REFERENCE_WIDTH_PX


def filter_gaze(
    samples: GazeStream, width: int, height: int, margin_px: float = 0.0
) -> GazeStream:
    """Drop invalid samples and samples outside the image plus margin.

    Order is preserved; the result may be empty. Idempotent.
    """
    if not (0.0 <= margin_px < math.inf):
        raise ValueError(f"margin_px must be finite and >= 0, got {margin_px!r}")
    x, y = samples.x_px, samples.y_px
    keep = (samples.valid & (-margin_px <= x) & (x <= width + margin_px)
            & (-margin_px <= y) & (y <= height + margin_px))
    return GazeStream(samples.t_ms[keep], x[keep], y[keep], samples.pupil_mm[keep],
                      samples.valid[keep])


def detect_fixations(
    samples: GazeStream,
    dispersion_px: float = DEFAULT_DISPERSION_PX,
    min_duration_ms: float = DEFAULT_MIN_DURATION_MS,
) -> list[Fixation]:
    """I-DT fixation detection over a time-sorted sample stream."""
    if not (0.0 < dispersion_px < math.inf):
        raise ValueError(f"dispersion_px must be finite and positive, got {dispersion_px!r}")
    if not (0.0 < min_duration_ms < math.inf):
        raise ValueError(f"min_duration_ms must be finite and positive, got {min_duration_ms!r}")
    ts = samples.t_ms.tolist()
    # `<=`, not `~(>)`: a NaN timestamp passes, as it does sample by sample
    back = np.flatnonzero(samples.t_ms[1:] <= samples.t_ms[:-1])
    if len(back):
        raise ValueError(f"gaze samples not strictly increasing in time at t={ts[back[0] + 1]}")
    xs = samples.x_px.tolist()
    ys = samples.y_px.tolist()

    # `x if x < m else m` is min(m, x) exactly, NaN and signed zeros included,
    # without the builtin call; likewise for max.
    fixations: list[Fixation] = []
    n = len(xs)
    i = 0
    while i < n:
        min_x = max_x = xs[i]
        min_y = max_y = ys[i]
        j = i
        while j + 1 < n:
            x = xs[j + 1]
            y = ys[j + 1]
            nmin_x = x if x < min_x else min_x
            nmax_x = x if x > max_x else max_x
            nmin_y = y if y < min_y else min_y
            nmax_y = y if y > max_y else max_y
            if (nmax_x - nmin_x) + (nmax_y - nmin_y) > dispersion_px:
                break
            min_x, max_x, min_y, max_y = nmin_x, nmax_x, nmin_y, nmax_y
            j += 1
        start_ms = ts[i]
        end_ms = ts[j]
        if end_ms - start_ms >= min_duration_ms:
            k = j + 1 - i
            fixations.append(Fixation(sum(xs[i : j + 1]) / k, sum(ys[i : j + 1]) / k,
                                      start_ms, end_ms, k))
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
    if not (0.0 < sigma_px < math.inf):
        raise ValueError(f"sigma_px must be finite and positive, got {sigma_px!r}")
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
    return FixationMap(grid)


def binarize(fmap: FixationMap, threshold: float) -> FixationMap:
    """Hard mask variant of a heatmap: 1 where value >= threshold."""
    if not (0.0 <= threshold <= 1.0):
        raise ValueError(f"threshold must lie in [0, 1], got {threshold!r}")
    return FixationMap((fmap.values >= threshold).astype(np.float64))


# ---------------------------------------------------------------------------
# file formats


def _csv_fields(line: str) -> list[str]:
    """Fields of one line without its terminator; a blank line has none."""
    line = line.rstrip("\r\n")
    return line.split(",") if line else []


@contextmanager
def _csv_body(path: str, header: list[str], kind: str):
    """Check the header of a gaze-format CSV file; yield the file at line 2.

    Both gaze files share one grammar (README "Data formats"): comma-separated
    lines ending in LF, CRLF or CR, no quoting. `_row` is the rule for one body
    line, which readers and writers share."""
    with open(path, newline="") as fh:
        first = fh.readline()
        got = _csv_fields(first) if first else None
        if got != header:
            raise ValueError(f"{path}:1: bad {kind} header {got}")
        yield fh


def _row(path: str, lineno: int, line: str, header: list[str]) -> list[float]:
    """The numbers of one body line (an empty pupil_mm is NaN, valid 0.0 or 1.0),
    else the `path:lineno` ValueError for, in this order, its field count, its
    first field that is no number (or a valid not 0 or 1), its first non-finite."""
    row = _csv_fields(line)
    if len(row) != len(header):
        raise ValueError(f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}")
    values = []
    for name, text in zip(header, row):
        if name == "valid" and text not in ("0", "1"):
            raise ValueError(f"{path}:{lineno}: malformed row: {text!r}")
        try:
            values.append(float(text or "nan") if name == "pupil_mm" else float(text))
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: malformed row: {exc}") from exc
    for name, text, value in zip(header, row, values):
        if text and not math.isfinite(value):
            raise ValueError(f"{path}:{lineno}: non-finite {name} {text!r}")
    return values


# Characters per `readlines` block of gaze.csv: about 1k lines of 17-digit
# samples. Parsing a block at once is what makes the reader fast; parsing the
# whole file at once would hold every line's strings in memory together.
_BLOCK_HINT = 64 * 1024


def _gaze_block(lines: list[str], prev_t: float):
    """The five columns of a block of gaze lines, or None if any line is bad.

    One split of the joined block and one ``map(float, ...)`` per column
    apply the same grammar and checks as `_gaze_error`, for the whole block."""
    rows = [line.rstrip("\r\n") for line in lines]
    n = len(rows)
    if list(map(str.count, rows, repeat(",", n))).count(4) != n:
        return None
    fields = ",".join(rows).split(",")
    pupil_s = fields[3::5]
    valid_s = fields[4::5]
    if valid_s.count("0") + valid_s.count("1") != n:
        return None
    n_empty = pupil_s.count("")
    try:
        t, x, y, pupil = (np.fromiter(map(float, column), np.float64, n) for column in (
            fields[0::5], fields[1::5], fields[2::5], [p or "nan" for p in pupil_s]))
    except ValueError:
        return None
    # an empty pupil reads as NaN; any further non-finite pupil is in the text
    if not (np.isfinite(t).all() and np.isfinite(x).all() and np.isfinite(y).all()
            and n - np.count_nonzero(np.isfinite(pupil)) == n_empty
            and prev_t < t[0] and t[0] >= 0 and (t[1:] > t[:-1]).all()):
        return None
    valid = np.frombuffer("".join(valid_s).encode(), dtype=np.uint8) == ord("1")
    return t, x, y, pupil, valid


def _gaze_error(path: str, lines: list[str], lineno: int, prev_t: float) -> ValueError | None:
    """The `path:line` error of the first bad line of a block of gaze lines,
    read line by line, or None if every line is good. ``lineno`` is the
    number of the block's first line, ``prev_t`` the timestamp before it."""
    for lineno, line in enumerate(lines, start=lineno):
        try:
            t = _row(path, lineno, line, GAZE_CSV_HEADER)[0]
        except ValueError as exc:
            return exc
        if t < 0:
            return ValueError(f"{path}:{lineno}: negative timestamp {t}")
        if t <= prev_t:
            return ValueError(f"{path}:{lineno}: timestamps not strictly increasing")
        prev_t = t
    return None


def read_gaze_csv(path: str) -> GazeStream:
    """Parse `t_ms,x_px,y_px,pupil_mm,valid`: finite numbers, pupil may be empty
    (NaN in the stream), valid in {0,1}, t_ms >= 0 and strictly increasing
    (README "Data formats"). Any other line raises ValueError naming `path:line`.

    The file is parsed block by block; a block that fails the block checks is
    read again line by line only to name its first bad line."""
    blocks = []
    prev_t = -math.inf
    lineno = 2
    with _csv_body(path, GAZE_CSV_HEADER, "gaze") as fh:
        while lines := fh.readlines(_BLOCK_HINT):
            block = _gaze_block(lines, prev_t)
            if block is None:
                raise _gaze_error(path, lines, lineno, prev_t)
            blocks.append(block)
            prev_t = block[0][-1]
            lineno += len(lines)
    if not blocks:
        return GazeStream([], [], [])
    return GazeStream(*(np.concatenate(column) for column in zip(*blocks)))


def write_gaze_csv(path: str, samples: GazeStream) -> None:
    """Write nothing if `read_gaze_csv` would refuse a line; raise its error.

    A NaN pupil is written as an empty field."""
    rows = zip(samples.t_ms.tolist(), samples.x_px.tolist(), samples.y_px.tolist(),
               samples.pupil_mm.tolist(), samples.valid.tolist())
    lines = [f"{t!r},{x!r},{y!r},{'' if math.isnan(pupil) else repr(pupil)},{1 if valid else 0}"
             for t, x, y, pupil, valid in rows]
    if lines and _gaze_block(lines, -math.inf) is None:
        raise _gaze_error(path, lines, 2, -math.inf)
    atomic_write_text(path, "\n".join([",".join(GAZE_CSV_HEADER), *lines]) + "\n")


def _fixation(path: str, lineno: int, line: str) -> Fixation:
    """The fixation of one body line of fixations.csv: `_row`, then end_ms >= start_ms."""
    cx, cy, start, end = _row(path, lineno, line, FIXATION_CSV_HEADER)
    if end < start:
        raise ValueError(f"{path}:{lineno}: end_ms before start_ms")
    return Fixation(cx, cy, start, end)


def read_fixation_csv(path: str) -> list[Fixation]:
    """Parse `cx_px,cy_px,start_ms,end_ms`: finite numbers, end_ms >= start_ms.

    Fixations off the image are kept; `render_heatmap` defines how they count."""
    with _csv_body(path, FIXATION_CSV_HEADER, "fixation") as fh:
        return [_fixation(path, lineno, line) for lineno, line in enumerate(fh, start=2)]


def write_fixation_csv(path: str, fixations: list[Fixation]) -> None:
    """Write nothing if `read_fixation_csv` would refuse a line; raise its error."""
    lines = [f"{f.cx_px!r},{f.cy_px!r},{f.start_ms!r},{f.end_ms!r}" for f in fixations]
    for lineno, line in enumerate(lines, start=2):
        _fixation(path, lineno, line)
    atomic_write_text(path, "\n".join([",".join(FIXATION_CSV_HEADER), *lines]) + "\n")


def write_pgm(path: str, values: np.ndarray) -> None:
    """8-bit binary PGM (P5, maxval 255) from values in [0, 1]."""
    v = np.asarray(values, dtype=np.float64)
    if not (0.0 <= v.min() <= v.max() <= 1.0):
        raise ValueError(f"{path}: values must lie in [0, 1], "
                         f"got min {float(v.min())!r} and max {float(v.max())!r}")
    h, w = v.shape
    body = np.round(v * 255.0).astype(np.uint8)
    atomic_write_bytes(path, f"P5\n{w} {h}\n255\n".encode(), body)


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
        if pos == len(raw):
            raise ValueError(f"{path}: PGM header cut off: {raw[:pos]!r}")
        if not raw[start:pos].isdigit():
            raise ValueError(f"{path}: bad PGM header field {raw[start:pos]!r}")
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
    refuse_non_finite(v, path)
    h, w = v.shape
    atomic_write_bytes(path, f"GFMAP {w} {h}\n".encode(), v)


def read_float_map(path: str) -> np.ndarray:
    with open(path, "rb") as fh:
        header = fh.readline()
        body = fh.read()
    fields = header.split()
    if not fields or fields[0] != b"GFMAP":
        raise ValueError(f"{path}: not a float map")
    if len(fields) != 3 or not (fields[1].isdigit() and fields[2].isdigit()):
        raise ValueError(f"{path}: bad float map header {header!r}")
    w, h = int(fields[1]), int(fields[2])
    _check_body_length(path, len(body), 8 * w * h)
    values = np.frombuffer(body, dtype=np.float64).reshape(h, w).copy()
    refuse_non_finite(values, path)
    return values


def _check_body_length(path: str, actual: int, expected: int) -> None:
    if actual != expected:
        raise ValueError(f"{path}: expected {expected} body bytes, got {actual}")
