import functools
import io
import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gazedet import gaze as gz
from gazedet.gaze import Fixation, GazeStream


def make_stream(points, t0=0.0, dt=10.0):
    return GazeStream([t0 + i * dt for i in range(len(points))],
                      [x for x, _ in points], [y for _, y in points])


def stream_of(rows):
    """A GazeStream from (t, x, y, pupil or None, valid) rows."""
    return GazeStream([r[0] for r in rows], [r[1] for r in rows], [r[2] for r in rows],
                      [math.nan if r[3] is None else r[3] for r in rows],
                      [r[4] for r in rows])


def assert_same_stream(got, expected):
    """Exact column equality; NaN equals NaN only in pupil_mm, where it means empty."""
    assert len(got) == len(expected)
    for name in ("t_ms", "x_px", "y_px", "valid"):
        assert np.array_equal(getattr(got, name), getattr(expected, name)), name
    assert np.array_equal(got.pupil_mm, expected.pupil_mm, equal_nan=True)


def two_cluster_stream(seed=0, c1=(50.0, 50.0), c2=(200.0, 120.0), noise=1.0):
    """Two 200 ms dwells joined by a 40 ms saccade sweep."""
    rng = np.random.default_rng(seed)
    pts = [(c1[0] + rng.normal(0, noise), c1[1] + rng.normal(0, noise)) for _ in range(21)]
    for k in range(4):
        f = (k + 1) / 5
        pts.append((c1[0] + f * (c2[0] - c1[0]), c1[1] + f * (c2[1] - c1[1])))
    pts += [(c2[0] + rng.normal(0, noise), c2[1] + rng.normal(0, noise)) for _ in range(21)]
    return make_stream(pts)


def idt_oracle(samples, dispersion, min_duration):
    """Brute-force windowing re-implementation; spans recomputed from scratch."""
    ts, xs, ys = samples.t_ms.tolist(), samples.x_px.tolist(), samples.y_px.tolist()
    out = []
    i = 0
    while i < len(ts):
        j = i
        while j + 1 < len(ts):
            wx, wy = xs[i : j + 2], ys[i : j + 2]
            if (max(wx) - min(wx)) + (max(wy) - min(wy)) > dispersion:
                break
            j += 1
        if ts[j] - ts[i] >= min_duration:
            out.append((
                sum(xs[i : j + 1]) / (j + 1 - i),
                sum(ys[i : j + 1]) / (j + 1 - i),
                ts[i],
                ts[j],
            ))
        i = j + 1
    return out


def heatmap_reference(fixations, width, height, sigma, weighting="duration"):
    """Per-pixel loop over fixations with the joint (non-separable) formula."""
    raw = np.zeros((height, width))
    for y in range(height):
        for x in range(width):
            raw[y, x] = sum(
                (f.duration_ms if weighting == "duration" else 1.0)
                * math.exp(-((x - f.cx_px) ** 2 + (y - f.cy_px) ** 2) / (2 * sigma * sigma))
                for f in fixations
            )
    peak = raw.max()
    return raw / peak if peak > 0 else raw


def assert_matches_reference(fixations, width, height, sigma, weighting="duration"):
    got = gz.render_heatmap(fixations, width, height, sigma, weighting=weighting).values
    ref = heatmap_reference(fixations, width, height, sigma, weighting)
    assert got.shape == (height, width)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(ref)
    if ref.max() > 0:
        assert got.max() == 1.0
    else:
        assert np.all(got == 0.0)


@st.composite
def fixation_sets(draw):
    width, height = draw(st.integers(1, 24)), draw(st.integers(1, 24))
    sigma = draw(st.floats(1.0, 12.0))
    fixes = []
    for i in range(draw(st.integers(0, 8))):
        # centres within 2 sigma of the grid keep every factor far from underflow
        cx = draw(st.floats(-2 * sigma, width - 1 + 2 * sigma))
        cy = draw(st.floats(-2 * sigma, height - 1 + 2 * sigma))
        start = float(i * 500)
        fixes.append(Fixation(cx, cy, start, start + draw(st.integers(0, 400))))
    return fixes, width, height, sigma, draw(st.sampled_from(["duration", "uniform"]))


class TestFilterGaze:
    def test_all_inside_unchanged(self):
        stream = make_stream([(10, 10), (20, 30)])
        assert_same_stream(gz.filter_gaze(stream, 512, 512), stream)

    def test_far_outside_dropped(self):
        stream = make_stream([(-500.0, 100.0)] * 5)
        assert len(gz.filter_gaze(stream, 512, 512, margin_px=0.0)) == 0

    def test_mixed_preserves_order(self):
        stream = stream_of([(i * 10.0, 5.0 + i, 5.0, None, i % 3 != 0) for i in range(10)])
        out = gz.filter_gaze(stream, 512, 512)
        assert len(out) == 6  # i in {0,3,6,9} invalid
        assert out.t_ms.tolist() == sorted(out.t_ms.tolist())

    def test_idempotent(self):
        stream = make_stream([(10, 10), (-40, 10), (600, 10)])
        once = gz.filter_gaze(stream, 512, 512, margin_px=5)
        assert_same_stream(gz.filter_gaze(once, 512, 512, margin_px=5), once)

    @pytest.mark.parametrize("margin", [math.nan, math.inf, -1.0])
    def test_bad_margin_rejected(self, margin):
        with pytest.raises(ValueError, match=f"margin_px .*{margin!r}"):
            gz.filter_gaze(make_stream([(10, 10)]), 512, 512, margin_px=margin)


class TestDetectFixations:
    def test_degenerate_cluster(self):
        stream = GazeStream([i * 300.0 / 29 for i in range(30)], [100.0] * 30, [100.0] * 30)
        fixes = gz.detect_fixations(stream, 25.0, 100.0)
        assert len(fixes) == 1
        f = fixes[0]
        assert (f.cx_px, f.cy_px) == (100.0, 100.0)
        assert np.isclose(f.duration_ms, 300.0)

    def test_empty_input(self):
        assert gz.detect_fixations(make_stream([]), 25.0, 100.0) == []

    def test_two_planted_clusters(self):
        fixes = gz.detect_fixations(two_cluster_stream(), 25.0, 100.0)
        assert len(fixes) == 2
        assert np.hypot(fixes[0].cx_px - 50, fixes[0].cy_px - 50) < 2
        assert np.hypot(fixes[1].cx_px - 200, fixes[1].cy_px - 120) < 2

    def test_unsorted_input_errors(self):
        stream = GazeStream([10.0, 5.0], [1, 1], [1, 1])
        with pytest.raises(ValueError, match="increasing in time at t=5.0"):
            gz.detect_fixations(stream, 25.0, 100.0)

    @pytest.mark.parametrize("dispersion", [math.nan, math.inf, 0.0, -1.0])
    def test_bad_dispersion_rejected(self, dispersion):
        with pytest.raises(ValueError, match=f"dispersion_px .*{dispersion!r}"):
            gz.detect_fixations(two_cluster_stream(), dispersion, 100.0)

    @pytest.mark.parametrize("min_duration", [math.nan, math.inf, 0.0, -5.0])
    def test_bad_min_duration_rejected(self, min_duration):
        with pytest.raises(ValueError, match=f"min_duration_ms .*{min_duration!r}"):
            gz.detect_fixations(two_cluster_stream(), 25.0, min_duration)

    def test_output_time_ordered_non_overlapping(self):
        fixes = gz.detect_fixations(two_cluster_stream(3), 25.0, 100.0)
        for a, b in zip(fixes, fixes[1:]):
            assert a.end_ms < b.start_ms

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_matches_brute_force_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(0, 200))
        xs = np.cumsum(rng.uniform(-15, 15, size=n)) + 100
        ys = np.cumsum(rng.uniform(-15, 15, size=n)) + 100
        stream = GazeStream([i * 10.0 for i in range(n)], xs, ys)
        got = gz.detect_fixations(stream, 30.0, 80.0)
        expected = idt_oracle(stream, 30.0, 80.0)
        assert len(got) == len(expected)
        for f, (cx, cy, s, e) in zip(got, expected):
            assert np.isclose(f.cx_px, cx) and np.isclose(f.cy_px, cy)
            assert f.start_ms == s and f.end_ms == e

    @given(st.integers(0, 2**31 - 1), st.floats(50, 500))
    @settings(max_examples=40, deadline=None)
    def test_min_duration_monotone(self, seed, min_dur):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 150))
        xs = np.cumsum(rng.uniform(-10, 10, size=n))
        ys = np.cumsum(rng.uniform(-10, 10, size=n))
        stream = GazeStream([i * 10.0 for i in range(n)], xs, ys)
        low = gz.detect_fixations(stream, 30.0, min_dur)
        high = gz.detect_fixations(stream, 30.0, min_dur * 2)
        assert len(high) <= len(low)


class TestRenderHeatmap:
    def test_empty_gives_zero_map(self):
        fmap = gz.render_heatmap([], 32, 32, sigma_px=5.0)
        assert np.all(fmap.values == 0.0)

    def test_single_fixation_peak(self):
        fmap = gz.render_heatmap([Fixation(32, 32, 0, 200)], 64, 64, sigma_px=5.0)
        assert fmap.values[32, 32] == 1.0
        assert np.unravel_index(fmap.values.argmax(), fmap.values.shape) == (32, 32)

    def test_two_distant_fixations_both_peak(self):
        sigma = 4.0
        fixes = [Fixation(10, 32, 0, 200), Fixation(10 + 6 * sigma, 32, 300, 500)]
        fmap = gz.render_heatmap(fixes, 64, 64, sigma_px=sigma)
        # direct double-Gaussian evaluation at both centers: equal by symmetry,
        # so each normalizes to 1 up to the cross-term e^{-18}
        raws = [
            sum(
                200.0 * np.exp(-((cx - f.cx_px) ** 2 + (32 - f.cy_px) ** 2) / (2 * sigma**2))
                for f in fixes
            )
            for cx in (10, 34)
        ]
        assert np.isclose(raws[0], raws[1])
        for cx in (10, 34):
            assert abs(fmap.values[32, cx] - 1.0) < 1e-6

    def test_values_match_direct_evaluation(self):
        rng = np.random.default_rng(11)
        fixes = [
            Fixation(float(rng.uniform(0, 64)), float(rng.uniform(0, 64)),
                     float(i * 400), float(i * 400 + rng.uniform(100, 300)))
            for i in range(5)
        ]
        sigma = 6.0
        fmap = gz.render_heatmap(fixes, 64, 64, sigma_px=sigma)
        raw_at = lambda x, y: sum(
            f.duration_ms * np.exp(-((x - f.cx_px) ** 2 + (y - f.cy_px) ** 2) / (2 * sigma**2))
            for f in fixes
        )
        raw_max = max(raw_at(x, y) for y in range(64) for x in range(64))
        for _ in range(100):
            x, y = int(rng.integers(64)), int(rng.integers(64))
            expected = raw_at(x, y) / raw_max
            assert abs(fmap.values[y, x] - expected) <= 1e-9 * max(1.0, abs(expected))

    def test_bad_dimensions_error(self):
        with pytest.raises(ValueError):
            gz.render_heatmap([], 0, 10, sigma_px=5.0)

    @pytest.mark.parametrize("sigma", [math.nan, math.inf, 0.0, -2.0])
    def test_bad_sigma_rejected(self, sigma):
        with pytest.raises(ValueError, match=f"sigma_px .*{sigma!r}"):
            gz.render_heatmap([Fixation(16, 16, 0, 100)], 32, 32, sigma_px=sigma)

    @pytest.mark.parametrize("fix", [
        Fixation(10, 10, 100.0, 100.0),  # zero duration
        Fixation(5000, 5000, 0.0, 100.0),  # far off the image
    ])
    def test_zero_total_weight_gives_zero_map(self, fix):
        fmap = gz.render_heatmap([fix], 64, 64, 3.0)
        assert np.all(np.isfinite(fmap.values))
        assert np.all(fmap.values == 0.0)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=100, deadline=None)
    def test_map_invariants(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(0, 6))
        fixes = [
            Fixation(float(rng.uniform(-10, 74)), float(rng.uniform(-10, 74)),
                     float(i * 500), float(i * 500 + rng.uniform(50, 400)))
            for i in range(n)
        ]
        fmap = gz.render_heatmap(fixes, 32, 32, sigma_px=float(rng.uniform(2, 20)))
        assert fmap.values.min() >= 0.0 and fmap.values.max() <= 1.0
        if fixes:
            assert fmap.values.max() == 1.0
        else:
            assert np.all(fmap.values == 0.0)

    def test_binarize(self):
        fmap = gz.render_heatmap([Fixation(16, 16, 0, 100)], 32, 32, sigma_px=4.0)
        hard = gz.binarize(fmap, 0.5)
        assert set(np.unique(hard.values)) <= {0.0, 1.0}
        assert hard.values[16, 16] == 1.0

    @pytest.mark.parametrize("threshold", [math.nan, -0.5, 1.5])
    def test_binarize_bad_threshold_rejected(self, threshold):
        fmap = gz.render_heatmap([Fixation(16, 16, 0, 100)], 32, 32, sigma_px=4.0)
        with pytest.raises(ValueError, match=f"threshold .*{threshold!r}"):
            gz.binarize(fmap, threshold)


class TestHeatmapMatchesReference:
    SPREAD = [
        Fixation(12.3, 7.9, 0.0, 180.0),
        Fixation(40.0, 30.5, 300.0, 420.0),
        Fixation(25.5, 20.0, 600.0, 950.0),
        Fixation(5.0, 35.0, 1000.0, 1100.0),
    ]

    @pytest.mark.parametrize("weighting", ["duration", "uniform"])
    def test_weightings_non_square(self, weighting):
        assert_matches_reference(self.SPREAD, 48, 40, 5.0, weighting)

    def test_off_image_and_corners(self):
        fixes = [
            Fixation(0.0, 0.0, 0.0, 150.0),
            Fixation(47.0, 39.0, 200.0, 260.0),
            Fixation(-6.0, 20.0, 300.0, 500.0),
            Fixation(30.0, 45.0, 600.0, 700.0),
            Fixation(5000.0, 5000.0, 800.0, 900.0),
        ]
        assert_matches_reference(fixes, 48, 40, 4.0)

    def test_single_fixation(self):
        assert_matches_reference([Fixation(17.25, 9.5, 0.0, 120.0)], 32, 24, 3.0)

    def test_empty(self):
        assert_matches_reference([], 16, 12, 3.0)

    def test_zero_duration_only(self):
        fixes = [Fixation(10.0, 10.0, 100.0, 100.0), Fixation(3.0, 20.0, 200.0, 200.0)]
        assert_matches_reference(fixes, 32, 24, 3.0)
        # uniform weighting ignores the durations, so the same input has a peak
        assert_matches_reference(fixes, 32, 24, 3.0, "uniform")

    @given(fixation_sets())
    @settings(max_examples=100, deadline=None)
    def test_random_fixation_sets(self, case):
        assert_matches_reference(*case)


class TestFileFormats:
    def test_gaze_csv_round_trip(self, tmp_path):
        path = str(tmp_path / "gaze.csv")
        stream = stream_of([(0.0, 1.5, 2.5, 3.25, True), (10.0, -4.0, 7.0, None, False)])
        gz.write_gaze_csv(path, stream)
        assert (tmp_path / "gaze.csv").read_text() == (
            "t_ms,x_px,y_px,pupil_mm,valid\n0.0,1.5,2.5,3.25,1\n10.0,-4.0,7.0,,0\n")
        assert_same_stream(gz.read_gaze_csv(path), stream)

    def test_gaze_csv_decreasing_time_cites_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t_ms,x_px,y_px,pupil_mm,valid\n10.0,1,1,,1\n5.0,1,1,,1\n")
        with pytest.raises(ValueError, match=":3:"):
            gz.read_gaze_csv(str(path))

    def test_fixation_csv_round_trip(self, tmp_path):
        path = str(tmp_path / "fix.csv")
        fixes = [Fixation(10.5, 20.25, 0.0, 150.0), Fixation(100.0, 50.0, 200.0, 400.0)]
        gz.write_fixation_csv(path, fixes)
        assert gz.read_fixation_csv(path) == fixes

    @pytest.mark.parametrize("field", range(4))
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_fixation_writer_refuses_non_finite(self, tmp_path, field, value):
        numbers = [10.5, 20.25, 0.0, 150.0]
        numbers[field] = value
        path = tmp_path / "fix.csv"
        name = gz.FIXATION_CSV_HEADER[field]
        with pytest.raises(ValueError, match=rf"fix\.csv:3: non-finite {name} '{value!r}'"):
            gz.write_fixation_csv(str(path), [Fixation(1.0, 2.0, 0.0, 50.0), Fixation(*numbers)])
        assert not path.exists()

    def test_fixation_writer_refuses_end_before_start(self, tmp_path):
        path = tmp_path / "wf.csv"
        with pytest.raises(ValueError, match=r"wf\.csv:3: end_ms before start_ms"):
            gz.write_fixation_csv(str(path), [Fixation(1.0, 2.0, 0.0, 50.0),
                                              Fixation(1.0, 2.0, 100.0, 99.5)])
        assert not path.exists() and not (tmp_path / "wf.csv.tmp").exists()

    @pytest.mark.parametrize("bad", [math.nan, -0.5, 1.5])
    def test_pgm_writer_refuses_values_outside_unit_range(self, tmp_path, bad):
        values = np.full((3, 4), 0.5)
        values[1, 2] = bad
        path = tmp_path / "map.pgm"
        with pytest.raises(ValueError, match=r"map\.pgm: values must lie in \[0, 1\]"):
            gz.write_pgm(str(path), values)
        assert not path.exists()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_float_map_writer_refuses_non_finite(self, tmp_path, bad):
        values = np.full((3, 4), 0.5)
        values[1, 2] = bad
        path = tmp_path / "map.gfm"
        with pytest.raises(ValueError, match=rf"map\.gfm: non-finite value {bad!r} at flat index 6"):
            gz.write_float_map(str(path), values)
        assert not path.exists()

    def test_float_map_reader_refuses_non_finite(self, tmp_path):
        path = tmp_path / "map.gfm"
        path.write_bytes(b"GFMAP 2 2\n" + struct.pack("<4d", 0.5, 1.0, math.nan, 0.0))
        with pytest.raises(ValueError, match=r"map\.gfm: non-finite value nan at flat index 2"):
            gz.read_float_map(str(path))

    def test_pgm_round_trip_quantized(self, tmp_path):
        path = str(tmp_path / "map.pgm")
        rng = np.random.default_rng(1)
        values = rng.uniform(0, 1, size=(8, 12))
        gz.write_pgm(path, values)
        back = gz.read_pgm(path)
        assert back.shape == (8, 12)
        assert np.max(np.abs(back - values)) <= 0.5 / 255 + 1e-12

    def test_float_map_exact_round_trip(self, tmp_path):
        path = str(tmp_path / "map.gfm")
        rng = np.random.default_rng(2)
        values = rng.uniform(0, 1, size=(6, 7))
        gz.write_float_map(path, values)
        assert np.array_equal(gz.read_float_map(path), values)

    def test_pgm_trailing_bytes_rejected(self, tmp_path):
        path = str(tmp_path / "map.pgm")
        gz.write_pgm(path, np.zeros((4, 5)))
        with open(path, "ab") as fh:
            fh.write(b"\x00\x00")
        with pytest.raises(ValueError, match=r"map\.pgm.*expected 20 body bytes, got 22"):
            gz.read_pgm(path)

    def test_pgm_truncated_body_rejected(self, tmp_path):
        path = tmp_path / "map.pgm"
        gz.write_pgm(str(path), np.zeros((4, 5)))
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(ValueError, match=r"map\.pgm.*expected 20 body bytes, got 17"):
            gz.read_pgm(str(path))

    def test_float_map_truncated_body_rejected(self, tmp_path):
        path = tmp_path / "map.gfm"
        gz.write_float_map(str(path), np.zeros((3, 2)))
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(ValueError, match=r"map\.gfm.*expected 48 body bytes, got 47"):
            gz.read_float_map(str(path))

    def test_float_map_trailing_bytes_rejected(self, tmp_path):
        path = str(tmp_path / "map.gfm")
        gz.write_float_map(path, np.zeros((3, 2)))
        with open(path, "ab") as fh:
            fh.write(b"\x00" * 8)
        with pytest.raises(ValueError, match=r"map\.gfm.*expected 48 body bytes, got 56"):
            gz.read_float_map(path)


# ---------------------------------------------------------------------------
# gaze CSV reader: error lines, grammar edges, and parity with csv.reader

GAZE_HEADER_LINE = "t_ms,x_px,y_px,pupil_mm,valid\n"


def write_text(tmp_path, text, name="gaze.csv"):
    path = tmp_path / name
    path.write_bytes(text.encode())
    return str(path)


def csv_module_reader(path):
    """The reader as it was with csv.reader, plus the finite-number rule,
    collecting (t, x, y, pupil or None, valid) rows into columns."""
    import csv

    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != gz.GAZE_CSV_HEADER:
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
            for name, text, value in zip(gz.GAZE_CSV_HEADER, row, (t, x, y, pupil)):
                if value is not None and not math.isfinite(value):
                    raise ValueError(f"{path}:{lineno}: non-finite {name} {text!r}")
            if t < 0:
                raise ValueError(f"{path}:{lineno}: negative timestamp {t}")
            if t <= prev_t:
                raise ValueError(f"{path}:{lineno}: timestamps not strictly increasing")
            prev_t = t
            rows.append((t, x, y, pupil, valid))
    return stream_of(rows)


def stream_bits(stream):
    """Bitwise identity of a stream: the dtype and bytes of each column."""
    return [(column.dtype.str, column.tobytes()) for column in (
        stream.t_ms, stream.x_px, stream.y_px, stream.pupil_mm, stream.valid)]


def read_outcome(reader, path):
    try:
        return "ok", stream_bits(reader(path))
    except ValueError as exc:
        return "error", str(exc)


CSV_FIELD_WORDS = ["0", "1", "2", "", "10.5", "-3", "nan", "inf", " 7", "1e3", "abc", "0.0"]


@st.composite
def gaze_csv_texts(draw):
    """Unquoted CSV text: mostly well-formed rows, some broken, mixed line ends."""
    header = draw(st.sampled_from([GAZE_HEADER_LINE.rstrip("\n")] * 6 + [
        "", "t_ms,x_px,y_px,pupil_mm", "t_ms,x_px,y_px,pupil_mm,valid,extra", "T_MS,x,y,p,v",
    ]))
    lines = [header]
    t = 0.0
    for _ in range(draw(st.integers(0, 12))):
        if draw(st.integers(0, 4)) == 0:
            lines.append(",".join(draw(st.lists(st.sampled_from(CSV_FIELD_WORDS),
                                                min_size=0, max_size=7))))
        else:
            t += draw(st.sampled_from([0.0, 4.0, 10.0]))
            pupil = draw(st.sampled_from(["", "3.5"]))
            lines.append(f"{t!r},{draw(st.floats(-600, 600))!r},1.0,{pupil},"
                         f"{draw(st.sampled_from(['0', '1']))}")
    ends = [draw(st.sampled_from(["\n", "\r\n", "\r"])) for _ in lines]
    if draw(st.booleans()):
        ends[-1] = ""  # no terminator after the last line
    return "".join(line + end for line, end in zip(lines, ends))


@st.composite
def gaze_blocks(draw):
    """1-4 body lines as the reader's ``readlines`` gives them: well-formed
    rows whose timestamps may stall or start below zero, half of them with
    one field swapped for a word, for nothing or for two fields."""
    lines = []
    t = draw(st.sampled_from([-4.0, -0.0, 0.0, 4.0]))
    for _ in range(draw(st.integers(1, 4))):
        t += draw(st.sampled_from([0.0, 4.0, 10.0, 10.0]))
        row = [repr(t), repr(draw(st.floats(-600, 600))), "1.0",
               draw(st.sampled_from(["", "3.5"])), draw(st.sampled_from("01"))]
        if draw(st.booleans()):
            row[(k := draw(st.integers(0, 4))):k + 1] = draw(st.sampled_from(
                [[word] for word in CSV_FIELD_WORDS] + [[], ["1", "1"]]))
        lines.append(",".join(row) + draw(st.sampled_from(["\n", "\r\n", "\r"])))
    if draw(st.booleans()):
        lines[-1] = lines[-1].rstrip("\r\n")  # no terminator after the last line
    return lines


@functools.cache
def multi_block_lines(n=5000):
    """Body lines of a recording long enough for several reader blocks:
    17-digit coordinates and pupils, some empty pupils, some invalid samples."""
    rng = np.random.default_rng(16)
    xs, ys, pupils = (rng.uniform(lo, hi, n).tolist() for lo, hi in ((0, 512), (0, 512), (2.5, 4.5)))
    return tuple(f"{k * 4.0!r},{xs[k]!r},{ys[k]!r},{'' if k % 7 == 3 else repr(pupils[k])},"
                 f"{int(k % 11 != 5)}" for k in range(n))


def block_starts(text):
    """Body indices of the first line of each reader block after the first."""
    starts, seen = [], 0
    with io.StringIO(text, newline="") as fh:
        fh.readline()
        while lines := fh.readlines(gz._BLOCK_HINT):
            seen += len(lines)
            starts.append(seen)
    return starts[:-1]


def _set_field(k, word):
    def fault(lines, i):
        row = lines[i].split(",")
        row[k] = word
        lines[i] = ",".join(row)
    return fault


def _shift_field(lines, i):
    """Move line i's last field to the front of line i + 1: 4 then 6 fields,
    with the block's total field count unchanged."""
    head, valid = lines[i].rsplit(",", 1)
    lines[i], lines[i + 1] = head, f"{valid},{lines[i + 1]}"


BLOCK_FAULTS = {
    "bad_float": _set_field(1, "12.5.1"),
    "valid_2": _set_field(4, "2"),
    "four_fields": lambda lines, i: lines.__setitem__(i, lines[i].rsplit(",", 1)[0]),
    "six_fields": lambda lines, i: lines.__setitem__(i, lines[i] + ",1"),
    "blank_line": lambda lines, i: lines.__setitem__(i, ""),
    "nan_t": _set_field(0, "nan"),
    "inf_y": _set_field(2, "inf"),
    "nan_pupil": _set_field(3, "nan"),
    "negative_t": _set_field(0, "-4.0"),
    "t_drop": lambda lines, i: _set_field(0, repr(float(lines[i - 1].split(",")[0]) - 1.0))(
        lines, i),
    "shifted_field": _shift_field,
}


class TestGazeCsvReader:
    @pytest.mark.parametrize("body, lineno, message", [
        ("0.0,1,2,,1\n10.0,1,2,3\n", 3, "expected 5 fields, got 4"),
        ("0.0,1,2,,1,0\n", 2, "expected 5 fields, got 6"),
        ("0.0,1,2,,1\n10.0,abc,2,,1\n", 3, "malformed row"),
        ("0.0,1,2,,2\n", 2, "malformed row"),
        ("-5.0,1,2,,1\n", 2, "negative timestamp -5.0"),
        ("0.0,1,2,,1\n\n10.0,1,2,,1\n", 3, "expected 5 fields, got 0"),
    ], ids=["four_fields", "six_fields", "non_numeric_x", "valid_2", "negative_t", "blank_line"])
    def test_bad_row_cites_line(self, tmp_path, body, lineno, message):
        path = write_text(tmp_path, GAZE_HEADER_LINE + body)
        with pytest.raises(ValueError, match=f":{lineno}: {message}"):
            gz.read_gaze_csv(path)

    def test_bad_header_cites_line_one(self, tmp_path):
        path = write_text(tmp_path, "t,x,y,p,v\n0.0,1,2,,1\n")
        with pytest.raises(ValueError, match=":1: bad gaze header"):
            gz.read_gaze_csv(path)

    def test_quoted_field_rejected(self, tmp_path):
        path = write_text(tmp_path, GAZE_HEADER_LINE + '0.0,"1.5",2,,1\n')
        with pytest.raises(ValueError, match=":2: malformed row"):
            gz.read_gaze_csv(path)

    def test_header_only_reads_empty(self, tmp_path):
        assert len(gz.read_gaze_csv(write_text(tmp_path, GAZE_HEADER_LINE))) == 0

    def test_crlf_reads_equal_to_lf(self, tmp_path):
        text = GAZE_HEADER_LINE + "0.0,1.5,2.5,3.25,1\n10.0,-4.0,7.0,,0\n"
        lf = gz.read_gaze_csv(write_text(tmp_path, text, "lf.csv"))
        crlf = gz.read_gaze_csv(write_text(tmp_path, text.replace("\n", "\r\n"), "crlf.csv"))
        assert_same_stream(crlf, lf)
        assert len(lf) == 2

    @given(st.lists(st.tuples(
        st.floats(allow_nan=False), st.floats(allow_nan=False),
        st.one_of(st.none(), st.floats(allow_nan=False)), st.booleans(),
    ), max_size=20), st.sets(st.floats(0, 1e12), max_size=20))
    @settings(max_examples=60, deadline=None)
    def test_write_read_round_trip(self, tmp_path_factory, rows, times):
        samples = [(t, *row) for t, row in zip(sorted(times), rows)]
        stream = stream_of(samples)
        path = tmp_path_factory.mktemp("rt") / "gaze.csv"
        if all(math.isfinite(v) for _, x, y, p, _ in samples for v in (x, y, p or 0.0)):
            gz.write_gaze_csv(str(path), stream)
            assert_same_stream(gz.read_gaze_csv(str(path)), stream)
        else:
            with pytest.raises(ValueError, match=r"gaze\.csv:\d+: non-finite"):
                gz.write_gaze_csv(str(path), stream)
            assert not path.exists()

    @given(st.lists(st.tuples(
        st.one_of(st.sampled_from([-1.0, -0.0, 0.0, 5.0, 10.0]), st.floats()),
        st.one_of(st.floats(-600, 600), st.floats()), st.floats(-600, 600),
        st.one_of(st.none(), st.floats()), st.booleans(),
    ), max_size=6))
    @settings(max_examples=300, deadline=None)
    def test_writer_refuses_what_reader_refuses(self, tmp_path_factory, rows):
        """On any stream, including unsorted, repeated or negative times and
        non-finite numbers, the writer raises the reader's error for the same
        text and leaves no file, or writes that text."""
        directory = tmp_path_factory.mktemp("wr")
        path = directory / "gaze.csv"
        text = GAZE_HEADER_LINE + "".join(
            f"{t!r},{x!r},{y!r},{'' if p is None or math.isnan(p) else repr(p)},{int(v)}\n"
            for t, x, y, p, v in rows)
        expected = read_outcome(gz.read_gaze_csv, write_text(directory, text))
        path.unlink()
        try:
            gz.write_gaze_csv(str(path), stream_of(rows))
        except ValueError as exc:
            assert expected == ("error", str(exc))
            assert list(directory.iterdir()) == []
        else:
            assert expected[0] == "ok" and path.read_text() == text

    @given(gaze_csv_texts())
    @settings(max_examples=150, deadline=None)
    def test_same_outcome_as_csv_module(self, tmp_path_factory, text):
        path = write_text(tmp_path_factory.mktemp("cmp"), text)
        assert read_outcome(gz.read_gaze_csv, path) == read_outcome(csv_module_reader, path)

    @given(gaze_blocks(), st.sampled_from([-math.inf, 0.0, 4.0]))
    @settings(max_examples=1000, deadline=None)
    def test_line_diagnosis_agrees_with_block_checks(self, lines, prev_t):
        """The line-by-line re-read finds an error exactly when the block
        checks refuse: a refused block always gets its `path:line` error."""
        error = gz._gaze_error("gaze.csv", lines, 2, prev_t)
        assert (error is None) == (gz._gaze_block(lines, prev_t) is not None)
        assert error is None or isinstance(error, ValueError)

    @pytest.mark.parametrize("field", range(4))
    @pytest.mark.parametrize("word", ["nan", "inf", "-inf", "NaN", "Infinity"])
    def test_non_finite_rejected(self, tmp_path, field, word):
        row = ["10.0", "1.5", "2.5", "3.25", "1"]
        row[field] = word
        path = write_text(tmp_path, GAZE_HEADER_LINE + "0.0,1,1,,1\n" + ",".join(row) + "\n")
        name = gz.GAZE_CSV_HEADER[field]
        with pytest.raises(ValueError, match=rf"gaze\.csv:3: non-finite {name} '{word}'"):
            gz.read_gaze_csv(path)

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    @pytest.mark.parametrize("boundary", [0, 1])
    @pytest.mark.parametrize("fault", [None, *BLOCK_FAULTS])
    def test_block_boundary_fault(self, tmp_path, fault, boundary, offset, end):
        """One fault next to a block boundary raises the per-line reference's
        message; without one the columns are bitwise the reference's."""
        lines = list(multi_block_lines())
        starts = block_starts(GAZE_HEADER_LINE.replace("\n", end) + end.join(lines) + end)
        assert len(starts) >= 2
        i = starts[boundary] + offset
        if fault is not None:
            BLOCK_FAULTS[fault](lines, i)
        path = write_text(tmp_path, GAZE_HEADER_LINE.replace("\n", end) + end.join(lines) + end)
        expected = read_outcome(csv_module_reader, path)
        assert read_outcome(gz.read_gaze_csv, path) == expected
        if fault is None:
            assert expected[0] == "ok" and len(expected[1][0][1]) == 8 * len(lines)
        else:
            assert expected[0] == "error" and f"gaze.csv:{i + 2}: " in expected[1]

    def test_memory_peak_near_the_columns(self, tmp_path):
        """A 60k-sample read peaks below 3x the bytes of the columns it returns;
        parsing the whole file at once peaks near 18x."""
        rng = np.random.default_rng(7)
        n = 60_000
        pupil = rng.uniform(2.5, 4.5, n)
        pupil[::9] = math.nan
        path = str(tmp_path / "gaze.csv")
        gz.write_gaze_csv(path, GazeStream(np.arange(n) * 1.0, rng.uniform(0, 512, n),
                                           rng.uniform(0, 512, n), pupil, rng.random(n) > 0.05))
        tracemalloc.start()
        try:
            stream = gz.read_gaze_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        columns = (stream.t_ms, stream.x_px, stream.y_px, stream.pupil_mm, stream.valid)
        assert len(stream) == n
        assert peak < 3 * sum(c.nbytes for c in columns)


FIXATION_HEADER_LINE = "cx_px,cy_px,start_ms,end_ms\n"


class TestFixationCsvReader:
    """fixations.csv follows the gaze.csv grammar, and its numbers are finite."""

    def read(self, tmp_path, body, header=FIXATION_HEADER_LINE):
        return gz.read_fixation_csv(write_text(tmp_path, header + body, "fixations.csv"))

    def test_quoted_field_rejected(self, tmp_path):
        with pytest.raises(ValueError, match=r"fixations\.csv:2: malformed row"):
            self.read(tmp_path, '"10.5",20,0,150\n')

    def test_crlf_reads_equal_to_lf(self, tmp_path):
        body = "10.5,20.25,0.0,150.0\n-3,7,200,400\n"
        lf = self.read(tmp_path, body)
        crlf = gz.read_fixation_csv(write_text(
            tmp_path, (FIXATION_HEADER_LINE + body).replace("\n", "\r\n"), "crlf.csv"))
        assert crlf == lf == [Fixation(10.5, 20.25, 0.0, 150.0), Fixation(-3.0, 7.0, 200.0, 400.0)]

    def test_blank_line_has_no_fields(self, tmp_path):
        with pytest.raises(ValueError, match=":3: expected 4 fields, got 0"):
            self.read(tmp_path, "1,2,0,100\n\n3,4,100,200\n")

    def test_wrong_field_count_cites_line(self, tmp_path):
        with pytest.raises(ValueError, match=":2: expected 4 fields, got 5"):
            self.read(tmp_path, "1,2,0,100,7\n")

    def test_bad_header_cites_line_one(self, tmp_path):
        with pytest.raises(ValueError, match=":1: bad fixation header"):
            self.read(tmp_path, "1,2,0,100\n", header="cx,cy,start,end\n")

    @pytest.mark.parametrize("field", range(4))
    @pytest.mark.parametrize("word", ["nan", "inf", "-inf", "NaN", "Infinity"])
    def test_non_finite_rejected(self, tmp_path, field, word):
        row = ["1", "2", "0", "100"]
        row[field] = word
        name = gz.FIXATION_CSV_HEADER[field]
        with pytest.raises(ValueError, match=rf"fixations\.csv:3: non-finite {name} '{word}'"):
            self.read(tmp_path, "5,5,0,50\n" + ",".join(row) + "\n")


# ---------------------------------------------------------------------------
# I-DT: bitwise equality with the builtin min()/max() formulation


def idt_builtin_minmax(samples, dispersion_px, min_duration_ms):
    """The I-DT loop written with builtin min()/max() and generator means,
    over one Python float per sample read from the columns."""
    ts = [float(t) for t in samples.t_ms]
    xs = [float(x) for x in samples.x_px]
    ys = [float(y) for y in samples.y_px]
    fixations = []
    n = len(ts)
    i = 0
    while i < n:
        min_x = max_x = xs[i]
        min_y = max_y = ys[i]
        j = i
        while j + 1 < n:
            nmin_x, nmax_x = min(min_x, xs[j + 1]), max(max_x, xs[j + 1])
            nmin_y, nmax_y = min(min_y, ys[j + 1]), max(max_y, ys[j + 1])
            if (nmax_x - nmin_x) + (nmax_y - nmin_y) > dispersion_px:
                break
            min_x, max_x, min_y, max_y = nmin_x, nmax_x, nmin_y, nmax_y
            j += 1
        k = j + 1 - i
        if ts[j] - ts[i] >= min_duration_ms:
            fixations.append(Fixation(
                cx_px=sum(x for x in xs[i : j + 1]) / k,
                cy_px=sum(y for y in ys[i : j + 1]) / k,
                start_ms=ts[i],
                end_ms=ts[j],
                n_samples=k,
            ))
        i = j + 1
    return fixations


def fixation_bits(fixations):
    return [(struct.pack("<4d", f.cx_px, f.cy_px, f.start_ms, f.end_ms), f.n_samples)
            for f in fixations]


# Grid coordinates make spans land exactly on an integer dispersion and
# repeat points; jittered ones make the window means round, so a change in
# summation order shows; NaN reaches the detector when no image size filters it.
GRID_COORD = st.integers(0, 12).map(float)
JITTER_COORD = st.builds(lambda k, f: k + f, st.integers(0, 12), st.floats(0.0, 1.0))
IDT_COORD = st.one_of(GRID_COORD, GRID_COORD, JITTER_COORD, JITTER_COORD,
                      st.floats(-40.0, 40.0), st.just(-0.0), st.just(math.nan))


@st.composite
def idt_streams(draw):
    points = []
    for x, y, repeat in draw(st.lists(st.tuples(IDT_COORD, IDT_COORD, st.integers(1, 3)),
                                      max_size=60)):
        points += [(x, y)] * repeat
    steps = draw(st.lists(st.sampled_from([1.0, 2.5, 10.0]), min_size=len(points),
                          max_size=len(points)))
    t = 0.0
    times = []
    for dt in steps:
        times.append(t)
        t += dt
    return GazeStream(times, [x for x, _ in points], [y for _, y in points])


class TestIdtBitwise:
    @given(idt_streams(), st.sampled_from([1.0, 3.0, 5.0, 7.5, 12.0]),
           st.sampled_from([2.5, 10.0, 20.0, 30.0]))
    @settings(max_examples=300, deadline=None)
    def test_matches_builtin_minmax_loop(self, stream, dispersion, min_duration):
        got = gz.detect_fixations(stream, dispersion, min_duration)
        assert fixation_bits(got) == fixation_bits(
            idt_builtin_minmax(stream, dispersion, min_duration))
        if not (np.isnan(stream.x_px).any() or np.isnan(stream.y_px).any()):
            assert got == idt_builtin_minmax(stream, dispersion, min_duration)

    def test_span_exactly_on_threshold_stays_in_window(self):
        stream = make_stream([(0.0, 0.0), (3.0, 2.0), (0.0, 0.0), (3.0, 2.1)])
        fixes = gz.detect_fixations(stream, 5.0, 20.0)
        assert [f.n_samples for f in fixes] == [3]
        assert fixation_bits(fixes) == fixation_bits(idt_builtin_minmax(stream, 5.0, 20.0))

    def test_nan_timestamp_passes_the_order_check(self):
        """As sample by sample: a NaN timestamp compares false both ways."""
        stream = GazeStream([0.0, math.nan, 5.0, 20.0, 30.0], [1.0] * 5, [1.0] * 5)
        fixes = gz.detect_fixations(stream, 5.0, 10.0)
        assert fixation_bits(fixes) == fixation_bits(idt_builtin_minmax(stream, 5.0, 10.0))

    def test_nan_coordinates_from_csv(self, tmp_path):
        rows = "".join(f"{i * 10.0},{x},{y},,1\n" for i, (x, y) in enumerate(
            [(5, 5), (6, 5), ("nan", 5), (5, 6), (5, 5), (90, 90), ("nan", "nan"), (91, 90),
             (90, 91)]))
        with pytest.raises(ValueError, match=r":4: non-finite x_px 'nan'"):
            gz.read_gaze_csv(write_text(tmp_path, GAZE_HEADER_LINE + rows))


class TestMapFileHeaders:
    def test_float_map_short_header(self, tmp_path):
        path = tmp_path / "map.gfm"
        path.write_bytes(b"GFMAP 3\n" + b"\x00" * 24)
        with pytest.raises(ValueError, match=r"map\.gfm: bad float map header b'GFMAP 3\\n'"):
            gz.read_float_map(str(path))

    def test_float_map_wrong_tag(self, tmp_path):
        path = tmp_path / "map.gfm"
        path.write_bytes(b"P5\n1 1\n255\n\x00")
        with pytest.raises(ValueError, match=r"map\.gfm: not a float map"):
            gz.read_float_map(str(path))

    def test_pgm_non_numeric_size(self, tmp_path):
        path = tmp_path / "map.pgm"
        path.write_bytes(b"P5\n4 x\n255\n" + b"\x00" * 16)
        with pytest.raises(ValueError, match=r"map\.pgm: bad PGM header field b'x'"):
            gz.read_pgm(str(path))

    @pytest.mark.parametrize("raw", [b"P5\n4 4", b"P5\n4 4\n255", b"P5\n4 # size\n"])
    def test_pgm_cut_off_in_header(self, tmp_path, raw):
        path = tmp_path / "map.pgm"
        path.write_bytes(raw)
        with pytest.raises(ValueError, match=r"map\.pgm: PGM header cut off"):
            gz.read_pgm(str(path))

    def test_writers_produce_header_then_body_bytes(self, tmp_path):
        values = np.random.default_rng(3).uniform(0, 1, size=(5, 7))
        gz.write_float_map(str(tmp_path / "m.gfm"), values)
        gz.write_pgm(str(tmp_path / "m.pgm"), values)
        assert (tmp_path / "m.gfm").read_bytes() == b"GFMAP 7 5\n" + values.tobytes()
        quantized = np.round(values * 255.0).astype(np.uint8).tobytes()
        assert (tmp_path / "m.pgm").read_bytes() == b"P5\n7 5\n255\n" + quantized
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.gfm", "m.pgm"]

    def test_chunked_atomic_write(self, tmp_path):
        from gazedet.fileio import atomic_write_bytes

        path = str(tmp_path / "out.bin")
        atomic_write_bytes(path, b"head\n", np.arange(3, dtype=np.uint8), memoryview(b"!"))
        assert (tmp_path / "out.bin").read_bytes() == b"head\n\x00\x01\x02!"
        assert not (tmp_path / "out.bin.tmp").exists()
