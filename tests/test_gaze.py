import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gazedet import gaze as gz
from gazedet.gaze import Fixation, GazeSample


def make_stream(points, t0=0.0, dt=10.0):
    return [GazeSample(t0 + i * dt, x, y) for i, (x, y) in enumerate(points)]


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
    out = []
    i = 0
    while i < len(samples):
        j = i
        while j + 1 < len(samples):
            win = samples[i : j + 2]
            xs = [s.x_px for s in win]
            ys = [s.y_px for s in win]
            if (max(xs) - min(xs)) + (max(ys) - min(ys)) > dispersion:
                break
            j += 1
        win = samples[i : j + 1]
        if win[-1].t_ms - win[0].t_ms >= min_duration:
            out.append((
                sum(s.x_px for s in win) / len(win),
                sum(s.y_px for s in win) / len(win),
                win[0].t_ms,
                win[-1].t_ms,
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
        assert gz.filter_gaze(stream, 512, 512) == stream

    def test_far_outside_dropped(self):
        stream = [GazeSample(i * 10.0, -500.0, 100.0) for i in range(5)]
        assert gz.filter_gaze(stream, 512, 512, margin_px=0.0) == []

    def test_mixed_preserves_order(self):
        stream = []
        for i in range(10):
            stream.append(GazeSample(i * 10.0, 5.0 + i, 5.0, valid=i % 3 != 0))
        out = gz.filter_gaze(stream, 512, 512)
        assert len(out) == 6  # i in {0,3,6,9} invalid
        assert [s.t_ms for s in out] == sorted(s.t_ms for s in out)

    def test_idempotent(self):
        stream = make_stream([(10, 10), (-40, 10), (600, 10)])
        once = gz.filter_gaze(stream, 512, 512, margin_px=5)
        assert gz.filter_gaze(once, 512, 512, margin_px=5) == once


class TestDetectFixations:
    def test_degenerate_cluster(self):
        stream = [GazeSample(i * 300.0 / 29, 100.0, 100.0) for i in range(30)]
        fixes = gz.detect_fixations(stream, 25.0, 100.0)
        assert len(fixes) == 1
        f = fixes[0]
        assert (f.cx_px, f.cy_px) == (100.0, 100.0)
        assert np.isclose(f.duration_ms, 300.0)

    def test_empty_input(self):
        assert gz.detect_fixations([], 25.0, 100.0) == []

    def test_two_planted_clusters(self):
        fixes = gz.detect_fixations(two_cluster_stream(), 25.0, 100.0)
        assert len(fixes) == 2
        assert np.hypot(fixes[0].cx_px - 50, fixes[0].cy_px - 50) < 2
        assert np.hypot(fixes[1].cx_px - 200, fixes[1].cy_px - 120) < 2

    def test_unsorted_input_errors(self):
        stream = [GazeSample(10.0, 1, 1), GazeSample(5.0, 1, 1)]
        with pytest.raises(ValueError, match="increasing"):
            gz.detect_fixations(stream, 25.0, 100.0)

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
        stream = [GazeSample(i * 10.0, float(x), float(y)) for i, (x, y) in enumerate(zip(xs, ys))]
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
        stream = [GazeSample(i * 10.0, float(x), float(y)) for i, (x, y) in enumerate(zip(xs, ys))]
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
        stream = [
            GazeSample(0.0, 1.5, 2.5, 3.25, True),
            GazeSample(10.0, -4.0, 7.0, None, False),
        ]
        gz.write_gaze_csv(path, stream)
        assert gz.read_gaze_csv(path) == stream

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
    """The reader as it was with csv.reader, kept to pin messages and results."""
    import csv

    samples = []
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
            if t < 0:
                raise ValueError(f"{path}:{lineno}: negative timestamp {t}")
            if t <= prev_t:
                raise ValueError(f"{path}:{lineno}: timestamps not strictly increasing")
            prev_t = t
            samples.append(GazeSample(t, x, y, pupil, valid))
    return samples


def sample_bits(samples):
    """Bitwise identity of a sample list; NaN fields compare equal to themselves."""
    return [
        (struct.pack("<3d", s.t_ms, s.x_px, s.y_px),
         None if s.pupil_mm is None else struct.pack("<d", s.pupil_mm), s.valid)
        for s in samples
    ]


def read_outcome(reader, path):
    try:
        return "ok", sample_bits(reader(path))
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
        assert gz.read_gaze_csv(write_text(tmp_path, GAZE_HEADER_LINE)) == []

    def test_crlf_reads_equal_to_lf(self, tmp_path):
        text = GAZE_HEADER_LINE + "0.0,1.5,2.5,3.25,1\n10.0,-4.0,7.0,,0\n"
        lf = gz.read_gaze_csv(write_text(tmp_path, text, "lf.csv"))
        crlf = gz.read_gaze_csv(write_text(tmp_path, text.replace("\n", "\r\n"), "crlf.csv"))
        assert crlf == lf
        assert len(lf) == 2

    @given(st.lists(st.tuples(
        st.floats(allow_nan=False), st.floats(allow_nan=False),
        st.one_of(st.none(), st.floats(allow_nan=False)), st.booleans(),
    ), max_size=20), st.sets(st.floats(0, 1e12), max_size=20))
    @settings(max_examples=60, deadline=None)
    def test_write_read_round_trip(self, tmp_path_factory, rows, times):
        stream = [GazeSample(t, x, y, p, v) for t, (x, y, p, v) in zip(sorted(times), rows)]
        path = str(tmp_path_factory.mktemp("rt") / "gaze.csv")
        gz.write_gaze_csv(path, stream)
        assert gz.read_gaze_csv(path) == stream

    @given(gaze_csv_texts())
    @settings(max_examples=150, deadline=None)
    def test_same_outcome_as_csv_module(self, tmp_path_factory, text):
        path = write_text(tmp_path_factory.mktemp("cmp"), text)
        assert read_outcome(gz.read_gaze_csv, path) == read_outcome(csv_module_reader, path)


# ---------------------------------------------------------------------------
# I-DT: bitwise equality with the builtin min()/max() formulation


def idt_builtin_minmax(samples, dispersion_px, min_duration_ms):
    """The I-DT loop written with builtin min()/max() and generator means."""
    fixations = []
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
            fixations.append(Fixation(
                cx_px=sum(s.x_px for s in window) / len(window),
                cy_px=sum(s.y_px for s in window) / len(window),
                start_ms=window[0].t_ms,
                end_ms=window[-1].t_ms,
                n_samples=len(window),
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
    stream = []
    for (x, y), dt in zip(points, steps):
        stream.append(GazeSample(t, x, y))
        t += dt
    return stream


class TestIdtBitwise:
    @given(idt_streams(), st.sampled_from([1.0, 3.0, 5.0, 7.5, 12.0]),
           st.sampled_from([2.5, 10.0, 20.0, 30.0]))
    @settings(max_examples=300, deadline=None)
    def test_matches_builtin_minmax_loop(self, stream, dispersion, min_duration):
        got = gz.detect_fixations(stream, dispersion, min_duration)
        assert fixation_bits(got) == fixation_bits(
            idt_builtin_minmax(stream, dispersion, min_duration))
        if not any(math.isnan(s.x_px) or math.isnan(s.y_px) for s in stream):
            assert got == idt_builtin_minmax(stream, dispersion, min_duration)

    def test_span_exactly_on_threshold_stays_in_window(self):
        stream = make_stream([(0.0, 0.0), (3.0, 2.0), (0.0, 0.0), (3.0, 2.1)])
        fixes = gz.detect_fixations(stream, 5.0, 20.0)
        assert [f.n_samples for f in fixes] == [3]
        assert fixation_bits(fixes) == fixation_bits(idt_builtin_minmax(stream, 5.0, 20.0))

    def test_nan_coordinates_from_csv(self, tmp_path):
        rows = "".join(f"{i * 10.0},{x},{y},,1\n" for i, (x, y) in enumerate(
            [(5, 5), (6, 5), ("nan", 5), (5, 6), (5, 5), (90, 90), ("nan", "nan"), (91, 90),
             (90, 91)]))
        stream = gz.read_gaze_csv(write_text(tmp_path, GAZE_HEADER_LINE + rows))
        fixes = gz.detect_fixations(stream, 5.0, 20.0)
        assert fixation_bits(fixes) == fixation_bits(idt_builtin_minmax(stream, 5.0, 20.0))
        assert len(fixes) == 2 and math.isnan(fixes[0].cx_px)


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
