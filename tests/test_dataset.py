import json

import numpy as np
import pytest

from gazedet import dataset as ds
from gazedet import gaze as gz
from gazedet.dataset import ClassLabel, EllipseAnnotation, SynthConfig


def assert_same_gaze(a, b):
    """Exact column equality; NaN equals NaN only in pupil_mm, where it means empty."""
    for name in ("t_ms", "x_px", "y_px", "valid"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert np.array_equal(a.pupil_mm, b.pupil_mm, equal_nan=True)


class TestEllipseToTarget:
    def test_circle_extent_box(self):
        e = EllipseAnnotation(50, 50, 10, 10, ClassLabel.ATELECTASIS)
        t = ds.ellipse_to_target(e, 512, 512)
        assert (t.x_min, t.y_min, t.x_max, t.y_max) == (40, 40, 60, 60)

    def test_tiny_radius_single_pixel(self):
        # enumerate the 3x3 neighborhood under the pixel-center rule:
        # only (50, 50) has its center (50.5, 50.5) within radius 0.6 of (50.5, 50.5)
        e = EllipseAnnotation(50.5, 50.5, 0.6, 0.6, ClassLabel.ATELECTASIS)
        t = ds.ellipse_to_target(e, 64, 64)
        inside = {(x, y)
                  for y in range(49, 52) for x in range(49, 52)
                  if ((x + 0.5 - 50.5) / 0.6) ** 2 + ((y + 0.5 - 50.5) / 0.6) ** 2 <= 1}
        assert inside == {(50, 50)}
        assert t.mask.sum() == 1 and t.mask[50, 50] == 1

    def test_clamped_at_origin(self):
        e = EllipseAnnotation(0, 0, 10, 10, ClassLabel.CONSOLIDATION)
        t = ds.ellipse_to_target(e, 512, 512)
        assert (t.x_min, t.y_min, t.x_max, t.y_max) == (0, 0, 10, 10)

    def test_fully_outside_errors(self):
        e = EllipseAnnotation(-50, -50, 5, 5, ClassLabel.CONSOLIDATION)
        with pytest.raises(ValueError, match="outside"):
            ds.ellipse_to_target(e, 64, 64)

    @pytest.mark.parametrize("seed", range(10))
    def test_mask_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        e = EllipseAnnotation(
            float(rng.uniform(5, 59)), float(rng.uniform(5, 59)),
            float(rng.uniform(0.5, 12)), float(rng.uniform(0.5, 12)),
            ClassLabel.PULMONARY_EDEMA,
        )
        t = ds.ellipse_to_target(e, 64, 64)
        count = sum(
            1
            for y in range(64)
            for x in range(64)
            if ((x + 0.5 - e.cx) / e.rx) ** 2 + ((y + 0.5 - e.cy) / e.ry) ** 2 <= 1
        )
        assert int(t.mask.sum()) == count


class TestLoadReading:
    def _write_reading(self, root, annotations="[]", gaze_rows=None):
        rdir = root / "readings" / "r0"
        rdir.mkdir(parents=True)
        gz.write_pgm(str(rdir / "image.pgm"), np.zeros((64, 64)))
        (rdir / "annotations.json").write_text(annotations)
        rows = gaze_rows if gaze_rows is not None else ["0.0,1,1,,1", "10.0,2,2,,1"]
        (rdir / "gaze.csv").write_text(
            "t_ms,x_px,y_px,pupil_mm,valid\n" + "\n".join(rows) + "\n"
        )
        return str(rdir)

    def test_well_formed(self, tmp_path):
        ann = json.dumps([
            {"cx": 30, "cy": 30, "rx": 5, "ry": 4, "label": "Atelectasis"}
        ])
        reading = ds.load_reading(self._write_reading(tmp_path, ann))
        assert len(reading.annotations) == 1
        assert reading.annotations[0].label is ClassLabel.ATELECTASIS
        assert len(reading.gaze) == 2

    def test_zero_annotations_is_legal(self, tmp_path):
        reading = ds.load_reading(self._write_reading(tmp_path, "[]"))
        assert reading.annotations == []

    def test_decreasing_gaze_time_cites_line(self, tmp_path):
        rdir = self._write_reading(tmp_path, "[]", ["10.0,1,1,,1", "5.0,1,1,,1"])
        with pytest.raises(ValueError, match="gaze.csv:3"):
            ds.load_reading(rdir)

    def test_unknown_label_errors(self, tmp_path):
        ann = json.dumps([{"cx": 30, "cy": 30, "rx": 5, "ry": 4, "label": "Bogus"}])
        with pytest.raises(ValueError, match=r"annotations\.json\[0\]"):
            ds.load_reading(self._write_reading(tmp_path, ann))

    def test_missing_image_errors(self, tmp_path):
        rdir = tmp_path / "readings" / "r0"
        rdir.mkdir(parents=True)
        with pytest.raises(FileNotFoundError, match="image.pgm"):
            ds.load_reading(str(rdir))

    def test_off_image_fixations_are_kept(self, tmp_path):
        from gazedet import trainer as tr

        rdir = self._write_reading(tmp_path, "[]")
        fixes = [gz.Fixation(-10.0, -10.0, 0.0, 200.0), gz.Fixation(30.0, 20.0, 300.0, 450.0)]
        gz.write_fixation_csv(rdir + "/fixations.csv", fixes)
        reading = ds.load_reading(rdir)
        assert reading.fixations == fixes
        sigma = gz.scaled_default(gz.DEFAULT_SIGMA_PX, 64)
        expected = gz.render_heatmap(fixes, 64, 64, sigma).values
        assert np.array_equal(tr.fixation_map_for(reading, 64).values, expected)

    def test_fixations_take_precedence(self, tmp_path):
        rdir = self._write_reading(tmp_path, "[]")
        gz.write_fixation_csv(rdir + "/fixations.csv", [gz.Fixation(5, 5, 0, 200)])
        reading = ds.load_reading(rdir)
        assert reading.fixations is not None and len(reading.fixations) == 1

    def test_out_of_frame_ellipse_names_annotation(self, tmp_path):
        ann = json.dumps([
            {"cx": 30, "cy": 30, "rx": 5, "ry": 4, "label": "Atelectasis"},
            {"cx": 70.5, "cy": 10, "rx": 5, "ry": 4, "label": "Atelectasis"},
        ])
        with pytest.raises(ValueError) as info:
            ds.load_reading(self._write_reading(tmp_path, ann))
        msg = str(info.value)
        assert "annotations.json[1]" in msg and "(70.5, 10.0)" in msg and "64x64" in msg

    @pytest.mark.parametrize("entry, field, value", [
        ('{"cx": NaN, "cy": 30, "rx": 5, "ry": 4, "label": "Atelectasis"}', "cx", "nan"),
        ('{"cx": 30, "cy": 30, "rx": Infinity, "ry": 4, "label": "Atelectasis"}', "rx", "inf"),
        ('{"cx": "abc", "cy": 30, "rx": 5, "ry": 4, "label": "Atelectasis"}', "cx", "'abc'"),
        ('{"cx": 30, "cy": true, "rx": 5, "ry": 4, "label": "Atelectasis"}', "cy", "True"),
        ('{"cx": 30, "cy": 30, "rx": 5, "ry": -Infinity, "label": "Atelectasis"}', "ry", "-inf"),
        ('[30, 30, 5, 4]', "object", "[30, 30, 5, 4]"),
    ], ids=["nan_cx", "inf_rx", "string_cx", "bool_cy", "neg_inf_ry", "not_an_object"])
    def test_bad_annotation_names_file_entry_field_value(self, tmp_path, entry, field, value):
        with pytest.raises(ValueError) as info:
            ds.load_reading(self._write_reading(tmp_path, f"[{entry}]"))
        msg = str(info.value)
        assert "annotations.json[0]" in msg and field in msg and value in msg

    def test_integer_beyond_float_range_is_not_finite(self, tmp_path):
        entry = '{"cx": 1%s, "cy": 30, "rx": 5, "ry": 4, "label": "Atelectasis"}' % ("0" * 400)
        match = r"annotations\.json\[0\]: cx 10+ \(int\) is not a finite number"
        with pytest.raises(ValueError, match=match):
            ds.load_reading(self._write_reading(tmp_path, f"[{entry}]"))


class TestEllipseAnnotation:
    @pytest.mark.parametrize("values", [
        (np.nan, 30.0, 5.0, 4.0), (30.0, np.inf, 5.0, 4.0),
        (30.0, 30.0, np.nan, 4.0), (30.0, 30.0, 5.0, np.inf),
    ])
    def test_rejects_non_finite_values(self, values):
        with pytest.raises(ValueError, match="finite"):
            EllipseAnnotation(*values, ClassLabel.ATELECTASIS)


class TestSynthGenerate:
    def test_deterministic(self):
        cfg = SynthConfig(n_readings=5, img_size=64)
        a = ds.synth_generate(cfg, 42)
        b = ds.synth_generate(cfg, 42)
        for ra, rb in zip(a, b):
            assert np.array_equal(ra.image, rb.image)
            assert_same_gaze(ra.gaze, rb.gaze)
            assert ra.annotations == rb.annotations

    def test_zero_lesions_config(self):
        cfg = SynthConfig(n_readings=5, img_size=64, lesions_min=0, lesions_max=0)
        for r in ds.synth_generate(cfg, 0):
            assert r.annotations == []

    def test_small_image_rejected(self):
        with pytest.raises(ValueError, match="img_size"):
            SynthConfig(n_readings=1, img_size=16)

    @pytest.mark.parametrize("lo, hi", [(-1, 2), (3, 2)], ids=["min_negative", "min_above_max"])
    def test_bad_lesion_range_names_both_bounds(self, lo, hi):
        with pytest.raises(ValueError, match=f"got lesions_min {lo}, lesions_max {hi}$"):
            SynthConfig(n_readings=1, lesions_min=lo, lesions_max=hi)

    def test_dwell_centers_near_lesions(self):
        cfg = SynthConfig(n_readings=200, img_size=64)
        readings = ds.synth_generate(cfg, 9)
        total = hit = 0
        for r in readings:
            filtered = gz.filter_gaze(r.gaze, r.width, r.height)
            fixes = gz.detect_fixations(
                filtered,
                dispersion_px=gz.scaled_default(gz.DEFAULT_DISPERSION_PX, r.width),
                min_duration_ms=gz.DEFAULT_MIN_DURATION_MS,
            )
            for a in r.annotations:
                total += 1
                if any(np.hypot(f.cx_px - a.cx, f.cy_px - a.cy) <= 3 for f in fixes):
                    hit += 1
        assert total > 0
        assert hit / total >= 0.9

    def test_round_trip(self, tmp_path):
        cfg = SynthConfig(n_readings=3, img_size=64)
        readings = ds.synth_generate(cfg, 5)
        ds.save_dataset(str(tmp_path), readings)
        back = ds.load_dataset(str(tmp_path))
        assert len(back) == 3
        for orig, loaded in zip(readings, back):
            assert loaded.id == orig.id
            assert np.max(np.abs(loaded.image - orig.image)) <= 0.5 / 255 + 1e-12
            assert_same_gaze(loaded.gaze, orig.gaze)
            assert loaded.annotations == orig.annotations


class TestSplit:
    def _readings(self, n):
        return ds.synth_generate(SynthConfig(n_readings=n, img_size=32), 1)

    def test_sizes(self):
        tr, va, te = ds.split(self._readings(10), (0.8, 0.1, 0.1), 0)
        assert (len(tr), len(va), len(te)) == (8, 1, 1)

    def test_same_seed_same_split(self):
        readings = self._readings(12)
        a = ds.split(readings, (0.5, 0.25, 0.25), 3)
        b = ds.split(readings, (0.5, 0.25, 0.25), 3)
        assert [[r.id for r in part] for part in a] == [[r.id for r in part] for part in b]

    def test_all_train(self):
        readings = self._readings(7)
        tr, va, te = ds.split(readings, (1.0, 0.0, 0.0), 0)
        assert len(tr) == 7 and not va and not te

    def test_partition_exact(self):
        readings = self._readings(11)
        tr, va, te = ds.split(readings, (0.6, 0.2, 0.2), 5)
        ids = [r.id for part in (tr, va, te) for r in part]
        assert sorted(ids) == sorted(r.id for r in readings)
        assert len(set(ids)) == len(ids)

    def test_bad_ratios(self):
        with pytest.raises(ValueError, match="sum to 1"):
            ds.split(self._readings(4), (0.5, 0.2, 0.2), 0)

    def test_empty_input(self):
        with pytest.raises(ValueError, match="empty"):
            ds.split([], (0.8, 0.1, 0.1), 0)

    def test_negative_ratio_rejected(self):
        with pytest.raises(ValueError, match=r"non-negative.*\(0\.9, 0\.3, -0\.2\)"):
            ds.split(self._readings(10), (0.9, 0.3, -0.2), 0)


class TestSaveDatasetRefusals:
    """``save_dataset`` refuses what ``load_dataset`` would refuse, before it
    writes any file."""

    def readings(self):
        return ds.synth_generate(SynthConfig(n_readings=2, img_size=32), 4)

    def expect_refusal(self, tmp_path, readings, needle):
        root = tmp_path / "data"
        with pytest.raises(ValueError) as info:
            ds.save_dataset(str(root), readings)
        assert str(root / "manifest.json") in str(info.value) and needle in str(info.value)
        assert not (root / "manifest.json").exists()
        assert not root.exists()

    def test_repeated_id(self, tmp_path):
        readings = self.readings()
        readings[1].id = readings[0].id
        self.expect_refusal(tmp_path, readings, f"readings[1]: id {readings[0].id!r} repeats "
                                                "readings[0]")

    def test_id_with_a_path_separator(self, tmp_path):
        readings = self.readings()
        readings[1].id = "a/b"
        self.expect_refusal(tmp_path, readings,
                            "readings[1]: id 'a/b' is not a single plain path component")

    def test_ellipse_wholly_outside_the_image(self, tmp_path):
        readings = self.readings()
        readings[1].annotations.append(EllipseAnnotation(80.0, 10.0, 5.0, 5.0,
                                                         ClassLabel.ATELECTASIS))
        n = len(readings[1].annotations) - 1
        self.expect_refusal(tmp_path, readings, f"readings[1]: annotations[{n}]: ellipse at "
                                                "(80.0, 10.0) lies entirely outside 32x32")


class TestLoadDatasetManifest:
    """A malformed manifest.json fails with a ValueError naming the file,
    the entry and the value, not with a KeyError or a traceback."""

    @pytest.mark.parametrize("manifest, where", [
        ({}, "None"),
        ([{"id": "r0"}], "[{'id': 'r0'}]"),
        ({"readings": "x"}, "'x'"),
        ({"readings": [{"split": "train"}]}, "readings[0]"),
        ({"readings": [5]}, "readings[0] 5"),
        ({"readings": [{"id": 3, "split": "train"}]}, "readings[0]"),
    ], ids=["no_readings", "top_level_list", "readings_not_a_list", "entry_without_id",
            "entry_not_an_object", "id_not_a_string"])
    def test_bad_manifest_names_file_and_entry(self, tmp_path, manifest, where):
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ValueError) as info:
            ds.load_dataset(str(tmp_path), "train")
        msg = str(info.value)
        assert str(tmp_path / "manifest.json") in msg and where in msg

    @pytest.mark.parametrize("entry, needle", [
        ({"id": "r0"}, "readings[0]: split is missing"),
        ({"id": "r0", "split": ["test"]}, "readings[0]: split ['test'] (list) is not a string"),
    ], ids=["no_split", "split_not_a_string"])
    def test_entry_without_string_split_is_refused(self, tmp_path, entry, needle):
        """An entry whose split is not a string belongs to no split; it is
        refused, not left out of every split."""
        (tmp_path / "manifest.json").write_text(json.dumps({"readings": [entry]}))
        with pytest.raises(ValueError) as info:
            ds.load_dataset(str(tmp_path), "test")
        assert str(tmp_path / "manifest.json") in str(info.value) and needle in str(info.value)

    @pytest.mark.parametrize("bad_id", [
        "", ".", "..", "../readings/{first}", "./{first}", "{first}",
    ], ids=["empty", "dot", "dotdot", "parent_path", "nested_path", "repeated"])
    def test_manifest_id_must_name_one_new_directory(self, tmp_path, bad_id):
        """Each id is one plain path component naming its own reading; an id
        that walks to another directory or repeats an earlier one is refused."""
        readings = ds.synth_generate(SynthConfig(n_readings=3, img_size=32), 2)
        ds.save_dataset(str(tmp_path), readings)
        man_path = tmp_path / "manifest.json"
        manifest = json.loads(man_path.read_text())
        bad_id = bad_id.format(first=readings[0].id)
        manifest["readings"][1]["id"] = bad_id
        man_path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError) as info:
            ds.load_dataset(str(tmp_path))
        msg = str(info.value)
        assert str(man_path) in msg and f"readings[1]: id {bad_id!r}" in msg
