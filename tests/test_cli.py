import ctypes
import glob
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from gazedet import dataset as ds
from gazedet import gaze as gz
from gazedet import gradchecks
from gazedet.cli import main
from gazedet.detector import DetectorModel, ModelConfig, save_checkpoint
from gazedet.gaze import Fixation, GazeStream


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSynth:
    def test_writes_dataset(self, capsys, tmp_path):
        out = str(tmp_path / "data")
        code, stdout, _ = run(capsys, "synth", "--out", out, "--n", "6",
                              "--size", "32", "--seed", "1")
        assert code == 0
        assert "resolved config" in stdout
        assert os.path.exists(os.path.join(out, "manifest.json"))

    def test_deterministic(self, capsys, tmp_path):
        for name in ("a", "b"):
            run(capsys, "synth", "--out", str(tmp_path / name), "--n", "4",
                "--size", "32", "--seed", "3")
        ma = (tmp_path / "a" / "manifest.json").read_bytes()
        mb = (tmp_path / "b" / "manifest.json").read_bytes()
        assert ma == mb

    def test_nonpositive_n_rejected(self, capsys, tmp_path):
        code, _, stderr = run(capsys, "synth", "--out", str(tmp_path / "d"),
                              "--n", "0")
        assert code == 1 and "error" in stderr

    def test_env_seed_fallback(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("GFD_SEED", "17")
        code, stdout, _ = run(capsys, "synth", "--out", str(tmp_path / "d"),
                              "--n", "2", "--size", "32")
        assert code == 0
        assert '"seed": 17' in stdout

    def test_bad_env_seed(self, capsys, tmp_path, monkeypatch):
        for env, argv, needle in [
            ("lots", ["synth", "--out", str(tmp_path / "d"), "--n", "2"],
             "GFD_SEED is not an integer: 'lots'"),
            ("-3", ["gradcheck", "--seeds", "1", "--skip-e2e"], "GFD_SEED must be >= 0, got -3"),
        ]:
            monkeypatch.setenv("GFD_SEED", env)
            code, stdout, stderr = run(capsys, *argv)
            assert code == 1 and needle in stderr
            assert "resolved config" not in stdout
        assert not (tmp_path / "d").exists()

    def test_negative_seed_flag_named(self, capsys, tmp_path):
        code, _, stderr = run(capsys, "synth", "--out", str(tmp_path / "d"), "--n", "2",
                              "--seed", "-2")
        assert code == 1 and "--seed must be >= 0, got -2" in stderr
        assert "--train-frac" not in stderr
        assert not (tmp_path / "d").exists()


class TestFixationsAndHeatmap:
    @pytest.fixture
    def gaze_csv(self, tmp_path):
        path = str(tmp_path / "gaze.csv")
        stream = GazeStream([i * 10.0 for i in range(30)] + [300 + i * 10.0 for i in range(30)],
                            [100.0] * 30 + [300.0] * 30, [100.0] * 30 + [200.0] * 30)
        gz.write_gaze_csv(path, stream)
        return path

    def test_pipeline_to_heatmap(self, capsys, tmp_path, gaze_csv):
        fix_csv = str(tmp_path / "fix.csv")
        code, stdout, _ = run(capsys, "fixations", "--gaze", gaze_csv,
                              "--out", fix_csv)
        assert code == 0 and "2 fixations" in stdout
        fixes = gz.read_fixation_csv(fix_csv)
        assert {(f.cx_px, f.cy_px) for f in fixes} == {(100.0, 100.0), (300.0, 200.0)}

        pgm = str(tmp_path / "map.pgm")
        fmap = str(tmp_path / "map.gfm")
        code, _, _ = run(capsys, "heatmap", "--fixations", fix_csv, "--out", pgm,
                         "--width", "512", "--height", "512", "--float-out", fmap)
        assert code == 0
        values = gz.read_float_map(fmap)
        assert values.shape == (512, 512)
        assert values[100, 100] > 0.9 and values[200, 300] > 0.9

    def test_missing_input_file(self, capsys, tmp_path):
        code, _, stderr = run(capsys, "fixations", "--gaze",
                              str(tmp_path / "nope.csv"), "--out",
                              str(tmp_path / "f.csv"))
        assert code == 1 and "error" in stderr

    @pytest.mark.parametrize("flag, parameter", [
        (["fixations", "--dispersion", "nan"], "dispersion_px"),
        (["fixations", "--min-dur", "nan"], "min_duration_ms"),
        (["fixations", "--margin", "nan", "--width", "512", "--height", "512"], "margin_px"),
        (["heatmap", "--sigma", "nan", "--width", "64", "--height", "64"], "sigma_px"),
        (["heatmap", "--binarize", "nan", "--width", "64", "--height", "64"], "threshold"),
    ], ids=["dispersion", "min_dur", "margin", "sigma", "binarize"])
    def test_nan_parameter_exits_1(self, capsys, tmp_path, gaze_csv, flag, parameter):
        fix_csv = str(tmp_path / "fix.csv")
        run(capsys, "fixations", "--gaze", gaze_csv, "--out", fix_csv)
        out = tmp_path / "out"
        source = ["--gaze", gaze_csv] if flag[0] == "fixations" else ["--fixations", fix_csv]
        code, _, stderr = run(capsys, flag[0], *source, "--out", str(out), *flag[1:])
        assert code == 1 and f"{parameter} " in stderr and "nan" in stderr
        assert not out.exists()

    @pytest.mark.parametrize("argv, entries, message, names_file", [
        (["synth", "--n", "2"], {"size": 8}, "img_size must be >= 32, got 8", True),
        (["heatmap", "--width", "64", "--height", "64"], {"sigma": -1},
         "sigma_px must be finite and positive, got -1.0", True),
        (["heatmap", "--width", "64", "--height", "64"], {"binarize": 2},
         "threshold must lie in [0, 1], got 2.0", True),
        (["fixations"], {"dispersion": 0}, "dispersion_px must be finite and positive, got 0.0",
         True),
        (["fixations"], {"min_dur": 0}, "min_duration_ms must be finite and positive, got 0.0",
         True),
        (["fixations", "--width", "64", "--height", "64"], {"margin": -1},
         "margin_px must be finite and >= 0, got -1.0", True),
        (["heatmap", "--width", "64", "--height", "64", "--sigma", "-2"], {"sigma": -1},
         "sigma_px must be finite and positive, got -2.0", False),
    ], ids=["synth_size", "heatmap_sigma", "heatmap_binarize", "fixations_dispersion",
            "fixations_min_dur", "fixations_margin", "explicit_flag_wins"])
    def test_refused_config_value_names_the_file(self, capsys, tmp_path, gaze_csv, argv,
                                                 entries, message, names_file):
        """A value the --config file set is refused naming the file, also when
        its check names the parameter the flag feeds rather than the flag."""
        fix_csv = str(tmp_path / "fix.csv")
        run(capsys, "fixations", "--gaze", gaze_csv, "--out", fix_csv)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(entries))
        out = tmp_path / "out"
        source = {"fixations": ["--gaze", gaze_csv], "heatmap": ["--fixations", fix_csv]}
        code, _, stderr = run(capsys, argv[0], *source.get(argv[0], []), "--out", str(out),
                              "--config", str(cfg), *argv[1:])
        assert code == 1
        prefix = f"{cfg}: " if names_file else ""
        assert stderr.splitlines()[-1] == f"error: {prefix}{message}"
        assert not out.exists()

    def test_idempotent_outputs(self, capsys, tmp_path, gaze_csv):
        outs = []
        for name in ("f1.csv", "f2.csv"):
            path = str(tmp_path / name)
            run(capsys, "fixations", "--gaze", gaze_csv, "--out", path)
            outs.append(open(path, "rb").read())
        assert outs[0] == outs[1]


class TestGradcheck:
    def test_quick_suite_passes(self, capsys):
        code, stdout, _ = run(capsys, "gradcheck", "--seeds", "2", "--skip-e2e")
        assert code == 0
        assert "OK" in stdout

    @pytest.mark.parametrize("tolerance, code, verdict",
                             [(1e-6, 2, "FAIL"), (1e-3, 0, "OK")])
    def test_verdict_uses_suite_tolerance(self, capsys, monkeypatch,
                                          tolerance, code, verdict):
        monkeypatch.setattr(gradchecks, "run_gradcheck_suite",
                            lambda **kw: [("conv2d", 1e-8), ("linear", 5e-5)])
        monkeypatch.setattr(gradchecks, "TOLERANCE", tolerance)
        got, stdout, _ = run(capsys, "gradcheck", "--seeds", "1", "--skip-e2e")
        assert got == code
        assert f"worst relative error 5.000e-05: {verdict}" in stdout

    @pytest.mark.parametrize("seeds", ["0", "-1"])
    def test_seeds_below_one_rejected_before_checks(self, capsys, monkeypatch, seeds):
        def suite(**kw):
            raise AssertionError("suite ran")
        monkeypatch.setattr(gradchecks, "run_gradcheck_suite", suite)
        code, stdout, stderr = run(capsys, "gradcheck", "--seeds", seeds, "--skip-e2e")
        assert code == 1
        assert f"--seeds must be >= 1, got {seeds}" in stderr
        assert "gradcheck " not in stdout


class TestParsing:
    def test_unknown_flag_exit_1(self, capsys):
        code, _, stderr = run(capsys, "synth", "--out", "/tmp/x", "--n", "2",
                              "--bogus-flag")
        assert code == 1 and "error" in stderr

    def test_missing_subcommand_exit_1(self, capsys):
        code, _, _ = run(capsys, )
        assert code == 1

    def test_config_file_defaults_and_precedence(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 3, "size": 32, "seed": 9}))
        out = str(tmp_path / "d1")
        code, stdout, _ = run(capsys, "synth", "--out", out, "--n", "2",
                              "--config", str(cfg))
        assert code == 0
        assert "wrote 2 readings" in stdout  # explicit --n beats the config file
        assert '"seed": 9' in stdout  # config value fills the unset flag

    def test_config_file_unknown_key(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"wibble": 1}))
        code, _, stderr = run(capsys, "synth", "--out", str(tmp_path / "d"),
                              "--n", "2", "--config", str(cfg))
        assert code == 1 and "unknown keys" in stderr


class TestTrainEvalRoundTrip:
    def test_train_then_eval(self, capsys, tmp_path):
        data = str(tmp_path / "data")
        run(capsys, "synth", "--out", data, "--n", "8", "--size", "32",
            "--seed", "0", "--train-frac", "0.5", "--val-frac", "0.25")
        rundir = str(tmp_path / "run")
        code, _, err = run(capsys, "train", "--dataset", data, "--out", rundir,
                           "--epochs", "1", "--seed", "0")
        assert code == 0, err
        evaldir = str(tmp_path / "eval")
        code, stdout, err = run(capsys, "eval", "--checkpoint",
                                os.path.join(rundir, "checkpoint_last.json"),
                                "--dataset", data, "--out", evaldir)
        assert code == 0, err
        assert "AP@[IoBB=0.50]" in stdout
        assert os.path.exists(os.path.join(evaldir, "report.json"))

        report_dir = str(tmp_path / "rerender")
        code, stdout2, err = run(capsys, "report", "--predictions",
                                 os.path.join(evaldir, "predictions.json"),
                                 "--dataset", data, "--out", report_dir)
        assert code == 0, err
        table = lambda s: [l for l in s.splitlines() if l.startswith("|")]
        assert table(stdout2) == table(stdout)

    def test_train_takes_size_from_dataset(self, capsys, tmp_path):
        data = str(tmp_path / "data")
        run(capsys, "synth", "--out", data, "--n", "4", "--size", "32",
            "--seed", "0", "--train-frac", "0.5", "--val-frac", "0.25")
        rundir = str(tmp_path / "run")
        code, stdout, err = run(capsys, "train", "--dataset", data, "--out", rundir,
                                "--epochs", "1", "--seed", "0")
        assert code == 0, err
        line = next(l for l in stdout.splitlines() if l.startswith("resolved config:"))
        assert "size" not in json.loads(line.split(":", 1)[1])
        with open(os.path.join(rundir, "checkpoint_last.json")) as fh:
            assert json.load(fh)["config"]["img_size"] == 32

    @pytest.mark.parametrize("command", ["train", "compare"])
    def test_size_flag_rejected(self, capsys, tmp_path, command):
        code, _, stderr = run(capsys, command, "--dataset", str(tmp_path / "d"),
                              "--out", str(tmp_path / "o"), "--size", "128")
        assert code == 1 and "--size" in stderr


class TestOneEvaluationPath:
    def test_eval_and_report_reproduce_a_compare_arm(self, capsys, tmp_path):
        data, out = str(tmp_path / "data"), tmp_path / "cmp"
        run(capsys, "synth", "--out", data, "--n", "8", "--size", "32", "--seed", "0",
            "--train-frac", "0.5", "--val-frac", "0.25")
        code, stdout, err = run(capsys, "compare", "--dataset", data, "--out", str(out),
                                "--epochs", "1", "--seed", "0")
        assert code == 0, err
        resolved, printed = stdout.split("\n", 1)
        assert resolved.startswith("resolved config:")
        assert printed == (out / "comparison.md").read_text() + "\n"

        arm, evaldir, reportdir = out / "multimodal", tmp_path / "eval", tmp_path / "report"
        code, _, err = run(capsys, "eval", "--checkpoint", str(arm / "checkpoint_last.json"),
                           "--dataset", data, "--out", str(evaldir))
        assert code == 0, err
        assert (evaldir / "predictions.json").read_bytes() == \
               (arm / "predictions.json").read_bytes()

        code, _, err = run(capsys, "report", "--predictions", str(evaldir / "predictions.json"),
                           "--dataset", data, "--out", str(reportdir))
        assert code == 0, err
        got = json.loads((reportdir / "report.json").read_text())
        want = json.loads((arm / "report.json").read_text())
        assert got["metadata"].pop("model") == "predictions.json"
        assert want["metadata"].pop("model") == "multimodal"
        assert got == want


class TestInputChecks:
    @pytest.fixture
    def dataset(self, capsys, tmp_path):
        data = str(tmp_path / "data")
        code, _, err = run(capsys, "synth", "--out", data, "--n", "4", "--size", "32",
                           "--seed", "0", "--train-frac", "0.5", "--val-frac", "0.25")
        assert code == 0, err
        return data

    ROW = '{"reading_id": "%s", "box": [1, 2, 3, 4], "label": "%s", "score": %s}'

    @pytest.mark.parametrize("text, needles", [
        ("[" + ROW % ("r9999", "Atelectasis", "0.5") + "]", ["r9999", "split 'test'"]),
        ("[" + ROW % ("r0000", "Foo", "0.5") + "]", ["row 0", "label", "'Foo'"]),
        ('{"rows": []}', ["list", "dict"]),
        ("[" + ROW % ("r0000", "Atelectasis", "NaN") + "]", ["row 0", "score", "nan"]),
    ], ids=["unknown_reading", "unknown_label", "object_not_list", "nan_score"])
    def test_report_rejects_bad_predictions(self, capsys, tmp_path, dataset, text, needles):
        preds = tmp_path / "predictions.json"
        preds.write_text(text)
        code, _, stderr = run(capsys, "report", "--predictions", str(preds),
                              "--dataset", dataset, "--out", str(tmp_path / "rep"))
        assert code == 1
        for needle in [str(preds)] + needles:
            assert needle in stderr
        assert not (tmp_path / "rep").exists()

    def test_report_rejects_reading_outside_split(self, capsys, tmp_path, dataset):
        test_id = ds.load_dataset(dataset, "test")[0].id
        train_id = ds.load_dataset(dataset, "train")[0].id
        preds = tmp_path / "predictions.json"
        preds.write_text("[" + ",".join(self.ROW % (rid, "Atelectasis", "0.5")
                                        for rid in (test_id, train_id)) + "]")
        code, _, stderr = run(capsys, "report", "--predictions", str(preds),
                              "--dataset", dataset, "--out", str(tmp_path / "rep"))
        assert code == 1
        assert f"{preds}: reading ids not in split 'test': [{train_id!r}]" in stderr
        assert not (tmp_path / "rep").exists()

    def test_synth_rejects_negative_ratio(self, capsys, tmp_path):
        out = tmp_path / "d"
        code, _, stderr = run(capsys, "synth", "--out", str(out), "--n", "10",
                              "--train-frac", "0.9", "--val-frac", "0.3")
        assert code == 1
        assert "--train-frac 0.9" in stderr and "--val-frac 0.3" in stderr
        assert "-0.2" in stderr
        assert not out.exists()

    def test_synth_checks_ratios_before_rendering(self, capsys, tmp_path, monkeypatch):
        def no_render(*args):
            raise AssertionError("synth_generate called before the ratio check")

        monkeypatch.setattr(ds, "synth_generate", no_render)
        out = tmp_path / "d"
        code, _, stderr = run(capsys, "synth", "--out", str(out), "--n", "200",
                              "--train-frac", "0.9", "--val-frac", "0.3")
        assert code == 1 and "--val-frac 0.3" in stderr
        assert not out.exists()

    @pytest.mark.parametrize("argv, needle", [
        (["train", "--momentum", "5"], "momentum must lie in [0, 1), got 5.0"),
        (["train", "--lr", "nan"], "lr must be finite and positive, got nan"),
        (["eval", "--thresh", "nan"], "thresh must lie in [0, 1], got nan"),
        (["eval", "--thresh", "2"], "thresh must lie in [0, 1], got 2.0"),
        (["report", "--thresh", "-1"], "thresh must lie in [0, 1], got -1.0"),
        (["compare", "--thresh", "nan", "--epochs", "1"], "thresh must lie in [0, 1], got nan"),
        (["train", "--seed", "-1"], "--seed must be >= 0, got -1"),
    ], ids=["train_momentum_5", "train_lr_nan", "eval_thresh_nan", "eval_thresh_2",
            "report_thresh_negative", "compare_thresh_nan", "train_seed_negative"])
    def test_bad_number_flag_exits_1(self, capsys, tmp_path, dataset, argv, needle):
        sources = {"eval": ["--checkpoint", str(tmp_path / "ckpt.json")],
                   "report": ["--predictions", str(tmp_path / "predictions.json")]}
        save_checkpoint(str(tmp_path / "ckpt.json"), DetectorModel(ModelConfig(img_size=32)))
        (tmp_path / "predictions.json").write_text("[]\n")
        out = tmp_path / "out"
        code, _, stderr = run(capsys, argv[0], "--dataset", dataset, "--out", str(out),
                              *sources.get(argv[0], []), *argv[1:])
        assert code == 1 and needle in stderr
        assert not out.exists()  # for compare: no arm directory either

    @pytest.mark.parametrize("argv, entries, message, names_file", [
        (["synth", "--n", "2"], {"seed": -4}, "--seed must be >= 0, got -4", True),
        (["train"], {"lr": -1}, "lr must be finite and positive, got -1.0", True),
        (["compare", "--epochs", "1"], {"thresh": 2}, "thresh must lie in [0, 1], got 2.0", True),
        (["synth", "--n", "2"], {"lesions_min": 3}, "lesions_min <= lesions_max", True),
        (["train", "--lr", "-2"], {"lr": -1, "momentum": 0.5},
         "lr must be finite and positive, got -2.0", False),
    ], ids=["synth_seed", "train_lr", "compare_thresh", "synth_lesions_min", "explicit_flag_wins"])
    def test_refused_config_value_names_the_file(self, capsys, tmp_path, dataset, argv,
                                                 entries, message, names_file):
        """A value the --config file set is refused naming the file; a typed
        flag's value is refused as without the file."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(entries))
        out = tmp_path / "out"
        source = [] if argv[0] == "synth" else ["--dataset", dataset]
        code, _, stderr = run(capsys, argv[0], "--out", str(out), *source, "--config", str(cfg),
                              *argv[1:])
        assert code == 1
        line = stderr.splitlines()[-1]
        assert line.startswith(f"error: {cfg}: " if names_file else "error: ")
        assert message in line and (str(cfg) in line) == names_file
        assert not out.exists()

    @pytest.mark.parametrize("size", [["--width", "512"], ["--height", "512"],
                                      ["--width", "-5", "--height", "5"]],
                             ids=["width_only", "height_only", "negative_width"])
    def test_fixations_needs_both_sizes(self, capsys, tmp_path, size):
        gaze = str(tmp_path / "gaze.csv")
        gz.write_gaze_csv(gaze, GazeStream([i * 10.0 for i in range(10)], [10.0] * 10, [10.0] * 10))
        out = tmp_path / "f.csv"
        code, _, stderr = run(capsys, "fixations", "--gaze", gaze, "--out", str(out), *size)
        assert code == 1
        assert "--width" in stderr and "--height" in stderr and size[1] in stderr
        assert not out.exists()


class TestJsonInputs:
    """Every malformed JSON input exits 1 with a message that names the
    file, and where it applies the entry, the field and the value."""

    @pytest.fixture
    def dataset(self, capsys, tmp_path):
        data = tmp_path / "data"
        code, _, err = run(capsys, "synth", "--out", str(data), "--n", "4", "--size", "32",
                           "--seed", "0", "--train-frac", "0.5", "--val-frac", "0.25")
        assert code == 0, err
        return data

    def expect_refusal(self, capsys, argv, path, needles=()):
        code, _, stderr = run(capsys, *argv)
        assert code == 1
        assert "Traceback" not in stderr
        for needle in [str(path), *needles]:
            assert needle in stderr

    @pytest.mark.parametrize("edit, needles", [
        (lambda p: p.update(config=5), ["config 5"]),
        (lambda p: p["config"].update(channels=5), ["channels 5"]),
        (lambda p: p["config"].update(img_size="64"), ["img_size '64'"]),
        (lambda p: p["params"].update(fc1=3), ["params: fc1 3"]),
        (lambda p: p.pop("config"), ["config is missing"]),
        (lambda p: p["params"]["fc1"].pop("weights"), ["'fc1'", "weights is missing"]),
        (lambda p: p["config"]["channels"].__setitem__(2, "32"), ["channels[2] '32'"]),
        (lambda p: p["config"].update(fusion_mode="max"), ["config", "'max'"]),
        (lambda p: p["params"]["fc1"].update(kind="banana"),
         ["'fc1'", "kind 'banana'", "'linear'"]),
        (lambda p: p["params"]["rpn_conv"].pop("kind"), ["'rpn_conv'", "kind is missing"]),
        (lambda p: p.update(extra=1), ["unknown keys {'extra': 1}"]),
        (lambda p: p["params"]["cls"].update(scale=2.0), ["'cls'", "unknown keys {'scale': 2.0}"]),
    ], ids=["config_not_object", "channels_not_list", "img_size_string",
            "layer_not_object", "no_config", "layer_without_weights", "channel_string",
            "unknown_fusion_mode", "layer_kind_unknown", "layer_without_kind",
            "extra_top_level_key", "extra_layer_key"])
    def test_bad_checkpoint(self, capsys, tmp_path, dataset, edit, needles):
        path = tmp_path / "ckpt.json"
        save_checkpoint(str(path), DetectorModel(ModelConfig(img_size=32)))
        payload = json.loads(path.read_text())
        edit(payload)
        path.write_text(json.dumps(payload))
        self.expect_refusal(capsys, ["eval", "--checkpoint", str(path), "--dataset",
                                     str(dataset), "--out", str(tmp_path / "e")], path, needles)

    def test_checkpoint_is_a_directory(self, capsys, tmp_path, dataset):
        self.expect_refusal(capsys, ["eval", "--checkpoint", str(tmp_path), "--dataset",
                                     str(dataset), "--out", str(tmp_path / "e")], tmp_path)

    @pytest.mark.parametrize("name, raw", [
        ("manifest.json", b"nope"),
        ("annotations.json", b"{bad"),
        ("annotations.json", b"\xff\xfe"),
    ], ids=["manifest_not_json", "annotations_not_json", "annotations_not_utf8"])
    def test_bad_dataset_file(self, capsys, tmp_path, dataset, name, raw):
        paths = sorted(dataset.glob(f"**/{name}"))
        for path in paths:
            path.write_bytes(raw)
        code, _, stderr = run(capsys, "eval", "--checkpoint", str(tmp_path / "none.json"),
                              "--dataset", str(dataset), "--out", str(tmp_path / "e"))
        assert code == 1 and "Traceback" not in stderr
        assert any(f"error: {path}: not a JSON file" in stderr for path in paths)

    def test_repeated_key_in_annotations(self, capsys, tmp_path, dataset):
        paths = sorted(dataset.glob("**/annotations.json"))
        for path in paths:
            path.write_text('[{"cx": 1, "cx": 2, "cy": 16, "rx": 3, "ry": 3, '
                            '"label": "Atelectasis"}]')
        code, _, stderr = run(capsys, "eval", "--checkpoint", str(tmp_path / "none.json"),
                              "--dataset", str(dataset), "--out", str(tmp_path / "e"))
        assert code == 1 and "Traceback" not in stderr
        assert any(f"error: {path}: key 'cx' repeats in one object" in stderr for path in paths)

    @pytest.mark.parametrize("text, needles", [
        ("[1, 2]", ["[1, 2]", "not an object"]),
        ('"abc"', ["'abc'", "not an object"]),
        ("{bad", ["not a JSON file"]),
        ('{"func": 1}', ["unknown keys", "'func'"]),
        ('{"size": 64.5}', ["--size", "'64.5'"]),
        ('{"classes": 7}', ["--classes", "7"]),
        ('{"config": "x.json"}', ["unknown keys", "'config'"]),
        ('{"command": "eval"}', ["unknown keys", "'command'"]),
        ('{"seed": 1, "seed": 2}', ["key 'seed' repeats in one object"]),
    ], ids=["list", "string", "not_json", "func", "float_size", "unknown_class",
            "nested_config", "command", "repeated_key"])
    def test_bad_config_file(self, capsys, tmp_path, text, needles):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        out = tmp_path / "d"
        self.expect_refusal(capsys, ["synth", "--out", str(out), "--n", "2", "--size", "32",
                                     "--config", str(cfg)], cfg, needles)
        assert not out.exists()

    @pytest.mark.parametrize("entries, argv, seeds, e2e", [
        ({"skip_e2e": True, "seeds": 3}, [], 3, False),
        ({"skip_e2e": False, "seeds": 3}, ["--seeds", "1"], 1, True),
        ({"skip_e2e": False}, ["--skip-e2e"], 20, False),
    ], ids=["switch_on", "switch_off", "explicit_switch_wins"])
    def test_config_file_sets_switches(self, capsys, tmp_path, monkeypatch,
                                       entries, argv, seeds, e2e):
        seen = {}
        monkeypatch.setattr(gradchecks, "run_gradcheck_suite",
                            lambda **kw: seen.update(kw) or [("conv2d", 1e-8)])
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(entries))
        code, _, err = run(capsys, "gradcheck", "--config", str(cfg), *argv)
        assert code == 0, err
        assert (seen["n_seeds"], seen["include_end_to_end"]) == (seeds, e2e)


class TestBlasThreads:
    def test_compare_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        """`gazedet compare` writes the same bytes whatever OPENBLAS_NUM_THREADS says."""
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=src)

        def gazedet(*argv, threads="1"):
            subprocess.run([sys.executable, "-m", "gazedet.cli", *argv], check=True,
                           env=dict(env, OPENBLAS_NUM_THREADS=threads),
                           stdout=subprocess.DEVNULL)

        data = tmp_path / "data"
        gazedet("synth", "--out", str(data), "--n", "40", "--size", "64", "--seed", "3")
        runs = {}
        for threads in ("1", "2"):
            out = tmp_path / f"run{threads}"
            gazedet("compare", "--dataset", str(data), "--out", str(out), "--epochs", "2",
                    "--seed", "3", threads=threads)
            runs[threads] = {str(p.relative_to(out)): p.read_bytes()
                             for p in sorted(out.rglob("*")) if p.is_file()}
        assert len(runs["1"]) == 14
        assert runs["1"].keys() == runs["2"].keys()
        assert [name for name in runs["1"] if runs["1"][name] != runs["2"][name]] == []

    def test_this_process_runs_blas_on_one_thread(self):
        """The test process has gazedet's single BLAS thread, because
        conftest.py imports gazedet before numpy loads OpenBLAS."""
        libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                      "libscipy_openblas64_*.so"))
        if not libs:
            pytest.skip("this numpy build bundles no scipy-openblas library")
        # loading an already loaded library returns the live one
        get_threads = ctypes.CDLL(libs[0]).scipy_openblas_get_num_threads64_
        get_threads.argtypes = []
        get_threads.restype = ctypes.c_int
        assert get_threads() == 1
