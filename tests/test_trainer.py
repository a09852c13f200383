import json

import numpy as np
import pytest

from gazedet import dataset as ds
from gazedet import trainer as tr
from gazedet.autodiff import NumericsError
from gazedet.dataset import SynthConfig
from gazedet.detector import DetectorModel, ModelConfig, load_checkpoint, save_checkpoint
from gazedet.trainer import TrainConfig


def tiny_model_cfg(**kw):
    base = dict(
        img_size=32, n_classes=5, seed=0,
        channels=(4, 4, 8, 8), rpn_channels=8, fc_dim=16, mask_channels=4,
        anchor_scales=(6.0, 10.0, 16.0),
    )
    base.update(kw)
    return ModelConfig(**base)


@pytest.fixture(scope="module")
def tiny_readings():
    return ds.synth_generate(SynthConfig(n_readings=8, img_size=32), 0)


class TestTrainConfig:
    def test_bad_epochs(self):
        with pytest.raises(ValueError, match="epochs"):
            TrainConfig(epochs=0)

    def test_bad_lr(self):
        with pytest.raises(ValueError, match="lr"):
            TrainConfig(lr=-0.1)

    @pytest.mark.parametrize("kw, needle", [
        ({"lr": float("nan")}, "lr must be finite and positive, got nan"),
        ({"lr": float("inf")}, "lr must be finite and positive, got inf"),
        ({"momentum": 5.0}, r"momentum must lie in \[0, 1\), got 5.0"),
        ({"momentum": -1.0}, r"momentum must lie in \[0, 1\), got -1.0"),
        ({"momentum": 1.0}, r"momentum must lie in \[0, 1\), got 1.0"),
        ({"momentum": float("nan")}, r"momentum must lie in \[0, 1\), got nan"),
        ({"log_every": 0}, "log_every must be >= 1, got 0"),
        ({"seed": -1}, "seed must be an int >= 0, got -1"),
        ({"seed": 1.5}, "seed must be an int >= 0, got 1.5"),
        ({"seed": True}, "seed must be an int >= 0, got True"),
    ], ids=["lr_nan", "lr_inf", "momentum_5", "momentum_negative", "momentum_1",
            "momentum_nan", "log_every_0", "seed_negative", "seed_float", "seed_bool"])
    def test_rejects_bad_number(self, kw, needle):
        with pytest.raises(ValueError, match=needle):
            TrainConfig(**kw)


class TestLossCurve:
    def test_csv_total_identity(self, tiny_readings, tmp_path):
        tr.train(tiny_model_cfg(), tiny_readings[:4], tiny_readings[4:6],
                 TrainConfig(epochs=1, lr=0.005), str(tmp_path / "run"))
        text = (tmp_path / "run" / "loss_curve.csv").read_text()
        lines = text.strip().split("\n")
        assert lines[0] == "step,epoch,cls,bbox,mask,total"
        assert len(lines) == 1 + 4
        for line in lines[1:]:
            _, _, cls, bbox, mask, total = line.split(",")
            # floats are serialized with repr, so the sum identity survives parsing
            assert float(cls) + float(bbox) + float(mask) == float(total)

    def test_epoch_means_decrease_possible(self, tiny_readings, tmp_path):
        tr.train(tiny_model_cfg(), tiny_readings[:6], [],
                 TrainConfig(epochs=2, lr=0.01), str(tmp_path / "run"))
        totals: dict[int, list[float]] = {}
        for line in (tmp_path / "run" / "loss_curve.csv").read_text().splitlines()[1:]:
            _, epoch, *_, total = line.split(",")
            totals.setdefault(int(epoch), []).append(float(total))
        means = {e: sum(v) / len(v) for e, v in totals.items()}
        assert set(means) == {0, 1} and all(len(v) == 6 for v in totals.values())
        assert all(m > 0 for m in means.values())


class TestDeterminism:
    def test_artifacts_byte_identical(self, tiny_readings, tmp_path):
        cfg = tiny_model_cfg()
        tcfg = TrainConfig(epochs=2, lr=0.005, seed=7)
        for name in ("a", "b"):
            tr.train(cfg, tiny_readings[:5], tiny_readings[5:7], tcfg,
                     str(tmp_path / name))
        for fname in ("loss_curve.csv", "checkpoint_last.json", "checkpoint_best.json"):
            assert (tmp_path / "a" / fname).read_bytes() == \
                   (tmp_path / "b" / fname).read_bytes()

    def test_best_checkpoint_is_the_improving_epochs_last(self, tiny_readings, tmp_path):
        lines = []
        model = tr.train(tiny_model_cfg(), tiny_readings[:5], tiny_readings[5:7],
                         TrainConfig(epochs=2, lr=0.005, seed=7), str(tmp_path / "run"),
                         log=lines.append)
        val = [float(line.rsplit(" ", 1)[1]) for line in lines if "val loss" in line]
        assert val[1] < val[0]  # epoch 1 improved, so best was written at the end
        run = tmp_path / "run"
        best = (run / "checkpoint_best.json").read_bytes()
        assert best == (run / "checkpoint_last.json").read_bytes()
        save_checkpoint(str(tmp_path / "again.json"), model)
        assert best == (tmp_path / "again.json").read_bytes()
        assert sorted(p.name for p in run.iterdir()) == [
            "checkpoint_best.json", "checkpoint_last.json", "loss_curve.csv"]

    def test_seed_changes_curve(self, tiny_readings, tmp_path):
        cfg = tiny_model_cfg()
        tr.train(cfg, tiny_readings[:5], [], TrainConfig(epochs=1, seed=0),
                 str(tmp_path / "s0"))
        tr.train(cfg, tiny_readings[:5], [], TrainConfig(epochs=1, seed=1),
                 str(tmp_path / "s1"))
        assert (tmp_path / "s0" / "loss_curve.csv").read_text() != \
               (tmp_path / "s1" / "loss_curve.csv").read_text()


class TestDivergence:
    def test_forward_pass_blow_up_names_the_step(self, tiny_readings, tmp_path):
        # at this lr the first update stays finite and the next forward pass overflows
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(RuntimeError, match="training diverged at step 1") as info:
            tr.train(tiny_model_cfg(), tiny_readings[:4], [], TrainConfig(epochs=1, lr=1e60),
                     str(tmp_path / "run"))
        assert isinstance(info.value.__cause__, NumericsError)
        assert "conv2d output" in str(info.value)
        # the loss curve keeps the step that finished: the header and step 0's row
        rows = (tmp_path / "run" / "loss_curve.csv").read_text().splitlines()
        assert rows[0] == "step,epoch,cls,bbox,mask,total"
        assert [row.split(",")[:2] for row in rows[1:]] == [["0", "0"]]

    def test_update_blow_up_names_the_layer(self, tiny_readings, tmp_path):
        # at this lr step 0's update of the first layer overflows
        with np.errstate(over="ignore"), pytest.raises(RuntimeError) as info:
            tr.train(tiny_model_cfg(), tiny_readings[:4], [], TrainConfig(epochs=1, lr=1e308),
                     str(tmp_path / "run"))
        assert isinstance(info.value.__cause__, NumericsError)
        assert str(info.value) == ("training diverged at step 0: non-finite values in "
                                   "sgd_step update of layer 'bb_img_0' weights")
        rows = (tmp_path / "run" / "loss_curve.csv").read_text().splitlines()
        assert rows == ["step,epoch,cls,bbox,mask,total"]


class TestEvaluate:
    def test_checkpoint_round_trip_same_report(self, tiny_readings, tmp_path):
        model = tr.train(tiny_model_cfg(), tiny_readings[:5], [],
                         TrainConfig(epochs=1), str(tmp_path / "run"))
        direct = tr.evaluate(model, tiny_readings[5:], str(tmp_path / "direct"))
        reloaded = tr.evaluate(load_checkpoint(str(tmp_path / "run" / "checkpoint_last.json")),
                               tiny_readings[5:], str(tmp_path / "reloaded"))
        assert direct.to_dict()["classes"] == reloaded.to_dict()["classes"]
        assert direct.average_ap == reloaded.average_ap
        for fname in ("predictions.json", "report.json", "report.md"):
            assert (tmp_path / "direct" / fname).read_bytes() == \
                   (tmp_path / "reloaded" / fname).read_bytes()

    def test_empty_eval_set_rejected(self, tiny_readings, tmp_path):
        model = tr.train(tiny_model_cfg(), tiny_readings[:3], [],
                         TrainConfig(epochs=1), str(tmp_path / "run"))
        with pytest.raises(ValueError, match="empty"):
            tr.evaluate(model, [], str(tmp_path / "eval"))
        assert not (tmp_path / "eval").exists()
        with pytest.raises(ValueError, match="empty"):
            tr.run_comparison([("arm", tiny_model_cfg())], tiny_readings[:3], [], [],
                              TrainConfig(epochs=1), str(tmp_path / "cmp"))
        assert not (tmp_path / "cmp").exists()  # refused before the first arm trains

    @pytest.mark.parametrize("thresh, kind, needle", [
        (float("nan"), "iobb", r"thresh must lie in \[0, 1\], got nan"),
        (2.0, "iobb", r"thresh must lie in \[0, 1\], got 2.0"),
        (0.5, "dice", "kind must be 'iobb' or 'iou', got 'dice'"),
    ], ids=["thresh_nan", "thresh_2", "kind_dice"])
    def test_bad_overlap_rule_rejected_up_front(self, tiny_readings, tmp_path,
                                                thresh, kind, needle):
        with pytest.raises(ValueError, match=needle):
            tr.evaluate(DetectorModel(tiny_model_cfg()), tiny_readings[5:],
                        str(tmp_path / "eval"), thresh, kind)
        assert not (tmp_path / "eval").exists()
        with pytest.raises(ValueError, match=needle):
            tr.run_comparison([("arm", tiny_model_cfg())], tiny_readings[:3], [],
                              tiny_readings[5:], TrainConfig(epochs=1),
                              str(tmp_path / "cmp"), thresh, kind)
        assert not (tmp_path / "cmp").exists()  # refused before the first arm trains

    def test_annotation_free_dataset_flagged(self, tmp_path):
        readings = ds.synth_generate(
            SynthConfig(n_readings=6, img_size=32, lesions_min=0, lesions_max=0), 2)
        model = tr.train(tiny_model_cfg(), readings[:4], [],
                         TrainConfig(epochs=1), str(tmp_path / "run"))
        report = tr.evaluate(model, readings[4:], str(tmp_path / "eval"))
        assert report.average_ap is None and report.average_ar is None
        assert len(report.warnings) == 5  # every class lacks ground truth
        assert "n/a" in report.to_markdown()


class TestInferDataset:
    def test_same_detections_as_plain_forward(self, tiny_readings, tmp_path):
        cfg = tiny_model_cfg(use_fixations=True)
        model = tr.train(cfg, tiny_readings[:4], [], TrainConfig(epochs=1),
                         str(tmp_path / "run"))
        got = tr.infer_dataset(model, tiny_readings[4:])
        assert list(got) == [r.id for r in tiny_readings[4:]]
        n_dets = 0
        for reading in tiny_readings[4:]:
            fmap = tr.fixation_map_for(reading, cfg.img_size)
            plain = model.forward(reading.image, fmap, mode="infer").detections
            assert len(got[reading.id]) == len(plain)
            for a, b in zip(got[reading.id], plain):
                assert a.label == b.label and a.score == b.score
                assert np.array_equal(a.box, b.box) and np.array_equal(a.mask, b.mask)
            n_dets += len(plain)
        assert n_dets > 0

    def test_inference_keeps_no_graph(self, tiny_readings, tmp_path, monkeypatch):
        model = tr.train(tiny_model_cfg(), tiny_readings[:2], [], TrainConfig(epochs=1),
                         str(tmp_path / "run"))
        outputs = []
        forward = type(model).forward

        def recording_forward(self, *args, **kwargs):
            outputs.append(forward(self, *args, **kwargs))
            return outputs[-1]

        monkeypatch.setattr(type(model), "forward", recording_forward)
        tr.infer_dataset(model, tiny_readings[4:6])
        assert len(outputs) == 2
        for out in outputs:
            for t in (out.rpn_obj, out.cls_logits, out.mask_logits):
                assert not t.tracked and t._backward is None


class TestComparison:
    def test_identical_arms_identical_columns(self, tiny_readings, tmp_path):
        cfg = tiny_model_cfg()
        reports = tr.run_comparison(
            [("arm_a", cfg), ("arm_b", cfg)],
            tiny_readings[:5], tiny_readings[5:6], tiny_readings[6:],
            TrainConfig(epochs=1), str(tmp_path / "cmp"),
        )
        assert reports["arm_a"].to_dict()["classes"] == \
               reports["arm_b"].to_dict()["classes"]
        md = (tmp_path / "cmp" / "comparison.md").read_text()
        assert "arm_a AP@[IoBB=0.50]" in md and "arm_b AR@[IoBB=0.50]" in md
        data = json.loads((tmp_path / "cmp" / "comparison.json").read_text())
        assert set(data) == {"arm_a", "arm_b"}
        for arm in ("arm_a", "arm_b"):
            arm_dir = tmp_path / "cmp" / arm
            for fname in ("loss_curve.csv", "checkpoint_last.json",
                          "predictions.json", "report.json", "report.md"):
                assert (arm_dir / fname).exists()

    def test_checkpoint_config_round_trips_through_comparison(self, tiny_readings,
                                                              tmp_path):
        cfg = tiny_model_cfg(use_fixations=True, fusion_mode="sum",
                             fusion_point="feature")
        tr.run_comparison([("fused", cfg)], tiny_readings[:4], [],
                          tiny_readings[6:], TrainConfig(epochs=1),
                          str(tmp_path / "cmp"))
        back = load_checkpoint(str(tmp_path / "cmp" / "fused" / "checkpoint_last.json"))
        assert back.config == cfg


class TestFixationMapFor:
    def test_precomputed_fixations_bypass_detection(self, tiny_readings):
        import dataclasses

        from gazedet.gaze import Fixation
        r = tiny_readings[0]
        forced = dataclasses.replace(r, fixations=[Fixation(16.0, 16.0, 0.0, 500.0)],
                                     gaze=[])
        fmap = tr.fixation_map_for(forced, 32)
        assert fmap.values[16, 16] == 1.0

    def test_map_peak_is_one_for_gazed_reading(self, tiny_readings):
        fmap = tr.fixation_map_for(tiny_readings[0], 32)
        assert fmap.values.max() == 1.0

    def test_size_mismatch_raises(self, tiny_readings):
        with pytest.raises(ValueError, match="does not match"):
            tr.train(tiny_model_cfg(img_size=64), tiny_readings[:2], [],
                     TrainConfig(epochs=1), "/tmp/_unused_dir")
