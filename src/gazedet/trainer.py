"""Deterministic training/evaluation harness.

One reading per optimization step, SGD with momentum, checkpoints at every
epoch end with a best-validation tag, and a persisted loss curve CSV
(`step,epoch,cls,bbox,mask,total`). Given (seed, config, dataset) every
artifact is byte-identical across runs.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from . import gaze as gz
from . import metrics as mx
from .autodiff import NumericsError, no_grad, sgd_step
from .dataset import ClassLabel, Reading, reading_targets
from .detector import (
    DetectorModel,
    LossBreakdown,
    ModelConfig,
    save_checkpoint,
    save_predictions,
    train_loss,
)
from .fileio import atomic_copy, atomic_write_text, write_json


@dataclass
class TrainConfig:
    epochs: int = 15
    lr: float = 0.01
    momentum: float = 0.9
    seed: int = 0
    log_every: int = 50

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if not 0 < self.lr < math.inf:
            raise ValueError(f"lr must be finite and positive, got {self.lr!r}")
        if not 0 <= self.momentum < 1:
            raise ValueError(f"momentum must lie in [0, 1), got {self.momentum!r}")
        if not self.log_every >= 1:
            raise ValueError(f"log_every must be >= 1, got {self.log_every!r}")
        # numpy seeds only with non-negative integers; bool is refused too
        if type(self.seed) is not int or self.seed < 0:
            raise ValueError(f"seed must be an int >= 0, got {self.seed!r}")


def fixation_map_for(reading: Reading, img_size: int) -> gz.FixationMap:
    """Filtered gaze -> fixations -> duration-weighted heatmap at image size.

    Precomputed fixations on the reading bypass detection.
    """
    if reading.fixations is not None:
        fixations = reading.fixations
    else:
        filtered = gz.filter_gaze(reading.gaze, reading.width, reading.height)
        fixations = gz.detect_fixations(
            filtered,
            dispersion_px=gz.scaled_default(gz.DEFAULT_DISPERSION_PX, reading.width),
            min_duration_ms=gz.DEFAULT_MIN_DURATION_MS,
        )
    return gz.render_heatmap(
        fixations, img_size, img_size,
        sigma_px=gz.scaled_default(gz.DEFAULT_SIGMA_PX, img_size),
    )


def _inputs_for(reading: Reading, model_cfg: ModelConfig):
    if reading.image.shape != (model_cfg.img_size, model_cfg.img_size):
        raise ValueError(
            f"reading {reading.id} image {reading.image.shape} does not match "
            f"configured size {model_cfg.img_size}"
        )
    fmap = fixation_map_for(reading, model_cfg.img_size) if model_cfg.use_fixations else None
    return reading.image, fmap


def _reading_loss(model, reading, rng) -> LossBreakdown:
    """Training loss of one reading."""
    image, fmap = _inputs_for(reading, model.config)
    return train_loss(model, image, fmap, reading_targets(reading), rng)


def _epoch_val_loss(model, readings, seed, epoch) -> float:
    total = 0.0
    with no_grad():
        for k, reading in enumerate(readings):
            rng = np.random.default_rng([seed, 1_000_000 + epoch, k])
            total += _reading_loss(model, reading, rng).total
    return total / max(1, len(readings))


def train(model_cfg: ModelConfig, train_readings: list[Reading],
          val_readings: list[Reading], train_cfg: TrainConfig,
          out_dir: str, log=None) -> DetectorModel:
    """Train a detector; writes loss_curve.csv, checkpoint_last/best.json."""
    if not train_readings:
        raise ValueError("train set is empty")
    os.makedirs(out_dir, exist_ok=True)
    model = DetectorModel(model_cfg)
    velocities = {name: tuple(np.zeros_like(t.data) for t in p.tensors())
                  for name, p in model.params.items()}  # SGD momentum, owned by this run
    curve = ["step,epoch,cls,bbox,mask,total"]
    best_val = np.inf
    step = 0
    try:
        for epoch in range(train_cfg.epochs):
            order = np.random.default_rng([train_cfg.seed, epoch]).permutation(len(train_readings))
            for k in order:
                rng = np.random.default_rng([train_cfg.seed, epoch, int(k)])
                try:
                    loss = _reading_loss(model, train_readings[k], rng)
                    loss.tensor.backward()
                    sgd_step(model.params, velocities, train_cfg.lr, train_cfg.momentum)
                except NumericsError as exc:
                    raise RuntimeError(f"training diverged at step {step}: {exc}") from exc
                curve.append(f"{step},{epoch},{loss.classification!r},{loss.bbox!r},"
                             f"{loss.mask!r},{loss.total!r}")
                if log and step % train_cfg.log_every == 0:
                    log(f"step {step} epoch {epoch} total {loss.total:.4f}")
                del loss  # frees this step's graph before the next forward pass
                step += 1
            last = os.path.join(out_dir, "checkpoint_last.json")
            save_checkpoint(last, model)
            val_set = val_readings if val_readings else train_readings
            val_loss = _epoch_val_loss(model, val_set, train_cfg.seed, epoch)
            if val_loss < best_val:
                best_val = val_loss
                # validation leaves the weights as just saved: copy, don't re-encode
                atomic_copy(last, os.path.join(out_dir, "checkpoint_best.json"))
            if log:
                log(f"epoch {epoch} done; val loss {val_loss:.4f}")
    finally:  # a diverged or interrupted run keeps the rows of the steps it took
        atomic_write_text(os.path.join(out_dir, "loss_curve.csv"), "\n".join(curve) + "\n")
    return model


def infer_dataset(model: DetectorModel, readings: list[Reading]):
    dets_by_reading = {}
    with no_grad():
        for reading in readings:
            image, fmap = _inputs_for(reading, model.config)
            out = model.forward(image, fmap, mode="infer")
            dets_by_reading[reading.id] = out.detections
    return dets_by_reading


def evaluate(model: DetectorModel, readings: list[Reading], out_dir: str,
             thresh: float = 0.5, kind: str = "iobb",
             model_tag: str = "model") -> mx.MetricsReport:
    """Inference over ``readings``; writes predictions.json and the report to ``out_dir``."""
    mx.check_overlap_rule(thresh, kind)
    if not readings:
        raise ValueError("cannot evaluate on an empty reading list")
    dets_by_reading = infer_dataset(model, readings)
    os.makedirs(out_dir, exist_ok=True)
    save_predictions(os.path.join(out_dir, "predictions.json"), dets_by_reading)
    return write_report(dets_by_reading, readings, out_dir, thresh, kind, model_tag)


def write_report(dets_by_reading: dict, readings: list[Reading], out_dir: str,
                 thresh: float = 0.5, kind: str = "iobb",
                 model_tag: str = "model") -> mx.MetricsReport:
    """``report_from_detections``, saved as report.json and report.md in ``out_dir``."""
    report = report_from_detections(dets_by_reading, readings, thresh, kind, model_tag)
    os.makedirs(out_dir, exist_ok=True)
    mx.save_report(os.path.join(out_dir, "report.json"),
                   os.path.join(out_dir, "report.md"), report)
    return report


def report_from_detections(dets_by_reading: dict, readings: list[Reading],
                           thresh: float = 0.5, kind: str = "iobb",
                           model_tag: str = "model") -> mx.MetricsReport:
    dets_by_class: dict[ClassLabel, list] = {c: [] for c in ClassLabel}
    gts_by_class: dict[ClassLabel, list] = {c: [] for c in ClassLabel}
    for reading in readings:
        for det in dets_by_reading.get(reading.id, []):
            dets_by_class[det.label].append(det)
        for t in reading_targets(reading):
            gts_by_class[t.label].append(t)
    return mx.evaluate_detections(
        dets_by_class, gts_by_class, thresh, kind,
        metadata={"model": model_tag, "n_readings": len(readings)},
    )


def run_comparison(model_cfg_pairs: list[tuple[str, ModelConfig]],
                   train_readings: list[Reading], val_readings: list[Reading],
                   test_readings: list[Reading], train_cfg: TrainConfig,
                   out_dir: str, thresh: float = 0.5, kind: str = "iobb",
                   log=None) -> dict[str, mx.MetricsReport]:
    """Train and evaluate each arm under one shared protocol.

    Emits per-arm artifacts plus a side-by-side comparison table.
    """
    mx.check_overlap_rule(thresh, kind)
    if not test_readings:
        raise ValueError("cannot evaluate on an empty reading list")
    reports: dict[str, mx.MetricsReport] = {}
    for tag, model_cfg in model_cfg_pairs:
        arm_dir = os.path.join(out_dir, tag)
        model = train(model_cfg, train_readings, val_readings, train_cfg, arm_dir, log=log)
        reports[tag] = evaluate(model, test_readings, arm_dir, thresh, kind, model_tag=tag)
    atomic_write_text(os.path.join(out_dir, "comparison.md"),
                      comparison_markdown(reports))
    write_json(os.path.join(out_dir, "comparison.json"),
               {tag: r.to_dict() for tag, r in reports.items()}, indent=1, sort_keys=True)
    return reports


def comparison_markdown(reports: dict[str, mx.MetricsReport]) -> str:
    """One AP/AR column pair per arm, then each arm's warnings."""
    lines = mx.ap_ar_table({f"{tag} ": r for tag, r in reports.items()})
    lines += [f"> {tag}: {w}" for tag, r in reports.items() for w in r.warnings]
    return "\n".join(lines) + "\n"
