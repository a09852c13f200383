"""Deterministic training/evaluation harness.

One reading per optimization step, SGD with momentum, checkpoints at every
epoch end with a best-validation tag, and a persisted loss curve CSV
(`step,epoch,cls,bbox,mask,total`). Given (seed, config, dataset) every
artifact is byte-identical across runs.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from . import gaze as gz
from . import metrics as mx
from .autodiff import NumericsError, no_grad, sgd_step
from .dataset import REPORT_CLASS_TITLES, ClassLabel, Reading, reading_targets
from .detector import (
    DetectorModel,
    LossBreakdown,
    ModelConfig,
    load_checkpoint,
    save_checkpoint,
    save_predictions,
    train_loss,
)
from .fileio import atomic_copy, atomic_write_text

LOSS_CURVE_HEADER = "step,epoch,cls,bbox,mask,total"


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
        if self.lr <= 0:
            raise ValueError(f"lr must be positive, got {self.lr}")


@dataclass
class LossCurve:
    steps: list[tuple[int, int, LossBreakdown]] = field(default_factory=list)

    def epoch_means(self) -> dict[int, float]:
        totals: dict[int, list[float]] = {}
        for _, epoch, loss in self.steps:
            totals.setdefault(epoch, []).append(loss.total)
        return {e: sum(v) / len(v) for e, v in totals.items()}

    def to_csv(self) -> str:
        lines = [LOSS_CURVE_HEADER]
        for step, epoch, loss in self.steps:
            lines.append(
                f"{step},{epoch},{loss.classification!r},{loss.bbox!r},"
                f"{loss.mask!r},{loss.total!r}"
            )
        return "\n".join(lines) + "\n"


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


def _reading_loss(model: DetectorModel, reading: Reading, model_cfg: ModelConfig,
                  rng: np.random.Generator) -> LossBreakdown:
    """Training loss of one reading."""
    image, fmap = _inputs_for(reading, model_cfg)
    return train_loss(model, image, fmap, reading_targets(reading), rng)


def _epoch_val_loss(model, readings, model_cfg, seed, epoch) -> float:
    total = 0.0
    with no_grad():
        for k, reading in enumerate(readings):
            rng = np.random.default_rng([seed, 1_000_000 + epoch, k])
            total += _reading_loss(model, reading, model_cfg, rng).total
    return total / max(1, len(readings))


def train(model_cfg: ModelConfig, train_readings: list[Reading],
          val_readings: list[Reading], train_cfg: TrainConfig,
          out_dir: str, log=None) -> tuple[DetectorModel, LossCurve]:
    """Train a detector; writes loss_curve.csv, checkpoint_last/best.json."""
    if not train_readings:
        raise ValueError("train set is empty")
    os.makedirs(out_dir, exist_ok=True)
    model = DetectorModel(model_cfg)
    curve = LossCurve()
    best_val = np.inf
    step = 0
    for epoch in range(train_cfg.epochs):
        order = np.random.default_rng([train_cfg.seed, epoch]).permutation(len(train_readings))
        for k in order:
            rng = np.random.default_rng([train_cfg.seed, epoch, int(k)])
            try:
                loss = _reading_loss(model, train_readings[k], model_cfg, rng)
                loss.tensor.backward()
                sgd_step(model.param_list(), train_cfg.lr, train_cfg.momentum)
            except NumericsError as exc:
                raise RuntimeError(f"training diverged at step {step}: {exc}") from exc
            # drop the graph reference so the curve holds only scalars
            loss.tensor = None
            curve.steps.append((step, epoch, loss))
            if log and step % train_cfg.log_every == 0:
                log(f"step {step} epoch {epoch} total {loss.total:.4f}")
            step += 1
        last = os.path.join(out_dir, "checkpoint_last.json")
        save_checkpoint(last, model)
        val_set = val_readings if val_readings else train_readings
        val_loss = _epoch_val_loss(model, val_set, model_cfg, train_cfg.seed, epoch)
        if val_loss < best_val:
            best_val = val_loss
            # validation leaves the weights as just saved: copy, don't re-encode
            atomic_copy(last, os.path.join(out_dir, "checkpoint_best.json"))
        if log:
            log(f"epoch {epoch} done; val loss {val_loss:.4f}")
    atomic_write_text(os.path.join(out_dir, "loss_curve.csv"), curve.to_csv())
    return model, curve


def infer_dataset(model: DetectorModel, readings: list[Reading]):
    dets_by_reading = {}
    with no_grad():
        for reading in readings:
            image, fmap = _inputs_for(reading, model.config)
            out = model.forward(image, fmap, mode="infer")
            dets_by_reading[reading.id] = out.detections
    return dets_by_reading


def evaluate(model_or_path, readings: list[Reading], thresh: float = 0.5,
             kind: str = "iobb", model_tag: str = "model") -> mx.MetricsReport:
    """Inference over readings, class-partitioned AP/AR report."""
    if not readings:
        raise ValueError("cannot evaluate on an empty reading list")
    model = model_or_path if isinstance(model_or_path, DetectorModel) \
        else load_checkpoint(model_or_path)
    dets_by_reading = infer_dataset(model, readings)
    return report_from_detections(dets_by_reading, readings, thresh, kind, model_tag)


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
    reports: dict[str, mx.MetricsReport] = {}
    for tag, model_cfg in model_cfg_pairs:
        arm_dir = os.path.join(out_dir, tag)
        model, _curve = train(model_cfg, train_readings, val_readings, train_cfg,
                              arm_dir, log=log)
        dets = infer_dataset(model, test_readings)
        save_predictions(os.path.join(arm_dir, "predictions.json"), dets)
        report = report_from_detections(dets, test_readings, thresh, kind,
                                        model_tag=tag)
        mx.save_report(os.path.join(arm_dir, "report.json"),
                       os.path.join(arm_dir, "report.md"), report)
        reports[tag] = report
    atomic_write_text(os.path.join(out_dir, "comparison.md"),
                      comparison_markdown(reports))
    atomic_write_text(
        os.path.join(out_dir, "comparison.json"),
        json.dumps({tag: r.to_dict() for tag, r in reports.items()},
                   sort_keys=True, indent=1) + "\n",
    )
    return reports


def comparison_markdown(reports: dict[str, mx.MetricsReport]) -> str:
    """Two-column (per arm) table of AP/AR rows plus the average row."""
    tags = list(reports)
    first = reports[tags[0]]
    header = "| Abnormality |" + "".join(
        f" {tag} {reports[tag].ap_header()} | {tag} {reports[tag].ar_header()} |"
        for tag in tags
    )
    sep = "|---|" + "---|---|" * len(tags)
    lines = [header, sep]
    for i, row in enumerate(first.rows):
        cells = [REPORT_CLASS_TITLES[row.label]]
        for tag in tags:
            r = reports[tag].rows[i]
            cells.extend([mx.format_cell(r.ap), mx.format_cell(r.ar)])
        lines.append("| " + " | ".join(cells) + " |")
    cells = ["Average"]
    for rep in reports.values():
        cells.extend([mx.format_cell(rep.average_ap), mx.format_cell(rep.average_ar)])
    lines.append("| " + " | ".join(cells) + " |")
    for tag in tags:
        for w in reports[tag].warnings:
            lines.append(f"> {tag}: {w}")
    return "\n".join(lines) + "\n"
