"""Miniature two-branch detector: backbones, fusion, RPN, ROI-align, heads.

The model is a desk-scale region-proposal detector over grayscale grids.
An image branch and an optional fixation-map branch run through small
conv/pool backbones (stride 8, 32 feature channels by default); the two
are combined element-wise either on the raw inputs or on the feature maps.
A 3x3 RPN predicts per-anchor objectness and box deltas, proposals are
pooled with bilinear ROI-align, and small heads emit class logits and box
deltas for every proposal. The mask head emits per-class mask logits at ROI
resolution only for the rows that are read, as in Mask R-CNN: in training
the head positives (best IoU with a ground-truth box >= head_fg_thresh),
which hold every positive the mask loss can sample; in inference the
proposals behind the kept detections.

Total training loss = classification + bbox + mask, where classification is
RPN binary cross-entropy plus multiclass head cross-entropy, bbox is
smooth-L1 over positive anchors/proposals, and mask is binary cross-entropy
on the ground-truth class channel only.
"""

from __future__ import annotations

import base64
import math
import re
from dataclasses import asdict, dataclass, field, fields
from typing import ClassVar

import numpy as np

from . import autodiff as ad
from . import boxes as bx
from .autodiff import LayerParams, Tensor
from .dataset import ClassLabel, CLASS_NAMES, TargetBox, label_from_json
from .fileio import (atomic_write_bytes, json_check, json_field, json_known_keys, json_text,
                     read_json, refuse_non_finite, write_json)
from .gaze import FixationMap

CHECKPOINT_FORMAT = "gazedet-checkpoint-v3"


@dataclass
class ModelConfig:
    img_size: int = 64
    use_fixations: bool = False
    fusion_mode: str = "sum"  # "sum" | "mul"
    fusion_point: str = "feature"  # "input" | "feature"
    anchor_scales: tuple = (8.0, 16.0, 28.0)
    post_nms_top: int = 50  # 0 = head sees only appended gt boxes (train mode)
    roi_size: int = 7
    n_classes: int = 5
    seed: int = 0
    channels: tuple = (8, 16, 32, 32)
    rpn_channels: int = 32
    fc_dim: int = 64
    mask_channels: int = 16
    score_thresh: float = 0.05

    # fixed settings that no caller varies: class constants, not config fields
    feat_stride: ClassVar[int] = 8
    anchor_ratios: ClassVar[tuple] = (1.0,)
    infer_nms_thresh: ClassVar[float] = 0.5
    max_detections: ClassVar[int] = 100
    pre_nms_top: ClassVar[int] = 200
    rpn_nms_thresh: ClassVar[float] = 0.7
    rpn_fg_thresh: ClassVar[float] = 0.7
    rpn_bg_thresh: ClassVar[float] = 0.3
    head_fg_thresh: ClassVar[float] = 0.5
    head_bg_thresh: ClassVar[float] = 0.5
    rpn_batch: ClassVar[int] = 32
    proposals_per_step: ClassVar[int] = 32
    pos_fraction: ClassVar[float] = 0.25

    def __post_init__(self):
        if not self.anchor_scales:
            raise ValueError("anchor scales must be non-empty")
        for i, scale in enumerate(self.anchor_scales):
            if not 0 < scale < math.inf:
                raise ValueError(f"anchor_scales[{i}] must be finite and positive, got {scale!r}")
        if not 0 <= self.score_thresh <= 1:
            raise ValueError(f"score_thresh must lie in [0, 1], got {self.score_thresh!r}")
        if self.fusion_mode not in ("sum", "mul"):
            raise ValueError(f"unknown fusion_mode {self.fusion_mode!r}")
        if self.fusion_point not in ("input", "feature"):
            raise ValueError(f"unknown fusion_point {self.fusion_point!r}")
        if len(self.channels) != 4 or min(self.channels) < 1:
            raise ValueError(f"channels must give the 4 backbone widths, each >= 1, "
                             f"got {self.channels}")
        for name in ("rpn_channels", "fc_dim", "mask_channels", "roi_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)!r}")
        if self.img_size < self.feat_stride or self.img_size % self.feat_stride != 0:
            raise ValueError(f"img_size must be a positive multiple of the stride-8 backbone, "
                             f"got {self.img_size!r}")
        if not 1 <= self.n_classes <= len(ClassLabel):
            raise ValueError(f"n_classes must lie in [1, {len(ClassLabel)}], got {self.n_classes!r}")
        if self.post_nms_top < 0:
            raise ValueError(f"post_nms_top must be >= 0, got {self.post_nms_top!r}")

    @property
    def n_anchors_per_cell(self) -> int:
        return len(self.anchor_scales) * len(self.anchor_ratios)


@dataclass
class Detection:
    box: np.ndarray  # (4,) x_min, y_min, x_max, y_max
    label: ClassLabel
    score: float
    mask: np.ndarray  # (roi, roi) floats in [0, 1]


@dataclass
class LossBreakdown:
    classification: float
    bbox: float
    mask: float
    total: float
    tensor: Tensor = field(repr=False, default=None)


@dataclass
class DetectorOutput:
    anchors: np.ndarray
    rpn_obj: Tensor  # (n_anchors,)
    rpn_deltas: Tensor  # (n_anchors, 4)
    proposals: np.ndarray  # (R, 4), R may be 0
    cls_logits: Tensor  # (R, n_classes + 1)
    box_deltas: Tensor  # (R, 4)
    mask_logits: Tensor  # (M, n_classes, roi, roi), one per entry of mask_rows
    mask_rows: np.ndarray  # (M,) sorted proposal indices the mask head ran on
    detections: list[Detection] | None = None


ROI_SAMPLING = 2  # bilinear sample points per output cell along each axis


def _roi_axis_weights(lo: np.ndarray, hi: np.ndarray, extent: int, out_size: int) -> np.ndarray:
    """(r, out_size, extent) bilinear weights along one axis, averaged per cell."""
    frac = (np.arange(out_size * ROI_SAMPLING) + 0.5) / ROI_SAMPLING / out_size
    coord = lo[:, None] + frac[None, :] * (hi - lo)[:, None]
    u = np.clip(coord - 0.5, 0.0, extent - 1.0)
    i0 = np.floor(u).astype(np.intp)
    i1 = np.minimum(i0 + 1, extent - 1)
    w1 = (u - i0)[..., None]
    pix = np.arange(extent)
    w = (i0[..., None] == pix) * (1.0 - w1) + (i1[..., None] == pix) * w1
    return w.reshape(len(lo), out_size, ROI_SAMPLING, extent).mean(axis=2)


def roi_align(feat: Tensor, rois: np.ndarray, stride: int, out_size: int) -> Tensor:
    """Bilinear ROI pooling: each cell averages a ROI_SAMPLING^2 grid of samples.

    Boxes are image-coordinate (x0, y0, x1, y1); feature pixel centers sit
    at integer-plus-half coordinates in feature units. Bilinear sampling is
    separable, so ROI r pools channel c as ``Ay[r] @ F[c] @ Ax[r].T``.
    """
    if out_size < 1:
        raise ValueError("out_size must be >= 1")
    rois = np.asarray(rois, dtype=np.float64).reshape(-1, 4)
    n, c, fh, fw = feat.data.shape
    if n != 1:
        raise ad.ShapeError(f"roi_align expects batch 1, got {feat.data.shape}")
    r = len(rois)
    if np.any(rois[:, 2] <= rois[:, 0]) or np.any(rois[:, 3] <= rois[:, 1]):
        raise ValueError("roi_align given a degenerate (zero-area) box")

    b = rois / stride
    ay = _roi_axis_weights(b[:, 1], b[:, 3], fh, out_size).reshape(r * out_size, fh)
    ax = _roi_axis_weights(b[:, 0], b[:, 2], fw, out_size)  # (r, out, fw)
    # Ay F for all ROIs as one GEMM, then each ROI's rows through its own Ax^T
    ay_f = ay @ feat.data[0].transpose(1, 0, 2).reshape(fh, c * fw)
    out_data = ay_f.reshape(r, out_size * c, fw) @ ax.transpose(0, 2, 1)

    def dfeat(g):
        g_ax = g.transpose(0, 2, 1, 3).reshape(r, out_size * c, out_size) @ ax
        grad = ay.T @ g_ax.reshape(r * out_size, c * fw)
        return grad.reshape(fh, c, fw).transpose(1, 0, 2)[None]

    out_data = out_data.reshape(r, out_size, c, out_size).transpose(0, 2, 1, 3)
    return ad._node(out_data, ((feat, dfeat),), "roi_align output")


# ---------------------------------------------------------------------------
# model


def layer_shapes(config: ModelConfig) -> dict[str, tuple]:
    """Each layer's weight shape by name, in draw order; a bias has shape
    ``shape[:1]``. ``bb_fix_*`` come last, and only under feature fusion."""
    c, a, k = config.channels, config.n_anchors_per_cell, config.n_classes
    rc, fc, mc = config.rpn_channels, config.fc_dim, config.mask_channels
    backbone = [(co, ci, 3, 3) for co, ci in zip(c, (1,) + tuple(c[:-1]))]
    shapes = {f"bb_img_{i}": shape for i, shape in enumerate(backbone)}
    shapes.update(rpn_conv=(rc, c[-1], 3, 3), rpn_obj=(a, rc, 1, 1), rpn_delta=(4 * a, rc, 1, 1),
                  fc1=(fc, c[-1] * config.roi_size**2), cls=(k + 1, fc), box=(4, fc),
                  mask_conv=(mc, c[-1], 3, 3), mask_out=(k, mc, 1, 1))
    if config.use_fixations and config.fusion_point == "feature":
        shapes.update((f"bb_fix_{i}", shape) for i, shape in enumerate(backbone))
    return shapes


class DetectorModel:
    """Owns all layer parameters, drawn unless given; single-threaded during forward/backward."""

    def __init__(self, config: ModelConfig, params: dict[str, LayerParams] | None = None):
        self.config = config
        if params is None:
            # bb_fix_* has its own stream: shared layers match an image-only model's
            rng, fix_rng = (np.random.default_rng(s) for s in (config.seed, [config.seed, 7]))
            params = {name: ad.kaiming(shape, fix_rng if name.startswith("bb_fix") else rng)
                      for name, shape in layer_shapes(config).items()}
        self.params = params
        fs = config.img_size // config.feat_stride
        self.anchors = bx.generate_anchors(
            fs, fs, config.feat_stride,
            list(config.anchor_scales), list(config.anchor_ratios), config.img_size,
        )

    def _backbone(self, x: Tensor, prefix: str) -> Tensor:
        """Four 3x3 conv + ReLU layers with a 2x2 max-pool between each pair."""
        for i in range(len(self.config.channels)):
            if i:
                x = ad.maxpool2d(x, 2, 2)
            x = ad.relu(ad.conv2d(x, self.params[f"{prefix}_{i}"], stride=1, pad=1))
        return x

    def _as_grid_tensor(self, grid) -> Tensor:
        if isinstance(grid, FixationMap):
            grid = grid.values
        arr = np.asarray(grid, dtype=np.float64)
        if arr.shape != (self.config.img_size, self.config.img_size):
            raise ad.ShapeError(
                f"input grid shape {arr.shape} != configured "
                f"({self.config.img_size}, {self.config.img_size})"
            )
        return Tensor(arr[None, None])

    def fuse(self, image, fmap) -> Tensor:
        """Fused trunk features per the configured mode and point."""
        cfg = self.config
        x_img = self._as_grid_tensor(image)
        if not cfg.use_fixations:
            return self._backbone(x_img, "bb_img")
        if fmap is None:
            raise ValueError("fixation map required by this configuration")
        x_fix = self._as_grid_tensor(fmap)
        if cfg.fusion_point == "input":
            fused = ad.elementwise_combine(x_img, x_fix, cfg.fusion_mode)
            return self._backbone(fused, "bb_img")
        f_img = self._backbone(x_img, "bb_img")
        f_fix = self._backbone(x_fix, "bb_fix")
        return ad.elementwise_combine(f_img, f_fix, cfg.fusion_mode)

    def forward(self, image, fmap=None, mode: str = "infer",
                gt_boxes: np.ndarray | None = None) -> DetectorOutput:
        """Run the full pipeline.

        In train mode ``gt_boxes`` (if given, a (G, 4) array, G >= 0) are
        appended to the RPN proposals so the heads always see positives, and
        the mask head runs on the head positives they define; in infer mode
        it runs on the kept detections, and the Detection list is attached.
        """
        if mode not in ("train", "infer"):
            raise ValueError(f"unknown mode {mode!r}")
        cfg = self.config
        feat = self.fuse(image, fmap)
        fh, fw = feat.data.shape[2], feat.data.shape[3]
        a = cfg.n_anchors_per_cell

        h = ad.relu(ad.conv2d(feat, self.params["rpn_conv"], stride=1, pad=1))
        obj = ad.conv2d(h, self.params["rpn_obj"])  # (1, A, fh, fw)
        dlt = ad.conv2d(h, self.params["rpn_delta"])  # (1, 4A, fh, fw)
        # flatten to anchor order: per cell (row-major), then per (scale, ratio)
        rpn_obj = ad.reshape(ad.transpose(ad.reshape(obj, (a, fh, fw)), (1, 2, 0)), (-1,))
        rpn_deltas = ad.reshape(
            ad.transpose(ad.reshape(dlt, (a, 4, fh, fw)), (2, 3, 0, 1)), (-1, 4)
        )

        proposals = self._select_proposals(rpn_obj.data, rpn_deltas.data)
        if mode == "train":
            gt = np.zeros((0, 4)) if gt_boxes is None else np.asarray(gt_boxes, dtype=np.float64)
            proposals = np.concatenate([proposals, gt])

        pooled = roi_align(feat, proposals, cfg.feat_stride, cfg.roi_size)
        flat = ad.flatten(pooled)
        h1 = ad.relu(ad.linear(flat, self.params["fc1"]))
        cls_logits = ad.linear(h1, self.params["cls"])
        box_deltas = ad.linear(h1, self.params["box"])
        if mode == "train":
            # the positives of assign_targets(force_best=False): every row
            # compute_loss can sample as a positive for the same targets
            mask_rows = np.flatnonzero(
                (bx.iou_matrix(proposals, gt) >= cfg.head_fg_thresh).any(axis=1))
        else:
            picks, boxes, probs = self._pick_detections(proposals, cls_logits.data,
                                                        box_deltas.data)
            mask_rows, at = np.unique(np.array([i for i, _ in picks], dtype=np.intp),
                                      return_inverse=True)
        m = ad.relu(ad.conv2d(ad.gather_rows(pooled, mask_rows), self.params["mask_conv"],
                              stride=1, pad=1))
        mask_logits = ad.conv2d(m, self.params["mask_out"])

        out = DetectorOutput(self.anchors, rpn_obj, rpn_deltas, proposals,
                             cls_logits, box_deltas, mask_logits, mask_rows)
        if mode == "infer":
            out.detections = [
                Detection(boxes[i].copy(), ClassLabel(c - 1), float(probs[i, c]),
                          1.0 / (1.0 + np.exp(-mask_logits.data[k, c - 1])))
                for (i, c), k in zip(picks, at)
            ]
        return out

    def _select_proposals(self, obj_logits: np.ndarray, deltas: np.ndarray) -> np.ndarray:
        cfg = self.config
        decoded = bx.decode_boxes(self.anchors, deltas, cfg.img_size)
        valid = (decoded[:, 2] - decoded[:, 0] >= 1.0) & (decoded[:, 3] - decoded[:, 1] >= 1.0)
        decoded = decoded[valid]
        scores = obj_logits[valid]
        order = np.argsort(-scores, kind="stable")[: cfg.pre_nms_top]
        decoded, scores = decoded[order], scores[order]
        keep = bx.nms(decoded, scores, cfg.rpn_nms_thresh, max_keep=cfg.post_nms_top)
        return decoded[keep]

    def _pick_detections(self, proposals: np.ndarray, cls_logits: np.ndarray,
                         box_deltas: np.ndarray) -> tuple[list, np.ndarray, np.ndarray]:
        """The kept (row, class) pairs, best first, with the decoded boxes and
        class probabilities of every row.

        Per class, rows scoring at least ``score_thresh`` go through NMS; the
        survivors of all classes are sorted by (-score, box) and cut at
        ``max_detections``.
        """
        cfg = self.config
        z = cls_logits - cls_logits.max(axis=1, keepdims=True)
        ez = np.exp(z)
        probs = ez / ez.sum(axis=1, keepdims=True)
        boxes = bx.decode_boxes(proposals, box_deltas, cfg.img_size)
        valid = (boxes[:, 2] - boxes[:, 0] > 0) & (boxes[:, 3] - boxes[:, 1] > 0)
        picks: list[tuple[int, int]] = []
        for c in range(1, cfg.n_classes + 1):
            sc = probs[:, c]
            sel = np.flatnonzero((sc >= cfg.score_thresh) & valid)
            keep = bx.nms(boxes[sel], sc[sel], cfg.infer_nms_thresh)
            picks += [(int(i), c) for i in sel[keep]]
        picks.sort(key=lambda p: (-probs[p], tuple(boxes[p[0]])))
        return picks[: cfg.max_detections], boxes, probs


# ---------------------------------------------------------------------------
# target assignment and loss


@dataclass
class AssignResult:
    labels: np.ndarray  # 1 positive, 0 background, -1 ignored
    matched: np.ndarray  # gt index per box (-1 when unmatched)


def assign_targets(candidates: np.ndarray, targets: list[TargetBox],
                   fg_thresh: float, bg_thresh: float,
                   force_best: bool = True) -> AssignResult:
    """IoU-threshold assignment with the best anchor per target forced positive."""
    n = len(candidates)
    labels = np.zeros(n, dtype=np.int64)
    matched = np.full(n, -1, dtype=np.int64)
    if not targets or n == 0:
        return AssignResult(labels, matched)
    ious = bx.iou_matrix(candidates, _gt_boxes(targets))
    best_gt = ious.argmax(axis=1)
    best_iou = ious[np.arange(n), best_gt]
    labels[:] = -1
    labels[best_iou < bg_thresh] = 0
    labels[best_iou >= fg_thresh] = 1
    matched[labels == 1] = best_gt[labels == 1]
    if force_best:
        for g in range(len(targets)):
            i = int(ious[:, g].argmax())
            labels[i] = 1
            matched[i] = g
    return AssignResult(labels, matched)


def _sample_balanced(labels: np.ndarray, batch: int, pos_fraction: float,
                     rng: np.random.Generator) -> np.ndarray:
    # rng.choice(a, 0, replace=False) returns an empty array and draws no
    # numbers (numpy 2.4), so an empty side leaves the stream where it was
    pos = np.flatnonzero(labels == 1)
    neg = np.flatnonzero(labels == 0)
    n_pos = min(len(pos), max(1, int(round(batch * pos_fraction))))
    n_neg = min(len(neg), batch - n_pos)
    take = [rng.choice(pos, n_pos, replace=False), rng.choice(neg, n_neg, replace=False)]
    return np.sort(np.concatenate(take).astype(np.intp))


def _mask_targets(masks: np.ndarray, rois: np.ndarray, gt_idx: np.ndarray,
                  out_size: int) -> np.ndarray:
    """(R, out_size, out_size) targets: ROI r samples mask ``gt_idx[r]`` of the
    (G, H, W) stack at its cell centers, taking the pixel each falls in, clamped."""
    _, h, w = masks.shape
    t = np.arange(out_size) + 0.5
    xs = rois[:, 0:1] + t * (rois[:, 2:3] - rois[:, 0:1]) / out_size
    ys = rois[:, 1:2] + t * (rois[:, 3:4] - rois[:, 1:2]) / out_size
    xi = np.clip(np.floor(xs).astype(np.intp), 0, w - 1)
    yi = np.clip(np.floor(ys).astype(np.intp), 0, h - 1)
    return masks[gt_idx[:, None, None], yi[:, :, None], xi[:, None, :]].astype(np.float64)


def compute_loss(out: DetectorOutput, targets: list[TargetBox], config: ModelConfig,
                 rng: np.random.Generator) -> LossBreakdown:
    """Total loss = classification + bbox + mask (exact float sum); empty terms are 0."""
    gt = _gt_boxes(targets)
    # class index + 1 per target; the trailing 0 is what matched == -1 picks
    cls_of = np.array([int(t.label) + 1 for t in targets] + [0], dtype=np.int64)

    # RPN objectness + regression on anchors
    rpn_assign = assign_targets(out.anchors, targets, config.rpn_fg_thresh,
                                config.rpn_bg_thresh, force_best=True)
    samp = _sample_balanced(rpn_assign.labels, config.rpn_batch, 0.5, rng)
    rpn_cls = ad.bce_with_logits(
        ad.gather_rows(out.rpn_obj, samp), rpn_assign.labels[samp].astype(np.float64)
    )
    pos_a = np.flatnonzero(rpn_assign.labels == 1)
    reg_t = bx.encode_boxes(out.anchors[pos_a], gt[rpn_assign.matched[pos_a]])
    rpn_box = ad.smooth_l1(ad.gather_rows(out.rpn_deltas, pos_a), reg_t)

    # head terms over sampled proposals
    head_assign = assign_targets(out.proposals, targets, config.head_fg_thresh,
                                 config.head_bg_thresh, force_best=False)
    hsamp = _sample_balanced(head_assign.labels, config.proposals_per_step,
                             config.pos_fraction, rng)
    matched = head_assign.matched[hsamp]
    head_ce = ad.softmax_cross_entropy(ad.gather_rows(out.cls_logits, hsamp), cls_of[matched])
    is_pos = matched >= 0
    pos_p, pos_gt = hsamp[is_pos], matched[is_pos]
    reg_t = bx.encode_boxes(out.proposals[pos_p], gt[pos_gt])
    head_box = ad.smooth_l1(ad.gather_rows(out.box_deltas, pos_p), reg_t)
    masks = np.array([t.mask for t in targets]).reshape(-1, config.img_size, config.img_size)
    mt = _mask_targets(masks, out.proposals[pos_p], pos_gt, config.roi_size)
    # each positive's entry among the mask rows; the trailing -1 is what an
    # index past the end picks, and it matches no proposal
    at = np.searchsorted(out.mask_rows, pos_p)
    missing = pos_p[np.append(out.mask_rows, -1)[at] != pos_p]
    if missing.size:
        raise ValueError(f"sampled positive proposal {missing[0]} has no mask row: "
                         "forward was given other ground-truth boxes than these targets")
    sel = ad.take_channel_per_row(ad.gather_rows(out.mask_logits, at), cls_of[pos_gt] - 1)
    mask_loss = ad.bce_with_logits(sel, mt)

    cls_t = rpn_cls + head_ce
    box_t = rpn_box + head_box
    c, b, mval = cls_t.item(), box_t.item(), mask_loss.item()
    return LossBreakdown(
        classification=c, bbox=b, mask=mval, total=c + b + mval,
        tensor=cls_t + box_t + mask_loss,
    )


def _gt_boxes(targets: list[TargetBox]) -> np.ndarray:
    return np.array([t.xyxy for t in targets], dtype=np.float64).reshape(-1, 4)


def train_loss(model: DetectorModel, image, fmap, targets: list[TargetBox],
               rng: np.random.Generator) -> LossBreakdown:
    """The training loss recipe: train-mode forward pass with the ground-truth
    boxes appended to the proposals, then ``compute_loss``."""
    out = model.forward(image, fmap, mode="train", gt_boxes=_gt_boxes(targets))
    return compute_loss(out, targets, model.config, rng)


# ---------------------------------------------------------------------------
# checkpoints and prediction files


def _encode_array(a: np.ndarray, where: str) -> dict:
    """An array as its shape and its little-endian float64 bytes in base64.

    A non-finite value, which ``_decode_array`` would refuse, raises
    ValueError prefixed with ``where``.
    """
    refuse_non_finite(a, where)
    raw = a.astype("<f8", copy=False).tobytes()
    return {"shape": list(a.shape), "f64_base64": base64.b64encode(raw).decode("ascii")}


def _decode_array(entry, shape: tuple, where: str) -> np.ndarray:
    """The owned, writable float64 array of an ``_encode_array`` entry.

    Raises ValueError, prefixed with ``where``, on a shape other than
    ``shape``, text outside the base64 alphabet, a byte count other than
    ``8 * prod(shape)`` or a non-finite value.
    """
    if json_check(entry, dict, where).get("shape") != list(shape):
        raise ValueError(f"{where}: shape {entry.get('shape')!r}, "
                         f"the model's layer has {list(shape)}")
    text = json_field(entry, "f64_base64", str, where)
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError as exc:  # binascii.Error, or a non-ASCII str
        bad = re.search(r"[^A-Za-z0-9+/=]", text)
        detail = f"character {bad.group()!r} at offset {bad.start()}" if bad else exc
        raise ValueError(f"{where}: f64_base64 is not base64 text: {detail}") from exc
    want = 8 * int(np.prod(shape))
    if len(raw) != want:
        raise ValueError(f"{where}: {len(raw)} bytes of float64 data, shape {list(shape)} "
                         f"needs {want}")
    arr = np.frombuffer(raw, dtype="<f8").reshape(shape).astype(np.float64)
    refuse_non_finite(arr, where)
    return arr


_BODY_PLACEHOLDER = re.compile(r'(?<="f64_base64": ")@(\d+)(?=")')


def save_checkpoint(path: str, model: DetectorModel) -> None:
    """Write ``model`` as a ``CHECKPOINT_FORMAT`` JSON file (see README).

    The file text is ``json_text(path, payload, sort_keys=True)``.
    A non-finite weight raises ValueError naming the file, the layer, the
    field and the flat index, as ``load_checkpoint`` would, and nothing is
    written.
    """
    bodies = []

    def entry(a: np.ndarray, where: str) -> dict:
        out = _encode_array(a, where)
        bodies.append(out["f64_base64"].encode("ascii"))
        out["f64_base64"] = f"@{len(bodies) - 1}"
        return out

    payload = {
        "format": CHECKPOINT_FORMAT,
        "config": asdict(model.config),
        "params": {
            name: {
                "kind": p.kind,
                "weights": entry(p.weights.data, f"{path}: layer {name!r} weights"),
                "bias": entry(p.bias.data, f"{path}: layer {name!r} bias"),
            }
            for name, p in sorted(model.params.items())
        },
    }
    # base64 text needs no JSON escapes, so each body is written as its own
    # chunk in place of its "@k" placeholder rather than scanned by the encoder
    parts = _BODY_PLACEHOLDER.split(json_text(path, payload, sort_keys=True))
    atomic_write_bytes(path, *(bodies[int(part)] if k % 2 else part.encode()
                               for k, part in enumerate(parts)))


def _config_from_json(obj: dict, where: str) -> dict:
    """The ``ModelConfig`` keyword arguments saved in ``obj``. Each field
    holds the JSON kind of its default; a tuple default is saved as a list
    whose items hold the kind of its first item. Errors name ``where``."""
    defaults = {f.name: f.default for f in fields(ModelConfig)}
    json_known_keys(obj, defaults, where)
    values = {}
    for name, default in defaults.items():
        if isinstance(default, tuple):
            items = json_field(obj, name, list, where)
            values[name] = tuple(json_check(v, type(default[0]), f"{where}: {name}[{i}]")
                                 for i, v in enumerate(items))
        else:
            values[name] = json_field(obj, name, type(default), where)
    return values


def load_checkpoint(path: str) -> DetectorModel:
    """Read a file written by ``save_checkpoint``; errors name the file."""
    payload = read_json(path)
    fmt = payload.get("format") if isinstance(payload, dict) else None
    if fmt != CHECKPOINT_FORMAT:
        raise ValueError(f"{path}: format {fmt!r} is not {CHECKPOINT_FORMAT!r}")
    json_known_keys(payload, ("format", "config", "params"), path)
    where = f"{path}: config"
    values = _config_from_json(json_field(payload, "config", dict, path), where)
    try:
        config = ModelConfig(**values)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from exc
    shapes = layer_shapes(config)
    entries = json_known_keys(json_field(payload, "params", dict, path), shapes, f"{path}: params")
    params = {}
    for name, shape in shapes.items():
        entry = json_field(entries, name, dict, f"{path}: params")
        where = f"{path}: layer {name!r}"
        json_known_keys(entry, ("kind", "weights", "bias"), where)
        w, b = (_decode_array(json_field(entry, fld, dict, where), s, f"{where} {fld}")
                for fld, s in (("weights", shape), ("bias", shape[:1])))
        p = params[name] = LayerParams(Tensor(w, requires_grad=True), Tensor(b, requires_grad=True))
        if json_field(entry, "kind", str, where) != p.kind:
            raise ValueError(f"{where}: kind {entry['kind']!r}, the model's layer is {p.kind!r}")
    return DetectorModel(config, params)


def predictions_to_json(dets_by_reading: dict[str, list[Detection]]) -> list[dict]:
    rows = []
    for reading_id in sorted(dets_by_reading):
        for d in dets_by_reading[reading_id]:
            rows.append({
                "reading_id": reading_id,
                "box": [float(v) for v in d.box],
                "label": CLASS_NAMES[d.label],
                "score": d.score,
            })
    return rows


def predictions_from_json(rows, where: str = "predictions") -> dict[str, list[Detection]]:
    """Detections per reading from the rows of a predictions file.

    A row is an object with a string ``reading_id``, a ``box`` of four
    finite numbers with x0 < x1 and y0 < y1, a known class ``label`` and a
    finite ``score`` in [0, 1]. Anything else raises ValueError naming
    ``where``, the row, the field and the value.
    """
    out: dict[str, list[Detection]] = {}
    for i, row in enumerate(json_check(rows, list, where)):
        at = f"{where}: row {i}"
        rid = json_field(row, "reading_id", str, at)
        box = [json_check(v, float, f"{at}: box[{j}]")
               for j, v in enumerate(json_field(row, "box", list, at))]
        if not (len(box) == 4 and box[0] < box[2] and box[1] < box[3]):
            raise ValueError(f"{at}: box {box!r} is not four numbers with x0 < x1 and y0 < y1")
        label = label_from_json(row, at)
        score = json_field(row, "score", float, at)
        if not 0.0 <= score <= 1.0:
            raise ValueError(f"{at}: score {score!r} is not in [0, 1]")
        det = Detection(
            box=np.asarray(box, dtype=np.float64),
            label=label,
            score=float(score),
            mask=np.zeros((ModelConfig.roi_size, ModelConfig.roi_size)),
        )
        out.setdefault(rid, []).append(det)
    return out


def load_predictions(path: str) -> dict[str, list[Detection]]:
    """Read a file written by ``save_predictions``; errors name the file."""
    return predictions_from_json(read_json(path), path)


def save_predictions(path: str, dets_by_reading: dict[str, list[Detection]]) -> None:
    write_json(path, predictions_to_json(dets_by_reading))
