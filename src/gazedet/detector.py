"""Miniature two-branch detector: backbones, fusion, RPN, ROI-align, heads.

The model is a desk-scale region-proposal detector over grayscale grids.
An image branch and an optional fixation-map branch run through small
conv/pool backbones (stride 8, 32 feature channels by default); the two
are combined element-wise either on the raw inputs or on the feature maps.
A 3x3 RPN predicts per-anchor objectness and box deltas, proposals are
pooled with bilinear ROI-align, and small heads emit class logits, box
deltas and per-class mask logits at ROI resolution. The heads run only on
the rows that are read, as in Mask R-CNN (He et al., 2017, section 3).
In training the forward pass assigns the anchors and the proposals to the
targets and draws the two loss minibatches from the step's generator, the
RPN anchors first and the proposals second; the box heads then run on the
sampled proposals and the mask head on the sampled positives. In inference
the box heads run on every proposal and the mask head on the proposals
behind the kept detections.

Total training loss = classification + bbox + mask, where classification is
RPN binary cross-entropy on the sampled anchors plus multiclass head
cross-entropy on the sampled proposals, bbox is smooth-L1 over every
positive anchor and the sampled positive proposals, and mask is binary
cross-entropy on the ground-truth class channel of the sampled positives.
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
        # numpy seeds only with non-negative integers; bool is refused too
        if type(self.seed) is not int or self.seed < 0:
            raise ValueError(f"seed must be an int >= 0, got {self.seed!r}")

    @property
    def n_anchors_per_cell(self) -> int:
        return len(self.anchor_scales) * len(self.anchor_ratios)


@dataclass
class Detection:
    box: np.ndarray  # (4,) x_min, y_min, x_max, y_max
    label: ClassLabel
    score: float
    mask: np.ndarray | None  # (roi, roi) floats in [0, 1]; None when read from predictions


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
    proposals: np.ndarray  # (R, 4) every proposal, R may be 0
    head_rows: np.ndarray  # (S,) sorted proposal indices the box heads ran on
    cls_logits: Tensor  # (S, n_classes + 1), one per entry of head_rows
    box_deltas: Tensor  # (S, 4), one per entry of head_rows
    mask_logits: Tensor  # (M, n_classes, roi, roi), one per entry of mask_rows
    mask_rows: np.ndarray  # (M,) sorted proposal indices the mask head ran on
    detections: list[Detection] | None = None  # infer mode only
    targets: list[TargetBox] | None = None  # train mode only
    # train mode only: the anchors and the proposals against the targets, and
    # the sampled anchor rows of the RPN loss (head_rows is the proposal sample)
    rpn: AssignResult | None = None
    rpn_rows: np.ndarray | None = None
    head: AssignResult | None = None


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
        """Four 3x3 convs: conv -> 2x2 max-pool -> ReLU three times, then
        conv -> ReLU.

        Pooling first gives conv -> ReLU -> pool's values and gradients bit
        for bit, with the ReLU on a quarter of the elements: max and ReLU
        commute, and the pool routes a window's gradient to the same tap or,
        where the window's max is <= 0, routes a zero.
        """
        last = len(self.config.channels) - 1
        for i in range(last + 1):
            x = ad.conv2d(x, self.params[f"{prefix}_{i}"], stride=1, pad=1)
            x = ad.relu(x if i == last else ad.maxpool2d(x, 2, 2))
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
                targets: list[TargetBox] | None = None,
                rng: np.random.Generator | None = None) -> DetectorOutput:
        """Run the full pipeline.

        In train mode the boxes of ``targets`` (none if not given) are
        appended to the RPN proposals so the heads always see positives.
        The anchors and the proposals are assigned to the targets, and
        ``rng`` draws the RPN's anchor sample, then the proposal sample.
        The box heads run on the sampled proposals and the mask head on the
        sampled positives. In infer mode the box heads run on every proposal
        and the mask head on the kept detections, and the Detection list is
        attached.
        """
        if mode not in ("train", "infer"):
            raise ValueError(f"unknown mode {mode!r}")
        if mode == "train" and rng is None:
            raise ValueError("train mode needs the step's generator (rng) to sample the loss rows")
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
            targets = targets or []
            proposals = np.concatenate([proposals, _gt_boxes(targets)])
            head = assign_targets(proposals, targets, cfg.head_fg_thresh, cfg.head_bg_thresh,
                                  force_best=False)
            rpn = assign_targets(self.anchors, targets, cfg.rpn_fg_thresh, cfg.rpn_bg_thresh,
                                 force_best=True)
            rpn_rows = _sample_balanced(rpn.labels, cfg.rpn_batch, 0.5, rng)
            head_rows = _sample_balanced(head.labels, cfg.proposals_per_step,
                                         cfg.pos_fraction, rng)
        else:
            head_rows = np.arange(len(proposals))

        rois = proposals[head_rows]
        pooled = roi_align(feat, rois, cfg.feat_stride, cfg.roi_size)
        flat = ad.flatten(pooled)
        h1 = ad.relu(ad.linear(flat, self.params["fc1"]))
        cls_logits = ad.linear(h1, self.params["cls"])
        box_deltas = ad.linear(h1, self.params["box"])
        if mode == "train":
            mask_at = np.flatnonzero(head.labels[head_rows] == 1)
        else:
            rows, classes, boxes, probs = self._pick_detections(rois, cls_logits.data,
                                                                box_deltas.data)
            mask_at, at = np.unique(rows, return_inverse=True)
        m = ad.relu(ad.conv2d(ad.gather_rows(pooled, mask_at), self.params["mask_conv"],
                              stride=1, pad=1))
        mask_logits = ad.conv2d(m, self.params["mask_out"])

        out = DetectorOutput(self.anchors, rpn_obj, rpn_deltas, proposals, head_rows,
                             cls_logits, box_deltas, mask_logits, head_rows[mask_at])
        if mode == "train":
            out.targets, out.rpn, out.rpn_rows, out.head = targets, rpn, rpn_rows, head
        else:
            # one array of just the kept masks: each Detection holds a row of it
            masks = ad._stable_sigmoid(mask_logits.data[at, classes - 1])
            out.detections = [
                Detection(boxes[i].copy(), ClassLabel(c - 1), float(probs[i, c]), mask)
                for i, c, mask in zip(rows.tolist(), classes.tolist(), masks)
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
                         box_deltas: np.ndarray) -> tuple[np.ndarray, ...]:
        """The rows and classes of the kept detections, best first, with the
        decoded boxes and class probabilities of every row.

        Per class, rows scoring at least ``score_thresh`` go through NMS; the
        survivors of all classes are ranked by ``boxes.rank_order`` (ties in
        class order, then NMS order) and cut at ``max_detections``.
        """
        cfg = self.config
        z = cls_logits - cls_logits.max(axis=1, keepdims=True)
        ez = np.exp(z)
        probs = ez / ez.sum(axis=1, keepdims=True)
        boxes = bx.decode_boxes(proposals, box_deltas, cfg.img_size)
        valid = (boxes[:, 2] - boxes[:, 0] > 0) & (boxes[:, 3] - boxes[:, 1] > 0)
        rows, classes = [], []
        for c in range(1, cfg.n_classes + 1):
            sc = probs[:, c]
            sel = np.flatnonzero((sc >= cfg.score_thresh) & valid)
            rows.append(sel[bx.nms(boxes[sel], sc[sel], cfg.infer_nms_thresh)])
            classes.append(np.full(len(rows[-1]), c, dtype=np.intp))
        rows, classes = np.concatenate(rows), np.concatenate(classes)
        best = bx.rank_order(probs[rows, classes], boxes[rows])[: cfg.max_detections]
        return rows[best], classes[best], boxes, probs


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


def compute_loss(out: DetectorOutput, config: ModelConfig) -> LossBreakdown:
    """Total loss = classification + bbox + mask (exact float sum) of a
    train-mode output, against its targets, on the rows its forward pass
    sampled; empty terms are 0."""
    targets = out.targets
    gt = _gt_boxes(targets)
    # class index + 1 per target; the trailing 0 is what matched == -1 picks
    cls_of = np.array([int(t.label) + 1 for t in targets] + [0], dtype=np.int64)

    # RPN objectness on the sampled anchors, regression on every positive one
    rpn, samp = out.rpn, out.rpn_rows
    rpn_cls = ad.bce_with_logits(
        ad.gather_rows(out.rpn_obj, samp), rpn.labels[samp].astype(np.float64)
    )
    pos_a = np.flatnonzero(rpn.labels == 1)
    reg_t = bx.encode_boxes(out.anchors[pos_a], gt[rpn.matched[pos_a]])
    rpn_box = ad.smooth_l1(ad.gather_rows(out.rpn_deltas, pos_a), reg_t)

    # head terms: the heads ran on the sampled proposals, the mask head on
    # their positives, which are the mask rows in order
    matched = out.head.matched[out.head_rows]
    head_ce = ad.softmax_cross_entropy(out.cls_logits, cls_of[matched])
    is_pos = matched >= 0
    pos_p, pos_gt = out.mask_rows, matched[is_pos]
    reg_t = bx.encode_boxes(out.proposals[pos_p], gt[pos_gt])
    head_box = ad.smooth_l1(ad.gather_rows(out.box_deltas, np.flatnonzero(is_pos)), reg_t)
    masks = np.array([t.mask for t in targets]).reshape(-1, config.img_size, config.img_size)
    mt = _mask_targets(masks, out.proposals[pos_p], pos_gt, config.roi_size)
    sel = ad.take_channel_per_row(out.mask_logits, cls_of[pos_gt] - 1)
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
    """The training loss recipe: train-mode forward pass against the targets,
    which draws the loss rows from ``rng``, then ``compute_loss``."""
    return compute_loss(model.forward(image, fmap, "train", targets, rng), model.config)


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
    ``where``, the row, the field and the value. The file holds no masks, so
    each Detection's ``mask`` is None.
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
        det = Detection(np.asarray(box, dtype=np.float64), label, float(score), mask=None)
        out.setdefault(rid, []).append(det)
    return out


def load_predictions(path: str) -> dict[str, list[Detection]]:
    """Read a file written by ``save_predictions``; errors name the file."""
    return predictions_from_json(read_json(path), path)


def save_predictions(path: str, dets_by_reading: dict[str, list[Detection]]) -> None:
    write_json(path, predictions_to_json(dets_by_reading))
