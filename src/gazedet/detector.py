"""Miniature two-branch detector: backbones, fusion, RPN, ROI-align, heads.

The model is a desk-scale region-proposal detector over grayscale grids.
An image branch and an optional fixation-map branch run through small
conv/pool backbones (stride 8, 32 feature channels by default); the two
are combined element-wise either on the raw inputs or on the feature maps.
A 3x3 RPN predicts per-anchor objectness and box deltas, proposals are
pooled with bilinear ROI-align, and small heads emit class logits, box
deltas, and per-class mask logits at ROI resolution.

Total training loss = classification + bbox + mask, where classification is
RPN binary cross-entropy plus multiclass head cross-entropy, bbox is
smooth-L1 over positive anchors/proposals, and mask is binary cross-entropy
on the ground-truth class channel only.
"""

from __future__ import annotations

import base64
import json
import re
import sys
from dataclasses import asdict, dataclass, field, fields
from typing import ClassVar

import numpy as np

from . import autodiff as ad
from . import boxes as bx
from .autodiff import LayerParams, Tensor
from .dataset import ClassLabel, CLASS_NAMES, NAME_TO_CLASS, TargetBox
from .fileio import atomic_write_text
from .gaze import FixationMap

CHECKPOINT_FORMAT = "gazedet-checkpoint-v3"


@dataclass
class ModelConfig:
    img_size: int = 64
    use_fixations: bool = False
    fusion_mode: str = "sum"  # "sum" | "mul"
    fusion_point: str = "feature"  # "input" | "feature"
    anchor_scales: tuple = (8.0, 16.0, 28.0)
    anchor_ratios: tuple = (1.0,)
    post_nms_top: int = 50  # 0 = head sees only appended gt boxes (train mode)
    roi_size: int = 7
    n_classes: int = 5
    seed: int = 0
    channels: tuple = (8, 16, 32, 32)
    rpn_channels: int = 32
    fc_dim: int = 64
    mask_channels: int = 16
    score_thresh: float = 0.05
    infer_nms_thresh: float = 0.5
    max_detections: int = 100

    # fixed proposal and sampling settings: class constants, not config fields
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
        if not self.anchor_scales or not self.anchor_ratios:
            raise ValueError("anchor scales and ratios must be non-empty")
        if self.fusion_mode not in ("sum", "mul"):
            raise ValueError(f"unknown fusion_mode {self.fusion_mode!r}")
        if self.fusion_point not in ("input", "feature"):
            raise ValueError(f"unknown fusion_point {self.fusion_point!r}")
        if self.img_size % 8 != 0:
            raise ValueError("img_size must be a multiple of the stride-8 backbone")

    @property
    def feat_stride(self) -> int:
        return 8

    @property
    def feat_size(self) -> int:
        return self.img_size // self.feat_stride

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
    mask_logits: Tensor  # (R, n_classes, roi, roi)
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

    def backward(g):
        if not feat.tracked:
            return
        g_ax = g.transpose(0, 2, 1, 3).reshape(r, out_size * c, out_size) @ ax
        grad = ay.T @ g_ax.reshape(r * out_size, c * fw)
        feat.accumulate_grad(grad.reshape(fh, c, fw).transpose(1, 0, 2)[None])

    out_data = out_data.reshape(r, out_size, c, out_size).transpose(0, 2, 1, 3)
    return ad._node(out_data, (feat,), backward, "roi_align output")


# ---------------------------------------------------------------------------
# model


_SHARED_LAYER_ORDER = [
    "bb_img_0", "bb_img_1", "bb_img_2", "bb_img_3",
    "rpn_conv", "rpn_obj", "rpn_delta",
    "fc1", "cls", "box", "mask_conv", "mask_out",
]
_FIX_LAYER_ORDER = ["bb_fix_0", "bb_fix_1", "bb_fix_2", "bb_fix_3"]


class DetectorModel:
    """Owns all layer parameters; single-threaded during forward/backward."""

    def __init__(self, config: ModelConfig):
        self.config = config
        c1, c2, c3, c4 = config.channels
        a = config.n_anchors_per_cell
        k = config.n_classes
        rng = np.random.default_rng(config.seed)
        p: dict[str, LayerParams] = {}
        p["bb_img_0"] = ad.kaiming_conv(c1, 1, 3, 3, rng)
        p["bb_img_1"] = ad.kaiming_conv(c2, c1, 3, 3, rng)
        p["bb_img_2"] = ad.kaiming_conv(c3, c2, 3, 3, rng)
        p["bb_img_3"] = ad.kaiming_conv(c4, c3, 3, 3, rng)
        p["rpn_conv"] = ad.kaiming_conv(config.rpn_channels, c4, 3, 3, rng)
        p["rpn_obj"] = ad.kaiming_conv(a, config.rpn_channels, 1, 1, rng)
        p["rpn_delta"] = ad.kaiming_conv(4 * a, config.rpn_channels, 1, 1, rng)
        p["fc1"] = ad.kaiming_linear(config.fc_dim, c4 * config.roi_size**2, rng)
        p["cls"] = ad.kaiming_linear(k + 1, config.fc_dim, rng)
        p["box"] = ad.kaiming_linear(4, config.fc_dim, rng)
        p["mask_conv"] = ad.kaiming_conv(config.mask_channels, c4, 3, 3, rng)
        p["mask_out"] = ad.kaiming_conv(k, config.mask_channels, 1, 1, rng)
        if config.use_fixations and config.fusion_point == "feature":
            # separate stream so shared layers stay identical to an
            # image-only model built from the same seed
            frng = np.random.default_rng([config.seed, 7])
            p["bb_fix_0"] = ad.kaiming_conv(c1, 1, 3, 3, frng)
            p["bb_fix_1"] = ad.kaiming_conv(c2, c1, 3, 3, frng)
            p["bb_fix_2"] = ad.kaiming_conv(c3, c2, 3, 3, frng)
            p["bb_fix_3"] = ad.kaiming_conv(c4, c3, 3, 3, frng)
        self.params = p
        self._anchors = bx.generate_anchors(
            config.feat_size, config.feat_size, config.feat_stride,
            list(config.anchor_scales), list(config.anchor_ratios), config.img_size,
        )

    @property
    def anchors(self) -> np.ndarray:
        return self._anchors

    def param_list(self) -> list[LayerParams]:
        order = _SHARED_LAYER_ORDER + [n for n in _FIX_LAYER_ORDER if n in self.params]
        return [self.params[n] for n in order]

    def _backbone(self, x: Tensor, prefix: str) -> Tensor:
        h = ad.relu(ad.conv2d(x, self.params[prefix + "_0"], stride=1, pad=1))
        h = ad.maxpool2d(h, 2, 2)
        h = ad.relu(ad.conv2d(h, self.params[prefix + "_1"], stride=1, pad=1))
        h = ad.maxpool2d(h, 2, 2)
        h = ad.relu(ad.conv2d(h, self.params[prefix + "_2"], stride=1, pad=1))
        h = ad.maxpool2d(h, 2, 2)
        return ad.relu(ad.conv2d(h, self.params[prefix + "_3"], stride=1, pad=1))

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

    def backbone_forward(self, grid) -> Tensor:
        """Image-branch features: stride-8 spatial reduction."""
        return self._backbone(self._as_grid_tensor(grid), "bb_img")

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

        In train mode ``gt_boxes`` (if given) are appended to the RPN
        proposals so the heads always see positives; in infer mode the
        Detection list is attached.
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
        if mode == "train" and gt_boxes is not None and len(gt_boxes):
            proposals = np.concatenate([proposals, np.asarray(gt_boxes, dtype=np.float64)])

        pooled = roi_align(feat, proposals, cfg.feat_stride, cfg.roi_size)
        flat = ad.flatten(pooled)
        h1 = ad.relu(ad.linear(flat, self.params["fc1"]))
        cls_logits = ad.linear(h1, self.params["cls"])
        box_deltas = ad.linear(h1, self.params["box"])
        m = ad.relu(ad.conv2d(pooled, self.params["mask_conv"], stride=1, pad=1))
        mask_logits = ad.conv2d(m, self.params["mask_out"])

        out = DetectorOutput(self._anchors, rpn_obj, rpn_deltas, proposals,
                             cls_logits, box_deltas, mask_logits)
        if mode == "infer":
            out.detections = self._postprocess(out)
        return out

    def _select_proposals(self, obj_logits: np.ndarray, deltas: np.ndarray) -> np.ndarray:
        cfg = self.config
        decoded = bx.decode_boxes(self._anchors, deltas, cfg.img_size)
        valid = (decoded[:, 2] - decoded[:, 0] >= 1.0) & (decoded[:, 3] - decoded[:, 1] >= 1.0)
        decoded = decoded[valid]
        scores = obj_logits[valid]
        order = np.argsort(-scores, kind="stable")[: cfg.pre_nms_top]
        decoded, scores = decoded[order], scores[order]
        keep = bx.nms(decoded, scores, cfg.rpn_nms_thresh)[: cfg.post_nms_top]
        return decoded[keep]

    def _postprocess(self, out: DetectorOutput) -> list[Detection]:
        cfg = self.config
        z = out.cls_logits.data
        z = z - z.max(axis=1, keepdims=True)
        ez = np.exp(z)
        probs = ez / ez.sum(axis=1, keepdims=True)
        boxes = bx.decode_boxes(out.proposals, out.box_deltas.data, cfg.img_size)
        valid = (boxes[:, 2] - boxes[:, 0] > 0) & (boxes[:, 3] - boxes[:, 1] > 0)
        dets: list[Detection] = []
        for c in range(1, cfg.n_classes + 1):
            sc = probs[:, c]
            sel = np.flatnonzero((sc >= cfg.score_thresh) & valid)
            if len(sel) == 0:
                continue
            keep = bx.nms(boxes[sel], sc[sel], cfg.infer_nms_thresh)
            for i in sel[keep]:
                mask = 1.0 / (1.0 + np.exp(-out.mask_logits.data[i, c - 1]))
                dets.append(Detection(boxes[i].copy(), ClassLabel(c - 1), float(sc[i]), mask))
        dets.sort(key=lambda d: (-d.score, tuple(d.box)))
        return dets[: cfg.max_detections]


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
    gt = np.stack([t.xyxy for t in targets])
    ious = bx.iou_matrix(candidates, gt)
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
    pos = np.flatnonzero(labels == 1)
    neg = np.flatnonzero(labels == 0)
    n_pos = min(len(pos), max(1, int(round(batch * pos_fraction)))) if len(pos) else 0
    n_neg = min(len(neg), batch - n_pos)
    take_pos = rng.choice(pos, n_pos, replace=False) if n_pos else np.empty(0, np.intp)
    take_neg = rng.choice(neg, n_neg, replace=False) if n_neg else np.empty(0, np.intp)
    return np.sort(np.concatenate([take_pos, take_neg]).astype(np.intp))


def _mask_target(gt_mask: np.ndarray, roi: np.ndarray, out_size: int) -> np.ndarray:
    """Resample the full-resolution binary mask inside a proposal to ROI size."""
    h, w = gt_mask.shape
    x0, y0, x1, y1 = roi
    xs = x0 + (np.arange(out_size) + 0.5) * (x1 - x0) / out_size
    ys = y0 + (np.arange(out_size) + 0.5) * (y1 - y0) / out_size
    xi = np.clip(np.floor(xs).astype(np.intp), 0, w - 1)
    yi = np.clip(np.floor(ys).astype(np.intp), 0, h - 1)
    return gt_mask[np.ix_(yi, xi)].astype(np.float64)


def compute_loss(out: DetectorOutput, targets: list[TargetBox], config: ModelConfig,
                 rng: np.random.Generator) -> LossBreakdown:
    """Total loss = classification + bbox + mask (exact float sum)."""
    zero = Tensor(0.0)
    gt = _gt_boxes(targets)

    # RPN objectness + regression on anchors
    rpn_assign = assign_targets(out.anchors, targets, config.rpn_fg_thresh,
                                config.rpn_bg_thresh, force_best=True)
    samp = _sample_balanced(rpn_assign.labels, config.rpn_batch, 0.5, rng)
    if len(samp):
        rpn_cls = ad.bce_with_logits(
            ad.gather_rows(out.rpn_obj, samp), rpn_assign.labels[samp].astype(np.float64)
        )
    else:
        rpn_cls = zero
    pos_a = np.flatnonzero(rpn_assign.labels == 1)
    if len(pos_a):
        reg_t = bx.encode_boxes(out.anchors[pos_a], gt[rpn_assign.matched[pos_a]])
        rpn_box = ad.smooth_l1(ad.gather_rows(out.rpn_deltas, pos_a), reg_t)
    else:
        rpn_box = zero

    # head terms over sampled proposals
    head_ce = head_box = mask_loss = zero
    head_assign = assign_targets(out.proposals, targets, config.head_fg_thresh,
                                 config.head_bg_thresh, force_best=False)
    hsamp = _sample_balanced(head_assign.labels, config.proposals_per_step,
                             config.pos_fraction, rng)
    if len(hsamp):
        # class index + 1 per target; the trailing 0 is what matched == -1 picks
        cls_of = np.array([int(t.label) + 1 for t in targets] + [0], dtype=np.int64)
        matched = head_assign.matched[hsamp]
        head_ce = ad.softmax_cross_entropy(
            ad.gather_rows(out.cls_logits, hsamp), cls_of[matched]
        )
        is_pos = matched >= 0
        pos_p, pos_gt = hsamp[is_pos], matched[is_pos]
        if len(pos_p):
            reg_t = bx.encode_boxes(out.proposals[pos_p], gt[pos_gt])
            head_box = ad.smooth_l1(ad.gather_rows(out.box_deltas, pos_p), reg_t)
            mt = np.stack([
                _mask_target(targets[g].mask, out.proposals[i], config.roi_size)
                for i, g in zip(pos_p, pos_gt)
            ])
            sel = ad.take_channel_per_row(ad.gather_rows(out.mask_logits, pos_p),
                                          cls_of[pos_gt] - 1)
            mask_loss = ad.bce_with_logits(sel, mt)

    cls_t = rpn_cls + head_ce
    box_t = rpn_box + head_box
    c, b, mval = cls_t.item(), box_t.item(), mask_loss.item()
    return LossBreakdown(
        classification=c, bbox=b, mask=mval, total=c + b + mval,
        tensor=cls_t + box_t + mask_loss,
    )


def _gt_boxes(targets: list[TargetBox]) -> np.ndarray:
    return np.stack([t.xyxy for t in targets]) if targets else np.zeros((0, 4))


def train_loss(model: DetectorModel, image, fmap, targets: list[TargetBox],
               rng: np.random.Generator) -> LossBreakdown:
    """The training loss recipe: train-mode forward pass with the ground-truth
    boxes appended to the proposals, then ``compute_loss``."""
    out = model.forward(image, fmap, mode="train", gt_boxes=_gt_boxes(targets))
    return compute_loss(out, targets, model.config, rng)


# ---------------------------------------------------------------------------
# checkpoints and prediction files


def _encode_array(a: np.ndarray) -> dict:
    """An array as its shape and its little-endian float64 bytes in base64."""
    raw = a.astype("<f8", copy=False).tobytes()
    return {"shape": list(a.shape), "f64_base64": base64.b64encode(raw).decode("ascii")}


def _decode_array(entry, shape: tuple, where: str) -> np.ndarray:
    """The owned, writable float64 array of an ``_encode_array`` entry.

    Raises ValueError, prefixed with ``where``, on a shape other than
    ``shape``, text outside the base64 alphabet, a byte count other than
    ``8 * prod(shape)`` or a non-finite value.
    """
    if not isinstance(entry, dict) or entry.get("shape") != list(shape):
        got = entry.get("shape") if isinstance(entry, dict) else entry
        raise ValueError(f"{where}: shape {got!r}, the model's layer has {list(shape)}")
    text = entry.get("f64_base64")
    if not isinstance(text, str):
        raise ValueError(f"{where}: f64_base64 is {type(text).__name__}, not base64 text")
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
    bad = np.flatnonzero(~np.isfinite(arr))
    if bad.size:
        raise ValueError(f"{where}: non-finite value {float(arr.flat[bad[0]])!r} "
                         f"at flat index {bad[0]}")
    return arr


def save_checkpoint(path: str, model: DetectorModel) -> None:
    """Write ``model`` as a ``CHECKPOINT_FORMAT`` JSON file (see README)."""
    payload = {
        "format": CHECKPOINT_FORMAT,
        "config": asdict(model.config),
        "params": {
            name: {
                "kind": p.kind,
                "weights": _encode_array(p.weights.data),
                "bias": _encode_array(p.bias.data),
            }
            for name, p in sorted(model.params.items())
        },
    }
    atomic_write_text(path, json.dumps(payload, sort_keys=True) + "\n")


def load_checkpoint(path: str) -> DetectorModel:
    """Read a file written by ``save_checkpoint``; errors name the file."""
    with open(path) as fh:
        try:
            payload = json.load(fh)
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
            raise ValueError(f"{path}: not a JSON file: {exc}") from exc
    fmt = payload.get("format") if isinstance(payload, dict) else None
    if fmt != CHECKPOINT_FORMAT:
        raise ValueError(f"{path}: format {fmt!r} is not {CHECKPOINT_FORMAT!r}")
    cfg_dict = dict(payload["config"])
    known = {f.name for f in fields(ModelConfig)}
    if set(cfg_dict) != known:
        raise ValueError(f"{path}: config keys unknown {sorted(set(cfg_dict) - known)}, "
                         f"missing {sorted(known - set(cfg_dict))}")
    for key in ("anchor_scales", "anchor_ratios", "channels"):
        cfg_dict[key] = tuple(cfg_dict[key])
    model = DetectorModel(ModelConfig(**cfg_dict))
    missing = sorted(set(model.params) - set(payload["params"]))
    if missing:
        raise ValueError(f"{path}: missing layers {missing}")
    for name, entry in payload["params"].items():
        if name not in model.params:
            raise ValueError(f"{path}: unexpected layer {name!r}")
        p = model.params[name]
        for fld, t in (("weights", p.weights), ("bias", p.bias)):
            t.data = _decode_array(entry[fld], t.data.shape, f"{path}: layer {name!r} {fld}")
    return model


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


def _finite(v) -> bool:
    """A JSON number (not a bool) that is a finite float."""
    return type(v) in (int, float) and abs(v) <= sys.float_info.max


def predictions_from_json(rows: list[dict], roi_size: int = 7) -> dict[str, list[Detection]]:
    """Detections per reading from the rows of a predictions file.

    A row is an object with a string ``reading_id``, a ``box`` of four
    finite numbers with x0 < x1 and y0 < y1, a known class ``label`` and a
    finite ``score`` in [0, 1]. Anything else raises ValueError naming the
    row, the field and the value.
    """
    if not isinstance(rows, list):
        raise ValueError(f"expected a JSON list of rows, got {type(rows).__name__}")
    out: dict[str, list[Detection]] = {}
    for i, row in enumerate(rows):
        if not isinstance(row, dict):
            raise ValueError(f"row {i}: expected an object, got {row!r}")
        missing = [k for k in ("reading_id", "box", "label", "score") if k not in row]
        if missing:
            raise ValueError(f"row {i}: missing fields {missing}")
        rid, box, label, score = row["reading_id"], row["box"], row["label"], row["score"]
        if not isinstance(rid, str):
            raise ValueError(f"row {i}: reading_id {rid!r} is not a string")
        if not (isinstance(box, list) and len(box) == 4 and all(map(_finite, box))
                and box[0] < box[2] and box[1] < box[3]):
            raise ValueError(f"row {i}: box {box!r} is not four finite numbers "
                             "with x0 < x1 and y0 < y1")
        if label not in CLASS_NAMES.values():
            raise ValueError(f"row {i}: label {label!r} is not one of "
                             f"{sorted(NAME_TO_CLASS)}")
        if not (_finite(score) and 0.0 <= score <= 1.0):
            raise ValueError(f"row {i}: score {score!r} is not a finite number in [0, 1]")
        det = Detection(
            box=np.asarray(box, dtype=np.float64),
            label=NAME_TO_CLASS[label],
            score=float(score),
            mask=np.zeros((roi_size, roi_size)),
        )
        out.setdefault(rid, []).append(det)
    return out


def load_predictions(path: str) -> dict[str, list[Detection]]:
    """Read a file written by ``save_predictions``; errors name the file."""
    try:
        with open(path) as fh:
            return predictions_from_json(json.load(fh))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def save_predictions(path: str, dets_by_reading: dict[str, list[Detection]]) -> None:
    atomic_write_text(path, json.dumps(predictions_to_json(dets_by_reading)) + "\n")
