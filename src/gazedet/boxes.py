"""Box geometry: anchor grids, delta encoding/decoding, IoU, NMS, ranking.

Boxes are (x_min, y_min, x_max, y_max) arrays in image coordinates.
Deltas follow the usual (tx, ty, tw, th) parameterization:
cx' = cx + tx*w, cy' = cy + ty*h, w' = w*exp(tw), h' = h*exp(th),
with tw/th clamped to ln(16) before exponentiation.
"""

from __future__ import annotations

import numpy as np

LOG_MAX_SCALE = float(np.log(16.0))


def generate_anchors(
    feat_h: int,
    feat_w: int,
    stride: int,
    scales: list[float],
    ratios: list[float],
    img_size: int,
) -> np.ndarray:
    """One anchor per (cell, scale, ratio), centered on cell centers, clipped.

    Scale s at ratio 1 gives a square s-by-s anchor; ratio r stretches
    height by sqrt(r) and shrinks width by sqrt(r) (area preserved).
    """
    y = ((np.arange(feat_h) + 0.5) * stride)[:, None, None]
    x = ((np.arange(feat_w) + 0.5) * stride)[None, :, None]
    s = np.asarray(scales, dtype=np.float64)[:, None]
    root = np.sqrt(np.asarray(ratios, dtype=np.float64))
    half_h = (s * root / 2).ravel()  # per (scale, ratio), ratio fastest
    half_w = (s / root / 2).ravel()
    corners = np.broadcast_arrays(x - half_w, y - half_h, x + half_w, y + half_h)
    return clip_boxes(np.stack(corners, axis=-1).reshape(-1, 4), img_size)


def clip_boxes(boxes: np.ndarray, img_size: int) -> np.ndarray:
    out = boxes.copy()
    out[:, 0::2] = np.clip(out[:, 0::2], 0.0, float(img_size))
    out[:, 1::2] = np.clip(out[:, 1::2], 0.0, float(img_size))
    return out


def _whc(boxes: np.ndarray):
    w = np.maximum(boxes[:, 2] - boxes[:, 0], 1e-6)
    h = np.maximum(boxes[:, 3] - boxes[:, 1], 1e-6)
    cx = boxes[:, 0] + 0.5 * w
    cy = boxes[:, 1] + 0.5 * h
    return w, h, cx, cy


def encode_boxes(anchors: np.ndarray, gts: np.ndarray) -> np.ndarray:
    """Deltas that map each anchor onto the paired ground-truth box."""
    aw, ah, acx, acy = _whc(anchors)
    gw, gh, gcx, gcy = _whc(gts)
    return np.stack(
        [(gcx - acx) / aw, (gcy - acy) / ah, np.log(gw / aw), np.log(gh / ah)], axis=1
    )


def decode_boxes(anchors: np.ndarray, deltas: np.ndarray, img_size: int | None = None) -> np.ndarray:
    aw, ah, acx, acy = _whc(anchors)
    tx, ty = deltas[:, 0], deltas[:, 1]
    tw = np.clip(deltas[:, 2], -LOG_MAX_SCALE, LOG_MAX_SCALE)
    th = np.clip(deltas[:, 3], -LOG_MAX_SCALE, LOG_MAX_SCALE)
    cx = acx + tx * aw
    cy = acy + ty * ah
    w = aw * np.exp(tw)
    h = ah * np.exp(th)
    out = np.stack([cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2], axis=1)
    if img_size is not None:
        out = clip_boxes(out, img_size)
    return out


def pairwise_overlap(a, b) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Intersection areas, shape (len(a), len(b)), and each side's box areas.

    Extents are clipped at zero, so an inverted box has zero area.
    """
    a = np.asarray(a, dtype=np.float64).reshape(-1, 4)
    b = np.asarray(b, dtype=np.float64).reshape(-1, 4)
    w = np.minimum(a[:, None, 2], b[None, :, 2]) - np.maximum(a[:, None, 0], b[None, :, 0])
    h = np.minimum(a[:, None, 3], b[None, :, 3]) - np.maximum(a[:, None, 1], b[None, :, 1])
    inter = np.maximum(w, 0.0) * np.maximum(h, 0.0)

    def area(x):
        return np.maximum(x[:, 2] - x[:, 0], 0.0) * np.maximum(x[:, 3] - x[:, 1], 0.0)

    return inter, area(a), area(b)


def iou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise IoU, shape (len(a), len(b)); 0 where the union is empty."""
    inter, area_a, area_b = pairwise_overlap(a, b)
    union = area_a[:, None] + area_b[None, :] - inter
    return np.where(union > 0, inter / np.where(union > 0, union, 1.0), 0.0)


def rank_order(scores, boxes) -> np.ndarray:
    """The one detection ranking: indices by score descending, then box
    coordinates ascending, then input index; ``-0.0`` ties with ``0.0``."""
    return np.lexsort((*np.reshape(boxes, (-1, 4)).T[::-1], -np.asarray(scores)))


def nms(boxes: np.ndarray, scores: np.ndarray, iou_thresh: float,
        max_keep: int | None = None) -> np.ndarray:
    """Greedy descending-score suppression; ties broken by lower index.

    With ``max_keep`` the result is the first ``max_keep`` keeps. A greedy
    decision depends only on the candidates ranked above it, so IoU is
    first computed over the top ``2 * max_keep`` candidates alone, and over
    all of them only when that prefix gives fewer than ``max_keep`` keeps.
    """
    if len(boxes) != len(scores):
        raise ValueError(f"nms length mismatch: {len(boxes)} boxes vs {len(scores)} scores")
    if not 0.0 < iou_thresh < 1.0:
        raise ValueError(f"iou_thresh must be in (0, 1), got {iou_thresh}")
    if max_keep is not None and max_keep < 0:
        raise ValueError(f"max_keep must be >= 0, got {max_keep}")
    # stable sort on -score keeps the lower index first among ties
    order = np.argsort(-scores, kind="stable")
    limit = len(order) if max_keep is None else max_keep
    if 2 * limit < len(order):
        keep = _greedy_keep(boxes, order[: 2 * limit], iou_thresh, limit)
        if len(keep) == limit:
            return keep
    return _greedy_keep(boxes, order, iou_thresh, limit)


def _greedy_keep(boxes: np.ndarray, order: np.ndarray, iou_thresh: float,
                 limit: int) -> np.ndarray:
    """Up to ``limit`` indices of ``boxes`` kept by a greedy pass in ``order``."""
    ranked = boxes[order]
    ious = iou_matrix(ranked, ranked)
    keep = []
    suppressed = np.zeros(len(order), dtype=bool)
    for k in range(len(order)):
        if len(keep) == limit:
            break
        if suppressed[k]:
            continue
        keep.append(order[k])
        suppressed |= ious[k] > iou_thresh
    return np.asarray(keep, dtype=np.intp)
