"""Box-overlap metrics and per-class AP/AR reporting.

IoBB divides the intersection area by the *predicted* box area, so a
prediction fully inside an oversized ground-truth box scores 1.0. IoU is
the usual symmetric intersection-over-union. Matching is greedy in the
order of ``boxes.rank_order`` (score descending, then box, then input
index: the rule the detector ranks its kept detections with), with
inclusive (>= threshold) comparison, one match per ground-truth box.

AP is the all-point area under the precision-recall curve (precision
envelope); AR is recall over the top-scoring ``max_dets`` detections at the
single threshold. Classes without ground truth are excluded from macro
averages and flagged.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import boxes as bx
from .dataset import ClassLabel, REPORT_CLASS_TITLES
from .fileio import atomic_write_text, write_json

AP_HEADER_TEMPLATE = "AP@[{kind}={thresh:.2f}]"
AR_HEADER_TEMPLATE = "AR@[{kind}={thresh:.2f}]"


def check_overlap_rule(thresh: float, kind: str) -> None:
    """Raise ValueError unless ``kind`` is iobb or iou and ``thresh`` lies in [0, 1]."""
    if kind not in ("iobb", "iou"):
        raise ValueError(f"kind must be 'iobb' or 'iou', got {kind!r}")
    if not 0 <= thresh <= 1:
        raise ValueError(f"thresh must lie in [0, 1], got {thresh!r}")


def overlap_matrix(preds, gts, kind: str) -> np.ndarray:
    """Pairwise overlap of predicted boxes (rows) with ground-truth boxes (columns)."""
    check_overlap_rule(0, kind)  # threshold 0 always passes: checks kind only
    preds = np.asarray(preds, dtype=np.float64).reshape(-1, 4)
    inter, pred_area, gt_area = bx.pairwise_overlap(preds, gts)
    if kind == "iobb":
        if np.any(pred_area <= 0):
            bad = preds[np.argmax(pred_area <= 0)]
            raise ValueError(f"zero-area predicted box {tuple(bad.tolist())}")
        return inter / pred_area[:, None]
    union = pred_area[:, None] + gt_area[None, :] - inter
    if np.any(union <= 0):
        raise ValueError("iou undefined for two zero-area boxes")
    return inter / union


def overlap(pred, gt, kind: str) -> float:
    return float(overlap_matrix(pred, gt, kind)[0, 0])


def iobb(pred, gt) -> float:
    """Intersection over the detected (predicted) box area."""
    return overlap(pred, gt, "iobb")


def iou(a, b) -> float:
    return overlap(a, b, "iou")


@dataclass
class MatchResult:
    det_is_tp: np.ndarray  # bool per detection, in internal rank order
    det_matched_gt: np.ndarray  # gt index or -1, in rank order
    gt_matched: np.ndarray  # bool per gt
    order: np.ndarray  # rank order -> original detection index


def match_detections(dets, gts, thresh: float, kind: str = "iobb") -> MatchResult:
    """Greedy matching; each detection takes the best still-unmatched gt.

    Among unmatched gts with overlap >= thresh the first maximum wins, and
    only a strictly positive overlap matches (even at threshold 0).
    """
    order = bx.rank_order([d.score for d in dets], [d.box for d in dets])
    gt_matched = np.zeros(len(gts), dtype=bool)
    is_tp = np.zeros(len(dets), dtype=bool)
    matched_gt = np.full(len(dets), -1, dtype=np.int64)
    if len(dets) and len(gts):
        ov = overlap_matrix([d.box for d in dets], [g.xyxy for g in gts], kind)
        ov = np.where(ov >= thresh, ov, 0.0)
        for rank, di in enumerate(order):
            row = np.where(gt_matched, 0.0, ov[di])
            g = int(np.argmax(row))
            if row[g] > 0:
                gt_matched[g] = True
                is_tp[rank] = True
                matched_gt[rank] = g
    return MatchResult(is_tp, matched_gt, gt_matched, order)


def _class_scores(dets, gts, thresh: float, kind: str, max_dets: int):
    """AP, AR@max_dets, precision and recall of one class from one greedy match.

    Greedy matching in rank order makes the match of the top ``max_dets``
    detections the first ``max_dets`` ranks of the full match.
    """
    is_tp = match_detections(dets, gts, thresh, kind).det_is_tp
    n_tp = int(is_tp.sum())
    precision = n_tp / len(dets) if len(dets) else 0.0
    if len(gts) == 0:
        return None, None, precision, 0.0
    ap = 0.0
    if len(dets):
        tp = np.cumsum(is_tp.astype(np.float64))
        fp = np.cumsum((~is_tp).astype(np.float64))
        rec = tp / len(gts)
        # all-point area under the precision envelope (running max from the right)
        r = np.concatenate([[0.0], rec, [rec[-1]]])
        p = np.maximum.accumulate(np.concatenate([[0.0], tp / (tp + fp), [0.0]])[::-1])[::-1]
        ap = float(np.sum((r[1:] - r[:-1]) * p[1:]))
    return ap, int(is_tp[:max_dets].sum()) / len(gts), precision, n_tp / len(gts)


def average_precision(dets, gts, thresh: float, kind: str = "iobb") -> float | None:
    """All-point area under the precision-recall curve; None if no gt."""
    return _class_scores(dets, gts, thresh, kind, len(dets))[0]


def average_recall(dets, gts, thresh: float, kind: str = "iobb",
                   max_dets: int = 100) -> float | None:
    """Fraction of gts matched by the top ``max_dets`` detections; None if no gt."""
    return _class_scores(dets, gts, thresh, kind, max_dets)[1]


# ---------------------------------------------------------------------------
# report


@dataclass
class ClassMetrics:
    label: ClassLabel
    ap: float | None
    ar: float | None
    precision: float = 0.0
    recall: float = 0.0
    n_gt: int = 0
    n_det: int = 0


def format_cell(v: float | None) -> str:
    """One AP/AR table cell: six decimals, or n/a for an undefined value."""
    return "n/a" if v is None else f"{v:.6f}"


@dataclass
class MetricsReport:
    rows: list[ClassMetrics]
    average_ap: float | None
    average_ar: float | None
    metadata: dict = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list)

    def _header(self, template: str) -> str:
        kind = self.metadata.get("metric_kind", "iobb").replace("iobb", "IoBB").replace("iou", "IoU")
        return template.format(kind=kind, thresh=self.metadata.get("threshold", 0.5))

    def ap_header(self) -> str:
        return self._header(AP_HEADER_TEMPLATE)

    def ar_header(self) -> str:
        return self._header(AR_HEADER_TEMPLATE)

    def to_dict(self) -> dict:
        return {
            "metadata": dict(self.metadata),
            "warnings": list(self.warnings),
            "classes": [
                {
                    "label": REPORT_CLASS_TITLES[r.label],
                    "ap": r.ap,
                    "ar": r.ar,
                    "precision": r.precision,
                    "recall": r.recall,
                    "n_gt": r.n_gt,
                    "n_det": r.n_det,
                }
                for r in self.rows
            ],
            "average": {"ap": self.average_ap, "ar": self.average_ar},
        }

    def to_markdown(self) -> str:
        lines = ap_ar_table({"": self})
        for w in self.warnings:
            lines += ["", f"> warning: {w}"]
        meta = ", ".join(f"{k}={v}" for k, v in sorted(self.metadata.items()))
        lines += ["", f"_{meta}_"]
        return "\n".join(lines) + "\n"


def ap_ar_table(columns: dict[str, MetricsReport]) -> list[str]:
    """Markdown lines of an AP/AR table, one column pair per report, whose
    headers its key prefixes: header, separator, class rows, average row."""
    reports = list(columns.values())
    lines = [
        "| Abnormality |" + "".join(f" {prefix}{r.ap_header()} | {prefix}{r.ar_header()} |"
                                  for prefix, r in columns.items()),
        "|---|" + "---|---|" * len(reports),
    ]
    for rows in zip(*(r.rows for r in reports)):
        cells = [REPORT_CLASS_TITLES[rows[0].label]]
        cells += [format_cell(v) for row in rows for v in (row.ap, row.ar)]
        lines.append("| " + " | ".join(cells) + " |")
    cells = ["Average"] + [format_cell(v) for r in reports for v in (r.average_ap, r.average_ar)]
    lines.append("| " + " | ".join(cells) + " |")
    return lines


def _mean_defined(values: list[float | None]) -> float | None:
    defined = [v for v in values if v is not None]
    return sum(defined) / len(defined) if defined else None


def build_report(rows: list[ClassMetrics], metadata: dict | None = None,
                 declared_average_ap: float | None = None,
                 declared_average_ar: float | None = None) -> MetricsReport:
    """Assemble the fixed-order per-class table plus macro averages.

    Averages are arithmetic means over classes with n_gt > 0. If a caller
    declares externally computed averages that disagree with those means,
    the computed means win and a warning is recorded.
    """
    by_label = {r.label: r for r in rows}
    ordered = [by_label[c] for c in ClassLabel if c in by_label]
    avg_ap = _mean_defined([r.ap for r in ordered])
    avg_ar = _mean_defined([r.ar for r in ordered])
    report = MetricsReport(
        rows=ordered,
        average_ap=avg_ap,
        average_ar=avg_ar,
        metadata=dict(metadata or {}),
    )
    report.metadata.setdefault("average_rule", "arithmetic mean over classes with n_gt > 0")
    report.metadata.setdefault("ap_rule", "all-point PR area, precision envelope")
    report.metadata.setdefault("threshold_comparison", "inclusive (>=)")
    for r in ordered:
        if r.n_gt == 0:
            report.warnings.append(
                f"class {REPORT_CLASS_TITLES[r.label]} has no ground truth; excluded from averages"
            )
    for name, declared, computed in (
        ("AP", declared_average_ap, avg_ap),
        ("AR", declared_average_ar, avg_ar),
    ):
        if declared is not None and computed is not None and abs(declared - computed) > 5e-7:
            report.warnings.append(
                f"declared average {name} {declared:.6f} does not equal the arithmetic "
                f"mean {computed:.6f} of the per-class values; reporting the computed mean"
            )
    return report


def evaluate_detections(dets_by_class: dict[ClassLabel, list],
                        gts_by_class: dict[ClassLabel, list],
                        thresh: float = 0.5, kind: str = "iobb",
                        max_dets: int = 100,
                        metadata: dict | None = None) -> MetricsReport:
    """Per-class AP/AR report from class-partitioned detections and targets."""
    check_overlap_rule(thresh, kind)
    rows = []
    for c in ClassLabel:
        dets = dets_by_class.get(c, [])
        gts = gts_by_class.get(c, [])
        ap, ar, prec, rec = _class_scores(dets, gts, thresh, kind, max_dets)
        rows.append(ClassMetrics(label=c, ap=ap, ar=ar, precision=prec, recall=rec,
                                 n_gt=len(gts), n_det=len(dets)))
    meta = {"metric_kind": kind, "threshold": thresh, "max_dets": max_dets}
    meta.update(metadata or {})
    return build_report(rows, meta)


def save_report(path_json: str, path_md: str, report: MetricsReport) -> None:
    write_json(path_json, report.to_dict(), indent=1, sort_keys=True)
    atomic_write_text(path_md, report.to_markdown())
