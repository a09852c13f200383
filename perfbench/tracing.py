"""Span tracer for the benchmark's traced runs.

Spans are recorded from the benchmark's own files: ``install`` replaces
public functions of the gazedet modules (every binding of each function
object across the loaded modules) with timed wrappers, and ``uninstall``
puts the originals back. An autodiff op's backward time comes from
wrapping the closure the op attaches to its output tensor.

Spans are [name, start, end, parent, op] rows kept in memory and written
out at the end; ``summary`` gives each name's calls, total and self time,
where self time is a span's duration minus the time its children cover.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import defaultdict

# autodiff ops that build graph nodes; each gets .fwd and .bwd spans
AUTODIFF_OPS = (
    "conv2d", "relu", "maxpool2d", "linear", "sigmoid", "elementwise_combine",
    "reshape", "transpose", "flatten", "gather_rows", "take_channel_per_row",
    "tensor_sum", "softmax_cross_entropy", "bce_with_logits", "smooth_l1",
)
LOSS_OPS = ("softmax_cross_entropy", "bce_with_logits", "smooth_l1")
# (module, function) pairs timed as plain spans named "<module>.<function>"
PLAIN = (
    ("autodiff", "sgd_step"),
    ("detector", "compute_loss"), ("detector", "assign_targets"),
    ("detector", "save_checkpoint"), ("detector", "load_checkpoint"),
    ("detector", "save_predictions"),
    ("boxes", "nms"), ("boxes", "decode_boxes"), ("boxes", "iou_matrix"),
    ("gaze", "read_gaze_csv"), ("gaze", "filter_gaze"), ("gaze", "detect_fixations"),
    ("gaze", "render_heatmap"), ("gaze", "write_fixation_csv"), ("gaze", "write_pgm"),
    ("gaze", "write_float_map"),
    ("dataset", "load_dataset"), ("dataset", "reading_targets"),
    ("metrics", "evaluate_detections"), ("metrics", "match_detections"),
    ("metrics", "save_report"),
    ("trainer", "fixation_map_for"), ("trainer", "train"), ("trainer", "infer_dataset"),
    ("trainer", "run_comparison"),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op: int | None = None
        self.n_ops = 0
        # counter totals keyed by (name, scope); scope is "op" inside an op,
        # else the name of the top-level span ("setup" or "round")
        self.counts: dict[tuple, float] = defaultdict(float)
        self.distinct: dict[str, set] = defaultdict(set)
        self._undo: list[tuple] = []

    # -- spans -------------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        end = time.perf_counter()
        top = self.stack.pop()
        if top != idx:
            raise RuntimeError(f"span {self.spans[idx][0]!r} closed out of order "
                               f"(open: {self.spans[top][0]!r})")
        self.spans[idx][2] = end

    def begin_op(self) -> int:
        self.op = self.n_ops
        self.n_ops += 1
        return self.open("op")

    def end_op(self, idx: int) -> None:
        self.close(idx)
        self.op = None

    def timed(self, fn, name: str, after=None, before=None):
        def wrapped(*args, **kwargs):
            idx = self.open(name)
            try:
                if before is not None:
                    before()
                out = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if after is not None:
                after(out, args)
            return out
        wrapped.__wrapped__ = fn
        return wrapped

    def timed_op(self, fn, name: str):
        """Wrap an autodiff op and the backward closure on its output."""
        def wrapped(*args, **kwargs):
            idx = self.open(name + ".fwd")
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(idx)
            closure = out._backward
            if closure is not None:
                self.add("autodiff.nodes.built", 1)

                def backward(g):
                    self.add("autodiff.nodes.backward_run", 1)
                    bidx = self.open(name + ".bwd")
                    try:
                        closure(g)
                    finally:
                        self.close(bidx)
                out._backward = backward
            return out
        wrapped.__wrapped__ = fn
        return wrapped

    # -- patching ----------------------------------------------------------

    def _rebind(self, original, replacement) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if not mod_name.startswith("gazedet") or mod is None:
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def _patch_method(self, cls, attr: str, replacement) -> None:
        self._undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, replacement)

    def install(self, before: dict | None = None) -> None:
        """Wrap the gazedet functions; ``before[name]`` runs inside that span."""
        before = before or {}
        import gazedet.autodiff as ad
        import gazedet.boxes  # noqa: F401  (loaded so its bindings are found)
        import gazedet.detector as dt
        import gazedet.trainer  # noqa: F401

        for op in AUTODIFF_OPS:
            fn = getattr(ad, op)
            self._rebind(fn, self.timed_op(fn, f"autodiff.{op}"))
        self._rebind(dt.roi_align, self.timed_op(dt.roi_align, "detector.roi_align"))
        self._patch_method(ad.Tensor, "backward",
                           self.timed(ad.Tensor.backward, "autodiff.backward"))
        self._patch_method(dt.DetectorModel, "fuse",
                           self.timed(dt.DetectorModel.fuse, "detector.fuse"))

        def count_proposals(out, _args):
            self.add("detector.proposals.count", len(out.proposals))
        self._patch_method(dt.DetectorModel, "forward",
                           self.timed(dt.DetectorModel.forward, "detector.forward",
                                      count_proposals))
        after = {
            "detector.save_checkpoint": self._checkpoint_bytes,
            "gaze.read_gaze_csv": lambda out, _a: self.add("gaze.samples.count", len(out)),
            "gaze.detect_fixations": lambda out, _a: self.add("gaze.fixations.count", len(out)),
            "trainer.fixation_map_for": lambda _out, a: self.distinct[
                "trainer.fixation_map_for"].add((self.stack[0] if self.stack else -1, a[0].id)),
        }
        for mod, fn_name in PLAIN:
            module = sys.modules[f"gazedet.{mod}"]
            fn = getattr(module, fn_name)
            name = f"{mod}.{fn_name}"
            self._rebind(fn, self.timed(fn, name, after.get(name), before.get(name)))

    def add(self, key: str, value: float) -> None:
        if self.op is not None:
            scope = "op"
        else:
            scope = self.spans[self.stack[0]][0] if self.stack else "none"
        self.counts[(key, scope)] += value

    def _checkpoint_bytes(self, _out, args) -> None:
        self.add("detector.checkpoint.bytes", os.path.getsize(args[0]))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- results -----------------------------------------------------------

    def add_span(self, name: str, start: float, end: float, parent: int) -> None:
        """A span derived after the fact; it has no children of its own."""
        self.spans.append([name, start, end, parent, None])

    def summary(self) -> dict:
        """Per span name: calls, total ms and self ms."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        out: dict[str, dict] = {}
        for i, (name, start, end, _p, _op) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
            row["calls"] += 1
            row["total_ms"] += (end - start) * 1e3
            row["self_ms"] += (end - start - child[i]) * 1e3
        return out

    def layer_metrics(self) -> dict:
        """Every PER_LAYER metric, normalised as its table row says."""
        roots: list[str] = []
        for name, _s, _e, parent, _op in self.spans:
            roots.append(name if parent < 0 else roots[parent])
        span_names = [s[0] for s in self.spans]
        n = {"op": self.n_ops, "round": span_names.count("round"),
             "setup": span_names.count("setup")}
        ms = defaultdict(float)  # (span name, scope) -> ms
        calls = defaultdict(int)
        for (name, start, end, _p, op), root in zip(self.spans, roots):
            scope = "op" if op is not None else root
            ms[(name, scope)] += (end - start) * 1e3
            calls[(name, scope)] += 1

        def total(table, names, per):
            scopes = {"op": ("op",), "round": ("op", "round"), "setup": ("setup",)}
            return sum(table[(nm, sc)] for nm in names
                       for sc in scopes["round" if isinstance(per, tuple) else per])

        out = {}
        for metric, unit, kind, names, per in PER_LAYER:
            if kind == "distinct":  # readings seen, counted per round
                value = sum(1 for root, _id in self.distinct[names[0]]
                            if root >= 0 and self.spans[root][0] == "round")
            else:
                value = total({"ms": ms, "calls": calls, "count": self.counts}[kind], names, per)
            denom = total(calls, per[1:], "round") if isinstance(per, tuple) else n[per]
            out[metric] = {"value": value / denom if denom else 0.0, "unit": unit}
        return out

    def write(self, path: str, extra: dict) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump({**extra, "fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans, "summary": self.summary(),
                       "counts": {f"{k}@{scope}": v for (k, scope), v in self.counts.items()}},
                      fh)


def _op(metric: str, *names: str) -> tuple:
    return (metric, "ms", "ms", names, "op")


# (metric, unit, kind, sources, per). kind: "ms" sums span time, "calls"
# counts spans, "count" sums a counter, "distinct" counts distinct readings.
# per: "op" = inside ops, divided by ops; "round" = whole timed phase,
# divided by rounds; "setup" = per set-up; ("call", span) = divided by the
# number of those spans in the timed phase.
PER_LAYER = (
    _op("autodiff.conv2d.fwd_ms", "autodiff.conv2d.fwd"),
    _op("autodiff.conv2d.bwd_ms", "autodiff.conv2d.bwd"),
    _op("autodiff.maxpool2d.fwd_ms", "autodiff.maxpool2d.fwd"),
    _op("autodiff.maxpool2d.bwd_ms", "autodiff.maxpool2d.bwd"),
    _op("autodiff.linear.fwd_ms", "autodiff.linear.fwd"),
    _op("autodiff.linear.bwd_ms", "autodiff.linear.bwd"),
    _op("autodiff.loss.fwd_ms", *(f"autodiff.{op}.fwd" for op in LOSS_OPS)),
    _op("autodiff.backward.ms", "autodiff.backward"),
    _op("autodiff.sgd_step.ms", "autodiff.sgd_step"),
    ("autodiff.nodes.built", "count", "count", ("autodiff.nodes.built",), "round"),
    ("autodiff.nodes.backward_run", "count", "count", ("autodiff.nodes.backward_run",), "round"),
    _op("detector.forward.ms", "detector.forward"),
    _op("detector.fuse.ms", "detector.fuse"),
    _op("detector.roi_align.fwd_ms", "detector.roi_align.fwd"),
    _op("detector.roi_align.bwd_ms", "detector.roi_align.bwd"),
    _op("detector.compute_loss.ms", "detector.compute_loss"),
    _op("detector.assign_targets.ms", "detector.assign_targets"),
    ("detector.save_checkpoint.ms", "ms", "ms", ("detector.save_checkpoint",),
     ("call", "detector.save_checkpoint")),
    ("detector.checkpoint.bytes", "bytes", "count", ("detector.checkpoint.bytes",),
     ("call", "detector.save_checkpoint")),
    ("detector.load_checkpoint.ms", "ms", "ms", ("detector.load_checkpoint",), "setup"),
    ("detector.proposals.count", "count", "count", ("detector.proposals.count",),
     ("call", "detector.forward")),
    _op("boxes.nms.ms", "boxes.nms"),
    ("boxes.nms.calls", "count", "calls", ("boxes.nms",), "op"),
    _op("boxes.decode_boxes.ms", "boxes.decode_boxes"),
    _op("boxes.iou_matrix.ms", "boxes.iou_matrix"),
    _op("gaze.read_gaze_csv.ms", "gaze.read_gaze_csv"),
    _op("gaze.filter_gaze.ms", "gaze.filter_gaze"),
    _op("gaze.detect_fixations.ms", "gaze.detect_fixations"),
    _op("gaze.render_heatmap.ms", "gaze.render_heatmap"),
    _op("gaze.write.ms", "gaze.write_fixation_csv", "gaze.write_pgm", "gaze.write_float_map"),
    ("gaze.samples.count", "count", "count", ("gaze.samples.count",), "op"),
    ("gaze.fixations.count", "count", "count", ("gaze.fixations.count",), "op"),
    ("dataset.load_dataset.ms", "ms", "ms", ("dataset.load_dataset",), "setup"),
    _op("dataset.reading_targets.ms", "dataset.reading_targets"),
    ("metrics.evaluate_detections.ms", "ms", "ms", ("metrics.evaluate_detections",), "round"),
    ("metrics.match_detections.calls", "count", "calls", ("metrics.match_detections",), "round"),
    _op("trainer.fixation_map_for.ms", "trainer.fixation_map_for"),
    ("trainer.fixation_map_for.calls", "count", "calls", ("trainer.fixation_map_for",), "round"),
    ("trainer.fixation_map_for.distinct", "count", "distinct", ("trainer.fixation_map_for",),
     "round"),
    ("trainer.epoch_end.ms", "ms", "ms", ("trainer.epoch_end",), ("call", "trainer.epoch_end")),
    ("trainer.arm.ms", "ms", "ms", ("trainer.arm",), ("call", "trainer.arm")),
    ("trainer.infer_dataset.ms", "ms", "ms", ("trainer.infer_dataset",), "round"),
)
