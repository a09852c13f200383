"""One benchmark workload in one process: set-up, timed rounds, then checks.

    python3 perfbench/workload.py --workload NAME --work DIR --seconds S --trace 0|1
    python3 perfbench/workload.py --workload NAME --work DIR --setup-only
    python3 perfbench/workload.py --workload eval128 --work DIR --prep

DIR holds the inputs gen.py wrote. The timed phase repeats whole rounds of
the same ops until ``--seconds`` have passed; outputs are checked only
after it, once peak memory has been read. The result goes to
DIR/result.json (DIR/setup.json with --setup-only).
"""

import time

T_START = time.perf_counter()  # set-up is timed from here, before any import

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402

import gen  # noqa: E402  (workload sizes; the numpy it loads is set-up time)

ARMS = (("image_only", False), ("multimodal", True))
GAZE_DISPERSION_PX = 25.0
GAZE_MIN_DURATION_MS = 100.0
GAZE_SIGMA_PX = 25.0
CLASS_TITLES = {
    "EnlargedCardiacSilhouette": "Enlarged Cardiac Silhouette",
    "Atelectasis": "Atelectasis",
    "PleuralAbnormality": "Pleural abnormality",
    "Consolidation": "Consolidation",
    "PulmonaryEdema": "Pulmonary edema",
}


def _load_json(path):
    with open(path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# set-up: imports, dataset loading, model building; timed from T_START


def setup(workload: str) -> dict:
    """Import the gazedet modules the workload calls."""
    if workload == "gaze512":
        from gazedet import gaze
        return {"gaze": gaze}
    from gazedet import dataset, detector, metrics, trainer
    return {"dataset": dataset, "detector": detector, "metrics": metrics, "trainer": trainer}


def load_inputs(workload: str, work: str, state: dict) -> None:
    """The set-up that can be repeated: dataset loading and model building."""
    if workload == "gaze512":
        return
    ds, dt = state["dataset"], state["detector"]
    data = os.path.join(work, "data")
    if workload == "compare64":
        state["splits"] = [ds.load_dataset(data, s) for s in ("train", "val", "test")]
        state["arms"] = [(tag, dt.ModelConfig(img_size=gen.COMPARE64["size"],
                                              use_fixations=fix))
                         for tag, fix in ARMS]
        for _tag, cfg in state["arms"]:
            dt.DetectorModel(cfg)
    else:
        state["test"] = ds.load_dataset(data, "test")
        state["model"] = dt.load_checkpoint(
            os.path.join(work, "prep_model", "checkpoint_last.json"))


# ---------------------------------------------------------------------------
# rounds


def round_compare64(state, out, tracer):
    """One run_comparison; ops are train steps, delimited by the log hook."""
    tr = state["trainer"]
    c = gen.COMPARE64
    train, val, test = state["splits"]
    stamps = []
    cur = state["cur"]  # the open op span; trainer.train opens the first

    def log(msg):
        stamps.append((msg, time.perf_counter()))
        if tracer is None:
            return
        words = msg.split()
        if words[0] == "step":
            tracer.end_op(cur.pop("op"))
            if (int(words[1]) + 1) % c["train"] == 0:
                cur["epoch_end"] = tracer.open("trainer.epoch_end")
            else:
                cur["op"] = tracer.begin_op()
        else:
            tracer.close(cur.pop("epoch_end"))
            if int(words[1]) + 1 < c["epochs"]:
                cur["op"] = tracer.begin_op()

    t0 = time.perf_counter()
    tr.run_comparison(state["arms"], train, val, test,
                      tr.TrainConfig(epochs=c["epochs"], log_every=1), out, log=log)
    wall = time.perf_counter() - t0
    ops = {tag: [] for tag, _ in ARMS}
    arm = -1
    prev = t0
    for msg, t in stamps:
        words = msg.split()
        if words[0] == "step":
            if words[1] == "0":
                arm += 1  # the first step also builds the model: warm-up
            else:
                ops[ARMS[arm][0]].append((t - prev) * 1e3)
        prev = t
    attempted = sum(1 for msg, _ in stamps if msg.startswith("step"))
    return wall, ops, attempted, None


def round_eval128(state, out, tracer):
    """Inference reading by reading, then the AP/AR report and its files."""
    tr, dt, mx = state["trainer"], state["detector"], state["metrics"]
    dets, ms = {}, []
    t0 = time.perf_counter()
    for r in state["test"]:
        a = time.perf_counter()
        op = tracer.begin_op() if tracer else None
        dets.update(tr.infer_dataset(state["model"], [r]))
        if tracer:
            tracer.end_op(op)
        ms.append((time.perf_counter() - a) * 1e3)
    report = tr.report_from_detections(dets, state["test"])
    os.makedirs(out, exist_ok=True)
    dt.save_predictions(os.path.join(out, "predictions.json"), dets)
    mx.save_report(os.path.join(out, "report.json"), os.path.join(out, "report.md"), report)
    wall = time.perf_counter() - t0
    kept = {rid: [(tuple(float(v) for v in d.box), int(d.label), d.score, d.mask)
                  for d in ds] for rid, ds in dets.items()}
    return wall, {"all": ms}, len(ms), kept


def gaze_op(gz, csv_path, out_base):
    samples = gz.read_gaze_csv(csv_path)
    filtered = gz.filter_gaze(samples, gen.GAZE_SIZE, gen.GAZE_SIZE)
    fixations = gz.detect_fixations(filtered, GAZE_DISPERSION_PX, GAZE_MIN_DURATION_MS)
    fmap = gz.render_heatmap(fixations, gen.GAZE_SIZE, gen.GAZE_SIZE, GAZE_SIGMA_PX)
    gz.write_fixation_csv(out_base + ".fix.csv", fixations)
    gz.write_pgm(out_base + ".pgm", fmap.values)
    gz.write_float_map(out_base + ".fmap", fmap.values)
    return fixations, fmap


def round_gaze512(state, out, tracer):
    """Each recording from CSV to fixations, heatmap and written files."""
    gz = state["gaze"]
    os.makedirs(out, exist_ok=True)
    ms, kept = [], []
    for rec in state["recordings"][1:]:
        a = time.perf_counter()
        op = tracer.begin_op() if tracer else None
        fixations, fmap = gaze_op(gz, rec["csv"], os.path.join(out, rec["name"]))
        if tracer:
            tracer.end_op(op)
        ms.append((time.perf_counter() - a) * 1e3)
        kept.append(([(f.cx_px, f.cy_px, f.start_ms, f.end_ms, f.n_samples)
                      for f in fixations],
                     hashlib.sha256(fmap.values.tobytes()).hexdigest()))
    return sum(ms) / 1e3, {"all": ms}, len(ms), kept


ROUNDS = {"compare64": round_compare64, "eval128": round_eval128, "gaze512": round_gaze512}


def warm_up(workload: str, work: str, state: dict) -> None:
    """Ops before the timed phase, kept out of every statistic."""
    if workload == "eval128":
        state["trainer"].infer_dataset(state["model"], state["test"][:1])
    elif workload == "gaze512":
        rec = state["recordings"][0]
        gaze_op(state["gaze"], rec["csv"], os.path.join(work, "warmup"))


# ---------------------------------------------------------------------------
# checks, after the timed phase


def check_compare64(state, work, rounds, truth):
    import numpy as np

    import checks

    dt, tr = state["detector"], state["trainer"]
    test = state["splits"][2]
    gts = _gts_by_class(truth, [r.id for r in test])
    problems = []
    for k in range(len(rounds)):
        out = os.path.join(work, "out", f"round{k}")
        reports = {}
        for tag, _ in ARMS:
            arm = os.path.join(out, tag)
            with open(os.path.join(arm, "loss_curve.csv")) as fh:
                rows = [line.split(",") for line in fh.read().splitlines()[1:]]
            losses = np.array([[float(v) for v in row[2:]] for row in rows])
            epochs = np.array([int(row[1]) for row in rows])
            if not np.all(np.isfinite(losses)):
                problems.append(f"round {k} {tag}: non-finite loss")
            first = losses[epochs == 0, 3].mean()
            last = losses[epochs == epochs.max(), 3].mean()
            if not last < first:
                problems.append(f"round {k} {tag}: last-epoch loss {last} !< first {first}")
            preds = _load_json(os.path.join(arm, "predictions.json"))
            model = dt.load_checkpoint(os.path.join(arm, "checkpoint_last.json"))
            again = json.loads(json.dumps(dt.predictions_to_json(tr.infer_dataset(model, test))))
            if again != preds:
                problems.append(f"round {k} {tag}: checkpoint_last does not reproduce predictions")
            reports[tag] = _load_json(os.path.join(arm, "report.json"))
            problems += [f"round {k} {tag}: {p}" for p in
                         checks.check_report(reports[tag], _dets_by_class(preds), gts)]
        if _load_json(os.path.join(out, "comparison.json")) != reports:
            problems.append(f"round {k}: comparison.json disagrees with the arm reports")
    return problems


def check_eval128(state, work, rounds, truth):
    import checks

    cfg = state["model"].config
    gts = _gts_by_class(truth, [r.id for r in state["test"]])
    problems = []
    for k, kept in enumerate(rounds):
        for rid, dets in kept.items():
            problems += [f"round {k} {rid}: {p}" for p in checks.check_detections(
                dets, cfg.img_size, cfg.score_thresh, cfg.infer_nms_thresh, cfg.max_detections)]
        out = os.path.join(work, "out", f"round{k}")
        preds = _load_json(os.path.join(out, "predictions.json"))
        if sorted((p["reading_id"], p["score"]) for p in preds) != sorted(
                (rid, d[2]) for rid, dets in kept.items() for d in dets):
            problems.append(f"round {k}: predictions.json does not hold the detections")
        problems += [f"round {k}: {p}" for p in checks.check_report(
            _load_json(os.path.join(out, "report.json")), _dets_by_class(preds), gts)]
    return problems


def check_gaze512(state, work, rounds, truth):
    import checks

    problems = []
    size = gen.GAZE_SIZE
    for i, rec in enumerate(state["recordings"][1:]):
        with open(rec["csv"]) as fh:
            rows = [line.split(",") for line in fh.read().splitlines()[1:]]
        samples = checks.filter_samples(
            [(float(t), float(x), float(y), p, v == "1") for t, x, y, p, v in rows], size, size)
        expected = checks.idt_fixations(samples, GAZE_DISPERSION_PX, GAZE_MIN_DURATION_MS)
        heatmap = checks.gaussian_heatmap(expected, size, size, GAZE_SIGMA_PX)
        for k, kept in enumerate(rounds):
            fixations, digest = kept[i]
            where = f"round {k} {rec['name']}"
            base = os.path.join(work, "out", f"round{k}", rec["name"])
            found = checks.check_fixations(fixations, expected, GAZE_MIN_DURATION_MS)
            if checks.read_fixation_rows(base + ".fix.csv") != [f[:4] for f in fixations]:
                found.append("fixation CSV does not read back exactly")
            fmap = checks.read_float_map(base + ".fmap")
            if hashlib.sha256(fmap.tobytes()).hexdigest() != digest:
                found.append("float map does not read back exactly")
            found += checks.check_heatmap(fmap, heatmap)
            found += checks.check_written_maps(fmap, base + ".pgm", base + ".fmap")
            problems += [f"{where}: {p}" for p in found]
    return problems


CHECKS = {"compare64": check_compare64, "eval128": check_eval128, "gaze512": check_gaze512}


def _gts_by_class(truth, reading_ids):
    import checks

    out = {}
    for rid in reading_ids:
        for e in truth["lesions"][rid]:
            out.setdefault(CLASS_TITLES[e["label"]], []).append(checks.lesion_box(e))
    return out


def _dets_by_class(preds):
    """predictions.json rows, pooled per class in file order."""
    out = {}
    for p in preds:
        out.setdefault(CLASS_TITLES[p["label"]], []).append((tuple(p["box"]), p["score"]))
    return out


# ---------------------------------------------------------------------------


def prep_eval128(work: str) -> None:
    """Train the checkpoint eval128 loads; untimed, on seed-independent data."""
    from gazedet import dataset, detector, trainer

    c = gen.EVAL128
    prep = os.path.join(work, "prep")
    trainer.train(detector.ModelConfig(img_size=c["size"], use_fixations=True),
                  dataset.load_dataset(prep, "train"), dataset.load_dataset(prep, "val"),
                  trainer.TrainConfig(epochs=c["prep_epochs"]),
                  os.path.join(work, "prep_model"))


def run(workload: str, work: str, seconds: float, traced: bool) -> dict:
    state = setup(workload)
    state["cur"] = {}
    tracer = None
    if traced:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install({"trainer.train": lambda: state["cur"].__setitem__(
            "op", tracer.begin_op())})
        span = tracer.open("setup")
    load_inputs(workload, work, state)
    setup_s = time.perf_counter() - T_START
    if tracer is not None:
        tracer.close(span)
    truth = _load_json(os.path.join(work, "truth.json"))
    if workload == "gaze512":
        state["recordings"] = [dict(r, csv=os.path.join(work, "gaze", r["name"] + ".csv"))
                               for r in truth["recordings"]]
    warm_up(workload, work, state)

    walls, ops, kept, attempted = [], {}, [], 0
    start = time.perf_counter()
    while True:  # whole rounds only, as many as fit in the run length, at least one
        begin = time.perf_counter()
        span = tracer.open("round") if tracer else None
        wall, round_ops, n, outputs = ROUNDS[workload](
            state, os.path.join(work, "out", f"round{len(walls)}"), tracer)
        if tracer:
            tracer.close(span)
        walls.append(wall)
        for group, values in round_ops.items():
            ops.setdefault(group, []).extend(values)
        attempted += n
        kept.append(outputs)
        now = time.perf_counter()
        if now - start + (now - begin) > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {"setup_s": setup_s, "wall_s": walls, "op_ms": ops, "attempted": attempted,
              "failed": 0, "peak_rss_mb": peak_rss_mb}
    if tracer is not None:
        tracer.uninstall()
        _derive_arm_spans(tracer)
        result["layers"] = tracer.layer_metrics()
        result["trace"] = tracer
    result["problems"] = CHECKS[workload](state, work, kept, truth)
    return result


def _derive_arm_spans(tracer) -> None:
    """An arm runs from its train call to the end of its report writing."""
    trains = [s for s in tracer.spans if s[0] == "trainer.train"]
    reports = [s for s in tracer.spans if s[0] == "metrics.save_report"]
    if len(trains) == len(reports):
        for t, r in zip(trains, reports):
            tracer.add_span("trainer.arm", t[1], r[2], t[3])


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(ROUNDS))
    ap.add_argument("--work", required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--setup-only", action="store_true")
    mode.add_argument("--prep", action="store_true")
    args = ap.parse_args()
    if args.prep:
        prep_eval128(args.work)
        return
    if args.setup_only:
        state = setup(args.workload)
        load_inputs(args.workload, args.work, state)
        with open(os.path.join(args.work, "setup.json"), "w") as fh:
            json.dump({"setup_s": time.perf_counter() - T_START}, fh)
        return
    result = run(args.workload, args.work, args.seconds, bool(args.trace))
    tracer = result.pop("trace", None)
    if tracer is not None:
        tracer.write(os.path.join(args.work, "trace.json"),
                     {"workload": args.workload, "layers": result["layers"]})
    with open(os.path.join(args.work, "result.json"), "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
