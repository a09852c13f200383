"""Command-line entry point.

Subcommands: synth | fixations | heatmap | train | eval | compare |
gradcheck | report. Exit codes: 0 ok, 1 validation error, 2 runtime
failure. Every run prints its resolved configuration and seed; GFD_SEED is
the seed fallback when --seed is not given. A JSON config file can preseed
flags (--config); explicit flags win, and a refused value from the file is
reported with the file's path.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from . import dataset as ds
from . import gaze as gz
from . import gradchecks
from . import trainer as tr
from .autodiff import NumericsError
from .fileio import json_check, json_known_keys, read_json
from .detector import ModelConfig, load_checkpoint, load_predictions


class CliError(Exception):
    """Validation failure; exits with code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


def _resolve_seed(args) -> int:
    """--seed, else GFD_SEED, else 0. numpy takes only non-negative integer
    seeds, so any other value is refused here, naming where it came from."""
    source, seed = "--seed", getattr(args, "seed", None)
    if seed is None:
        source, env = "GFD_SEED", os.environ.get("GFD_SEED", "0")
        try:
            seed = int(env)
        except ValueError as exc:
            raise CliError(f"GFD_SEED is not an integer: {env!r}") from exc
    if seed < 0:
        raise CliError(f"{source} must be >= 0, got {seed}")
    return seed


def _print_resolved(args, seed: int) -> None:
    resolved = {k: v for k, v in sorted(vars(args).items()) if k not in ("func", "config")}
    resolved["seed"] = seed
    print("resolved config:", json.dumps(resolved, default=str, sort_keys=True))


def _model_config(args, seed: int, use_fixations: bool, img_size: int) -> ModelConfig:
    return ModelConfig(
        img_size=img_size,
        use_fixations=use_fixations,
        fusion_mode=args.fusion,
        fusion_point=args.fusion_point,
        seed=seed,
    )


def _load_split(args):
    return tuple(ds.load_dataset(args.dataset, split) for split in ("train", "val", "test"))


# ---------------------------------------------------------------------------
# subcommands


def cmd_synth(args, seed: int) -> int:
    if args.n <= 0:
        raise CliError("--n must be positive")
    cfg = ds.SynthConfig(
        n_readings=args.n,
        img_size=args.size,
        classes=tuple(ds.ClassLabel(c) for c in args.classes),
        lesions_min=args.lesions_min,
        lesions_max=args.lesions_max,
    )
    try:  # split the indices first, so bad ratios fail before any rendering
        train, val, test = ds.split(list(range(args.n)), (
            args.train_frac, args.val_frac, 1.0 - args.train_frac - args.val_frac), seed)
    except ValueError as exc:
        raise CliError(f"--train-frac {args.train_frac} --val-frac {args.val_frac}: "
                       f"{exc}") from exc
    readings = ds.synth_generate(cfg, seed)
    splits = {readings[i].id: name
              for name, part in (("train", train), ("val", val), ("test", test))
              for i in part}
    ds.save_dataset(args.out, readings, splits)
    print(f"wrote {len(readings)} readings to {args.out} "
          f"(train {len(train)}, val {len(val)}, test {len(test)})")
    return 0


def cmd_fixations(args, seed: int) -> int:
    samples = gz.read_gaze_csv(args.gaze)
    if args.width or args.height:
        if args.width <= 0 or args.height <= 0:
            raise CliError("--width and --height go together and must be positive, "
                           f"got --width {args.width} --height {args.height}")
        samples = gz.filter_gaze(samples, args.width, args.height, args.margin)
    fixations = gz.detect_fixations(samples, args.dispersion, args.min_dur)
    gz.write_fixation_csv(args.out, fixations)
    print(f"{len(fixations)} fixations -> {args.out}")
    return 0


def cmd_heatmap(args, seed: int) -> int:
    fixations = gz.read_fixation_csv(args.fixations)
    fmap = gz.render_heatmap(fixations, args.width, args.height, args.sigma,
                             weighting=args.weighting)
    values = fmap.values
    if args.binarize is not None:
        values = gz.binarize(fmap, args.binarize).values
    gz.write_pgm(args.out, values)
    if args.float_out:
        gz.write_float_map(args.float_out, values)
    print(f"heatmap {args.width}x{args.height} -> {args.out}")
    return 0


def cmd_train(args, seed: int) -> int:
    train_r, val_r, _ = _load_split(args)
    if not train_r:
        raise CliError("dataset has no train split")
    model_cfg = _model_config(args, seed, args.fixations, train_r[0].width)
    train_cfg = tr.TrainConfig(epochs=args.epochs, lr=args.lr,
                               momentum=args.momentum, seed=seed)
    tr.train(model_cfg, train_r, val_r, train_cfg, args.out, log=print)
    print(f"artifacts in {args.out}")
    return 0


def cmd_eval(args, seed: int) -> int:
    readings = ds.load_dataset(args.dataset, args.split)
    if not readings:
        raise CliError(f"dataset split {args.split!r} is empty")
    report = tr.evaluate(load_checkpoint(args.checkpoint), readings, args.out, args.thresh,
                         args.metric, os.path.basename(args.checkpoint))
    print(report.to_markdown())
    return 0


def cmd_compare(args, seed: int) -> int:
    train_r, val_r, test_r = _load_split(args)
    if not train_r or not test_r:
        raise CliError("compare needs non-empty train and test splits")
    img_size = train_r[0].width
    base = _model_config(args, seed, False, img_size)
    multi = _model_config(args, seed, True, img_size)
    train_cfg = tr.TrainConfig(epochs=args.epochs, lr=args.lr,
                               momentum=args.momentum, seed=seed)
    reports = tr.run_comparison(
        [("image_only", base), ("multimodal", multi)],
        train_r, val_r, test_r, train_cfg, args.out,
        thresh=args.thresh, kind=args.metric, log=print if args.verbose else None,
    )
    print(tr.comparison_markdown(reports))
    return 0


def cmd_gradcheck(args, seed: int) -> int:
    if args.seeds < 1:
        raise CliError(f"--seeds must be >= 1, got {args.seeds}")
    results = gradchecks.run_gradcheck_suite(n_seeds=args.seeds, base_seed=seed,
                                             include_end_to_end=not args.skip_e2e,
                                             log=print)
    worst = max(err for _, err in results)
    ok = worst < gradchecks.TOLERANCE
    print(f"worst relative error {worst:.3e}: {'OK' if ok else 'FAIL'}")
    return 0 if ok else 2


def cmd_report(args, seed: int) -> int:
    dets = load_predictions(args.predictions)
    readings = ds.load_dataset(args.dataset, args.split)
    if not readings:
        raise CliError(f"dataset split {args.split!r} is empty")
    unknown = sorted(set(dets) - {r.id for r in readings})
    if unknown:
        raise CliError(f"{args.predictions}: reading ids not in split {args.split!r}: "
                       f"{unknown}")
    report = tr.write_report(dets, readings, args.out, args.thresh, args.metric,
                             os.path.basename(args.predictions))
    print(report.to_markdown())
    return 0


# ---------------------------------------------------------------------------
# argument wiring


def _add_train_flags(p):
    p.add_argument("--fusion", choices=("sum", "mul"), default="sum")
    p.add_argument("--fusion-point", dest="fusion_point",
                   choices=("input", "feature"), default="feature")
    p.add_argument("--epochs", type=int, default=15)
    p.add_argument("--lr", type=float, default=0.01)
    p.add_argument("--momentum", type=float, default=0.9)


def _add_report_flags(p, split: bool = True):
    if split:
        p.add_argument("--split", default="test")
    p.add_argument("--out", required=True)
    p.add_argument("--metric", choices=("iobb", "iou"), default="iobb")
    p.add_argument("--thresh", type=float, default=0.5)


def build_parser() -> _Parser:
    parser = _Parser(prog="gazedet", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(func, help: str):
        """The subparser that runs ``func`` (``cmd_<name>``), with the common flags."""
        p = sub.add_parser(func.__name__.removeprefix("cmd_"), help=help)
        p.add_argument("--seed", type=int, default=None,
                       help="RNG seed (falls back to GFD_SEED, then 0)")
        p.add_argument("--config", type=str, default=None, help="JSON file of flag defaults")
        p.set_defaults(func=func)
        return p

    p = command(cmd_synth, "generate a synthetic dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--size", type=int, default=64)
    p.add_argument("--classes", type=int, nargs="+", default=[0, 1],
                   choices=range(len(ds.ClassLabel)))
    p.add_argument("--lesions-min", type=int, default=1)
    p.add_argument("--lesions-max", type=int, default=2)
    p.add_argument("--train-frac", type=float, default=0.8)
    p.add_argument("--val-frac", type=float, default=0.1)

    p = command(cmd_fixations, "gaze CSV -> fixation CSV")
    p.add_argument("--gaze", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--dispersion", type=float, default=gz.DEFAULT_DISPERSION_PX)
    p.add_argument("--min-dur", dest="min_dur", type=float, default=gz.DEFAULT_MIN_DURATION_MS)
    p.add_argument("--width", type=int, default=0)
    p.add_argument("--height", type=int, default=0)
    p.add_argument("--margin", type=float, default=0.0)

    p = command(cmd_heatmap, "fixation CSV -> PGM heatmap")
    p.add_argument("--fixations", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--width", type=int, required=True)
    p.add_argument("--height", type=int, required=True)
    p.add_argument("--sigma", type=float, default=gz.DEFAULT_SIGMA_PX)
    p.add_argument("--weighting", choices=("duration", "uniform"), default="duration")
    p.add_argument("--binarize", type=float, default=None)
    p.add_argument("--float-out", dest="float_out", default=None)

    p = command(cmd_train, "train one model arm")
    _add_train_flags(p)
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--fixations", action="store_true", help="train the multimodal arm")

    p = command(cmd_eval, "evaluate a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--dataset", required=True)
    _add_report_flags(p)

    p = command(cmd_compare, "train/eval image-only vs multimodal")
    _add_train_flags(p)
    p.add_argument("--dataset", required=True)
    _add_report_flags(p, split=False)
    p.add_argument("--verbose", action="store_true")

    p = command(cmd_gradcheck, "finite-difference gradient suite")
    p.add_argument("--seeds", type=int, default=20)
    p.add_argument("--skip-e2e", action="store_true")

    p = command(cmd_report, "re-render a report from predictions JSON")
    p.add_argument("--predictions", required=True)
    p.add_argument("--dataset", required=True)
    _add_report_flags(p)

    return parser


def _apply_config_file(parser, argv):
    """Parse once to find --config, then again with its entries as flag
    tokens ahead of the explicit ones, which therefore win. For a switch,
    ``true`` is the bare flag and ``false`` nothing; any other entry is the
    flag and its value, or each item of a list, as JSON text unless a string.

    Returns the arguments and the names of the flags whose value the file set."""
    args = parser.parse_args(argv)
    from_file = []
    if args.config:
        overrides = json_known_keys(json_check(read_json(args.config), dict, args.config),
                                    set(vars(args)) - {"config", "func", "command"}, args.config)
        tokens = []
        for key, value in overrides.items():
            flag = "--" + key.replace("_", "-")
            if isinstance(getattr(args, key), bool) and isinstance(value, bool):
                tokens += [flag] if value else []
            else:
                items = value if isinstance(value, list) else [value]
                tokens += [flag] + [v if isinstance(v, str) else json.dumps(v) for v in items]
        try:  # argv alone parsed, so a failure here is the config file's
            typed, args = args, parser.parse_args(argv[:1] + tokens + argv[1:])
        except CliError as exc:
            raise CliError(f"{args.config}: {exc}") from exc
        # a typed flag keeps its value, so a value the file changed is the file's
        from_file = [key for key in overrides if getattr(args, key) != getattr(typed, key)]
    return args, from_file


# the parameter a flag's value is checked under, where it has another name
_CHECKED_AS = {"size": "img_size", "sigma": "sigma_px", "binarize": "threshold",
               "dispersion": "dispersion_px", "min_dur": "min_duration_ms",
               "margin": "margin_px"}


def _naming_config_file(message: str, args, from_file: list[str]) -> str:
    """``message``, prefixed with the --config path when it names a flag,
    as ``name``, ``--name`` or the parameter it is checked under, whose
    value came from that file."""
    for key in from_file:
        names = f"{key}|--{key.replace('_', '-')}|{_CHECKED_AS.get(key, key)}"
        if re.search(rf"(?<![\w-])({names})(?![\w-])", message):
            return f"{args.config}: {message}"
    return message


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser()
    args, from_file = None, []
    try:
        args, from_file = _apply_config_file(parser, argv)
        seed = _resolve_seed(args)
        _print_resolved(args, seed)
        return args.func(args, seed)
    except (CliError, ValueError, OSError, NumericsError) as exc:
        print(f"error: {_naming_config_file(str(exc), args, from_file)}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
