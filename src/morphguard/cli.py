"""Command-line driver for the desk-scale experiments.

Subcommands mirror the experiment recipes: `gen-data`, `train`,
`sweep-margins`, `adapt`, `eval`, `analyze-features`, and
`print-default-config`. `main` resolves one ExperimentConfig (JSON file
plus optional --seed override) and hands it to the command; once the
command has written its files, `main` writes the manifest recording it.
Every command emits only deterministic bytes, so re-running a command
with the same config and inputs reproduces its output files exactly.

Exit codes: 0 success; a failure exits with its family's code from
errors.EXIT_CODES and one stderr line.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__, datagen, featviz, metrics
from .encoder import load_checkpoint, save_checkpoint, train
from .errors import EXIT_CODES, ConfigError, DataError, MorphGuardError
from .experiment import (
    DataBundle,
    ExperimentConfig,
    evaluate_model,
    feature_analysis,
    fresh_model,
    generate_bundle,
    run_adaptation,
    run_sweep,
    sweep_dir_name,
    train_config,
)

# The input-file options, each recorded in the manifest by its sha256 when given.
INPUT_HELP = {
    "checkpoint": "model checkpoint; adapt's is its stage 1, trained if omitted",
    "data": "bona fide pool (JSONL from gen-data)",
    "protocol": "pairing protocol JSON (from gen-data)",
}


def load_config(args) -> ExperimentConfig:
    """The --config file's config (the default without one), its seed
    overridden by --seed; a command without these options gets the default."""
    path, seed = getattr(args, "config", None), getattr(args, "seed", None)
    if path:
        with open(path, "r", encoding="utf-8") as fh:
            try:
                raw = json.load(fh)
            except (ValueError, RecursionError) as exc:
                raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
        config = ExperimentConfig.from_dict(raw)
    else:
        config = ExperimentConfig()
    if seed is not None:
        config = dataclasses.replace(config, seed=seed)
    return config


def _check_out(out) -> None:
    """Before any work, and creating nothing: an existing --out must be a
    directory, and otherwise its nearest existing ancestor a writable one."""
    path = Path(out).absolute()
    ancestor = next(p for p in (path, *path.parents) if p.exists())
    if not ancestor.is_dir():
        raise NotADirectoryError(f"--out {out}: {ancestor} exists and is not a directory")
    if not os.access(ancestor, os.W_OK | os.X_OK):
        raise PermissionError(f"--out {out}: directory {ancestor} is not writable")


def _out_dir(args) -> Path:
    """Create --out once a command has results to write, so a failed command leaves none."""
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir


_HASH_CHUNK = 1 << 18  # bytes per read while hashing an input file


def _file_sha256(path) -> str:
    """The hex sha256 of a file's bytes, read _HASH_CHUNK bytes at a time,
    so that hashing holds no more of the file than one chunk."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(_HASH_CHUNK), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_manifest(args, config: ExperimentConfig):
    """--out's manifest.json: the command, its resolved config, the versions
    and the sha256 of each input file given, keyed by its option (not its
    path, so inputs at other paths give the same manifest)."""
    # numpy promises its Generator streams only within one numpy version.
    payload = {
        "command": args.command,
        "config": config.to_dict(),
        "seed": config.seed,
        "morphguard_version": __version__,
        "numpy_version": np.__version__,
    }
    inputs = {role: _file_sha256(path) for role in INPUT_HELP if (path := getattr(args, role, None))}
    if inputs:
        payload["inputs"] = inputs
    with open(Path(args.out) / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_history_csv(path: Path, histories):
    """histories: list of (stage label, TrainHistory)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("stage,epoch,mean_loss,lr\n")
        for label, history in histories:
            for epoch, (loss, lr) in enumerate(zip(history.epoch_mean_loss, history.epoch_lr)):
                fh.write(f"{label},{epoch},{loss!r},{lr!r}\n")


def write_report_files(out_dir: Path, report, prefix: str = ""):
    metrics.save_curve_csv(report.fnmr_curve, out_dir / f"{prefix}fnmr.csv")
    metrics.save_curve_csv(report.fmr_curve, out_dir / f"{prefix}fmr.csv")
    metrics.save_curve_csv(report.mmpmr_curve, out_dir / f"{prefix}mmpmr.csv")
    metrics.save_operating_points_csv(report.operating_points, out_dir / f"{prefix}operating_points.csv")
    metrics.save_scores_csv(report.verification, out_dir / f"{prefix}scores.csv")
    metrics.save_trials_json(report.trials, out_dir / f"{prefix}trials.json")


def write_point_table(path: Path, key: str, keyed_reports):
    """Operating points of several reports, each row led by its report's key."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"{key},{metrics.OPERATING_POINT_HEADER}\n")
        for label, report in keyed_reports:
            for point in report.operating_points:
                fh.write(f"{label},{metrics.operating_point_row(point)}\n")


def cmd_gen_data(args, config):
    bundle = generate_bundle(config)
    train_set = bundle.train_set
    out_dir = _out_dir(args)
    datagen.save_dataset(bundle.bona_fides, out_dir / "bona_fides.jsonl")
    datagen.save_dataset(train_set, out_dir / "dataset.jsonl")
    datagen.save_protocol(bundle.protocol, bundle.universe, out_dir / "protocol.json")
    print(
        f"wrote {len(bundle.bona_fides)} bona fides, {len(train_set)} training samples, "
        f"{len(bundle.protocol.columns)} protocol pairs to {out_dir}"
    )


def cmd_train(args, config):
    bundle = generate_bundle(config)
    model = fresh_model(config)
    model, history = train(model, bundle.train_set, train_config(config))
    out_dir = _out_dir(args)
    save_checkpoint(model, out_dir / "checkpoint.bin")
    write_history_csv(out_dir / "history.csv", [("initial", history)])
    print(f"trained {config.train.epochs} epochs, final mean loss {history.epoch_mean_loss[-1]:.4f}")


def cmd_sweep_margins(args, config):
    results = run_sweep(config)
    out_dir = _out_dir(args)
    write_point_table(
        out_dir / "summary.csv", "margin", [(repr(float(offset)), report) for offset, _, report in results]
    )
    for offset, history, report in results:
        sub = out_dir / sweep_dir_name(offset)
        sub.mkdir(exist_ok=True)
        write_report_files(sub, report)
        write_history_csv(sub / "history.csv", [("sweep", history)])
    print(f"swept {len(results)} margin offsets; summary at {out_dir / 'summary.csv'}")


def cmd_adapt(args, config):
    pretrained = _load_checkpoint_for(args.checkpoint, config, trains=True) if args.checkpoint else None
    stage1, stage2 = run_adaptation(config, pretrained)
    out_dir = _out_dir(args)
    model1, history1, report1 = stage1
    model2, history2, report2 = stage2
    if history1 is not None:
        save_checkpoint(model1, out_dir / "stage1_checkpoint.bin")
    save_checkpoint(model2, out_dir / "stage2_checkpoint.bin")
    histories = ([("initial", history1)] if history1 is not None else []) + [("adaptation", history2)]
    write_history_csv(out_dir / "history.csv", histories)
    write_point_table(out_dir / "stage_metrics.csv", "stage", [("stage1", report1), ("stage2", report2)])
    write_report_files(out_dir, report1, prefix="stage1_")
    write_report_files(out_dir, report2, prefix="stage2_")
    print(
        f"stage1 min-RMMR {report1.min_rmmr_value:.4f} -> stage2 {report2.min_rmmr_value:.4f}; "
        f"reports at {out_dir}"
    )


def _load_checkpoint_for(path, config, trains=False):
    """Load a checkpoint, rejecting one whose widths differ from the config's and,
    if it will train (so the manifest's config describes it), one whose class
    count or hidden layers do."""
    model = load_checkpoint(path)
    widths, expected = (model.input_dim, model.embedding_dim), (config.data.input_dim, config.model.embedding_dim)
    if widths != expected:
        raise DataError(f"checkpoint {path} has (input, embedding) widths {widths}; the config sets {expected}")
    if trains and model.num_classes != config.data.num_classes:
        raise DataError(f"checkpoint {path} has {model.num_classes} classes; the config sets "
                        f"num_classes {config.data.num_classes}")
    hidden = [w.shape[0] for w, _ in model.layers[:-1]]
    if trains and hidden != list(config.model.hidden_dims):
        raise DataError(f"checkpoint {path} has hidden layers {hidden}; the config sets "
                        f"hidden_dims {list(config.model.hidden_dims)}")
    return model


def _load_eval_inputs(args, config):
    """The checkpoint, and a bundle of the loaded pool and protocol (evaluation reads only the encoder)."""
    model = _load_checkpoint_for(args.checkpoint, config)
    bona_fides = datagen.load_dataset(args.data)
    protocol = datagen.load_protocol(args.protocol)
    (rows, width), data = bona_fides.inputs.shape, config.data
    if (rows, width) != (data.num_classes * data.samples_per_class, data.input_dim):
        raise DataError(f"--data {args.data} holds {rows} samples of {width} inputs; the config implies "
                        f"{data.num_classes * data.samples_per_class} samples of {data.input_dim} inputs")
    if len(protocol.columns) < featviz.MIN_ELLIPSE_POINTS:
        raise DataError(
            f"protocol holds {len(protocol.columns)} pairs; evaluation needs >= {featviz.MIN_ELLIPSE_POINTS}"
        )
    return model, DataBundle(None, bona_fides, protocol)


def cmd_eval(args, config):
    model, bundle = _load_eval_inputs(args, config)
    report = evaluate_model(model, bundle, config)
    out_dir = _out_dir(args)
    write_report_files(out_dir, report)
    print(
        f"evaluated {len(report.trials)} morph trials; min-RMMR {report.min_rmmr_value:.4f} "
        f"at threshold {report.min_rmmr_threshold:.4f}"
    )


def cmd_analyze_features(args, config):
    model, bundle = _load_eval_inputs(args, config)
    aligned, ellipse = feature_analysis(model, bundle.bona_fides, bundle.protocol, config)
    out_dir = _out_dir(args)
    featviz.save_aligned_csv(aligned, out_dir / "aligned_points.csv")
    featviz.save_ellipse_csv(ellipse, out_dir / "ellipse.csv")
    featviz.render_svg(aligned, ellipse, out_dir / "features.svg")
    print(f"analyzed {len(aligned)} triplets; ellipse size {ellipse.size:.4f}")


def cmd_print_default_config(args, config):
    print(json.dumps(config.to_dict(), indent=2, sort_keys=True))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="morphguard",
        description="Dual-branch margin-loss training lab: data generation, margin sweeps, "
        "two-stage adaptation, robustness evaluation, and feature analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    evaluation = dict.fromkeys(INPUT_HELP, True)
    # (name, handler, help, {input-file option: required}, or None for a command without
    # options). Built on each call, so a cmd_* rebound on this module is the one that runs.
    commands = (
        ("gen-data", cmd_gen_data, "emit dataset, protocol, and manifest files", {}),
        ("train", cmd_train, "train one model from the config and save a checkpoint", {}),
        ("sweep-margins", cmd_sweep_margins, "train and evaluate one model per margin offset", {}),
        ("adapt", cmd_adapt, "two-stage run: bona fide pretraining, then morph adaptation", {"checkpoint": False}),
        ("eval", cmd_eval, "evaluate a checkpoint on saved data and protocol files", evaluation),
        ("analyze-features", cmd_analyze_features, "aligned feature clouds, ellipse report, and SVG", evaluation),
        ("print-default-config", cmd_print_default_config, "write the default config JSON to stdout", None),
    )
    for name, func, text, inputs in commands:
        p = sub.add_parser(name, help=text)
        p.set_defaults(func=func)
        if inputs is None:
            continue
        p.add_argument("--config", help="experiment config JSON (defaults apply if omitted)")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--out", required=True, help="output directory")
        for role, required in inputs.items():
            p.add_argument(f"--{role}", required=required, help=INPUT_HELP[role])
    return parser


def main(argv=None) -> int:
    """Check --out, resolve the config, run the command and, once it has
    written its files, record them in --out's manifest.json."""
    args = build_parser().parse_args(argv)
    out = getattr(args, "out", None)
    try:
        if out is not None:
            _check_out(out)
        config = load_config(args)
        args.func(args, config)
        if out is not None:
            write_manifest(args, config)
        return 0
    except (MorphGuardError, OSError) as exc:
        code, label = next((code, label) for family, code, label in EXIT_CODES if isinstance(exc, family))
        print(f"{label}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
