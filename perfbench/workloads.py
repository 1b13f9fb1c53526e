"""The three benchmark workloads.

Each workload builds its inputs from the seed alone in ``setup``, runs
one recipe iteration in ``run`` (the only timed part), and verifies that
iteration's outputs in ``check``. ``prepare`` resets per-iteration state
before the timer starts. ``run`` calls ``split`` between the recipe's
steps, where the timer pauses to sample the host's speed.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import json
import shutil
import statistics
from pathlib import Path

from morphguard import cli, datagen, encoder, experiment
from morphguard.experiment import DataSettings, ExperimentConfig, ModelSettings

from checks import (
    combined_digest,
    expected_points,
    loss_failures,
    point_failures,
    protocol_failures,
    tree_digests,
)


@dataclasses.dataclass
class Outcome:
    """What one iteration produced, and what was wrong with it."""

    digests: dict
    min_rmmr: float
    failures: list
    nonzero_exits: int = 0

    @property
    def digest(self) -> str:
        return combined_digest(self.digests)


def _train_per_identity(config: ExperimentConfig) -> int:
    data = config.data
    return data.samples_per_class - max(1, int(round(data.samples_per_class * data.holdout_fraction)))


def _report_failures(report, config: ExperimentConfig) -> list[str]:
    expected = expected_points(
        report.verification.genuine,
        report.verification.impostor,
        [trial.subject_scores for trial in report.trials],
        config.eval.fnmr_targets,
        config.eval.fmr_targets,
    )
    rows = [(p.metric, p.target, p.achieved, p.threshold, p.value) for p in report.operating_points]
    return point_failures(rows, expected)


def _protocol_subsets(bundle):
    return bundle.protocol, bundle.universe.subsets


def _pairing_failures(protocol, subsets, config: ExperimentConfig) -> list[str]:
    pairs = [(p.identity_a, p.identity_b, p.sample_a, p.sample_b) for p in protocol.pairs]
    return protocol_failures(pairs, lambda identity: int(subsets[identity]), _train_per_identity(config))


def _capture(module, attr: str, sink: list, keep):
    """Rebind module.attr so keep(result) of each call is appended to sink."""
    original = getattr(module, attr)

    @functools.wraps(original)
    def capturing(*args, **kwargs):
        result = original(*args, **kwargs)
        sink.append(keep(result))
        return result

    setattr(module, attr, capturing)


def _fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


class DeskSweep:
    """experiment.run_sweep over the default 7-offset grid at desk scale."""

    def __init__(self, seed: int, workdir: Path):
        self.config = ExperimentConfig(seed=seed)
        self.workdir = workdir
        self.protocols: list = []
        self.models: list = []
        self.split = lambda: None

    def setup(self):
        # run_sweep returns neither the protocols nor the models; keep them
        # (and nothing bigger, so peak memory stays the recipe's) for the checks.
        _capture(experiment, "generate_bundle", self.protocols, _protocol_subsets)
        _capture(experiment, "train", self.models, lambda trained: trained[0])
        # Split the timer before each grid entry. _sweep_worker is the only
        # per-entry call outside every layer span, so the pause is too.
        sweep_entry = experiment._sweep_worker

        def split_then_sweep_entry(*args):
            self.split()
            return sweep_entry(*args)

        experiment._sweep_worker = split_then_sweep_entry
        warm = dataclasses.replace(
            self.config,
            sweep_grid=self.config.sweep_grid[:1],
            train=dataclasses.replace(self.config.train, epochs=1),
        )
        experiment.run_sweep(warm)

    def prepare(self):
        self.protocols.clear()
        self.models.clear()

    def run(self, split):
        self.split = split
        return experiment.run_sweep(self.config)

    def check(self, results) -> Outcome:
        grid = self.config.sweep_grid
        failures = []
        if not (len(results) == len(self.protocols) == len(self.models) == len(grid)):
            failures.append(
                f"{len(results)} results, {len(self.protocols)} protocols and "
                f"{len(self.models)} trained models for {len(grid)} offsets"
            )
        out = _fresh_dir(self.workdir / "out")
        for (offset, history, report), (protocol, subsets), model in zip(results, self.protocols, self.models):
            failures += loss_failures(history.epoch_mean_loss)
            failures += _pairing_failures(protocol, subsets, self.config)
            failures += _report_failures(report, self.config)
            sub = out / f"margin_{offset:+.3f}"
            sub.mkdir()
            cli.write_report_files(sub, report)
            cli.write_history_csv(sub / "history.csv", [("sweep", history)])
            encoder.save_checkpoint(model, sub / "checkpoint.bin")
        min_rmmr = statistics.fmean(report.min_rmmr_value for _, _, report in results)
        return Outcome(tree_digests(out), min_rmmr, failures)


class WideGenEval:
    """generate_bundle + evaluate_model at 200 identities, dims 128/256/128.

    The model is trained once in set-up with a short fixed schedule, so
    training is absent from the timed part.
    """

    SETUP_EPOCHS = 1

    def __init__(self, seed: int, workdir: Path):
        self.config = ExperimentConfig(
            seed=seed,
            data=DataSettings(num_classes=200, input_dim=128),
            model=ModelSettings(hidden_dims=(256,), embedding_dim=128),
        )
        self.workdir = workdir

    def setup(self):
        bundle = experiment.generate_bundle(self.config)
        schedule = experiment.train_config(self.config, epochs=self.SETUP_EPOCHS)
        self.model, history = encoder.train(experiment.fresh_model(self.config), bundle.train_set, schedule)
        failures = loss_failures(history.epoch_mean_loss)
        if failures:
            raise RuntimeError(f"set-up training failed: {failures[0]}")

    def prepare(self):
        pass

    def run(self, split):
        bundle = experiment.generate_bundle(self.config)
        split()
        return bundle, experiment.evaluate_model(self.model, bundle, self.config)

    def check(self, result) -> Outcome:
        bundle, report = result
        failures = _pairing_failures(*_protocol_subsets(bundle), self.config)
        failures += _report_failures(report, self.config)
        out = _fresh_dir(self.workdir / "out")
        cli.write_report_files(out, report)
        datagen.save_protocol(bundle.protocol, bundle.universe, out / "protocol.json")
        encoder.save_checkpoint(self.model, out / "checkpoint.bin")
        return Outcome(tree_digests(out), report.min_rmmr_value, failures)


class DeskFiles:
    """CLI round trip gen-data -> eval -> analyze-features at desk scale."""

    def __init__(self, seed: int, workdir: Path):
        self.config = ExperimentConfig(seed=seed)
        self.workdir = workdir
        self.out = workdir / "out"

    def setup(self):
        config_path = self.workdir / "config.json"
        config_path.write_text(json.dumps(self.config.to_dict(), indent=2, sort_keys=True) + "\n")
        train_dir = self.workdir / "train"
        code = cli.main(["train", "--config", str(config_path), "--out", str(train_dir)])
        if code != 0:
            raise RuntimeError(f"set-up `train` exited {code}")
        with open(train_dir / "history.csv", newline="") as fh:
            failures = loss_failures(float(row["mean_loss"]) for row in csv.DictReader(fh))
        if failures:
            raise RuntimeError(f"set-up training failed: {failures[0]}")

        common = ["--config", str(config_path)]
        inputs = [
            "--checkpoint", str(train_dir / "checkpoint.bin"),
            "--data", str(self.out / "data" / "bona_fides.jsonl"),
            "--protocol", str(self.out / "data" / "protocol.json"),
        ]
        self.commands = [
            ["gen-data", *common, "--out", str(self.out / "data")],
            ["eval", *common, "--out", str(self.out / "eval"), *inputs],
            ["analyze-features", *common, "--out", str(self.out / "features"), *inputs],
        ]

    def prepare(self):
        shutil.rmtree(self.out, ignore_errors=True)

    def run(self, split):
        codes = [cli.main(self.commands[0])]
        for argv in self.commands[1:]:
            split()
            codes.append(cli.main(argv))
        return codes

    def check(self, codes) -> Outcome:
        failures = [f"`{argv[0]}` exited {code}" for argv, code in zip(self.commands, codes) if code != 0]
        if failures:
            return Outcome({}, float("nan"), failures, nonzero_exits=len(failures))
        failures += self._protocol_failures(self.out / "data" / "protocol.json")

        eval_dir = self.out / "eval"
        genuine, impostor = [], []
        with open(eval_dir / "scores.csv", newline="") as fh:
            for row in csv.DictReader(fh):
                (genuine if row["label"] == "genuine" else impostor).append(float(row["score"]))
        with open(eval_dir / "trials.json") as fh:
            subject_scores = [record["subject_scores"] for record in json.load(fh)]
        with open(eval_dir / "operating_points.csv", newline="") as fh:
            rows = [
                tuple([row["metric"]] + [float(row[k]) if row[k] else None
                                         for k in ("target", "achieved", "threshold", "value")])
                for row in csv.DictReader(fh)
            ]
        expected = expected_points(
            genuine, impostor, subject_scores, self.config.eval.fnmr_targets, self.config.eval.fmr_targets
        )
        failures += point_failures(rows, expected)
        min_rmmr = next((row[4] for row in rows if row[0] == "min_rmmr"), float("nan"))
        return Outcome(tree_digests(self.out), min_rmmr, failures)

    def _protocol_failures(self, path: Path) -> list[str]:
        with open(path) as fh:
            records = json.load(fh)
        subset_of, failures = {}, []
        for record in records:
            for identity, subset in ((record["identity_a"], record["subset_a"]),
                                     (record["identity_b"], record["subset_b"])):
                if subset_of.setdefault(identity, subset) != subset:
                    failures.append(f"identity {identity} is listed in both subsets")
        pairs = [(r["identity_a"], r["identity_b"], r["sample_a"], r["sample_b"]) for r in records]
        return failures + protocol_failures(pairs, subset_of.get, _train_per_identity(self.config))


WORKLOADS = {"desk_sweep": DeskSweep, "wide_gen_eval": WideGenEval, "desk_files": DeskFiles}
