import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import morphguard
from morphguard import cli, errors, metrics
from morphguard.cli import main
from morphguard.datagen import SampleKind, load_dataset, save_dataset
from morphguard.encoder import init_model, load_checkpoint, save_checkpoint
from morphguard.experiment import ExperimentConfig, generate_bundle

import readers

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
from cli_digests import interleave_records  # noqa: E402

SMALL = {
    "seed": 9,
    "data": {"num_classes": 6, "samples_per_class": 10, "input_dim": 16, "spread": 0.15},
    "model": {"hidden_dims": [16], "embedding_dim": 8},
    "train": {"epochs": 2, "lr_start": 2e-2, "lr_end": 1e-3, "batch_size": 32},
    "margin": {"scale": 16.0},
    "sweep_grid": [0.0, -0.1],
    "eval": {"genuine_pairs": 200, "impostor_pairs": 200},
    "adapt": {"stage1_epochs": 2, "stage2_epochs": 2},
}


def cli_process(argv):
    """Run the CLI in a subprocess: pytest captures warnings, so only the process's own stderr shows them."""
    src = str(Path(morphguard.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "morphguard.cli", *argv], capture_output=True, text=True, env=env,
                          timeout=120)


def tree_bytes(root: Path) -> dict:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "config.json"
    path.write_text(json.dumps(SMALL))
    return str(path)


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory, config_path):
    out = tmp_path_factory.mktemp("data")
    assert main(["gen-data", "--config", config_path, "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def train_dir(tmp_path_factory, config_path):
    out = tmp_path_factory.mktemp("train")
    assert main(["train", "--config", config_path, "--out", str(out)]) == 0
    return out


class TestPrintDefaultConfig:
    def test_output_parses_to_default(self, capsys):
        assert main(["print-default-config"]) == 0
        raw = json.loads(capsys.readouterr().out)
        assert ExperimentConfig.from_dict(raw) == ExperimentConfig()


class TestGenData:
    def test_files_and_manifest(self, data_dir, config_path):
        for name in ("bona_fides.jsonl", "dataset.jsonl", "protocol.json", "manifest.json"):
            assert (data_dir / name).exists()
        manifest = json.loads((data_dir / "manifest.json").read_text())
        assert manifest["command"] == "gen-data"
        assert manifest["morphguard_version"] == morphguard.__version__
        assert manifest["numpy_version"] == np.__version__
        assert ExperimentConfig.from_dict(manifest["config"]) == ExperimentConfig.from_dict(SMALL)

    def test_pyproject_version_is_package_version(self):
        # The package's __version__ is the one place the version is written; pyproject.toml reads it.
        tomllib = pytest.importorskip("tomllib")
        pyproject = tomllib.loads((Path(__file__).resolve().parents[1] / "pyproject.toml").read_text())
        assert "version" not in pyproject["project"]
        assert pyproject["project"]["dynamic"] == ["version"]
        assert pyproject["tool"]["setuptools"]["dynamic"]["version"] == {"attr": "morphguard.__version__"}

    def test_morph_count_matches_ratios(self, data_dir):
        dataset = load_dataset(data_dir / "dataset.jsonl")
        kinds = [s.labels.kind for s in dataset]
        n_bona = kinds.count(SampleKind.BONA_FIDE)
        assert kinds.count(SampleKind.MORPH) == n_bona // 2
        assert kinds.count(SampleKind.SELF_MORPH) == n_bona // 2

    def test_protocol_holds_exactly_the_training_morphs(self, tmp_path):
        # n / r_bf * r_m rounds to 413 morphs, n * r_m / r_bf to 412 pairs.
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"data": {"num_classes": 30, "ratios": [3.2, 1.1, 1]}}))
        assert main(["gen-data", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
        dataset = load_dataset(tmp_path / "o" / "dataset.jsonl")
        assert len(json.loads((tmp_path / "o" / "protocol.json").read_text())) == 413
        assert int(dataset.is_morph.sum()) == 413

    @pytest.mark.parametrize("data", [{}, {"ratios": [2, 1, 0]}, {"holdout_fraction": 0.4}],
                             ids=["defaults", "ratios_2_1_0", "holdout_0.4"])
    def test_reused_texts_give_the_files_bytes(self, data, tmp_path):
        """Each file is the bytes of save_dataset on its own set, so dataset.jsonl's
        bona fide lines reuse the text of the pool's lines, picked by pool row."""
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"data": data}))
        assert main(["gen-data", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
        bundle = generate_bundle(ExperimentConfig.from_dict({"data": data}))
        save_dataset(bundle.bona_fides, tmp_path / "bona_fides.jsonl")
        save_dataset(bundle.train_set, tmp_path / "dataset.jsonl")
        for name in ("bona_fides.jsonl", "dataset.jsonl"):
            assert (tmp_path / "o" / name).read_bytes() == (tmp_path / name).read_bytes()

    def test_rerun_byte_identical(self, data_dir, config_path, tmp_path):
        again = tmp_path / "again"
        assert main(["gen-data", "--config", config_path, "--out", str(again)]) == 0
        assert tree_bytes(data_dir) == tree_bytes(again)

    def test_seed_override_changes_output(self, data_dir, config_path, tmp_path):
        other = tmp_path / "other"
        assert main(["gen-data", "--config", config_path, "--seed", "123", "--out", str(other)]) == 0
        assert tree_bytes(data_dir) != tree_bytes(other)


class TestTrain:
    def test_checkpoint_and_history(self, train_dir):
        model = load_checkpoint(train_dir / "checkpoint.bin")
        assert model.num_classes == 6
        lines = (train_dir / "history.csv").read_text().strip().splitlines()
        assert lines[0] == "stage,epoch,mean_loss,lr"
        assert len(lines) == 1 + SMALL["train"]["epochs"]

    def test_rerun_byte_identical(self, train_dir, config_path, tmp_path):
        again = tmp_path / "again"
        assert main(["train", "--config", config_path, "--out", str(again)]) == 0
        assert (train_dir / "checkpoint.bin").read_bytes() == (again / "checkpoint.bin").read_bytes()
        assert (train_dir / "history.csv").read_bytes() == (again / "history.csv").read_bytes()


@pytest.fixture(scope="module")
def eval_dir(tmp_path_factory, config_path, data_dir, train_dir):
    out = tmp_path_factory.mktemp("eval")
    code = main(
        [
            "eval",
            "--config",
            config_path,
            "--out",
            str(out),
            "--checkpoint",
            str(train_dir / "checkpoint.bin"),
            "--data",
            str(data_dir / "bona_fides.jsonl"),
            "--protocol",
            str(data_dir / "protocol.json"),
        ]
    )
    assert code == 0
    return out


class TestEval:
    def test_emits_reports(self, eval_dir):
        for name in ("fnmr.csv", "fmr.csv", "mmpmr.csv", "operating_points.csv", "scores.csv", "trials.json"):
            assert (eval_dir / name).exists()

    def test_sentinel_rows(self, eval_dir):
        fnmr = readers.load_curve_csv(eval_dir / "fnmr.csv")
        assert fnmr.thresholds[0] == -1.0
        assert fnmr.values[0] == 0.0  # no genuine score reaches -1
        assert fnmr.values[-1] == 1.0

    def test_csv_values_rederivable_from_api(self, eval_dir):
        # dual path: everything in the CSVs must equal fresh API calls on
        # the emitted scores and trials
        scores = readers.load_scores_csv(eval_dir / "scores.csv")
        trials = readers.load_trials_json(eval_dir / "trials.json")
        fnmr, fmr = metrics.fnmr_fmr_curves(scores)
        disk_fnmr = readers.load_curve_csv(eval_dir / "fnmr.csv")
        np.testing.assert_array_equal(disk_fnmr.thresholds, fnmr.thresholds)
        np.testing.assert_array_equal(disk_fnmr.values, fnmr.values)
        disk_points = readers.load_operating_points_csv(eval_dir / "operating_points.csv")
        fresh = metrics.mmpmr_at_fnmr(metrics.mmpmr_curve(trials, fnmr.thresholds), fnmr, [0.01, 0.001])
        fresh += metrics.fnmr_at_fmr(fnmr, fmr, [0.001, 0.0001])
        tau, value = metrics.min_rmmr(trials, fnmr)
        assert disk_points[: len(fresh)] == fresh
        min_row = disk_points[len(fresh)]
        assert (min_row.threshold, min_row.value) == (tau, value)

    def test_trial_count_matches_protocol(self, eval_dir, data_dir):
        trials = readers.load_trials_json(eval_dir / "trials.json")
        protocol = json.loads((data_dir / "protocol.json").read_text())
        assert len(trials) == len(protocol)

    def test_dimension_mismatch_exit_code(self, config_path, data_dir, train_dir, tmp_path):
        bad = tmp_path / "bad.jsonl"
        lines = (data_dir / "bona_fides.jsonl").read_text().strip().splitlines()
        record = json.loads(lines[0])
        record["input"] = record["input"][:-2]
        bad.write_text("\n".join([json.dumps(record)] + lines[1:]))
        code = main(
            [
                "eval",
                "--config",
                config_path,
                "--out",
                str(tmp_path / "out"),
                "--checkpoint",
                str(train_dir / "checkpoint.bin"),
                "--data",
                str(bad),
                "--protocol",
                str(data_dir / "protocol.json"),
            ]
        )
        assert code == 3


class TestSweep:
    def test_summary_row_count_and_determinism(self, config_path, tmp_path):
        out = tmp_path / "sweep"
        assert main(["sweep-margins", "--config", config_path, "--out", str(out)]) == 0
        lines = (out / "summary.csv").read_text().strip().splitlines()
        assert lines[0] == "margin,metric,target,achieved,threshold,value"
        assert len(lines) == 1 + len(SMALL["sweep_grid"]) * 6
        for offset in SMALL["sweep_grid"]:
            assert (out / f"margin_{offset:+.3f}" / "fnmr.csv").exists()
        again = tmp_path / "sweep2"
        assert main(["sweep-margins", "--config", config_path, "--out", str(again)]) == 0
        assert tree_bytes(out) == tree_bytes(again)


class TestAdapt:
    def test_two_stage_outputs_and_restart_determinism(self, config_path, tmp_path):
        out = tmp_path / "adapt"
        assert main(["adapt", "--config", config_path, "--out", str(out)]) == 0
        assert (out / "stage1_checkpoint.bin").exists()
        assert (out / "stage2_checkpoint.bin").exists()
        lines = (out / "stage_metrics.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 2 * 6
        # stage 2 rerun from the emitted stage-1 checkpoint is bit-identical
        rerun = tmp_path / "rerun"
        assert main(
            [
                "adapt",
                "--config",
                config_path,
                "--out",
                str(rerun),
                "--checkpoint",
                str(out / "stage1_checkpoint.bin"),
            ]
        ) == 0
        assert (rerun / "stage2_checkpoint.bin").read_bytes() == (out / "stage2_checkpoint.bin").read_bytes()

    def test_paper_stage_structure_in_defaults(self):
        config = ExperimentConfig()
        assert config.adapt.stage1_epochs == 15
        assert config.adapt.stage2_epochs == 10
        assert config.adapt.stage2_morph_offset == -0.1
        # one-decade drop between stages, linear schedules
        assert config.adapt.stage2_lr_start == pytest.approx(config.adapt.stage1_lr_start / 10)


class TestAnalyzeFeatures:
    def test_outputs_and_structure(self, config_path, data_dir, train_dir, tmp_path):
        out = tmp_path / "features"
        code = main(
            [
                "analyze-features",
                "--config",
                config_path,
                "--out",
                str(out),
                "--checkpoint",
                str(train_dir / "checkpoint.bin"),
                "--data",
                str(data_dir / "bona_fides.jsonl"),
                "--protocol",
                str(data_dir / "protocol.json"),
            ]
        )
        assert code == 0
        protocol = json.loads((data_dir / "protocol.json").read_text())
        svg = (out / "features.svg").read_text()
        assert svg.count("<circle") == 3 * len(protocol)
        assert svg.count("<ellipse") == 1
        header, row = (out / "ellipse.csv").read_text().strip().splitlines()
        w, h, s, *_ = (float(v) for v in row.split(","))
        assert s == (w + h) / 2
        aligned = (out / "aligned_points.csv").read_text().strip().splitlines()
        assert len(aligned) == 1 + 3 * len(protocol)


def eval_argv(command, config_path, out, checkpoint, pool, protocol):
    return [command, "--config", config_path, "--out", str(out), "--checkpoint", str(checkpoint),
            "--data", str(pool), "--protocol", str(protocol)]


class TestRecordOrder:
    """Each identity's record order in the pool file defines its split; the order across identities does not count."""

    @pytest.mark.parametrize("command", ["eval", "analyze-features"])
    def test_interleaved_pool_gives_the_same_bytes(self, command, config_path, data_dir, train_dir, tmp_path):
        source = data_dir / "bona_fides.jsonl"
        shuffled = tmp_path / "bona_fides.jsonl"
        interleave_records(source, shuffled, seed=1)
        lines, shuffled_lines = source.read_text().splitlines(), shuffled.read_text().splitlines()
        owner = [json.loads(line)["y_dot"] for line in shuffled_lines]
        assert sorted(owner) != owner  # not identity-major
        by_identity = {}
        for line in shuffled_lines:
            by_identity.setdefault(json.loads(line)["y_dot"], []).append(line)
        assert [line for i in sorted(by_identity) for line in by_identity[i]] == lines

        trees = []
        for name, pool in (("file", source), ("interleaved", shuffled)):
            out = tmp_path / name
            argv = eval_argv(command, config_path, out, train_dir / "checkpoint.bin", pool, data_dir / "protocol.json")
            assert main(argv) == 0
            (out / "manifest.json").unlink()  # it records the pool file's digest
            trees.append(tree_bytes(out))
        assert len(trees[0]) == (6 if command == "eval" else 3)
        assert trees[0] == trees[1]


def manifest_of(out: Path) -> dict:
    return json.loads((out / "manifest.json").read_text())


def input_paths(data_dir, train_dir) -> dict:
    """The evaluation input files, keyed by their options."""
    return {
        "checkpoint": train_dir / "checkpoint.bin",
        "data": data_dir / "bona_fides.jsonl",
        "protocol": data_dir / "protocol.json",
    }


def input_args(paths: dict) -> list:
    """`--<option> <path>` for each input file."""
    return [arg for role, path in paths.items() for arg in (f"--{role}", str(path))]


class TestManifestInputs:
    def test_eval_records_input_digests(self, eval_dir, data_dir, train_dir):
        paths = input_paths(data_dir, train_dir)
        expected = {role: hashlib.sha256(path.read_bytes()).hexdigest() for role, path in paths.items()}
        assert manifest_of(eval_dir)["inputs"] == expected
        assert "inputs" not in manifest_of(data_dir) and "inputs" not in manifest_of(train_dir)

    def test_analyze_features_digests_are_keyed_by_role(self, config_path, data_dir, train_dir, tmp_path):
        originals = input_paths(data_dir, train_dir)
        copies = {role: tmp_path / f"copy_of_{path.name}" for role, path in originals.items()}
        for role, path in originals.items():
            shutil.copyfile(path, copies[role])
        for out, paths in (("a", originals), ("b", copies)):
            argv = ["analyze-features", "--config", config_path, "--out", str(tmp_path / out)]
            assert main(argv + input_args(paths)) == 0
        expected = {role: hashlib.sha256(path.read_bytes()).hexdigest() for role, path in originals.items()}
        assert manifest_of(tmp_path / "a")["inputs"] == expected
        assert tree_bytes(tmp_path / "a") == tree_bytes(tmp_path / "b")

    def test_adapt_records_its_checkpoint_digest(self, config_path, train_dir, tmp_path):
        checkpoint = train_dir / "checkpoint.bin"
        argv = ["adapt", "--config", config_path, "--out", str(tmp_path / "o"), "--checkpoint", str(checkpoint)]
        assert main(argv) == 0
        assert manifest_of(tmp_path / "o")["inputs"] == {"checkpoint": hashlib.sha256(checkpoint.read_bytes()).hexdigest()}


class TestManifestHashing:
    def test_file_digest_is_hashlibs(self, tmp_path):
        rng = np.random.default_rng(7)
        for size in (0, 1, cli._HASH_CHUNK - 1, cli._HASH_CHUNK, 3 * cli._HASH_CHUNK + 5):
            path = tmp_path / f"f{size}.bin"
            path.write_bytes(rng.bytes(size))
            assert cli._file_sha256(path) == hashlib.sha256(path.read_bytes()).hexdigest()

    def test_manifest_hashes_a_large_input_in_bounded_memory(self, tmp_path):
        """Hashing streams the file: it never holds more of it than one chunk."""
        data = tmp_path / "bona_fides.jsonl"
        data.write_bytes(np.random.default_rng(8).bytes(6_000_000))
        args = argparse.Namespace(command="eval", out=str(tmp_path), checkpoint=None, data=str(data), protocol=None)
        tracemalloc.start()
        try:
            cli.write_manifest(args, ExperimentConfig())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert manifest_of(tmp_path)["inputs"] == {"data": hashlib.sha256(data.read_bytes()).hexdigest()}
        assert peak < 1_000_000


class TestFrontDoor:
    """main resolves the config, runs the command bound on the cli module, then writes the manifest."""

    @pytest.mark.parametrize(
        "command, given",
        [
            ("gen-data", ()),
            ("train", ()),
            ("sweep-margins", ()),
            ("adapt", ()),
            ("adapt", ("checkpoint",)),
            ("eval", ("checkpoint", "data", "protocol")),
            ("analyze-features", ("checkpoint", "data", "protocol")),
        ],
    )
    def test_manifest_names_the_command_and_the_inputs_given(
        self, command, given, config_path, data_dir, train_dir, tmp_path
    ):
        paths = {role: path for role, path in input_paths(data_dir, train_dir).items() if role in given}
        argv = [command, "--config", config_path, "--out", str(tmp_path / "o")]
        assert main(argv + input_args(paths)) == 0
        manifest = manifest_of(tmp_path / "o")
        assert manifest["command"] == command
        digests = {role: hashlib.sha256(path.read_bytes()).hexdigest() for role, path in paths.items()}
        assert manifest.get("inputs", {}) == digests
        assert ("inputs" in manifest) == bool(given)

    def test_main_runs_the_command_bound_when_it_is_called(
        self, config_path, data_dir, train_dir, tmp_path, monkeypatch
    ):
        calls, original = [], cli.cmd_eval

        def wrapper(args, config):
            calls.append((args.command, config))
            return original(args, config)

        monkeypatch.setattr(cli, "cmd_eval", wrapper)
        paths = input_paths(data_dir, train_dir)
        argv = ["eval", "--config", config_path, "--out", str(tmp_path / "o")]
        assert main(argv + input_args(paths)) == 0
        assert calls == [("eval", ExperimentConfig.from_dict(SMALL))]
        assert manifest_of(tmp_path / "o")["command"] == "eval"
        assert (tmp_path / "o" / "trials.json").exists()


def edit_pool(data_dir, tmp_path, edit):
    """Copy of the gen-data bona fide pool with edit(records) applied."""
    records = [json.loads(line) for line in (data_dir / "bona_fides.jsonl").read_text().splitlines()]
    edit(records)
    path = tmp_path / "pool.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    return path


def edit_protocol(data_dir, tmp_path, edit):
    """Copy of the gen-data protocol with edit(records) applied."""
    records = json.loads((data_dir / "protocol.json").read_text())
    edit(records)
    path = tmp_path / "protocol.json"
    path.write_text(json.dumps(records))
    return path


def edit_config(data_dir, tmp_path, edit):
    """Copy of the SMALL config with edit(config) applied."""
    config = json.loads(json.dumps(SMALL))
    edit(config)
    path = tmp_path / "edited_config.json"
    path.write_text(json.dumps(config))
    return path


def swap_sides(records):
    for r in records:
        for key in ("identity", "sample", "subset"):
            r[f"{key}_a"], r[f"{key}_b"] = r[f"{key}_b"], r[f"{key}_a"]


def pair_within_subset_1(records):
    first = records[0]["identity_a"]
    other = next(r["identity_a"] for r in records if r["identity_a"] != first)
    records[0].update(identity_b=other, subset_b=1)


def list_identity_in_both_subsets(records):
    first = records[0]["identity_a"]
    records[0]["identity_b"] = next(r["identity_a"] for r in records if r["identity_a"] != first)


def empty_protocol(records):
    records.clear()


def keep_two_pairs(records):
    del records[2:]


def sample_a_float(records):
    records[0]["sample_a"] = 1.7


def sample_a_string(records):
    records[0]["sample_a"] = "3"


def sample_a_bool(records):
    records[0]["sample_a"] = True


def relabel_last_of_identity_0(records):
    records[SMALL["data"]["samples_per_class"] - 1].update(y_dot=1, y_ddot=1, source_ids=[1])


def truncate_record_45(records):
    records[45]["input"] = records[45]["input"][:-1]


def nan_input_45(records):
    records[45]["input"][3] = float("nan")


def float_label_45(records):
    records[45]["y_dot"] = records[45]["y_ddot"] = float(records[45]["y_dot"])


def duplicate_input_nested_1100(line):
    """orjson parses the nested list and keeps the second "input"; json.loads raises RecursionError."""
    return line.replace("{", '{"input": ' + "[" * 1100 + "]" * 1100 + ", ", 1)


def first_input_10_30(line):
    """orjson reads 10**30 as the float 1e+30; json.loads keeps the integer, which numpy cannot hold."""
    head, inputs = line.split('"input": [')
    return f'{head}"input": [{10**30}, {inputs.split(", ", 1)[1]}'


def identity_a_1e30(records):
    records[0]["identity_a"] = 10**30


def sample_b_2_63(records):
    records[0]["sample_b"] = 2**63


def relabel_45_1e30(records):
    records[45].update(y_dot=10**30, y_ddot=10**30, source_ids=[10**30])


def y_ddot_45_2_63(records):
    records[45]["y_ddot"] = 2**63


def num_classes_2_70(config):
    config["data"]["num_classes"] = 2**70


def samples_per_class_2_70(config):
    config["data"]["samples_per_class"] = 2**70


def hidden_width_2_70(config):
    config["model"]["hidden_dims"] = [2**70]


def embedding_dim_2_70(config):
    config["model"]["embedding_dim"] = 2**70


def epochs_2_70(config):
    config["train"]["epochs"] = 2**70


class TestExitCodes:
    def test_exit_table_is_total(self):
        # main reports an error by its one EXIT_CODES family; an error outside every family
        # would reach the user as a traceback.
        def with_subclasses(cls):
            return [cls] + [c for sub in cls.__subclasses__() for c in with_subclasses(sub)]

        defined = [value for value in vars(errors).values()
                   if isinstance(value, type) and issubclass(value, Exception) and value.__module__ == errors.__name__]
        assert errors.MorphGuardError in defined and len(defined) > 1
        for cls in [c for c in defined if c is not errors.MorphGuardError] + with_subclasses(OSError):
            codes = [code for family, code, _ in errors.EXIT_CODES if issubclass(cls, family)]
            assert len(codes) == 1, cls
            assert issubclass(cls, errors.MorphGuardError) or codes == [5], cls

    def test_missing_config_file_is_io_error(self, tmp_path):
        assert main(["gen-data", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == 5

    def test_bad_config_value(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"train": {"epochs": 0}}))
        assert main(["gen-data", "--config", str(path), "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("text", ['{"seed": 1,', json.dumps({"seed": "x"}), "[1, 2]"])
    def test_unparsable_config_is_one_line_config_error(self, text, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(text)
        assert main(["gen-data", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert len(capsys.readouterr().err.strip().splitlines()) == 1
        assert not (tmp_path / "o").exists()

    def test_negative_seed_flag_rejected(self, tmp_path, capsys):
        assert main(["train", "--seed", "-3", "--out", str(tmp_path / "o")]) == 2
        assert len(capsys.readouterr().err.strip().splitlines()) == 1
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["gen-data", "train", "sweep-margins", "adapt", "eval", "analyze-features"])
    @pytest.mark.parametrize(
        "bad",
        [
            {"sweep_grid": [0.0, -3.0]},
            {"adapt": {"stage2_morph_offset": -3.0}},
            {"model": {**SMALL["model"], "embedding_dim": 31}},
            {"eval": {"genuine_pairs": -5, "impostor_pairs": 200}},
            {"eval": {**SMALL["eval"], "fmr_targets": [1.5]}},
            {"data": {**SMALL["data"], "samples_per_class": 5}},
            {"data": {**SMALL["data"], "num_classes": 7}},
            {"data": {**SMALL["data"], "input_dim": 1}},
            {"data": {**SMALL["data"], "spread": -0.1}},
            {"data": {**SMALL["data"], "ratios": [2, 0, 1]}},
            {"data": {**SMALL["data"], "ratios": [2000, 1, 1]}},
            {"data": {**SMALL["data"], "ratios": [2, 1000, 1]}},
            {"train": {**SMALL["train"], "epochs": 1.5}},
            {"train": {**SMALL["train"], "batch_size": 12.5}},
            {"train": {**SMALL["train"], "epochs": True}},
            {"margin": {"scale": float("inf")}},
            {"seed": -3},
            {"seed": 1.5},
            {"data": {**SMALL["data"], "num_classes": 6.0}},
            {"data": {**SMALL["data"], "samples_per_class": True}},
            {"data": {**SMALL["data"], "input_dim": 16.0}},
            {"model": {**SMALL["model"], "hidden_dims": [16.0]}},
            {"model": {**SMALL["model"], "embedding_dim": 8.0}},
            {"eval": {**SMALL["eval"], "genuine_pairs": 2.5}},
            {"eval": {**SMALL["eval"], "impostor_pairs": True}},
            {"data": {**SMALL["data"], "alpha": "x"}},
            {"data": {**SMALL["data"], "alpha": float("nan")}},
            {"data": {**SMALL["data"], "alpha": 1.5}},
            {"margin": {"scale": True}},
            {"data": {**SMALL["data"], "spread": True}},
            {"train": {**SMALL["train"], "lr_end": True}},
            {"sweep_grid": [0.0, True]},
            {"data": {**SMALL["data"], "ratios": [2, True, 1]}},
            {"sweep_grid": []},
            {"data": {**SMALL["data"], "ratios": [2, 1, -1]}},
            {"data": {**SMALL["data"], "samples_per_class": 3, "holdout_fraction": 0.5}},
            {"data": {**SMALL["data"], "ratios": [1e-320, 1, 1]}},
            {"data": {**SMALL["data"], "ratios": [1e-300, 1e300, 1]}},
            {"sweep_grid": [0.0001, 0.0004], "train": {**SMALL["train"], "epochs": 1}},
            {"sweep_gird": [0.0]},
            {"data": [["num_classes", 6]]},
            {"eval": {**SMALL["eval"], "genuine_pairs": 2**62}},
            {"model": {**SMALL["model"], "hidden_dims": [2**62]}},
            # Learning-rate schedules of 2**62 epochs: train's, and adapt's stage 1 of bona fides alone.
            {"train": {**SMALL["train"], "epochs": 2**62}},
            {"adapt": {**SMALL["adapt"], "stage1_epochs": 2**62}},
        ],
    )
    def test_untrainable_regime_rejected_by_every_command(self, command, bad, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**SMALL, **bad}))
        inputs = ["--checkpoint", "c.bin", "--data", "d.jsonl", "--protocol", "p.json"]
        argv = [command, "--config", str(path), "--out", str(tmp_path / "o")]
        assert main(argv + (inputs if command in ("eval", "analyze-features") else [])) == 2
        assert len(capsys.readouterr().err.strip().splitlines()) == 1
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("content", [b'[{"identity_a": ', b'\xff\xfe{}'])
    @pytest.mark.parametrize("broken", ["data", "protocol"])
    def test_malformed_input_json_is_data_error(
        self, broken, content, config_path, data_dir, train_dir, tmp_path, capsys
    ):
        paths = {"data": data_dir / "bona_fides.jsonl", "protocol": data_dir / "protocol.json"}
        paths[broken] = tmp_path / f"broken_{broken}.json"
        paths[broken].write_bytes(content)
        code = main(
            [
                "eval",
                "--config",
                config_path,
                "--out",
                str(tmp_path / "o"),
                "--checkpoint",
                str(train_dir / "checkpoint.bin"),
                "--data",
                str(paths["data"]),
                "--protocol",
                str(paths["protocol"]),
            ]
        )
        assert code == 3
        assert len(capsys.readouterr().err.strip().splitlines()) == 1

    @pytest.mark.parametrize("nested, code", [("config", 2), ("data", 3), ("protocol", 3)])
    def test_deeply_nested_json_is_one_line_error(
        self, nested, code, config_path, data_dir, train_dir, tmp_path, capsys
    ):
        """A document nested past the parser's recursion limit (as --data, one record) is malformed input."""
        paths = {"config": config_path, "data": data_dir / "bona_fides.jsonl", "protocol": data_dir / "protocol.json"}
        paths[nested] = tmp_path / "nested.json"
        paths[nested].write_text("[" * 100_000 + "\n")
        argv = ["eval", "--out", str(tmp_path / "o"), "--checkpoint", str(train_dir / "checkpoint.bin")]
        assert main(argv + input_args(paths)) == code
        assert len(capsys.readouterr().err.strip().splitlines()) == 1
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("edit, message", [
        (duplicate_input_nested_1100, "line 46 is not a JSON dataset record: RecursionError("),
        (first_input_10_30, "line 46: input is not a list of JSON numbers as long as the first record's"),
    ])
    def test_record_orjson_reads_but_json_rejects(self, edit, message, config_path, data_dir, train_dir, tmp_path,
                                                  capsys):
        """A pool record that only json.loads rejects exits 3 with json's message."""
        lines = (data_dir / "bona_fides.jsonl").read_text().splitlines(keepends=True)
        lines[45] = edit(lines[45])
        pool = tmp_path / "pool.jsonl"
        pool.write_text("".join(lines))
        argv = eval_argv("eval", config_path, tmp_path / "o", train_dir / "checkpoint.bin", pool,
                         data_dir / "protocol.json")
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and message in err
        assert not (tmp_path / "o").exists()

    def test_corrupt_checkpoint_is_data_error(self, config_path, data_dir, tmp_path):
        ckpt = tmp_path / "junk.bin"
        ckpt.write_bytes(b"NOTMAGIC" + b"\x00" * 64)
        code = main(
            [
                "eval",
                "--config",
                config_path,
                "--out",
                str(tmp_path / "o"),
                "--checkpoint",
                str(ckpt),
                "--data",
                str(data_dir / "bona_fides.jsonl"),
                "--protocol",
                str(data_dir / "protocol.json"),
            ]
        )
        assert code == 3

    def _assert_one_line_data_error(self, argv, capsys):
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("data/protocol error: ")
        return err

    @pytest.mark.parametrize(
        "edit",
        [
            swap_sides,
            pair_within_subset_1,
            list_identity_in_both_subsets,
            empty_protocol,
            keep_two_pairs,
            sample_a_float,
            sample_a_string,
            sample_a_bool,
        ],
    )
    def test_bad_protocol(self, edit, config_path, data_dir, train_dir, tmp_path, capsys):
        protocol = edit_protocol(data_dir, tmp_path, edit)
        argv = [
            "eval", "--config", config_path, "--out", str(tmp_path / "o"),
            "--checkpoint", str(train_dir / "checkpoint.bin"),
            "--data", str(data_dir / "bona_fides.jsonl"), "--protocol", str(protocol),
        ]
        self._assert_one_line_data_error(argv, capsys)

    @pytest.mark.parametrize("edit", [relabel_last_of_identity_0, truncate_record_45, nan_input_45, float_label_45])
    def test_bad_pool(self, edit, config_path, data_dir, train_dir, tmp_path, capsys):
        pool = edit_pool(data_dir, tmp_path, edit)
        argv = [
            "eval", "--config", config_path, "--out", str(tmp_path / "o"),
            "--checkpoint", str(train_dir / "checkpoint.bin"),
            "--data", str(pool), "--protocol", str(data_dir / "protocol.json"),
        ]
        self._assert_one_line_data_error(argv, capsys)

    @pytest.mark.parametrize("command", ["eval", "analyze-features"])
    @pytest.mark.parametrize("rows", [slice(None), slice(45, None, 7)], ids=["every_row", "from_row_45"])
    def test_pool_holds_only_bona_fides(self, command, rows, config_path, data_dir, train_dir, tmp_path, capsys):
        """Selfmorph records in the pool exit 3 naming the first of them, before --out exists."""
        def to_selfmorphs(records):
            for record in records[rows]:
                record["kind"] = "selfmorph"

        pool = edit_pool(data_dir, tmp_path, to_selfmorphs)
        argv = eval_argv(command, config_path, tmp_path / "o", train_dir / "checkpoint.bin", pool,
                         data_dir / "protocol.json")
        err = self._assert_one_line_data_error(argv, capsys)
        assert f"pool row {rows.start or 0} is a selfmorph; a pool holds only bona fides" in err
        assert not (tmp_path / "o").exists()

    def test_repeated_pairs(self, config_path, data_dir, train_dir, tmp_path, capsys):
        """A protocol of its first half written twice exits 3, naming both places of the first repeat."""
        half = len(json.loads((data_dir / "protocol.json").read_text())) // 2

        def write_first_half_twice(records):
            records[:] = records[:half] * 2

        protocol = edit_protocol(data_dir, tmp_path, write_first_half_twice)
        argv = eval_argv("eval", config_path, tmp_path / "o", train_dir / "checkpoint.bin",
                         data_dir / "bona_fides.jsonl", protocol)
        err = self._assert_one_line_data_error(argv, capsys)
        assert f"{protocol}: pair {half} repeats pair 0, MorphPair(" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["eval", "analyze-features"])
    def test_pool_rows_of_another_width(self, command, config_path, data_dir, train_dir, tmp_path, capsys):
        """Pool rows one input wider than the config's input_dim exit 3 naming --data."""
        def widen(records):
            for record in records:
                record["input"].append(0.0)

        pool = edit_pool(data_dir, tmp_path, widen)
        argv = eval_argv(command, config_path, tmp_path / "o", train_dir / "checkpoint.bin", pool,
                         data_dir / "protocol.json")
        err = self._assert_one_line_data_error(argv, capsys)
        assert f"--data {pool} holds 60 samples of 17 inputs; the config implies 60 samples of 16 inputs" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["eval", "analyze-features"])
    @pytest.mark.parametrize(
        "edit_file, edit",
        [
            (edit_protocol, identity_a_1e30),
            (edit_protocol, sample_b_2_63),
            (edit_pool, relabel_45_1e30),
            (edit_pool, y_ddot_45_2_63),
            (edit_config, num_classes_2_70),
            (edit_config, samples_per_class_2_70),
            (edit_config, hidden_width_2_70),
            (edit_config, embedding_dim_2_70),
            (edit_config, epochs_2_70),
        ],
        ids=[
            "protocol-identity_a_1e30", "protocol-sample_b_2_63", "pool-labels_1e30", "pool-y_ddot_2_63",
            "config-num_classes_2_70", "config-samples_per_class_2_70", "config-hidden_width_2_70",
            "config-embedding_dim_2_70", "config-epochs_2_70",
        ],
    )
    def test_integer_outside_int64(self, command, edit_file, edit, config_path, data_dir, train_dir, tmp_path, capsys):
        """An out-of-int64 input integer exits 3, a config one exits 2 before --out exists."""
        inputs = {"--config": config_path, "--data": data_dir / "bona_fides.jsonl",
                  "--protocol": data_dir / "protocol.json"}
        option = {edit_config: "--config", edit_pool: "--data", edit_protocol: "--protocol"}[edit_file]
        inputs[option] = edit_file(data_dir, tmp_path, edit)
        argv = [command, "--out", str(tmp_path / "o"), "--checkpoint", str(train_dir / "checkpoint.bin")]
        argv += [str(part) for option, path in inputs.items() for part in (option, path)]
        if edit_file is not edit_config:
            assert "fit in a 64-bit integer" in self._assert_one_line_data_error(argv, capsys)
            return
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and err.startswith("config error: ")
        assert "fit in a 64-bit integer" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "command, section, fields, message",
        [
            ("train", "train", {"epochs": 1, "lr_start": 1e300, "lr_end": 1e300}, "epoch 1, step 2 of 3 is nan"),
            ("train", "margin", {"scale": 1e308}, "training diverged: the loss of epoch 1, step 1 of 3 is inf"),
            ("gen-data", "data", {"spread": 1e300}, "its squared norm overflows float64"),
            ("train", "data", {"spread": 1e308}, "its squared norm overflows float64"),
        ],
        ids=["train-lr_1e300", "train-scale_1e308", "gen-data-spread_1e300", "train-spread_1e308"],
    )
    def test_numeric_failure_is_one_line(self, command, section, fields, message, tmp_path):
        """A diverging run or an overflowing row norm exits 4 with one stderr
        line and no numpy warning (checked in a subprocess)."""
        config = json.loads(json.dumps(SMALL))
        config[section].update(fields)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        proc = cli_process([command, "--config", str(path), "--out", str(tmp_path / "o")])
        assert proc.returncode == 4
        lines = proc.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("numeric error: ") and message in lines[0], proc.stderr
        assert not (tmp_path / "o").exists()

    def test_adapting_an_overflowing_head_is_one_line(self, config_path, train_dir, tmp_path):
        """A head row whose norm overflows would never move in stage 2: exit 4
        naming the step, with no numpy warning and no --out."""
        model = load_checkpoint(train_dir / "checkpoint.bin")
        model.head1[0] = 1e160
        save_checkpoint(model, tmp_path / "big.bin")
        proc = cli_process(["adapt", "--config", config_path, "--out", str(tmp_path / "o"),
                            "--checkpoint", str(tmp_path / "big.bin")])
        assert proc.returncode == 4
        lines = proc.stderr.strip().splitlines()
        assert len(lines) == 1, proc.stderr
        assert lines[0] == "numeric error: training diverged: a head row's norm is not finite at epoch 1, step 1 of 3"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["eval", "analyze-features"])
    def test_overflowing_embedding_norm_is_one_line(self, command, config_path, data_dir, train_dir, tmp_path):
        """A final layer of 1e300 weights overflows the embeddings' squared norms:
        exit 4 naming the row, with no numpy warning, rather than scores of 0.0."""
        model = load_checkpoint(train_dir / "checkpoint.bin")
        model.layers[-1][0][:] = 1e300
        save_checkpoint(model, tmp_path / "big.bin")
        proc = cli_process(eval_argv(command, config_path, tmp_path / "o", tmp_path / "big.bin",
                                     data_dir / "bona_fides.jsonl", data_dir / "protocol.json"))
        assert proc.returncode == 4
        lines = proc.stderr.strip().splitlines()
        assert len(lines) == 1, proc.stderr
        assert lines[0].startswith("numeric error: cannot normalize pre-normalization embedding row ")
        assert lines[0].endswith(": it overflows float64")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "command, section, fields, code",
        [
            ("train", "train", {"epochs": 1, "lr_start": 1e300, "lr_end": 1e300}, 4),
            ("gen-data", "data", {"spread": 1e300}, 4),
            ("eval", None, None, 5),
        ],
        ids=["train-lr_1e300", "gen-data-spread_1e300", "eval-missing_protocol"],
    )
    def test_failed_command_leaves_no_out_dir(
        self, command, section, fields, code, data_dir, train_dir, tmp_path, capsys
    ):
        """A command that fails after its config is accepted creates no --out."""
        config = json.loads(json.dumps(SMALL))
        if section:
            config[section].update(fields)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        argv = [command, "--config", str(path), "--out", str(tmp_path / "o")]
        if command == "eval":
            argv += ["--checkpoint", str(train_dir / "checkpoint.bin"), "--data", str(data_dir / "bona_fides.jsonl"),
                     "--protocol", str(tmp_path / "missing.json")]
        assert main(argv) == code
        assert len(capsys.readouterr().err.strip().splitlines()) == 1
        assert not (tmp_path / "o").exists()

    def test_adapt_checkpoint_of_other_input_width(self, config_path, tmp_path, capsys):
        data = SMALL["data"]
        model = init_model(2 * data["input_dim"], [16], 8, data["num_classes"], seed=1)
        save_checkpoint(model, tmp_path / "wide.bin")
        argv = ["adapt", "--config", config_path, "--out", str(tmp_path / "o"),
                "--checkpoint", str(tmp_path / "wide.bin")]
        self._assert_one_line_data_error(argv, capsys)

    @pytest.mark.parametrize("embedding_dim", [7, 16])
    @pytest.mark.parametrize("command", ["eval", "analyze-features", "adapt"])
    def test_checkpoint_of_other_embedding_width(
        self, command, embedding_dim, config_path, data_dir, tmp_path, capsys
    ):
        data = SMALL["data"]
        model = init_model(data["input_dim"], [16], embedding_dim, data["num_classes"], seed=1)
        save_checkpoint(model, tmp_path / "other.bin")
        argv = [command, "--config", config_path, "--out", str(tmp_path / "o"),
                "--checkpoint", str(tmp_path / "other.bin")]
        if command != "adapt":
            argv += ["--data", str(data_dir / "bona_fides.jsonl"), "--protocol", str(data_dir / "protocol.json")]
        self._assert_one_line_data_error(argv, capsys)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("num_classes", [3, 12], ids=["fewer", "more"])
    def test_adapt_checkpoint_of_other_class_count(self, num_classes, config_path, tmp_path, capsys):
        data = SMALL["data"]
        path = tmp_path / "other.bin"
        save_checkpoint(init_model(data["input_dim"], [16], 8, num_classes, seed=1), path)
        argv = ["adapt", "--config", config_path, "--out", str(tmp_path / "o"), "--checkpoint", str(path)]
        err = self._assert_one_line_data_error(argv, capsys)
        assert f"checkpoint {path} has {num_classes} classes; the config sets num_classes {data['num_classes']}" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("hidden", [[40, 40], [], [17]], ids=["deeper", "none", "wider"])
    def test_adapt_checkpoint_of_other_hidden_layers(self, hidden, config_path, tmp_path, capsys):
        data = SMALL["data"]
        path = tmp_path / "other.bin"
        save_checkpoint(init_model(data["input_dim"], hidden, 8, data["num_classes"], seed=1), path)
        argv = ["adapt", "--config", config_path, "--out", str(tmp_path / "o"), "--checkpoint", str(path)]
        err = self._assert_one_line_data_error(argv, capsys)
        assert f"checkpoint {path} has hidden layers {hidden}; the config sets hidden_dims [16]" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["eval", "analyze-features"])
    def test_evaluation_reads_a_checkpoint_of_any_hidden_layers(self, command, config_path, data_dir, tmp_path):
        data = SMALL["data"]
        path = tmp_path / "other.bin"
        save_checkpoint(init_model(data["input_dim"], [40, 40], 8, data["num_classes"], seed=1), path)
        argv = eval_argv(command, config_path, tmp_path / "o", path, data_dir / "bona_fides.jsonl",
                         data_dir / "protocol.json")
        assert main(argv) == 0

    @pytest.mark.parametrize("command", ["eval", "analyze-features"])
    def test_evaluation_reads_a_checkpoint_of_any_class_count(self, command, config_path, data_dir, tmp_path):
        data = SMALL["data"]
        path = tmp_path / "other.bin"
        save_checkpoint(init_model(data["input_dim"], [16], 8, 2 * data["num_classes"], seed=1), path)
        argv = eval_argv(command, config_path, tmp_path / "o", path, data_dir / "bona_fides.jsonl",
                         data_dir / "protocol.json")
        assert main(argv) == 0


class TestEarlyOutCheck:
    """Every command that writes --out checks it before any work and creates nothing when it fails."""

    @pytest.fixture
    def no_work(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the command started its work before checking --out")

        for name in ("generate_bundle", "run_sweep", "run_adaptation", "evaluate_model", "feature_analysis"):
            monkeypatch.setattr(cli, name, refuse)

    def _assert_one_line_io_error(self, argv, capsys):
        assert main(argv) == 5
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and err.startswith("I/O error: --out ")
        return err

    @pytest.mark.parametrize("command", ["gen-data", "train", "sweep-margins", "adapt", "eval", "analyze-features"])
    @pytest.mark.parametrize("below", [False, True], ids=["file", "below-file"])
    def test_out_at_or_below_a_regular_file(
        self, command, below, no_work, config_path, data_dir, train_dir, tmp_path, capsys
    ):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        out = blocker / "o" if below else blocker
        argv = [command, "--config", config_path, "--out", str(out)]
        if command in ("eval", "analyze-features"):
            argv = eval_argv(command, config_path, out, train_dir / "checkpoint.bin", data_dir / "bona_fides.jsonl",
                             data_dir / "protocol.json")
        err = self._assert_one_line_io_error(argv, capsys)
        assert f"{blocker} exists and is not a directory" in err
        assert list(tmp_path.iterdir()) == [blocker] and blocker.read_text() == "x"

    def test_unwritable_ancestor(self, no_work, config_path, tmp_path, monkeypatch, capsys):
        checked = []

        def access(path, mode):
            checked.append(Path(path))
            return False

        monkeypatch.setattr(cli.os, "access", access)
        out = tmp_path / "a" / "b"
        err = self._assert_one_line_io_error(["train", "--config", config_path, "--out", str(out)], capsys)
        assert checked == [tmp_path] and f"directory {tmp_path} is not writable" in err
        assert list(tmp_path.iterdir()) == []

    def test_nested_out_is_created_once_the_work_succeeds(self, config_path, tmp_path):
        out = tmp_path / "a" / "b"
        assert main(["gen-data", "--config", config_path, "--out", str(out)]) == 0
        assert (out / "manifest.json").is_file()


def run_quietly(argv):
    """(exit code, stderr lines) of an in-process run; every warning counts as a stderr line."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
    return code, err.getvalue().splitlines() + [str(w.message) for w in caught]


# Replacement values of every JSON type; a field only gets those of another type.
OTHER_TYPES = [None, True, 1, 0.5, "x", [], [1], {}, {"x": 1}]
# Extreme values of a field's own type. Each size they give is one numpy cannot create, never one it
# can but the machine cannot hold (README: such a config fails when it allocates).
EXTREMES = {int: [2**62, 2**63, -1, 0], float: [1e308, -1e308, 5e-324]}


def config_fields(config, prefix=()):
    """The key path of every top-level field and every field of a section."""
    for key, value in config.items():
        yield prefix + (key,)
        if isinstance(value, dict) and not prefix:
            yield from config_fields(value, (key,))


class TestFuzzedInputs:
    """Mutated inputs of a good small run: each exits 0, 2, 3, 4 or 5, a failure
    with exactly one stderr line and a success with none."""

    FILES = {"data": ("gen", "bona_fides.jsonl"), "protocol": ("gen", "protocol.json"),
             "checkpoint": ("train", "checkpoint.bin")}

    @staticmethod
    def assert_clean_exit(code, lines):
        assert code in (0, 2, 3, 4, 5)
        assert len(lines) == (1 if code else 0), lines

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        command=st.sampled_from(["eval", "analyze-features"]),
        target=st.sampled_from(sorted(FILES)),
        edit=st.sampled_from(["truncate", "delete", "duplicate", "flip"]),
        data=st.data(),
    )
    def test_file_mutations(self, command, target, edit, data, config_path, data_dir, train_dir):
        dirs = {"gen": data_dir, "train": train_dir}
        with tempfile.TemporaryDirectory() as tmp:
            paths = {}
            for role, (run, name) in self.FILES.items():
                paths[role] = Path(tmp) / name
                shutil.copyfile(dirs[run] / name, paths[role])
            blob = paths[target].read_bytes()
            where = data.draw(st.integers(0, len(blob) - 1), label="position")
            if edit == "truncate":
                paths[target].write_bytes(blob[:where])
            elif edit == "delete":
                paths[target].unlink()
            elif edit == "duplicate":
                length = data.draw(st.integers(1, 64), label="length")
                paths[target].write_bytes(blob[: where + length] + blob[where:])
            else:
                mask = data.draw(st.integers(1, 255), label="mask")
                paths[target].write_bytes(blob[:where] + bytes([blob[where] ^ mask]) + blob[where + 1 :])
            argv = eval_argv(command, config_path, Path(tmp) / "o", paths["checkpoint"], paths["data"],
                             paths["protocol"])
            self.assert_clean_exit(*run_quietly(argv))

    @pytest.mark.parametrize("base, code", [
        ("file", 5),
        ("non-empty directory", 0),
        pytest.param("read-only directory", 5, marks=pytest.mark.skipif(
            os.name != "posix" or os.geteuid() == 0, reason="root writes into a read-only directory")),
        # The same case for any user, root included: os.access denies writing.
        ("write-denied directory", 5),
    ])
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        command=st.sampled_from(["gen-data", "eval", "analyze-features"]),
        below=st.lists(st.sampled_from(["o", "a b", "é"]), max_size=2),
    )
    def test_out_mutations(self, base, code, command, below, config_path, data_dir, train_dir):
        """--out at or below a regular file, a non-empty directory or one that cannot be
        written: a failure makes no --out and leaves the tree as it was."""
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp) / base
            if base == "file":
                root.write_text("x")
            else:
                root.mkdir()
                (root / "kept.txt").write_text("x")
            out = root.joinpath(*below)
            argv = [command, "--config", config_path, "--out", str(out)]
            if command != "gen-data":
                argv = eval_argv(command, config_path, out, train_dir / "checkpoint.bin",
                                 data_dir / "bona_fides.jsonl", data_dir / "protocol.json")
            before = sorted(Path(tmp).rglob("*")), tree_bytes(Path(tmp))
            if base == "read-only directory":
                root.chmod(0o555)
            try:
                with pytest.MonkeyPatch.context() as patch:
                    if base == "write-denied directory":
                        patch.setattr(cli.os, "access", lambda path, mode: not mode & os.W_OK)
                    result = run_quietly(argv)
            finally:
                if root.is_dir():
                    root.chmod(0o755)
            self.assert_clean_exit(*result)
            assert result[0] == code
            if code:
                assert (sorted(Path(tmp).rglob("*")), tree_bytes(Path(tmp))) == before
            else:
                assert (out / "manifest.json").is_file() and (root / "kept.txt").read_text() == "x"

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(field=st.sampled_from(list(config_fields(SMALL))), data=st.data())
    def test_config_mutations(self, field, data):
        config = json.loads(json.dumps(SMALL))
        *section, key = field
        owner = config[section[0]] if section else config
        if data.draw(st.booleans(), label="add an unknown key"):
            owner[f"{key}_unknown"] = 1
        else:
            original = owner[key]
            values = [v for v in OTHER_TYPES if type(v) is not type(original)] + EXTREMES.get(type(original), [])
            owner[key] = data.draw(st.sampled_from(values))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "config.json"
            path.write_text(json.dumps(config))
            self.assert_clean_exit(*run_quietly(["train", "--config", str(path), "--out", str(Path(tmp) / "o")]))
