"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines; every
tolerance is pinned here, nothing is deferred to calibration.
"""

import json
import time
from pathlib import Path

import numpy as np

from morphguard import datagen, metrics
from morphguard.cli import main as cli_main
from morphguard.encoder import batch_gradients, init_model, load_checkpoint, save_checkpoint
from morphguard.experiment import (
    ExperimentConfig,
    generate_bundle,
    run_adaptation,
    run_margin_entry,
)
from morphguard.featviz import CHI2_2DOF_Q90, align_feature_triplets, confidence_ellipse
from morphguard.datagen import LabelPair, SampleKind
from morphguard.losses import MarginConfig

from oracles import (
    fd_gradient,
    margin_softmax_ce,
    max_rel_err,
    morphguard_loss,
    oracle_curves,
    oracle_min_rmmr,
    oracle_mmpmr,
    oracle_mmpmr_at_fnmr,
    oracle_threshold_at,
    padded_trials,
    softmax_ce,
)


def report(name: str, ok: bool, detail: str):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name} failed: {detail}"


def test_criterion_1_gradient_suite():
    """Full-objective analytic gradients vs central differences, 100 configs."""
    rng = np.random.default_rng(20240801)
    start = time.time()
    worst = 0.0
    checked = 0
    while checked < 100:
        input_dim = int(rng.integers(2, 9))
        emb_dim = int(rng.integers(2, 7))
        num_classes = int(rng.integers(2, 6))
        hidden = [int(rng.integers(2, 9))] if rng.random() < 0.7 else []
        model = init_model(input_dim, hidden, emb_dim, num_classes, seed=int(rng.integers(1 << 30)))
        margin = MarginConfig(
            scale=float(rng.uniform(4.0, 32.0)),
            bona_fide_margin=float(rng.uniform(0.0, 0.6)),
            morph_offset=float(rng.uniform(-0.3, 0.2)),
        )
        batch = int(rng.integers(1, 5))
        inputs = rng.normal(size=(batch, input_dim))
        inputs /= np.linalg.norm(inputs, axis=1)[:, None]
        first = rng.integers(num_classes, size=batch)
        second = first.copy()
        is_morph = rng.random(batch) < 0.5
        for i in np.flatnonzero(is_morph):
            second[i] = (first[i] + 1 + rng.integers(num_classes - 1)) % num_classes

        _, grads = batch_gradients(model, inputs, first, second, is_morph, margin)
        names = [n for n, _ in model.parameters()]
        flat_grad = np.concatenate([grads[n].ravel() for n in names])

        probe = model.copy()
        shapes = [(n, arr.shape, arr.size) for n, arr in probe.parameters()]

        def objective(theta):
            offset = 0
            for (_, _, size), (_, arr) in zip(shapes, probe.parameters()):
                arr.flat[:] = theta[offset : offset + size]
                offset += size
            value, _ = batch_gradients(probe, inputs, first, second, is_morph, margin)
            return value

        theta0 = np.concatenate([arr.ravel() for _, arr in model.parameters()])
        numeric = fd_gradient(objective, theta0, h=1e-6)
        worst = max(worst, max_rel_err(flat_grad, numeric))
        checked += 1
    elapsed = time.time() - start
    report(
        "1 gradient-suite",
        worst < 1e-4 and elapsed < 30.0,
        f"{checked} configs, max rel err {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_loss_reductions():
    rng = np.random.default_rng(7)
    # zero offset: per-sample morph losses bitwise-equal to bona-fide-margin terms
    bitwise_ok = True
    for _ in range(50):
        c = int(rng.integers(2, 8))
        cos1 = rng.uniform(-0.95, 0.95, size=c)
        cos2 = rng.uniform(-0.95, 0.95, size=c)
        first = int(rng.integers(c))
        second = int((first + 1 + rng.integers(c - 1)) % c)
        cfg = MarginConfig(scale=float(rng.uniform(4, 40)), bona_fide_margin=0.5, morph_offset=0.0)
        morph = morphguard_loss([(cos1, cos2, LabelPair(first, second, SampleKind.MORPH))], cfg)
        expected = (
            margin_softmax_ce(cos1, first, cfg.scale, cfg.bona_fide_margin)[0]
            + margin_softmax_ce(cos2, second, cfg.scale, cfg.bona_fide_margin)[0]
        )
        bitwise_ok &= morph.sample_losses[0] == expected

    # zero bona fide margin over an all-bona-fide batch reduces to softmax
    max_gap = 0.0
    for _ in range(20):
        c = int(rng.integers(2, 8))
        n = int(rng.integers(1, 7))
        cfg = MarginConfig(scale=float(rng.uniform(4, 40)), bona_fide_margin=0.0)
        batch, total = [], 0.0
        for _ in range(n):
            c1 = rng.uniform(-0.95, 0.95, size=c)
            c2 = rng.uniform(-0.95, 0.95, size=c)
            label = int(rng.integers(c))
            batch.append((c1, c2, LabelPair(label, label, SampleKind.BONA_FIDE)))
            total += softmax_ce(cfg.scale * c1, label)[0] + softmax_ce(cfg.scale * c2, label)[0]
        gap = abs(morphguard_loss(batch, cfg).loss - total / n)
        max_gap = max(max_gap, gap)
    report(
        "2 loss-reductions",
        bitwise_ok and max_gap < 1e-12,
        f"zero-offset bitwise equal: {bitwise_ok}, softmax-reduction gap {max_gap:.2e}",
    )


def test_criterion_3_metric_oracles():
    rng = np.random.default_rng(99)
    start = time.time()
    identity_gap = 0.0
    for instance in range(1000):
        genuine = np.round(rng.uniform(-1, 1, int(rng.integers(2, 101))), 3)
        impostor = np.round(rng.uniform(-1, 1, int(rng.integers(2, 101))), 3)
        scores = [
            np.round(rng.uniform(-1, 1, int(rng.integers(2, 4))), 3) for _ in range(int(rng.integers(1, 41)))
        ]
        trials = padded_trials(scores)
        vset = metrics.VerificationSet(genuine, impostor)

        fnmr, fmr = metrics.fnmr_fmr_curves(vset)
        grid, o_fnmr, o_fmr = oracle_curves(genuine.tolist(), impostor.tolist())
        assert np.array_equal(fnmr.thresholds, np.array(grid))
        assert np.array_equal(fnmr.values, np.array(o_fnmr))
        assert np.array_equal(fmr.values, np.array(o_fmr))

        target = float(np.round(rng.uniform(0.01, 0.99), 3))
        assert metrics.threshold_at(fnmr, target, metrics.FROM_BELOW) == oracle_threshold_at(
            grid, o_fnmr, target, "from_below"
        )
        assert metrics.threshold_at(fmr, target, metrics.FROM_ABOVE) == oracle_threshold_at(
            grid, o_fmr, target, "from_above"
        )

        tau = float(np.round(rng.uniform(-1, 1), 3))
        assert metrics.mmpmr(trials, tau) == oracle_mmpmr(scores, tau)

        m_val, f_val = rng.uniform(0, 1, 2)
        identity_gap = max(identity_gap, abs(metrics.rmmr(m_val, f_val) - (1.0 + (m_val - (1.0 - f_val)))))

        assert metrics.min_rmmr(trials, fnmr) == oracle_min_rmmr(
            scores, genuine.tolist(), impostor.tolist()
        )

        targets = [0.05, 0.5]
        points = metrics.mmpmr_at_fnmr(metrics.mmpmr_curve(trials, fnmr.thresholds), fnmr, targets)
        expected = oracle_mmpmr_at_fnmr(scores, genuine.tolist(), impostor.tolist(), targets)
        for point, (tgt, achieved, thr, value) in zip(points, expected):
            assert (point.target, point.achieved, point.threshold, point.value) == (
                tgt,
                achieved,
                thr,
                value,
            )
    report(
        "3 metric-oracles",
        identity_gap <= 1e-15,
        f"1000 instances bit-for-bit, rmmr identity gap {identity_gap:.2e}, {time.time() - start:.1f}s",
    )


def test_criterion_4_protocol_soundness():
    scanned = 0
    for seed in (1, 2, 3, 4, 5):
        config = ExperimentConfig.from_dict(
            {
                "seed": seed,
                "data": {"num_classes": 6, "samples_per_class": 10, "input_dim": 16},
                "model": {"hidden_dims": [16], "embedding_dim": 8},
            }
        )
        bundle = generate_bundle(config)
        for sample in bundle.train_set:
            if sample.labels.kind is SampleKind.MORPH:
                assert sample.labels.first_label != sample.labels.second_label
                assert bundle.universe.subsets[sample.labels.first_label] == 1
                assert bundle.universe.subsets[sample.labels.second_label] == 2
                scanned += 1
    default_bundle = generate_bundle(ExperimentConfig())
    for sample in default_bundle.train_set:
        if sample.labels.kind is SampleKind.MORPH:
            assert sample.labels.first_label != sample.labels.second_label
            assert default_bundle.universe.subsets[sample.labels.first_label] == 1
            assert default_bundle.universe.subsets[sample.labels.second_label] == 2
            scanned += 1

    universe, samples = datagen.synth_identities(4, 2, 8, spread=0.1, seed=11)
    protocol = datagen.pair_protocol(universe, samples, num_morphs=16, seed=11)
    keys = {(p.identity_a, p.sample_a, p.identity_b, p.sample_b) for p in protocol.pairs}
    side1 = [i for i in range(4) if universe.subsets[i] == 1]
    side2 = [i for i in range(4) if universe.subsets[i] == 2]
    expected = {(a, ka, b, kb) for a in side1 for b in side2 for ka in range(2) for kb in range(2)}
    report(
        "4 protocol-soundness",
        keys == expected and len(keys) == 16,
        f"{scanned} generated morphs all cross-subset; C=4 enumeration = {len(keys)} pairs",
    )


def test_criterion_5_ellipse_and_rigidity():
    q = CHI2_2DOF_Q90
    q_ok = abs(q - 4.6051702) < 1e-6

    rng = np.random.default_rng(55)
    points = rng.standard_normal((10_000, 2))
    ellipse = confidence_ellipse(points)
    fraction = float(ellipse.contains(points).mean())
    coverage_ok = 0.87 <= fraction <= 0.93

    worst = 0.0
    for _ in range(20):
        p1, p2 = rng.normal(size=2), rng.normal(size=2)
        if np.linalg.norm(p2 - p1) < 1e-6:
            continue
        cloud = rng.normal(size=(12, 2))
        # one triplet (p1, p2, morph) per cloud point, so all 12 share p1, p2's rigid map
        triplets = np.stack([np.broadcast_to(p1, (12, 2)), np.broadcast_to(p2, (12, 2)), cloud], axis=1)
        image = align_feature_triplets(triplets)[:, 2]
        for i in range(12):
            for j in range(i):
                worst = max(
                    worst,
                    abs(
                        np.linalg.norm(cloud[i] - cloud[j]) - np.linalg.norm(image[i] - image[j])
                    ),
                )
    report(
        "5 ellipse-coverage",
        q_ok and coverage_ok and worst < 1e-9,
        f"q={q:.7f}, coverage {fraction:.4f}, max distance distortion {worst:.2e}",
    )


def test_criterion_6_margin_balance_direction():
    start = time.time()
    config_base = ExperimentConfig().to_dict()
    values = {0.0: {"rmmr": [], "mmpmr": []}, -0.1: {"rmmr": [], "mmpmr": []}}
    for seed in (1, 2, 3, 4, 5):
        raw = dict(config_base)
        raw["seed"] = seed
        config = ExperimentConfig.from_dict(raw)
        for offset in (0.0, -0.1):
            _, _, rep = run_margin_entry(config, offset)
            values[offset]["rmmr"].append(rep.min_rmmr_value)
            values[offset]["mmpmr"].append(rep.point("mmpmr_at_fnmr", 0.01).value)
    med = {
        off: (float(np.median(v["rmmr"])), float(np.median(v["mmpmr"]))) for off, v in values.items()
    }
    elapsed = time.time() - start
    rmmr_ok = med[-0.1][0] < med[0.0][0]
    mmpmr_ok = med[-0.1][1] < med[0.0][1]
    report(
        "6 margin-balance-direction",
        rmmr_ok and mmpmr_ok and elapsed < 600.0,
        f"median min-RMMR {med[0.0][0]:.4f} -> {med[-0.1][0]:.4f}, "
        f"median MMPMR@FNMR=0.01 {med[0.0][1]:.4f} -> {med[-0.1][1]:.4f}, {elapsed:.0f}s",
    )


def test_criterion_7_adaptation_direction():
    stage1_vals, stage2_vals = [], []
    base = ExperimentConfig().to_dict()
    for seed in (1, 2, 3, 4, 5):
        raw = dict(base)
        raw["seed"] = seed
        config = ExperimentConfig.from_dict(raw)
        (_, _, report1), (_, _, report2) = run_adaptation(config)
        stage1_vals.append(report1.min_rmmr_value)
        stage2_vals.append(report2.min_rmmr_value)
    med1 = float(np.median(stage1_vals))
    med2 = float(np.median(stage2_vals))
    report(
        "7 adaptation-direction",
        med2 <= med1,
        f"median min-RMMR stage1 {med1:.4f} vs stage2 {med2:.4f}",
    )


def test_criterion_8_reproducibility(tmp_path):
    small = {
        "seed": 4,
        "data": {"num_classes": 6, "samples_per_class": 10, "input_dim": 16, "spread": 0.15},
        "model": {"hidden_dims": [16], "embedding_dim": 8},
        "train": {"epochs": 2, "lr_start": 2e-2, "lr_end": 1e-3, "batch_size": 32},
        "margin": {"scale": 16.0},
        "sweep_grid": [0.0, -0.1],
        "eval": {"genuine_pairs": 100, "impostor_pairs": 100},
        "adapt": {"stage1_epochs": 2, "stage2_epochs": 2},
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(small))

    def tree(root: Path) -> dict:
        return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}

    def run_twice(command, extra):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{command}-{tag}"
            argv = [command, "--config", str(config_path), "--out", str(out)] + extra(out)
            assert cli_main(argv) == 0
            outs.append(tree(out))
        return outs[0] == outs[1]

    identical = {"gen-data": run_twice("gen-data", lambda out: [])}
    identical["train"] = run_twice("train", lambda out: [])
    identical["sweep-margins"] = run_twice("sweep-margins", lambda out: [])
    identical["adapt"] = run_twice("adapt", lambda out: [])

    data_dir = tmp_path / "gen-data-a"
    ckpt = tmp_path / "train-a" / "checkpoint.bin"
    shared = [
        "--checkpoint",
        str(ckpt),
        "--data",
        str(data_dir / "bona_fides.jsonl"),
        "--protocol",
        str(data_dir / "protocol.json"),
    ]
    identical["eval"] = run_twice("eval", lambda out: shared)
    identical["analyze-features"] = run_twice("analyze-features", lambda out: shared)

    model = load_checkpoint(ckpt)
    resaved = tmp_path / "resaved.bin"
    save_checkpoint(model, resaved)
    identical["checkpoint-roundtrip"] = ckpt.read_bytes() == resaved.read_bytes()

    bad = [name for name, ok in identical.items() if not ok]
    report(
        "8 reproducibility",
        not bad,
        "byte-identical reruns for " + ", ".join(identical) if not bad else f"mismatch in {bad}",
    )
