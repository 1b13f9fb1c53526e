import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morphguard.errors import ConfigError, UnattainableOperatingPointError
from morphguard.experiment import _cosines
from morphguard.metrics import (
    FROM_ABOVE,
    FROM_BELOW,
    MorphTrials,
    OperatingPoint,
    ThresholdCurve,
    VerificationSet,
    fnmr_at_fmr,
    fnmr_fmr_curves,
    min_rmmr,
    mmpmr,
    mmpmr_at_fnmr,
    mmpmr_curve,
    rmmr,
    save_curve_csv,
    save_operating_points_csv,
    save_scores_csv,
    save_trials_json,
    threshold_at,
)

from readers import load_curve_csv, load_operating_points_csv, load_scores_csv, load_trials_json
from oracles import (
    oracle_curves,
    oracle_fmr,
    oracle_fnmr,
    oracle_grid,
    oracle_min_rmmr,
    oracle_mmpmr,
    oracle_mmpmr_at_fnmr,
    oracle_threshold_at,
    padded_trials,
)


def random_instance(rng, max_scores=100):
    """(verification, trials, ragged): trials are the ragged 2- or 3-score rows, padded."""
    n_genuine = int(rng.integers(2, max_scores))
    n_impostor = int(rng.integers(2, max_scores))
    n_trials = int(rng.integers(1, max_scores // 2))
    genuine = np.round(rng.uniform(-1, 1, n_genuine), 3)
    impostor = np.round(rng.uniform(-1, 1, n_impostor), 3)
    ragged = [np.round(rng.uniform(-1, 1, int(rng.integers(2, 4))), 3) for _ in range(n_trials)]
    return VerificationSet(genuine, impostor), padded_trials(ragged), ragged


def points_at_fnmr(trials, vset, targets):
    """mmpmr_at_fnmr on the curves a report builds from these trials and scores."""
    fnmr = fnmr_fmr_curves(vset)[0]
    return mmpmr_at_fnmr(mmpmr_curve(trials, fnmr.thresholds), fnmr, targets)


class TestCosineSimilarity:
    """The verification and trial scores: experiment._cosines of embedding rows."""

    def test_trivials(self):
        e = np.array([[1.0, 0.0, 0.0]])
        assert _cosines(e, e)[0] == 1.0
        assert _cosines(e, np.array([[0.0, 1.0, 0.0]]))[0] == 0.0
        assert _cosines(e, -e)[0] == -1.0

    def test_matches_dot_product(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=6)
        a /= np.linalg.norm(a)
        b = rng.normal(size=6)
        b /= np.linalg.norm(b)
        assert _cosines(a[None], b[None])[0] == pytest.approx(float(a @ b), abs=1e-12)


class TestCurves:
    def test_sentinels(self):
        vset = VerificationSet([0.9, 0.8], [0.3, 0.7])
        fnmr, fmr = fnmr_fmr_curves(vset)
        assert fnmr.thresholds[0] == -1.0 and fnmr.thresholds[-1] == 1.0
        assert fnmr.values[0] == 0.0  # no genuine score <= -1
        assert fmr.values[0] == 1.0  # every impostor > -1
        assert fnmr.values[-1] == 1.0  # every genuine <= 1
        assert fmr.values[-1] == 0.0  # no impostor > 1

    def test_hand_example(self):
        # at tau = 0.75 (constant on [0.7, 0.8)) both rates are zero
        vset = VerificationSet([0.9, 0.8], [0.3, 0.7])
        fnmr, fmr = fnmr_fmr_curves(vset)
        idx = list(fnmr.thresholds).index(0.7)
        assert fnmr.values[idx] == 0.0
        assert fmr.values[idx] == 0.0
        assert oracle_fnmr([0.9, 0.8], 0.75) == 0.0
        assert oracle_fmr([0.3, 0.7], 0.75) == 0.0

    def test_matches_enumeration_bitwise(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            vset, *_ = random_instance(rng)
            fnmr, fmr = fnmr_fmr_curves(vset)
            grid, o_fnmr, o_fmr = oracle_curves(vset.genuine, vset.impostor)
            np.testing.assert_array_equal(fnmr.thresholds, np.array(grid))
            np.testing.assert_array_equal(fnmr.values, np.array(o_fnmr))
            np.testing.assert_array_equal(fmr.values, np.array(o_fmr))

    def test_monotonicity(self):
        rng = np.random.default_rng(2)
        vset, *_ = random_instance(rng)
        fnmr, fmr = fnmr_fmr_curves(vset)
        assert np.all(np.diff(fnmr.values) >= 0)
        assert np.all(np.diff(fmr.values) <= 0)

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            fnmr_fmr_curves(VerificationSet([], [0.1]))

    @pytest.mark.parametrize(
        "genuine, impostor",
        [([0.0, 0.3], [-0.0, -0.2]), ([-0.0, 0.3], [0.5, -0.2])],
        ids=["both-zeros", "negative-zero-only"],
    )
    def test_zero_threshold_is_positive_zero(self, genuine, impostor):
        grid = fnmr_fmr_curves(VerificationSet(genuine, impostor))[0].thresholds
        zeros = grid[grid == 0.0]
        assert zeros.size == 1 and not np.signbit(zeros[0])

    @pytest.mark.parametrize(
        "thresholds, values, message",
        [
            ([0.0, np.nan], [0.0, 0.5], "curve thresholds must be finite and strictly increasing"),
            ([np.nan], [0.5], "curve thresholds must be finite and strictly increasing"),
            ([0.0, 1.0], [0.0, np.nan], "curve values must lie in [0, 1]"),
            ([-1.0, np.inf], [0.0, 1.0], "curve thresholds must be finite and strictly increasing"),
        ],
        ids=["nan-threshold", "nan-only-threshold", "nan-value", "inf-threshold"],
    )
    def test_curve_rejects_non_finite_input_in_one_line(self, thresholds, values, message):
        with pytest.raises(ConfigError) as err:
            ThresholdCurve(thresholds, values)
        assert str(err.value) == message


class TestThresholdAt:
    def test_step_curve(self):
        curve = ThresholdCurve(np.array([-1.0, 0.25, 1.0]), np.array([0.0, 1.0, 1.0]))
        tau, achieved = threshold_at(curve, 0.5, FROM_BELOW)
        assert tau == 0.25 and achieved == 1.0

    def test_target_one_always_attainable(self):
        vset = VerificationSet([0.1, 0.5, 0.9], [0.0, 0.2])
        fnmr, _ = fnmr_fmr_curves(vset)
        tau, achieved = threshold_at(fnmr, 1.0, FROM_BELOW)
        assert achieved == 1.0
        assert tau == 0.9  # smallest threshold where every genuine fails

    def test_fmr_zero_needs_max_impostor(self):
        vset = VerificationSet([0.9], [0.1, 0.3, 0.5])
        _, fmr = fnmr_fmr_curves(vset)
        tau, achieved = threshold_at(fmr, 0.0, FROM_ABOVE)
        assert achieved == 0.0
        assert tau == 0.5

    def test_tie_breaks_toward_smaller_threshold(self):
        curve = ThresholdCurve(np.array([0.0, 0.5, 1.0]), np.array([0.2, 0.2, 0.9]))
        tau, _ = threshold_at(curve, 0.3, FROM_ABOVE)
        assert tau == 0.0

    def test_unattainable_carries_closest(self):
        curve = ThresholdCurve(np.array([0.0, 1.0]), np.array([0.0, 0.4]))
        with pytest.raises(UnattainableOperatingPointError) as err:
            threshold_at(curve, 0.9, FROM_BELOW)
        assert err.value.closest == 0.4

    def test_matches_enumeration(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            vset, *_ = random_instance(rng)
            fnmr, fmr = fnmr_fmr_curves(vset)
            target = float(np.round(rng.uniform(0.01, 0.99), 3))
            expected = oracle_threshold_at(fnmr.thresholds, fnmr.values, target, "from_below")
            assert threshold_at(fnmr, target, FROM_BELOW) == expected
            expected = oracle_threshold_at(fmr.thresholds, fmr.values, target, "from_above")
            assert threshold_at(fmr, target, FROM_ABOVE) == expected


class TestMmpmr:
    def test_extreme_thresholds(self):
        trials = MorphTrials([[0.5, 0.7], [0.2, 0.9]])
        assert mmpmr(trials, 0.9) == 0.0
        assert mmpmr(trials, -1.0) == 1.0

    def test_hand_example(self):
        trials = MorphTrials([[0.6, 0.8], [0.5, 0.9], [0.4, 0.7]])
        assert mmpmr(trials, 0.55) == pytest.approx(1 / 3, abs=0)

    def test_exact_threshold_is_non_match(self):
        trials = MorphTrials([[0.5, 0.7]])
        assert mmpmr(trials, 0.5) == 0.0  # strict >

    def test_curve_and_enumeration(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            vset, trials, ragged = random_instance(rng)
            grid = np.array(oracle_grid(vset.genuine, vset.impostor))
            curve = mmpmr_curve(trials, grid)
            expected = np.array([oracle_mmpmr(ragged, t) for t in grid])
            np.testing.assert_array_equal(curve.values, expected)
            assert np.all(np.diff(curve.values) <= 0)

    def test_single_trial_step(self):
        trials = MorphTrials([[0.3, 0.6]])
        curve = mmpmr_curve(trials, np.array([-1.0, 0.0, 0.3, 0.5, 1.0]))
        np.testing.assert_array_equal(curve.values, [1.0, 1.0, 0.0, 0.0, 0.0])

    def test_empty_trials(self):
        with pytest.raises(ConfigError) as err:
            MorphTrials(np.empty((0, 2)))
        assert str(err.value) == "need at least one morph trial"


class TestScoreShapes:
    """Ragged or non-numeric scores raise one library error line that names the expected shape."""

    TRIALS = "subject scores need a numeric (T, K >= 2) array, got ragged or non-numeric values"

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: MorphTrials([[0.1, 0.2], [0.3]]), TRIALS),
            (lambda: MorphTrials([[0.1, "high"], [0.3, 0.4]]), TRIALS),
            (lambda: VerificationSet([0.1, [0.2, 0.3]], [0.1]),
             "genuine scores need a numeric (N,) array, got ragged or non-numeric values"),
            (lambda: VerificationSet([0.1], [0.2, {"score": 0.3}]),
             "impostor scores need a numeric (N,) array, got ragged or non-numeric values"),
        ],
        ids=["trials-ragged", "trials-text", "verification-ragged", "verification-dict"],
    )
    def test_one_config_error_line(self, build, message):
        with pytest.raises(ConfigError) as err:
            build()
        assert str(err.value) == message


class TestTrialMinima:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.data())
    def test_minima_and_metrics_match_oracles(self, data):
        # Scores come from a small pool that often holds -1, +1, -0.0 or +0.0, so minima tie, sit
        # on the sentinels and come as either zero.
        pool = data.draw(
            st.lists(st.sampled_from([-1.0, 1.0, -0.0, 0.0]) | st.floats(-1.0, 1.0), min_size=1, max_size=6)
        )
        score = st.sampled_from(pool)
        width = data.draw(st.integers(2, 3))
        rows = data.draw(st.lists(st.lists(score, min_size=width, max_size=width), min_size=1, max_size=12))
        genuine = data.draw(st.lists(score, min_size=1, max_size=12))
        impostor = data.draw(st.lists(score, min_size=1, max_size=12))
        trials = MorphTrials(np.array(rows))
        assert np.array_equal(trials.minima, np.sort(np.array(rows).min(axis=1)))
        assert not np.any(np.signbit(trials.minima) & (trials.minima == 0.0))
        tau = data.draw(score)
        assert mmpmr(trials, tau) == oracle_mmpmr(rows, tau)
        grid = np.array(oracle_grid(genuine, impostor, pool))
        np.testing.assert_array_equal(mmpmr_curve(trials, grid).values, [oracle_mmpmr(rows, t) for t in grid])
        tau, value = min_rmmr(trials, fnmr_fmr_curves(VerificationSet(genuine, impostor))[0])
        assert (tau, value) == oracle_min_rmmr(rows, genuine, impostor)
        assert not (tau == 0.0 and np.signbit(tau))


class TestRmmr:
    def test_trivials(self):
        assert rmmr(0.2, 0.05) == 0.25
        assert rmmr(0.0, 0.0) == 0.0

    @given(
        st.floats(0.0, 1.0, allow_nan=False),
        st.floats(0.0, 1.0, allow_nan=False),
    )
    @settings(max_examples=100)
    def test_identity_with_true_match_rate(self, m, f):
        # rmmr == 1 + (match rate - TMR) with TMR = 1 - FNMR
        assert abs(rmmr(m, f) - (1.0 + (m - (1.0 - f)))) <= 1e-15

    def test_range_validation(self):
        with pytest.raises(ConfigError):
            rmmr(1.2, 0.0)


class TestMinRmmr:
    def test_separable_case(self):
        vset = VerificationSet([0.8, 0.85, 0.9], [0.1, 0.2])
        trials = MorphTrials([[0.3, 0.5], [0.2, 0.4]])
        tau, value = min_rmmr(trials, fnmr_fmr_curves(vset)[0])
        assert value == 0.0
        # strict > makes the largest trial-min score itself a zero point
        assert tau == 0.3

    def test_hand_instance_matches_sweep(self):
        vset = VerificationSet([0.6, 0.7, 0.75, 0.9], [0.2, 0.5])
        scores = [[0.55, 0.8], [0.65, 0.7], [0.3, 0.95]]
        trials = MorphTrials(scores)
        expected = oracle_min_rmmr(scores, vset.genuine.tolist(), vset.impostor.tolist())
        assert min_rmmr(trials, fnmr_fmr_curves(vset)[0]) == expected

    def test_matches_enumeration_bitwise(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            vset, trials, ragged = random_instance(rng)
            expected = oracle_min_rmmr(ragged, vset.genuine.tolist(), vset.impostor.tolist())
            assert min_rmmr(trials, fnmr_fmr_curves(vset)[0]) == expected

    def test_refinement_does_not_change_minimum(self):
        rng = np.random.default_rng(6)
        vset, trials, ragged = random_instance(rng)
        tau, value = min_rmmr(trials, fnmr_fmr_curves(vset)[0])
        coarse = oracle_grid(vset.genuine, vset.impostor, [s for sc in ragged for s in sc])
        fine = []
        for a, b in zip(coarse[:-1], coarse[1:]):
            fine.extend(np.linspace(a, b, 11)[:-1])
        fine.append(coarse[-1])
        fine_min = min(oracle_mmpmr(ragged, t) + oracle_fnmr(vset.genuine.tolist(), t) for t in fine)
        assert value == fine_min

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.data())
    def test_matches_enumeration_with_ties_and_endpoints(self, data):
        # Scores come from a small pool that often holds -1 or +1, so ties between genuine,
        # impostor and subject scores and scores on the sentinels are common.
        pool = data.draw(st.lists(st.sampled_from([-1.0, 1.0]) | st.floats(-1.0, 1.0), min_size=1, max_size=6))
        score = st.sampled_from(pool)
        genuine = data.draw(st.lists(score, min_size=1, max_size=20))
        impostor = data.draw(st.lists(score, min_size=1, max_size=20))
        fnmr = fnmr_fmr_curves(VerificationSet(genuine, impostor))[0]
        ragged = data.draw(st.lists(st.lists(score, min_size=2, max_size=3), min_size=1, max_size=10))
        assert min_rmmr(padded_trials(ragged), fnmr) == oracle_min_rmmr(ragged, genuine, impostor)
        width = data.draw(st.integers(2, 3))
        rows = data.draw(st.lists(st.lists(score, min_size=width, max_size=width), min_size=1, max_size=10))
        assert min_rmmr(MorphTrials(np.array(rows)), fnmr) == oracle_min_rmmr(rows, genuine, impostor)

    def test_zero_trial_minimum_gives_positive_zero_threshold(self):
        # The trial minimum -0.0 is the minimizer: every trial fails there, and no genuine score does.
        fnmr = fnmr_fmr_curves(VerificationSet([0.5], [0.1]))[0]
        tau, value = min_rmmr(MorphTrials([[-0.0, 0.5]]), fnmr)
        assert (tau, value) == (0.0, 0.0) and not np.signbit(tau)

    def test_fnmr_curve_must_start_at_minus_one(self):
        fnmr = ThresholdCurve([-0.5, 0.5, 1.0], [0.0, 0.5, 1.0])
        with pytest.raises(ConfigError) as err:
            min_rmmr(MorphTrials([[-0.75, 0.25]]), fnmr)
        assert str(err.value) == "min-RMMR needs an FNMR curve whose first threshold is -1"


class TestOperatingPoints:
    def test_separable_toy(self):
        rng = np.random.default_rng(7)
        genuine = rng.uniform(0.8, 1.0, 200)
        impostor = rng.uniform(-0.5, 0.2, 200)
        trials = MorphTrials([rng.uniform(-0.2, 0.5, 2) for _ in range(50)])
        points = points_at_fnmr(trials, VerificationSet(genuine, impostor), [0.01])
        assert points[0].value == 0.0
        assert points[0].achieved >= 0.01

    def test_matches_composed_enumeration(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            vset, trials, ragged = random_instance(rng)
            targets = [0.05, 0.25, 0.5]
            points = points_at_fnmr(trials, vset, targets)
            expected = oracle_mmpmr_at_fnmr(
                ragged, vset.genuine.tolist(), vset.impostor.tolist(), targets
            )
            for point, (target, achieved, tau, value) in zip(points, expected):
                assert point.target == target
                assert point.achieved == achieved
                assert point.threshold == tau
                assert point.value == value

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        genuine=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=40),
        impostor=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=40),
        trial_scores=st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)), min_size=1, max_size=10),
        targets=st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), min_size=1, max_size=4),
    )
    def test_every_fnmr_target_is_reached(self, genuine, impostor, trial_scores, targets):
        # FNMR is 1 at the +1 sentinel of every curve fnmr_fmr_curves builds and a target lies in
        # (0, 1), so no valid verification set leaves an FNMR target unattainable.
        vset = VerificationSet(genuine, impostor)
        trials = MorphTrials(np.array(trial_scores))
        points = points_at_fnmr(trials, vset, targets)
        assert [point.target for point in points] == targets
        for point in points:
            assert point.achieved >= point.target
            assert point.achieved == oracle_fnmr(genuine, point.threshold)
            assert point.value == oracle_mmpmr(trial_scores, point.threshold)

    def test_fnmr_at_fmr(self):
        vset = VerificationSet([0.5, 0.7, 0.9, 0.95], [0.1, 0.3, 0.6, 0.8])
        points = fnmr_at_fmr(*fnmr_fmr_curves(vset), [0.25])
        point = points[0]
        assert point.achieved <= 0.25
        # at that threshold, check FNMR directly against enumeration
        assert point.value == oracle_fnmr([0.5, 0.7, 0.9, 0.95], point.threshold)

    def test_target_validation(self):
        vset = VerificationSet([0.5], [0.1])
        trials = MorphTrials([[0.2, 0.3]])
        with pytest.raises(ConfigError):
            points_at_fnmr(trials, vset, [1.0])

    def test_mmpmr_at_fnmr_needs_one_grid(self):
        fnmr, _ = fnmr_fmr_curves(VerificationSet([0.5, 0.7], [0.1, 0.3]))
        match = mmpmr_curve(MorphTrials([[0.2, 0.6]]), [-1.0, 0.1, 0.5, 0.7, 1.0])
        with pytest.raises(ConfigError) as err:
            mmpmr_at_fnmr(match, fnmr, [0.25])
        assert str(err.value) == "MMPMR and FNMR curves must share one threshold grid"

    def test_fnmr_at_fmr_needs_one_grid(self):
        fnmr, _ = fnmr_fmr_curves(VerificationSet([0.5, 0.7], [0.1, 0.3]))
        _, fmr = fnmr_fmr_curves(VerificationSet([0.5, 0.7], [0.1, 0.4]))
        with pytest.raises(ConfigError, match="must share one threshold grid"):
            fnmr_at_fmr(fnmr, fmr, [0.25])


class TestPermutationInvariance:
    @given(st.randoms(use_true_random=False))
    @settings(max_examples=25, deadline=None)
    def test_shuffling_changes_nothing(self, pyrandom):
        rng = np.random.default_rng(pyrandom.randrange(2**32))
        vset, trials, _ = random_instance(rng, max_scores=30)
        baseline = min_rmmr(trials, fnmr_fmr_curves(vset)[0])
        g = vset.genuine.tolist()
        i = vset.impostor.tolist()
        pyrandom.shuffle(g)
        pyrandom.shuffle(i)
        rows = list(range(len(trials)))
        pyrandom.shuffle(rows)
        assert min_rmmr(MorphTrials(trials.scores[rows]), fnmr_fmr_curves(VerificationSet(g, i))[0]) == baseline


class TestSerialization:
    def test_curve_roundtrip(self, tmp_path):
        rng = np.random.default_rng(9)
        vset, *_ = random_instance(rng)
        fnmr, _ = fnmr_fmr_curves(vset)
        path = tmp_path / "curve.csv"
        save_curve_csv(fnmr, path)
        loaded = load_curve_csv(path)
        np.testing.assert_array_equal(loaded.thresholds, fnmr.thresholds)
        np.testing.assert_array_equal(loaded.values, fnmr.values)

    def test_scores_roundtrip(self, tmp_path):
        rng = np.random.default_rng(10)
        vset, *_ = random_instance(rng)
        path = tmp_path / "scores.csv"
        save_scores_csv(vset, path)
        loaded = load_scores_csv(path)
        np.testing.assert_array_equal(loaded.genuine, vset.genuine)
        np.testing.assert_array_equal(loaded.impostor, vset.impostor)

    def test_trials_roundtrip(self, tmp_path):
        rng = np.random.default_rng(11)
        trials = MorphTrials(np.round(rng.uniform(-1, 1, (int(rng.integers(1, 50)), 3)), 3))
        path = tmp_path / "trials.json"
        save_trials_json(trials, path)
        loaded = load_trials_json(path)
        assert len(loaded) == len(trials)
        for a, b in zip(trials, loaded):
            assert a.morph_id == b.morph_id
            np.testing.assert_array_equal(a.subject_scores, b.subject_scores)

    def test_trial_array_writes_the_json_dump_of_its_rows(self, tmp_path):
        scores = np.random.default_rng(12).uniform(-1.0, 1.0, size=(50, 2))
        scores[0] = (-1.0, 1.0)
        scores[1] = (0.0, -0.0)
        save_trials_json(MorphTrials(scores), tmp_path / "array.json")
        records = [{"morph_id": t, "subject_scores": [float(s) for s in row]} for t, row in enumerate(scores)]
        expected = json.dumps(records, indent=1) + "\n"
        assert (tmp_path / "array.json").read_bytes() == expected.encode("utf-8")

    def test_operating_points_roundtrip(self, tmp_path):
        points = [
            OperatingPoint("mmpmr_at_fnmr", 0.01, 0.0125, 0.375, 0.5),
            OperatingPoint("min_rmmr", None, None, 0.25, 0.125),
        ]
        path = tmp_path / "points.csv"
        save_operating_points_csv(points, path)
        assert load_operating_points_csv(path) == points
