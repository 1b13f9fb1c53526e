import math

import numpy as np
import pytest
from scipy.stats import chi2

from morphguard.errors import (
    ConfigError,
    DegenerateAnchorError,
    DegenerateCovarianceError,
    NumericInputError,
)
from morphguard.encoder import train
from morphguard.experiment import ExperimentConfig, fresh_model, generate_bundle, train_config
from morphguard.featviz import (
    CHI2_2DOF_Q90,
    align_feature_triplets,
    confidence_ellipse,
    morph_spread,
    project_2d,
    render_svg,
    save_aligned_csv,
    save_ellipse_csv,
)
from oracles import oracle_align_triplet, oracle_trial_features
from test_experiment import SMALL, train_part

Q90 = 4.605170185988092  # -2 ln(1 - 0.9); -2 ln(0.1) is one ulp lower


def align_one(p1, p2, cloud):
    """Aligned anchors and cloud of the triplets (p1, p2, m) for each m in the (k, 2) cloud,
    which all share one rigid map: (images of p1 and p2, (k, 2) image of the cloud)."""
    cloud = np.asarray(cloud, dtype=np.float64)
    anchors = np.broadcast_to(np.array([p1, p2], dtype=np.float64), (len(cloud), 2, 2))
    aligned = align_feature_triplets(np.concatenate([anchors, cloud[:, None, :]], axis=1))
    return aligned[0, :2], aligned[:, 2]


def signed_areas(points):
    """Twice the signed areas of the triangles of consecutive (k, 2) points."""
    steps = np.diff(points, axis=0)
    return steps[:-1, 0] * steps[1:, 1] - steps[:-1, 1] * steps[1:, 0]


class TestProject2D:
    def test_constant_vector(self):
        np.testing.assert_allclose(project_2d([3.0, 3.0, 3.0, 3.0]), [3.0, 3.0], atol=0)

    def test_direct_averaging(self):
        np.testing.assert_allclose(project_2d([1.0, 2.0, 3.0, 4.0]), [2.0, 3.0], atol=0)

    def test_matches_index_partition(self):
        rng = np.random.default_rng(0)
        vec = rng.normal(size=512)
        out = project_2d(vec)
        assert out[0] == pytest.approx(vec[0::2].mean(), abs=1e-15)
        assert out[1] == pytest.approx(vec[1::2].mean(), abs=1e-15)

    def test_linearity(self):
        rng = np.random.default_rng(1)
        u, v = rng.normal(size=8), rng.normal(size=8)
        combo = project_2d(2.5 * u - 0.75 * v)
        np.testing.assert_allclose(combo, 2.5 * project_2d(u) - 0.75 * project_2d(v), atol=1e-12)

    @pytest.mark.parametrize("dim", [2, 4, 32, 128])
    def test_idempotent_on_its_own_output(self, dim):
        # morph_spread aligns trial_features' projected points without projecting them again;
        # raw points would not do, as project_2d maps -0.0 to +0.0
        rng = np.random.default_rng(dim)
        features = rng.normal(size=(5000, 3, dim)) * rng.choice([1e-300, 1e-8, 1.0, 1e8], size=(5000, 3, 1))
        features[:10] = 0.0
        features[10:20] = -0.0
        points = project_2d(features)
        assert project_2d(points).tobytes() == points.tobytes()

    def test_odd_dimension_rejected(self):
        with pytest.raises(ConfigError):
            project_2d([1.0, 2.0, 3.0])


class TestFitRigid:
    """The rigid map align_feature_triplets fits to each triplet's two anchors."""

    def test_already_aligned_is_identity(self):
        anchors, image = align_one([-0.5, -0.5], [0.5, 0.5], [[-0.5, -0.5], [0.3, 0.7]])
        np.testing.assert_allclose(anchors, [[-0.5, -0.5], [0.5, 0.5]], atol=1e-12)
        np.testing.assert_allclose(image, [[-0.5, -0.5], [0.3, 0.7]], atol=1e-12)

    def test_quarter_turn_case(self):
        # anchors distance sqrt(2) apart land exactly on the targets; a turn by -pi/4 takes
        # (1, 0) off the anchor line to (1, -1) / sqrt(2)
        root2 = math.sqrt(2.0)
        anchors, image = align_one([0.0, 0.0], [0.0, root2], [[0.0, root2 / 2], [1.0, root2 / 2]])
        np.testing.assert_allclose(anchors, [[-0.5, -0.5], [0.5, 0.5]], atol=1e-12)
        np.testing.assert_allclose(image, [[0.0, 0.0], [1 / root2, -1 / root2]], atol=1e-12)

    def test_preserves_distances_and_orientation(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            p1, p2 = rng.normal(size=2), rng.normal(size=2)
            if np.linalg.norm(p2 - p1) < 1e-6:
                continue
            cloud = rng.normal(size=(10, 2))
            _, image = align_one(p1, p2, cloud)
            for i in range(10):
                for j in range(i):
                    before = np.linalg.norm(cloud[i] - cloud[j])
                    after = np.linalg.norm(image[i] - image[j])
                    assert abs(before - after) < 1e-9
            # a reflection would flip the sign of every signed area
            np.testing.assert_allclose(signed_areas(image), signed_areas(cloud), atol=1e-9)

    def test_anchor_images_on_diagonal(self):
        rng = np.random.default_rng(3)
        p1, p2 = rng.normal(size=2), rng.normal(size=2)
        (img1, img2), _ = align_one(p1, p2, rng.normal(size=(1, 2)))
        half = np.linalg.norm(p2 - p1) / 2.0
        np.testing.assert_allclose(img1, -half * np.array([1.0, 1.0]) / math.sqrt(2), atol=1e-9)
        np.testing.assert_allclose(img2, half * np.array([1.0, 1.0]) / math.sqrt(2), atol=1e-9)

    def test_coincident_anchors(self):
        with pytest.raises(DegenerateAnchorError):
            align_one([1.0, 1.0], [1.0, 1.0], [[0.0, 0.0]])


class TestAlignFeatureTriplets:
    def _features(self, rng, t=10, d=8, morph_midway=False):
        a, b = rng.normal(size=(t, d)), rng.normal(size=(t, d))
        m = 0.5 * (a + b) if morph_midway else rng.normal(size=(t, d))
        return project_2d(np.stack([a, b, m], axis=1))

    def test_midway_morph_lands_at_origin(self):
        rng = np.random.default_rng(4)
        aligned = align_feature_triplets(self._features(rng, morph_midway=True))
        np.testing.assert_allclose(aligned[:, 2], 0.0, atol=1e-12)

    def test_bona_fide_images_symmetric_on_diagonal(self):
        rng = np.random.default_rng(5)
        aligned = align_feature_triplets(self._features(rng))
        a_img, b_img = aligned[:, 0], aligned[:, 1]
        np.testing.assert_allclose(a_img, -b_img, atol=1e-9)
        assert np.all(np.abs(a_img[:, 0] - a_img[:, 1]) < 1e-9)

    def test_swapping_anchors_reflects_through_origin(self):
        rng = np.random.default_rng(6)
        features = self._features(rng)
        fwd = align_feature_triplets(features)
        swapped = align_feature_triplets(features[:, [1, 0, 2]])
        np.testing.assert_allclose(swapped[:, 0], -fwd[:, 1], atol=1e-9)
        np.testing.assert_allclose(swapped[:, 1], -fwd[:, 0], atol=1e-9)
        np.testing.assert_allclose(swapped[:, 2], -fwd[:, 2], atol=1e-9)

    def test_dimension_validation(self):
        # (T, 3, D) features go through project_2d first
        for shape in [(2, 3, 3), (2, 3, 4), (3, 2), (2, 2, 2)]:
            with pytest.raises(ConfigError) as err:
                align_feature_triplets(np.ones(shape))
            assert str(err.value) == f"need (T, 3, 2) triplet points, got shape {shape}"


class TestOracleAlignment:
    """The batched alignment of projected features against oracle_align_triplet, bit for bit."""

    @pytest.fixture(scope="class")
    def trained_features(self):
        config = ExperimentConfig.from_dict(SMALL)
        bundle = generate_bundle(config)
        model, _ = train(fresh_model(config), bundle.train_set, train_config(config))
        return oracle_trial_features(model, list(train_part(bundle, config)), bundle.protocol, config.data.alpha)

    def test_matches_per_triplet_oracle(self, trained_features):
        expected = np.array([oracle_align_triplet(*t) for t in trained_features])
        assert align_feature_triplets(project_2d(trained_features)).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("dim", [2, 4, 32, 128])
    def test_random_features_match_oracle(self, dim):
        features = np.random.default_rng(dim).normal(size=(500, 3, dim))
        expected = np.array([oracle_align_triplet(*t) for t in features])
        assert align_feature_triplets(project_2d(features)).tobytes() == expected.tobytes()


class TestConfidenceEllipse:
    def test_quantile_constant(self):
        assert CHI2_2DOF_Q90 == Q90
        # independent cross-check against the chi-square distribution
        assert CHI2_2DOF_Q90 == pytest.approx(chi2.ppf(0.9, df=2), abs=1e-9)

    def test_identity_covariance_extents(self):
        a = math.sqrt(1.5)  # sample covariance of the 4-point cross is exactly I
        pts = np.array([[a, 0.0], [-a, 0.0], [0.0, a], [0.0, -a]])
        ellipse = confidence_ellipse(pts)
        expected = 2.0 * math.sqrt(Q90)
        assert ellipse.width == pytest.approx(expected, abs=1e-12)
        assert ellipse.height == pytest.approx(expected, abs=1e-12)
        assert ellipse.size == pytest.approx(expected, abs=1e-12)

    def test_known_diagonal_covariance_size(self):
        rng = np.random.default_rng(8)
        pts = rng.normal(size=(500, 2))
        pts -= pts.mean(axis=0)
        # whiten, then stretch to sample covariance exactly diag(0.04, 0.01)
        cov = np.cov(pts.T, ddof=1)
        chol = np.linalg.cholesky(cov)
        pts = pts @ np.linalg.inv(chol).T @ np.diag([0.2, 0.1])
        ellipse = confidence_ellipse(pts)
        expected = (2 * math.sqrt(Q90 * 0.04) + 2 * math.sqrt(Q90 * 0.01)) / 2
        assert ellipse.size == pytest.approx(0.64378980788680417, abs=1e-9)
        assert ellipse.size == pytest.approx(expected, abs=1e-12)

    def test_coverage_monte_carlo(self):
        rng = np.random.default_rng(9)
        pts = rng.standard_normal((10_000, 2))
        ellipse = confidence_ellipse(pts)
        fraction = ellipse.contains(pts).mean()
        assert 0.87 <= fraction <= 0.93

    def test_rotation_equivariance(self):
        rng = np.random.default_rng(10)
        pts = rng.normal(size=(200, 2)) @ np.diag([2.0, 0.5])
        base = confidence_ellipse(pts)
        phi = 0.7
        rot = np.array([[math.cos(phi), -math.sin(phi)], [math.sin(phi), math.cos(phi)]])
        turned = confidence_ellipse(pts @ rot.T)
        assert turned.width == pytest.approx(base.width, abs=1e-9)
        assert turned.height == pytest.approx(base.height, abs=1e-9)
        assert turned.size == pytest.approx(base.size, abs=1e-9)
        delta = (turned.orientation - base.orientation - phi) % math.pi
        assert min(delta, math.pi - delta) < 1e-9

    def test_degenerate_cloud(self):
        line = np.array([[t, 2.0 * t] for t in np.linspace(-1, 1, 30)])
        with pytest.raises(DegenerateCovarianceError):
            confidence_ellipse(line)

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_point_rejected_in_one_line(self, bad):
        pts = np.random.default_rng(0).normal(size=(10, 2))
        pts[3, 1] = bad
        with pytest.raises(NumericInputError) as err:
            confidence_ellipse(pts)
        assert str(err.value) == "ellipse points must be finite"

    def test_level_validation(self):
        # the level is fixed at 0.9: there is no level to pass
        pts = np.random.default_rng(0).normal(size=(10, 2))
        with pytest.raises(TypeError):
            confidence_ellipse(pts, level=0.5)


class TestAlignedSpread:
    """morph_spread's points are (T, 3, 2), each (bona_a, bona_b, morph) as evaluation projects them."""

    def test_returns_consistent_size(self):
        rng = np.random.default_rng(11)
        d = 8
        triplets = []
        for _ in range(40):
            a, b = rng.normal(size=d), rng.normal(size=d)
            m = a + b + 0.3 * rng.normal(size=d)
            triplets.append([a, b, m])
        aligned, ellipse = morph_spread(project_2d(np.array(triplets)))
        assert aligned.shape == (40, 3, 2)
        assert ellipse.size == (ellipse.width + ellipse.height) / 2
        assert ellipse.width >= ellipse.height > 0

    def test_degenerate_cloud_propagates(self):
        rng = np.random.default_rng(12)
        d = 6
        a, b, m = rng.normal(size=d), rng.normal(size=d), rng.normal(size=d)
        triplets = [[a, b, m]] * 5  # identical triplets: zero-variance cloud
        with pytest.raises(DegenerateCovarianceError):
            morph_spread(project_2d(np.array(triplets)))

    def test_too_few_triplets(self):
        rng = np.random.default_rng(13)
        with pytest.raises(ConfigError):
            morph_spread(np.array([rng.normal(size=2)] * 6))

    @pytest.mark.parametrize("role", [0, 2], ids=["anchor", "morph"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_feature_rejected_in_one_line(self, bad, role):
        points = np.random.default_rng(14).normal(size=(6, 3, 2))
        points[2, role, 1] = bad
        with pytest.raises(NumericInputError) as err:
            morph_spread(points)
        assert str(err.value) == "triplet points must be finite"

    @pytest.mark.parametrize("shape", [(9, 2), (120, 2), (2, 3, 2), (0, 3, 2), (3, 2, 2), (3, 3, 2, 1), (3, 3, 4)],
                             ids=["3T-rows", "40T-rows", "2-triplets", "no-triplets", "pairs", "4-D", "features"])
    def test_rejects_other_shapes_in_one_line(self, shape):
        points = np.random.default_rng(15).normal(size=shape)
        with pytest.raises(ConfigError) as err:
            morph_spread(points)
        assert str(err.value) == f"need (T, 3, 2) triplet points with T >= 3, got shape {shape}"


class TestSerialization:
    def _aligned(self):
        rng = np.random.default_rng(14)
        return align_feature_triplets(project_2d(rng.normal(size=(5, 3, 6))))

    def test_aligned_csv(self, tmp_path):
        aligned = self._aligned()
        path = tmp_path / "aligned.csv"
        save_aligned_csv(aligned, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "triplet_id,role,x,y"
        assert len(lines) == 1 + 3 * len(aligned)
        _, role, x, y = lines[1].split(",")
        assert role == "bona_a"
        assert float(x) == aligned[0, 0, 0]
        assert float(y) == aligned[0, 0, 1]

    def test_ellipse_csv(self, tmp_path):
        aligned = self._aligned()
        ellipse = confidence_ellipse(aligned[:, 2, :])
        path = tmp_path / "ellipse.csv"
        save_ellipse_csv(ellipse, path)
        header, row = path.read_text().strip().splitlines()
        assert header == "W,H,S,orientation,center_x,center_y"
        w, h, s, *_ = (float(v) for v in row.split(","))
        assert s == (w + h) / 2
        assert s == ellipse.size

    def test_svg_structure(self, tmp_path):
        aligned = self._aligned()
        ellipse = confidence_ellipse(aligned[:, 2, :])
        path = tmp_path / "plot.svg"
        render_svg(aligned, ellipse, path)
        svg = path.read_text()
        assert svg.count("<circle") == 3 * len(aligned)
        assert svg.count("<ellipse") == 1
        render_svg(aligned, ellipse, tmp_path / "again.svg")
        assert (tmp_path / "again.svg").read_bytes() == path.read_bytes()
