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
from morphguard.featviz import (
    align_feature_triplets,
    aligned_spread,
    chi2_quantile_2dof,
    confidence_ellipse,
    fit_rigid,
    project_2d,
    render_svg,
    save_aligned_csv,
    save_ellipse_csv,
)

Q90 = 4.605170185988091  # -2 ln(0.1)


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

    def test_odd_dimension_rejected(self):
        with pytest.raises(ConfigError):
            project_2d([1.0, 2.0, 3.0])


class TestFitRigid:
    def test_already_aligned_is_identity(self):
        transform = fit_rigid([-0.5, -0.5], [0.5, 0.5])
        np.testing.assert_allclose(transform.apply([-0.5, -0.5]), [-0.5, -0.5], atol=1e-12)
        np.testing.assert_allclose(transform.apply([0.3, 0.7]), [0.3, 0.7], atol=1e-12)

    def test_quarter_turn_case(self):
        # anchors distance sqrt(2) apart land exactly on the targets
        transform = fit_rigid([0.0, 0.0], [0.0, math.sqrt(2.0)])
        assert transform.angle == pytest.approx(-math.pi / 4, abs=1e-12)
        np.testing.assert_allclose(transform.apply([0.0, math.sqrt(2.0) / 2]), [0.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(transform.apply([0.0, 0.0]), [-0.5, -0.5], atol=1e-12)
        np.testing.assert_allclose(transform.apply([0.0, math.sqrt(2.0)]), [0.5, 0.5], atol=1e-12)

    def test_preserves_distances_and_orientation(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            p1, p2 = rng.normal(size=2), rng.normal(size=2)
            if np.linalg.norm(p2 - p1) < 1e-6:
                continue
            transform = fit_rigid(p1, p2)
            cloud = rng.normal(size=(10, 2))
            image = transform.apply(cloud)
            for i in range(10):
                for j in range(i):
                    before = np.linalg.norm(cloud[i] - cloud[j])
                    after = np.linalg.norm(image[i] - image[j])
                    assert abs(before - after) < 1e-9
            assert np.linalg.det(transform.matrix()) == pytest.approx(1.0, abs=1e-12)

    def test_anchor_images_on_diagonal(self):
        rng = np.random.default_rng(3)
        p1, p2 = rng.normal(size=2), rng.normal(size=2)
        transform = fit_rigid(p1, p2)
        img1, img2 = transform.apply(np.stack([p1, p2]))
        half = np.linalg.norm(p2 - p1) / 2.0
        np.testing.assert_allclose(img1, -half * np.array([1.0, 1.0]) / math.sqrt(2), atol=1e-9)
        np.testing.assert_allclose(img2, half * np.array([1.0, 1.0]) / math.sqrt(2), atol=1e-9)

    def test_coincident_anchors(self):
        with pytest.raises(DegenerateAnchorError):
            fit_rigid([1.0, 1.0], [1.0, 1.0])


class TestAlignFeatureTriplets:
    def _features(self, rng, t=10, d=8, morph_midway=False):
        a, b = rng.normal(size=(t, d)), rng.normal(size=(t, d))
        m = 0.5 * (a + b) if morph_midway else rng.normal(size=(t, d))
        return np.stack([a, b, m], axis=1)

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
        with pytest.raises(ConfigError):
            align_feature_triplets(np.zeros((2, 3, 3)))


class TestConfidenceEllipse:
    def test_quantile_constant(self):
        assert chi2_quantile_2dof(0.9) == pytest.approx(Q90, abs=1e-12)
        # independent cross-check against the chi-square distribution
        assert chi2_quantile_2dof(0.9) == pytest.approx(chi2.ppf(0.9, df=2), abs=1e-9)
        assert chi2_quantile_2dof(0.5) == pytest.approx(chi2.ppf(0.5, df=2), abs=1e-9)

    def test_identity_covariance_extents(self):
        a = math.sqrt(1.5)  # sample covariance of the 4-point cross is exactly I
        pts = np.array([[a, 0.0], [-a, 0.0], [0.0, a], [0.0, -a]])
        ellipse = confidence_ellipse(pts, level=0.9)
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
        ellipse = confidence_ellipse(pts, level=0.9)
        expected = (2 * math.sqrt(Q90 * 0.04) + 2 * math.sqrt(Q90 * 0.01)) / 2
        assert ellipse.size == pytest.approx(0.64378980788680417, abs=1e-9)
        assert ellipse.size == pytest.approx(expected, abs=1e-12)

    def test_coverage_monte_carlo(self):
        rng = np.random.default_rng(9)
        pts = rng.standard_normal((10_000, 2))
        ellipse = confidence_ellipse(pts, level=0.9)
        fraction = ellipse.contains(pts).mean()
        assert 0.87 <= fraction <= 0.93

    def test_rotation_equivariance(self):
        rng = np.random.default_rng(10)
        pts = rng.normal(size=(200, 2)) @ np.diag([2.0, 0.5])
        base = confidence_ellipse(pts, level=0.9)
        phi = 0.7
        rot = np.array([[math.cos(phi), -math.sin(phi)], [math.sin(phi), math.cos(phi)]])
        turned = confidence_ellipse(pts @ rot.T, level=0.9)
        assert turned.width == pytest.approx(base.width, abs=1e-9)
        assert turned.height == pytest.approx(base.height, abs=1e-9)
        assert turned.size == pytest.approx(base.size, abs=1e-9)
        delta = (turned.orientation - base.orientation - phi) % math.pi
        assert min(delta, math.pi - delta) < 1e-9

    def test_degenerate_cloud(self):
        line = np.array([[t, 2.0 * t] for t in np.linspace(-1, 1, 30)])
        with pytest.raises(DegenerateCovarianceError):
            confidence_ellipse(line, level=0.9)

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_point_rejected_in_one_line(self, bad):
        pts = np.random.default_rng(0).normal(size=(10, 2))
        pts[3, 1] = bad
        with pytest.raises(NumericInputError) as err:
            confidence_ellipse(pts, level=0.9)
        assert str(err.value) == "ellipse points must be finite"

    def test_level_validation(self):
        with pytest.raises(ConfigError):
            chi2_quantile_2dof(1.0)
        pts = np.random.default_rng(0).normal(size=(10, 2))
        with pytest.raises(ConfigError):
            confidence_ellipse(pts, level=0.0)


class TestAlignedSpread:
    """Triplets are (T, 3, D), each (bona_a, bona_b, morph), as evaluation embeds them."""

    def test_returns_consistent_size(self):
        rng = np.random.default_rng(11)
        d = 8
        triplets = []
        for _ in range(40):
            a, b = rng.normal(size=d), rng.normal(size=d)
            m = a + b + 0.3 * rng.normal(size=d)
            triplets.append([a, b, m])
        aligned, ellipse = aligned_spread(np.array(triplets))
        assert aligned.shape == (40, 3, 2)
        assert ellipse.size == (ellipse.width + ellipse.height) / 2
        assert ellipse.width >= ellipse.height > 0

    def test_degenerate_cloud_propagates(self):
        rng = np.random.default_rng(12)
        d = 6
        a, b, m = rng.normal(size=d), rng.normal(size=d), rng.normal(size=d)
        triplets = [[a, b, m]] * 5  # identical triplets: zero-variance cloud
        with pytest.raises(DegenerateCovarianceError):
            aligned_spread(np.array(triplets))

    def test_too_few_triplets(self):
        rng = np.random.default_rng(13)
        d = 4
        with pytest.raises(ConfigError):
            aligned_spread(np.array([rng.normal(size=d)] * 6))

    @pytest.mark.parametrize("role", [0, 2], ids=["anchor", "morph"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_feature_rejected_in_one_line(self, bad, role):
        triplets = np.random.default_rng(14).normal(size=(6, 3, 4))
        triplets[2, role, 1] = bad
        with pytest.raises(NumericInputError) as err:
            aligned_spread(triplets)
        assert str(err.value) == "triplet features must be finite"

    @pytest.mark.parametrize("shape", [(9, 4), (120, 8), (2, 3, 4), (0, 3, 4), (3, 2, 4), (3, 3, 4, 1)],
                             ids=["3T-rows", "40T-rows", "2-triplets", "no-triplets", "pairs", "4-D"])
    def test_rejects_other_shapes_in_one_line(self, shape):
        triplets = np.random.default_rng(15).normal(size=shape)
        with pytest.raises(ConfigError) as err:
            aligned_spread(triplets)
        assert str(err.value) == f"need (T, 3, D) triplets with T >= 3, got shape {shape}"


class TestSerialization:
    def _aligned(self):
        rng = np.random.default_rng(14)
        return align_feature_triplets(rng.normal(size=(5, 3, 6)))

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
        ellipse = confidence_ellipse(aligned[:, 2, :], level=0.9)
        path = tmp_path / "ellipse.csv"
        save_ellipse_csv(ellipse, path)
        header, row = path.read_text().strip().splitlines()
        assert header == "W,H,S,orientation,center_x,center_y"
        w, h, s, *_ = (float(v) for v in row.split(","))
        assert s == (w + h) / 2
        assert s == ellipse.size

    def test_svg_structure(self, tmp_path):
        aligned = self._aligned()
        ellipse = confidence_ellipse(aligned[:, 2, :], level=0.9)
        path = tmp_path / "plot.svg"
        render_svg(aligned, ellipse, path)
        svg = path.read_text()
        assert svg.count("<circle") == 3 * len(aligned)
        assert svg.count("<ellipse") == 1
        render_svg(aligned, ellipse, tmp_path / "again.svg")
        assert (tmp_path / "again.svg").read_bytes() == path.read_bytes()
