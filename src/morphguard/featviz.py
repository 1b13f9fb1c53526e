"""Feature-distribution analysis of morph triplets.

Each triplet (two bona fide originals plus their morph) is projected to
2D by averaging even- and odd-indexed feature entries, then mapped by
the rigid transform that sends the midpoint of the two originals to the
origin and their direction onto the diagonal y = x. Rotation plus
translation preserves all relative distances; the fixed target points
(-0.5, -0.5) and (0.5, 0.5) are hit exactly only when the originals
happen to be sqrt(2) apart, and an optional similarity mode adds the
scale factor that pins them there.

The pooled aligned morph points are summarized by a mean-centered
covariance confidence ellipse (2-dof chi-square quantile, unbiased
covariance); its size statistic is the mean of width and height.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    DegenerateAnchorError,
    DegenerateCovarianceError,
)


@dataclass(frozen=True)
class Triplet:
    """Features of two bona fide originals and their morph."""

    bona_a: np.ndarray
    bona_b: np.ndarray
    morph: np.ndarray

    def __post_init__(self):
        dims = {np.asarray(v).shape for v in (self.bona_a, self.bona_b, self.morph)}
        if len(dims) != 1:
            raise ConfigError(f"triplet members must share one shape, got {sorted(dims)}")
        (dim,) = dims
        if len(dim) != 1 or dim[0] % 2 != 0 or dim[0] < 2:
            raise ConfigError(f"triplet features must be even-length vectors, got shape {dim}")


@dataclass(frozen=True)
class RigidTransform:
    """Rotation by ``angle`` followed by ``translation`` (det +1, no scale)."""

    angle: float
    translation: np.ndarray

    def matrix(self) -> np.ndarray:
        c, s = math.cos(self.angle), math.sin(self.angle)
        return np.array([[c, -s], [s, c]])

    def apply(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=np.float64)
        return pts @ self.matrix().T + np.asarray(self.translation)


@dataclass(frozen=True)
class Ellipse:
    """Confidence ellipse: center, axis extents, and orientation.

    ``width`` is the full extent along the major axis (width >= height)
    and ``orientation`` the major-axis angle in (-pi/2, pi/2].
    """

    center: np.ndarray
    width: float
    height: float
    orientation: float

    def __post_init__(self):
        if not (self.width >= self.height > 0):
            raise ConfigError(f"need width >= height > 0, got ({self.width}, {self.height})")

    @property
    def size(self) -> float:
        return (self.width + self.height) / 2

    def contains(self, points) -> np.ndarray:
        """Boolean mask of points inside (or on) the ellipse."""
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64)) - np.asarray(self.center)
        c, s = math.cos(-self.orientation), math.sin(-self.orientation)
        local_x = c * pts[:, 0] - s * pts[:, 1]
        local_y = s * pts[:, 0] + c * pts[:, 1]
        return (local_x / (self.width / 2)) ** 2 + (local_y / (self.height / 2)) ** 2 <= 1.0


def project_2d(feature) -> np.ndarray:
    """(mean of even-indexed entries, mean of odd-indexed entries)."""
    vec = np.asarray(feature, dtype=np.float64).ravel()
    if vec.size < 2 or vec.size % 2 != 0:
        raise ConfigError(f"projection needs an even-length vector, got {vec.size}")
    return np.array([vec[0::2].mean(), vec[1::2].mean()])


def fit_rigid(p1, p2) -> RigidTransform:
    """Rigid map sending midpoint(p1, p2) to the origin and the p1->p2
    direction onto the unit diagonal.

    Distances are preserved, so p1 and p2 land at -+(|p2-p1|/2) along
    the diagonal rather than at fixed points.
    """
    a = np.asarray(p1, dtype=np.float64)
    b = np.asarray(p2, dtype=np.float64)
    delta = b - a
    if np.linalg.norm(delta) <= 1e-12:
        raise DegenerateAnchorError("anchor points coincide; direction is undefined")
    angle = math.pi / 4 - math.atan2(delta[1], delta[0])
    transform = RigidTransform(angle=angle, translation=np.zeros(2))
    midpoint_image = transform.apply((a + b) / 2)
    return RigidTransform(angle=angle, translation=-midpoint_image)


def align_triplet(triplet: Triplet, mode: str = "rigid"):
    """Project all three features and align on the two bona fide anchors.

    mode "rigid" preserves distances; mode "similarity" additionally
    rescales so the anchors land exactly on (-0.5, -0.5) and
    (0.5, 0.5). Returns the three aligned 2-vectors (a, b, morph).
    """
    if mode not in ("rigid", "similarity"):
        raise ConfigError(f"unknown alignment mode {mode!r}")
    pa, pb, pm = (project_2d(v) for v in (triplet.bona_a, triplet.bona_b, triplet.morph))
    transform = fit_rigid(pa, pb)
    aligned = transform.apply(np.stack([pa, pb, pm]))
    if mode == "similarity":
        aligned = aligned * (math.sqrt(2.0) / np.linalg.norm(pb - pa))
    return aligned[0], aligned[1], aligned[2]


def chi2_quantile_2dof(level: float) -> float:
    """Closed-form chi-square quantile with 2 degrees of freedom."""
    if not (0.0 < level < 1.0):
        raise ConfigError(f"confidence level must lie in (0, 1), got {level}")
    return -2.0 * math.log(1.0 - level)


def confidence_ellipse(points, level: float = 0.9) -> Ellipse:
    """Mean-centered covariance ellipse at the given confidence level.

    Axis extents are 2*sqrt(q*eigenvalue) with q the 2-dof chi-square
    quantile and the unbiased sample covariance; width follows the
    larger eigenvalue.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if pts.shape[0] < 3 or pts.shape[1] != 2:
        raise ConfigError(f"need at least 3 points of dimension 2, got shape {pts.shape}")
    q = chi2_quantile_2dof(level)
    cov = np.cov(pts.T, ddof=1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    if eigvals[0] < 1e-12:
        raise DegenerateCovarianceError(
            f"smallest covariance eigenvalue {eigvals[0]:.3e} below 1e-12 (collinear cloud)"
        )
    major = eigvecs[:, 1]
    orientation = math.atan2(major[1], major[0])
    if orientation <= -math.pi / 2:
        orientation += math.pi
    elif orientation > math.pi / 2:
        orientation -= math.pi
    return Ellipse(
        center=pts.mean(axis=0),
        width=2.0 * math.sqrt(q * eigvals[1]),
        height=2.0 * math.sqrt(q * eigvals[0]),
        orientation=orientation,
    )


def align_feature_triplets(triplets, mode: str = "rigid"):
    """Align a batch of feature triplets; returns (T, 3, 2) stacked points."""
    aligned = [align_triplet(t, mode=mode) for t in triplets]
    return np.array(aligned)


def aligned_spread(rows, level: float = 0.9, mode: str = "rigid"):
    """Align embedded triplets and fit the ellipse of their morph cloud.

    rows is a (3T, D) array of features ordered (bona_a, bona_b, morph)
    per triplet; returns the (T, 3, 2) aligned points and the Ellipse of
    their morph points.
    """
    rows = np.asarray(rows, dtype=np.float64)
    triplets = [Triplet(rows[i], rows[i + 1], rows[i + 2]) for i in range(0, len(rows), 3)]
    if len(triplets) < 3:
        raise ConfigError(f"need at least 3 triplets, got {len(triplets)}")
    aligned = align_feature_triplets(triplets, mode=mode)
    return aligned, confidence_ellipse(aligned[:, 2, :], level=level)


# --- serialization ---------------------------------------------------------

_ROLES = ("bona_a", "bona_b", "morph")


def save_aligned_csv(aligned_points: np.ndarray, path):
    """Write (T, 3, 2) aligned points as `triplet_id,role,x,y` rows."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("triplet_id,role,x,y\n")
        for t, triple in enumerate(aligned_points):
            for role, point in zip(_ROLES, triple):
                fh.write(f"{t},{role},{float(point[0])!r},{float(point[1])!r}\n")


def save_ellipse_csv(ellipse: Ellipse, path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("W,H,S,orientation,center_x,center_y\n")
        fh.write(
            ",".join(
                repr(float(v))
                for v in (
                    ellipse.width,
                    ellipse.height,
                    ellipse.size,
                    ellipse.orientation,
                    ellipse.center[0],
                    ellipse.center[1],
                )
            )
            + "\n"
        )


_SVG_COLORS = {"bona_a": "#1f77b4", "bona_b": "#2ca02c", "morph": "#d62728"}


def render_svg(aligned_points: np.ndarray, ellipse: Ellipse, path, size_px: int = 480):
    """Standalone SVG scatter of aligned triplets with the morph ellipse."""
    pts = aligned_points.reshape(-1, 2)
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    span = max(float((hi - lo).max()), 1e-9)
    pad = 0.1 * span
    origin = (lo + hi) / 2 - (span / 2 + pad)
    scale = size_px / (span + 2 * pad)

    def to_px(p):
        return (p[0] - origin[0]) * scale, size_px - (p[1] - origin[1]) * scale

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size_px}" height="{size_px}" '
        f'viewBox="0 0 {size_px} {size_px}">',
        f'<rect width="{size_px}" height="{size_px}" fill="white"/>',
    ]
    for triple in aligned_points:
        for role, point in zip(_ROLES, triple):
            x, y = to_px(point)
            parts.append(
                f'<circle cx="{x:.3f}" cy="{y:.3f}" r="2.5" fill="{_SVG_COLORS[role]}" '
                f'fill-opacity="0.6"/>'
            )
    cx, cy = to_px(ellipse.center)
    deg = -math.degrees(ellipse.orientation)
    parts.append(
        f'<ellipse cx="0" cy="0" rx="{ellipse.width / 2 * scale:.3f}" '
        f'ry="{ellipse.height / 2 * scale:.3f}" transform="translate({cx:.3f} {cy:.3f}) '
        f'rotate({deg:.3f})" fill="none" stroke="#d62728" stroke-width="1.5"/>'
    )
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")
