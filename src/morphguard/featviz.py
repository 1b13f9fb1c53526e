"""Feature-distribution analysis of morph triplets.

Each triplet (two bona fide originals plus their morph) is projected to
2D by averaging even- and odd-indexed feature entries, then mapped by
the rigid transform that sends the midpoint of the two originals to the
origin and their direction onto the diagonal y = x. Rotation plus
translation preserves all relative distances, so the originals land at
-+(their distance / 2) along the diagonal.

The pooled aligned morph points are summarized by a mean-centered
covariance confidence ellipse (2-dof chi-square quantile, unbiased
covariance); its size statistic is the mean of width and height.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegenerateAnchorError, DegenerateCovarianceError, NumericInputError

# Points the unbiased covariance of a confidence ellipse needs; an
# evaluation therefore needs at least this many morph triplets.
MIN_ELLIPSE_POINTS = 3

# libm's atan2, elementwise: numpy's SIMD arctan2 can differ from it in the
# last bit, which would move the bytes of every aligned point.
_atan2 = np.vectorize(math.atan2, otypes=[float])


@dataclass(frozen=True)
class RigidTransform:
    """Rotation by ``angle`` followed by ``translation`` (det +1, no scale);
    a (T,) ``angle`` with (T, 2) translations holds T transforms."""

    angle: float | np.ndarray
    translation: np.ndarray

    def matrix(self) -> np.ndarray:
        """The (2, 2) rotation, or (T, 2, 2) rotations for T angles."""
        c, s = np.cos(self.angle), np.sin(self.angle)
        return np.stack([np.stack([c, -s], axis=-1), np.stack([s, c], axis=-1)], axis=-2)

    def apply(self, points) -> np.ndarray:
        """Map (..., 2) points by one transform, or (T, k, 2) points by T transforms."""
        pts = np.asarray(points, dtype=np.float64)
        shift = np.asarray(self.translation)
        return pts @ np.swapaxes(self.matrix(), -1, -2) + (shift[:, None, :] if shift.ndim == 2 else shift)


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


def project_2d(features) -> np.ndarray:
    """(mean of even-indexed entries, mean of odd-indexed entries) over the
    last axis: a D-vector maps to a 2-vector, a (..., D) stack to (..., 2)."""
    x = np.asarray(features, dtype=np.float64)
    dim = x.shape[-1] if x.ndim else 0
    if dim < 2 or dim % 2 != 0:
        raise ConfigError(f"projection needs an even-length last axis, got {dim}")
    return np.stack([x[..., 0::2].mean(axis=-1), x[..., 1::2].mean(axis=-1)], axis=-1)


def fit_rigid(p1, p2) -> RigidTransform:
    """Rigid map sending midpoint(p1, p2) to the origin and the p1->p2
    direction onto the unit diagonal.

    Takes (2,) anchors for one transform or (T, 2) anchors for T.
    Distances are preserved, so p1 and p2 land at -+(|p2-p1|/2) along
    the diagonal rather than at fixed points.
    """
    a = np.asarray(p1, dtype=np.float64)
    b = np.asarray(p2, dtype=np.float64)
    delta = b - a
    if np.any(np.linalg.norm(delta, axis=-1) <= 1e-12):
        raise DegenerateAnchorError("anchor points coincide; direction is undefined")
    angle = math.pi / 4 - _atan2(delta[..., 1], delta[..., 0])
    rotation = RigidTransform(angle=angle, translation=np.zeros_like(a))
    midpoint_image = rotation.apply(((a + b) / 2)[..., None, :])[..., 0, :]
    return RigidTransform(angle=angle, translation=-midpoint_image)


def align_feature_triplets(features) -> np.ndarray:
    """Project (T, 3, D) feature triplets (bona_a, bona_b, morph) to 2D and
    align each on its two bona fide anchors; returns (T, 3, 2) points."""
    points = project_2d(features)
    return fit_rigid(points[:, 0], points[:, 1]).apply(points)


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
    if not np.all(np.isfinite(pts)):
        raise NumericInputError("ellipse points must be finite")
    if pts.shape[0] < MIN_ELLIPSE_POINTS or pts.shape[1] != 2:
        raise ConfigError(f"need at least {MIN_ELLIPSE_POINTS} points of dimension 2, got shape {pts.shape}")
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


def aligned_spread(triplets):
    """Align embedded triplets and fit the ellipse of their morph cloud.

    triplets is a (T, 3, D) array, each triplet (bona_a, bona_b, morph);
    returns the (T, 3, 2) aligned points and the 0.9-level Ellipse of
    their morph points.
    """
    triplets = np.asarray(triplets, dtype=np.float64)
    if triplets.ndim != 3 or triplets.shape[1] != 3 or len(triplets) < MIN_ELLIPSE_POINTS:
        raise ConfigError(f"need (T, 3, D) triplets with T >= {MIN_ELLIPSE_POINTS}, got shape {triplets.shape}")
    if not np.all(np.isfinite(triplets)):
        raise NumericInputError("triplet features must be finite")
    aligned = align_feature_triplets(triplets)
    return aligned, confidence_ellipse(aligned[:, 2, :])


# --- serialization ---------------------------------------------------------

_ROLES = ("bona_a", "bona_b", "morph")


def save_aligned_csv(aligned_points: np.ndarray, path):
    """Write (T, 3, 2) aligned points as `triplet_id,role,x,y` rows."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("triplet_id,role,x,y\n")
        for t, triple in enumerate(np.asarray(aligned_points, dtype=np.float64).tolist()):
            fh.writelines(f"{t},{role},{x!r},{y!r}\n" for role, (x, y) in zip(_ROLES, triple))


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
