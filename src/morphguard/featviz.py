"""Feature-distribution analysis of morph triplets.

Each triplet (two bona fide originals plus their morph) is projected to
2D by averaging even- and odd-indexed feature entries, then mapped by
the rigid transform that sends the midpoint of the two originals to the
origin and their direction onto the diagonal y = x. Rotation plus
translation preserves all relative distances, so the originals land at
-+(their distance / 2) along the diagonal.

The pooled aligned morph points are summarized by a mean-centered
covariance confidence ellipse at level 0.9 (2-dof chi-square quantile,
unbiased covariance); its size statistic is the mean of width and height.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegenerateAnchorError, DegenerateCovarianceError, NumericInputError
from .floattext import row_texts

# Points the unbiased covariance of a confidence ellipse needs; an
# evaluation therefore needs at least this many morph triplets.
MIN_ELLIPSE_POINTS = 3

# The 2-dof chi-square quantile at 0.9, closed form -2 ln(1 - level); written
# with 1.0 - 0.9, since -2 ln(0.1) is one ulp lower.
CHI2_2DOF_Q90 = -2.0 * math.log(1.0 - 0.9)

# libm's atan2, elementwise: numpy's SIMD arctan2 can differ from it in the
# last bit, which would move the bytes of every aligned point.
_atan2 = np.vectorize(math.atan2, otypes=[float])


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


def align_feature_triplets(points) -> np.ndarray:
    """Align (T, 3, 2) projected triplet points (bona_a, bona_b, morph),
    each triplet by the rigid map sending the midpoint of its two anchors
    to the origin and their direction onto the unit diagonal.

    Distances are preserved, so the anchors land at -+(|b - a| / 2) along
    the diagonal rather than at fixed points.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 3 or points.shape[1:] != (3, 2):
        raise ConfigError(f"need (T, 3, 2) triplet points, got shape {points.shape}")
    a, b = points[:, 0], points[:, 1]
    delta = b - a
    if np.any(np.linalg.norm(delta, axis=-1) <= 1e-12):
        raise DegenerateAnchorError("anchor points coincide; direction is undefined")
    angle = math.pi / 4 - _atan2(delta[:, 1], delta[:, 0])
    c, s = np.cos(angle), np.sin(angle)
    # Points are rows, so each map multiplies by R^T. It stays a transposed
    # view of the stacked R, as in the per-triplet `p @ R.T`: a contiguous
    # copy of R^T makes matmul round differently, up to 7e-15 apart.
    rotation = np.stack([np.stack([c, -s], axis=-1), np.stack([s, c], axis=-1)], axis=-2)
    rotation_t = np.swapaxes(rotation, -1, -2)
    # + 0.0 makes a -0.0 midpoint image +0.0 before it is negated; the
    # aligned points' zero signs follow from it.
    translation = -(((a + b) / 2)[:, None, :] @ rotation_t + 0.0)
    return points @ rotation_t + translation


def confidence_ellipse(points) -> Ellipse:
    """Mean-centered covariance ellipse at confidence level 0.9.

    Axis extents are 2*sqrt(q*eigenvalue) with q = CHI2_2DOF_Q90 and the
    unbiased sample covariance; width follows the larger eigenvalue.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if not np.all(np.isfinite(pts)):
        raise NumericInputError("ellipse points must be finite")
    if pts.shape[0] < MIN_ELLIPSE_POINTS or pts.shape[1] != 2:
        raise ConfigError(f"need at least {MIN_ELLIPSE_POINTS} points of dimension 2, got shape {pts.shape}")
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
        width=2.0 * math.sqrt(CHI2_2DOF_Q90 * eigvals[1]),
        height=2.0 * math.sqrt(CHI2_2DOF_Q90 * eigvals[0]),
        orientation=orientation,
    )


def morph_spread(points):
    """Align projected triplets and fit the ellipse of their morph cloud.

    points is a (T, 3, 2) array, each triplet (bona_a, bona_b, morph) as
    experiment.trial_features returns it, already through project_2d;
    returns the (T, 3, 2) aligned points and the Ellipse of their morph
    points.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 3 or points.shape[1:] != (3, 2) or len(points) < MIN_ELLIPSE_POINTS:
        raise ConfigError(f"need (T, 3, 2) triplet points with T >= {MIN_ELLIPSE_POINTS}, got shape {points.shape}")
    if not np.all(np.isfinite(points)):
        raise NumericInputError("triplet points must be finite")
    aligned = align_feature_triplets(points)
    return aligned, confidence_ellipse(aligned[:, 2, :])


# --- serialization ---------------------------------------------------------

_ROLES = ("bona_a", "bona_b", "morph")
# A triplet's three rows, formatted with its id and its three points' "x,y" texts.
_TRIPLET_ROWS = "".join(f"{{0}},{role},{{{i + 1}}}\n" for i, role in enumerate(_ROLES))


def save_aligned_csv(aligned_points: np.ndarray, path):
    """Write (T, 3, 2) aligned points as `triplet_id,role,x,y` rows, each coordinate repr(float(v))."""
    points = row_texts(np.reshape(aligned_points, (-1, 2)), ",")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("triplet_id,role,x,y\n")
        fh.writelines(_TRIPLET_ROWS.format(t, *points[3 * t : 3 * t + 3]) for t in range(len(points) // 3))


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


_SVG_SIZE_PX = 480
_SVG_COLORS = {"bona_a": "#1f77b4", "bona_b": "#2ca02c", "morph": "#d62728"}


def render_svg(aligned_points: np.ndarray, ellipse: Ellipse, path):
    """Standalone 480-pixel-square SVG scatter of aligned triplets with the morph ellipse."""
    pts = aligned_points.reshape(-1, 2)
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    span = max(float((hi - lo).max()), 1e-9)
    pad = 0.1 * span
    origin = (lo + hi) / 2 - (span / 2 + pad)
    scale = _SVG_SIZE_PX / (span + 2 * pad)

    def to_px(p):
        """Pixel (x, y) columns of (n, 2) points: y grows downward."""
        shifted = (p - origin) * scale
        return shifted[:, 0].tolist(), (_SVG_SIZE_PX - shifted[:, 1]).tolist()

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_SIZE_PX}" height="{_SVG_SIZE_PX}" '
        f'viewBox="0 0 {_SVG_SIZE_PX} {_SVG_SIZE_PX}">',
        f'<rect width="{_SVG_SIZE_PX}" height="{_SVG_SIZE_PX}" fill="white"/>',
    ]
    colors = [_SVG_COLORS[role] for role in _ROLES] * len(aligned_points)
    parts += [f'<circle cx="{x:.3f}" cy="{y:.3f}" r="2.5" fill="{color}" fill-opacity="0.6"/>'
              for x, y, color in zip(*to_px(pts), colors)]
    (cx,), (cy,) = to_px(ellipse.center[None, :])
    deg = -math.degrees(ellipse.orientation)
    parts.append(
        f'<ellipse cx="0" cy="0" rx="{ellipse.width / 2 * scale:.3f}" '
        f'ry="{ellipse.height / 2 * scale:.3f}" transform="translate({cx:.3f} {cy:.3f}) '
        f'rotate({deg:.3f})" fill="none" stroke="#d62728" stroke-width="1.5"/>'
    )
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")
