"""Geometry-adaptive density fields and region-masked integration.

Each head contributes a truncated Gaussian whose standard deviation scales
with the mean distance to its k nearest neighbor heads (sigma = beta * mean
distance), so kernels shrink where the crowd is tight. Kernels are
renormalized over their surviving support -- truncation window, image
border, optional region mask -- so every person carries unit mass and
integrals count people.

Deposition quantizes the normalized kernel weights onto multiples of
2**-40 and pushes the rounding residual onto the pixel nearest the head.
Every head therefore deposits a total mass of exactly 1.0, and because all
pixel values are dyadic rationals on that lattice, float64 sums over any
pixel subset are exact and independent of summation order (totals stay far
below the 2**13 bound where 53-bit significands would start dropping
quanta).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError, DigCrowdError
from .scene import (
    GridShape,
    RegionMask,
    _checked_raster,
    check_heads,
    check_integer,
    check_number,
    check_positive,
)

__all__ = [
    "DensityField",
    "knn_mean_distance",
    "adaptive_sigma",
    "rasterize_density",
    "integrate",
    "far_count_from_external",
]

DEFAULT_SIGMA_FLOOR = 1.0
DEFAULT_TRUNCATION_RADIUS = 3.0
# the kernel of bench-gen's oracle density; evaluation reads density from files
KNN_K = 3
BETA = 0.3
KNN_BLOCK = 256  # heads per block of the neighbour search, so memory stays O(block * n)

MASS_QUANTUM_BITS = 40
MASS_SCALE = float(2**MASS_QUANTUM_BITS)
MASS_SCALE_INT = 2**MASS_QUANTUM_BITS
MASS_QUANTUM = 1.0 / MASS_SCALE


@dataclass(frozen=True, eq=False)
class DensityField:
    """Non-negative per-pixel density; the integral over a region is a count.

    float32 values (a DIGF payload) are kept as they are and widened,
    exactly, only where they are summed; any other type is stored as
    float64.
    """

    shape: GridShape
    values: np.ndarray
    warnings: tuple[str, ...] = ()

    def __post_init__(self):
        values = _checked_raster(self.values, self.shape, "density", np.inf, "be non-negative")
        object.__setattr__(self, "values", values)

    @cached_property
    def total_mass(self) -> float:
        return float(self.values.astype(np.float64, copy=False).sum())

    @classmethod
    def zeros(cls, shape: GridShape) -> "DensityField":
        values = np.zeros(shape.array_shape, dtype=np.float64)
        values.flags.writeable = False
        return cls(shape, values)


def knn_mean_distance(heads: np.ndarray, k: int) -> np.ndarray:
    """Per-head mean Euclidean distance to its m = min(k, n-1) nearest heads.

    A lone head has no neighbors; its mean is NaN and the sigma floor takes
    over downstream.
    """
    k = check_integer(k, "k", 1)
    pts = check_heads(heads)
    n = pts.shape[0]
    if n == 0:
        raise ConfigError("cannot compute neighbor distances of an empty head list")
    m = min(k, n - 1)
    if m == 0:
        return np.full(1, np.nan)
    means = np.empty(n)
    for start in range(0, n, KNN_BLOCK):
        dx = pts[start : start + KNN_BLOCK, :1] - pts[:, 0]
        dy = pts[start : start + KNN_BLOCK, 1:] - pts[:, 1]
        d2 = dx * dx + dy * dy
        # sqrt is monotone, so it can wait until the m + 1 smallest are chosen;
        # the first of them is the head's own zero distance.
        nearest = np.sort(np.sqrt(np.partition(d2, m, axis=1)[:, : m + 1]), axis=1)
        means[start : start + KNN_BLOCK] = nearest[:, 1:].mean(axis=1)
    return means


def adaptive_sigma(
    means: np.ndarray, beta: float, sigma_floor: float = DEFAULT_SIGMA_FLOOR
) -> np.ndarray:
    """sigma = beta * mean neighbor distance, floored at sigma_floor.

    A mean that is not finite (a lone head) gets the floor.
    """
    beta = check_positive(beta, "beta")
    sigma_floor = check_positive(sigma_floor, "sigma floor")
    means = np.asarray(means, dtype=np.float64)
    return np.where(np.isfinite(means), np.maximum(beta * means, sigma_floor), sigma_floor)


def _window_bounds(x, y, radius, width, height):
    c_lo = max(0, int(math.ceil(x - radius - 0.5)))
    c_hi = min(width - 1, int(math.floor(x + radius - 0.5)))
    r_lo = max(0, int(math.ceil(y - radius - 0.5)))
    r_hi = min(height - 1, int(math.floor(y + radius - 0.5)))
    return c_lo, c_hi, r_lo, r_hi


def _nearest_valid(x, y, valid):
    height, width = valid.shape
    cols = np.arange(width, dtype=np.float64) + 0.5 - x
    rows = np.arange(height, dtype=np.float64) + 0.5 - y
    d2 = rows[:, None] ** 2 + cols[None, :] ** 2
    d2 = np.where(valid != 0, d2, np.inf)
    flat = int(np.argmin(d2))
    if not np.isfinite(d2.flat[flat]):
        raise ConfigError("density support mask has no valid pixels")
    return flat // width, flat % width


def _deposit_gaussians(field, xs, ys, sigmas, trunc, valid):
    """Accumulate one exactly-unit-mass truncated Gaussian per head.

    Head i's support reaches ``trunc * sigmas[i]`` from its center. The
    residual goes to the support pixel nearest the head, the first in
    row-major order on a tie. When the head's own pixel is in the support,
    that pixel is at most 0.5**0.5 px away and every pixel outside the 3x3
    block around it at least 1.5 px, so the block alone is searched.
    """
    height, width = field.shape
    for x, y, sig in zip(xs.tolist(), ys.tolist(), sigmas.tolist()):
        radius = trunc * sig
        r2 = radius * radius
        inv2s = 1.0 / (2.0 * sig * sig)
        c_lo, c_hi, r_lo, r_hi = _window_bounds(x, y, radius, width, height)
        dx = np.arange(c_lo + 0.5, c_hi + 1) - x  # pixel centers are exact
        dy = np.arange(r_lo + 0.5, r_hi + 1) - y
        d2 = np.add.outer(dy * dy, dx * dx)
        ok = d2 <= r2
        np.logical_and(ok, valid[r_lo : r_hi + 1, c_lo : c_hi + 1], out=ok)
        row, col = int(y) - r_lo, int(x) - c_lo  # the head's own pixel
        own = 0 <= row < ok.shape[0] and 0 <= col < ok.shape[1] and bool(ok[row, col])
        if not (own or ok.any()):
            br, bc = _nearest_valid(x, y, valid)
            field[br, bc] += 1.0
            continue
        # Outside the support d2 becomes inf, so exp gives the 0 weight there
        # and argmin never picks it. The weights are quantized in place.
        np.copyto(d2, np.inf, where=~ok)
        w = np.multiply(d2, -inv2s)
        np.exp(w, out=w)
        w /= float(w.sum())
        w *= MASS_SCALE
        w += 0.5
        np.floor(w, out=w)
        total = int(w.sum())
        top, left = (max(row - 1, 0), max(col - 1, 0)) if own else (0, 0)
        near = d2[top : row + 2, left : col + 2] if own else d2
        nr, nc = divmod(int(np.argmin(near)), near.shape[1])
        w *= MASS_QUANTUM
        field[r_lo : r_hi + 1, c_lo : c_hi + 1] += w
        field[r_lo + top + nr, c_lo + left + nc] += (MASS_SCALE_INT - total) * MASS_QUANTUM


def rasterize_density(
    heads: np.ndarray,
    sigmas: np.ndarray,
    shape: GridShape,
    support_mask: np.ndarray | None = None,
    truncation_radius: float = DEFAULT_TRUNCATION_RADIUS,
) -> DensityField:
    """Sum of per-head truncated Gaussians, each renormalized to unit mass.

    Head i gets standard deviation ``sigmas[i]`` and support out to
    ``truncation_radius * sigmas[i]``. ``support_mask`` restricts every
    kernel's support to the True pixels (the image border is always such a
    restriction); renormalization then keeps each head's mass at exactly
    1.0 inside the masked region.
    """
    truncation_radius = check_number(truncation_radius, "truncation radius", 1.0)
    pts = check_heads(heads)
    sigmas = np.asarray(sigmas, dtype=np.float64)
    if sigmas.shape != (pts.shape[0],):
        raise ConfigError(f"{pts.shape[0]} heads but sigmas of shape {sigmas.shape}")
    height, width = shape.array_shape
    if pts.shape[0] == 0:
        return DensityField.zeros(shape)
    if not np.all((sigmas > 0.0) & (sigmas < np.inf)):
        raise ConfigError("sigmas must be positive and finite")
    if not np.all((pts >= 0.0) & (pts < (width, height))):
        raise ConfigError("head positions must lie inside the grid")
    field = np.zeros((height, width), dtype=np.float64)
    if support_mask is None:
        valid = np.ones((height, width), dtype=bool)
    else:
        valid = np.ascontiguousarray(support_mask, dtype=bool)
        if valid.shape != (height, width):
            raise ConfigError("support mask does not match the grid shape")
    _deposit_gaussians(field, pts[:, 0], pts[:, 1], sigmas, truncation_radius, valid)
    field.flags.writeable = False
    return DensityField(shape, field)


def integrate(field: DensityField, mask: RegionMask) -> float:
    """Sum of density values over the far region; the frame's is ``field.total_mass``.

    Far pixels are gathered row-major, as ``values[mask.far]`` gives them, and
    widened after the gather; ``sum(dtype=np.float64)`` would sum in another order.
    """
    if field.shape != mask.shape:
        raise DigCrowdError(
            f"density grid {field.shape} does not match mask grid {mask.shape}"
        )
    rows = mask.far_rows
    lo, hi = int(rows.min()), int(rows.max())
    band = field.values[lo:hi][np.arange(lo, hi)[:, None] < rows]
    return float(np.concatenate([field.values[:lo].reshape(-1), band], dtype=np.float64).sum())


def far_count_from_external(field: DensityField, mask: RegionMask) -> float:
    """Integrate a predicted density field over the far region of a scene."""
    return integrate(field, mask)
