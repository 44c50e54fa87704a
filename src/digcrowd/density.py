"""Geometry-adaptive density fields and region-masked integration.

Each head contributes a truncated Gaussian whose standard deviation scales
with the mean distance to its k nearest neighbor heads (sigma = beta * mean
distance), so kernels shrink where the crowd is tight. Kernels are
renormalized over their surviving support -- truncation window, image
border, optional region mask -- so every person carries unit mass and
integrals count people.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.spatial import cKDTree

from . import _kernels
from .errors import ConfigError, DigCrowdError, FormatError
from .scene import GridShape, Region, RegionMask, _frozen, check_heads

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
        vals = np.asarray(self.values)
        if vals.dtype != np.float32:
            vals = vals.astype(np.float64, copy=False)
        if vals.shape != self.shape.array_shape:
            raise ConfigError(
                f"density grid {vals.shape} does not match {self.shape.array_shape}"
            )
        lo, hi = vals.min(), vals.max()  # a NaN propagates to both
        if not (lo >= 0.0 and hi < np.inf):
            if not np.isfinite(vals).all():
                raise ConfigError("density values must be finite")
            raise ConfigError("density values must be non-negative")
        object.__setattr__(self, "values", _frozen(vals, self.values))

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
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    pts = check_heads(heads)
    n = pts.shape[0]
    if n == 0:
        raise ConfigError("cannot compute neighbor distances of an empty head list")
    m = min(k, n - 1)
    if m == 0:
        return np.full(1, np.nan)
    dists, _ = cKDTree(pts).query(pts, k=m + 1)
    return np.atleast_2d(dists)[:, 1:].mean(axis=1)


def adaptive_sigma(
    means: np.ndarray, beta: float, sigma_floor: float = DEFAULT_SIGMA_FLOOR
) -> np.ndarray:
    """sigma = beta * mean neighbor distance, floored at sigma_floor.

    A mean that is not finite (a lone head) gets the floor.
    """
    if not (beta > 0.0):
        raise ConfigError(f"beta must be positive, got {beta}")
    if not (sigma_floor > 0.0):
        raise ConfigError(f"sigma floor must be positive, got {sigma_floor}")
    means = np.asarray(means, dtype=np.float64)
    return np.where(np.isfinite(means), np.maximum(beta * means, sigma_floor), sigma_floor)


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
    pts = check_heads(heads)
    sigmas = np.asarray(sigmas, dtype=np.float64)
    if sigmas.shape != (pts.shape[0],):
        raise ConfigError(f"{pts.shape[0]} heads but sigmas of shape {sigmas.shape}")
    height, width = shape.array_shape
    if pts.shape[0] == 0:
        return DensityField.zeros(shape)
    if not np.all((sigmas > 0.0) & (sigmas < np.inf)):
        raise ConfigError("sigmas must be positive and finite")
    if not (truncation_radius >= 1.0):
        raise ConfigError(f"truncation radius must be >= 1, got {truncation_radius}")
    if not np.all((pts >= 0.0) & (pts < (width, height))):
        raise ConfigError("head positions must lie inside the grid")
    field = np.zeros((height, width), dtype=np.float64)
    if support_mask is None:
        valid = np.ones((height, width), dtype=np.uint8)
    else:
        valid = np.ascontiguousarray(np.asarray(support_mask, dtype=bool).astype(np.uint8))
        if valid.shape != (height, width):
            raise ConfigError("support mask does not match the grid shape")
    try:
        _kernels.deposit_gaussians(
            field,
            np.ascontiguousarray(pts[:, 0]),
            np.ascontiguousarray(pts[:, 1]),
            sigmas,
            float(truncation_radius),
            valid,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    field.flags.writeable = False
    return DensityField(shape, field)


def integrate(field: DensityField, mask: RegionMask, region: Region | str) -> float:
    """Sum of density values over the pixels labeled with ``region``."""
    if isinstance(region, str):
        region = Region(region.lower())
    if field.shape != mask.shape:
        raise DigCrowdError(
            f"density grid {field.shape} does not match mask grid {mask.shape}"
        )
    if region is Region.ALL:
        return field.total_mass
    # Widening after the gather sums the same float64 array as widening the
    # whole field first; sum(dtype=np.float64) would sum in another order.
    picked = field.values[mask.region_pixels(region)]
    return float(picked.astype(np.float64, copy=False).sum())


def far_count_from_external(field: DensityField, mask: RegionMask) -> float:
    """Integrate a predicted density field over the far region of a scene."""
    if field.shape != mask.shape:
        raise FormatError(
            f"density file grid {field.shape} does not match scene grid {mask.shape}"
        )
    return integrate(field, mask, Region.FAR)
