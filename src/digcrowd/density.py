"""Geometry-adaptive density fields and region-masked integration.

Each head contributes a truncated Gaussian whose standard deviation scales
with the mean distance to its k nearest neighbor heads (sigma = beta * mean
distance), so kernels shrink where the crowd is tight. Kernels are
renormalized over their surviving support -- truncation window, image
border, optional region mask -- so every person carries unit mass and
integrals count people.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np
from scipy.spatial import cKDTree

from . import _kernels
from .errors import ConfigError, DigCrowdError, FormatError
from .scene import GridShape, HeadPoint, Region, RegionMask, as_xy_array

__all__ = [
    "NeighborStats",
    "KernelParams",
    "DensityField",
    "knn_mean_distance",
    "adaptive_sigma",
    "rasterize_density",
    "integrate",
    "far_count_from_external",
]

DEFAULT_SIGMA_FLOOR = 1.0
DEFAULT_TRUNCATION_RADIUS = 3.0


@dataclass(frozen=True, eq=False)
class NeighborStats:
    """Distances from one head to its nearest neighbors.

    ``mean`` is NaN for a lone head (no neighbors exist); the sigma floor
    takes over downstream.
    """

    distances: np.ndarray
    mean: float
    k_used: int

    def __post_init__(self):
        arr = np.ascontiguousarray(np.asarray(self.distances, dtype=np.float64))
        arr.flags.writeable = False
        object.__setattr__(self, "distances", arr)

    @property
    def is_defined(self) -> bool:
        return self.k_used > 0 and math.isfinite(self.mean)


@dataclass(frozen=True)
class KernelParams:
    """Per-head Gaussian: sigma in pixels, truncation in multiples of sigma."""

    sigma: float
    beta: float
    truncation_radius: float = DEFAULT_TRUNCATION_RADIUS

    def __post_init__(self):
        if not (self.sigma > 0.0 and math.isfinite(self.sigma)):
            raise ConfigError(f"sigma must be positive and finite, got {self.sigma}")
        if not (self.beta > 0.0):
            raise ConfigError(f"beta must be positive, got {self.beta}")
        if not (self.truncation_radius >= 1.0):
            raise ConfigError(
                f"truncation radius must be >= 1, got {self.truncation_radius}"
            )


@dataclass(frozen=True, eq=False)
class DensityField:
    """Non-negative per-pixel density; the integral over a region is a count."""

    shape: GridShape
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.shape != self.shape.array_shape:
            raise ConfigError(
                f"density grid {vals.shape} does not match {self.shape.array_shape}"
            )
        if not np.all(np.isfinite(vals)):
            raise ConfigError("density values must be finite")
        if vals.size and vals.min() < 0.0:
            raise ConfigError("density values must be non-negative")
        vals = np.ascontiguousarray(vals)
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    @cached_property
    def total_mass(self) -> float:
        return float(self.values.sum())

    @classmethod
    def zeros(cls, shape: GridShape) -> "DensityField":
        return cls(shape, np.zeros(shape.array_shape, dtype=np.float64))


def knn_mean_distance(
    heads: Iterable[HeadPoint] | np.ndarray, k: int
) -> list[NeighborStats]:
    """Per-head mean Euclidean distance to its m = min(k, n-1) nearest heads."""
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    pts = as_xy_array(heads)
    n = pts.shape[0]
    if n == 0:
        raise ConfigError("cannot compute neighbor distances of an empty head list")
    m = min(k, n - 1)
    if m == 0:
        return [NeighborStats(np.empty(0), float("nan"), 0)]
    dists, _ = cKDTree(pts).query(pts, k=m + 1)
    dists = np.atleast_2d(dists)[:, 1:]
    return [
        NeighborStats(dists[i], float(dists[i].mean()), m) for i in range(n)
    ]


def adaptive_sigma(
    stats: NeighborStats,
    beta: float,
    sigma_floor: float = DEFAULT_SIGMA_FLOOR,
    truncation_radius: float = DEFAULT_TRUNCATION_RADIUS,
) -> KernelParams:
    """sigma = beta * mean neighbor distance, floored at sigma_floor."""
    if not (beta > 0.0):
        raise ConfigError(f"beta must be positive, got {beta}")
    if not (sigma_floor > 0.0):
        raise ConfigError(f"sigma floor must be positive, got {sigma_floor}")
    if stats.is_defined:
        sigma = max(beta * stats.mean, sigma_floor)
    else:
        sigma = sigma_floor
    return KernelParams(sigma=sigma, beta=beta, truncation_radius=truncation_radius)


def rasterize_density(
    heads: Iterable[HeadPoint] | np.ndarray,
    params: Sequence[KernelParams],
    shape: GridShape,
    support_mask: np.ndarray | None = None,
) -> DensityField:
    """Sum of per-head truncated Gaussians, each renormalized to unit mass.

    ``support_mask`` restricts every kernel's support to the True pixels
    (the image border is always such a restriction); renormalization then
    keeps each head's mass at exactly 1.0 inside the masked region.
    """
    pts = as_xy_array(heads)
    params = list(params)
    if pts.shape[0] != len(params):
        raise ConfigError(
            f"{pts.shape[0]} heads but {len(params)} kernel parameter sets"
        )
    height, width = shape.array_shape
    field = np.zeros((height, width), dtype=np.float64)
    if pts.shape[0] == 0:
        return DensityField(shape, field)
    if pts.size and (
        pts[:, 0].min() < 0.0
        or pts[:, 0].max() >= width
        or pts[:, 1].min() < 0.0
        or pts[:, 1].max() >= height
    ):
        raise ConfigError("head positions must lie inside the grid")
    if support_mask is None:
        valid = np.ones((height, width), dtype=np.uint8)
    else:
        valid = np.ascontiguousarray(np.asarray(support_mask, dtype=bool).astype(np.uint8))
        if valid.shape != (height, width):
            raise ConfigError("support mask does not match the grid shape")
    sigmas = np.array([p.sigma for p in params], dtype=np.float64)
    truncs = np.array([p.truncation_radius for p in params], dtype=np.float64)
    try:
        _kernels.deposit_gaussians(
            field,
            np.ascontiguousarray(pts[:, 0]),
            np.ascontiguousarray(pts[:, 1]),
            sigmas,
            truncs,
            valid,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
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
    return float(field.values[mask.region_pixels(region)].sum())


def far_count_from_external(field: DensityField, mask: RegionMask) -> float:
    """Integrate a predicted density field over the far region of a scene."""
    if field.shape != mask.shape:
        raise FormatError(
            f"density file grid {field.shape} does not match scene grid {mask.shape}"
        )
    return integrate(field, mask, Region.FAR)
