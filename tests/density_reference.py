"""Per-head kernel-width path kept as a reference oracle for the array path.

``sigmas_reference`` computes every head's sigma the way the per-head code
did before heads became one (N, 2) array: one mean per head over its own row
of neighbor distances, then ``max(beta * mean, floor)`` in Python floats, with
the floor for a head that has no neighbors or a non-finite mean.
``knn_mean_distance`` + ``adaptive_sigma`` must match it bit for bit.
"""

import math

import numpy as np
from scipy.spatial import cKDTree


def sigmas_reference(heads, k, beta, sigma_floor=1.0):
    pts = np.asarray(heads, dtype=np.float64).reshape(-1, 2)
    n = pts.shape[0]
    m = min(k, n - 1)
    if m == 0:
        means = [math.nan]
    else:
        dists, _ = cKDTree(pts).query(pts, k=m + 1)
        dists = np.atleast_2d(dists)[:, 1:]
        means = [float(dists[i].mean()) for i in range(n)]
    sigmas = []
    for mean in means:
        if m > 0 and math.isfinite(mean):
            sigmas.append(max(beta * mean, sigma_floor))
        else:
            sigmas.append(sigma_floor)
    return np.array(sigmas, dtype=np.float64)
