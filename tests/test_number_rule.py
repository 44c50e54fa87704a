"""One number rule for every numeric field, checked as one table.

Float fields go through ``scene.check_number`` and integer fields through
``scene.check_integer``. Each field refuses bools, strings and None with the
rule's wording, takes numpy scalars and stores the Python type, and refuses
NaN and infinity wherever it has a bound. The numeric arguments of the
library's functions follow the same rule (``ARGUMENT_CASES``).
"""

import math
import re
from typing import Callable, NamedTuple

import numpy as np
import pytest

from digcrowd import ConfigError, DepthMap, DetectionSet, GridShape, SceneConfig, SceneRecord
from digcrowd.density import adaptive_sigma, knn_mean_distance, rasterize_density
from digcrowd.detect import DetectorGridSpec
from digcrowd.metrics import SceneEstimate, fuse
from digcrowd.partition import classify_clusters, cluster_depth, partition
from digcrowd.pipeline import PipelineParams
from digcrowd.synth import NoiseSpec, SynthSpec, generate_step_depth

_RAMP = DepthMap(GridShape(8, 6), np.linspace(0.0, 1.0, 48).reshape(6, 8))
_STATE = cluster_depth(_RAMP, 4)
_DEPTH = DepthMap(GridShape(2, 2), np.zeros((2, 2)))
_HEADS = np.array([[1.0, 1.0], [3.0, 2.0], [5.0, 4.0]])


class Field(NamedTuple):
    build: Callable  # the value -> the object that holds it
    attribute: str
    what: str  # the field's name in messages
    valid: float  # integral, so that every numpy kind below holds it exactly
    bounded: bool = True  # NaN and infinity are refused


FLOAT_FIELDS = {
    "SynthSpec.horizon_y": Field(lambda v: SynthSpec(horizon_y=v), "horizon_y", "horizon_y", 600.0),
    "SynthSpec.near_head_size": Field(lambda v: SynthSpec(near_head_size=v), "near_head_size",
                                      "near_head_size", 36.0),
    "SynthSpec.far_head_size": Field(lambda v: SynthSpec(far_head_size=v), "far_head_size",
                                     "far_head_size", 10.0),
    "SynthSpec.clustering_intensity": Field(lambda v: SynthSpec(clustering_intensity=v),
                                            "clustering_intensity", "clustering_intensity", 1.0),
    "SynthSpec.exclusion_margin": Field(lambda v: SynthSpec(exclusion_margin=v),
                                        "exclusion_margin", "exclusion_margin", 2.0),
    "NoiseSpec.p_miss": Field(lambda v: NoiseSpec(p_miss=v), "p_miss", "p_miss", 1.0),
    "NoiseSpec.fp_rate": Field(lambda v: NoiseSpec(fp_rate=v), "fp_rate", "fp_rate", 3.0),
    "NoiseSpec.box_jitter": Field(lambda v: NoiseSpec(box_jitter=v), "box_jitter",
                                  "box_jitter", 1.0),
    "NoiseSpec.density_noise_sigma": Field(lambda v: NoiseSpec(density_noise_sigma=v),
                                           "density_noise_sigma", "density_noise_sigma", 1.0),
    "PipelineParams.score_threshold": Field(lambda v: PipelineParams(score_threshold=v),
                                            "score_threshold", "score threshold", 1.0),
    "PipelineParams.nms_iou": Field(lambda v: PipelineParams(nms_iou=v), "nms_iou",
                                    "NMS IoU threshold", 1.0),
    "SceneConfig.depth_threshold": Field(lambda v: SceneConfig("s", depth_threshold=v),
                                         "depth_threshold", "depth threshold", 1.0),
    "classify_clusters.threshold": Field(lambda v: classify_clusters(_STATE, v), "threshold",
                                         "depth threshold", 1.0),
    "SceneRecord.ground_truth_count": Field(
        lambda v: SceneRecord(SceneConfig("s"), _DEPTH, ground_truth_count=v),
        "ground_truth_count", "count", 3.0),
    "SceneEstimate.far_count": Field(lambda v: SceneEstimate("s", 2, v), "far_count",
                                     "far count", 2.0),
    "fuse.far_count": Field(lambda v: fuse(DetectionSet(), v), "far_count", "far count", 2.0),
    # NaN stands for a scene without annotations
    "SceneEstimate.ground_truth": Field(lambda v: SceneEstimate("s", 2, 2.5, v), "ground_truth",
                                        "ground truth", 7.0, bounded=False),
    "fuse.ground_truth": Field(lambda v: fuse(DetectionSet(), 2.5, "s", v), "ground_truth",
                               "ground truth", 7.0, bounded=False),
}

INTEGER_FIELDS = {
    "SynthSpec.n_people": Field(lambda v: SynthSpec(n_people=v), "n_people", "n_people", 117),
    "SynthSpec.seed": Field(lambda v: SynthSpec(seed=v), "seed", "seed", 3),
    "PipelineParams.workers": Field(lambda v: PipelineParams(workers=v), "workers", "workers", 2),
    "SceneEstimate.near_count": Field(lambda v: SceneEstimate("s", v, 2.5), "near_count",
                                      "near count", 2),
    "GridShape.width": Field(lambda v: GridShape(v, 3), "width", "grid width", 4),
    "GridShape.height": Field(lambda v: GridShape(4, v), "height", "grid height", 3),
    "DetectorGridSpec.s": Field(lambda v: DetectorGridSpec(v, 2, 1), "s", "grid spec s", 7),
    "DetectorGridSpec.b": Field(lambda v: DetectorGridSpec(7, v, 1), "b", "grid spec b", 2),
    "DetectorGridSpec.c": Field(lambda v: DetectorGridSpec(7, 2, v), "c", "grid spec c", 1),
}

NOT_NUMBERS = [True, False, "0.5", None]


def _cases(fields, values, where=lambda field, value: True):
    return [pytest.param(field, value, id=f"{name}-{value!r}")
            for name, field in fields.items() for value in values if where(field, value)]


@pytest.mark.parametrize(
    "field, value",
    # None asks SceneConfig and classify_clusters for the automatic threshold
    _cases(FLOAT_FIELDS, NOT_NUMBERS,
           lambda field, value: value is not None or field.what != "depth threshold"),
)
def test_float_field_refuses_non_numbers(field, value):
    wording = f"^{re.escape(f'{field.what} must be a number, got {value!r}')}$"
    with pytest.raises(ConfigError, match=wording):
        field.build(value)


@pytest.mark.parametrize("field, value", _cases(INTEGER_FIELDS, NOT_NUMBERS + [2.7, 3.0]))
def test_integer_field_refuses_non_integers(field, value):
    got = re.escape(repr(value))
    wording = rf"^{re.escape(field.what)} must be an integer( >= \d+)?, got {got}$"
    with pytest.raises(ConfigError, match=wording):
        field.build(value)


@pytest.mark.parametrize("field", FLOAT_FIELDS.values(), ids=FLOAT_FIELDS)
@pytest.mark.parametrize("kind", [np.float32, np.float64, np.int64, int])
def test_float_field_takes_numpy_and_stores_float(field, kind):
    stored = getattr(field.build(kind(field.valid)), field.attribute)
    assert type(stored) is float and stored == field.valid


@pytest.mark.parametrize("field", INTEGER_FIELDS.values(), ids=INTEGER_FIELDS)
def test_integer_field_takes_numpy_and_stores_int(field):
    stored = getattr(field.build(np.int64(field.valid)), field.attribute)
    assert type(stored) is int and stored == field.valid


@pytest.mark.parametrize(
    "field, value",
    _cases(FLOAT_FIELDS, [math.nan, math.inf, -math.inf, np.float32("nan"), np.float64("inf")],
           lambda field, value: field.bounded),
)
def test_bounded_float_field_refuses_nan_and_inf(field, value):
    with pytest.raises(ConfigError):
        field.build(value)


def test_unbounded_ground_truth_keeps_nan():
    assert math.isnan(fuse(DetectionSet(), 2.5).ground_truth)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: GridShape(3, 2**32), "grid shape sides must be below 2**32, got 3x4294967296"),
        (lambda: SceneConfig("s", depth_threshold=1.5), "depth threshold 1.5 outside [0, 1]"),
        (lambda: PipelineParams(score_threshold=-3), "score threshold -3 outside [0, 1]"),
        (lambda: PipelineParams(nms_iou=0.0), "NMS IoU threshold 0.0 outside (0, 1]"),
        (lambda: SynthSpec(clustering_intensity=-1),
         "clustering_intensity -1 must be finite and >= 0"),
        (lambda: fuse(DetectionSet(), np.float32(-0.5)), "far count -0.5 must be finite and >= 0"),
    ],
    ids=["grid-shape-too-large", "depth-threshold", "score-threshold", "nms-iou-zero",
         "clustering-intensity", "far-count"],
)
def test_range_messages(build, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        build()


ARGUMENT_CASES = {
    "cluster_depth-compactness-inf": (lambda: cluster_depth(_RAMP, 4, compactness=math.inf),
                                      "compactness inf must be finite and >= 0"),
    "cluster_depth-compactness-zero": (lambda: cluster_depth(_RAMP, 4, compactness=0),
                                       "compactness 0 must be finite and > 0"),
    "cluster_depth-max_iters-bool": (lambda: cluster_depth(_RAMP, 4, max_iters=True),
                                     "max_iters must be an integer >= 0, got True"),
    "cluster_depth-max_iters-float": (lambda: cluster_depth(_RAMP, 4, max_iters=2.5),
                                      "max_iters must be an integer >= 0, got 2.5"),
    "cluster_depth-target-float": (lambda: cluster_depth(_RAMP, 4.5),
                                   "target cluster count must be an integer, got 4.5"),
    "cluster_depth-target-numpy-float": (
        lambda: cluster_depth(_RAMP, np.float64(4.0)),
        f"target cluster count must be an integer, got {np.float64(4.0)!r}"),
    "partition-target-float": (
        lambda: partition(_RAMP, SceneConfig("s"), target_cluster_count=4.5),
        "target cluster count must be an integer, got 4.5"),
    "partition-target-numpy-float": (
        lambda: partition(_RAMP, SceneConfig("s"), target_cluster_count=np.float64(4.0)),
        f"target cluster count must be an integer, got {np.float64(4.0)!r}"),
    "knn_mean_distance-k-float": (lambda: knn_mean_distance(_HEADS, 1.5),
                                  "k must be an integer >= 1, got 1.5"),
    "knn_mean_distance-k-bool": (lambda: knn_mean_distance(_HEADS, True),
                                 "k must be an integer >= 1, got True"),
    "adaptive_sigma-beta-inf": (lambda: adaptive_sigma(np.ones(3), math.inf),
                                "beta inf must be finite and >= 0"),
    "adaptive_sigma-sigma_floor-inf": (lambda: adaptive_sigma(np.ones(3), 0.3, math.inf),
                                       "sigma floor inf must be finite and >= 0"),
    "adaptive_sigma-beta-zero": (lambda: adaptive_sigma(np.ones(3), 0.0),
                                 "beta 0.0 must be finite and > 0"),
    "rasterize_density-truncation_radius-inf": (
        lambda: rasterize_density(_HEADS, np.ones(3), GridShape(8, 6),
                                  truncation_radius=math.inf),
        "truncation radius inf must be finite and >= 1"),
    "generate_step_depth-boundary_row-float": (
        lambda: generate_step_depth(GridShape(8, 6), 2.5),
        "boundary row must be an integer, got 2.5"),
    "generate_step_depth-ripple-nan": (
        lambda: generate_step_depth(GridShape(8, 6), 2, ripple=math.nan),
        "ripple nan must be finite and >= 0"),
}


@pytest.mark.parametrize("build, message", ARGUMENT_CASES.values(), ids=ARGUMENT_CASES)
def test_function_arguments_follow_the_rule(build, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        build()
