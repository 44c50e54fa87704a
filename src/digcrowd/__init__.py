"""digcrowd: depth-guided crowd counting.

Scenes are split into a near-view and a far-view region along a depth-derived
polyline; near-view people are counted from decoded detections filtered by
the spatial constraint, far-view people by integrating a geometry-adaptive
Gaussian density field, and the two counts are fused and scored with
MAE/MSE. Trained networks are replaced by synthetic scenes and oracle
predictors so the whole pipeline verifies at desk scale.
"""

from .density import (
    DensityField,
    adaptive_sigma,
    far_count_from_external,
    integrate,
    knn_mean_distance,
    rasterize_density,
)
from .detect import (
    DetectionSet,
    DetectorGridSpec,
    GridPrediction,
    decode,
    iou,
    nms,
)
from .errors import (
    ConfigError,
    DigCrowdError,
    FormatError,
    PartitionError,
    PolylineDomainError,
    SynthError,
)
from .metrics import EvaluationRecord, SceneEstimate, evaluate_pairs, fuse, mae, mse
from .partition import (
    ClusterState,
    PartitionResult,
    classify_clusters,
    cluster_depth,
    extract_polyline,
    partition,
)
from .pipeline import TOOL_VERSION as __version__
from .pipeline import (
    Manifest,
    ManifestEntry,
    PipelineParams,
    RunReport,
    SceneOutcome,
    bench_generate,
    load_manifest,
    run_dataset,
    run_record,
    run_scene,
)
from .scene import (
    DepthMap,
    GridShape,
    Polyline,
    RegionMask,
    SceneConfig,
    SceneRecord,
    mask_from_polyline,
)
from .spatial import FilterReport, apply_spatial_constraint
from .synth import (
    NoiseSpec,
    OraclePredictions,
    SynthSpec,
    generate_scene,
    generate_step_depth,
    oracle_predictions,
)
