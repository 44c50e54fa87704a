"""File formats consumed and emitted by the pipeline.

Binary formats (all little-endian, payload row-major float32):

==========  ==========================================================
depth       magic ``DIGD`` + u32 width + u32 height + u32 reserved
            (16-byte header), then width*height floats in [0, 1];
            16-bit grayscale PGM (P5, maxval 65535) also accepted
tensor      magic ``DIGY`` + u32 S + u32 B + u32 C + u32 width +
            u32 height (24-byte header), then S*S*(B*5+C) floats,
            cell-major with the B box tuples before class probs
density     magic ``DIGF`` + u32 width + u32 height + u64 reserved
            (20-byte header), then width*height floats
==========  ==========================================================

Text formats: detection lists (one ``x_min y_min x_max y_max score`` per
line), annotation / scene-config / manifest JSON.

DIGD and DIGF files are mapped read-only (``mmap``) rather than copied, and
their payloads stay float32 in memory: a depth map or density field read
from one is a read-only view of the mapping. A mapped input must therefore
not be rewritten or truncated while it is in use; reading a page that a
truncation removed raises SIGBUS, which kills the process and which no
per-scene error handler can catch. A 16-bit PGM depth map is widened to a
float64 copy and a DIGY tensor (86 KB at S=32) is read into memory, so
neither stays mapped. The batch loops
(``pipeline.run_dataset`` and ``bench_generate``) pin glibc's
``M_MMAP_THRESHOLD`` at 16 MB and ``M_TRIM_THRESHOLD`` at 32 MB, so the
few-MB arrays a scene frees stay on the heap for the next scene instead
of being trimmed and faulted in again.
"""

from __future__ import annotations

import json
import math
import mmap
import os
import struct
from pathlib import Path

import numpy as np

from .density import DensityField
from .detect import DetectorGridSpec, GridPrediction, DetectionSet, first_invalid_row
from .errors import ConfigError, FormatError
from .scene import (
    DepthMap,
    GridShape,
    Polyline,
    SceneConfig,
    check_heads,
    check_scene_id,
)

__all__ = [
    "read_depth",
    "read_depth_digd",
    "write_depth_digd",
    "read_depth_pgm16",
    "write_depth_pgm16",
    "read_prediction_tensor",
    "write_prediction_tensor",
    "read_density_field",
    "write_density_field",
    "read_detections_text",
    "write_detections_text",
    "read_annotations",
    "write_annotations",
    "read_scene_config",
    "write_scene_config",
    "polyline_to_json",
    "polyline_from_json",
    "write_pgm8",
    "heatmap_u8",
]

DIGD_MAGIC = b"DIGD"
DIGY_MAGIC = b"DIGY"
DIGF_MAGIC = b"DIGF"


def _read_bytes(path) -> bytes:
    return Path(path).read_bytes()


def _map_file(path) -> mmap.mmap | bytes:
    """The file's contents as a read-only memory map; an empty file gives ``b""``.

    Arrays viewing the map keep it alive; it is unmapped once the last one
    is gone.
    """
    with open(path, "rb") as fh:
        if os.fstat(fh.fileno()).st_size == 0:  # mmap refuses empty files
            return b""
        return mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)


def _payload_f32(data, offset: int, count: int, path) -> np.ndarray:
    """The float32 payload as a read-only view of ``data``."""
    expected = offset + 4 * count
    if len(data) != expected:
        raise FormatError(
            f"{path}: payload is {len(data) - offset} bytes, expected {4 * count}"
        )
    return np.frombuffer(data, dtype="<f4", offset=offset)


def _header_shape(width: int, height: int, path) -> GridShape:
    """The grid a raster header declares; one below 1x1 is a ``FormatError``."""
    try:
        return GridShape(width, height)
    except ConfigError as exc:
        raise FormatError(f"{path}: {exc}") from exc


# -- depth ------------------------------------------------------------------

def write_depth_digd(path, depth: DepthMap) -> None:
    header = struct.pack("<4sIII", DIGD_MAGIC, depth.shape.width, depth.shape.height, 0)
    Path(path).write_bytes(header + depth.values.astype("<f4").tobytes())


def _depth_digd(data, path) -> DepthMap:
    if len(data) < 16 or data[:4] != DIGD_MAGIC:
        raise FormatError(f"{path}: not a DIGD depth file")
    _, width, height, _ = struct.unpack("<4sIII", data[:16])
    shape = _header_shape(width, height, path)
    values = _payload_f32(data, 16, shape.pixel_count, path)
    try:
        return DepthMap(shape, values.reshape(height, width))
    except ConfigError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def read_depth_digd(path) -> DepthMap:
    return _depth_digd(_map_file(path), path)


def write_depth_pgm16(path, depth: DepthMap) -> None:
    # widen first: a float32 product with 65535.0 rounds differently
    quantized = np.round(depth.values.astype(np.float64, copy=False) * 65535.0).astype(">u2")
    header = f"P5\n{depth.shape.width} {depth.shape.height}\n65535\n".encode()
    Path(path).write_bytes(header + quantized.tobytes())


def _depth_pgm16(data, path) -> DepthMap:
    if data[:2] != b"P5":
        raise FormatError(f"{path}: not a binary PGM file")
    fields: list[bytes] = []
    pos = 2
    while len(fields) < 3 and pos < len(data):
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if data[pos : pos + 1] == b"#":  # comment line
            while pos < len(data) and data[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        fields.append(data[start:pos])
    if len(fields) < 3:
        raise FormatError(f"{path}: truncated PGM header")
    try:
        width, height, maxval = (int(f) for f in fields)
    except ValueError as exc:
        raise FormatError(f"{path}: bad PGM header: {exc}") from exc
    pos += 1  # single whitespace after maxval
    if maxval != 65535:
        raise FormatError(f"{path}: expected 16-bit PGM (maxval 65535), got {maxval}")
    shape = _header_shape(width, height, path)
    if len(data) - pos != 2 * shape.pixel_count:
        raise FormatError(f"{path}: PGM payload size mismatch")
    raw = np.frombuffer(data, dtype=">u2", offset=pos)
    values = raw.reshape(height, width).astype(np.float64) / 65535.0
    values.flags.writeable = False
    return DepthMap(shape, values)


def read_depth_pgm16(path) -> DepthMap:
    return _depth_pgm16(_read_bytes(path), path)


def read_depth(path) -> DepthMap:
    """Load depth from a DIGD or 16-bit PGM file (sniffed by magic)."""
    data = _map_file(path)
    if data[:4] == DIGD_MAGIC:
        return _depth_digd(data, path)
    if data[:2] == b"P5":
        return _depth_pgm16(data, path)
    raise FormatError(f"{path}: unrecognized depth format (expect DIGD or P5)")


# -- prediction tensor ------------------------------------------------------

def write_prediction_tensor(path, pred: GridPrediction) -> None:
    header = struct.pack(
        "<4sIIIII",
        DIGY_MAGIC,
        pred.spec.s,
        pred.spec.b,
        pred.spec.c,
        pred.shape.width,
        pred.shape.height,
    )
    Path(path).write_bytes(header + pred.values.astype("<f4").tobytes())


def read_prediction_tensor(path) -> GridPrediction:
    data = _read_bytes(path)
    if len(data) < 24 or data[:4] != DIGY_MAGIC:
        raise FormatError(f"{path}: not a DIGY prediction tensor")
    _, s, b, c, width, height = struct.unpack("<4sIIIII", data[:24])
    try:
        spec = DetectorGridSpec(s, b, c)
        shape = GridShape(width, height)
    except ConfigError as exc:
        raise FormatError(f"{path}: {exc}") from exc
    values = _payload_f32(data, 24, s * s * spec.cell_values, path)
    return GridPrediction.from_flat(spec, shape, values)


# -- density field ----------------------------------------------------------

def write_density_field(path, field: DensityField) -> None:
    header = struct.pack(
        "<4sIIQ", DIGF_MAGIC, field.shape.width, field.shape.height, 0
    )
    Path(path).write_bytes(header + field.values.astype("<f4").tobytes())


def read_density_field(path) -> DensityField:
    """The payload as a read-only float32 view; copied only to clamp negatives."""
    data = _map_file(path)
    if len(data) < 20 or data[:4] != DIGF_MAGIC:
        raise FormatError(f"{path}: not a DIGF density file")
    _, width, height, _ = struct.unpack("<4sIIQ", data[:20])
    shape = _header_shape(width, height, path)
    values = _payload_f32(data, 20, shape.pixel_count, path).reshape(height, width)
    warnings = ()
    if values.min() < 0.0:  # False when a NaN is present: DensityField rejects it
        # external predictors sometimes emit slightly negative densities;
        # -inf is no such value and is left for DensityField to reject
        values = values.copy()
        negative = (values < 0.0) & (values > -np.inf)
        warnings = (f"{path}: clamped {int(negative.sum())} negative density values to 0",)
        values[negative] = 0.0
        values.flags.writeable = False
    try:
        return DensityField(shape, values, warnings)
    except ConfigError as exc:
        raise FormatError(f"{path}: {exc}") from exc


# -- text detections --------------------------------------------------------

def write_detections_text(path, dets: DetectionSet) -> None:
    lines = [" ".join(repr(v) for v in row) for row in dets.rows.tolist()]
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""))


def read_detections_text(path) -> DetectionSet:
    """One row per ``x_min y_min x_max y_max score`` line; ``#`` lines skipped.

    Scores outside [0, 1] are clamped with a warning. The first bad line in
    file order, unparsable or breaking a box rule, raises ``FormatError``
    naming it.
    """
    rows: list[list[float]] = []
    linenos: list[int] = []
    warnings: list[str] = []
    parse_error = None
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        try:
            if len(parts) != 5:
                raise ValueError("expected 'x_min y_min x_max y_max score'")
            row = [float(p) for p in parts]
        except ValueError as exc:
            parse_error = FormatError(f"{path}:{lineno}: {exc}")
            break
        score = row[4]
        if not (0.0 <= score <= 1.0):
            warnings.append(f"line {lineno}: score {score} clamped to [0, 1]")
            row[4] = min(max(score, 0.0), 1.0)
        rows.append(row)
        linenos.append(lineno)
    # lines before an unparsable one are checked first: file order decides
    try:
        dets = DetectionSet(rows, warnings=tuple(warnings))
    except ConfigError as exc:
        i, reason = first_invalid_row(np.array(rows, dtype=np.float64))
        raise FormatError(f"{path}:{linenos[i]}: {reason}") from exc
    if parse_error is not None:
        raise parse_error
    return dets


# -- annotations ------------------------------------------------------------

def _json_number(value, what: str) -> float:
    """A JSON number as a float; a bool, string or anything else is a ``TypeError``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{what} must be a number, got {value!r}")
    return float(value)


def write_annotations(path, heads: np.ndarray, count: float) -> None:
    payload = {
        "heads": [{"x": x, "y": y} for x, y in check_heads(heads).tolist()],
        "count": count,
    }
    Path(path).write_text(json.dumps(payload, indent=1))


def read_annotations(path) -> tuple[np.ndarray, float]:
    """Head positions as a read-only (N, 2) float64 array, plus the count."""
    try:
        payload = json.loads(Path(path).read_text())
        raw = payload["heads"]
        xs = [h["x"] for h in raw]
        ys = [h["y"] for h in raw]
        if not {*map(type, xs), *map(type, ys)} <= {int, float}:  # type(True) is bool
            for x, y in zip(xs, ys):
                _json_number(x, "head x")
                _json_number(y, "head y")
        heads = check_heads(np.array([xs, ys], dtype=np.float64).T.copy())
        heads.flags.writeable = False
        count = _json_number(payload["count"], "count")
    except (KeyError, TypeError, ValueError, OverflowError, json.JSONDecodeError) as exc:
        raise FormatError(f"{path}: bad annotation file: {exc}") from exc
    if not np.isfinite(heads).all():
        raise FormatError(f"{path}: head coordinates must be finite")
    if not (math.isfinite(count) and count >= 0.0):
        raise FormatError(f"{path}: count must be finite and >= 0, got {count}")
    if len(heads) and count != len(heads):
        raise FormatError(f"{path}: count {count} != {len(heads)} heads")
    return heads, count


# -- scene config -----------------------------------------------------------

_SEGMENT_KEYS = ("x_start", "x_end", "k", "b")


def polyline_to_json(p: Polyline) -> list[dict]:
    """One ``{x_start, x_end, k, b}`` object per segment row."""
    return [dict(zip(_SEGMENT_KEYS, row)) for row in p.segments.tolist()]


def polyline_from_json(raw) -> Polyline:
    """Inverse of ``polyline_to_json``."""
    return Polyline(
        [[_json_number(s[key], f"polyline {key}") for key in _SEGMENT_KEYS] for s in raw]
    )


def write_scene_config(path, cfg: SceneConfig) -> None:
    payload = {
        "scene_id": cfg.scene_id,
        "polyline": None if cfg.polyline is None else polyline_to_json(cfg.polyline),
        "depth_threshold": "auto" if cfg.depth_threshold is None else cfg.depth_threshold,
    }
    Path(path).write_text(json.dumps(payload, indent=1))


def read_scene_config(path) -> SceneConfig:
    try:
        payload = json.loads(Path(path).read_text())
        if not isinstance(payload, dict):
            raise FormatError(f"{path}: scene config must be a JSON object")
        poly_raw = payload.get("polyline")
        polyline = None if poly_raw is None else polyline_from_json(poly_raw)
        threshold = payload.get("depth_threshold", "auto")
        if threshold in (None, "auto"):
            threshold = None
        else:
            threshold = _json_number(threshold, "depth_threshold")
        scene_id = payload["scene_id"]
        if not isinstance(scene_id, str):
            raise TypeError(f"scene_id must be a string, got {scene_id!r}")
        return SceneConfig(
            scene_id=check_scene_id(scene_id),
            polyline=polyline,
            depth_threshold=threshold,
        )
    except (ConfigError, KeyError, TypeError, ValueError, OverflowError,
            json.JSONDecodeError) as exc:
        raise FormatError(f"{path}: bad scene config: {exc}") from exc


# -- debug rasters ----------------------------------------------------------

def write_pgm8(path, values: np.ndarray) -> None:
    """8-bit grayscale PGM from a (rows, cols) uint8 array."""
    arr = np.asarray(values, dtype=np.uint8)
    if arr.ndim != 2:
        raise ConfigError("PGM rasters must be 2-D")
    header = f"P5\n{arr.shape[1]} {arr.shape[0]}\n255\n".encode()
    Path(path).write_bytes(header + arr.tobytes())


def heatmap_u8(values: np.ndarray) -> np.ndarray:
    """Linear scaling of a non-negative field to 0..255 (max maps to 255)."""
    arr = np.asarray(values, dtype=np.float64)
    peak = arr.max() if arr.size else 0.0
    if peak <= 0.0:
        return np.zeros(arr.shape, dtype=np.uint8)
    return np.round(arr / peak * 255.0).astype(np.uint8)
