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
neither stays mapped.

Every reader error is a ``FormatError`` whose message starts with the
file's path (``errors.naming_file``). Every JSON reader checks that a value
is an object, a list or a string with ``check_json``.
"""

from __future__ import annotations

import json
import mmap
import os
import struct
from pathlib import Path

import numpy as np

from .density import DensityField
from .detect import DetectorGridSpec, GridPrediction, DetectionSet, first_invalid_row
from .errors import ConfigError, FormatError, naming_file
from .scene import (
    DepthMap,
    GridShape,
    Polyline,
    SceneConfig,
    _check_annotations,
    check_heads,
    check_number,
    check_scene_id,
)

__all__ = [
    "read_depth",
    "write_depth_digd",
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
    "check_json",
    "write_pgm8",
    "heatmap_u8",
]

DIGD_MAGIC = b"DIGD"
DIGY_MAGIC = b"DIGY"
DIGF_MAGIC = b"DIGF"
_DIGD_HEADER = struct.Struct("<4sIII")
_DIGY_HEADER = struct.Struct("<4sIIIII")
_DIGF_HEADER = struct.Struct("<4sIIQ")
# what a JSON payload of the wrong shape or type raises while it is read
_JSON_ERRORS = (ConfigError, KeyError, TypeError, ValueError, OverflowError)
_JSON_KINDS = {dict: "a JSON object", list: "a list", str: "a string"}


def check_json(value, kind: type, what: str):
    """``value`` if it is a ``kind``: ``dict``, ``list`` or ``str``.

    Otherwise a ``TypeError`` ("``what`` must be a JSON object, got …"), which
    the reader's ``naming_file`` turns into a ``FormatError`` naming the file.
    """
    if not isinstance(value, kind):
        raise TypeError(f"{what} must be {_JSON_KINDS[kind]}, got {value!r}")
    return value


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


def _write_raster(path, header: bytes, values: np.ndarray) -> None:
    """``header``, then ``values`` as little-endian float32, to one open file.

    The payload is written straight from the converted array: no bytes
    copy and no header + payload concatenation.
    """
    payload = np.ascontiguousarray(values, dtype="<f4")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload.data)


def _header_fields(data, header: struct.Struct, magic: bytes, what: str, path) -> tuple:
    """The fields after the magic of a DIGD, DIGY or DIGF header; ``FormatError`` if absent."""
    if len(data) < header.size or data[:4] != magic:
        raise FormatError(f"{path}: not a {magic.decode()} {what}")
    return header.unpack_from(data)[1:]


def _read_raster(data, header: struct.Struct, magic: bytes, what: str, path):
    """A DIGD or DIGF file's grid and its payload as a read-only (height, width) view.

    A grid below 1x1 is a ``ConfigError``, left for the reader to name its file.
    """
    width, height, _ = _header_fields(data, header, magic, what, path)
    shape = GridShape(width, height)
    return shape, _payload_f32(data, header.size, shape.pixel_count, path).reshape(height, width)


# -- depth ------------------------------------------------------------------

def write_depth_digd(path, depth: DepthMap) -> None:
    header = _DIGD_HEADER.pack(DIGD_MAGIC, depth.shape.width, depth.shape.height, 0)
    _write_raster(path, header, depth.values)


def write_depth_pgm16(path, depth: DepthMap) -> None:
    # widen first: a float32 product with 65535.0 rounds differently
    quantized = np.round(depth.values.astype(np.float64, copy=False) * 65535.0).astype(">u2")
    header = f"P5\n{depth.shape.width} {depth.shape.height}\n65535\n".encode()
    Path(path).write_bytes(header + quantized.tobytes())


def _depth_pgm16(data, path) -> DepthMap:
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
    with naming_file(path, ValueError, "bad PGM header: "):
        width, height, maxval = (int(f) for f in fields)
    pos += 1  # single whitespace after maxval
    if maxval != 65535:
        raise FormatError(f"{path}: expected 16-bit PGM (maxval 65535), got {maxval}")
    shape = GridShape(width, height)  # a ConfigError here names the file in read_depth
    if len(data) - pos != 2 * shape.pixel_count:
        raise FormatError(f"{path}: PGM payload size mismatch")
    raw = np.frombuffer(data, dtype=">u2", offset=pos)
    values = raw.reshape(height, width).astype(np.float64) / 65535.0
    values.flags.writeable = False
    return DepthMap(shape, values)


def read_depth(path) -> DepthMap:
    """Load depth from a DIGD or 16-bit PGM file (sniffed by magic)."""
    data = _map_file(path)
    with naming_file(path, ConfigError):
        if data[:4] == DIGD_MAGIC:
            return DepthMap(*_read_raster(data, _DIGD_HEADER, DIGD_MAGIC, "depth file", path))
        if data[:2] == b"P5":
            return _depth_pgm16(data, path)
    raise FormatError(f"{path}: unrecognized depth format (expect DIGD or P5)")


# -- prediction tensor ------------------------------------------------------

def write_prediction_tensor(path, pred: GridPrediction) -> None:
    spec, shape = pred.spec, pred.shape
    header = _DIGY_HEADER.pack(DIGY_MAGIC, spec.s, spec.b, spec.c, shape.width, shape.height)
    _write_raster(path, header, pred.values)


def read_prediction_tensor(path) -> GridPrediction:
    data = Path(path).read_bytes()
    s, b, c, width, height = _header_fields(
        data, _DIGY_HEADER, DIGY_MAGIC, "prediction tensor", path)
    with naming_file(path, ConfigError):
        spec = DetectorGridSpec(s, b, c)
        shape = GridShape(width, height)
    values = _payload_f32(data, _DIGY_HEADER.size, s * s * spec.cell_values, path)
    return GridPrediction(spec, shape, values.reshape(s, s, spec.cell_values))


# -- density field ----------------------------------------------------------

def write_density_field(path, field: DensityField) -> None:
    header = _DIGF_HEADER.pack(DIGF_MAGIC, field.shape.width, field.shape.height, 0)
    _write_raster(path, header, field.values)


def read_density_field(path) -> DensityField:
    """The payload as a read-only float32 view; copied only to clamp negatives.

    Valid values cost the one check of ``DensityField``; negatives are
    looked for only when that check fails.
    """
    with naming_file(path, ConfigError):
        shape, values = _read_raster(
            _map_file(path), _DIGF_HEADER, DIGF_MAGIC, "density file", path)
        try:
            return DensityField(shape, values)
        except ConfigError:
            pass  # negative or non-finite values: clamp, then check again
        warnings = ()
        if values.min() < 0.0:  # False when a NaN is present: DensityField rejects it
            # external predictors sometimes emit slightly negative densities;
            # -inf is no such value and is left for DensityField to reject
            values = values.copy()
            negative = (values < 0.0) & (values > -np.inf)
            warnings = (f"{path}: clamped {int(negative.sum())} negative density values to 0",)
            values[negative] = 0.0
            values.flags.writeable = False
        return DensityField(shape, values, warnings)


# -- text detections --------------------------------------------------------

def write_detections_text(path, dets: DetectionSet) -> None:
    lines = ["%r %r %r %r %r" % tuple(row) for row in dets.rows.tolist()]
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
    with naming_file(path, UnicodeDecodeError, "not UTF-8 text: "):
        text = Path(path).read_text()
    for lineno, line in enumerate(text.splitlines(), start=1):
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

def write_annotations(path, heads: np.ndarray, count: float) -> None:
    """Heads and count in the layout of ``json.dumps(payload, indent=1)``.

    The text is formatted directly (floats by ``repr``, as ``json`` writes
    them), since ``indent`` sends ``json`` to its pure-Python encoder. A
    count that is not a JSON number, and heads and count that
    ``read_annotations`` would reject, are a ``ConfigError``.
    """
    heads = check_heads(heads)
    _check_annotations(heads, check_number(count, "count", 0.0))
    rows = ",\n".join(f'  {{\n   "x": {x!r},\n   "y": {y!r}\n  }}' for x, y in heads.tolist())
    listing = f"[\n{rows}\n ]" if rows else "[]"
    Path(path).write_text(f'{{\n "heads": {listing},\n "count": {json.dumps(count)}\n}}')


def read_annotations(path) -> tuple[np.ndarray, float]:
    """Head positions as a read-only (N, 2) float64 array, plus the count."""
    with naming_file(path, _JSON_ERRORS, "bad annotation file: "):
        payload = check_json(json.loads(Path(path).read_text()), dict, "annotation file")
        raw = payload["heads"]
        xs = [h["x"] for h in raw]
        ys = [h["y"] for h in raw]
        if not {*map(type, xs), *map(type, ys)} <= {int, float}:  # type(True) is bool
            for x, y in zip(xs, ys):
                check_number(x, "head x")
                check_number(y, "head y")
        heads = check_heads(np.array([xs, ys], dtype=np.float64).T.copy())
        heads.flags.writeable = False
        count = check_number(payload["count"], "count", 0.0)
    with naming_file(path, ConfigError):
        _check_annotations(heads, count)
    return heads, count


# -- scene config -----------------------------------------------------------

_SEGMENT_KEYS = ("x_start", "x_end", "k", "b")


def polyline_to_json(p: Polyline) -> list[dict]:
    """One ``{x_start, x_end, k, b}`` object per segment row."""
    return [dict(zip(_SEGMENT_KEYS, row)) for row in p.segments.tolist()]


def polyline_from_json(raw) -> Polyline:
    """Inverse of ``polyline_to_json``."""
    return Polyline(
        [[check_number(s[key], f"polyline {key}") for key in _SEGMENT_KEYS] for s in raw]
    )


def write_scene_config(path, cfg: SceneConfig) -> None:
    payload = {
        "scene_id": cfg.scene_id,
        "polyline": None if cfg.polyline is None else polyline_to_json(cfg.polyline),
        "depth_threshold": "auto" if cfg.depth_threshold is None else cfg.depth_threshold,
    }
    Path(path).write_text(json.dumps(payload, indent=1))


def read_scene_config(path) -> SceneConfig:
    with naming_file(path, _JSON_ERRORS, "bad scene config: "):
        payload = check_json(json.loads(Path(path).read_text()), dict, "scene config")
        poly_raw = payload.get("polyline")
        polyline = None if poly_raw is None else polyline_from_json(poly_raw)
        threshold = payload.get("depth_threshold", "auto")
        return SceneConfig(
            scene_id=check_scene_id(payload["scene_id"]),
            polyline=polyline,
            depth_threshold=None if threshold in (None, "auto") else threshold,
        )


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
