import json
import re
import struct

import numpy as np
import pytest

from digcrowd import (
    DensityField,
    DepthMap,
    DetectionSet,
    DetectorGridSpec,
    FormatError,
    GridPrediction,
    GridShape,
    Polyline,
    SceneConfig,
    SynthSpec,
    generate_scene,
    partition,
)
from digcrowd.io import (
    heatmap_u8,
    read_annotations,
    read_density_field,
    read_depth,
    read_depth_digd,
    read_depth_pgm16,
    read_detections_text,
    read_prediction_tensor,
    read_scene_config,
    write_annotations,
    write_density_field,
    write_depth_digd,
    write_depth_pgm16,
    write_detections_text,
    write_pgm8,
    write_prediction_tensor,
    write_scene_config,
)


def _random_depth(seed=0, w=37, h=23):
    rng = np.random.default_rng(seed)
    # float32-exact values so the binary round-trip is bit-identical
    vals = rng.random((h, w)).astype(np.float32).astype(np.float64)
    return DepthMap(GridShape(w, h), vals)


class TestDepthFiles:
    def test_digd_roundtrip_bit_exact(self, tmp_path):
        depth = _random_depth()
        path = tmp_path / "d.digd"
        write_depth_digd(path, depth)
        back = read_depth_digd(path)
        assert back.shape == depth.shape
        assert np.array_equal(back.values, depth.values)

    def test_digd_header_is_16_bytes(self, tmp_path):
        depth = _random_depth(w=5, h=4)
        path = tmp_path / "d.digd"
        write_depth_digd(path, depth)
        assert path.stat().st_size == 16 + 4 * 20

    def test_digd_bad_magic(self, tmp_path):
        path = tmp_path / "bad.digd"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(FormatError):
            read_depth_digd(path)

    def test_digd_nan_names_file(self, tmp_path):
        import struct

        bad = {
            "nan": (np.nan, "be finite"),
            "pinf": (np.inf, "be finite"),
            "ninf": (-np.inf, "be finite"),
            "above1": (np.nextafter(1, 2, dtype=np.float32), r"lie in \[0, 1\]"),
            "negative": (-1e-7, r"lie in \[0, 1\]"),
        }
        for name, (value, rule) in bad.items():
            path = tmp_path / f"{name}.digd"
            values = np.array([0.5, value, 0.25, 1.0], dtype="<f4")
            path.write_bytes(struct.pack("<4sIII", b"DIGD", 2, 2, 0) + values.tobytes())
            with pytest.raises(FormatError, match=rf"{name}\.digd: depth values must {rule}"):
                read_depth_digd(path)

    def test_digd_auto_partition_matches_float64(self, tmp_path):
        """The float32 map read from DIGD partitions as its exact float64 widening."""
        rec = generate_scene(SynthSpec(shape=GridShape(360, 240), horizon_y=200.0, seed=5))
        path = tmp_path / "d.digd"
        write_depth_digd(path, rec.depth)
        loaded = read_depth_digd(path)
        assert loaded.values.dtype == np.float32
        wide = DepthMap(loaded.shape, loaded.values.astype(np.float64))
        cfg = SceneConfig("auto")
        got, want = partition(loaded, cfg), partition(wide, cfg)

        def bits(part):
            floats = [*part.polyline.segments.ravel(), part.threshold_used, *part.energy_history]
            return np.array(floats, dtype=np.float64).view(np.uint64).tolist()

        assert bits(got) == bits(want)
        assert np.array_equal(got.mask.far, want.mask.far)

    def test_digd_truncated_payload(self, tmp_path):
        depth = _random_depth(w=6, h=6)
        path = tmp_path / "d.digd"
        write_depth_digd(path, depth)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(FormatError):
            read_depth_digd(path)

    def test_pgm16_roundtrip(self, tmp_path):
        rng = np.random.default_rng(2)
        quantized = rng.integers(0, 65536, (9, 14)).astype(np.float64) / 65535.0
        depth = DepthMap(GridShape(14, 9), quantized)
        path = tmp_path / "d.pgm"
        write_depth_pgm16(path, depth)
        back = read_depth_pgm16(path)
        assert np.array_equal(back.values, depth.values)

    def test_pgm16_of_digd_depth_matches_float64(self, tmp_path):
        """A float32 map quantizes to 16 bits as its float64 widening does."""
        depth = _random_depth(w=300, h=200)
        write_depth_digd(tmp_path / "d.digd", depth)
        write_depth_pgm16(tmp_path / "from32.pgm", read_depth_digd(tmp_path / "d.digd"))
        write_depth_pgm16(tmp_path / "from64.pgm", depth)
        assert (tmp_path / "from32.pgm").read_bytes() == (tmp_path / "from64.pgm").read_bytes()

    @pytest.mark.parametrize("data", [
        b"P5\n2 2\n65535\n" + b"\x00" * 7,
        b"P5\n2 2\n65535",
        b"P5\n2 2\n65535\n",
        b"P5\n2 2\n65535\n" + b"\x00" * 10,
    ], ids=["odd-length", "header-only", "missing", "too-long"])
    @pytest.mark.parametrize("reader", [read_depth, read_depth_pgm16])
    def test_pgm16_payload_size_is_a_format_error(self, tmp_path, reader, data):
        path = tmp_path / "d.pgm"
        path.write_bytes(data)
        with pytest.raises(FormatError, match=r"d\.pgm: PGM payload size mismatch$"):
            reader(path)

    def test_read_depth_sniffs_format(self, tmp_path):
        depth = _random_depth(w=8, h=8)
        digd = tmp_path / "a.bin"
        pgm = tmp_path / "b.bin"
        write_depth_digd(digd, depth)
        write_depth_pgm16(pgm, depth)
        assert read_depth(digd).shape == depth.shape
        assert read_depth(pgm).shape == depth.shape
        other = tmp_path / "c.bin"
        other.write_bytes(b"????1234")
        with pytest.raises(FormatError):
            read_depth(other)


class TestTensorFiles:
    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(4)
        spec = DetectorGridSpec(7, 2, 1)
        vals = rng.random((7, 7, 11)).astype(np.float32).astype(np.float64)
        pred = GridPrediction(spec, GridShape(700, 700), vals)
        path = tmp_path / "p.digy"
        write_prediction_tensor(path, pred)
        back = read_prediction_tensor(path)
        assert back.spec == spec
        assert back.shape == pred.shape
        assert np.array_equal(back.values, pred.values)
        assert path.stat().st_size == 24 + 4 * 7 * 7 * 11

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.digy"
        path.write_bytes(b"DIGX" + b"\x00" * 40)
        with pytest.raises(FormatError):
            read_prediction_tensor(path)


class TestDensityFiles:
    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(6)
        vals = (rng.random((12, 18)) * 0.2).astype(np.float32).astype(np.float64)
        field = DensityField(GridShape(18, 12), vals)
        path = tmp_path / "f.digf"
        write_density_field(path, field)
        back = read_density_field(path)
        assert np.array_equal(back.values, field.values)
        assert path.stat().st_size == 20 + 4 * 18 * 12

    def test_negative_values_clamped(self, tmp_path):
        import struct

        payload = struct.pack("<4sIIQ", b"DIGF", 2, 1, 0) + np.array(
            [-0.25, 0.5], dtype="<f4"
        ).tobytes()
        path = tmp_path / "neg.digf"
        path.write_bytes(payload)
        back = read_density_field(path)
        assert back.values.tolist() == [[0.0, 0.5]]
        assert back.warnings == (f"{path}: clamped 1 negative density values to 0",)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_names_file(self, tmp_path, bad):
        import struct

        payload = struct.pack("<4sIIQ", b"DIGF", 3, 1, 0) + np.array(
            [0.5, bad, -0.25], dtype="<f4"
        ).tobytes()
        path = tmp_path / "bad.digf"
        path.write_bytes(payload)
        with pytest.raises(FormatError, match=r"bad\.digf: density values must be finite"):
            read_density_field(path)

    def test_wrong_size(self, tmp_path):
        import struct

        path = tmp_path / "short.digf"
        path.write_bytes(struct.pack("<4sIIQ", b"DIGF", 4, 4, 0) + b"\x00" * 12)
        with pytest.raises(FormatError):
            read_density_field(path)


def _digd(path, values, width):
    values = np.asarray(values, dtype="<f4")
    path.write_bytes(struct.pack("<4sIII", b"DIGD", width, values.size // width, 0)
                     + values.tobytes())
    return path


def _digf(path, values):
    values = np.asarray(values, dtype="<f4")
    path.write_bytes(struct.pack("<4sIIQ", b"DIGF", values.size, 1, 0) + values.tobytes())
    return path


class TestRasterChecks:
    """The one-min, one-max checks give the messages of the full scans."""

    @pytest.mark.parametrize("values, rule", [
        ([0.5, np.nan, 2.0, 0.25], "be finite"),
        ([2.0, 0.5, np.nan, 0.25], "be finite"),
        ([0.5, 1.5, 0.25, 1.0], r"lie in \[0, 1\]"),
    ], ids=["nan-then-2", "2-then-nan", "1.5"])
    @pytest.mark.parametrize("reader", [read_depth, read_depth_digd])
    def test_depth_message(self, tmp_path, reader, values, rule):
        path = _digd(tmp_path / "d.digd", values, 2)
        with pytest.raises(FormatError, match=rf"d\.digd: depth values must {rule}$"):
            reader(path)

    @pytest.mark.parametrize("bad", [np.nan, -np.inf], ids=["nan", "ninf"])
    def test_density_non_finite_with_negative(self, tmp_path, bad):
        path = _digf(tmp_path / "f.digf", [0.5, bad, -0.25])
        with pytest.raises(FormatError, match=r"f\.digf: density values must be finite$"):
            read_density_field(path)

    def test_density_negative_alone_is_one_clamp_warning(self, tmp_path):
        path = _digf(tmp_path / "f.digf", [0.5, -0.25, 0.125])
        back = read_density_field(path)
        assert back.values.tolist() == [[0.5, 0.0, 0.125]]
        assert back.values.dtype == np.float32 and not back.values.flags.writeable
        assert back.warnings == (f"{path}: clamped 1 negative density values to 0",)

    def test_empty_files(self, tmp_path):
        empty = tmp_path / "empty.bin"
        empty.write_bytes(b"")
        with pytest.raises(FormatError, match=r"empty\.bin: not a DIGD depth file$"):
            read_depth_digd(empty)
        with pytest.raises(FormatError, match=r"empty\.bin: not a DIGF density file$"):
            read_density_field(empty)
        with pytest.raises(FormatError, match=r"empty\.bin: unrecognized depth format"):
            read_depth(empty)

    def test_truncated_payloads(self, tmp_path):
        depth = _digd(tmp_path / "d.digd", [0.5, 0.25, 0.75, 1.0], 2)
        depth.write_bytes(depth.read_bytes()[:-3])
        density = _digf(tmp_path / "f.digf", [0.5, 0.25, 0.75])
        density.write_bytes(density.read_bytes()[:-4])
        for reader in (read_depth, read_depth_digd):
            with pytest.raises(FormatError, match=r"d\.digd: payload is 13 bytes, expected 16$"):
                reader(depth)
        with pytest.raises(FormatError, match=r"f\.digf: payload is 8 bytes, expected 12$"):
            read_density_field(density)


class TestDetectionText:
    def test_roundtrip_exact(self, tmp_path):
        boxes = (
            (1.25, 2.5, 10.75, 12.125, 0.875),
            (0.1, 0.2, 5.3, 7.4, 0.33),
        )
        path = tmp_path / "dets.txt"
        write_detections_text(path, DetectionSet(boxes))
        back = read_detections_text(path)
        assert [tuple(r) for r in back.rows.tolist()] == list(boxes)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        write_detections_text(path, DetectionSet(()))
        assert len(read_detections_text(path)) == 0

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "dets.txt"
        path.write_text("# header\n\n1 2 3 4 0.5\n")
        assert len(read_detections_text(path)) == 1

    def test_bad_column_count(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1 2 3 4\n")
        with pytest.raises(FormatError):
            read_detections_text(path)

    def test_non_finite_coordinate_names_line(self, tmp_path):
        path = tmp_path / "inf.txt"
        path.write_text("1 2 3 4 0.5\n10 650 inf 700 0.9\n")
        with pytest.raises(FormatError, match=r"inf\.txt:2: non-finite box"):
            read_detections_text(path)

    @pytest.mark.parametrize(
        "text, where",
        [
            ("# c\n\n1 2 3 4 0.5\n1 2 x 4 0.5\n", r":4: could not convert"),
            ("1 2 3 4 0.5\n1 2 3\n", r":2: expected 'x_min"),
            ("1 2 3 4 0.5\n5 2 5 4 0.5\n1 2 3\n", r":2: degenerate box \(5\.0, 2\.0"),
            ("1 2 3 4 0.5\n1 2 3\n5 2 5 4 0.5\n", r":2: expected 'x_min"),
            ("1 2 3 4 0.5\n1 2 3 4 nan\n", r":2: box score nan outside"),
        ],
        ids=["parse", "columns", "box-before-parse", "parse-before-box", "nan-score"],
    )
    def test_first_bad_line_in_file_order(self, tmp_path, text, where):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(FormatError, match=r"bad\.txt" + where):
            read_detections_text(path)

    def test_score_clamped_with_warning(self, tmp_path):
        path = tmp_path / "hot.txt"
        path.write_text("0 0 5 5 1.7\n")
        dets = read_detections_text(path)
        assert dets.rows[0, 4] == 1.0
        assert dets.warnings


class TestAnnotationAndConfig:
    def test_annotations_roundtrip(self, tmp_path):
        heads = np.array([[1.5, 2.25], [10.0, 20.0]])
        path = tmp_path / "ann.json"
        write_annotations(path, heads, 2.0)
        back_heads, count = read_annotations(path)
        assert np.array_equal(back_heads, heads)
        assert not back_heads.flags.writeable
        assert count == 2.0

    def test_annotations_count_mismatch(self, tmp_path):
        path = tmp_path / "ann.json"
        path.write_text('{"heads": [{"x": 1, "y": 2}], "count": 5}')
        with pytest.raises(FormatError):
            read_annotations(path)

    @pytest.mark.parametrize(
        "edit, message",
        [
            ({"head": {"x": "3"}}, "head x must be a number, got '3'"),
            ({"head": {"y": True}}, "head y must be a number, got True"),
            ({"head": {"x": None}}, "head x must be a number, got None"),
            ({"head": {"y": [2]}}, "head y must be a number, got [2]"),
            ({"count": "2"}, "count must be a number, got '2'"),
            ({"count": False}, "count must be a number, got False"),
        ],
    )
    def test_annotations_wrong_json_types_rejected(self, tmp_path, edit, message):
        payload = {"heads": [{"x": 1, "y": 2}, {"x": 3.5, "y": 4}], "count": 2}
        payload["heads"][1].update(edit.pop("head", {}))
        payload.update(edit)
        path = tmp_path / "ann.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(FormatError, match=re.escape(f"{path}: bad annotation file: {message}")):
            read_annotations(path)

    def test_annotations_json_integers_are_numbers(self, tmp_path):
        path = tmp_path / "ann.json"
        path.write_text('{"heads": [{"x": 3, "y": 1}, {"x": 0.5, "y": 7}], "count": 2}')
        heads, count = read_annotations(path)
        assert heads.dtype == np.float64 and heads.flags.c_contiguous
        assert heads.tolist() == [[3.0, 1.0], [0.5, 7.0]]
        assert count == 2.0 and type(count) is float

    def test_annotations_empty_heads(self, tmp_path):
        path = tmp_path / "ann.json"
        path.write_text('{"heads": [], "count": 12}')
        heads, count = read_annotations(path)
        assert heads.shape == (0, 2) and count == 12.0

    @pytest.mark.parametrize("name, text", [
        ("ann.json", '{"heads": [], "count": 1' + "0" * 400 + "}"),
        ("cfg.json", '{"scene_id": "s", "polyline": null, "depth_threshold": 1' + "0" * 400 + "}"),
    ])
    def test_integer_beyond_float_range_is_a_format_error(self, tmp_path, name, text):
        path = tmp_path / name
        path.write_text(text)
        reader = read_annotations if name == "ann.json" else read_scene_config
        with pytest.raises(FormatError, match=re.escape(str(path))):
            reader(path)

    def test_config_roundtrip_with_polyline(self, tmp_path):
        cfg = SceneConfig(
            "s1",
            polyline=Polyline.from_points([0.0, 50.0, 100.0], [10.0, 30.0, 20.0]),
            depth_threshold=0.4,
        )
        path = tmp_path / "cfg.json"
        write_scene_config(path, cfg)
        assert read_scene_config(path) == cfg

    def test_config_auto_threshold_and_no_polyline(self, tmp_path):
        cfg = SceneConfig("s2")
        path = tmp_path / "cfg.json"
        write_scene_config(path, cfg)
        back = read_scene_config(path)
        assert back.polyline is None
        assert back.depth_threshold is None

    def test_config_bad_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{not json")
        with pytest.raises(FormatError):
            read_scene_config(path)

    @pytest.mark.parametrize(
        "edit, message",
        [
            ({"scene_id": 7}, "scene_id must be a string, got 7"),
            ({"depth_threshold": True}, "depth_threshold must be a number, got True"),
            ({"depth_threshold": "0.4"}, "depth_threshold must be a number, got '0.4'"),
            ({"segment": {"x_start": False}}, "polyline x_start must be a number, got False"),
            ({"segment": {"k": True}}, "polyline k must be a number, got True"),
            ({"segment": {"b": "3"}}, "polyline b must be a number, got '3'"),
            ({"segment": {"x_end": None}}, "polyline x_end must be a number, got None"),
        ],
    )
    def test_config_wrong_json_types_rejected(self, tmp_path, edit, message):
        payload = {
            "scene_id": "s3",
            "polyline": [{"x_start": 0, "x_end": 10, "k": 0, "b": 3}],
            "depth_threshold": 0.4,
        }
        payload["polyline"][0].update(edit.pop("segment", {}))
        payload.update(edit)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(FormatError, match=re.escape(f"{path}: bad scene config: {message}")):
            read_scene_config(path)

    def test_config_json_integers_are_numbers(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "scene_id": "s4",
            "polyline": [{"x_start": 0, "x_end": 10, "k": 0, "b": 3}],
            "depth_threshold": 1,
        }))
        cfg = read_scene_config(path)
        assert cfg.polyline.segments.tolist() == [[0.0, 10.0, 0.0, 3.0]]
        assert cfg.depth_threshold == 1.0


class TestRasters:
    def test_pgm8_header_and_payload(self, tmp_path):
        img = np.arange(12, dtype=np.uint8).reshape(3, 4)
        path = tmp_path / "m.pgm"
        write_pgm8(path, img)
        data = path.read_bytes()
        assert data.startswith(b"P5\n4 3\n255\n")
        assert data[-12:] == img.tobytes()

    def test_heatmap_scaling(self):
        arr = np.array([[0.0, 0.5], [1.0, 2.0]])
        img = heatmap_u8(arr)
        assert img.tolist() == [[0, 64], [128, 255]]

    def test_heatmap_zero_field(self):
        assert heatmap_u8(np.zeros((2, 2))).max() == 0
