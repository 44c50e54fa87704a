import numpy as np
import pytest

from digcrowd import (
    BoundingBox,
    DensityField,
    DepthMap,
    DetectionSet,
    DetectorGridSpec,
    FormatError,
    GridPrediction,
    GridShape,
    HeadPoint,
    Polyline,
    SceneConfig,
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

    def test_wrong_size(self, tmp_path):
        import struct

        path = tmp_path / "short.digf"
        path.write_bytes(struct.pack("<4sIIQ", b"DIGF", 4, 4, 0) + b"\x00" * 12)
        with pytest.raises(FormatError):
            read_density_field(path)


class TestDetectionText:
    def test_roundtrip_exact(self, tmp_path):
        boxes = (
            BoundingBox(1.25, 2.5, 10.75, 12.125, 0.875),
            BoundingBox(0.1, 0.2, 5.3, 7.4, 0.33),
        )
        path = tmp_path / "dets.txt"
        write_detections_text(path, DetectionSet(boxes))
        back = read_detections_text(path)
        assert back.boxes == boxes

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

    def test_score_clamped_with_warning(self, tmp_path):
        path = tmp_path / "hot.txt"
        path.write_text("0 0 5 5 1.7\n")
        dets = read_detections_text(path)
        assert dets.boxes[0].score == 1.0
        assert dets.warnings


class TestAnnotationAndConfig:
    def test_annotations_roundtrip(self, tmp_path):
        heads = (HeadPoint(1.5, 2.25), HeadPoint(10.0, 20.0))
        path = tmp_path / "ann.json"
        write_annotations(path, heads, 2.0)
        back_heads, count = read_annotations(path)
        assert back_heads == heads
        assert count == 2.0

    def test_annotations_count_mismatch(self, tmp_path):
        path = tmp_path / "ann.json"
        path.write_text('{"heads": [{"x": 1, "y": 2}], "count": 5}')
        with pytest.raises(FormatError):
            read_annotations(path)

    def test_config_roundtrip_with_polyline(self, tmp_path):
        cfg = SceneConfig(
            "s1",
            polyline=Polyline.from_points([0.0, 50.0, 100.0], [10.0, 30.0, 20.0]),
            depth_threshold=0.4,
            knn_k=5,
            beta=0.25,
            kernel_truncation_radius=2.5,
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
