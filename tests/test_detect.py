import numpy as np
import pytest
from detect_reference import decode_reference, iou_reference, nms_reference
from hypothesis import given, settings
from hypothesis import strategies as st

from digcrowd import (
    BoundingBox,
    ConfigError,
    DetectionSet,
    DetectorGridSpec,
    FormatError,
    GridPrediction,
    GridShape,
    combine_confidence,
    decode,
    iou,
    nms,
)


def _empty_tensor(spec=DetectorGridSpec()):
    return np.zeros((spec.s, spec.s, spec.cell_values))


def _set_box(vals, row, col, slot, x, y, w, h, c, class_prob=None):
    vals[row, col, slot * 5 : slot * 5 + 5] = (x, y, w, h, c)
    if class_prob is not None:
        vals[row, col, -1] = class_prob


class TestCombineConfidence:
    def test_product(self):
        assert combine_confidence(0.8, 0.5) == pytest.approx(0.4)

    def test_identity_class(self):
        assert combine_confidence(1.0, 0.37) == 0.37

    def test_zero_annihilates(self):
        assert combine_confidence(0.0, 0.9) == 0.0

    def test_rejects_out_of_range(self):
        with pytest.raises(ConfigError):
            combine_confidence(1.2, 0.5)


class TestDecode:
    def test_all_zero_tensor_empty(self):
        pred = GridPrediction(DetectorGridSpec(), GridShape(700, 700), _empty_tensor())
        assert len(decode(pred, 0.2)) == 0

    def test_center_cell_box(self):
        vals = _empty_tensor()
        _set_box(vals, 3, 3, 0, 0.5, 0.5, 1 / 7, 1 / 7, 1.0, class_prob=1.0)
        pred = GridPrediction(DetectorGridSpec(), GridShape(700, 700), vals)
        dets = decode(pred, 0.2)
        assert len(dets) == 1
        b = dets.boxes[0]
        assert (b.x_min, b.y_min, b.x_max, b.y_max) == pytest.approx(
            (300.0, 300.0, 400.0, 400.0), abs=1e-9
        )
        assert b.score == 1.0

    def test_threshold_zero_emits_only_real_box(self):
        # zero cells decode to zero-extent boxes and are dropped even at
        # threshold 0, so only the populated slot survives
        vals = _empty_tensor()
        _set_box(vals, 1, 2, 0, 0.5, 0.5, 0.1, 0.1, 0.2, class_prob=0.5)
        pred = GridPrediction(DetectorGridSpec(), GridShape(700, 700), vals)
        dets = decode(pred, 0.0)
        assert len(dets) == 1
        assert dets.boxes[0].score == pytest.approx(0.1)

    def test_emits_at_most_ssb_and_scores_above_threshold(self):
        rng = np.random.default_rng(0)
        spec = DetectorGridSpec()
        pred = GridPrediction(
            spec, GridShape(448, 448), rng.random((spec.s, spec.s, spec.cell_values))
        )
        dets = decode(pred, 0.3)
        assert len(dets) <= spec.s * spec.s * spec.b
        assert all(b.score >= 0.3 for b in dets.boxes)

    def test_out_of_range_values_clamped_with_warning(self):
        vals = _empty_tensor()
        _set_box(vals, 0, 0, 0, 0.5, 0.5, 0.25, 0.25, 1.7, class_prob=1.0)
        pred = GridPrediction(DetectorGridSpec(), GridShape(700, 700), vals)
        dets = decode(pred, 0.2)
        assert dets.warnings
        assert dets.boxes[0].score == 1.0

    def test_flat_length_mismatch(self):
        with pytest.raises(FormatError):
            GridPrediction.from_flat(DetectorGridSpec(), GridShape(100, 100), np.zeros(17))

    def test_roundtrip_centers_to_cell_offsets(self):
        rng = np.random.default_rng(5)
        spec = DetectorGridSpec()
        shape = GridShape(700, 560)
        vals = _empty_tensor(spec)
        # interior cells only: clamped boxes shift their centers
        for _ in range(12):
            row, col = rng.integers(1, 6, 2)
            x, y = rng.uniform(0.05, 0.95, 2)
            _set_box(vals, row, col, 0, x, y, 0.05, 0.05, 1.0, class_prob=1.0)
        pred = GridPrediction(spec, shape, vals)
        for b in decode(pred, 0.5).boxes:
            cx = (b.x_min + b.x_max) / 2
            cy = (b.y_min + b.y_max) / 2
            col = int(cx * spec.s / shape.width)
            row = int(cy * spec.s / shape.height)
            x_off = cx * spec.s / shape.width - col
            y_off = cy * spec.s / shape.height - row
            assert vals[row, col, 0] == pytest.approx(x_off, abs=1e-6)
            assert vals[row, col, 1] == pytest.approx(y_off, abs=1e-6)


class TestIou:
    def test_identical(self):
        b = BoundingBox(3, 4, 10, 12, 0.5)
        assert iou(b, b) == 1.0

    def test_disjoint(self):
        assert iou(BoundingBox(0, 0, 1, 1, 0.5), BoundingBox(5, 5, 6, 6, 0.5)) == 0.0

    def test_unit_squares_third(self):
        a = BoundingBox(0, 0, 1, 1, 0.5)
        b = BoundingBox(0.5, 0, 1.5, 1, 0.5)
        assert iou(a, b) == pytest.approx(1 / 3)

    @given(
        st.tuples(
            st.floats(0, 50), st.floats(0, 50), st.floats(1, 40), st.floats(1, 40)
        ),
        st.tuples(
            st.floats(0, 50), st.floats(0, 50), st.floats(1, 40), st.floats(1, 40)
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_symmetry(self, ta, tb):
        a = BoundingBox(ta[0], ta[1], ta[0] + ta[2], ta[1] + ta[3], 0.5)
        b = BoundingBox(tb[0], tb[1], tb[0] + tb[2], tb[1] + tb[3], 0.5)
        assert iou(a, b) == iou(b, a)
        assert 0.0 <= iou(a, b) <= 1.0


def _boxes_strategy():
    def build(t):
        x, y, w, h, s = t
        return BoundingBox(x, y, x + w, y + h, s)

    one = st.tuples(
        st.floats(0, 80), st.floats(0, 80), st.floats(1, 30), st.floats(1, 30), st.floats(0, 1)
    ).map(build)
    return st.lists(one, min_size=0, max_size=12).map(
        lambda bs: DetectionSet(tuple(bs))
    )


class TestNms:
    def test_single_box_unchanged(self):
        d = DetectionSet((BoundingBox(0, 0, 5, 5, 0.7),))
        assert nms(d, 0.5).boxes == d.boxes

    def test_duplicate_suppressed(self):
        a = BoundingBox(0, 0, 10, 10, 0.9)
        b = BoundingBox(0, 0, 10, 10, 0.8)
        kept = nms(DetectionSet((b, a)), 0.5).boxes
        assert kept == (a,)

    def test_disjoint_all_kept(self):
        boxes = (
            BoundingBox(0, 0, 5, 5, 0.3),
            BoundingBox(10, 0, 15, 5, 0.9),
            BoundingBox(0, 10, 5, 15, 0.6),
        )
        assert len(nms(DetectionSet(boxes), 0.5)) == 3

    def test_score_tie_broken_by_x_min(self):
        a = BoundingBox(0, 0, 10, 10, 0.8)
        b = BoundingBox(0.5, 0, 10.5, 10, 0.8)
        assert nms(DetectionSet((b, a)), 0.5).boxes == (a,)

    @given(_boxes_strategy(), st.floats(0.1, 0.9))
    @settings(max_examples=60, deadline=None)
    def test_idempotent_subset_pairwise(self, dets, thr):
        once = nms(dets, thr)
        twice = nms(once, thr)
        assert twice.boxes == once.boxes
        assert set(once.boxes) <= set(dets.boxes)
        kept = once.boxes
        for i in range(len(kept)):
            for j in range(i + 1, len(kept)):
                assert iou(kept[i], kept[j]) < thr


def _bits(dets):
    """Every box as the exact bit patterns of its five floats, in order."""
    return [
        tuple(float.hex(v) for v in (b.x_min, b.y_min, b.x_max, b.y_max, b.score))
        for b in dets.boxes
    ]


_TENSOR_VALUES = st.one_of(
    st.sampled_from(
        [0.0, -0.0, 0.1, 0.2, 0.25, 0.5, 1.0, -0.5, 1.5, np.nan, np.inf, -np.inf]
    ),
    st.floats(-0.5, 1.5),
)
_THRESHOLDS = st.one_of(st.sampled_from([0.0, 0.1, 0.2, 0.25, 0.5, 1.0]), st.floats(0, 1))


@st.composite
def _predictions(draw):
    spec = DetectorGridSpec(
        draw(st.integers(1, 4)), draw(st.integers(1, 3)), draw(st.integers(1, 2))
    )
    shape = GridShape(draw(st.integers(1, 500)), draw(st.integers(1, 500)))
    n = spec.s * spec.s * spec.cell_values
    flat = draw(st.lists(_TENSOR_VALUES, min_size=n, max_size=n))
    return GridPrediction.from_flat(spec, shape, np.array(flat))


@st.composite
def _box_sets(draw):
    """Boxes on a coarse grid with few score levels, so ties are common."""
    coord = st.one_of(st.integers(0, 12).map(float), st.floats(0, 12))
    extent = st.one_of(st.integers(1, 6).map(float), st.floats(0.5, 6))
    score = st.one_of(st.sampled_from([0.0, 0.3, 0.5, 0.9, 1.0]), st.floats(0, 1))

    def build(t):
        x, y, w, h, s = t
        return BoundingBox(x, y, x + w, y + h, s)

    boxes = draw(st.lists(st.tuples(coord, coord, extent, extent, score).map(build), max_size=25))
    if boxes:
        # exact duplicates and (score, x_min, y_min) ties with other extents
        for i in draw(st.lists(st.integers(0, len(boxes) - 1), max_size=5)):
            b = boxes[i]
            boxes.append(b if draw(st.booleans()) else BoundingBox(
                b.x_min, b.y_min, b.x_max + 1.0, b.y_max + 0.5, b.score))
        boxes = draw(st.permutations(boxes))
    return DetectionSet(tuple(boxes))


class TestReferenceOracle:
    """The numpy decode / NMS / IoU against the scalar loops they replaced."""

    @given(_predictions(), _THRESHOLDS)
    @settings(max_examples=150, deadline=None)
    def test_decode_matches_reference(self, pred, thr):
        got, want = decode(pred, thr), decode_reference(pred, thr)
        assert got == want
        assert _bits(got) == _bits(want)

    def test_decode_score_exactly_at_threshold_kept(self):
        vals = _empty_tensor()
        _set_box(vals, 2, 4, 1, 0.5, 0.5, 0.1, 0.1, 0.25, class_prob=1.0)
        pred = GridPrediction(DetectorGridSpec(), GridShape(700, 700), vals)
        assert decode(pred, 0.25) == decode_reference(pred, 0.25)
        assert len(decode(pred, 0.25)) == 1

    @given(_box_sets(), st.one_of(st.sampled_from([0.5, 1.0]), st.floats(0.01, 1)))
    @settings(max_examples=200, deadline=None)
    def test_nms_matches_reference(self, dets, thr):
        got, want = nms(dets, thr), nms_reference(dets, thr)
        assert got.boxes == want.boxes
        assert [id(b) for b in got.boxes] == [id(b) for b in want.boxes]

    def test_full_tie_keeps_input_order(self):
        a = BoundingBox(0, 0, 10, 10, 0.8)
        b = BoundingBox(0, 0, 10, 9, 0.8)
        assert nms(DetectionSet((b, a)), 0.5).boxes == (b,)
        assert nms(DetectionSet((a, b)), 0.5).boxes == (a,)

    def test_iou_exactly_at_threshold_suppressed(self):
        a = BoundingBox(0, 0, 10, 10, 0.9)
        b = BoundingBox(0, 0, 10, 5, 0.8)
        assert iou(a, b) == iou_reference(a, b) == 0.5
        assert nms(DetectionSet((a, b)), 0.5).boxes == (a,)
        assert nms_reference(DetectionSet((a, b)), 0.5).boxes == (a,)

    @given(_box_sets())
    @settings(max_examples=60, deadline=None)
    def test_iou_matches_reference(self, dets):
        for a in dets.boxes[:6]:
            for b in dets.boxes[:6]:
                assert float.hex(iou(a, b)) == float.hex(iou_reference(a, b))


class TestThresholdValidation:
    @pytest.mark.parametrize("thr", [float("nan"), -3.0, -1e-9, 1.0 + 1e-9])
    def test_decode_rejects(self, thr):
        pred = GridPrediction(DetectorGridSpec(), GridShape(70, 70), _empty_tensor())
        with pytest.raises(ConfigError):
            decode(pred, thr)

    @pytest.mark.parametrize("thr", [float("nan"), 0.0, -0.5, 1.0 + 1e-9])
    def test_nms_rejects(self, thr):
        disjoint = DetectionSet((BoundingBox(0, 0, 1, 1, 0.5), BoundingBox(5, 5, 6, 6, 0.4)))
        with pytest.raises(ConfigError):
            nms(disjoint, thr)

    def test_bounds_accepted(self):
        pred = GridPrediction(DetectorGridSpec(), GridShape(70, 70), _empty_tensor())
        assert len(decode(pred, 0.0)) == len(decode(pred, 1.0)) == 0
        disjoint = DetectionSet((BoundingBox(0, 0, 1, 1, 0.5), BoundingBox(5, 5, 6, 6, 0.4)))
        assert len(nms(disjoint, 1.0)) == 2
