import math
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from detect_reference import decode_reference, iou_reference, nms_loop_reference, nms_reference
from hypothesis import given, settings
from hypothesis import strategies as st

from digcrowd import (
    ConfigError,
    DetectionSet,
    DetectorGridSpec,
    FormatError,
    GridPrediction,
    GridShape,
    decode,
    iou,
    nms,
)
from digcrowd import detect
from digcrowd.detect import NMS_PAIR_BUDGET


def _empty_tensor(spec=DetectorGridSpec()):
    return np.zeros((spec.s, spec.s, spec.cell_values))


def _set_box(vals, row, col, slot, x, y, w, h, c, class_prob=None):
    vals[row, col, slot * 5 : slot * 5 + 5] = (x, y, w, h, c)
    if class_prob is not None:
        vals[row, col, -1] = class_prob


def _rows(dets):
    """The rows of a detection set as a list of 5-tuples of floats."""
    return [tuple(r) for r in dets.rows.tolist()]


class TestDetectionSet:
    def test_tuple_rows_become_read_only_array(self):
        dets = DetectionSet(((1, 2, 3, 4, 0.5), (5.5, 6, 7, 8.25, 1.0)))
        assert dets.rows.dtype == np.float64 and dets.rows.shape == (2, 5)
        assert len(dets) == 2
        with pytest.raises(ValueError):
            dets.rows[0, 0] = 0.0

    def test_empty(self):
        for empty in ((), [], np.zeros((0, 5))):
            assert DetectionSet(empty).rows.shape == (0, 5)

    @pytest.mark.parametrize("rows", [np.zeros((2, 4)), np.zeros(5), np.zeros((1, 5, 1))])
    def test_rejects_other_shapes(self, rows):
        with pytest.raises(ConfigError, match="must be"):
            DetectionSet(rows)

    @pytest.mark.parametrize(
        "bad, reason",
        [
            ((0, 0, float("nan"), 1, 0.5), r"non-finite box \(0\.0, 0\.0, nan, 1\.0\)"),
            ((0, 0, 1, float("inf"), 0.5), r"non-finite box"),
            ((1, 0, 1, 1, 0.5), r"degenerate box \(1\.0, 0\.0, 1\.0, 1\.0\)"),
            ((0, 2, 1, 1, 0.5), r"degenerate box"),
            ((0, 0, 1, 1, 1.5), r"box score 1\.5 outside \[0, 1\]"),
            ((0, 0, 1, 1, -0.1), r"box score -0\.1 outside"),
            ((0, 0, 1, 1, float("nan")), r"box score nan outside"),
            ((float("nan"), 0, 0, 1, 2.0), r"non-finite box"),  # first rule wins
        ],
    )
    def test_names_first_bad_row(self, bad, reason):
        good = (0, 0, 1, 1, 0.5)
        with pytest.raises(ConfigError, match=r"^row 2: " + reason):
            DetectionSet((good, good, bad, bad))


class TestDecode:
    @pytest.mark.parametrize(
        "class_prob, conf, score",
        [(0.8, 0.5, pytest.approx(0.4)), (1.0, 0.37, 0.37), (0.0, 0.9, 0.0)],
        ids=["product", "identity-class", "zero-annihilates"],
    )
    def test_score_is_class_prob_times_confidence(self, class_prob, conf, score):
        spec = DetectorGridSpec(1, 1, 1)
        vals = _empty_tensor(spec)
        _set_box(vals, 0, 0, 0, 0.5, 0.5, 0.5, 0.5, conf, class_prob=class_prob)
        dets = decode(GridPrediction(spec, GridShape(100, 100), vals), 0.0)
        assert _rows(dets) == [(25.0, 25.0, 75.0, 75.0, score)]

    def test_all_zero_tensor_empty(self):
        pred = GridPrediction(DetectorGridSpec(), GridShape(700, 700), _empty_tensor())
        assert len(decode(pred, 0.2)) == 0

    def test_center_cell_box(self):
        vals = _empty_tensor()
        _set_box(vals, 3, 3, 0, 0.5, 0.5, 1 / 7, 1 / 7, 1.0, class_prob=1.0)
        pred = GridPrediction(DetectorGridSpec(), GridShape(700, 700), vals)
        dets = decode(pred, 0.2)
        assert len(dets) == 1
        x_min, y_min, x_max, y_max, score = _rows(dets)[0]
        assert (x_min, y_min, x_max, y_max) == pytest.approx(
            (300.0, 300.0, 400.0, 400.0), abs=1e-9
        )
        assert score == 1.0

    def test_threshold_zero_emits_only_real_box(self):
        # zero cells decode to zero-extent boxes and are dropped even at
        # threshold 0, so only the populated slot survives
        vals = _empty_tensor()
        _set_box(vals, 1, 2, 0, 0.5, 0.5, 0.1, 0.1, 0.2, class_prob=0.5)
        pred = GridPrediction(DetectorGridSpec(), GridShape(700, 700), vals)
        dets = decode(pred, 0.0)
        assert len(dets) == 1
        assert dets.rows[0, 4] == pytest.approx(0.1)

    def test_emits_at_most_ssb_and_scores_above_threshold(self):
        rng = np.random.default_rng(0)
        spec = DetectorGridSpec()
        pred = GridPrediction(
            spec, GridShape(448, 448), rng.random((spec.s, spec.s, spec.cell_values))
        )
        dets = decode(pred, 0.3)
        assert len(dets) <= spec.s * spec.s * spec.b
        assert all(b[4] >= 0.3 for b in _rows(dets))

    def test_out_of_range_values_clamped_with_warning(self):
        vals = _empty_tensor()
        _set_box(vals, 0, 0, 0, 0.5, 0.5, 0.25, 0.25, 1.7, class_prob=1.0)
        pred = GridPrediction(DetectorGridSpec(), GridShape(700, 700), vals)
        dets = decode(pred, 0.2)
        assert dets.warnings
        assert dets.rows[0, 4] == 1.0

    def test_flat_length_mismatch(self):
        with pytest.raises(FormatError):
            GridPrediction(DetectorGridSpec(), GridShape(100, 100), np.zeros(17))

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
        for x_min, y_min, x_max, y_max, _ in _rows(decode(pred, 0.5)):
            cx = (x_min + x_max) / 2
            cy = (y_min + y_max) / 2
            col = int(cx * spec.s / shape.width)
            row = int(cy * spec.s / shape.height)
            x_off = cx * spec.s / shape.width - col
            y_off = cy * spec.s / shape.height - row
            assert vals[row, col, 0] == pytest.approx(x_off, abs=1e-6)
            assert vals[row, col, 1] == pytest.approx(y_off, abs=1e-6)


class TestIou:
    def test_identical(self):
        b = (3, 4, 10, 12, 0.5)
        assert iou(b, b) == 1.0

    def test_disjoint(self):
        assert iou((0, 0, 1, 1, 0.5), (5, 5, 6, 6, 0.5)) == 0.0

    def test_unit_squares_third(self):
        a = (0, 0, 1, 1, 0.5)
        b = (0.5, 0, 1.5, 1, 0.5)
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
        a = (ta[0], ta[1], ta[0] + ta[2], ta[1] + ta[3], 0.5)
        b = (tb[0], tb[1], tb[0] + tb[2], tb[1] + tb[3], 0.5)
        assert iou(a, b) == iou(b, a)
        assert 0.0 <= iou(a, b) <= 1.0


def _boxes_strategy():
    def build(t):
        x, y, w, h, s = t
        return (x, y, x + w, y + h, s)

    one = st.tuples(
        st.floats(0, 80), st.floats(0, 80), st.floats(1, 30), st.floats(1, 30), st.floats(0, 1)
    ).map(build)
    return st.lists(one, min_size=0, max_size=12).map(DetectionSet)


class TestNms:
    def test_single_box_unchanged(self):
        d = DetectionSet(((0, 0, 5, 5, 0.7),))
        assert _rows(nms(d, 0.5)) == _rows(d)

    def test_duplicate_suppressed(self):
        a = (0, 0, 10, 10, 0.9)
        b = (0, 0, 10, 10, 0.8)
        kept = _rows(nms(DetectionSet((b, a)), 0.5))
        assert kept == [a]

    def test_disjoint_all_kept(self):
        boxes = (
            (0, 0, 5, 5, 0.3),
            (10, 0, 15, 5, 0.9),
            (0, 10, 5, 15, 0.6),
        )
        assert len(nms(DetectionSet(boxes), 0.5)) == 3

    def test_score_tie_broken_by_x_min(self):
        a = (0, 0, 10, 10, 0.8)
        b = (0.5, 0, 10.5, 10, 0.8)
        assert _rows(nms(DetectionSet((b, a)), 0.5)) == [a]

    @given(_boxes_strategy(), st.floats(0.1, 0.9))
    @settings(max_examples=60, deadline=None)
    def test_idempotent_subset_pairwise(self, dets, thr):
        once = nms(dets, thr)
        twice = nms(once, thr)
        assert _rows(twice) == _rows(once)
        assert set(_rows(once)) <= set(_rows(dets))
        kept = _rows(once)
        for i in range(len(kept)):
            for j in range(i + 1, len(kept)):
                assert iou(kept[i], kept[j]) < thr


def _bits(dets):
    """Every box as the exact bit patterns of its five floats, in order."""
    return [tuple(float.hex(v) for v in row) for row in dets.rows.tolist()]


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
    return GridPrediction(spec, shape, np.reshape(flat, (spec.s, spec.s, spec.cell_values)))


@st.composite
def _box_sets(draw):
    """Boxes on a coarse grid with few score levels, so ties are common."""
    coord = st.one_of(st.integers(0, 12).map(float), st.floats(0, 12))
    extent = st.one_of(st.integers(1, 6).map(float), st.floats(0.5, 6))
    score = st.one_of(st.sampled_from([0.0, 0.3, 0.5, 0.9, 1.0]), st.floats(0, 1))

    def build(t):
        x, y, w, h, s = t
        return (x, y, x + w, y + h, s)

    boxes = draw(st.lists(st.tuples(coord, coord, extent, extent, score).map(build), max_size=25))
    if boxes:
        # exact duplicates and (score, x_min, y_min) ties with other extents
        for i in draw(st.lists(st.integers(0, len(boxes) - 1), max_size=5)):
            b = boxes[i]
            boxes.append(b if draw(st.booleans()) else (
                b[0], b[1], b[2] + 1.0, b[3] + 0.5, b[4]))
        boxes = draw(st.permutations(boxes))
    return DetectionSet(boxes)


class TestReferenceOracle:
    """The numpy decode / NMS / IoU against the scalar loops they replaced."""

    @given(_predictions(), _THRESHOLDS)
    @settings(max_examples=150, deadline=None)
    def test_decode_matches_reference(self, pred, thr):
        got, want = decode(pred, thr), decode_reference(pred, thr)
        assert got.warnings == want.warnings
        assert _bits(got) == _bits(want)

    def test_decode_score_exactly_at_threshold_kept(self):
        vals = _empty_tensor()
        _set_box(vals, 2, 4, 1, 0.5, 0.5, 0.1, 0.1, 0.25, class_prob=1.0)
        pred = GridPrediction(DetectorGridSpec(), GridShape(700, 700), vals)
        assert _bits(decode(pred, 0.25)) == _bits(decode_reference(pred, 0.25))
        assert len(decode(pred, 0.25)) == 1

    @given(_box_sets(), st.one_of(st.sampled_from([0.5, 1.0]), st.floats(0.01, 1)))
    @settings(max_examples=200, deadline=None)
    def test_nms_matches_reference(self, dets, thr):
        got, want = nms(dets, thr), nms_reference(dets, thr)
        assert _bits(got) == _bits(want)

    def test_full_tie_keeps_input_order(self):
        a = (0, 0, 10, 10, 0.8)
        b = (0, 0, 10, 9, 0.8)
        assert _rows(nms(DetectionSet((b, a)), 0.5)) == [b]
        assert _rows(nms(DetectionSet((a, b)), 0.5)) == [a]

    def test_iou_exactly_at_threshold_suppressed(self):
        a = (0, 0, 10, 10, 0.9)
        b = (0, 0, 10, 5, 0.8)
        assert iou(a, b) == iou_reference(a, b) == 0.5
        assert _rows(nms(DetectionSet((a, b)), 0.5)) == [a]
        assert _rows(nms_reference(DetectionSet((a, b)), 0.5)) == [a]

    @given(_box_sets())
    @settings(max_examples=60, deadline=None)
    def test_iou_matches_reference(self, dets):
        for a in _rows(dets)[:6]:
            for b in _rows(dets)[:6]:
                assert float.hex(iou(a, b)) == float.hex(iou_reference(a, b))


def _clustered_rows(rng, n, *, ties=False):
    """``n`` boxes on a 1080 x 720 frame in jittered duplicate clusters, near_tensor style.

    Each cluster has a source box and up to three copies shifted by up to
    a tenth of its size with lower scores. With ``ties`` every coordinate
    is rounded to a whole pixel and scores come from three levels, so full
    (score, x_min, y_min) ties and touching edges are common.
    """
    width, height = 1080.0, 720.0
    rows = []
    while len(rows) < n:
        size = rng.uniform(8.0, 60.0)
        x0, y0 = rng.uniform(0.0, width - size), rng.uniform(0.0, height - size)
        score = rng.uniform(0.5, 1.0)
        for _ in range(min(int(rng.integers(1, 5)), n - len(rows))):
            dx, dy = rng.uniform(-0.1, 0.1, 2) * size
            box = np.array([x0 + dx, y0 + dy, x0 + dx + size, y0 + dy + size])
            if ties:
                box = np.round(box)
            rows.append((*np.clip(box, 0.0, [width, height, width, height]), score))
            score = rng.choice([0.5, 0.75, 1.0]) if ties else score * rng.uniform(0.5, 1.0)
    return np.array(rows)[rng.permutation(n)]


def _assert_matches_both_oracles(dets, thr, budget=NMS_PAIR_BUDGET):
    with mock.patch.object(detect, "NMS_PAIR_BUDGET", budget):
        got = _bits(nms(dets, thr))
    assert got == _bits(nms_loop_reference(dets, thr))
    assert got == _bits(nms_reference(dets, thr))


# from one live candidate per round (budget 1) up to the default budget
_BUDGETS = (1, 64, 1024, NMS_PAIR_BUDGET)


@st.composite
def _sized_boxes(draw):
    """Boxes on a 1080 x 720 frame whose sides run from 1 to 1080 px (log-uniform)."""
    def in_frame(boxes):
        boxes = np.clip(boxes, 0.0, [1080.0, 720.0, 1080.0, 720.0])
        return boxes[(boxes[:, 2] > boxes[:, 0]) & (boxes[:, 3] > boxes[:, 1])]

    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 200))
    size = np.exp(rng.uniform(0.0, math.log(1080.0), (n, 2)))
    x0 = rng.uniform(-0.5, 1.0, n) * 1080.0
    y0 = rng.uniform(-0.5, 1.0, n) * 720.0
    rows = in_frame(np.column_stack([x0, y0, x0 + size[:, 0], y0 + size[:, 1]]))
    # a few jittered copies, so large boxes suppress as well as small ones
    copies = rows[rng.integers(0, max(len(rows), 1), len(rows) // 3)]
    jitter = rng.uniform(-0.1, 0.1, copies.shape) * np.tile(copies[:, 2:] - copies[:, :2], 2)
    boxes = np.concatenate([rows, in_frame(copies + jitter)])
    scores = rng.choice([0.5, 0.75, 1.0], len(boxes)) if draw(st.booleans()) else rng.uniform(
        0.0, 1.0, len(boxes))
    return DetectionSet(np.column_stack([boxes, scores]))


class TestRankBlockedNms:
    """The pair sweep, in rounds of ranked candidates, against the per-kept-box
    loop and the scalar loop."""

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 300),
        st.booleans(),
        st.one_of(st.sampled_from([0.5, 1.0]), st.floats(0.05, 1)),
    )
    @settings(max_examples=40, deadline=None)
    def test_clustered_sets_cross_blocks(self, seed, n, ties, thr):
        rows = _clustered_rows(np.random.default_rng(seed), n, ties=ties)
        _assert_matches_both_oracles(DetectionSet(rows), thr)

    @given(_sized_boxes(), st.one_of(st.sampled_from([0.5, 1.0]), st.floats(0.05, 1)),
           st.sampled_from(_BUDGETS))
    @settings(max_examples=60, deadline=None)
    def test_box_sizes_from_one_pixel_to_the_frame(self, dets, thr, budget):
        _assert_matches_both_oracles(dets, thr, budget)

    @pytest.mark.parametrize("n", [63, 64, 65, 128, 129])
    @pytest.mark.parametrize("thr", [0.5, 1.0])
    @pytest.mark.parametrize("ties", [False, True])
    def test_block_edge_sizes(self, n, thr, ties):
        # each budget puts round edges in other places, budget 1 after every candidate
        for budget in _BUDGETS:
            for seed in range(3):
                rows = _clustered_rows(np.random.default_rng(seed), n, ties=ties)
                _assert_matches_both_oracles(DetectionSet(rows), thr, budget)

    @pytest.mark.parametrize("thr", [0.5, 1.0])
    def test_full_ties_across_blocks(self, thr):
        # one (score, x_min, y_min) for all; extents differ, so input order decides.
        # Every pair overlaps, so each box costs n - 1 pairs of the budget and
        # the first round holds fewer than n / 2 of the n tied boxes.
        rng = np.random.default_rng(7)
        n = 2 * math.isqrt(NMS_PAIR_BUDGET) + 3
        assert NMS_PAIR_BUDGET // (n - 1) < n // 2
        ext = rng.integers(1, 4, size=(n, 2)).astype(float)
        rows = np.column_stack([np.full(len(ext), 5.0), np.full(len(ext), 5.0),
                                5.0 + ext[:, 0], 5.0 + ext[:, 1], np.full(len(ext), 0.5)])
        _assert_matches_both_oracles(DetectionSet(rows), thr)

    @pytest.mark.parametrize("thr", [0.5, 1.0])
    def test_touching_boxes_all_kept(self, thr):
        # a 12 x 12 grid of unit cells sharing edges: ix or iy is exactly 0
        xs, ys = np.meshgrid(np.arange(12.0), np.arange(12.0))
        rows = np.column_stack([xs.ravel(), ys.ravel(), xs.ravel() + 1, ys.ravel() + 1,
                                np.linspace(0.1, 0.9, xs.size)])
        dets = DetectionSet(rows[::-1])
        _assert_matches_both_oracles(dets, thr)
        assert len(nms(dets, thr)) == len(rows)

    def test_threshold_one_drops_only_exact_duplicates(self):
        rows = _clustered_rows(np.random.default_rng(3), 150)
        dets = DetectionSet(np.concatenate([rows, rows[:40]]))
        _assert_matches_both_oracles(dets, 1.0)
        assert len(nms(dets, 1.0)) == len(rows)


_MAX_CANDIDATES = 32 * 32 * 4  # every slot of an S=32, B=4 tensor


def _identical_boxes():
    return np.tile([100.0, 100.0, 140.0, 150.0, 0.8], (_MAX_CANDIDATES, 1))


def _thin_full_width_boxes():
    rng = np.random.default_rng(11)
    y0 = np.sort(rng.uniform(0.0, 700.0, _MAX_CANDIDATES))
    return np.column_stack([np.zeros_like(y0), y0, np.full_like(y0, 1080.0), y0 + 1.0,
                            rng.uniform(0.2, 1.0, y0.size)])


def _one_frame_box_among_small():
    rows = _clustered_rows(np.random.default_rng(13), _MAX_CANDIDATES - 1)
    return np.concatenate([[[0.0, 0.0, 1080.0, 720.0, 0.6]], rows])


@pytest.mark.parametrize("make", [_identical_boxes, _thin_full_width_boxes,
                                  _one_frame_box_among_small],
                         ids=["identical", "thin-full-width", "one-frame-box"])
def test_nms_bounded_cost_at_most_candidates(make):
    """No O(n^2) memory: the largest decodable set stays under 8 MB and 1 s."""
    dets = DetectionSet(make())
    want = _bits(nms_loop_reference(dets, 0.5))
    tracemalloc.start()
    try:
        t0 = time.perf_counter()
        got = nms(dets, 0.5)
        elapsed = time.perf_counter() - t0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert _bits(got) == want
    assert peak < 8 * 2**20
    assert elapsed < 1.0


class TestThresholdValidation:
    @pytest.mark.parametrize("thr", [float("nan"), -3.0, -1e-9, 1.0 + 1e-9])
    def test_decode_rejects(self, thr):
        pred = GridPrediction(DetectorGridSpec(), GridShape(70, 70), _empty_tensor())
        with pytest.raises(ConfigError):
            decode(pred, thr)

    @pytest.mark.parametrize("thr", [float("nan"), 0.0, -0.5, 1.0 + 1e-9])
    def test_nms_rejects(self, thr):
        disjoint = DetectionSet(((0, 0, 1, 1, 0.5), (5, 5, 6, 6, 0.4)))
        with pytest.raises(ConfigError):
            nms(disjoint, thr)

    def test_bounds_accepted(self):
        pred = GridPrediction(DetectorGridSpec(), GridShape(70, 70), _empty_tensor())
        assert len(decode(pred, 0.0)) == len(decode(pred, 1.0)) == 0
        disjoint = DetectionSet(((0, 0, 1, 1, 0.5), (5, 5, 6, 6, 0.4)))
        assert len(nms(disjoint, 1.0)) == 2
