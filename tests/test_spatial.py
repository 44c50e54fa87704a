import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from spatial_reference import apply_spatial_constraint_reference

from digcrowd import (
    DetectionSet,
    GridShape,
    Polyline,
    apply_spatial_constraint,
    mask_from_polyline,
)


def _box_at(xc, yc, size=10.0, score=0.8):
    h = size / 2
    return (xc - h, yc - h, xc + h, yc + h, score)


class TestApplySpatialConstraint:
    def test_center_above_line_deleted(self):
        p = Polyline.constant(100.0, x_end=200.0)
        rep = apply_spatial_constraint(DetectionSet((_box_at(50, 65),)), p)
        assert len(rep.kept) == 0
        assert len(rep.deleted) == 1
        assert rep.deleted.rows.tolist() == [list(_box_at(50, 65))]

    def test_center_on_line_kept(self):
        p = Polyline.constant(100.0, x_end=200.0)
        rep = apply_spatial_constraint(DetectionSet((_box_at(50, 100),)), p)
        assert len(rep.kept) == 1
        assert not len(rep.deleted)

    def test_empty_set(self):
        p = Polyline.constant(100.0, x_end=200.0)
        rep = apply_spatial_constraint(DetectionSet(()), p)
        assert not len(rep.kept) and not len(rep.deleted)

    def test_out_of_domain_kept_and_flagged(self):
        p = Polyline.constant(50.0, x_end=100.0)
        rep = apply_spatial_constraint(DetectionSet((_box_at(150, 10),)), p)
        assert len(rep.kept) == 1
        assert rep.warnings

    def test_partition_and_idempotence(self):
        rng = np.random.default_rng(17)
        ys = np.sort(rng.uniform(20, 130, 6))
        p = Polyline.from_points(np.linspace(0, 200, 6), ys)
        boxes = tuple(
            _box_at(rng.uniform(5, 195), rng.uniform(5, 145), size=8)
            for _ in range(200)
        )
        dets = DetectionSet(boxes)
        rep = apply_spatial_constraint(dets, p)
        assert len(rep.kept) + len(rep.deleted) == len(dets)
        again = apply_spatial_constraint(rep.kept, p)
        assert np.array_equal(again.kept.rows, rep.kept.rows)
        assert not len(again.deleted)

    def test_matches_mask_oracle_away_from_line(self):
        # rasterized-region oracle: the label of the sample point nearest
        # the center must agree with the analytic rule outside a 0.5 px
        # band around the line (band measured at both sample abscissae)
        rng = np.random.default_rng(23)
        shape = GridShape(160, 120)
        checked = 0
        for _ in range(200):
            xs = np.linspace(0, shape.width, 6)
            slopes_ok = False
            while not slopes_ok:
                ys = np.sort(rng.uniform(10, 110, 6))
                if rng.random() < 0.5:
                    ys = ys[::-1]
                slopes_ok = np.all(np.abs(np.diff(ys) / np.diff(xs)) <= 1.0)
            p = Polyline.from_points(xs, ys)
            mask = mask_from_polyline(p, shape)
            xc = rng.uniform(3, shape.width - 3)
            yc = rng.uniform(3, shape.height - 3)
            ix = int(np.clip(np.floor(xc), 0, shape.width - 1))
            iy = int(np.clip(np.floor(yc), 0, shape.height - 1))
            if abs(yc - p.eval(xc)) < 0.5 or abs(yc - p.eval(ix + 0.5)) < 0.5:
                continue
            checked += 1
            rep = apply_spatial_constraint(DetectionSet((_box_at(xc, yc, 4),)), p)
            deleted = len(rep.deleted) == 1
            assert deleted == bool(mask.far[iy, ix])
        assert checked > 100


def _bits(dets):
    """Every row as the exact bit patterns of its five floats, in order."""
    return [tuple(float.hex(v) for v in row) for row in dets.rows.tolist()]


@st.composite
def _scenes(draw):
    """A multi-segment line plus boxes centered on, near and off it.

    Knots are integers and line values stay inside [128, 256), so a box
    spanning +-0.5 around a knot and a line value has exactly that center:
    centers land on the line, on knots and on both domain ends.
    """
    n = draw(st.integers(2, 6))
    steps = draw(st.lists(st.integers(1, 80), min_size=n - 1, max_size=n - 1))
    xs = np.cumsum([draw(st.integers(-40, 40))] + steps).astype(np.float64)
    ys = draw(st.lists(st.floats(130.0, 250.0), min_size=n, max_size=n))
    p = Polyline.from_points(xs, ys)
    lo, hi = p.domain

    on_grid = st.one_of(st.sampled_from(xs.tolist()), st.integers(int(lo), int(hi)).map(float))
    outside = st.one_of(
        st.floats(lo - 60.0, lo, exclude_max=True), st.floats(hi, hi + 60.0, exclude_min=True)
    )
    center_x = st.one_of(on_grid, st.floats(lo, hi), outside)
    rows = []
    for kind, xc, dy in draw(
        st.lists(
            st.tuples(st.sampled_from(["on", "near", "free"]), center_x, st.floats(-3.0, 3.0)),
            max_size=20,
        )
    ):
        if lo <= xc <= hi and kind != "free":
            yc = p.eval(xc) + (dy if kind == "near" else 0.0)
        else:
            yc = draw(st.floats(100.0, 280.0))
        rows.append((xc - 0.5, yc - 0.5, xc + 0.5, yc + 0.5, draw(st.floats(0.0, 1.0))))
    if rows:
        for i in draw(st.lists(st.integers(0, len(rows) - 1), max_size=4)):
            rows.append(rows[i])
        rows = draw(st.permutations(rows))
    return DetectionSet(rows, warnings=("upstream",)), p


class TestReferenceOracle:
    """The vectorized spatial filter against the per-box loop it replaced."""

    @given(_scenes())
    @settings(max_examples=300, deadline=None)
    def test_matches_reference(self, scene):
        dets, p = scene
        got = apply_spatial_constraint(dets, p)
        want = apply_spatial_constraint_reference(dets, p)
        assert _bits(got.kept) == _bits(want.kept)
        assert _bits(got.deleted) == _bits(want.deleted)
        assert got.warnings == want.warnings
        assert got.kept.warnings == want.kept.warnings == ("upstream",)

    def test_knot_rounding_follows_segment_index(self):
        # at an interior knot the two segments meeting there can round to
        # different y; the filter must use the row that owns the knot (the
        # second: intervals are half-open)
        p = Polyline.from_points([0.0, 3.0, 10.0], [130.1, 233.9, 160.4])
        left = p.segments[0, 2] * 3.0 + p.segments[0, 3]
        right = p.segments[1, 2] * 3.0 + p.segments[1, 3]
        assert left != right
        for yc in (left, right):
            dets = DetectionSet(((2.5, yc - 0.5, 3.5, yc + 0.5, 0.5),))
            got = apply_spatial_constraint(dets, p)
            want = apply_spatial_constraint_reference(dets, p)
            assert _bits(got.deleted) == _bits(want.deleted)
        assert len(apply_spatial_constraint(
            DetectionSet(((2.5, right - 0.5, 3.5, right + 0.5, 0.5),)), p).deleted) == 0
