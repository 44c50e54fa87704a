import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from digcrowd import (
    ConfigError,
    DetectionSet,
    evaluate_pairs,
    fuse,
    mae,
    mse,
)


def _dets(n):
    return DetectionSet(
        tuple((i * 12.0, 0.0, i * 12.0 + 10.0, 10.0, 0.9) for i in range(n))
    )


class TestFuse:
    def test_addition(self):
        est = fuse(_dets(12), 30.4, "s", ground_truth=42.0)
        assert est.near_count == 12
        assert est.total == pytest.approx(42.4)

    def test_empty_scene(self):
        assert fuse(_dets(0), 0.0, "s").total == 0.0

    def test_near_only(self):
        assert fuse(_dets(5), 0.0, "s").total == 5.0

    def test_negative_far_rejected(self):
        with pytest.raises(ConfigError):
            fuse(_dets(1), -0.1, "s")

    def test_far_additivity(self):
        a = fuse(_dets(4), 3.5, "s").total + fuse(_dets(0), 2.5, "s").total
        b = fuse(_dets(4), 6.0, "s").total
        assert a == b


class TestMae:
    def test_fixture(self):
        assert mae([(10, 12), (20, 17)]) == pytest.approx(2.5, abs=1e-12)

    def test_perfect(self):
        assert mae([(3, 3), (7, 7)]) == 0.0

    def test_single_pair(self):
        assert mae([(0, 5)]) == 5.0

    def test_empty_errors(self):
        with pytest.raises(ConfigError):
            mae([])


class TestMse:
    def test_fixture_includes_square_root(self):
        assert mse([(10, 12), (20, 17)]) == pytest.approx(math.sqrt(6.5), abs=1e-12)

    def test_perfect(self):
        assert mse([(1, 1), (2, 2)]) == 0.0

    def test_clamped_counts_fixture(self):
        assert mse([(0, 3), (4, 4)]) == pytest.approx(math.sqrt(4.5), abs=1e-12)

    def test_empty_errors(self):
        with pytest.raises(ConfigError):
            mse([])


pairs_strategy = st.lists(
    st.tuples(st.floats(0, 500), st.floats(0, 500)), min_size=1, max_size=30
)


class TestBatchProperties:
    @given(pairs_strategy)
    @settings(max_examples=80, deadline=None)
    def test_mse_dominates_mae(self, pairs):
        assert mse(pairs) >= mae(pairs) - 1e-12

    @given(pairs_strategy, st.randoms())
    @settings(max_examples=40, deadline=None)
    def test_permutation_invariance(self, pairs, rnd):
        shuffled = list(pairs)
        rnd.shuffle(shuffled)
        assert mae(shuffled) == pytest.approx(mae(pairs), rel=1e-12, abs=1e-12)
        assert mse(shuffled) == pytest.approx(mse(pairs), rel=1e-12, abs=1e-12)

    def test_record_fields(self):
        rec = evaluate_pairs([(10, 12), (20, 17)])
        assert rec.n == 2
        assert rec.mae == pytest.approx(2.5)
        assert rec.mse == pytest.approx(math.sqrt(6.5))
        assert rec.mae <= rec.mse

    def test_zero_iff_all_equal(self):
        rec = evaluate_pairs([(4, 4), (9, 9)])
        assert rec.mae == 0.0 and rec.mse == 0.0
        rec = evaluate_pairs([(4, 5), (9, 9)])
        assert rec.mae > 0.0 and rec.mse > 0.0
