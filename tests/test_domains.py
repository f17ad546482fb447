import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cardest.domains import (NumericRemap, build_numeric_remap, clamp_interval,
                             remap_array)
from cardest.errors import GapError, ValidationError

GAP_REMAP = NumericRemap(0.0, 100.0, ((0.0, 40.0), (60.0, 100.0)))


@st.composite
def remaps(draw):
    """Random remaps of [0, 100]: consecutive pairs of sorted cut points are
    the retained subranges (possibly touching, possibly single points)."""
    cuts = sorted(draw(st.lists(st.floats(0.0, 100.0), min_size=2, max_size=10)))
    try:
        return NumericRemap(0.0, 100.0, tuple(zip(cuts[0::2], cuts[1::2])))
    except ValidationError:
        assume(False)


class TestRemapValue:
    def test_second_subrange(self):
        assert remap_array(GAP_REMAP, [70.0])[0] == pytest.approx(62.5, abs=1e-12)

    def test_first_subrange(self):
        assert remap_array(GAP_REMAP, [20.0])[0] == pytest.approx(25.0, abs=1e-12)

    def test_boundary_coincidence(self):
        # both sides of the gap map to the same point; the map is
        # nondecreasing but not strictly increasing
        np.testing.assert_allclose(remap_array(GAP_REMAP, [40.0, 60.0]), [50.0, 50.0],
                                   atol=1e-12)

    def test_lower_bound_fixed(self):
        assert remap_array(GAP_REMAP, [0.0])[0] == 0.0

    def test_gap_raises(self):
        with pytest.raises(GapError):
            remap_array(GAP_REMAP, [50.0])

    def test_identity_when_no_gaps(self):
        ident = NumericRemap(0.0, 10.0, ((0.0, 10.0),))
        xs = [0.0, 3.3, 10.0]
        np.testing.assert_allclose(remap_array(ident, xs), xs, atol=1e-12)

    @given(st.lists(st.floats(0.0, 40.0), min_size=2, max_size=8),
           st.lists(st.floats(60.0, 100.0), min_size=0, max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_monotone(self, left, right):
        ys = remap_array(GAP_REMAP, sorted(left + right))
        assert (np.diff(ys) >= -1e-12).all()

    def test_image_is_gap_free(self):
        # subrange images tile [lo, hi] without holes
        starts = remap_array(GAP_REMAP, [a for a, _ in GAP_REMAP.subranges])
        ends = remap_array(GAP_REMAP, [b for _, b in GAP_REMAP.subranges])
        assert starts[0] == 0.0 and ends[-1] == 100.0
        assert ends[0] == starts[1]


class TestBuildRemap:
    def test_detects_gap_from_values(self):
        vals = np.concatenate([np.arange(0, 41), np.arange(60, 101)]).astype(float)
        remap = build_numeric_remap(0.0, 100.0, vals, gap_threshold=1.0 / 64)
        assert remap.subranges == ((0.0, 40.0), (60.0, 100.0))

    def test_no_gap_gives_identity(self):
        vals = np.arange(0, 101).astype(float)
        remap = build_numeric_remap(0.0, 100.0, vals, gap_threshold=1.0 / 64)
        assert remap.is_identity

    def test_boundary_slack_absorbed(self):
        # values start just above lo: slack below threshold extends to lo
        vals = np.arange(1, 101).astype(float)
        remap = build_numeric_remap(0.0, 100.0, vals, gap_threshold=0.05)
        assert remap.is_identity

    def test_isolated_values_get_padded(self):
        vals = np.array([10.0, 30.0, 50.0, 90.0])
        remap = build_numeric_remap(0.0, 100.0, vals, gap_threshold=1.0 / 10)
        assert remap.retained_length > 0
        remap_array(remap, vals)  # every retained value lies in a subrange

    def test_empty_retained_rejected(self):
        with pytest.raises(ValidationError):
            build_numeric_remap(0.0, 100.0, np.array([]), gap_threshold=0.1)


class TestClampInterval:
    def test_inside_gap_is_empty(self):
        assert clamp_interval(GAP_REMAP, 50.0, 55.0) is None

    def test_straddling_gap(self):
        lo, hi = clamp_interval(GAP_REMAP, 30.0, 70.0)
        assert lo == pytest.approx(37.5, abs=1e-12)
        assert hi == pytest.approx(62.5, abs=1e-12)

    def test_within_one_subrange_keeps_values(self):
        lo, hi = clamp_interval(GAP_REMAP, 10.0, 20.0)
        assert (lo, hi) == tuple(remap_array(GAP_REMAP, [10.0, 20.0]))

    def test_endpoints_pulled_inward(self):
        lo, hi = clamp_interval(GAP_REMAP, 45.0, 70.0)
        # lower endpoint clamps up to 60, which shares 40's image
        assert lo == pytest.approx(50.0, abs=1e-12)
        assert hi == pytest.approx(62.5, abs=1e-12)


class TestRemapArray:
    def test_matches_scalar(self):
        # the scalar images of TestRemapValue, mapped as one array
        xs = np.array([0.0, 20.0, 40.0, 60.0, 70.0, 100.0])
        out = remap_array(GAP_REMAP, xs)
        np.testing.assert_allclose(out, [0.0, 25.0, 50.0, 50.0, 62.5, 100.0], atol=1e-12)

    def test_gap_error(self):
        with pytest.raises(GapError):
            remap_array(GAP_REMAP, np.array([50.0]))

    def test_clamp_picks_nearest_boundary(self):
        out = remap_array(GAP_REMAP, np.array([41.0, 59.0]), on_gap="clamp")
        np.testing.assert_allclose(out, remap_array(GAP_REMAP, [40.0, 60.0]))


class TestRemapProperties:
    def test_unscalable_retained_length_rejected(self):
        # (hi - lo) / 1e-313 overflows, and every image would be nan
        with pytest.raises(ValidationError, match="too short"):
            NumericRemap(0.0, 100.0, ((0.0, 1e-313),))

    @given(remaps(), st.lists(st.floats(0.0, 100.0), min_size=2, max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_remap_array_nondecreasing(self, remap, xs):
        # gap values clamp to a boundary, whose image both neighbours share
        out = remap_array(remap, np.sort(xs), on_gap="clamp")
        assert (np.diff(out) >= 0.0).all()

    @given(remaps())
    @settings(max_examples=100, deadline=None)
    def test_subrange_images_tile_the_range(self, remap):
        starts = remap_array(remap, [a for a, _ in remap.subranges])
        ends = remap_array(remap, [b for _, b in remap.subranges])
        assert starts[0] == remap.lo and ends[-1] == pytest.approx(remap.hi)
        assert (ends[:-1] == starts[1:]).all()

    @given(remaps(), st.floats(0.0, 100.0), st.floats(0.0, 100.0))
    @settings(max_examples=100, deadline=None)
    def test_clamp_interval_endpoints_are_retained_images(self, remap, a, b):
        lo, hi = min(a, b), max(a, b)
        # the least and greatest retained points of [lo, hi] are among these
        candidates = [x for x in (lo, hi, *np.ravel(remap.subranges))
                      if lo <= x <= hi and any(a <= x <= b for a, b in remap.subranges)]
        out = clamp_interval(remap, lo, hi)
        if not candidates:
            assert out is None
            return
        images = remap_array(remap, candidates)
        assert out == (images.min(), images.max())
