"""Property tests for the QoE numeric kernels against naive references.

* ``PiecewiseCurve.score`` -- the MOS curves: linear interpolation
  between breakpoints, monotone in the curve's direction, clamped at
  both end points, exact at every breakpoint.
* ``percentile`` -- nearest rank, checked against an exact
  :class:`fractions.Fraction` computation of ``ceil(q * n / 100)``.
"""

import math
from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

from repro.qoe import PiecewiseCurve, percentile

finite = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)

#: ``-1.0 + (s1 - -1.0)`` rounds to 0.0, not to ``s1``: interpolating up
#: to a breakpoint overshoots its score, here past the next segment's.
OVERSHOOT = ([(0.0, -1.0), (1.0, -6.093990286091074e-154), (2.0, 0.0)], 1)


@st.composite
def curves(draw):
    """Points of a curve with distinct breakpoints and monotone scores,
    plus its direction (+1 rising, -1 falling)."""
    xs = sorted(draw(st.lists(finite, min_size=2, max_size=8, unique=True)))
    scores = sorted(draw(st.lists(finite, min_size=len(xs), max_size=len(xs))))
    direction = draw(st.sampled_from((1, -1)))
    if direction < 0:
        scores.reverse()
    return list(zip(xs, scores)), direction


def naive_score(points, value):
    """Linear interpolation on the segment holding ``value``, clamped,
    in exact rationals (floats would underflow on tiny segments)."""
    if value <= points[0][0]:
        return points[0][1]
    if value >= points[-1][0]:
        return points[-1][1]
    for (x0, s0), (x1, s1) in zip(points, points[1:]):
        if x0 <= value <= x1:
            x0, s0, x1, s1, v = map(Fraction, (x0, s0, x1, s1, value))
            return float(s0 + (v - x0) * (s1 - s0) / (x1 - x0))
    raise AssertionError("value outside every segment")


@given(curves(), finite)
def test_score_matches_naive_interpolation(points_and_direction, value):
    points, _ = points_and_direction
    expected = naive_score(points, value)
    span = max(abs(s) for _, s in points)
    got = PiecewiseCurve(points).score(value)
    assert math.isclose(got, expected, rel_tol=1e-9, abs_tol=1e-9 * span)


@given(curves(), finite, finite)
@example(OVERSHOOT, 1.0, 1.5)
def test_score_is_monotone_in_the_curve_direction(points_and_direction, a, b):
    points, direction = points_and_direction
    curve = PiecewiseCurve(points)
    low, high = sorted((a, b))
    if direction > 0:
        assert curve.score(low) <= curve.score(high)
    else:
        assert curve.score(low) >= curve.score(high)


@given(curves(), st.floats(min_value=0.0, max_value=1e6, allow_nan=False))
def test_score_clamps_at_both_end_points(points_and_direction, beyond):
    points, _ = points_and_direction
    curve = PiecewiseCurve(points)
    (first_x, first_s), (last_x, last_s) = points[0], points[-1]
    assert curve.score(first_x - beyond) == first_s
    assert curve.score(last_x + beyond) == last_s


@given(curves())
@example(OVERSHOOT)
def test_score_is_exact_at_breakpoints(points_and_direction):
    points, _ = points_and_direction
    curve = PiecewiseCurve(points)
    for x, s in points:
        assert curve.score(x) == s


def reference_percentile(values, q):
    ordered = sorted(values)
    rank = math.ceil(Fraction(q) * len(ordered) / 100)
    return ordered[max(0, rank - 1)]


@settings(max_examples=300)
# In floats, q / 100.0 * 100 rounds above q for these q.
@example(list(range(1, 101)), 7.0)
@example(list(range(1, 101)), 14.0)
@example(list(range(1, 101)), 28.0)
@example(list(range(1, 101)), 55.0)
@example(list(range(1, 101)), 56.0)
@example(list(range(1, 101)), 68.0)
@given(
    st.lists(st.integers(min_value=-1000, max_value=1000), min_size=1, max_size=300),
    st.one_of(
        st.integers(min_value=0, max_value=100).map(float),
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
    ),
)
def test_percentile_matches_exact_nearest_rank(values, q):
    assert percentile(values, q) == reference_percentile(values, q)
