"""Unit tests for the repro.scale fluid engine, planner, and sharding."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cli import main
from repro.platforms.profiles import get_profile
from repro.scale import fluid
from repro.scale import (
    ARCHITECTURES,
    PiecewiseConstant,
    ScaleScenario,
    capacity_table,
    churn_occupancy,
    fluid_queue,
    metaverse_scale_experiment,
    plan_capacity,
    room_model,
    run_sharded,
    shard_ranges,
    simulate_room,
    simulate_shard,
)


# ----------------------------------------------------------------------
# PiecewiseConstant
# ----------------------------------------------------------------------
def test_piecewise_validation():
    with pytest.raises(ValueError):
        PiecewiseConstant([0.0, 1.0], [1.0, 2.0])  # length mismatch
    with pytest.raises(ValueError):
        PiecewiseConstant([0.0, 1.0, 1.0], [1.0, 2.0])  # not ascending


def test_piecewise_evaluation_and_integral():
    f = PiecewiseConstant([0.0, 10.0, 20.0], [5.0, 2.0])
    assert f.at(-1.0) == 0.0  # outside domain
    assert f.at(0.0) == 5.0
    assert f.at(9.999) == 5.0
    assert f.at(10.0) == 2.0  # right-open boundaries
    assert f.at(20.0) == 0.0
    assert f.integral() == pytest.approx(5.0 * 10 + 2.0 * 10)
    assert f.integral(5.0, 15.0) == pytest.approx(5.0 * 5 + 2.0 * 5)
    assert f.mean() == pytest.approx(3.5)
    assert f.peak() == 5.0


def test_piecewise_map_add_bins():
    f = PiecewiseConstant([0.0, 10.0], [3.0])
    g = PiecewiseConstant([5.0, 15.0], [1.0])
    h = f + g
    assert h.at(2.0) == 3.0
    assert h.at(7.0) == 4.0
    assert h.at(12.0) == 1.0
    assert h.integral() == pytest.approx(f.integral() + g.integral())
    doubled = f.map(lambda v: v * 2)
    assert doubled.integral() == pytest.approx(60.0)
    bins = f.bins(0.0, 10.0, 2.5)
    assert len(bins) == 4
    assert np.allclose(bins, 7.5)
    series = f.scaled(8.0).to_series(0.0, 10.0, 1.0)
    assert series.bps.mean() == pytest.approx(24.0)


def test_piecewise_rejects_nan_breakpoints():
    with pytest.raises(ValueError, match="strictly ascending"):
        PiecewiseConstant([0.0, math.nan, 2.0], [1.0, 1.0])
    with pytest.raises(ValueError, match="strictly ascending"):
        PiecewiseConstant([math.nan, 1.0], [1.0])


@pytest.mark.parametrize("bin_s", [0, 0.0, -1, math.nan, math.inf, -math.inf])
def test_bins_rejects_bad_bin_width(bin_s):
    with pytest.raises(ValueError, match="bin_s"):
        PiecewiseConstant([0, 1], [1.0]).bins(0, 1, bin_s)


def _reference_bins(f, start, end, bin_s):
    n_bins = int(math.ceil((end - start) / bin_s))
    los = [start + index * bin_s for index in range(n_bins)]
    return np.array([f.integral(lo, min(end, lo + bin_s)) for lo in los])


_finite = dict(allow_nan=False, allow_infinity=False)


@st.composite
def _binning_cases(draw):
    """A window, a bin width, and step functions sharing one breakpoint set.

    Breakpoints mix exact bin edges (``start + k * bin_s``, the
    expression ``bins`` uses) with free floats, so segments narrower
    than a bin and segments spanning many bins both occur; the domain
    may begin before or end after the window, and the window need not
    be a multiple of ``bin_s``.
    """
    bin_s = draw(st.sampled_from([0.1, 1.0, 2.5, 5.0]) | st.floats(0.05, 20.0, **_finite))
    start = draw(st.floats(-20.0, 20.0, **_finite))
    end = start + draw(st.floats(0.01, 60.0, **_finite))
    edges = [start + k * bin_s for k in draw(st.lists(st.integers(-3, 40), max_size=8))]
    free = draw(st.lists(st.floats(-40.0, 100.0, **_finite), max_size=12))
    times = sorted(set(edges + free))
    if len(times) < 2:
        times = [start, end]
    segment_values = st.lists(
        st.floats(-1e6, 1e6, **_finite),
        min_size=len(times) - 1,
        max_size=len(times) - 1,
    )
    functions = [
        PiecewiseConstant(times, draw(segment_values))
        for _ in range(draw(st.integers(1, 3)))
    ]
    return functions, start, end, bin_s


@settings(max_examples=300, deadline=None)
@given(_binning_cases())
def test_bins_match_naive_integral_bit_for_bit(case):
    functions, start, end, bin_s = case
    hits = fluid._bin_overlaps.cache_info().hits
    for f in functions:
        expected = _reference_bins(f, start, end, bin_s)
        got = f.bins(start, end, bin_s)
        assert got.dtype == expected.dtype
        assert got.tobytes() == expected.tobytes()
    # Every function after the first reuses the memoized overlap table.
    assert fluid._bin_overlaps.cache_info().hits >= hits + len(functions) - 1


def test_bins_partial_last_bin_and_window_past_domain():
    f = PiecewiseConstant([1.0, 2.0, 2.25, 7.0], [4.0, 8.0, 1.0])
    got = f.bins(0.0, 9.0, 2.0)  # five bins, the last 1 s wide
    assert got.tobytes() == _reference_bins(f, 0.0, 9.0, 2.0).tobytes()
    assert got.tolist() == [4.0, 2.0 + 1.75, 2.0, 1.0, 0.0]


def test_simulate_room_shares_named_models_without_changing_results():
    named = simulate_room("vrchat", 10, 120.0, rng=random.Random(5))
    profiled = simulate_room(get_profile("vrchat"), 10, 120.0, rng=random.Random(5))
    assert named.egress_bps.values == profiled.egress_bps.values
    assert named.viewer_down_bps.values == profiled.viewer_down_bps.values
    hits = fluid._named_room_model.cache_info().hits
    simulate_room("vrchat", 10, 120.0, rng=random.Random(5))
    assert fluid._named_room_model.cache_info().hits > hits


# ----------------------------------------------------------------------
# fluid_queue
# ----------------------------------------------------------------------
def test_fluid_queue_pass_through():
    arrival = PiecewiseConstant([0.0, 10.0], [4.0])
    result = fluid_queue(arrival, capacity_units_per_s=10.0)
    assert result.served_units == pytest.approx(arrival.integral())
    assert result.dropped_units == 0.0
    assert result.max_backlog == 0.0


def test_fluid_queue_conservation_with_residual_backlog():
    # Burst above capacity: backlog builds, then drains, and whatever is
    # left at the horizon is neither served nor dropped.
    arrival = PiecewiseConstant([0.0, 10.0, 20.0, 30.0], [5.0, 20.0, 5.0])
    result = fluid_queue(arrival, capacity_units_per_s=10.0)
    residual = result.backlog_values[-1]
    assert result.offered_units == pytest.approx(
        result.served_units + result.dropped_units + residual
    )
    assert result.max_backlog == pytest.approx(100.0)  # (20-10) * 10 s
    assert result.max_delay_s(10.0) == pytest.approx(10.0)
    # The served function never exceeds capacity.
    assert max(result.served.values) <= 10.0 + 1e-9


def test_fluid_queue_bounded_buffer_drops():
    arrival = PiecewiseConstant([0.0, 10.0], [20.0])
    result = fluid_queue(arrival, capacity_units_per_s=10.0, buffer_units=25.0)
    # Buffer fills after 2.5 s; the remaining 7.5 s drop 10 units/s.
    assert result.max_backlog == pytest.approx(25.0)
    assert result.dropped_units == pytest.approx(75.0)
    assert 0.0 < result.loss_fraction < 1.0
    with pytest.raises(ValueError):
        fluid_queue(arrival, capacity_units_per_s=-1.0)


# ----------------------------------------------------------------------
# churn occupancy
# ----------------------------------------------------------------------
def test_churn_occupancy_bounds_and_determinism():
    target = 20
    occ1 = churn_occupancy(random.Random(7), target, 600.0)
    occ2 = churn_occupancy(random.Random(7), target, 600.0)
    assert occ1.times == occ2.times and occ1.values == occ2.values
    assert occ1.values[0] == float(target)
    assert min(occ1.values) >= 3.0
    assert max(occ1.values) <= float(target + 3)
    with pytest.raises(ValueError):
        churn_occupancy(random.Random(0), 0, 60.0)


# ----------------------------------------------------------------------
# room model + fluid room
# ----------------------------------------------------------------------
def test_room_model_validation():
    with pytest.raises(ValueError):
        room_model("vrchat", 5, "broadcast")
    with pytest.raises(ValueError):
        room_model("vrchat", 0)


def test_room_model_architectures_differ():
    n = 20
    forwarding = room_model("vrchat", n, "forwarding")
    p2p = room_model("vrchat", n, "p2p")
    interest = room_model("vrchat", n, "interest")
    remote = room_model("vrchat", n, "remote-rendering")
    # P2P moves the fan-out to the uplink and off the infrastructure.
    assert p2p.server_updates_per_s == 0.0
    assert p2p.user_up_mbps > forwarding.user_up_mbps
    assert p2p.server_egress_mbps < forwarding.server_egress_mbps
    # Interest scoping cuts the downlink below plain forwarding.
    assert interest.user_down_mbps < forwarding.user_down_mbps
    # Remote rendering is constant per user regardless of room size.
    assert remote.channel("video", "down").payload_kbps == pytest.approx(
        room_model("vrchat", 2, "remote-rendering")
        .channel("video", "down")
        .payload_kbps
    )


def test_simulate_room_matches_closed_form():
    n, duration = 12, 100.0
    model = room_model("vrchat", n, "forwarding", viewport_factor="uniform")
    result = simulate_room("vrchat", n, duration)
    assert result.user_seconds == pytest.approx(n * duration)
    assert result.egress_bits == pytest.approx(
        model.server_egress_bytes_per_s * 8.0 * duration
    )
    assert result.peak_egress_bps == pytest.approx(
        model.server_egress_bytes_per_s * 8.0
    )


def test_simulate_room_access_shaping_conserves_bits():
    n, duration = 15, 60.0
    unshaped = simulate_room("worlds", n, duration)
    cap = unshaped.viewer_down_bps.peak() * 0.5
    shaped = simulate_room("worlds", n, duration, access_capacity_bps=cap)
    assert shaped.viewer_down_bps.peak() <= cap + 1e-6
    residual = (
        unshaped.viewer_down_bps.integral()
        - shaped.viewer_down_bps.integral()
        - shaped.dropped_bits
    )
    assert residual >= -1e-6  # backlog at horizon, never negative


# ----------------------------------------------------------------------
# capacity planner
# ----------------------------------------------------------------------
def test_capacity_planner_orders_architectures():
    plans = {p.architecture: p for p in plan_capacity("vrchat", 1_000_000)}
    assert set(plans) == set(ARCHITECTURES)
    assert plans["p2p"].usd_per_ccu_hour < plans["interest"].usd_per_ccu_hour
    assert (
        plans["interest"].usd_per_ccu_hour < plans["forwarding"].usd_per_ccu_hour
    )
    assert (
        plans["forwarding"].usd_per_ccu_hour
        < plans["remote-rendering"].usd_per_ccu_hour
    )
    assert plans["remote-rendering"].gpu_servers > 0
    assert plans["forwarding"].servers > plans["p2p"].servers
    table = capacity_table(list(plans.values()))
    for architecture in ARCHITECTURES:
        assert architecture in table
    with pytest.raises(ValueError):
        plan_capacity("vrchat", 0)


# ----------------------------------------------------------------------
# sharding
# ----------------------------------------------------------------------
def test_shard_ranges_partition():
    ranges = shard_ranges(103, 10)
    assert sum(count for _, count in ranges) == 103
    firsts = [first for first, _ in ranges]
    assert firsts == sorted(firsts)
    # Contiguous, no gaps.
    position = 0
    for first, count in ranges:
        assert first == position
        position += count
    assert shard_ranges(3, 10) == [(0, 1), (1, 1), (2, 1)]
    with pytest.raises(ValueError):
        shard_ranges(0, 4)


def test_scale_scenario_validation():
    with pytest.raises(ValueError):
        ScaleScenario(architecture="broadcast")
    with pytest.raises(ValueError):
        ScaleScenario(users_per_room=0)
    with pytest.raises(ValueError):
        ScaleScenario(duration_s=0.0)


def test_simulate_shard_thaws_canonicalized_scenario():
    # The campaign planner ships dict kwargs as sorted pair-tuples.
    scenario = ScaleScenario(users_per_room=5, duration_s=30.0, churn=False)
    import dataclasses

    frozen = tuple(sorted(dataclasses.asdict(scenario).items()))
    partial = simulate_shard(frozen, first_room=0, n_rooms=2, seed=0)
    assert partial["n_rooms"] == 2
    assert partial["user_seconds"] == pytest.approx(2 * 5 * 30.0)


def test_sharded_merge_is_shard_count_invariant():
    """Same seed => byte-identical merge, however the rooms are sharded."""
    scenario = ScaleScenario(users_per_room=8, duration_s=120.0)
    a = run_sharded(scenario, 60, seed=3, shards=3, parallel=False)
    b = run_sharded(scenario, 60, seed=3, shards=11, parallel=False)
    assert a.shards != b.shards
    assert np.array_equal(a.egress_series.bits_per_bin, b.egress_series.bits_per_bin)
    assert np.array_equal(a.viewer_series.bits_per_bin, b.viewer_series.bits_per_bin)
    assert a.user_seconds == b.user_seconds
    assert a.peak_occupancy == b.peak_occupancy
    # A different seed must actually change the churn realisation.
    c = run_sharded(scenario, 60, seed=4, shards=3, parallel=False)
    assert not np.array_equal(
        a.egress_series.bits_per_bin, c.egress_series.bits_per_bin
    )


def test_metaverse_scale_experiment_summary():
    out = metaverse_scale_experiment(
        rooms=10, users_per_room=6, duration_s=30.0
    )
    assert out["total_users"] == 60
    assert out["mean_concurrent_users"] > 0
    assert {p["architecture"] for p in out["capacity"]} == set(ARCHITECTURES)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_scale_smoke(capsys):
    assert (
        main(
            [
                "scale",
                "--rooms",
                "20",
                "--users-per-room",
                "10",
                "--duration",
                "30",
                "--serial",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "200 users" in out
    assert "Capacity plan" in out
    for architecture in ARCHITECTURES:
        assert architecture in out
