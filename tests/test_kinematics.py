"""Roughness RMS, robust spike scores, event classification, segmentation."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roadsense import drivesim, kinematics
from roadsense.errors import ValidationError
from roadsense.kinematics import (
    DEFAULT_SPIKE_K,
    EventKind,
    SpikeEvent,
    _runs_at_least,
    classify_events,
    classify_spike,
    detect_axis_spikes,
    rms,
    robust_scores,
    segment_roughness,
    sliding_rms,
)
from roadsense.model import SensorSample, StreamColumns, columns_from_records


def samples_from(az=None, ax=None, ay=None, rate_hz=30):
    n = max(len(v) for v in (az, ax, ay) if v is not None)
    az = az if az is not None else [9.81] * n
    ax = ax if ax is not None else [0.0] * n
    ay = ay if ay is not None else [0.0] * n
    return columns_from_records(
        [
            SensorSample(
                t=round(i * 1000 / rate_hz),
                ax=float(ax[i]), ay=float(ay[i]), az=float(az[i]),
                gx=0.0, gy=0.0, gz=0.0,
            )
            for i in range(n)
        ],
        SensorSample,
    )


# -- rms --------------------------------------------------------------------------


def test_rms_known_values():
    assert rms([3.0]) == 3.0
    assert rms([1.0, -1.0, 1.0, -1.0]) == 1.0
    assert rms([0.0, 0.0]) == 0.0
    assert rms([3.0, 4.0]) == pytest.approx(math.sqrt(12.5))


def test_rms_empty_is_an_error():
    with pytest.raises(ValueError):
        rms([])


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.floats(min_value=-100, max_value=100), min_size=1, max_size=50),
    st.floats(min_value=-50, max_value=50).filter(lambda c: abs(c) > 1e-6),
)
def test_rms_homogeneity(values, c):
    scaled = rms([c * v for v in values])
    expect = abs(c) * rms(values)
    assert scaled == pytest.approx(expect, rel=1e-9, abs=1e-12)


def test_sliding_rms_detrend_is_shift_invariant():
    rng = np.random.default_rng(5)
    base = rng.normal(0.0, 0.3, 120)
    a = sliding_rms(samples_from(az=base), axis="z")
    b = sliding_rms(samples_from(az=base + 7.5), axis="z")
    assert len(a.points) == len(b.points)
    for pa, pb in zip(a.points, b.points):
        assert pa.t_center == pb.t_center
        assert pb.rms == pytest.approx(pa.rms, rel=1e-9, abs=1e-12)


def test_sliding_rms_sine_amplitude():
    amp = 2.5
    t = np.arange(120) / 30.0
    wave = amp * np.sin(2 * math.pi * 2.0 * t)  # 2 Hz: full periods per 1 s window
    series = sliding_rms(samples_from(az=wave), axis="z", detrend=False)
    assert series.points
    for p in series.points[:-1]:  # last window may be partial
        assert p.rms == pytest.approx(amp / math.sqrt(2), rel=0.02)


def test_sliding_rms_skips_tiny_windows():
    series = sliding_rms(samples_from(az=[1.0, 2.0]), window_ms=10, hop_ms=10)
    assert series.points == ()
    with pytest.raises(ValueError):
        sliding_rms(samples_from(az=[1.0]), window_ms=0)


# -- robust scores ------------------------------------------------------------------


def test_constant_stream_scores_zero():
    scores = robust_scores(samples_from(az=[9.81] * 60), "z")
    assert np.all(scores == 0.0)


def test_clean_impulse_scores_infinite():
    az = [9.81] * 60
    az[30] = 12.0
    az[31] = 7.0
    scores = robust_scores(samples_from(az=az), "z")
    assert scores[30] == math.inf
    assert scores[31] == -math.inf
    assert scores[29] == 0.0


def test_scale_floor_bounds_the_denominator():
    az = [9.81] * 60
    az[30] = 10.81
    scores = robust_scores(samples_from(az=az), "z", scale_floor=0.5)
    assert scores[30] == pytest.approx(1.0 / 0.5)
    assert scores[29] == 0.0


def test_scores_match_formula_on_noise():
    rng = np.random.default_rng(11)
    az = rng.normal(9.81, 0.1, 90)
    samples = samples_from(az=az)
    scores = robust_scores(samples, "z", window_ms=1000)
    ts = samples["t"]
    i = 45
    w = az[(ts >= ts[i] - 500) & (ts < ts[i] + 500 + 1)]  # centered window
    med = np.median(w)
    mad = np.median(np.abs(w - med))
    assert scores[i] == pytest.approx((az[i] - med) / (1.4826 * mad), rel=1e-9)


def test_ordinary_channels_are_not_rescaled():
    sim = drivesim.generate_drive(drivesim.default_scenario(7))
    loud = samples_from(az=[1e300, -1e300, 0.0, 2.0**1021 * (1 - 2**-53)])
    for samples in (sim.samples, loud):
        for axis in "xyz":
            x, e = kinematics._scaled_channel(samples, axis)
            assert e == 0 and x is kinematics._channel(samples, axis)


def oracle_scores(ts, x, window_ms, scale_floor):
    """One np.median pair per sample over its centered window."""
    half = window_ms / 2.0
    out = np.zeros(len(x))
    for i in range(len(x)):
        w = x[(ts >= ts[i] - half) & (ts <= ts[i] + half)]
        med = np.median(w)
        scale = max(1.4826 * np.median(np.abs(w - med)), scale_floor)
        dev = x[i] - med
        if scale == 0.0:
            out[i] = 0.0 if dev == 0.0 else math.copysign(math.inf, dev)
        else:
            out[i] = dev / scale
    return out


# irregular sampling: mostly 33 ms steps, with jitter and occasional gaps
_steps = st.lists(
    st.one_of(st.just(33), st.integers(min_value=1, max_value=120),
              st.integers(min_value=600, max_value=3_000)),
    min_size=1, max_size=120,
)
# a few levels repeat often enough to leave constant stretches (MAD = 0)
_values = st.one_of(st.sampled_from([9.81, 9.81, 9.81, 0.0, 12.5]),
                    st.floats(min_value=-20.0, max_value=20.0))


@settings(max_examples=150, deadline=None)
@given(
    _steps,
    st.data(),
    st.sampled_from([50, 333, 1000, 2500]),
    st.sampled_from([0.0, 0.05, 0.7]),
    st.sampled_from([1, 3, 64, kinematics._GATHER_ELEMS]),
)
def test_batched_scores_equal_per_window_medians(steps, data, window_ms, floor, block):
    ts = np.cumsum(steps) - steps[0]
    az = data.draw(st.lists(_values, min_size=len(ts), max_size=len(ts)))
    samples = columns_from_records(
        [SensorSample(t=int(t), ax=0.0, ay=0.0, az=v, gx=0.0, gy=0.0, gz=0.0) for t, v in zip(ts, az)],
        SensorSample,
    )
    with mock.patch.object(kinematics, "_GATHER_ELEMS", block):
        got = robust_scores(samples, "z", window_ms, scale_floor=floor)
    assert np.array_equal(got, oracle_scores(ts, np.asarray(az), window_ms, floor))


def every_row(x, *args):
    """A candidate filter that keeps every row: detect_axis_spikes then
    scores every sample with robust_scores."""
    return np.ones(x.size, dtype=bool)


def detect_with_scores(samples, **kw):
    """detect_axis_spikes(samples, **kw), and the scores robust_scores gave it per axis."""
    seen = []
    real = kinematics.robust_scores

    def spy(*args, **kwargs):
        seen.append(real(*args, **kwargs))
        return seen[-1]

    with mock.patch.object(kinematics, "robust_scores", spy):
        return detect_axis_spikes(samples, **kw), seen


# stretches of one level with noise of one size, and impulses. The levels
# include a large offset with tiny noise, where the rounding of a window's
# sums exceeds the noise, and values near the float limit: their squares
# overflow, or the channel is scored scaled by 2**-1022, where tiny noise
# is subnormal
_LEVELS = [0.0, 9.81, 1e6, -3e7, 2.0**1021 * (1 - 2.0**-53), -1.5 * 2.0**1021]
_NOISE = [0.0, 1e-9, 0.05, 2.0]


@st.composite
def stretches(draw, n):
    out = []
    while len(out) < n:
        level, noise = draw(st.sampled_from(_LEVELS)), draw(st.sampled_from(_NOISE))
        for _ in range(draw(st.integers(min_value=1, max_value=n - len(out)))):
            v = level + noise * draw(st.floats(min_value=-1.0, max_value=1.0))
            if draw(st.integers(min_value=0, max_value=9)) == 0:
                v += draw(st.sampled_from([3e-9, 1e-6, 0.5, 6.0, 40.0]))
            out.append(v)
    return out


def imu_columns(ts, ax, ay, az):
    return columns_from_records(
        [SensorSample(t=int(t), ax=a, ay=b, az=c, gx=0.0, gy=0.0, gz=0.0)
         for t, a, b, c in zip(ts, ax, ay, az)],
        SensorSample,
    )


def reached_scores(samples, window_ms):
    """Every finite nonzero |score| some sample of *samples* meets."""
    with mock.patch.object(kinematics, "_can_spike", every_row):
        _, full = detect_with_scores(samples, window_ms=window_ms)
    return sorted({abs(v) for s in full for v in s if 0.0 < abs(v) < math.inf})


def assert_pruning_is_exact(samples, window_ms, k, min_run=1):
    """detect_axis_spikes finds what scoring every sample finds, and it
    scores, with the same bits, every sample whose score reaches k."""
    kw = dict(k=k, window_ms=window_ms, merge_gap_ms=0, min_run=min_run)
    with mock.patch.object(kinematics, "_can_spike", every_row):
        want, full = detect_with_scores(samples, **kw)
    got, pruned = detect_with_scores(samples, **kw)
    assert got == want
    for p, f in zip(pruned, full):
        scored = ~np.isnan(p)
        assert scored[np.abs(f) >= k].all()
        assert np.array_equal(p[scored], f[scored])


# examples come from the active Hypothesis profile; CI runs this with the
# "thorough" one (see conftest.py)
@settings(deadline=None)
@given(_steps, st.data(), st.sampled_from([1, 50, 333, 1000]), st.integers(min_value=1, max_value=2))
def test_pruned_spikes_equal_scoring_every_sample(steps, data, window_ms, min_run):
    ts = np.cumsum(steps) - steps[0]
    samples = imu_columns(ts, *(data.draw(stretches(len(ts))) for _ in range(3)))
    # a threshold some sample meets exactly puts the bound on its edge
    k = data.draw(st.sampled_from(reached_scores(samples, window_ms) + [DEFAULT_SPIKE_K]))
    assert_pruning_is_exact(samples, window_ms, k, min_run)


@pytest.mark.parametrize("window_ms, ts, ax, ay, az", [
    # a window's sums round by more than the 1e-9 floor: without the
    # rounding margin the bound prunes samples that reach k
    (50, [0, 33, 34], [0.0] * 3, [0.0, 3e-9, 0.0], [9.81, 0.0, 3e-9]),
    # the median sits far from the mean: without sigma the bound prunes
    # the samples on the mean's side
    (100, [0, 20, 40, 60, 80, 100], [0.0, 0.0, 0.0, 4.0, 4.0, 4.0], [0.0] * 6, [0.0, 0.1, 0.0, 0.1, 9.0, 0.0]),
])
def test_pruning_keeps_every_sample_at_the_score_it_reaches(window_ms, ts, ax, ay, az):
    samples = imu_columns(ts, ax, ay, az)
    for k in reached_scores(samples, window_ms):
        assert_pruning_is_exact(samples, window_ms, k)


def test_pruned_spikes_on_a_long_drive():
    sim = drivesim.generate_drive(drivesim.default_scenario(3, duration_s=1200.0))
    with mock.patch.object(kinematics, "_can_spike", every_row):
        want = detect_axis_spikes(sim.samples)
    got, pruned = detect_with_scores(sim.samples)
    assert got == want and len(got) >= 3
    # the bound leaves few samples to score: under 10% on every axis
    assert all(np.isnan(p).mean() > 0.9 for p in pruned)


def oracle_runs(mask, min_run):
    runs, start = [], None
    for i, m in enumerate(list(mask) + [False]):
        if m and start is None:
            start = i
        elif not m and start is not None:
            if i - start >= min_run:
                runs.append((start, i - 1))
            start = None
    return runs


@settings(max_examples=200, deadline=None)
@given(st.lists(st.booleans(), max_size=80), st.integers(min_value=1, max_value=5))
def test_runs_match_naive_scan(mask, min_run):
    assert _runs_at_least(np.asarray(mask, dtype=bool), min_run) == oracle_runs(mask, min_run)


def test_unknown_axis_rejected():
    with pytest.raises(ValueError):
        robust_scores(samples_from(az=[9.81] * 3), "w")


# -- spike detection -----------------------------------------------------------------


def bump(base, at, width, height):
    out = list(base)
    for i in range(width):
        out[at + i] += height
    return out


def test_vertical_bump_becomes_one_pothole():
    az = bump([9.81] * 90, 45, 3, 3.0)
    events = detect_axis_spikes(samples_from(az=az))
    assert len(events) == 1
    e = events[0]
    assert e.axes == frozenset({"z"})
    assert e.t_start == 1500 and e.t_end == 1567
    assert e.peak_score["z"] == math.inf
    assert classify_spike(e) is EventKind.POTHOLE


def test_lateral_bump_becomes_steering():
    ax = bump([0.0] * 90, 40, 4, 1.5)
    ay = bump([0.0] * 90, 41, 3, -1.0)
    events = detect_axis_spikes(samples_from(ax=ax, ay=ay))
    assert len(events) == 1
    assert events[0].axes == frozenset({"x", "y"})
    assert classify_spike(events[0]) is EventKind.STEERING


def test_single_sample_exceedance_is_debounced():
    az = bump([9.81] * 90, 45, 1, 5.0)
    assert detect_axis_spikes(samples_from(az=az)) == []
    # but lowering min_run admits it
    assert len(detect_axis_spikes(samples_from(az=az), min_run=1)) == 1


def test_nearby_excursions_merge():
    az = bump(bump([9.81] * 120, 30, 2, 3.0), 38, 2, 3.0)  # ~200 ms apart
    events = detect_axis_spikes(samples_from(az=az), merge_gap_ms=300)
    assert len(events) == 1
    apart = detect_axis_spikes(samples_from(az=az), merge_gap_ms=100)
    assert len(apart) == 2


def test_axes_union_across_merge():
    az = bump([9.81] * 120, 30, 2, 3.0)
    ax = bump([0.0] * 120, 33, 2, 2.0)
    events = detect_axis_spikes(samples_from(az=az, ax=ax))
    assert len(events) == 1
    assert events[0].axes == frozenset({"x", "z"})


def test_detect_validates_k():
    with pytest.raises(ValueError):
        detect_axis_spikes(samples_from(az=[9.81] * 3), k=0.0)
    assert detect_axis_spikes(samples_from(az=[])) == []


def test_spike_event_invariants():
    with pytest.raises(ValidationError):
        SpikeEvent(10, 5, frozenset({"z"}), {"z": 1.0})
    with pytest.raises(ValidationError):
        SpikeEvent(0, 5, frozenset(), {})


# -- classification timeline -----------------------------------------------------------


def test_classify_events_fills_gaps_with_calm():
    spikes = [
        SpikeEvent(1000, 1100, frozenset({"z"}), {"z": 9.0}),
        SpikeEvent(3000, 3200, frozenset({"x"}), {"x": 4.0}),
    ]
    events = classify_events(spikes, t_start=0, t_end=5000)
    kinds = [e.kind for e in events]
    assert kinds == [
        EventKind.CALM, EventKind.POTHOLE, EventKind.CALM,
        EventKind.STEERING, EventKind.CALM,
    ]
    assert events[0].t_start == 0 and events[0].t_end == 1000
    assert events[-1].t_start == 3200 and events[-1].t_end == 5000
    # intervals tile the bounds with no overlap
    for a, b in zip(events, events[1:]):
        assert a.t_end == b.t_start


def test_classify_events_without_bounds():
    spikes = [SpikeEvent(100, 200, frozenset({"y"}), {"y": 3.5})]
    events = classify_events(spikes)
    assert [e.kind for e in events] == [EventKind.STEERING]


def test_mixed_axes_with_z_is_pothole():
    e = SpikeEvent(0, 10, frozenset({"x", "y", "z"}), {"x": 3.0, "y": 3.0, "z": 8.0})
    assert classify_spike(e) is EventKind.POTHOLE


# -- segmentation ------------------------------------------------------------------------


def aligned(az_values, chainage, speeds=None):
    """Sample columns with a ``speed_mps`` column, as align_streams gives."""
    speeds = speeds or [None] * len(az_values)
    samples = columns_from_records(
        [SensorSample(t=i * 33, ax=0.0, ay=0.0, az=float(v), gx=0.0, gy=0.0, gz=0.0)
         for i, v in enumerate(az_values)],
        SensorSample,
    )
    speed = np.asarray([np.nan if s is None else s for s in speeds], dtype=np.float64)
    return StreamColumns({**samples.fields, "speed_mps": speed}), list(chainage)


def test_two_segment_partition():
    rows, chain = aligned([9.8, 9.9, 9.7, 10.0], [0.0, 50.0, 120.0, 150.0])
    segs = segment_roughness(rows, chain, segment_len_m=100.0)
    assert len(segs) == 2
    assert (segs[0].chainage_start_m, segs[0].chainage_end_m) == (0.0, 100.0)
    assert (segs[1].chainage_start_m, segs[1].chainage_end_m) == (100.0, 200.0)
    assert segs[0].n_samples == 2 and segs[1].n_samples == 2


def test_segment_rms_is_detrended_vertical():
    vals = [9.5, 10.1, 9.9, 9.7]
    rows, chain = aligned(vals, [0.0, 10.0, 20.0, 30.0])
    segs = segment_roughness(rows, chain, segment_len_m=100.0)
    w = np.array(vals)
    assert segs[0].rms == pytest.approx(float(np.sqrt(np.mean((w - w.mean()) ** 2))))


def test_empty_cells_are_emitted():
    rows, chain = aligned([9.8, 9.9], [10.0, 250.0])
    segs = segment_roughness(rows, chain, segment_len_m=100.0)
    assert [s.n_samples for s in segs] == [1, 0, 1]
    assert segs[1].rms == 0.0 and segs[1].mean_speed_mps is None


def test_segment_mean_speed_skips_missing():
    rows, chain = aligned([9.8, 9.9, 9.85], [0.0, 1.0, 2.0], speeds=[10.0, None, 20.0])
    segs = segment_roughness(rows, chain, segment_len_m=100.0)
    assert segs[0].mean_speed_mps == pytest.approx(15.0)


def test_segment_validation():
    rows, chain = aligned([9.8], [0.0])
    with pytest.raises(ValueError):
        segment_roughness(rows, chain, segment_len_m=0.0)
    with pytest.raises(ValueError):
        segment_roughness(rows, [0.0, 1.0])
    rows2, _ = aligned([9.8, 9.9], [0.0, 0.0])
    with pytest.raises(ValueError):
        segment_roughness(rows2, [5.0, 4.0])
    empty, _ = aligned([], [])
    assert segment_roughness(empty, []) == []
