"""Time index queries against linear-scan oracles, plus stream alignment."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_frames, make_gps, make_samples
from roadsense.geo import haversine
from roadsense.model import FrameRef, GpsFix, SensorSample
from roadsense.timeline import (
    TimeIndex,
    align_streams,
    interpolate_position,
)


class Stamp:
    def __init__(self, t):
        self.t = t

    def __repr__(self):
        return f"Stamp({self.t})"


def oracle_nearest(ts, t, tol):
    """Linear scan; ties broken toward the earlier timestamp."""
    best = None
    for x in ts:
        d = abs(x - t)
        if best is None or d < abs(best - t):
            best = x
    if best is None or abs(best - t) > tol:
        return None
    return best


_ts_lists = st.lists(st.integers(min_value=0, max_value=10_000), min_size=0, max_size=60, unique=True).map(sorted)


@settings(max_examples=200, deadline=None)
@given(_ts_lists, st.integers(min_value=-100, max_value=10_100), st.integers(min_value=0, max_value=10_000))
def test_nearest_matches_linear_scan(ts, t, tol):
    idx = TimeIndex([Stamp(x) for x in ts])
    got = idx.nearest(t, tol)
    want = oracle_nearest(ts, t, tol)
    assert (got.t if got else None) == want


@settings(max_examples=200, deadline=None)
@given(_ts_lists, st.integers(min_value=-100, max_value=10_100), st.integers(min_value=0, max_value=2_000))
def test_range_matches_linear_scan(ts, t0, width):
    t1 = t0 + width
    idx = TimeIndex([Stamp(x) for x in ts])
    got = [item.t for item in idx.range(t0, t1)]
    assert got == [x for x in ts if t0 <= x <= t1]


def test_randomized_queries_against_oracle():
    rng = random.Random(20260819)
    ts = sorted(rng.sample(range(0, 500_000), 4_000))
    idx = TimeIndex([Stamp(x) for x in ts])
    for _ in range(2_000):
        t = rng.randint(-1_000, 501_000)
        tol = rng.randint(0, 5_000)
        got = idx.nearest(t, tol)
        assert (got.t if got else None) == oracle_nearest(ts, t, tol)


def test_tie_breaks_toward_earlier():
    idx = TimeIndex([Stamp(10), Stamp(20)])
    assert idx.nearest(15, 100).t == 10


def test_nearest_validates_tol():
    idx = TimeIndex([Stamp(0)])
    with pytest.raises(ValueError):
        idx.nearest(0, -1)


def test_range_validates_order():
    idx = TimeIndex([Stamp(0)])
    with pytest.raises(ValueError):
        idx.range(5, 4)


def test_index_rejects_duplicates_and_disorder():
    with pytest.raises(ValueError, match="duplicate"):
        TimeIndex([Stamp(1), Stamp(1)])
    with pytest.raises(ValueError, match="non-monotonic"):
        TimeIndex([Stamp(2), Stamp(1)])


# -- interpolation ---------------------------------------------------------------


def fix(t, lat, lon, speed=None):
    return GpsFix(t=t, lat=lat, lon=lon, alt_m=0.0, speed_mps=speed)


def test_interpolate_position_midpoint_and_exact():
    idx = TimeIndex([fix(0, 10.0, 20.0), fix(1000, 11.0, 21.0)])
    assert interpolate_position(idx, 0) == (10.0, 20.0)
    lat, lon = interpolate_position(idx, 500)
    assert lat == pytest.approx(10.5)
    assert lon == pytest.approx(20.5)


def test_interpolate_position_outside_coverage():
    idx = TimeIndex([fix(100, 10.0, 20.0), fix(200, 11.0, 21.0)])
    assert interpolate_position(idx, 99) is None
    assert interpolate_position(idx, 201) is None


def test_interpolate_position_refuses_wide_gaps():
    idx = TimeIndex([fix(0, 10.0, 20.0), fix(10_000, 11.0, 21.0)])
    assert interpolate_position(idx, 5_000, max_gap_ms=5_000) is None
    # exact hits are fine regardless of the gap
    assert interpolate_position(idx, 10_000, max_gap_ms=5_000) == (11.0, 21.0)


# -- alignment --------------------------------------------------------------------


def test_alignment_one_row_per_sample():
    samples = make_samples(30)
    rows = align_streams(samples, make_gps(2), make_frames(10))
    assert len(rows) == len(samples)
    assert [r.t for r in rows] == [s.t for s in samples]
    assert all(r.sample is s for r, s in zip(rows, samples))


def test_alignment_frame_fanout_is_3_plus_minus_1():
    # 30 Hz samples against 10 fps frames: each frame serves 2-4 rows
    samples = make_samples(301)
    frames = make_frames(101)
    rows = align_streams(samples, make_gps(11), frames)
    counts = {}
    for r in rows:
        assert r.frame is not None
        counts[r.frame.index] = counts.get(r.frame.index, 0) + 1
    assert set(counts) == {f.index for f in frames}
    assert all(2 <= c <= 4 for c in counts.values())
    # consecutive rows that share a frame are contiguous runs
    seen = set()
    prev = None
    for r in rows:
        if r.frame.index != prev:
            assert r.frame.index not in seen
            seen.add(r.frame.index)
            prev = r.frame.index


def test_alignment_outside_tolerance_has_no_frame():
    samples = make_samples(4)  # t = 0, 33, 67, 100
    frames = make_frames(1)    # t = 0
    rows = align_streams(samples, [], frames, frame_tol_ms=30)
    assert [r.frame.index if r.frame else None for r in rows] == [0, None, None, None]


def test_alignment_speed_prefers_gps_field():
    samples = make_samples(3)
    gps = [fix(0, 10.0, 20.0, speed=8.0), fix(1000, 10.001, 20.0, speed=10.0)]
    rows = align_streams(samples, gps, [])
    assert rows[0].speed_mps == pytest.approx(8.0)
    assert rows[1].speed_mps == pytest.approx(8.0 + 2.0 * 33 / 1000)


def test_alignment_speed_falls_back_to_finite_difference():
    samples = [SensorSample(t=t, ax=0, ay=0, az=9.81, gx=0, gy=0, gz=0) for t in (0, 500, 1000)]
    # ~111 m of latitude over 1 s, no speed fields
    gps = [fix(0, 0.0, 0.0), fix(1000, 0.001, 0.0)]
    rows = align_streams(samples, gps, [])
    assert rows[1].speed_mps == pytest.approx(111.0, rel=0.01)


def test_alignment_no_position_beyond_gps():
    samples = make_samples(40)  # out to 1300 ms
    gps = [fix(0, 10.0, 20.0), fix(1000, 10.001, 20.0)]
    rows = align_streams(samples, gps, [])
    beyond = [r for r in rows if r.t > 1000]
    assert beyond and all(r.position is None for r in beyond)


# -- alignment against scalar oracles ----------------------------------------------


def oracle_bracket(fixes, t, max_gap_ms):
    """('exact', fix), ('inside', left, right, w) or None, by linear scan."""
    for f in fixes:
        if f.t == t:
            return ("exact", f)
    before = [f for f in fixes if f.t < t]
    after = [f for f in fixes if f.t > t]
    if not before or not after or after[0].t - before[-1].t > max_gap_ms:
        return None
    a, b = before[-1], after[0]
    return ("inside", a, b, (t - a.t) / (b.t - a.t))


def oracle_position(fixes, t, max_gap_ms):
    hit = oracle_bracket(fixes, t, max_gap_ms)
    if hit is None:
        return None
    if hit[0] == "exact":
        return (hit[1].lat, hit[1].lon)
    _, a, b, w = hit
    return (a.lat + w * (b.lat - a.lat), a.lon + w * (b.lon - a.lon))


def oracle_speeds(samples, fixes, max_gap_ms):
    """GPS-field speed where both bracketing fixes carry one, else the
    central finite difference of neighboring positions."""
    positions = [oracle_position(fixes, s.t, max_gap_ms) for s in samples]
    out = []
    n = len(samples)
    for i, s in enumerate(samples):
        hit = oracle_bracket(fixes, s.t, max_gap_ms)
        speed = None
        if hit is not None and hit[0] == "exact":
            speed = hit[1].speed_mps
        elif hit is not None and hit[1].speed_mps is not None and hit[2].speed_mps is not None:
            _, a, b, w = hit
            speed = a.speed_mps + w * (b.speed_mps - a.speed_mps)
        if speed is None:
            lo, hi = max(i - 1, 0), min(i + 1, n - 1)
            p0, p1 = positions[lo], positions[hi]
            if lo != hi and p0 is not None and p1 is not None:
                speed = haversine(p0, p1) / ((samples[hi].t - samples[lo].t) / 1000.0)
        out.append(speed)
    return out


_times = st.lists(st.integers(min_value=0, max_value=20_000), min_size=1, max_size=40, unique=True).map(sorted)


@st.composite
def _streams(draw):
    sample_ts = draw(_times)
    # fixes on sample times (exact hits), between them, and across wide gaps
    extra = draw(st.lists(st.integers(min_value=-500, max_value=21_000), max_size=15))
    hits = draw(st.lists(st.sampled_from(sample_ts), max_size=5))
    gps_ts = sorted(set(extra) | set(hits))
    gps = [
        GpsFix(
            t=t, lat=draw(st.floats(min_value=-60.0, max_value=60.0)),
            lon=draw(st.floats(min_value=-170.0, max_value=170.0)), alt_m=0.0,
            speed_mps=draw(st.one_of(st.none(), st.floats(min_value=0.0, max_value=40.0))),
        )
        for t in gps_ts if t >= 0
    ]
    # frames equidistant from some samples, so ties must go to the earlier one
    tol = draw(st.integers(min_value=0, max_value=400))
    frame_ts = set(draw(st.lists(st.integers(min_value=0, max_value=21_000), max_size=15)))
    for t in draw(st.lists(st.sampled_from(sample_ts), max_size=4)):
        d = draw(st.integers(min_value=0, max_value=300))
        frame_ts |= {t + d, max(t - d, 0)}
    frames = [FrameRef(t=t, index=j, file=f"frames/{j:06d}.jpg") for j, t in enumerate(sorted(frame_ts))]
    samples = [SensorSample(t=t, ax=0.0, ay=0.0, az=9.81, gx=0.0, gy=0.0, gz=0.0) for t in sample_ts]
    max_gap = draw(st.sampled_from([0, 700, 5_000]))
    return samples, gps, frames, tol, max_gap


@settings(max_examples=200, deadline=None)
@given(_streams())
def test_align_matches_scalar_oracles(streams):
    samples, gps, frames, tol, max_gap = streams
    rows = align_streams(samples, gps, frames, frame_tol_ms=tol, gps_max_gap_ms=max_gap)
    gps_idx = TimeIndex(gps)
    frame_ts = [f.t for f in frames]
    speeds = oracle_speeds(samples, gps, max_gap)
    for row, s, speed in zip(rows, samples, speeds):
        want = oracle_position(gps, s.t, max_gap)
        assert row.position == want
        assert interpolate_position(gps_idx, s.t, max_gap) == want
        assert row.speed_mps == speed
        near = oracle_nearest(frame_ts, s.t, tol)
        assert (row.frame.t if row.frame else None) == near
