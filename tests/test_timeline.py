"""Time index queries against linear-scan oracles, plus stream alignment."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_frames, make_gps, make_samples
from roadsense.geo import haversine
from roadsense.model import FrameRef, GpsFix, SensorSample, columns_from_records
from roadsense.timeline import DEFAULT_GPS_MAX_GAP_MS, TimeIndex, align_streams


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
    arr = np.asarray(ts, dtype=np.int64)
    got = TimeIndex(arr).nearest(t, tol)
    want = oracle_nearest(ts, t, tol)
    assert (int(arr[got]) if got is not None else None) == want


@settings(max_examples=200, deadline=None)
@given(_ts_lists, st.integers(min_value=-100, max_value=10_100), st.integers(min_value=0, max_value=2_000))
def test_range_matches_linear_scan(ts, t0, width):
    t1 = t0 + width
    arr = np.asarray(ts, dtype=np.int64)
    got = arr[TimeIndex(arr).range(t0, t1)].tolist()
    assert got == [x for x in ts if t0 <= x <= t1]


def test_randomized_queries_against_oracle():
    rng = random.Random(20260819)
    ts = sorted(rng.sample(range(0, 500_000), 4_000))
    arr = np.asarray(ts, dtype=np.int64)
    idx = TimeIndex(arr)
    for _ in range(2_000):
        t = rng.randint(-1_000, 501_000)
        tol = rng.randint(0, 5_000)
        got = idx.nearest(t, tol)
        assert (int(arr[got]) if got is not None else None) == oracle_nearest(ts, t, tol)


def test_tie_breaks_toward_earlier():
    ts = np.array([10, 20], dtype=np.int64)
    assert ts[TimeIndex(ts).nearest(15, 100)] == 10


def test_nearest_validates_tol():
    idx = TimeIndex(np.array([0], dtype=np.int64))
    with pytest.raises(ValueError):
        idx.nearest(0, -1)


def test_range_validates_order():
    idx = TimeIndex(np.array([0], dtype=np.int64))
    with pytest.raises(ValueError):
        idx.range(5, 4)


def test_index_rejects_duplicates_and_disorder():
    with pytest.raises(ValueError, match="duplicate"):
        TimeIndex(np.array([1, 1], dtype=np.int64))
    with pytest.raises(ValueError, match="non-monotonic"):
        TimeIndex(np.array([2, 1], dtype=np.int64))
    with pytest.raises(ValueError) as exc:
        TimeIndex(np.array([0, 5, 9, 9], dtype=np.int64))
    assert str(exc.value) == "duplicate timestamp at position 3 (t=9)"
    with pytest.raises(ValueError) as exc:
        TimeIndex(np.array([0, 5, 4], dtype=np.int64))
    assert str(exc.value) == "non-monotonic timestamp at position 2 (t=4)"


def test_range_is_a_slice_over_every_column():
    ts = np.array([0, 10, 20, 30], dtype=np.int64)
    files = ["a", "b", "c", "d"]
    rows = TimeIndex(ts).range(5, 20)
    assert rows == slice(1, 3)
    assert ts[rows].tolist() == [10, 20] and files[rows] == ["b", "c"]
    assert files[TimeIndex(ts).range(31, 40)] == []


def test_nearest_distances_span_the_int64_range():
    lo, hi = -(2**63), 2**63 - 1
    idx = TimeIndex(np.array([0, 7], dtype=np.int64))
    assert idx.nearest(lo, hi) is None  # 2**63 ms away, which int64 cannot hold
    assert idx.nearest(lo, 2**63) == 0
    assert idx.nearest(hi, hi - 7) == 1
    assert idx.nearest(hi, hi - 8) is None
    ends = TimeIndex(np.array([lo, hi], dtype=np.int64))
    assert ends.nearest(0, hi) == 1 and ends.nearest(-1, hi) == 0
    assert ends.nearest(-1, hi - 1) is None


# -- alignment --------------------------------------------------------------------


def fix(t, lat, lon, speed=None):
    return GpsFix(t=t, lat=lat, lon=lon, alt_m=0.0, speed_mps=speed)


def align(samples, gps, max_gap_ms=DEFAULT_GPS_MAX_GAP_MS):
    """align_streams over record lists, turned into columns first."""
    return align_streams(
        columns_from_records(samples, SensorSample), columns_from_records(gps, GpsFix), max_gap_ms
    )


def position(rows, i):
    """Row *i*'s (lat, lon), or None where it has no position."""
    lat, lon = float(rows["lat"][i]), float(rows["lon"][i])
    return None if np.isnan(lat) else (lat, lon)


def quiet_samples(ts):
    return [SensorSample(t=t, ax=0.0, ay=0.0, az=9.81, gx=0.0, gy=0.0, gz=0.0) for t in ts]


def test_interpolate_position_midpoint_and_exact():
    rows = align(quiet_samples([0, 500]), [fix(0, 10.0, 20.0), fix(1000, 11.0, 21.0)])
    assert position(rows, 0) == (10.0, 20.0)
    lat, lon = position(rows, 1)
    assert lat == pytest.approx(10.5)
    assert lon == pytest.approx(20.5)


def test_interpolate_position_outside_coverage():
    rows = align(quiet_samples([99, 150, 201]), [fix(100, 10.0, 20.0), fix(200, 11.0, 21.0)])
    assert position(rows, 0) is None
    assert position(rows, 2) is None


def test_interpolate_position_refuses_wide_gaps():
    rows = align(
        quiet_samples([5_000, 10_000]), [fix(0, 10.0, 20.0), fix(10_000, 11.0, 21.0)], max_gap_ms=5_000
    )
    assert position(rows, 0) is None
    # exact hits are fine regardless of the gap
    assert position(rows, 1) == (11.0, 21.0)


def test_alignment_one_row_per_sample():
    samples = make_samples(30)
    cols = columns_from_records(samples, SensorSample)
    rows = align_streams(cols, columns_from_records(make_gps(2), GpsFix))
    assert len(rows) == len(samples)
    assert rows["t"].tolist() == [s.t for s in samples]
    for name in ("ax", "ay", "az", "gx", "gy", "gz"):
        assert rows[name] is cols[name]


def frame_positions(samples, frames, tol=50):
    """Position in *frames* of each sample's nearest frame within *tol*, or -1."""
    t = np.asarray([s.t for s in samples], dtype=np.int64)
    return TimeIndex(np.asarray([f.t for f in frames], dtype=np.int64)).nearest_positions(t, tol).tolist()


def test_alignment_frame_fanout_is_3_plus_minus_1():
    # 30 Hz samples against 10 fps frames: each frame serves 2-4 rows
    samples = make_samples(301)
    frames = make_frames(101)
    nearest = frame_positions(samples, frames)
    assert all(j >= 0 for j in nearest)
    owner = [frames[j].index for j in nearest]
    counts = {}
    for index in owner:
        counts[index] = counts.get(index, 0) + 1
    assert set(counts) == {f.index for f in frames}
    assert all(2 <= c <= 4 for c in counts.values())
    # consecutive rows that share a frame are contiguous runs
    seen = set()
    prev = None
    for index in owner:
        if index != prev:
            assert index not in seen
            seen.add(index)
            prev = index


def test_alignment_outside_tolerance_has_no_frame():
    samples = make_samples(4)  # t = 0, 33, 67, 100
    frames = make_frames(1)    # t = 0
    got = [frames[j].index if j >= 0 else None for j in frame_positions(samples, frames, tol=30)]
    assert got == [0, None, None, None]


def test_alignment_speed_prefers_gps_field():
    samples = make_samples(3)
    gps = [fix(0, 10.0, 20.0, speed=8.0), fix(1000, 10.001, 20.0, speed=10.0)]
    rows = align(samples, gps)
    assert rows["speed_mps"][0] == pytest.approx(8.0)
    assert rows["speed_mps"][1] == pytest.approx(8.0 + 2.0 * 33 / 1000)


def test_alignment_speed_falls_back_to_finite_difference():
    samples = [SensorSample(t=t, ax=0, ay=0, az=9.81, gx=0, gy=0, gz=0) for t in (0, 500, 1000)]
    # ~111 m of latitude over 1 s, no speed fields
    gps = [fix(0, 0.0, 0.0), fix(1000, 0.001, 0.0)]
    rows = align(samples, gps)
    assert rows["speed_mps"][1] == pytest.approx(111.0, rel=0.01)


def test_alignment_no_position_beyond_gps():
    samples = make_samples(40)  # out to 1300 ms
    gps = [fix(0, 10.0, 20.0), fix(1000, 10.001, 20.0)]
    rows = align(samples, gps)
    beyond = [i for i, s in enumerate(samples) if s.t > 1000]
    assert beyond and all(position(rows, i) is None for i in beyond)


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
def test_sample_speeds_match_the_scalar_oracle(streams):
    samples, gps, _, _, max_gap = streams
    got = align(samples, gps, max_gap)["speed_mps"]
    want = [np.nan if v is None else v for v in oracle_speeds(samples, gps, max_gap)]
    assert got.tobytes() == np.asarray(want, dtype=np.float64).tobytes()


@settings(max_examples=200, deadline=None)
@given(_streams())
def test_align_matches_scalar_oracles(streams):
    samples, gps, frames, tol, max_gap = streams
    rows = align(samples, gps, max_gap)
    frame_ts = [f.t for f in frames]
    nearest = frame_positions(samples, frames, tol)
    for i, s in enumerate(samples):
        assert position(rows, i) == oracle_position(gps, s.t, max_gap)
        near = oracle_nearest(frame_ts, s.t, tol)
        assert (frames[nearest[i]].t if nearest[i] >= 0 else None) == near
