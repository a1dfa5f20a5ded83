"""Time indexes and multi-rate stream alignment.

A TimeIndex is a binary-searchable view over one timestamped stream.
``align_streams`` fuses the three package streams into one row per IMU
sample: interpolated GPS position, a speed estimate, and the nearest
frame reference within tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .geo import haversine
from .model import FrameRef, GpsFix, SensorSample

DEFAULT_FRAME_TOL_MS = 50      # half of a 10 fps frame period
DEFAULT_GPS_MAX_GAP_MS = 5000  # bracketing fixes further apart fabricate nothing


class TimeIndex:
    """Immutable index over a stream with strictly increasing timestamps."""

    def __init__(self, items: Sequence):
        ts = np.asarray([item.t for item in items], dtype=np.int64)
        if ts.size > 1:
            bad = np.where(np.diff(ts) <= 0)[0]
            if bad.size:
                i = int(bad[0]) + 1
                kind = "duplicate" if ts[i] == ts[i - 1] else "non-monotonic"
                raise ValueError(
                    f"{kind} timestamp at position {i} (t={int(ts[i])})"
                )
        self._ts = ts
        self._items = list(items)

    def __len__(self) -> int:
        return len(self._items)

    @property
    def timestamps(self) -> np.ndarray:
        return self._ts

    @property
    def items(self) -> list:
        return self._items

    def nearest(self, t: int, tol: int):
        """Item minimizing |item.t - t| if that minimum <= tol, else None.

        Ties break toward the earlier timestamp.
        """
        j = int(self.nearest_positions(np.asarray([t], dtype=np.int64), tol)[0])
        return self._items[j] if j >= 0 else None

    def nearest_positions(self, t: np.ndarray, tol: int) -> np.ndarray:
        """For each query time, the position of the nearest item within
        *tol* (ties toward the earlier one), or -1 where none is."""
        if tol < 0:
            raise ValueError(f"tol must be >= 0, got {tol}")
        n = self._ts.size
        if n == 0:
            return np.full(t.shape, -1, dtype=np.int64)
        i = np.searchsorted(self._ts, t)
        left = np.maximum(i - 1, 0)
        right = np.minimum(i, n - 1)
        d_left = np.where(i > 0, t - self._ts[left], np.iinfo(np.int64).max)
        d_right = np.where(i < n, self._ts[right] - t, np.iinfo(np.int64).max)
        take_right = d_right < d_left  # strict: ties keep the earlier item
        best = np.where(take_right, right, left)
        dist = np.where(take_right, d_right, d_left)
        return np.where(dist <= tol, best, -1)

    def range(self, t0: int, t1: int) -> list:
        """All items with t0 <= t <= t1, in time order."""
        if t0 > t1:
            raise ValueError(f"t0 ({t0}) > t1 ({t1})")
        lo = int(np.searchsorted(self._ts, t0, side="left"))
        hi = int(np.searchsorted(self._ts, t1, side="right"))
        return self._items[lo:hi]


def _bracket(ts: np.ndarray, t: np.ndarray, max_gap_ms: int):
    """Locate each query time in a sorted fix timeline.

    Returns ``(exact, inside, left, w)``: ``exact`` marks queries that hit
    a fix (its position is ``left``); ``inside`` marks queries strictly
    between fixes ``left`` and ``left + 1`` that are at most *max_gap_ms*
    apart, with ``w`` the interpolation weight toward the later fix.
    Queries in neither set are outside coverage. *ts* must be nonempty.
    """
    n = ts.size
    i = np.searchsorted(ts, t)
    exact = (i < n) & (ts[np.minimum(i, n - 1)] == t)
    left = np.where(exact, i, np.clip(i - 1, 0, max(n - 2, 0)))
    right = np.minimum(left + 1, n - 1)
    gap = ts[right] - ts[left]
    inside = ~exact & (i > 0) & (i < n) & (gap <= max_gap_ms)
    with np.errstate(divide="ignore", invalid="ignore"):
        w = np.where(inside, (t - ts[left]) / gap, 0.0)
    return exact, inside, left, w


def interpolate_position(
    gps: TimeIndex, t: int, max_gap_ms: int = DEFAULT_GPS_MAX_GAP_MS
) -> Optional[tuple[float, float]]:
    """Linearly interpolate (lat, lon) at time *t* between bracketing fixes.

    Returns None outside GPS coverage or across a gap wider than
    *max_gap_ms*. Exact-timestamp hits return that fix regardless of the
    neighboring gaps.
    """
    if len(gps) == 0:
        return None
    exact, inside, left, w = _bracket(
        gps.timestamps, np.asarray([t], dtype=np.int64), max_gap_ms
    )
    if not (exact[0] or inside[0]):
        return None
    a = gps.items[left[0]]
    if exact[0]:
        return (a.lat, a.lon)
    b = gps.items[left[0] + 1]
    w0 = float(w[0])
    return (a.lat + w0 * (b.lat - a.lat), a.lon + w0 * (b.lon - a.lon))


@dataclass(frozen=True)
class AlignedRecord:
    """One fused row: IMU sample + interpolated GPS + nearest frame."""

    t: int
    sample: SensorSample
    position: Optional[tuple[float, float]]  # (lat, lon)
    speed_mps: Optional[float]
    frame: Optional[FrameRef]


def align_streams(
    samples: Sequence[SensorSample],
    gps: Sequence[GpsFix],
    frames: Sequence[FrameRef],
    frame_tol_ms: int = DEFAULT_FRAME_TOL_MS,
    gps_max_gap_ms: int = DEFAULT_GPS_MAX_GAP_MS,
) -> list[AlignedRecord]:
    """Produce one AlignedRecord per IMU sample.

    Speed comes from the GPS speed field when the bracketing fixes carry
    one; otherwise it falls back to a central finite difference of
    interpolated positions over neighboring samples.
    """
    sample_idx = samples if isinstance(samples, TimeIndex) else TimeIndex(samples)
    gps_idx = gps if isinstance(gps, TimeIndex) else TimeIndex(gps)
    frame_idx = frames if isinstance(frames, TimeIndex) else TimeIndex(frames)

    sample_items = sample_idx.items
    t = sample_idx.timestamps
    positions, gps_speeds = _gps_at(gps_idx, t, gps_max_gap_ms)
    frame_items = frame_idx.items
    frame_pos = frame_idx.nearest_positions(t, frame_tol_ms).tolist()

    records = []
    n = len(sample_items)
    for i, (s, speed, j) in enumerate(zip(sample_items, gps_speeds, frame_pos)):
        if speed is None:
            speed = _finite_difference_speed(sample_items, positions, i, n)
        records.append(
            AlignedRecord(
                t=s.t,
                sample=s,
                position=positions[i],
                speed_mps=speed,
                frame=frame_items[j] if j >= 0 else None,
            )
        )
    return records


def _gps_at(gps: TimeIndex, t: np.ndarray, max_gap_ms: int):
    """Interpolated positions and GPS-field speeds at times *t*, as lists
    holding None where there is no position, or no speed on both
    bracketing fixes."""
    fixes = gps.items
    if not fixes:
        return [None] * t.size, [None] * t.size
    lat = np.asarray([f.lat for f in fixes])
    lon = np.asarray([f.lon for f in fixes])
    has_speed = np.asarray([f.speed_mps is not None for f in fixes])
    speed = np.asarray([0.0 if f.speed_mps is None else f.speed_mps for f in fixes])

    exact, inside, left, w = _bracket(gps.timestamps, t, max_gap_ms)
    right = np.minimum(left + 1, len(fixes) - 1)

    def at(values: np.ndarray) -> list:
        interpolated = values[left] + w * (values[right] - values[left])
        return np.where(exact, values[left], interpolated).tolist()

    located = (exact | inside).tolist()
    positions = [p if ok else None for ok, p in zip(located, zip(at(lat), at(lon)))]
    with_speed = (exact & has_speed[left] | inside & has_speed[left] & has_speed[right]).tolist()
    speeds = [v if ok else None for ok, v in zip(with_speed, at(speed))]
    return positions, speeds


def _finite_difference_speed(samples, positions, i, n) -> Optional[float]:
    # central difference where both neighbors have positions; one-sided at ends
    lo = i - 1 if i > 0 else i
    hi = i + 1 if i < n - 1 else i
    if lo == hi:
        return None
    p0, p1 = positions[lo], positions[hi]
    if p0 is None or p1 is None:
        return None
    dt_s = (samples[hi].t - samples[lo].t) / 1000.0
    if dt_s <= 0:
        return None
    return haversine(p0, p1) / dt_s
