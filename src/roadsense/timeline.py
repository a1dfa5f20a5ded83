"""Time indexes and multi-rate stream alignment.

A TimeIndex is a binary-searchable view over one timestamped stream of
records; the ``query`` command and frame lookups by time use it.
``align_streams`` works on decoded ``StreamColumns``: it extends the IMU
sample columns with the GPS position and a speed estimate at each
sample time.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .geo import haversine
from .model import StreamColumns

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


def align_streams(
    samples: StreamColumns,
    gps: StreamColumns,
    gps_max_gap_ms: int = DEFAULT_GPS_MAX_GAP_MS,
) -> StreamColumns:
    """The sample columns plus GPS at each sample time: ``lat`` and
    ``lon`` interpolated between bracketing fixes (NaN outside coverage
    or across a gap wider than *gps_max_gap_ms*; an exact-timestamp hit
    takes that fix regardless of the neighboring gaps), and ``speed_mps``
    (NaN where unknown).

    Speed comes from the GPS speed field when the bracketing fixes carry
    one; otherwise it falls back to a central finite difference of
    interpolated positions over neighboring samples.
    """
    t = samples["t"]
    lat, lon, speed = _gps_at(gps, t, gps_max_gap_ms)
    speed = _fill_finite_difference(t, lat, lon, speed)
    return StreamColumns({**samples.fields, "lat": lat, "lon": lon, "speed_mps": speed})


def _gps_at(gps: StreamColumns, t: np.ndarray, max_gap_ms: int):
    """``(lat, lon, speed)`` at times *t*: the interpolated position, NaN
    outside coverage, and the interpolated GPS-field speed, NaN where a
    bracketing fix has no speed."""
    n = len(gps)
    if n == 0:
        return np.full(t.shape, np.nan), np.full(t.shape, np.nan), np.full(t.shape, np.nan)
    exact, inside, left, w = _bracket(gps["t"], t, max_gap_ms)
    right = np.minimum(left + 1, n - 1)

    def at(values: np.ndarray) -> np.ndarray:
        interpolated = values[left] + w * (values[right] - values[left])
        return np.where(exact, values[left], interpolated)

    located = exact | inside
    has = gps["has_speed_mps"]
    with_speed = exact & has[left] | inside & has[left] & has[right]
    speed = np.where(with_speed, at(np.where(has, gps["speed_mps"], 0.0)), np.nan)
    return np.where(located, at(gps["lat"]), np.nan), np.where(located, at(gps["lon"]), np.nan), speed


def _fill_finite_difference(t, lat, lon, speed) -> np.ndarray:
    """*speed* with each NaN replaced, where possible, by the central
    difference of the neighbors' positions (one-sided at the ends).

    The neighbors are picked with array operations; the distance is the
    scalar ``haversine``, so results match it to the bit.
    """
    n = t.size
    i = np.arange(n)
    lo = np.maximum(i - 1, 0)
    hi = np.minimum(i + 1, n - 1)
    dt_s = (t[hi] - t[lo]) / 1000.0
    located = ~np.isnan(lat)
    fill = np.isnan(speed) & (lo != hi) & located[lo] & located[hi] & (dt_s > 0)
    out = speed.copy()
    for k in np.flatnonzero(fill).tolist():
        a, b = lo[k], hi[k]
        d = haversine((float(lat[a]), float(lon[a])), (float(lat[b]), float(lon[b])))
        out[k] = d / float(dt_s[k])
    return out
