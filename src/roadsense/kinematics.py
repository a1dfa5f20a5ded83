"""IMU signal analysis: windowed RMS roughness, per-axis spike detection,
and event classification from the axis pattern.

Axis convention (device mounted on the windshield): z is perpendicular to
the road plane, x lateral, y longitudinal. The classification rule keys on
which axes spike together: vertical participation means a road defect
(pothole); lateral/longitudinal-only transients mean a steering event
(lane change or curve); quiet stretches are calm.

Spike scores are robust z-scores, (value - median) / (1.4826 * MAD), over
a centered rolling window: the median/MAD baseline is not corrupted by the
spikes themselves the way mean/stddev would be. A window whose MAD is zero
is a constant stretch; samples equal to the median score 0 there, while a
sample deviating from an otherwise-constant window scores infinite (a
clean impulse on a noiseless channel is still a spike).

The rolling median and MAD are batched per window width: samples whose
windows hold the same number of samples are gathered into one
(rows x width) matrix, at most about 64 Ki values at a time, sorted
once along its rows, and read at the middle: the middle element for an
odd width, ``(a + b) / 2`` of the two middle ones for an even width. The
MAD is read the same way off the sorted ``|window - median|``. This is
exactly what ``np.median`` returns, since it takes the same order
statistics and ``np.mean`` of them; ``np.median`` only partitions a
second time to look for NaN, and the channels are validated finite, so
the sort gives the same values at about half the cost. A regular sample
grid has only a handful of distinct widths, so a whole stream costs a
few vectorized sorts instead of two medians per sample.

Every function here takes the samples as decoded ``StreamColumns``, the
form ``package.load_package`` gives; the record types stay at the edges
(see ``model``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .errors import ValidationError
from .model import StreamColumns

MAD_SCALE = 1.4826  # makes MAD consistent with stddev for Gaussian noise

DEFAULT_WINDOW_MS = 1000
DEFAULT_HOP_MS = 500
DEFAULT_SPIKE_K = 3.0
DEFAULT_MERGE_GAP_MS = 300
DEFAULT_MIN_RUN = 2          # consecutive supra-threshold samples per axis
DEFAULT_SEGMENT_LEN_M = 160.9  # 0.1 mile, matching mile-log conventions

# values per gathered window matrix in robust_scores. A block makes three
# matrices of this size (the int64 gather index, the windows and their
# spreads), 512 KiB each at 64 Ki values, so all three fit a 2 MiB per-core
# L2 cache; blocks of 1 Mi values (8 MiB each) spent most of their time
# moving data through memory. The scores do not depend on the block size.
_GATHER_ELEMS = 1 << 16

ACCEL_CHANNELS = {"x": "ax", "y": "ay", "z": "az"}

# a channel whose largest magnitude is below 2**_SAFE_EXP keeps its
# deviations, the sums the medians take of two of them and its MAD_SCALE
# multiples (each at most four times that magnitude) below the float limit
_SAFE_EXP = 1021


def rms(values: Sequence[float]) -> float:
    """sqrt(mean of squares). Empty input is an error."""
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        raise ValueError("rms of empty input is undefined")
    return float(np.sqrt(np.mean(v * v)))


@dataclass(frozen=True)
class RmsPoint:
    t_center: int
    rms: float


@dataclass(frozen=True)
class RmsSeries:
    window_ms: int
    hop_ms: int
    points: tuple[RmsPoint, ...]


def _channel(samples: StreamColumns, axis: str) -> np.ndarray:
    attr = ACCEL_CHANNELS.get(axis, axis)
    if attr not in ("ax", "ay", "az"):
        raise ValueError(f"unknown axis {axis!r}; expected x, y or z")
    return samples[attr]


def _scaled_channel(samples: StreamColumns, axis: str) -> tuple[np.ndarray, int]:
    """One channel and 0, or, for a channel near the float limit, the
    channel times 2**-e, which lies in (-1, 1), and e. Robust z-scores do
    not change under a power-of-two scale, so both score the same."""
    x = _channel(samples, axis)
    e = math.frexp(float(np.abs(x).max()))[1] if x.size else 0
    return (np.ldexp(x, -e), e) if e > _SAFE_EXP else (x, 0)


def sliding_rms(
    samples: StreamColumns,
    axis: str = "z",
    window_ms: int = DEFAULT_WINDOW_MS,
    hop_ms: int = DEFAULT_HOP_MS,
    detrend: bool = True,
) -> RmsSeries:
    """Windowed RMS of one acceleration channel.

    Windows are [start, start + window_ms) anchored at the first sample,
    stepping by hop_ms. With ``detrend`` the window mean is removed first
    (suppresses gravity and mounting bias). Windows with fewer than 2
    samples are skipped.
    """
    if window_ms <= 0 or hop_ms <= 0:
        raise ValueError("window_ms and hop_ms must be > 0")
    if len(samples) == 0:
        return RmsSeries(window_ms, hop_ms, ())
    ts = samples["t"]
    x = _channel(samples, axis)
    points = []
    start = int(ts[0])
    last = int(ts[-1])
    while start <= last:
        lo = int(np.searchsorted(ts, start, side="left"))
        hi = int(np.searchsorted(ts, start + window_ms, side="left"))
        if hi - lo >= 2:
            w = x[lo:hi]
            if detrend:
                w = w - w.mean()
            points.append(RmsPoint(t_center=start + window_ms // 2, rms=rms(w)))
        start += hop_ms
    return RmsSeries(window_ms, hop_ms, tuple(points))


@dataclass(frozen=True)
class SpikeEvent:
    """A merged excursion: the axes that spiked and the peak robust
    z-score per axis."""

    t_start: int
    t_end: int
    axes: frozenset[str]
    peak_score: dict

    def __post_init__(self):
        if self.t_end < self.t_start:
            raise ValidationError("t_end must be >= t_start", field="t_end")
        if not self.axes:
            raise ValidationError("axes must be nonempty", field="axes")


def robust_scores(
    samples: StreamColumns,
    axis: str,
    window_ms: int = DEFAULT_WINDOW_MS,
    scale_floor: float = 0.0,
) -> np.ndarray:
    """Per-sample robust z-score of one channel against its centered
    rolling window of width window_ms.

    ``scale_floor`` bounds the denominator from below; 0 keeps the pure
    per-window statistic.
    """
    ts = samples["t"]
    x, e = _scaled_channel(samples, axis)
    if e:
        scale_floor = math.ldexp(scale_floor, -e)
    n = x.size
    if n == 0:
        return np.zeros(0)
    half = window_ms / 2.0
    lo = np.searchsorted(ts, ts - half, side="left")
    hi = np.searchsorted(ts, ts + half, side="right")
    width = hi - lo
    med = np.empty(n)
    mad = np.empty(n)
    for w in np.unique(width):
        rows = np.flatnonzero(width == w)
        offsets = np.arange(w)
        # bound each gathered matrix to about _GATHER_ELEMS values
        step = max(1, _GATHER_ELEMS // int(w))
        for r in range(0, rows.size, step):
            block = rows[r : r + step]
            win = x[lo[block, None] + offsets]
            win.sort(axis=1)
            m = _sorted_middle(win)
            med[block] = m
            spread = np.abs(win - m[:, None])
            spread.sort(axis=1)
            mad[block] = _sorted_middle(spread)
    scale = np.maximum(MAD_SCALE * mad, scale_floor)
    dev = x - med
    flat = scale == 0.0
    scores = np.where(flat, 0.0, dev / np.where(flat, 1.0, scale))
    impulse = flat & (dev != 0.0)
    scores[impulse] = np.copysign(np.inf, dev[impulse])
    return scores


def _sorted_middle(rows: np.ndarray) -> np.ndarray:
    """Median of each row of a row-sorted matrix, as ``np.median`` computes it."""
    half = rows.shape[1] // 2
    if rows.shape[1] % 2:
        return rows[:, half]
    return (rows[:, half - 1] + rows[:, half]) / 2.0


def _global_scale(samples: StreamColumns, axis: str) -> float:
    """Whole-stream robust scale of one channel (MAD about the median)."""
    x = _channel(samples, axis)
    if x.size == 0:
        return 0.0
    return float(MAD_SCALE * np.median(np.abs(x - np.median(x))))


def _runs_at_least(mask: np.ndarray, min_run: int) -> list[tuple[int, int]]:
    """(start, end) index pairs (inclusive) of True runs of length >= min_run."""
    edges = np.diff(np.concatenate(([0], np.asarray(mask, dtype=np.int8), [0])))
    starts = np.flatnonzero(edges == 1)
    ends = np.flatnonzero(edges == -1) - 1
    keep = ends - starts + 1 >= min_run
    return list(zip(starts[keep].tolist(), ends[keep].tolist()))


def detect_axis_spikes(
    samples: StreamColumns,
    k: float = DEFAULT_SPIKE_K,
    window_ms: int = DEFAULT_WINDOW_MS,
    merge_gap_ms: int = DEFAULT_MERGE_GAP_MS,
    min_run: int = DEFAULT_MIN_RUN,
) -> list[SpikeEvent]:
    """Find spike events across the three acceleration axes.

    Per axis, samples with |robust z-score| >= k lasting at least
    ``min_run`` consecutive samples form an excursion (the run-length
    floor debounces single-sample noise exceedances). Excursions that
    overlap, or sit closer than merge_gap_ms, coalesce into one event
    whose axes set is the union.

    Scoring floors each window's scale at the whole-stream robust scale:
    a one-second window holds only ~30 samples, so its MAD wobbles enough
    to dip the effective threshold and admit noise. The floor is zero on
    constant streams, so clean impulses still score inf.
    """
    if k <= 0:
        raise ValueError(f"k must be > 0, got {k}")
    if len(samples) == 0:
        return []
    ts = samples["t"]

    excursions = []  # (t_start, t_end, axis, peak)
    for axis in ("x", "y", "z"):
        x, e = _scaled_channel(samples, axis)
        # a channel near the float limit is scored scaled, so that its
        # whole-stream scale stays finite too
        channel = StreamColumns({"t": ts, ACCEL_CHANNELS[axis]: x}) if e else samples
        scores = robust_scores(
            channel, axis, window_ms, scale_floor=_global_scale(channel, axis)
        )
        mask = np.abs(scores) >= k
        for i, j in _runs_at_least(mask, min_run):
            peak = float(np.max(np.abs(scores[i : j + 1])))
            excursions.append((int(ts[i]), int(ts[j]), axis, peak))

    if not excursions:
        return []
    excursions.sort(key=lambda e: (e[0], e[1]))

    events: list[SpikeEvent] = []
    cur_start, cur_end, axis0, peak0 = excursions[0]
    cur_axes = {axis0: peak0}
    for t0, t1, axis, peak in excursions[1:]:
        if t0 <= cur_end + merge_gap_ms:
            cur_end = max(cur_end, t1)
            cur_axes[axis] = max(cur_axes.get(axis, 0.0), peak)
        else:
            events.append(
                SpikeEvent(cur_start, cur_end, frozenset(cur_axes), dict(cur_axes))
            )
            cur_start, cur_end = t0, t1
            cur_axes = {axis: peak}
    events.append(SpikeEvent(cur_start, cur_end, frozenset(cur_axes), dict(cur_axes)))
    return events


class EventKind(str, Enum):
    POTHOLE = "pothole"
    STEERING = "steering_event"
    CALM = "calm"


@dataclass(frozen=True)
class DriveEvent:
    kind: EventKind
    t_start: int
    t_end: int
    source: Optional[SpikeEvent] = None


def classify_spike(spike: SpikeEvent) -> EventKind:
    """Vertical participation means pothole; lateral/longitudinal-only
    means a steering event (lane change or curve)."""
    if "z" in spike.axes:
        return EventKind.POTHOLE
    return EventKind.STEERING


def classify_events(
    spikes: Sequence[SpikeEvent],
    t_start: Optional[int] = None,
    t_end: Optional[int] = None,
) -> list[DriveEvent]:
    """Map spike events to drive events and fill the gaps with calm
    intervals. Optional stream bounds add leading/trailing calm."""
    ordered = sorted(spikes, key=lambda s: (s.t_start, s.t_end))
    events: list[DriveEvent] = []
    cursor = t_start
    for s in ordered:
        if cursor is not None and s.t_start > cursor:
            events.append(DriveEvent(EventKind.CALM, cursor, s.t_start))
        events.append(DriveEvent(classify_spike(s), s.t_start, s.t_end, source=s))
        cursor = s.t_end if cursor is None else max(cursor, s.t_end)
    if t_end is not None and (cursor is None or t_end > cursor):
        events.append(DriveEvent(EventKind.CALM, cursor if cursor is not None else t_end, t_end))
    return events


@dataclass(frozen=True)
class SegmentReport:
    """Per-road-segment roughness: RMS of detrended vertical acceleration,
    mean speed, sample count, and the joined reference IRI when known."""

    chainage_start_m: float
    chainage_end_m: float
    rms: float
    mean_speed_mps: Optional[float]
    n_samples: int
    reference_iri: Optional[float] = None

    def __post_init__(self):
        if not self.chainage_end_m > self.chainage_start_m:
            raise ValidationError(
                "chainage_end_m must exceed chainage_start_m", field="chainage_end_m"
            )
        if self.n_samples < 0:
            raise ValidationError("n_samples must be >= 0", field="n_samples")

    def with_reference_iri(self, iri: Optional[float]) -> "SegmentReport":
        return replace(self, reference_iri=iri)


def segment_roughness(
    aligned: StreamColumns,
    chainage: Sequence[float],
    segment_len_m: float = DEFAULT_SEGMENT_LEN_M,
) -> list[SegmentReport]:
    """Partition samples by chainage into fixed [i*L, (i+1)*L) cells and
    report per-cell RMS of detrended vertical acceleration plus mean speed.

    *aligned* holds an ``az`` column and a ``speed_mps`` column that is
    NaN where the speed is unknown, as ``timeline.align_streams`` gives.

    Cells up to the last occupied one are all emitted, empty ones with
    n_samples = 0.
    """
    if segment_len_m <= 0:
        raise ValueError(f"segment_len_m must be > 0, got {segment_len_m}")
    if len(aligned) != len(chainage):
        raise ValueError("aligned and chainage must be the same length")
    if len(aligned) == 0:
        return []
    c = np.asarray(chainage, dtype=float)
    if np.any(np.diff(c) < 0):
        raise ValueError("chainage must be nondecreasing")
    az, speed = aligned["az"], aligned["speed_mps"]
    has_speed = ~np.isnan(speed)

    n_cells = int(np.floor(c[-1] / segment_len_m)) + 1
    cell_of = np.minimum((c / segment_len_m).astype(int), n_cells - 1)
    # chainage is nondecreasing, so every cell is one contiguous slice
    bounds = np.searchsorted(cell_of, np.arange(n_cells + 1), side="left")
    reports = []
    for i in range(n_cells):
        lo, hi = int(bounds[i]), int(bounds[i + 1])
        start = i * segment_len_m
        end = (i + 1) * segment_len_m
        if lo == hi:
            reports.append(
                SegmentReport(start, end, rms=0.0, mean_speed_mps=None, n_samples=0)
            )
            continue
        w = az[lo:hi]
        seg_rms = rms(w - w.mean())
        present = speed[lo:hi][has_speed[lo:hi]]
        mean_speed = float(np.mean(present)) if present.size else None
        reports.append(
            SegmentReport(start, end, rms=seg_rms, mean_speed_mps=mean_speed, n_samples=hi - lo)
        )
    return reports
