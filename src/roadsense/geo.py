"""Geodesy and road referencing.

Distances use a spherical Earth (R = 6,371 km); snapping works in a local
equirectangular plane per polyline segment, which is plenty at corridor
scale where errors are far below GPS noise. Chainage is the cumulative
great-circle distance along the reference polyline.

Snapping looks at few segments per point, and its answers are those of
comparing every point with every segment. Each segment's bounding box goes
into a uniform grid in one global equirectangular frame, taken at the
route's mean latitude, with cells a few median segment lengths wide; a
point's candidates are the segments in its 3 x 3 cell neighbourhood. A
segment's own frame is the global one with x scaled by cos(its latitude) /
cos(the mean latitude), so every segment outside the neighbourhood, at
least one cell away in the global frame, is at least that scale (capped
at 1, minimum over the route) times one cell away in its own frame. A
point whose nearest candidate is closer than that bound, less a margin
for rounding, is settled; every other point is compared with all
segments. Both go through the same per-pair arithmetic, and ties go to
the lowest segment index either way, so the grid changes no result.
"""

from __future__ import annotations

import bisect
import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .errors import ValidationError

EARTH_RADIUS_M = 6_371_000.0
_SNAP_BLOCK_ELEMS = 1 << 20  # (point, segment) pairs per snap_many kernel call
_SNAP_CELL_SEGMENTS = 4.0  # grid cell side in median segment lengths
_SNAP_CELLS_PER_SEGMENT = 8  # average grid cells a segment's box may cover


def haversine(p1: tuple[float, float], p2: tuple[float, float]) -> float:
    """Great-circle distance in meters between (lat, lon) points."""
    lat1, lon1 = math.radians(p1[0]), math.radians(p1[1])
    lat2, lon2 = math.radians(p2[0]), math.radians(p2[1])
    dlat = lat2 - lat1
    dlon = lon2 - lon1
    a = math.sin(dlat / 2.0) ** 2 + math.cos(lat1) * math.cos(lat2) * math.sin(dlon / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_M * math.asin(min(1.0, math.sqrt(a)))


def _source_text(source: str | Path) -> str:
    """A Path is always read as a file; a str is the text itself unless it
    names an existing file."""
    try:
        inline = isinstance(source, str) and not Path(source).is_file()
    except OSError:  # e.g. longer than a file name may be
        inline = True
    return source if inline else Path(source).read_text(encoding="utf-8")


@dataclass(frozen=True)
class SnapResult:
    chainage_m: float
    cross_track_m: float
    segment_index: int


class Polyline:
    """Reference road line: ordered (lat, lon) vertices with cumulative
    chainage per vertex. Non-finite or out-of-range vertices and
    zero-length segments are rejected."""

    def __init__(self, vertices: Sequence[tuple[float, float]]):
        if len(vertices) < 2:
            raise ValidationError("polyline needs at least 2 vertices", field="vertices")
        self.vertices = [(float(lat), float(lon)) for lat, lon in vertices]
        for i, (lat, lon) in enumerate(self.vertices):
            # NaN and the infinities fail these comparisons
            if not (abs(lat) <= 90.0 and abs(lon) <= 180.0):
                raise ValidationError(
                    f"vertex {i} ({lat}, {lon}) is not a finite lat in [-90, 90]"
                    " and lon in [-180, 180]",
                    field="vertices",
                )
        chainage = [0.0]
        for a, b in zip(self.vertices, self.vertices[1:]):
            d = haversine(a, b)
            if d <= 0.0:
                raise ValidationError(
                    f"zero-length segment at vertex {len(chainage) - 1}", field="vertices"
                )
            chainage.append(chainage[-1] + d)
        self.chainage = np.asarray(chainage)
        self._lat = np.asarray([v[0] for v in self.vertices])
        self._lon = np.asarray([v[1] for v in self.vertices])

    @property
    def length_m(self) -> float:
        return float(self.chainage[-1])

    @classmethod
    def from_geojson(cls, source) -> "Polyline":
        """Build from a GeoJSON LineString (coordinates in lon, lat order).

        *source* may be a Path (always read as a file), a str naming an
        existing file or holding the JSON itself, or a parsed dict; Feature
        and FeatureCollection wrappers are unwrapped.
        """
        if isinstance(source, (str, Path)):
            source = _source_text(source)
        geom = json.loads(source) if isinstance(source, (str, bytes)) else source
        if geom.get("type") == "FeatureCollection":
            feats = geom.get("features") or []
            if not feats:
                raise ValidationError("FeatureCollection has no features", field="features")
            geom = feats[0]
        if geom.get("type") == "Feature":
            geom = geom.get("geometry") or {}
        if geom.get("type") != "LineString":
            raise ValidationError(
                f"expected a LineString geometry, got {geom.get('type')!r}", field="type"
            )
        coords = geom.get("coordinates") or []
        return cls([(lat, lon) for lon, lat in coords])

    def point_at(self, chainage_m: float) -> tuple[float, float]:
        """(lat, lon) at a chainage along the line, clamped to the ends."""
        c = min(max(chainage_m, 0.0), self.length_m)
        i = int(np.searchsorted(self.chainage, c, side="right")) - 1
        i = min(max(i, 0), len(self.vertices) - 2)
        seg_len = self.chainage[i + 1] - self.chainage[i]
        w = (c - self.chainage[i]) / seg_len
        return (
            self._lat[i] + w * (self._lat[i + 1] - self._lat[i]),
            self._lon[i] + w * (self._lon[i + 1] - self._lon[i]),
        )

    def snap_many(self, points: Sequence[tuple[float, float]]):
        """Snap each (lat, lon) point to the nearest location on the line.

        *points* is a sequence of pairs or an (n, 2) array. Returns the
        columns ``(chainage_m, cross_track_m, segment_index)``: two float64
        arrays and one int64 array with one entry per point (all empty for
        no points).

        A point is first compared with the segments in its 3 x 3 grid
        neighbourhood (see the module docstring). When the nearest of them
        is closer than the grid's bound, no other segment can be as near,
        so the point is settled; otherwise it is compared with every
        segment. A point equidistant from several segments goes to the
        lowest segment index, as a first minimum over all segments would.
        Each pass evaluates (point, segment) pairs in blocks of at most
        about _SNAP_BLOCK_ELEMS pairs; pairs are independent, so neither
        the grid nor the blocking changes any result.
        """
        n = len(points)
        pts = np.asarray(points, dtype=float).reshape(n, 2)
        plat = np.radians(pts[:, 0])
        plon = np.radians(pts[:, 1])
        frames = _SegmentFrames(np.radians(self._lat), np.radians(self._lon))
        nseg = frames.coslat.size

        best = np.zeros(n, dtype=np.int64)
        unsettled = np.ones(n, dtype=bool)
        grid = _SegmentGrid.build(frames)
        if grid is not None:
            for pi, si, starts in grid.pair_blocks(plat, plon):
                seg, low = _nearest(frames.distance(plat, plon, pi, si)[1], si, starts, nseg)
                ok = low < grid.bound
                rows = pi[starts][ok]
                best[rows] = seg[ok]
                unsettled[rows] = False

        rest = np.flatnonzero(unsettled)
        step = max(1, _SNAP_BLOCK_ELEMS // nseg)
        for r0 in range(0, rest.size, step):
            rows = rest[r0 : r0 + step]
            pi = np.repeat(rows, nseg)
            si = np.tile(np.arange(nseg), rows.size)
            dist = frames.distance(plat, plon, pi, si)[1]
            best[rows] = _nearest(dist, si, np.arange(0, pi.size, nseg), nseg)[0]

        w, cross_track = frames.distance(plat, plon, np.arange(n), best)
        seg_span = self.chainage[1:] - self.chainage[:-1]
        chainage = self.chainage[best] + w * seg_span[best]
        return chainage, cross_track, best


class _SegmentFrames:
    """Each segment in its local equirectangular frame, about the mean
    latitude of its endpoints (all angles in radians)."""

    def __init__(self, lat: np.ndarray, lon: np.ndarray):
        alat, alon, blat, blon = lat[:-1], lon[:-1], lat[1:], lon[1:]
        lat0 = (alat + blat) / 2.0
        self.coslat = np.cos(lat0)
        self.ax = (alon * self.coslat) * EARTH_RADIUS_M
        self.ay = alat * EARTH_RADIUS_M
        bx = (blon * self.coslat) * EARTH_RADIUS_M
        by = blat * EARTH_RADIUS_M
        self.dx, self.dy = bx - self.ax, by - self.ay
        self.seg_sq = self.dx * self.dx + self.dy * self.dy
        self.lat, self.lon = lat, lon

    def distance(self, plat, plon, pi, si):
        """(w, dist) of each (point pi, segment si) pair: the position of
        the nearest location along the segment, clamped to [0, 1], and the
        distance to it in meters, both in the segment's own frame."""
        coslat = self.coslat[si]
        ax, ay, dx, dy = self.ax[si], self.ay[si], self.dx[si], self.dy[si]
        px = (plon[pi] * coslat) * EARTH_RADIUS_M
        py = plat[pi] * EARTH_RADIUS_M
        w = ((px - ax) * dx + (py - ay) * dy) / self.seg_sq[si]
        w = np.clip(w, 0.0, 1.0)
        cx = ax + w * dx
        cy = ay + w * dy
        return w, np.hypot(px - cx, py - cy)


def _nearest(dist, si, starts, nseg):
    """Per group of pairs (one point each, groups beginning at *starts*):
    the lowest segment index among the smallest distances, which is the
    first minimum over the segments whatever the order of the pairs, and
    that distance. NaN counts as smallest (reported as -1), as it does
    for ``np.argmin``.
    """
    d = np.where(np.isnan(dist), -1.0, dist)
    low = np.minimum.reduceat(d, starts)
    sizes = np.diff(np.append(starts, d.size))
    seg = np.minimum.reduceat(np.where(d == np.repeat(low, sizes), si, nseg), starts)
    return seg, low


class _SegmentGrid:
    """Segment bounding boxes in a uniform grid over the global frame.

    ``bound`` is the distance below which a point's nearest candidate is
    its nearest segment.
    """

    _NEIGHBOURS = [(i, j) for i in (-1, 0, 1) for j in (-1, 0, 1)]

    def __init__(self, cos_g, cell, bound, x0, y0, nx, ny, seg, keys, start, count):
        self.cos_g, self.cell, self.bound = cos_g, cell, bound
        self.x0, self.y0, self.nx, self.ny = x0, y0, nx, ny
        self.seg, self.keys, self.start, self.count = seg, keys, start, count

    @classmethod
    def build(cls, frames: _SegmentFrames) -> Optional["_SegmentGrid"]:
        """The grid for these segments; None when the geometry is not
        finite (every point is then compared with every segment)."""
        cos_g = float(np.cos(frames.lat.mean()))
        gx = (frames.lon * cos_g) * EARTH_RADIUS_M
        gy = frames.lat * EARTH_RADIUS_M
        # the cell side follows the route's own spacing; long segments
        # that would cover too many cells double it
        cell = _SNAP_CELL_SEGMENTS * float(np.median(np.hypot(np.diff(gx), np.diff(gy))))
        if not (np.isfinite(gx).all() and np.isfinite(gy).all() and np.isfinite(cell) and cell > 0):
            return None
        nseg = gx.size - 1
        lo_x, hi_x = np.minimum(gx[:-1], gx[1:]), np.maximum(gx[:-1], gx[1:])
        lo_y, hi_y = np.minimum(gy[:-1], gy[1:]), np.maximum(gy[:-1], gy[1:])
        while True:
            x0, x1 = np.floor(lo_x / cell), np.floor(hi_x / cell)
            y0, y1 = np.floor(lo_y / cell), np.floor(hi_y / cell)
            if ((x1 - x0 + 1) * (y1 - y0 + 1)).sum() <= _SNAP_CELLS_PER_SEGMENT * nseg:
                break
            cell *= 2.0
        ox, oy = x0.min(), y0.min()
        ix0, iy0 = (x0 - ox).astype(np.int64), (y0 - oy).astype(np.int64)
        w = (x1 - x0 + 1).astype(np.int64)
        h = (y1 - y0 + 1).astype(np.int64)
        nx, ny = int((x1 - ox).max()) + 1, int((y1 - oy).max()) + 1

        # one registration per (segment, covered cell), in segment order
        covers = w * h
        seg = np.repeat(np.arange(nseg), covers)
        k = np.arange(seg.size) - np.repeat(np.cumsum(covers) - covers, covers)
        key = (ix0[seg] + k // h[seg]) * ny + iy0[seg] + k % h[seg]
        order = np.argsort(key, kind="stable")
        keys, start, count = np.unique(key[order], return_index=True, return_counts=True)

        # a segment's own-frame distance is at least min(1, k_s) times its
        # global-frame distance; the margin covers the rounding of
        # coordinates (about 1e-8 m at Earth scale)
        k_min = min(1.0, float(np.abs(frames.coslat / cos_g).min()))
        bound = k_min * cell * (1.0 - 1e-6) - 1e-6
        return cls(cos_g, cell, bound, ox, oy, nx, ny, seg[order], keys, start, count)

    def pair_blocks(self, plat, plon):
        """(pi, si, starts) blocks of (point, candidate segment) pairs for
        every point with candidates, grouped by point, at most about
        _SNAP_BLOCK_ELEMS pairs a block. A segment in several of a point's
        cells appears once per cell, which changes no minimum."""
        cx = np.floor(((plon * self.cos_g) * EARTH_RADIUS_M) / self.cell) - self.x0
        cy = np.floor((plat * EARTH_RADIUS_M) / self.cell) - self.y0
        # far and non-finite points land outside the grid: no candidates
        cx = np.clip(np.where(np.isnan(cx), -2.0, cx), -2, self.nx + 1).astype(np.int64)
        cy = np.clip(np.where(np.isnan(cy), -2.0, cy), -2, self.ny + 1).astype(np.int64)
        starts = np.zeros((cx.size, len(self._NEIGHBOURS)), dtype=np.int64)
        counts = np.zeros_like(starts)
        for j, (di, dj) in enumerate(self._NEIGHBOURS):
            ix, iy = cx + di, cy + dj
            key = ix * self.ny + iy
            pos = np.minimum(np.searchsorted(self.keys, key), self.keys.size - 1)
            hit = (ix >= 0) & (ix < self.nx) & (iy >= 0) & (iy < self.ny) & (self.keys[pos] == key)
            starts[:, j] = self.start[pos]
            counts[:, j] = np.where(hit, self.count[pos], 0)

        per_point = counts.sum(axis=1)
        points = np.flatnonzero(per_point)
        ends = np.cumsum(per_point[points])
        r0 = 0
        while r0 < points.size:
            before = int(ends[r0 - 1]) if r0 else 0
            r1 = max(r0 + 1, int(np.searchsorted(ends, before + _SNAP_BLOCK_ELEMS, side="right")))
            rows = points[r0:r1]
            run_start, run_len = starts[rows].ravel(), counts[rows].ravel()
            pi = np.repeat(rows, per_point[rows])
            first = np.repeat(run_start - (np.cumsum(run_len) - run_len), run_len)
            si = self.seg[first + np.arange(pi.size)]
            yield pi, si, np.cumsum(per_point[rows]) - per_point[rows]
            r0 = r1


def snap_to_polyline(p: tuple[float, float], line: Polyline) -> SnapResult:
    chainage, cross_track, segment = line.snap_many([p])
    return SnapResult(float(chainage[0]), float(cross_track[0]), int(segment[0]))


@dataclass(frozen=True)
class GpsAccuracySummary:
    mean_cross_track_m: float
    p95_cross_track_m: float
    n_fixes: int


def trace_accuracy(fixes, line: Polyline) -> GpsAccuracySummary:
    """Snap every fix and summarize cross-track error (mean and the
    nearest-rank 95th percentile)."""
    if len(fixes) == 0:
        raise ValueError("trace_accuracy needs at least one fix")
    return accuracy_summary(line.snap_many([(f.lat, f.lon) for f in fixes])[1])


def accuracy_summary(cross: np.ndarray) -> GpsAccuracySummary:
    """Mean and nearest-rank 95th percentile of a nonempty cross-track array."""
    rank = max(1, math.ceil(0.95 * cross.size))  # nearest-rank percentile
    p95 = float(np.sort(cross)[rank - 1])
    return GpsAccuracySummary(
        mean_cross_track_m=float(cross.mean()),
        p95_cross_track_m=p95,
        n_fixes=int(cross.size),
    )


@dataclass(frozen=True)
class ReferenceIriRecord:
    """One reference roughness record between two mile-log chainages.

    Units of ``iri_value`` are whatever the reference file declares; they
    are carried opaquely.
    """

    begin_log_m: float
    end_log_m: float
    iri_value: float

    def __post_init__(self):
        if not self.end_log_m > self.begin_log_m:
            raise ValidationError(
                f"end_log_m ({self.end_log_m}) must exceed begin_log_m ({self.begin_log_m})",
                field="end_log_m",
            )
        if self.iri_value < 0:
            raise ValidationError(f"iri_value must be >= 0, got {self.iri_value}", field="iri_value")


def load_reference_csv(source) -> tuple[list[ReferenceIriRecord], Optional[str]]:
    """Read reference records from CSV.

    *source* may be a Path (always read as a file) or a str naming an
    existing file or holding the CSV text itself. Expected header:
    ``begin_log_m,end_log_m,iri``. Comment lines starting with ``#`` may
    precede it; a ``# units: <text>`` comment declares the IRI units,
    returned as an opaque string.
    """
    text = _source_text(source)
    units = None
    data_lines = []
    for line in text.splitlines():
        stripped = line.strip()
        if stripped.startswith("#"):
            body = stripped.lstrip("#").strip()
            if body.lower().startswith("units:"):
                units = body[len("units:"):].strip()
            continue
        if stripped:
            data_lines.append(line)
    reader = csv.DictReader(io.StringIO("\n".join(data_lines)))
    required = {"begin_log_m", "end_log_m", "iri"}
    if reader.fieldnames is None or not required.issubset(reader.fieldnames):
        raise ValidationError(
            f"reference CSV header must contain {sorted(required)}", field="header"
        )
    records = [
        ReferenceIriRecord(
            begin_log_m=float(row["begin_log_m"]),
            end_log_m=float(row["end_log_m"]),
            iri_value=float(row["iri"]),
        )
        for row in reader
    ]
    return records, units


def join_reference(segments, refs: Sequence[ReferenceIriRecord]):
    """Attach reference IRI to each segment as the length-weighted mean of
    overlapping reference records (weighted over the covered length).

    Segments with zero overlap keep ``reference_iri`` absent. Overlapping
    reference records are a validation error.
    """
    ordered = sorted(refs, key=lambda r: r.begin_log_m)
    for a, b in zip(ordered, ordered[1:]):
        if b.begin_log_m < a.end_log_m:
            raise ValidationError(
                f"reference records overlap: [{a.begin_log_m}, {a.end_log_m}) and "
                f"[{b.begin_log_m}, {b.end_log_m})",
                field="refs",
            )
    # the records do not overlap, so their ends ascend like their begins:
    # a segment visits only the records from the first one ending past its
    # start up to the last one beginning before its end, in the same order
    ends = [r.end_log_m for r in ordered]
    out = []
    for seg in segments:
        covered = 0.0
        weighted = 0.0
        for ref in ordered[bisect.bisect_right(ends, seg.chainage_start_m):]:
            if ref.begin_log_m >= seg.chainage_end_m:
                break
            lo = max(seg.chainage_start_m, ref.begin_log_m)
            hi = min(seg.chainage_end_m, ref.end_log_m)
            if hi > lo:
                covered += hi - lo
                weighted += (hi - lo) * ref.iri_value
        iri = weighted / covered if covered > 0.0 else None
        out.append(seg.with_reference_iri(iri))
    return out


@dataclass(frozen=True)
class FitMetrics:
    rmse: float
    rmspe_percent: float
    r_squared: float


def regression_metrics(truth: Sequence[float], pred: Sequence[float]) -> FitMetrics:
    """RMSE, RMSPE (percent), and R² of *pred* against *truth*.

    R² is the squared Pearson correlation of the two vectors (the
    linear-fit reading), NOT 1 - SS_res/SS_tot; the two diverge for
    biased predictors.
    """
    y = np.asarray(truth, dtype=float)
    yhat = np.asarray(pred, dtype=float)
    if y.shape != yhat.shape or y.ndim != 1 or y.size < 2:
        raise ValueError("truth and pred must be 1-D, equal length, and size >= 2")
    rmse = float(np.sqrt(np.mean((y - yhat) ** 2)))
    if np.any(y == 0.0):
        raise ValueError("rmspe undefined: truth contains zero values")
    rmspe = float(100.0 * np.sqrt(np.mean(((y - yhat) / y) ** 2)))
    sy = y - y.mean()
    sp = yhat - yhat.mean()
    denom = np.sqrt(np.sum(sy**2) * np.sum(sp**2))
    if denom == 0.0:
        raise ValueError("r_squared undefined: zero variance in truth or pred")
    r = float(np.sum(sy * sp) / denom)
    r = max(-1.0, min(1.0, r))
    return FitMetrics(rmse=rmse, rmspe_percent=rmspe, r_squared=r * r)
