"""Geodesy and road referencing.

Distances use a spherical Earth (R = 6,371 km); snapping works in a local
equirectangular plane per polyline segment, which is plenty at corridor
scale where errors are far below GPS noise. Chainage is the cumulative
great-circle distance along the reference polyline.
"""

from __future__ import annotations

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
_SNAP_BLOCK_ELEMS = 1 << 20  # values per fixes x segments temporary in snap_many


def haversine(p1: tuple[float, float], p2: tuple[float, float]) -> float:
    """Great-circle distance in meters between (lat, lon) points."""
    lat1, lon1 = math.radians(p1[0]), math.radians(p1[1])
    lat2, lon2 = math.radians(p2[0]), math.radians(p2[1])
    dlat = lat2 - lat1
    dlon = lon2 - lon1
    a = math.sin(dlat / 2.0) ** 2 + math.cos(lat1) * math.cos(lat2) * math.sin(dlon / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_M * math.asin(min(1.0, math.sqrt(a)))


@dataclass(frozen=True)
class SnapResult:
    chainage_m: float
    cross_track_m: float
    segment_index: int


class Polyline:
    """Reference road line: ordered (lat, lon) vertices with cumulative
    chainage per vertex. Zero-length segments are rejected."""

    def __init__(self, vertices: Sequence[tuple[float, float]]):
        if len(vertices) < 2:
            raise ValidationError("polyline needs at least 2 vertices", field="vertices")
        self.vertices = [(float(lat), float(lon)) for lat, lon in vertices]
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

        *source* may be a path, a JSON string, or a parsed dict; Feature
        and FeatureCollection wrappers are unwrapped.
        """
        if isinstance(source, (str, Path)) and Path(str(source)).exists():
            doc = json.loads(Path(source).read_text(encoding="utf-8"))
        elif isinstance(source, (str, bytes)):
            doc = json.loads(source)
        else:
            doc = source
        geom = doc
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

    def snap_many(self, points: Sequence[tuple[float, float]]) -> list[SnapResult]:
        """Snap each (lat, lon) point to the nearest location on the line.

        *points* is a sequence of pairs or an (n, 2) array. Points are
        processed in row blocks so that each fixes x segments temporary
        stays near _SNAP_BLOCK_ELEMS values; rows are independent, so the
        blocking changes no result.
        """
        if len(points) == 0:
            return []
        pts = np.asarray(points, dtype=float)
        plat = np.radians(pts[:, 0])[:, None]
        plon = np.radians(pts[:, 1])[:, None]

        alat = np.radians(self._lat[:-1])[None, :]
        alon = np.radians(self._lon[:-1])[None, :]
        blat = np.radians(self._lat[1:])[None, :]
        blon = np.radians(self._lon[1:])[None, :]

        # local equirectangular frame about each segment's mean latitude
        lat0 = (alat + blat) / 2.0
        coslat = np.cos(lat0)
        ax = (alon * coslat) * EARTH_RADIUS_M
        ay = alat * EARTH_RADIUS_M
        bx = (blon * coslat) * EARTH_RADIUS_M
        by = blat * EARTH_RADIUS_M
        dx, dy = bx - ax, by - ay
        seg_sq = dx * dx + dy * dy
        seg_span = self.chainage[1:] - self.chainage[:-1]

        step = max(1, _SNAP_BLOCK_ELEMS // seg_sq.size)
        out = []
        for r0 in range(0, len(points), step):
            px = (plon[r0 : r0 + step] * coslat) * EARTH_RADIUS_M
            py = plat[r0 : r0 + step] * EARTH_RADIUS_M
            w = ((px - ax) * dx + (py - ay) * dy) / seg_sq
            w = np.clip(w, 0.0, 1.0)
            cx = ax + w * dx
            cy = ay + w * dy
            dist = np.hypot(px - cx, py - cy)

            best = np.argmin(dist, axis=1)  # first minimum -> lowest segment index
            rows = np.arange(best.size)
            chain = self.chainage[best] + w[rows, best] * seg_span[best]
            out.extend(
                SnapResult(chainage_m=c, cross_track_m=d, segment_index=k)
                for c, d, k in zip(
                    chain.tolist(), dist[rows, best].tolist(), best.tolist()
                )
            )
        return out


def snap_to_polyline(p: tuple[float, float], line: Polyline) -> SnapResult:
    return line.snap_many([p])[0]


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
    return accuracy_summary(line.snap_many([(f.lat, f.lon) for f in fixes]))


def accuracy_summary(snaps: Sequence[SnapResult]) -> GpsAccuracySummary:
    """Cross-track mean and nearest-rank 95th percentile of nonempty snaps."""
    cross = np.asarray([s.cross_track_m for s in snaps])
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

    Expected header: ``begin_log_m,end_log_m,iri``. Comment lines starting
    with ``#`` may precede it; a ``# units: <text>`` comment declares the
    IRI units, returned as an opaque string.
    """
    if isinstance(source, (str, Path)) and Path(str(source)).exists():
        text = Path(source).read_text(encoding="utf-8")
    else:
        text = str(source)
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
    out = []
    for seg in segments:
        covered = 0.0
        weighted = 0.0
        for ref in ordered:
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
