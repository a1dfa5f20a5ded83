"""Analysis pipeline and static report emission.

``analyze`` runs a validated package through spike detection, event
classification, and (when a route is supplied) chainage snapping,
alignment, per-segment roughness, reference joining, and fit metrics.
The streams stay decoded numpy columns throughout. ``emit_report``
writes the result as machine-readable files plus two standalone SVG
figures; report.json is canonical JSON so identical inputs produce
identical bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .canonical import dumps_canonical
from .config import Config
from .errors import ValidationError
from .geo import (
    FitMetrics,
    GpsAccuracySummary,
    Polyline,
    ReferenceIriRecord,
    accuracy_summary,
    join_reference,
    load_reference_csv,
    regression_metrics,
    trace_accuracy,  # noqa: F401
)
from .kinematics import (
    EventKind,
    classify_events,
    detect_axis_spikes,
    segment_roughness,
)
# read_manifest, read_streams, validate_package and trace_accuracy are
# re-exported: analyze no longer calls them, but callers and the benchmark
# tracer look them up on this module
from .package import (  # noqa: F401
    load_package,
    read_manifest,
    read_streams,
    validate_package,
)
from .timeline import align_streams

REPORT_JSON = "report.json"
SEGMENTS_CSV = "segments.csv"
EVENTS_CSV = "events.csv"
TRACE_GEOJSON = "trace.geojson"
ACCEL_SVG = "accel.svg"
FIT_SVG = "fit.svg"


@dataclass(frozen=True)
class AnalysisReport:
    """Everything the report files are derived from.

    The stream-sized fields feed the figures and the trace: ``samples``
    and ``gps`` are the decoded StreamColumns of the package (empty when
    absent), ``snaps`` one SnapResult per fix. Only the summary fields go
    into report.json.
    """

    package_id: str
    events: tuple
    segments: tuple
    gps_accuracy: Optional[GpsAccuracySummary]
    fit: Optional[FitMetrics]
    config: Config
    reference_units: Optional[str] = None
    samples: tuple = ()
    gps: tuple = ()
    snaps: tuple = ()

    def to_doc(self) -> dict:
        return {
            "package_id": self.package_id,
            "events": [
                {
                    "kind": e.kind.value,
                    "t_start_ms": e.t_start,
                    "t_end_ms": e.t_end,
                    "axes": sorted(e.source.axes) if e.source else [],
                }
                for e in self.events
            ],
            "segments": [
                {
                    "chainage_start_m": s.chainage_start_m,
                    "chainage_end_m": s.chainage_end_m,
                    "rms": s.rms,
                    "mean_speed_mps": s.mean_speed_mps,
                    "n_samples": s.n_samples,
                    "reference_iri": s.reference_iri,
                }
                for s in self.segments
            ],
            "gps_accuracy": None
            if self.gps_accuracy is None
            else {
                "mean_cross_track_m": self.gps_accuracy.mean_cross_track_m,
                "p95_cross_track_m": self.gps_accuracy.p95_cross_track_m,
                "n_fixes": self.gps_accuracy.n_fixes,
            },
            "fit": None
            if self.fit is None
            else {
                "rmse": self.fit.rmse,
                "rmspe_percent": self.fit.rmspe_percent,
                "r_squared": self.fit.r_squared,
            },
            "reference_units": self.reference_units,
            "params": {
                "frame_tol_ms": self.config.frame_tol_ms,
                "gps_max_gap_ms": self.config.gps_max_gap_ms,
                "rms_window_ms": self.config.rms_window_ms,
                "rms_hop_ms": self.config.rms_hop_ms,
                "spike_k": self.config.spike_k,
                "spike_window_ms": self.config.spike_window_ms,
                "merge_gap_ms": self.config.merge_gap_ms,
                "spike_min_run": self.config.spike_min_run,
                "segment_len_m": self.config.segment_len_m,
            },
        }


def _load_route(route) -> Optional[Polyline]:
    if route is None or isinstance(route, Polyline):
        return route
    return Polyline.from_geojson(route)


def _load_reference(reference) -> tuple[Optional[list[ReferenceIriRecord]], Optional[str]]:
    if reference is None:
        return None, None
    if isinstance(reference, (str, Path)):
        return load_reference_csv(reference)
    return list(reference), None


def analyze(package_dir, route=None, reference=None, config: Config | None = None) -> AnalysisReport:
    """Run the full pipeline over one package.

    ``route`` may be a Polyline or a GeoJSON source; ``reference`` a
    ReferenceIriRecord list or a CSV source. Reference without route is
    an argument error: joining needs chainage.
    """
    cfg = config or Config()
    line = _load_route(route)
    refs, units = _load_reference(reference)
    if refs is not None and line is None:
        raise ValueError("a reference IRI file requires a route (chainage comes from snapping)")

    if cfg.frame_tol_ms < 0:
        raise ValueError(f"frame_tol_ms must be >= 0, got {cfg.frame_tol_ms}")

    check, manifest, streams = load_package(package_dir)
    if not check.valid:
        raise ValidationError(
            "package failed validation: " + "; ".join(check.summary_lines()),
            field="package",
        )
    if streams is None:
        raise FileNotFoundError(f"package has a stream file missing: {package_dir}")
    samples, gps, _ = streams
    t = samples["t"]

    spikes = detect_axis_spikes(
        samples,
        k=cfg.spike_k,
        window_ms=cfg.spike_window_ms,
        merge_gap_ms=cfg.merge_gap_ms,
        min_run=cfg.spike_min_run,
    )
    bounds = (int(t[0]), int(t[-1])) if t.size else (None, None)
    timeline = classify_events(spikes, t_start=bounds[0], t_end=bounds[1])
    # calm stretches are the absence of an event; the report keeps detections
    events = tuple(e for e in timeline if e.kind is not EventKind.CALM)

    gps_accuracy = None
    segments: tuple = ()
    snaps: tuple = ()
    if line is not None and len(gps) > 0:
        snaps = tuple(line.snap_many(np.column_stack((gps["lat"], gps["lon"]))))
        gps_accuracy = accuracy_summary(snaps)
        # noise can snap a fix slightly behind its predecessor; chainage
        # used for segmentation must not run backward
        fix_chain = np.maximum.accumulate([s.chainage_m for s in snaps])
        sample_chain = np.interp(t.astype(float), gps["t"].astype(float), fix_chain)
        rows = align_streams(samples, gps, cfg.gps_max_gap_ms)
        segments = tuple(
            segment_roughness(rows, sample_chain, segment_len_m=cfg.segment_len_m)
        )

    fit = None
    if refs is not None and segments:
        segments = tuple(join_reference(list(segments), refs))
        joined = [s for s in segments if s.reference_iri is not None and s.n_samples > 0]
        if len(joined) >= 2:
            fit = regression_metrics(
                [s.reference_iri for s in joined], [s.rms for s in joined]
            )

    return AnalysisReport(
        package_id=manifest.package_id,
        events=events,
        segments=segments,
        gps_accuracy=gps_accuracy,
        fit=fit,
        config=cfg,
        reference_units=units,
        samples=samples,
        gps=gps,
        snaps=snaps,
    )


# -- file emission -------------------------------------------------------------


def _csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _write_csv(path: Path, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    lines = [",".join(header)]
    lines += [",".join(_csv_cell(c) for c in row) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _trace_doc(report: AnalysisReport) -> dict:
    features = []
    gps = report.gps
    fixes = zip(gps["lon"].tolist(), gps["lat"].tolist(), gps["t"].tolist()) if len(gps) else ()
    if report.snaps:
        coords = []
        for (lon, lat, t), snap in zip(fixes, report.snaps):
            coords.append([lon, lat])
            features.append(
                {
                    "type": "Feature",
                    "geometry": {"type": "Point", "coordinates": [lon, lat]},
                    "properties": {
                        "t_ms": t,
                        "chainage_m": snap.chainage_m,
                        "cross_track_m": snap.cross_track_m,
                    },
                }
            )
        features.insert(
            0,
            {
                "type": "Feature",
                "geometry": {"type": "LineString", "coordinates": coords}
                if len(coords) >= 2
                else {"type": "Point", "coordinates": coords[0] if coords else [0.0, 0.0]},
                "properties": {"role": "trace"},
            },
        )
    else:
        for lon, lat, t in fixes:
            features.append(
                {
                    "type": "Feature",
                    "geometry": {"type": "Point", "coordinates": [lon, lat]},
                    "properties": {"t_ms": t},
                }
            )
    return {"type": "FeatureCollection", "features": features}


def _f(v: float) -> str:
    return format(v, ".2f")


_AXIS_COLORS = (("ax", "#d62728"), ("ay", "#2ca02c"), ("az", "#1f77b4"))
_EVENT_FILL = {EventKind.POTHOLE: "#d6272822", EventKind.STEERING: "#ff7f0e22"}


def _accel_svg(report: AnalysisReport) -> str:
    width, height = 1000.0, 360.0
    left, right, top, bottom = 60.0, 16.0, 16.0, 36.0
    plot_w, plot_h = width - left - right, height - top - bottom
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width:g} {height:g}" '
        f'font-family="sans-serif" font-size="12">',
        f'<rect x="0" y="0" width="{width:g}" height="{height:g}" fill="white"/>',
    ]
    samples = report.samples
    if len(samples) == 0:
        parts.append(
            f'<text x="{width / 2:g}" y="{height / 2:g}" text-anchor="middle">no samples</text></svg>'
        )
        return "\n".join(parts)

    t = samples["t"].astype(float)
    t0, t1 = float(t[0]), float(t[-1])
    t_span = (t1 - t0) or 1.0
    az = samples["az"]
    series = {
        "ax": samples["ax"],
        "ay": samples["ay"],
        "az": az - az.mean(),  # remove gravity so one scale fits all three
    }
    lo = min(float(v.min()) for v in series.values())
    hi = max(float(v.max()) for v in series.values())
    if hi - lo < 1e-9:
        lo, hi = lo - 1.0, hi + 1.0
    pad = 0.05 * (hi - lo)
    lo, hi = lo - pad, hi + pad

    def sx(tv: float) -> float:
        return left + (tv - t0) / t_span * plot_w

    def sy(v: float) -> float:
        return top + (hi - v) / (hi - lo) * plot_h

    for e in report.events:
        x0, x1 = sx(e.t_start), sx(e.t_end)
        w = max(x1 - x0, 1.0)
        fill = _EVENT_FILL.get(e.kind, "#88888822")
        parts.append(
            f'<rect class="event" data-kind="{e.kind.value}" x="{_f(x0)}" y="{_f(top)}" '
            f'width="{_f(w)}" height="{_f(plot_h)}" fill="{fill}" stroke="none"/>'
        )

    parts.append(
        f'<line x1="{_f(left)}" y1="{_f(sy(0.0))}" x2="{_f(left + plot_w)}" y2="{_f(sy(0.0))}" '
        f'stroke="#cccccc" stroke-width="1"/>'
    )
    for name, color in _AXIS_COLORS:
        pts = " ".join(
            f"{_f(sx(tv))},{_f(sy(v))}" for tv, v in zip(t.tolist(), series[name].tolist())
        )
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1"/>'
        )
    # frame + labels
    parts.append(
        f'<rect x="{_f(left)}" y="{_f(top)}" width="{_f(plot_w)}" height="{_f(plot_h)}" '
        f'fill="none" stroke="#333333"/>'
    )
    for k in range(5):
        tv = t0 + t_span * k / 4
        parts.append(
            f'<text x="{_f(sx(tv))}" y="{_f(height - 14)}" text-anchor="middle">{tv / 1000.0:g}s</text>'
        )
    legend_x = left + 8
    for i, (name, color) in enumerate(_AXIS_COLORS):
        label = {"ax": "x", "ay": "y", "az": "z (detrended)"}[name]
        parts.append(
            f'<rect x="{_f(legend_x)}" y="{_f(top + 6 + 16 * i)}" width="12" height="3" fill="{color}"/>'
        )
        parts.append(
            f'<text x="{_f(legend_x + 18)}" y="{_f(top + 12 + 16 * i)}">{label}</text>'
        )
    parts.append(
        f'<text x="{_f(left)}" y="{_f(12)}" fill="#333333">acceleration (m/s&#178;) vs session time</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts)


def _fit_svg(report: AnalysisReport) -> str:
    size = 480.0
    left, right, top, bottom = 64.0, 20.0, 20.0, 48.0
    plot = size - left - right
    plot_h = size - top - bottom
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {size:g} {size:g}" '
        f'font-family="sans-serif" font-size="12">',
        f'<rect x="0" y="0" width="{size:g}" height="{size:g}" fill="white"/>',
    ]
    pairs = [
        (s.reference_iri, s.rms)
        for s in report.segments
        if s.reference_iri is not None and s.n_samples > 0
    ]
    if not pairs:
        parts.append(
            f'<text x="{size / 2:g}" y="{size / 2:g}" text-anchor="middle">no reference fit</text></svg>'
        )
        return "\n".join(parts)
    xs = np.asarray([p[0] for p in pairs])
    ys = np.asarray([p[1] for p in pairs])

    def scale(vals: np.ndarray) -> tuple[float, float]:
        lo, hi = float(vals.min()), float(vals.max())
        if hi - lo < 1e-12:
            lo, hi = lo - 1.0, hi + 1.0
        pad = 0.08 * (hi - lo)
        return lo - pad, hi + pad

    x_lo, x_hi = scale(xs)
    y_lo, y_hi = scale(ys)

    def sx(v: float) -> float:
        return left + (v - x_lo) / (x_hi - x_lo) * plot

    def sy(v: float) -> float:
        return top + (y_hi - v) / (y_hi - y_lo) * plot_h

    parts.append(
        f'<rect x="{_f(left)}" y="{_f(top)}" width="{_f(plot)}" height="{_f(plot_h)}" '
        f'fill="none" stroke="#333333"/>'
    )
    for x, y in pairs:
        parts.append(
            f'<circle class="pt" cx="{_f(sx(x))}" cy="{_f(sy(y))}" r="3.5" '
            f'fill="#1f77b4" fill-opacity="0.7"/>'
        )
    if report.fit is not None:
        # least-squares line over the plotted range
        r = np.corrcoef(xs, ys)[0, 1]
        slope = r * ys.std() / xs.std() if xs.std() > 0 else 0.0
        intercept = float(ys.mean() - slope * xs.mean())
        yl, yr = intercept + slope * x_lo, intercept + slope * x_hi
        parts.append(
            f'<line x1="{_f(sx(x_lo))}" y1="{_f(sy(yl))}" x2="{_f(sx(x_hi))}" y2="{_f(sy(yr))}" '
            f'stroke="#d62728" stroke-dasharray="5,4"/>'
        )
        parts.append(
            f'<text x="{_f(left + 6)}" y="{_f(top + 16)}">'
            f"rmse {report.fit.rmse:.4g}, rmspe {report.fit.rmspe_percent:.3g}%, "
            f"r_squared {report.fit.r_squared:.4f}</text>"
        )
    parts.append(
        f'<text x="{_f(left + plot / 2)}" y="{_f(size - 12)}" text-anchor="middle">reference IRI</text>'
    )
    parts.append(
        f'<text x="14" y="{_f(top + plot_h / 2)}" text-anchor="middle" '
        f'transform="rotate(-90 14 {_f(top + plot_h / 2)})">segment RMS (m/s&#178;)</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts)


def emit_report(report: AnalysisReport, out_dir) -> list[Path]:
    """Write report.json, segments.csv, events.csv, trace.geojson,
    accel.svg, and fit.svg. Returns the written paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []

    p = out / REPORT_JSON
    p.write_bytes(dumps_canonical(report.to_doc()) + b"\n")
    written.append(p)

    p = out / SEGMENTS_CSV
    _write_csv(
        p,
        ("chainage_start_m", "chainage_end_m", "rms", "mean_speed_mps", "n_samples", "reference_iri"),
        [
            (s.chainage_start_m, s.chainage_end_m, s.rms, s.mean_speed_mps, s.n_samples, s.reference_iri)
            for s in report.segments
        ],
    )
    written.append(p)

    p = out / EVENTS_CSV
    _write_csv(
        p,
        ("kind", "t_start_ms", "t_end_ms", "axes", "peak_score"),
        [
            (
                e.kind.value,
                e.t_start,
                e.t_end,
                "|".join(sorted(e.source.axes)) if e.source else "",
                repr(max(e.source.peak_score.values())) if e.source else "",
            )
            for e in report.events
        ],
    )
    written.append(p)

    p = out / TRACE_GEOJSON
    p.write_bytes(dumps_canonical(_trace_doc(report)) + b"\n")
    written.append(p)

    p = out / ACCEL_SVG
    p.write_text(_accel_svg(report), encoding="utf-8")
    written.append(p)

    p = out / FIT_SVG
    p.write_text(_fit_svg(report), encoding="utf-8")
    written.append(p)
    return written
