"""Analysis pipeline and report emission."""

import hashlib
import json
import math

import numpy as np
import pytest

from roadsense.canonical import dumps_canonical
from roadsense.config import Config
from roadsense import model, package
from roadsense import report as report_module
from roadsense.drivesim import default_route, default_scenario, score_detections, write_package
from roadsense.errors import ValidationError
from roadsense.geo import Polyline, ReferenceIriRecord
from roadsense.kinematics import EventKind
from roadsense.report import (
    AnalysisReport,
    analyze,
    emit_report,
)


@pytest.fixture(scope="module")
def sim_package(tmp_path_factory):
    scenario = default_scenario(7, duration_s=60.0)
    lib = tmp_path_factory.mktemp("lib")
    pkg_dir, manifest, truth = write_package(scenario, lib)
    return scenario, pkg_dir, manifest, truth


def test_analyze_detects_the_injected_events(sim_package):
    scenario, pkg_dir, _, truth = sim_package
    report = analyze(pkg_dir, route=scenario.route)
    assert all(e.kind is not EventKind.CALM for e in report.events)
    score = score_detections(report.events, truth)
    assert score.precision == 1.0
    assert score.recall == 1.0
    assert score.lane_change_as_pothole == 0
    kinds = {e.kind for e in report.events}
    assert EventKind.POTHOLE in kinds and EventKind.STEERING in kinds

    assert len(report.segments) >= 6  # 60 s at 20 m/s, default cell length
    assert all(s.n_samples > 0 for s in report.segments)
    assert report.gps_accuracy is not None
    assert report.gps_accuracy.n_fixes == len(report.gps)
    assert report.fit is None  # no reference given


def test_analyze_without_route_keeps_time_domain_results(sim_package):
    _, pkg_dir, _, truth = sim_package
    report = analyze(pkg_dir)
    assert score_detections(report.events, truth).recall == 1.0
    assert report.segments == ()
    assert report.gps_accuracy is None
    assert report.fit is None


def test_analyze_self_reference_fits_perfectly(sim_package, tmp_path):
    scenario, pkg_dir, _, _ = sim_package
    base = analyze(pkg_dir, route=scenario.route)
    refs = [
        ReferenceIriRecord(s.chainage_start_m, s.chainage_end_m, s.rms)
        for s in base.segments
    ]
    report = analyze(pkg_dir, route=scenario.route, reference=refs)
    assert report.fit is not None
    assert report.fit.rmse == pytest.approx(0.0, abs=1e-10)
    assert report.fit.rmspe_percent == pytest.approx(0.0, abs=1e-8)
    assert report.fit.r_squared == pytest.approx(1.0, rel=1e-9)
    assert report.reference_units is None

    csv_path = tmp_path / "iri.csv"
    csv_path.write_text(
        "# units: in/mi\nbegin_log_m,end_log_m,iri\n"
        + "".join(f"{r.begin_log_m},{r.end_log_m},{r.iri_value}\n" for r in refs)
    )
    from_csv = analyze(pkg_dir, route=scenario.route, reference=csv_path)
    assert from_csv.reference_units == "in/mi"
    assert from_csv.fit.r_squared == pytest.approx(1.0, rel=1e-9)


def test_reference_without_route_is_an_argument_error(sim_package):
    _, pkg_dir, _, _ = sim_package
    with pytest.raises(ValueError, match="route"):
        analyze(pkg_dir, reference=[ReferenceIriRecord(0.0, 100.0, 1.0)])


def test_negative_frame_tolerance_is_an_argument_error(sim_package):
    _, pkg_dir, _, _ = sim_package
    with pytest.raises(ValueError) as e:
        analyze(pkg_dir, config=Config(frame_tol_ms=-1))
    assert str(e.value) == "frame_tol_ms must be >= 0, got -1"


def test_analyze_rejects_corrupt_package(tmp_path):
    pkg_dir, _, _ = write_package(default_scenario(8, duration_s=4.0), tmp_path)
    blob = pkg_dir / "sensors.jsonl"
    raw = bytearray(blob.read_bytes())
    raw[0] ^= 0xFF
    blob.write_bytes(bytes(raw))
    with pytest.raises(ValidationError, match="validation"):
        analyze(pkg_dir)


# -- emission ----------------------------------------------------------------------


EXPECTED_FILES = [
    "report.json", "segments.csv", "events.csv", "trace.geojson", "accel.svg", "fit.svg",
]


def test_emit_full_report(sim_package, tmp_path):
    scenario, pkg_dir, _, _ = sim_package
    base = analyze(pkg_dir, route=scenario.route)
    refs = [
        ReferenceIriRecord(s.chainage_start_m, s.chainage_end_m, s.rms)
        for s in base.segments
    ]
    report = analyze(pkg_dir, route=scenario.route, reference=refs)
    written = emit_report(report, tmp_path / "out")
    assert [p.name for p in written] == EXPECTED_FILES
    assert all(p.is_file() for p in written)

    doc = json.loads((tmp_path / "out" / "report.json").read_bytes())
    assert doc["package_id"] == scenario.package_id
    assert len(doc["events"]) == len(report.events)
    assert len(doc["segments"]) == len(report.segments)
    assert doc["fit"]["r_squared"] == report.fit.r_squared
    assert doc["params"]["segment_len_m"] == Config().segment_len_m

    # canonical form: re-serializing the parsed doc reproduces the bytes
    raw = (tmp_path / "out" / "report.json").read_bytes()
    assert dumps_canonical(json.loads(raw)) + b"\n" == raw

    accel = (tmp_path / "out" / "accel.svg").read_text()
    assert accel.count('class="event"') == len(report.events)
    joined = [s for s in report.segments if s.reference_iri is not None and s.n_samples > 0]
    fit_svg = (tmp_path / "out" / "fit.svg").read_text()
    assert fit_svg.count('class="pt"') == len(joined)

    trace = json.loads((tmp_path / "out" / "trace.geojson").read_bytes())
    assert trace["type"] == "FeatureCollection"
    assert len(trace["features"]) == len(report.gps) + 1  # trace line + one per fix
    assert trace["features"][0]["properties"]["role"] == "trace"
    assert "chainage_m" in trace["features"][1]["properties"]

    seg_lines = (tmp_path / "out" / "segments.csv").read_text().splitlines()
    assert seg_lines[0].startswith("chainage_start_m,")
    assert len(seg_lines) == len(report.segments) + 1
    first = seg_lines[1].split(",")
    assert float(first[0]) == report.segments[0].chainage_start_m
    assert float(first[2]) == report.segments[0].rms  # repr round-trips exactly

    event_lines = (tmp_path / "out" / "events.csv").read_text().splitlines()
    assert event_lines[0] == "kind,t_start_ms,t_end_ms,axes,peak_score"
    assert len(event_lines) == len(report.events) + 1
    assert event_lines[1].split(",")[0] in ("pothole", "steering_event")


def test_emit_is_deterministic(sim_package, tmp_path):
    scenario, pkg_dir, _, _ = sim_package
    report = analyze(pkg_dir, route=scenario.route)
    emit_report(report, tmp_path / "one")
    emit_report(analyze(pkg_dir, route=scenario.route), tmp_path / "two")
    for name in EXPECTED_FILES:
        assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()


def test_emit_empty_report(tmp_path):
    report = AnalysisReport(
        package_id="00000000-0000-0000-0000-000000000000",
        events=(),
        segments=(),
        gps_accuracy=None,
        fit=None,
        config=Config(),
    )
    written = emit_report(report, tmp_path)
    assert [p.name for p in written] == EXPECTED_FILES
    assert "no samples" in (tmp_path / "accel.svg").read_text()
    assert "no reference fit" in (tmp_path / "fit.svg").read_text()
    assert len((tmp_path / "segments.csv").read_text().splitlines()) == 1
    assert len((tmp_path / "events.csv").read_text().splitlines()) == 1
    doc = json.loads((tmp_path / "report.json").read_bytes())
    assert doc["events"] == [] and doc["segments"] == []
    assert json.loads((tmp_path / "trace.geojson").read_bytes())["features"] == []


# -- pinned outputs and work counts -------------------------------------------------

# sha256 of every report file for the fixed drive below, recorded before the
# analysis core was vectorized; a change that alters these alters report bytes
FIXED_DRIVE_DIGESTS = {
    "report.json": "0cff7b908b00c0cb1aa503567c34ed9598e35fae63369318077e86d4ecb4172a",
    "segments.csv": "3a1901cb62dea59435d7393116bdab3176795c8f0fb7d1d39b57fd545600ee00",
    "events.csv": "074e881605acfe4ca30796d303787c73c075c86c9f00ab17b116fc1789b8807d",
    "trace.geojson": "e29ceff141ca04f12d38d65d7048bd9d415b9c762bd03cb338d31fdf335e9228",
    "accel.svg": "d0a36a5f9d223f6ebe6a3ff3c32ee766e8aafd7771848e002301cca6bbb13d38",
    "fit.svg": "ae13e21a9a5a4bc0e9e9253a27754c38070e72976e073eaf8fa1f4ee83fc3eaa",
}


@pytest.fixture(scope="module")
def fixed_drive(tmp_path_factory):
    """Seed 7, 120 s, the default route as GeoJSON and a seeded IRI CSV with
    one row per 160.9 m cell (the benchmark's fixed drive)."""
    root = tmp_path_factory.mktemp("fixed")
    line = default_route()
    pkg_dir = write_package(default_scenario(7), root / "lib")[0]
    route = root / "route.geojson"
    coords = [[lon, lat] for lat, lon in line.vertices]
    route.write_text(json.dumps({"type": "LineString", "coordinates": coords}), encoding="utf-8")
    rng = np.random.default_rng([7, 2])
    rows = ["# units: m/km", "begin_log_m,end_log_m,iri"]
    for c in range(math.ceil(line.length_m / 160.9)):
        lo, hi = c * 160.9, min((c + 1) * 160.9, line.length_m)
        rows.append(f"{lo:.1f},{hi:.1f},{1.0 + 3.0 * float(rng.random()):.3f}")
    ref = root / "iri.csv"
    ref.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return pkg_dir, route, ref


def test_fixed_drive_report_bytes_are_pinned(fixed_drive, tmp_path):
    pkg_dir, route, ref = fixed_drive
    emit_report(analyze(pkg_dir, route=route, reference=ref), tmp_path)
    got = {n: hashlib.sha256((tmp_path / n).read_bytes()).hexdigest() for n in EXPECTED_FILES}
    assert got == FIXED_DRIVE_DIGESTS


def test_routed_analyze_decodes_and_snaps_once(fixed_drive, monkeypatch):
    pkg_dir, route, ref = fixed_drive
    decoded, record_decodes, snapped = [], [], []
    decode, record_decode = package.decode_jsonl_columns, model.decode_jsonl_stream
    snap_many = Polyline.snap_many

    def counting_decode(data, record_cls, stream_name):
        decoded.append(stream_name)
        return decode(data, record_cls, stream_name)

    def counting_record_decode(data, record_cls, stream_name):
        record_decodes.append(stream_name)
        return record_decode(data, record_cls, stream_name)

    def counting_snap(self, points):
        snapped.append(len(points))
        return snap_many(self, points)

    monkeypatch.setattr(package, "decode_jsonl_columns", counting_decode)
    for mod in (package, model):
        monkeypatch.setattr(mod, "decode_jsonl_stream", counting_record_decode)
    monkeypatch.setattr(Polyline, "snap_many", counting_snap)
    analyze(pkg_dir, route=route, reference=ref)
    assert sorted(decoded) == sorted(package.STREAM_NAMES)
    assert record_decodes == []
    assert len(snapped) == 1


def test_routed_analyze_aligns_through_the_report_binding(fixed_drive, monkeypatch):
    pkg_dir, route, ref = fixed_drive
    aligned = []
    align = report_module.align_streams

    def counting_align(samples, gps, gps_max_gap_ms):
        rows = align(samples, gps, gps_max_gap_ms)
        aligned.append(rows)
        return rows

    monkeypatch.setattr(report_module, "align_streams", counting_align)
    analyze(pkg_dir, route=route, reference=ref)
    assert len(aligned) == 1
    assert {"t", "az", "lat", "lon", "speed_mps"} <= set(aligned[0].fields)
