"""Drive simulator: determinism, signal morphology, scoring, chaos replay."""

import json
import uuid

import numpy as np
import pytest

from roadsense.drivesim import (
    GRAVITY_MPS2,
    DetectionScore,
    GroundTruth,
    NetworkProfile,
    RoughPatch,
    Scenario,
    SimEvent,
    SimEventKind,
    SpeedStep,
    TruthEvent,
    default_scenario,
    generate_drive,
    replay_upload,
    score_detections,
    write_package,
)
from roadsense.errors import ValidationError
from roadsense.geo import snap_to_polyline
from roadsense.kinematics import DriveEvent, EventKind, detect_axis_spikes
from roadsense.model import SensorSample, columns_from_records
from roadsense.packstore import UploadStatus
from roadsense.syncclient import SyncClient

QUIET = {"accel": 0.0, "gyro": 0.0}


def quiet_scenario(seed=1, **kw):
    kw.setdefault("duration_s", 10.0)
    kw.setdefault("noise_sigma", QUIET)
    kw.setdefault("events", ())
    return Scenario(seed=seed, **kw)


# -- determinism ------------------------------------------------------------------


def test_generate_drive_is_deterministic():
    scenario = default_scenario(42, duration_s=12.0)
    a = generate_drive(scenario)
    b = generate_drive(scenario)
    assert a.samples == b.samples
    assert a.gps == b.gps
    assert a.frames == b.frames
    assert a.truth == b.truth


def test_write_package_is_byte_identical_across_roots(tmp_path):
    scenario = default_scenario(7, duration_s=8.0)
    dir_a, manifest_a, truth_a = write_package(scenario, tmp_path / "a")
    dir_b, manifest_b, truth_b = write_package(scenario, tmp_path / "b")
    assert manifest_a == manifest_b
    assert truth_a == truth_b
    assert dir_a.name == dir_b.name == scenario.package_id
    for blob in manifest_a.blobs:
        assert (dir_a / blob.name).read_bytes() == (dir_b / blob.name).read_bytes()
    assert (dir_a / "manifest.json").read_bytes() == (dir_b / "manifest.json").read_bytes()


def test_different_seeds_differ():
    base = generate_drive(default_scenario(1, duration_s=6.0))
    other = generate_drive(default_scenario(2, duration_s=6.0))
    assert base.samples != other.samples
    assert base.scenario.package_id != other.scenario.package_id


def test_package_id_is_a_seed_function():
    assert Scenario(seed=5).package_id == Scenario(seed=5, duration_s=3.0).package_id
    assert Scenario(seed=5).package_id != Scenario(seed=6).package_id
    uuid.UUID(Scenario(seed=5).package_id)  # well-formed


# -- grids and streams ----------------------------------------------------------------


def test_streams_sit_on_the_tick_grid():
    sim = generate_drive(quiet_scenario(duration_s=2.0))
    assert [s.t for s in sim.samples] == [round(i * 1000 / 30) for i in range(61)]
    assert [g.t for g in sim.gps] == [0, 1000, 2000]
    assert [f.t for f in sim.frames] == [round(j * 1000 / 10) for j in range(21)]
    assert [f.index for f in sim.frames] == list(range(21))
    assert [f.file for f in sim.frames][:2] == ["frames/000000.jpg", "frames/000001.jpg"]


def test_scenario_doc_round_trip():
    scenario = default_scenario(
        9,
        duration_s=30.0,
        rough_patches=(RoughPatch(3.0, 5.0, 0.4),),
        speed_profile=(SpeedStep(0.0, 15.0), SpeedStep(10.0, 25.0)),
    )
    doc = scenario.to_doc()
    assert Scenario.from_doc(doc).to_doc() == doc
    assert Scenario.from_doc(doc).package_id == scenario.package_id
    assert doc["route"]["type"] == "LineString"


def test_scenario_validation():
    with pytest.raises(ValidationError):
        Scenario(seed=1, duration_s=0.0)
    with pytest.raises(ValidationError, match="past duration"):
        Scenario(seed=1, duration_s=5.0, events=(SimEvent(4.95, SimEventKind.POTHOLE, 0.5),))
    with pytest.raises(ValidationError, match="rough patch"):
        Scenario(seed=1, duration_s=5.0, rough_patches=(RoughPatch(4.0, 6.0, 0.3),))
    with pytest.raises(ValidationError, match="increase"):
        Scenario(seed=1, speed_profile=(SpeedStep(5.0, 10.0), SpeedStep(5.0, 12.0)))
    with pytest.raises(ValidationError):
        Scenario(seed=1, speed_profile=(SpeedStep(0.0, -1.0),))
    with pytest.raises(ValidationError):
        Scenario(seed=1, noise_sigma={"az": -0.1})
    with pytest.raises(ValidationError):
        SimEvent(1.0, SimEventKind.POTHOLE, 0.0)
    with pytest.raises(ValidationError):
        SimEvent(-1.0, SimEventKind.POTHOLE, 0.5)
    with pytest.raises(ValidationError):
        RoughPatch(5.0, 3.0, 0.4)


def test_default_scenario_scales_events_with_duration():
    s = default_scenario(3, duration_s=24.0)
    assert [e.t_s for e in s.events] == [4.0, 9.0, 16.0]
    assert [e.kind for e in s.events] == [
        SimEventKind.POTHOLE, SimEventKind.LANE_CHANGE, SimEventKind.POTHOLE,
    ]


# -- signal morphology -----------------------------------------------------------------


def channel(sim, name):
    return np.asarray([getattr(s, name) for s in sim.samples])


def t_seconds(sim):
    return np.asarray([s.t for s in sim.samples]) / 1000.0


def test_quiet_drive_is_flat_gravity():
    sim = generate_drive(quiet_scenario())
    assert np.all(channel(sim, "az") == GRAVITY_MPS2)
    for name in ("ax", "ay", "gx", "gy", "gz"):
        assert np.all(channel(sim, name) == 0.0)
    assert detect_axis_spikes(columns_from_records(sim.samples, SensorSample)) == []


def test_pothole_is_a_vertical_half_sine():
    sim = generate_drive(quiet_scenario(events=(SimEvent(2.0, SimEventKind.POTHOLE, 0.5),)))
    t = t_seconds(sim)
    az = channel(sim, "az")
    inside = (t >= 2.0) & (t < 2.12)
    assert inside.sum() >= 3
    assert np.all(az[inside] >= GRAVITY_MPS2)  # t == 2.0 sits at sin(0)
    assert az[inside].max() > GRAVITY_MPS2 + 0.3
    assert np.all(az[~inside] == GRAVITY_MPS2)
    # x/y carry 0.6 of the pulse with a per-event sign
    ax, ay = channel(sim, "ax"), channel(sim, "ay")
    lifted = inside & (az > GRAVITY_MPS2)
    ratio_x = ax[lifted] / (az[lifted] - GRAVITY_MPS2)
    assert np.allclose(np.abs(ratio_x), 0.6, atol=1e-9)
    assert np.all(ax[~lifted] == 0.0) and np.all(ay[~lifted] == 0.0)


def test_lane_change_is_two_opposite_humps_off_the_z_axis():
    sim = generate_drive(quiet_scenario(events=(SimEvent(2.0, SimEventKind.LANE_CHANGE, 1.0),)))
    t = t_seconds(sim)
    ax, ay, gz = channel(sim, "ax"), channel(sim, "ay"), channel(sim, "gz")
    first = (t >= 2.0) & (t < 2.4)
    second = (t >= 3.6) & (t < 4.0)
    assert np.all(channel(sim, "az") == GRAVITY_MPS2)  # z untouched by construction
    peak_1 = ax[first][np.abs(ax[first]).argmax()]
    peak_2 = ax[second][np.abs(ax[second]).argmax()]
    assert abs(peak_1) > 0.9 and abs(peak_2) > 0.9
    assert np.sign(peak_1) == -np.sign(peak_2)  # counter-steer
    assert np.allclose(ay, 0.8 * ax, atol=1e-12)
    assert np.allclose(gz, 0.15 * ax, atol=1e-12)
    assert np.all(ax[(t >= 2.4) & (t < 3.6)] == 0.0)  # flat between humps


def test_stop_shapes_speed_and_longitudinal_accel():
    sim = generate_drive(quiet_scenario(
        duration_s=20.0,
        speed_profile=(SpeedStep(0.0, 15.0),),
        events=(SimEvent(2.0, SimEventKind.STOP, 3.0),),  # dwell 7..10, ramp 10..15
    ))
    speed = {g.t: g.speed_mps for g in sim.gps}
    assert speed[0] == 15.0
    assert speed[8000] == 0.0 and speed[9000] == 0.0
    assert speed[18000] == pytest.approx(15.0)
    assert 0.0 < speed[4000] < 15.0  # mid-taper

    t = t_seconds(sim)
    ay = channel(sim, "ay")
    braking = (t > 2.2) & (t < 6.8)
    assert ay[braking].max() < 0.0  # decelerating throughout the taper
    assert ay[braking].min() < -2.0
    assert np.all(ay[t < 1.9] == 0.0)


def test_truth_records_time_and_chainage():
    sim = generate_drive(quiet_scenario(
        duration_s=12.0,
        speed_profile=(SpeedStep(0.0, 20.0),),
        events=(SimEvent(6.0, SimEventKind.POTHOLE, 0.5),),
        rough_patches=(RoughPatch(3.0, 5.0, 0.4),),
    ))
    ev = sim.truth.events[0]
    assert (ev.kind, ev.t_start_ms, ev.t_end_ms) == ("pothole", 6000, 6120)
    assert ev.chainage_m == pytest.approx(120.0, abs=0.5)
    patch = sim.truth.patches[0]
    assert patch.chainage_start_m == pytest.approx(60.0, abs=0.5)
    assert patch.chainage_end_m == pytest.approx(100.0, abs=0.5)
    assert (patch.t_start_ms, patch.t_end_ms, patch.amplitude) == (3000, 5000, 0.4)


def test_gps_noise_controls_route_scatter():
    clean = generate_drive(quiet_scenario(duration_s=8.0))
    for fix in clean.gps:
        assert fix.h_acc_m is None
        snap = snap_to_polyline((fix.lat, fix.lon), clean.scenario.route)
        assert snap.cross_track_m < 0.01

    noisy = generate_drive(quiet_scenario(duration_s=8.0, gps_noise_m=3.0))
    assert all(fix.h_acc_m == 3.0 for fix in noisy.gps)
    scatter = [
        snap_to_polyline((fix.lat, fix.lon), noisy.scenario.route).cross_track_m
        for fix in noisy.gps
    ]
    assert max(scatter) > 0.5  # visibly off the line


def test_rough_patch_adds_vertical_vibration_only_in_window():
    sim = generate_drive(quiet_scenario(
        duration_s=10.0, rough_patches=(RoughPatch(3.0, 6.0, 0.5),)
    ))
    t = t_seconds(sim)
    az = channel(sim, "az")
    inside = (t >= 3.0) & (t < 6.0)
    assert np.std(az[inside]) > 0.2
    assert np.all(az[~inside] == GRAVITY_MPS2)


# -- scoring ---------------------------------------------------------------------------


TRUTH = GroundTruth(
    events=(
        TruthEvent("pothole", 1000, 1120, 20.0),
        TruthEvent("lane_change", 5000, 7000, 100.0),
        TruthEvent("stop", 9000, 22000, 200.0),
    ),
    patches=(),
)


def det(kind, t0, t1):
    return DriveEvent(kind=kind, t_start=t0, t_end=t1)


def test_score_perfect_run():
    score = score_detections(
        [
            det(EventKind.POTHOLE, 950, 1200),
            det(EventKind.STEERING, 5100, 5600),
            det(EventKind.STEERING, 6500, 7100),  # counter-steer hump, same truth
        ],
        TRUTH,
    )
    assert score == DetectionScore(
        precision=1.0, recall=1.0, n_detections=3, n_required=2, lane_change_as_pothole=0
    )


def test_score_stop_is_matchable_but_not_required():
    score = score_detections([det(EventKind.STEERING, 9500, 10000)], TRUTH)
    assert score.precision == 1.0  # braking transient is a legitimate match
    assert score.recall == 0.0  # but required events were missed
    assert score.n_required == 2


def test_score_counts_lane_change_called_pothole():
    score = score_detections([det(EventKind.POTHOLE, 5500, 5900)], TRUTH)
    assert score.lane_change_as_pothole == 1
    assert score.precision == 0.0  # wrong kind matches nothing


def test_score_false_positive_lowers_precision():
    score = score_detections(
        [det(EventKind.POTHOLE, 950, 1200), det(EventKind.POTHOLE, 3000, 3100)],
        TRUTH,
    )
    assert score.precision == 0.5
    assert score.recall == 0.5


def test_score_ignores_calm_and_handles_empty():
    assert score_detections([det(EventKind.CALM, 0, 500)], TRUTH).n_detections == 0
    empty = score_detections([], TRUTH)
    assert empty.precision == 1.0 and empty.recall == 0.0
    no_required = GroundTruth(events=(TruthEvent("stop", 0, 1000, 0.0),), patches=())
    assert score_detections([], no_required).recall == 1.0


def test_score_pad_is_exact():
    hit = score_detections([det(EventKind.POTHOLE, 1270, 1400)], TRUTH, pad_ms=150)
    assert hit.recall == 0.5  # t_start == t_end_ms + pad exactly
    miss = score_detections([det(EventKind.POTHOLE, 1271, 1400)], TRUTH, pad_ms=150)
    assert miss.recall == 0.0


# -- chaos replay -----------------------------------------------------------------------


def test_network_profile_doc_round_trip():
    profile = NetworkProfile(drop_at_fraction=0.5, latency_ms=5, disconnect_count=2)
    assert NetworkProfile.from_doc(profile.to_doc()) == profile
    assert NetworkProfile.from_doc({}) == NetworkProfile()


def test_replay_upload_clean(server, tmp_path):
    pkg_dir, manifest, _ = write_package(default_scenario(11, duration_s=6.0), tmp_path)
    transcript = replay_upload(pkg_dir, server.base_url)
    assert transcript.final_state.status is UploadStatus.COMPLETE
    assert transcript.acked_put_bytes() == sum(b.bytes for b in manifest.blobs)
    with SyncClient(server.base_url) as client:
        for blob in manifest.blobs:
            assert client.download_blob(manifest.package_id, blob.name) == (
                pkg_dir / blob.name
            ).read_bytes()


def test_replay_upload_survives_injected_faults(server, tmp_path):
    pkg_dir, manifest, _ = write_package(default_scenario(12, duration_s=6.0), tmp_path)
    profile = NetworkProfile(drop_at_fraction=0.5, disconnect_count=2)
    transcript = replay_upload(pkg_dir, server.base_url, profile, chunk_bytes=512)

    assert transcript.final_state.status is UploadStatus.COMPLETE
    injected = [e.get("injected") for e in transcript.entries if "injected" in e]
    assert injected.count("disconnect") == 2
    assert injected.count("drop_mid_chunk") == 1
    # every byte acknowledged exactly once despite the cut
    assert transcript.acked_put_bytes() == sum(b.bytes for b in manifest.blobs)
    with SyncClient(server.base_url) as client:
        for blob in manifest.blobs:
            assert client.download_blob(manifest.package_id, blob.name) == (
                pkg_dir / blob.name
            ).read_bytes()


def test_transcript_writes_jsonl(server, tmp_path):
    pkg_dir, _, _ = write_package(default_scenario(13, duration_s=4.0), tmp_path / "lib")
    transcript = replay_upload(pkg_dir, server.base_url)
    out = tmp_path / "transcript.jsonl"
    transcript.write(out)
    lines = out.read_bytes().splitlines()
    assert len(lines) == len(transcript.entries)
    kinds = {json.loads(line)["kind"] for line in lines}
    assert "http" in kinds and "transition" in kinds
