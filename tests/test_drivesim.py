"""Drive simulator: determinism, signal morphology, scoring, chaos replay."""

import hashlib
import json
import uuid

import numpy as np
import pytest
from test_model import assert_columns_equal

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
    assert_columns_equal(a.samples, b.samples.fields)
    assert_columns_equal(a.gps, b.gps.fields)
    assert_columns_equal(a.frames, b.frames.fields)
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


# sha256 of manifest.json, which holds every blob's size and sha256, so each
# digest pins every stream byte of the package
_SEED_MANIFEST_SHA256 = [
    "a860bb1232dc3f5548b9dd779a2df875ecd73f6e2ad82194ae77140cbcf7d0aa",  # seed 0
    "2e9285200c508306295a233c4c46d67b82e5ac4be1f131fd63616e1164dccf79",  # seed 1
    "2548be00ba1775271d877de8b8585f76596014ef6b62a4810b87ec791706d6f2",  # seed 2
    "28b1f3de4dd1adaa6bae80d78e4e6c187c1804db4ffe8d6d58a80c883d5adcd2",  # seed 3
    "b44df5caa04d920f8f2fa1a57f94c6fe73321667c38b3646c93f8839f79190fe",  # seed 4
    "1df836d47ac8e598c0e42d053cc17202481d9373b9a2fc6a3b71d451debd99ad",  # seed 5
    "a55adb985f974afdebf53d1a7dd06bcd0f57de3edc017517ecf30a49943262fc",  # seed 6
    "ad9347ce323c7b782ba1516cac5f94e30ec50b6dd64ef7cd77a839f17235e5e0",  # seed 7
    "4de8aae45eea30e5ebe6077fd953293e25e8aaf325ef9d22ec34c96a5348d9ef",  # seed 8
    "4b9f460e3d2891a2e2910711fff5f3c6fe423ea642c1ea2a4c3fde9f74fbb602",  # seed 9
    "531fa398304bf33a941a345298cc205e26f3823d314f0f24d5065f1cc058de89",  # seed 10
    "188d633fd3a5bf90d82b073db861b35e1d5300412bd04c0ef4e786d3ba380022",  # seed 11
    "771e7f22649411a2f8b721af1a9ec7033e31267d1da97b881fc4a28e3e48d716",  # seed 12
    "3635c04d3b10f12a276543fa1dabe4c778c0df5de8220fb9bb26d8a443a89084",  # seed 13
    "271068d591fda0259cc7dacfc196006840bc08cf3d73718cdb289e4dd59388a9",  # seed 14
    "55af9356e58c4923dca97ee611f5679cb8d19a12fcefea208f1506f75e42f581",  # seed 15
    "75ec10c81dbba39fc2531ce4f091b9396f6393dd271d4fe29e7ee989d433461f",  # seed 16
    "8c36b755a11c8e4bfaa61df30cf5b14a8dbac8f178c785a45ad84477eddc2626",  # seed 17
    "284b7d766f9e3ead04ccf3f9a8fe8a4e948c19e05640d69b53924d9e320848a5",  # seed 18
    "a3fe5cb9415f6818075ffbbbdc5d29f51919565f2e8b6822bf6b8abf59d20aaf",  # seed 19
    "71f1b3ed44674766a8a5a4640d63446442978c6f74a7bac946d1b9994dfe899e",  # seed 20
]
_VARIANT_MANIFEST_SHA256 = {
    # frame payloads as extra blobs
    "frames": (dict(seed=21, duration_s=20.0, frame_bytes=256),
               "37407d265888ab8fda35d1fcdce179b7652b13024938bc7c3ba7e35926e4d5af"),
    # no GPS noise, so no fix has h_acc_m
    "no_h_acc": (dict(seed=22, gps_noise_m=0.0),
                 "e154b91f80a80e2a7bc1f8040b14804077bdafb791e9f9c5718e7ea181c4845a"),
}


def _manifest_sha256(scenario, root):
    pkg_dir = write_package(scenario, root)[0]
    return hashlib.sha256((pkg_dir / "manifest.json").read_bytes()).hexdigest()


@pytest.mark.parametrize("seed", range(21))
def test_default_scenario_packages_are_pinned(tmp_path, seed):
    assert _manifest_sha256(default_scenario(seed), tmp_path) == _SEED_MANIFEST_SHA256[seed]


@pytest.mark.parametrize("name", sorted(_VARIANT_MANIFEST_SHA256))
def test_variant_scenario_packages_are_pinned(tmp_path, name):
    kw, digest = _VARIANT_MANIFEST_SHA256[name]
    assert _manifest_sha256(default_scenario(**kw), tmp_path) == digest


def test_different_seeds_differ():
    base = generate_drive(default_scenario(1, duration_s=6.0))
    other = generate_drive(default_scenario(2, duration_s=6.0))
    assert any(not np.array_equal(base.samples[k], other.samples[k]) for k in base.samples.fields)
    assert base.scenario.package_id != other.scenario.package_id


def test_package_id_is_a_seed_function():
    assert Scenario(seed=5).package_id == Scenario(seed=5, duration_s=3.0).package_id
    assert Scenario(seed=5).package_id != Scenario(seed=6).package_id
    uuid.UUID(Scenario(seed=5).package_id)  # well-formed


# -- grids and streams ----------------------------------------------------------------


def test_streams_sit_on_the_tick_grid():
    sim = generate_drive(quiet_scenario(duration_s=2.0))
    assert sim.samples["t"].tolist() == [round(i * 1000 / 30) for i in range(61)]
    assert sim.gps["t"].tolist() == [0, 1000, 2000]
    assert sim.frames["t"].tolist() == [round(j * 1000 / 10) for j in range(21)]
    assert sim.frames["index"].tolist() == list(range(21))
    assert sim.frames["file"][:2] == ["frames/000000.jpg", "frames/000001.jpg"]


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
    return sim.samples[name]


def t_seconds(sim):
    return sim.samples["t"] / 1000.0


def test_quiet_drive_is_flat_gravity():
    sim = generate_drive(quiet_scenario())
    assert np.all(channel(sim, "az") == GRAVITY_MPS2)
    for name in ("ax", "ay", "gx", "gy", "gz"):
        assert np.all(channel(sim, name) == 0.0)
    assert detect_axis_spikes(sim.samples) == []


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
    speed = dict(zip(sim.gps["t"].tolist(), sim.gps["speed_mps"].tolist()))
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
    assert not clean.gps["has_h_acc_m"].any()
    for lat, lon in zip(clean.gps["lat"].tolist(), clean.gps["lon"].tolist()):
        snap = snap_to_polyline((lat, lon), clean.scenario.route)
        assert snap.cross_track_m < 0.01

    noisy = generate_drive(quiet_scenario(duration_s=8.0, gps_noise_m=3.0))
    assert noisy.gps["has_h_acc_m"].all() and (noisy.gps["h_acc_m"] == 3.0).all()
    scatter = [
        snap_to_polyline((lat, lon), noisy.scenario.route).cross_track_m
        for lat, lon in zip(noisy.gps["lat"].tolist(), noisy.gps["lon"].tolist())
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
