"""Acceptance gate for the whole pipeline.

Each test covers one numbered criterion and prints a single

    criterion NN PASS|FAIL <label>

line outside pytest's capture, so a full run reads as a checklist even
in CI logs. Failures still fail the test the normal way.
"""

import hashlib
import json
import math
import random
import threading
import time
import uuid
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from itertools import product

import numpy as np
import pytest

from conftest import make_frames, make_gps, make_samples
from fakes import FakeSyncService, Killed, KillSwitch
from test_geo import COLUMBIA, KANSAS_CITY, bent_line, brute_force_snap, offset_point

from roadsense.cli import main as cli_main
from roadsense.drivesim import (
    NetworkProfile,
    RoughPatch,
    default_scenario,
    generate_drive,
    replay_upload,
    score_detections,
    write_package,
)
from roadsense.errors import StateMachineError
from roadsense.geo import (
    ReferenceIriRecord,
    haversine,
    join_reference,
    regression_metrics,
    snap_to_polyline,
)
from roadsense.kinematics import (
    classify_events,
    detect_axis_spikes,
    rms,
    sliding_rms,
)
from roadsense.model import (
    BlobEntry,
    FrameRef,
    GpsFix,
    PackageManifest,
    SensorSample,
    columns_from_records,
    decode_jsonl_stream,
    parse_manifest,
    serialize_manifest,
)
from roadsense.packstore import (
    UploadEvent,
    UploadState,
    UploadStatus,
    Uploader,
    advance,
    create_package,
    recover,
)
from roadsense.report import analyze
from roadsense.syncclient import StreamEnded, SyncClient
from roadsense.syncd import SyncServer

S = UploadStatus
E = UploadEvent


@contextmanager
def criterion(capfd, num: int, label: str):
    ok = False
    try:
        yield
        ok = True
    finally:
        with capfd.disabled():
            print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'} {label}")


# -- 1: manifest round-trip ---------------------------------------------------

_BLOB_POOL = (
    "sensors.jsonl",
    "gps.jsonl",
    "frames.jsonl",
    "frames/000000.jpg",
    "frames/000001.jpg",
    "notes/extra.bin",
)


def _random_manifest(rng: random.Random) -> PackageManifest:
    blobs = tuple(
        BlobEntry(name=name, bytes=rng.randrange(0, 1 << 30),
                  sha256=f"{rng.getrandbits(256):064x}")
        for name in rng.sample(_BLOB_POOL, rng.randint(0, len(_BLOB_POOL)))
    )
    started = rng.randrange(0, 1 << 45)
    return PackageManifest(
        package_id=str(uuid.UUID(int=rng.getrandbits(128))),
        device_id=rng.choice(("pixel-6", "sm-g991b", "iphone-13")) + f"-{rng.randrange(1000)}",
        started_at_ms=started,
        ended_at_ms=started + rng.randrange(0, 1 << 30),
        blobs=blobs,
        sensor_rate_hz=rng.randint(1, 400),
        frame_rate_fps=rng.randint(0, 60),
    )


def test_criterion_01_manifest_round_trip(capfd):
    with criterion(capfd, 1, "1000 manifests: parse(serialize) identity, bytes stable"):
        rng = random.Random(0xC0FFEE)
        t0 = time.perf_counter()
        for _ in range(1000):
            m = _random_manifest(rng)
            wire = serialize_manifest(m)
            back = parse_manifest(wire)
            assert back == m
            assert serialize_manifest(back) == wire
        assert time.perf_counter() - t0 < 5.0


# -- 2: timeline vs linear scan -----------------------------------------------


def test_criterion_02_timeline_oracle(capfd):
    with criterion(capfd, 2, "100k nearest/range queries match the linear-scan oracle"):
        from roadsense.timeline import TimeIndex

        rng = random.Random(21)
        ts = np.cumsum([rng.randint(1, 50) for _ in range(2000)]).astype(np.int64)
        idx = TimeIndex(ts)
        span = int(ts[-1])
        t0 = time.perf_counter()

        for q in range(50_000):
            if q % 5 == 0:
                t = int(rng.choice(ts))  # exact hits exercise tol=0 and ties
            else:
                t = rng.randint(-100, span + 100)
            tol = rng.choice((0, 3, 40, 1 << 40))
            d = np.abs(ts - t)
            j = int(np.argmin(d))  # first minimum == earlier timestamp on ties
            expected = j if d[j] <= tol else None
            assert idx.nearest(t, tol) == expected

        for _ in range(50_000):
            lo_t = rng.randint(-100, span)
            hi_t = lo_t + rng.randint(0, 2000)
            mask = (ts >= lo_t) & (ts <= hi_t)
            expected = np.flatnonzero(mask)
            assert np.arange(ts.size)[idx.range(lo_t, hi_t)].tolist() == expected.tolist()

        assert time.perf_counter() - t0 < 10.0


# -- 3: frame/record alignment ------------------------------------------------


def test_criterion_03_frame_alignment(tmp_path, capfd):
    with criterion(capfd, 3, "30 Hz / 10 fps package: 3 +/- 1 consecutive records per frame"):
        from roadsense.timeline import TimeIndex

        sc = default_scenario(3, duration_s=30.0)
        pkg_dir, manifest, _ = write_package(sc, tmp_path)
        assert manifest.sensor_rate_hz == 30 and manifest.frame_rate_fps == 10
        samples = decode_jsonl_stream(
            (pkg_dir / "sensors.jsonl").read_bytes(), SensorSample, "sensors.jsonl")
        frames = decode_jsonl_stream(
            (pkg_dir / "frames.jsonl").read_bytes(), FrameRef, "frames.jsonl")
        assert len(samples) == 901 and len(frames) == 301

        fidx = TimeIndex(np.array([f.t for f in frames], dtype=np.int64))
        owner = [frames[fidx.nearest(s.t, 1 << 40)].index for s in samples]
        counts = Counter(owner)
        assert set(counts) == set(range(len(frames)))  # every frame referenced
        assert all(2 <= c <= 4 for c in counts.values())
        # records claiming one frame form a single consecutive run
        assert all(b - a in (0, 1) for a, b in zip(owner, owner[1:]))


# -- 4: RMS properties ----------------------------------------------------------


def _sine_samples(az: np.ndarray):
    return columns_from_records(
        [SensorSample(t=i * 10, ax=0.0, ay=0.0, az=float(v), gx=0.0, gy=0.0, gz=0.0)
         for i, v in enumerate(az)],
        SensorSample,
    )


def test_criterion_04_rms_properties(capfd):
    with criterion(capfd, 4, "RMS homogeneity, detrend shift-invariance, sine = A/sqrt(2)"):
        rng = np.random.default_rng(4)
        for _ in range(200):
            x = rng.normal(size=int(rng.integers(2, 400)))
            c = float(rng.uniform(-8.0, 8.0))
            assert rms(c * x) == pytest.approx(abs(c) * rms(x), rel=1e-9)

        base = 0.8 * np.sin(2 * np.pi * 1.7 * np.arange(1200) / 100.0)
        base += rng.normal(0.0, 0.3, base.size)
        low = sliding_rms(_sine_samples(base + 3.0), "z")
        high = sliding_rms(_sine_samples(base + 11.5), "z")
        assert len(low.points) == len(high.points) > 10
        for pa, pb in zip(low.points, high.points):
            assert pa.t_center == pb.t_center
            assert pa.rms == pytest.approx(pb.rms, rel=1e-9)

        amp = 2.5
        sine = amp * np.sin(2 * np.pi * 60 * np.arange(3000) / 3000.0)
        assert rms(sine) == pytest.approx(amp / math.sqrt(2), rel=0.02)


# -- 5: event classification ----------------------------------------------------


def _detected(samples):
    return classify_events(detect_axis_spikes(samples))


def test_criterion_05_event_rules(capfd):
    with criterion(capfd, 5, "classification exact when clean, >= 0.9 pooled under noise"):
        for seed in (0, 7, 13):
            sc = default_scenario(
                seed, noise_sigma={"accel": 0.0, "gyro": 0.0}, gps_noise_m=0.0)
            sim = generate_drive(sc)
            score = score_detections(_detected(sim.samples), sim.truth)
            assert score.precision == 1.0 and score.recall == 1.0
            assert score.lane_change_as_pothole == 0

        matched_det = n_det = matched_req = n_req = 0
        for seed in range(20):
            sim = generate_drive(default_scenario(seed))
            s = score_detections(_detected(sim.samples), sim.truth)
            assert s.lane_change_as_pothole == 0  # never, clean or noisy
            matched_det += round(s.precision * s.n_detections)
            n_det += s.n_detections
            matched_req += round(s.recall * s.n_required)
            n_req += s.n_required
        assert n_req == 60 and n_det > 0
        assert matched_det / n_det >= 0.9
        assert matched_req / n_req >= 0.9


# -- 6: roughness ranking --------------------------------------------------------


def test_criterion_06_rough_patch_ranking(tmp_path, capfd):
    with criterion(capfd, 6, "rough-patch segment is the strict RMS maximum, 20/20 seeds"):
        for seed in range(20):
            sc = default_scenario(
                seed, duration_s=60.0, events=(),
                rough_patches=(RoughPatch(33.0, 39.0, 0.5),),
            )
            pkg_dir, _, _ = write_package(sc, tmp_path / f"s{seed}")
            rep = analyze(pkg_dir, route=sc.to_doc()["route"])
            occupied = [g for g in rep.segments if g.n_samples > 0]
            assert len(occupied) >= 4
            top = max(occupied, key=lambda g: g.rms)
            # the patch runs 660..780 m at 20 m/s; its cell must win outright
            assert top.chainage_start_m <= 720.0 < top.chainage_end_m
            assert all(top.rms > g.rms for g in occupied if g is not top)


# -- 7: geo oracles ----------------------------------------------------------------


def test_criterion_07_geo_oracles(capfd):
    with criterion(capfd, 7, "haversine, snap, reference join, and fit metrics match oracles"):
        assert haversine(COLUMBIA, KANSAS_CITY) == pytest.approx(194579.4, rel=0.005)

        line = bent_line()
        rng = random.Random(7)
        for _ in range(12):
            lat, lon = line.point_at(rng.uniform(0.0, line.length_m))
            p = offset_point(lat, lon, rng.uniform(-40.0, 40.0))
            got = snap_to_polyline(p, line)
            ref_cross, ref_chain = brute_force_snap(p, line)
            assert abs(got.chainage_m - ref_chain) < 1.0
            assert abs(got.cross_track_m - ref_cross) < 1.0

        refs = [
            ReferenceIriRecord(0.0, 37.0, 1.2),
            ReferenceIriRecord(37.0, 81.0, 3.4),
            ReferenceIriRecord(120.0, 260.0, 0.7),  # gap 81..120
        ]
        from test_geo import seg

        joined = join_reference(
            [seg(0.0, 80.0), seg(80.0, 160.0), seg(160.0, 240.0), seg(300.0, 380.0)], refs)
        for g in joined:
            covered = []
            m = g.chainage_start_m
            while m < g.chainage_end_m - 1e-9:  # 1 m strips, midpoint sampled
                mid = m + 0.5
                for r in refs:
                    if r.begin_log_m <= mid < r.end_log_m:
                        covered.append(r.iri_value)
                        break
                m += 1.0
            if covered:
                assert g.reference_iri == pytest.approx(sum(covered) / len(covered), abs=1e-9)
            else:
                assert g.reference_iri is None

        gen = np.random.default_rng(7)
        y = gen.uniform(0.5, 4.0, 40)
        yh = y + gen.normal(0.0, 0.3, 40)
        fm = regression_metrics(y, yh)
        assert fm.rmse == pytest.approx(float(np.sqrt(np.mean((y - yh) ** 2))), abs=1e-12)
        assert fm.rmspe_percent == pytest.approx(
            float(100.0 * np.sqrt(np.mean(((y - yh) / y) ** 2))), abs=1e-12)
        r = float(np.corrcoef(y, yh)[0, 1])
        assert fm.r_squared == pytest.approx(r * r, abs=1e-12)
        perfect = regression_metrics(y, y)
        assert (perfect.rmse, perfect.rmspe_percent, perfect.r_squared) == (0.0, 0.0, 1.0)


# -- 8: concurrent sync ---------------------------------------------------------------


def test_criterion_08_sync_end_to_end(tmp_path, capfd, server):
    with criterion(capfd, 8, "8 clients x 4 packages: 32 commits dense, digests match"):
        t0 = time.perf_counter()
        lib = tmp_path / "lib"
        packages = []
        for seed in range(100, 132):
            sc = default_scenario(seed, duration_s=6.0, events=())
            pkg_dir, manifest, _ = write_package(sc, lib)
            packages.append((pkg_dir, manifest))

        def upload_batch(batch):
            for pkg_dir, manifest in batch:
                tr = replay_upload(pkg_dir, server.base_url)
                assert tr.final_state.status is S.COMPLETE

        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(upload_batch, packages[i::8]) for i in range(8)]
            for f in futures:
                f.result()

        with SyncClient(server.base_url) as client:
            listed = client.query_packages(since_seq=0)
            assert sorted(e["commit_seq"] for e in listed) == list(range(1, 33))
            assert {e["manifest"]["package_id"] for e in listed} == {
                m.package_id for _, m in packages}
            for pkg_dir, manifest in packages:
                for b in manifest.blobs:
                    data = client.download_blob(manifest.package_id, b.name)
                    assert hashlib.sha256(data).hexdigest() == b.sha256
                    assert data == (pkg_dir / b.name).read_bytes()
        assert time.perf_counter() - t0 < 60.0


# -- 9: chaos and restarts --------------------------------------------------------------


def test_criterion_09_chaos_and_restart(tmp_path, capfd, server):
    with criterion(capfd, 9, "chaos upload lands every byte once; restarts lose nothing"):
        sc = default_scenario(200, duration_s=20.0)
        pkg_dir, manifest, _ = write_package(sc, tmp_path / "chaos")
        profile = NetworkProfile(drop_at_fraction=0.5, disconnect_count=2)
        tr = replay_upload(pkg_dir, server.base_url, profile, chunk_bytes=2048)
        assert tr.final_state.status is S.COMPLETE
        total = sum(b.bytes for b in manifest.blobs)
        assert tr.acked_put_bytes() == total  # exactly once, by byte count
        with SyncClient(server.base_url) as client:
            for b in manifest.blobs:
                assert client.blob_offset(manifest.package_id, b.name) == b.bytes
                data = client.download_blob(manifest.package_id, b.name)
                assert hashlib.sha256(data).hexdigest() == b.sha256

        # restart mid-upload: durable offsets survive the process
        data_dir = tmp_path / "restart-data"
        sc2 = default_scenario(201, duration_s=20.0)
        pkg2, man2, _ = write_package(sc2, tmp_path / "restart-lib")
        first = man2.blobs[0]
        payload = (pkg2 / first.name).read_bytes()
        srv = SyncServer(data_dir).start()
        try:
            with SyncClient(srv.base_url) as c1:
                c1.create_session(man2)
                c1.put_chunk(man2.package_id, first.name, 0, payload[:500])
        finally:
            srv.stop()

        srv = SyncServer(data_dir).start()
        try:
            with SyncClient(srv.base_url) as c2:
                assert c2.blob_offset(man2.package_id, first.name) == 500
                final = Uploader(pkg2, man2, c2).run()
                assert final.status is S.COMPLETE
        finally:
            srv.stop()

        # restart post-commit: the commit and every blob byte survive
        srv = SyncServer(data_dir).start()
        try:
            with SyncClient(srv.base_url) as c3:
                listed = c3.query_packages(since_seq=0)
                assert [e["commit_seq"] for e in listed] == [1]
                for b in man2.blobs:
                    data = c3.download_blob(man2.package_id, b.name)
                    assert hashlib.sha256(data).hexdigest() == b.sha256
        finally:
            srv.stop()


# -- 10: fan-out -----------------------------------------------------------------------------


def test_criterion_10_fanout_exactly_once(capfd, server):
    with criterion(capfd, 10, "100 commits with random disconnects: each seen once, in order"):
        def commit_all():
            with SyncClient(server.base_url) as c:
                for i in range(100):
                    m = PackageManifest(
                        package_id=str(uuid.uuid4()), device_id="fanout",
                        started_at_ms=0, ended_at_ms=1, blobs=())
                    c.create_session(m)
                    c.commit(m.package_id)
                    if i % 10 == 9:
                        time.sleep(0.01)  # interleave live delivery with replay

        client = SyncClient(server.base_url)
        rng = random.Random(77)
        seen: list[int] = []
        drops = 0
        stream = client.subscribe(from_seq=0)
        committer = threading.Thread(target=commit_all)
        committer.start()
        deadline = time.monotonic() + 60
        try:
            while len(seen) < 100 and time.monotonic() < deadline:
                try:
                    ev = stream.next_event(timeout=1.0)
                except StreamEnded:
                    stream = client.subscribe(from_seq=seen[-1] if seen else 0)
                    continue
                if ev is None:
                    continue
                seen.append(ev["commit_seq"])
                if rng.random() < 0.2:  # reconnect with the last seq we saw
                    drops += 1
                    stream.close()
                    stream = client.subscribe(from_seq=seen[-1])
        finally:
            stream.close()
            committer.join()
            client.close()
        assert drops >= 5
        assert seen == list(range(1, 101))


# -- 11: FSM totality and crash recovery ---------------------------------------------------


_TABLE = {
    (S.PENDING, E.START): S.IN_PROGRESS,
    (S.PENDING, E.SERVER_ERROR): S.INTERRUPTED,
    (S.IN_PROGRESS, E.CHUNK_ACKED): S.IN_PROGRESS,
    (S.IN_PROGRESS, E.NET_LOST): S.INTERRUPTED,
    (S.IN_PROGRESS, E.SERVER_ERROR): S.INTERRUPTED,
    (S.IN_PROGRESS, E.COMMITTED): S.COMPLETE,
    (S.INTERRUPTED, E.START): S.IN_PROGRESS,
    (S.INTERRUPTED, E.SERVER_ERROR): S.INTERRUPTED,
    (S.INTERRUPTED, E.GIVE_UP): S.FAILED,
}


def _build_package(root):
    return create_package(
        root, columns_from_records(make_samples(6), SensorSample),
        columns_from_records(make_gps(2), GpsFix), columns_from_records(make_frames(2), FrameRef),
        device_id="pixel-6", started_at_ms=1_700_000_000_000,
        ended_at_ms=1_700_000_060_000)


def test_criterion_11_fsm_totality_and_recovery(tmp_path, capfd):
    with criterion(capfd, 11, "FSM table exhaustive; recovery holds at every persistence point"):
        pid = str(uuid.uuid4())
        for status, event in product(S, E):
            state = UploadState(package_id=pid, status=status,
                                bytes_sent={"sensors.jsonl": 10}, attempt_count=9)
            kw = {"blob": "sensors.jsonl", "offset": 64} if event is E.CHUNK_ACKED else {}
            expected = _TABLE.get((status, event))
            if expected is None:
                with pytest.raises(StateMachineError):
                    advance(state, event, max_retries=5, **kw)
            else:
                assert advance(state, event, max_retries=5, **kw).status is expected
        # give_up stays illegal while the retry budget is unspent
        within_budget = UploadState(package_id=pid, status=S.INTERRUPTED, attempt_count=5)
        with pytest.raises(StateMachineError):
            advance(within_budget, E.GIVE_UP, max_retries=5)

        pkg_dir, manifest = _build_package(tmp_path / "probe")
        points = 0

        def count(kind, **kw):
            nonlocal points
            points += 1

        Uploader(pkg_dir, manifest, FakeSyncService(manifest), chunk_bytes=256,
                 observer=count).run()
        assert points >= 5  # start, offsets, chunks, committed

        total = sum(b.bytes for b in manifest.blobs)
        for k in range(1, points + 1):
            root = tmp_path / f"kill{k}"
            pkg_dir, manifest = _build_package(root)
            service = FakeSyncService(manifest)
            with pytest.raises(Killed):
                Uploader(pkg_dir, manifest, service, chunk_bytes=256,
                         observer=KillSwitch(k)).run()
            entry = recover(root).entries[manifest.package_id]
            assert entry.ok
            final = Uploader(pkg_dir, manifest, service, chunk_bytes=256,
                             state=entry.state).run()
            assert final.status is S.COMPLETE
            assert service.committed
            assert service.appended_bytes == total  # nothing resent, nothing lost
            for b in manifest.blobs:
                assert bytes(service.blobs[b.name]) == (pkg_dir / b.name).read_bytes()


# -- 12: end-to-end determinism ----------------------------------------------------------------


def test_criterion_12_end_to_end_determinism(tmp_path, capfd):
    with criterion(capfd, 12, "simulate + analyze twice gives byte-identical report.json"):
        sc = default_scenario(17)
        route_file = tmp_path / "route.geojson"
        route_file.write_text(json.dumps(sc.to_doc()["route"]))
        reports = []
        for run in ("a", "b"):
            lib = tmp_path / run
            out = tmp_path / f"report-{run}"
            assert cli_main(["simulate", "--seed", "17", "--out", str(lib)]) == 0
            assert cli_main([
                "analyze", "--package", str(lib / sc.package_id),
                "--route", str(route_file), "--out", str(out),
            ]) == 0
            reports.append(out)
        first, second = reports
        report_bytes = (first / "report.json").read_bytes()
        assert report_bytes == (second / "report.json").read_bytes()
        assert json.loads(report_bytes)["package_id"] == sc.package_id
        for name in ("segments.csv", "events.csv", "trace.geojson", "accel.svg", "fit.svg"):
            assert (first / name).read_bytes() == (second / name).read_bytes()
