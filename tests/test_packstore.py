"""Upload state machine, sidecar persistence, crash recovery, resumable uploads."""

import hashlib
import math
import tracemalloc
from itertools import product

import pytest
from conftest import make_frames, make_gps, make_samples, resign_manifest
from fakes import DroppyService, FakeSyncService, Killed, KillSwitch

from roadsense import drivesim, model, package, packstore
from roadsense.errors import ParseError, StateMachineError
from roadsense.model import FrameRef, GpsFix, SensorSample, columns_from_records, encode_jsonl_columns
from roadsense.packstore import (
    ServerRejected,
    Uploader,
    UploadEvent,
    UploadState,
    UploadStatus,
    advance,
    create_package,
    read_upload_state,
    recover,
    sync_offsets,
    upload_library,
    write_upload_state,
)

S = UploadStatus
E = UploadEvent

# the full transition relation; absent pairs must raise
TABLE = {
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

PID = "0c9f0a36-9a3b-4a59-9f4e-0d68f0a1b9e4"


def state_in(status, attempts=0):
    return UploadState(package_id=PID, status=status, attempt_count=attempts)


@pytest.mark.parametrize("status,event", list(product(S, E)))
def test_fsm_totality_matches_table(status, event):
    kw = {}
    if event is E.CHUNK_ACKED:
        kw = {"blob": "sensors.jsonl", "offset": 1}
    before = state_in(status, attempts=9)  # high enough that give_up's guard passes
    expect = TABLE.get((status, event))
    if expect is None:
        with pytest.raises(StateMachineError):
            advance(before, event, max_retries=5, **kw)
    else:
        after = advance(before, event, max_retries=5, **kw)
        assert after.status is expect


def test_server_error_counts_attempts_and_records_error():
    st = state_in(S.PENDING)
    for n in (1, 2, 3):
        st = advance(st, E.SERVER_ERROR, error=f"boom {n}")
        assert st.status is S.INTERRUPTED
        assert st.attempt_count == n
        assert st.last_error == f"boom {n}"


def test_give_up_guarded_by_retry_budget():
    with pytest.raises(StateMachineError, match="give_up rejected"):
        advance(state_in(S.INTERRUPTED, attempts=5), E.GIVE_UP, max_retries=5)
    done = advance(state_in(S.INTERRUPTED, attempts=6), E.GIVE_UP, max_retries=5)
    assert done.status is S.FAILED


def test_chunk_acked_tracks_offsets_monotonically():
    st = advance(state_in(S.PENDING), E.START)
    st = advance(st, E.CHUNK_ACKED, blob="a", offset=100)
    st = advance(st, E.CHUNK_ACKED, blob="b", offset=40)
    st = advance(st, E.CHUNK_ACKED, blob="a", offset=100)  # equal offset is a no-op
    assert st.bytes_sent == {"a": 100, "b": 40}
    with pytest.raises(StateMachineError, match="behind"):
        advance(st, E.CHUNK_ACKED, blob="a", offset=99)
    with pytest.raises(StateMachineError, match="requires blob"):
        advance(st, E.CHUNK_ACKED)


def test_committed_clears_last_error():
    st = advance(state_in(S.PENDING), E.SERVER_ERROR, error="x")
    st = advance(st, E.START)
    st = advance(st, E.COMMITTED)
    assert st.last_error is None and st.status is S.COMPLETE


def test_sync_offsets_replaces_and_guards_status():
    st = advance(state_in(S.PENDING), E.START)
    st = advance(st, E.CHUNK_ACKED, blob="a", offset=500)
    st = sync_offsets(st, {"a": 120})  # server may hold less than we counted
    assert st.bytes_sent == {"a": 120}
    for status in (S.PENDING, S.COMPLETE, S.FAILED):
        with pytest.raises(StateMachineError):
            sync_offsets(state_in(status), {})


def test_sidecar_round_trip_is_atomic(tmp_path):
    st = UploadState(package_id=PID, status=S.INTERRUPTED,
                     bytes_sent={"gps.jsonl": 7, "sensors.jsonl": 123},
                     attempt_count=2, last_error="net down")
    write_upload_state(tmp_path, st)
    assert not list(tmp_path.glob("*.tmp"))
    assert read_upload_state(tmp_path) == st
    assert read_upload_state(tmp_path / "nowhere") is None


def test_state_doc_round_trip():
    st = UploadState(package_id=PID, status=S.IN_PROGRESS, bytes_sent={"a": 1})
    assert UploadState.from_doc(st.to_doc()) == st


# -- library recovery ---------------------------------------------------------


def build_package(root, **kw):
    kw.setdefault("device_id", "pixel-6")
    kw.setdefault("started_at_ms", 1_700_000_000_000)
    kw.setdefault("ended_at_ms", 1_700_000_060_000)
    return create_package(root, columns_from_records(make_samples(6), SensorSample),
                          columns_from_records(make_gps(2), GpsFix),
                          columns_from_records(make_frames(2), FrameRef), **kw)


B = model._BLOCK_LINES


@pytest.mark.parametrize("n", [0, 1, B - 1, B, B + 1, 3 * B + 17])
def test_streams_written_in_blocks_equal_one_shot_encoding(tmp_path, n):
    streams = {
        package.SENSORS_NAME: columns_from_records(make_samples(n), SensorSample),
        package.GPS_NAME: columns_from_records(make_gps(n), GpsFix),
        package.FRAMES_NAME: columns_from_records(make_frames(n), FrameRef),
    }
    extra = {"frames/000000.jpg": bytes(range(256)) * 3}
    pkg_dir, manifest = create_package(
        tmp_path / "lib", *streams.values(), device_id="pixel-6",
        started_at_ms=0, ended_at_ms=1, extra_blobs=extra,
    )
    for name, cols in streams.items():
        want = encode_jsonl_columns(cols, package._STREAM_TYPES[name])
        assert (pkg_dir / name).read_bytes() == want, name
    assert [b.name for b in manifest.blobs] == [*streams, *extra]
    for blob in manifest.blobs:
        data = (pkg_dir / blob.name).read_bytes()
        assert (blob.bytes, blob.sha256) == (len(data), hashlib.sha256(data).hexdigest())
    assert package.validate_package(pkg_dir).valid


def create_peak(root, duration_s: float) -> tuple[int, int]:
    """(tracemalloc peak of create_package, sensors stream bytes) for one
    simulated drive; the drive is generated before tracing starts."""
    sim = drivesim.generate_drive(drivesim.default_scenario(5, duration_s=duration_s))
    tracemalloc.start()
    try:
        pkg_dir, _ = create_package(root, sim.samples, sim.gps, sim.frames, device_id="pixel-6",
                                    started_at_ms=0, ended_at_ms=int(duration_s * 1000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, (pkg_dir / package.SENSORS_NAME).stat().st_size


def test_create_package_memory_does_not_grow_with_the_drive(tmp_path):
    short_peak, _ = create_peak(tmp_path / "short", 300.0)
    long_peak, sensors_bytes = create_peak(tmp_path / "long", 1200.0)
    assert long_peak < sensors_bytes / 2
    assert long_peak <= 1.5 * short_peak


def test_recover_flips_in_progress_to_interrupted(tmp_path):
    pkg_dir, manifest = build_package(tmp_path)
    write_upload_state(pkg_dir, UploadState(package_id=manifest.package_id,
                                            status=S.IN_PROGRESS,
                                            bytes_sent={"sensors.jsonl": 64}))
    index = recover(tmp_path)
    entry = index.entries[manifest.package_id]
    assert entry.ok
    assert entry.state.status is S.INTERRUPTED
    assert entry.state.bytes_sent == {"sensors.jsonl": 64}  # offsets survive the flip
    assert read_upload_state(pkg_dir).status is S.INTERRUPTED  # rewritten on disk


def test_recover_lists_corrupt_packages(tmp_path):
    _, good = build_package(tmp_path)
    bad_dir, bad = build_package(tmp_path)
    blob = bad_dir / "sensors.jsonl"
    data = bytearray(blob.read_bytes())
    data[0] ^= 0xFF
    blob.write_bytes(bytes(data))

    index = recover(tmp_path)
    assert index.entries[good.package_id].ok
    entry = index.entries[bad.package_id]
    assert not entry.ok
    assert "sensors.jsonl" in entry.error


def test_recover_skips_dot_directories(tmp_path):
    _, manifest = build_package(tmp_path)
    # a pull interrupted mid-download leaves its work directory behind
    partial = tmp_path / f".{manifest.package_id}.partial"
    partial.mkdir()
    (partial / "sensors.jsonl").write_bytes(b"torn")
    assert list(recover(tmp_path).entries) == [manifest.package_id]


def test_recover_parses_each_manifest_once(tmp_path, monkeypatch):
    for _ in range(3):
        build_package(tmp_path)
    calls = []
    real = model.parse_manifest

    def counting(data):
        calls.append(1)
        return real(data)

    for mod in (model, package, packstore):
        if hasattr(mod, "parse_manifest"):
            monkeypatch.setattr(mod, "parse_manifest", counting)
    index = recover(tmp_path)
    assert all(e.ok for e in index)
    assert len(calls) == 3


def test_recover_reports_missing_and_unreadable_manifests(tmp_path):
    missing_dir, _ = build_package(tmp_path)
    (missing_dir / "manifest.json").unlink()
    broken_dir, _ = build_package(tmp_path)
    (broken_dir / "manifest.json").write_bytes(b'{"schema_version": 1, "blobs": [')
    try:
        model.parse_manifest((broken_dir / "manifest.json").read_bytes())
    except ParseError as e:
        why = str(e)
    index = recover(tmp_path)
    assert index.entries[missing_dir.name].error == "manifest.json missing"
    assert index.entries[broken_dir.name].error == f"manifest unreadable: {why}"
    assert not any(e.ok for e in index)


def test_recover_reports_the_same_with_and_without_the_memo(tmp_path, decodes):
    dirs = [build_package(tmp_path)[0] for _ in range(3)]
    with_memo = {pid: e.report.summary_lines() for pid, e in recover(tmp_path).entries.items()}
    assert decodes == []
    for d in dirs:
        (d / package.MEMO_NAME).unlink()
    without = {pid: e.report.summary_lines() for pid, e in recover(tmp_path).entries.items()}
    assert len(decodes) == 3 * len(package.STREAM_NAMES)
    assert with_memo == without == {
        d.name: package.validate_package(d).summary_lines() for d in dirs
    }
    assert all((d / package.MEMO_NAME).is_file() for d in dirs)  # written again


def test_recover_never_reads_or_writes_the_column_memo(tmp_path, monkeypatch, decodes):
    warm, cold, odd = (build_package(tmp_path)[0] for _ in range(3))
    for d in (warm, cold, odd):
        assert package.validate_package(d).valid  # a fresh column memo
    (cold / package.MEMO_NAME).unlink()
    (cold / package.COLUMNS_NAME).unlink()
    (odd / package.COLUMNS_NAME).write_bytes(b"not a column memo")

    def untouchable(*args):
        raise AssertionError("recover touched the column memo")

    monkeypatch.setattr(package, "read_columns", untouchable)
    monkeypatch.setattr(package, "write_columns", untouchable)
    decodes.clear()
    index = recover(tmp_path)
    assert all(entry.ok for entry in index) and len(index.entries) == 3
    assert decodes == list(package.STREAM_NAMES)  # only the cold package
    assert not (cold / package.COLUMNS_NAME).exists()
    assert (odd / package.COLUMNS_NAME).read_bytes() == b"not a column memo"


def test_recover_decodes_a_stream_edited_out_of_order(tmp_path, decodes):
    pkg_dir, manifest = build_package(tmp_path)
    samples = make_samples(6)
    samples[2], samples[4] = samples[4], samples[2]
    (pkg_dir / "sensors.jsonl").write_bytes(
        model.encode_jsonl_columns(columns_from_records(samples, SensorSample), SensorSample))
    resign_manifest(pkg_dir)  # the digests match; only the order is wrong
    entry = recover(tmp_path).entries[manifest.package_id]
    assert decodes == list(package.STREAM_NAMES)
    assert not entry.ok
    assert "stream sensors.jsonl: timestamp not strictly increasing at record 3" in entry.error
    assert entry.report.summary_lines() == package.validate_package(pkg_dir).summary_lines()


@pytest.mark.parametrize("at, error", [
    (-3, "blob gps.jsonl: sha256 mismatch"),  # in a digit: still a valid stream
    (0, "blob gps.jsonl: sha256 mismatch; stream gps.jsonl: "),  # "{" becomes "z"
])
def test_recover_hashes_every_blob_despite_a_fresh_memo(tmp_path, at, error):
    pkg_dir, manifest = build_package(tmp_path)
    blob = pkg_dir / "gps.jsonl"
    data = bytearray(blob.read_bytes())
    data[at] ^= 0x01
    blob.write_bytes(bytes(data))
    entry = recover(tmp_path).entries[manifest.package_id]
    assert not entry.ok and entry.error.startswith(error)
    assert entry.report.summary_lines() == package.validate_package(pkg_dir).summary_lines()


def test_recover_missing_root(tmp_path):
    with pytest.raises(FileNotFoundError):
        recover(tmp_path / "absent")


# -- uploader against the in-memory service ------------------------------------


def total_bytes(manifest) -> int:
    return sum(b.bytes for b in manifest.blobs)


def test_uploader_happy_path(tmp_path):
    pkg_dir, manifest = build_package(tmp_path)
    service = FakeSyncService(manifest)
    events = []
    up = Uploader(pkg_dir, manifest, service, chunk_bytes=256,
                  observer=lambda kind, **kw: events.append((kind, kw)))
    final = up.run()

    assert final.status is S.COMPLETE
    assert service.committed
    for b in manifest.blobs:
        assert bytes(service.blobs[b.name]) == (pkg_dir / b.name).read_bytes()
    assert service.appended_bytes == total_bytes(manifest)
    kinds = [e[1].get("event") for e in events if e[0] == "transition"]
    assert kinds[0] == "start" and kinds[-1] == "committed"
    assert set(kinds[1:-1]) == {"chunk_acked"}
    assert read_upload_state(pkg_dir).status is S.COMPLETE


@pytest.mark.parametrize("chunk_bytes", [0, -1])
def test_uploader_rejects_chunk_bytes_below_one(tmp_path, chunk_bytes):
    pkg_dir, manifest = build_package(tmp_path)
    service = FakeSyncService(manifest)
    before = read_upload_state(pkg_dir)
    with pytest.raises(ValueError, match="chunk_bytes must be >= 1"):
        Uploader(pkg_dir, manifest, service, chunk_bytes=chunk_bytes)
    assert service.appended_bytes == 0
    assert read_upload_state(pkg_dir) == before


def test_uploader_resumes_from_server_offset_after_drop(tmp_path):
    pkg_dir, manifest = build_package(tmp_path)
    service = DroppyService(manifest, drop_after_bytes=max(1, total_bytes(manifest) // 2))
    up = Uploader(pkg_dir, manifest, service, chunk_bytes=200, max_retries=3)
    final = up.run()
    assert final.status is S.COMPLETE
    # the dropped chunk's unacked prefix was never re-sent
    assert service.appended_bytes == total_bytes(manifest)
    assert service.committed


def test_uploader_resyncs_on_offset_mismatch(tmp_path):
    # session reports stale zeros while the server already holds a prefix:
    # the first PUT 416s and the uploader falls back to the durable offset
    pkg_dir, manifest = build_package(tmp_path)

    class StaleSession(FakeSyncService):
        def create_session(self, m):
            doc = super().create_session(m)
            doc["blobs"] = {name: 0 for name in doc["blobs"]}
            return doc

    service = StaleSession(manifest)
    first = manifest.blobs[0]
    payload = (pkg_dir / first.name).read_bytes()
    service.put_chunk(manifest.package_id, first.name, 0, payload[:100])
    service.appended_bytes = 0  # audit only what the uploader itself sends

    final = Uploader(pkg_dir, manifest, service, chunk_bytes=64).run()
    assert final.status is S.COMPLETE
    assert service.appended_bytes == total_bytes(manifest) - 100


def test_uploader_gives_up_after_retry_budget(tmp_path):
    pkg_dir, manifest = build_package(tmp_path)
    service = FakeSyncService(manifest)
    service.fail_next = [("create_session", ServerRejected("503"))] * 3
    sleeps = []
    up = Uploader(pkg_dir, manifest, service, max_retries=2,
                  backoff_base_s=0.5, sleep=sleeps.append)
    final = up.run()
    assert final.status is S.FAILED
    assert final.attempt_count == 3
    assert sleeps == [1.0, 2.0]  # 0.5 * 2^attempt before attempts 2 and 3
    assert read_upload_state(pkg_dir).status is S.FAILED


def test_backoff_is_capped():
    st = UploadState(package_id=PID, attempt_count=20)
    up = Uploader("/nonexistent", None, None, state=st,
                  backoff_base_s=1.0, backoff_cap_s=60.0)
    assert up.backoff_delay() == 60.0


def test_net_lost_does_not_consume_retry_budget(tmp_path):
    from roadsense.errors import NetworkError

    pkg_dir, manifest = build_package(tmp_path)
    service = FakeSyncService(manifest)
    # more mid-exchange drops than max_retries allows attempts; still completes
    service.fail_next = [("put_chunk", NetworkError("wifi blip"))] * 4
    final = Uploader(pkg_dir, manifest, service, chunk_bytes=256, max_retries=1).run()
    assert final.status is S.COMPLETE
    assert final.attempt_count == 0


# -- crash injection ------------------------------------------------------------


def count_persistence_points(tmp_path) -> int:
    pkg_dir, manifest = build_package(tmp_path / "probe")
    n = 0

    def counter(kind, **kw):
        nonlocal n
        n += 1

    Uploader(pkg_dir, manifest, FakeSyncService(manifest), chunk_bytes=256,
             observer=counter).run()
    return n


def test_crash_at_every_persistence_point_recovers(tmp_path):
    n_points = count_persistence_points(tmp_path)
    assert n_points >= 5  # start, offsets, several chunks, committed

    for k in range(1, n_points + 1):
        root = tmp_path / f"kill{k}"
        pkg_dir, manifest = build_package(root)
        service = FakeSyncService(manifest)
        with pytest.raises(Killed):
            Uploader(pkg_dir, manifest, service, chunk_bytes=256,
                     observer=KillSwitch(k)).run()

        # the process died; the library is rescanned and the upload rerun
        index = recover(root)
        entry = index.entries[manifest.package_id]
        assert entry.state.status in (S.PENDING, S.INTERRUPTED, S.COMPLETE)
        final = Uploader(pkg_dir, manifest, service, chunk_bytes=256,
                         state=entry.state).run()
        assert final.status is S.COMPLETE
        assert service.committed
        assert service.appended_bytes == total_bytes(manifest), f"kill point {k}"
        for b in manifest.blobs:
            assert bytes(service.blobs[b.name]) == (pkg_dir / b.name).read_bytes()


def chunk_sizes(manifest, chunk_bytes: int) -> list:
    return [min(chunk_bytes, b.bytes - off)
            for b in manifest.blobs for off in range(0, b.bytes, chunk_bytes)]


def test_crash_after_k_acked_chunks_resends_only_what_the_server_lacks(
    tmp_path, monkeypatch
):
    # chunk progress never reaches the sidecar, so after the kill it still
    # holds the zero offsets of the first sync; the resume must send exactly
    # the bytes the server does not hold, counting no-op replays too
    monkeypatch.setattr(packstore, "_PROGRESS_PERSIST_S", math.inf)
    sizes = chunk_sizes(build_package(tmp_path / "probe")[1], 64)
    assert len(sizes) >= 10

    for k in range(1, len(sizes) + 1):
        root = tmp_path / f"kill{k}"
        pkg_dir, manifest = build_package(root)
        service = FakeSyncService(manifest)
        with pytest.raises(Killed):
            # observed before the k-th chunk: start and the offset sync
            Uploader(pkg_dir, manifest, service, chunk_bytes=64,
                     observer=KillSwitch(2 + k)).run()
        durable = sum(len(buf) for buf in service.blobs.values())
        assert durable == sum(sizes[:k])

        entry = recover(root).entries[manifest.package_id]
        assert entry.state.status is S.INTERRUPTED
        assert sum(entry.state.bytes_sent.values()) == 0, f"kill after chunk {k}"
        service.offered_bytes = 0
        final = Uploader(pkg_dir, manifest, service, chunk_bytes=64,
                         state=entry.state).run()
        assert final.status is S.COMPLETE
        assert service.offered_bytes == total_bytes(manifest) - durable, f"kill after chunk {k}"
        assert service.appended_bytes == total_bytes(manifest)


def upload_counting_sidecar_writes(tmp_path, monkeypatch, service_cls=FakeSyncService):
    """Upload one package in 64-byte chunks; returns (sidecar writes, observed events)."""
    pkg_dir, manifest = build_package(tmp_path)
    writes = []
    real_write = packstore.write_upload_state

    def counting_write(package_dir, state):
        writes.append(state)
        real_write(package_dir, state)

    monkeypatch.setattr(packstore, "write_upload_state", counting_write)
    events = []
    final = Uploader(pkg_dir, manifest, service_cls(manifest), chunk_bytes=64,
                     observer=lambda kind, **kw: events.append(kw.get("event", kind))).run()
    assert final.status is S.COMPLETE
    assert events.count("chunk_acked") == len(chunk_sizes(manifest, 64))
    return len(writes), events


def test_sidecar_skips_chunk_progress_when_throttled_forever(tmp_path, monkeypatch):
    monkeypatch.setattr(packstore, "_PROGRESS_PERSIST_S", math.inf)
    n_writes, events = upload_counting_sidecar_writes(tmp_path, monkeypatch)
    assert [e for e in events if e != "chunk_acked"] == ["start", "offsets_synced", "committed"]
    assert n_writes == 3  # the status transitions plus the offset sync


def test_sidecar_written_per_chunk_without_throttle(tmp_path, monkeypatch):
    monkeypatch.setattr(packstore, "_PROGRESS_PERSIST_S", 0.0)
    n_writes, events = upload_counting_sidecar_writes(tmp_path, monkeypatch)
    assert n_writes == len(events)  # one per chunk, transition and sync


def test_sidecar_chunk_progress_at_most_once_per_second(tmp_path, monkeypatch):
    # each acknowledged chunk takes 0.3 s of a fake monotonic clock, so at
    # the 1 s default chunks 4, 8 and 12 (at 1.2, 2.4 and 3.6 s) are written
    now = [100.0]
    monkeypatch.setattr(packstore.time, "monotonic", lambda: now[0])

    class SlowService(FakeSyncService):
        def put_chunk(self, *args):
            now[0] += 0.3
            return super().put_chunk(*args)

    n_writes, events = upload_counting_sidecar_writes(tmp_path, monkeypatch, SlowService)
    assert events.count("chunk_acked") == 12
    assert n_writes == 3 + 3


def test_recover_mid_upload_shows_progress_without_throttle(tmp_path, monkeypatch):
    monkeypatch.setattr(packstore, "_PROGRESS_PERSIST_S", 0.0)
    pkg_dir, manifest = build_package(tmp_path)
    service = FakeSyncService(manifest)
    with pytest.raises(Killed):
        Uploader(pkg_dir, manifest, service, chunk_bytes=64,
                 observer=KillSwitch(2 + 3)).run()
    entry = recover(tmp_path).entries[manifest.package_id]
    assert entry.state.status is S.INTERRUPTED
    assert sum(entry.state.bytes_sent.values()) == 3 * 64


# -- whole-library upload ---------------------------------------------------------


class MultiService:
    """Routes uploader calls to one FakeSyncService per package."""

    def __init__(self):
        self.services = {}

    def for_manifest(self, manifest) -> FakeSyncService:
        return self.services.setdefault(manifest.package_id, FakeSyncService(manifest))

    def create_session(self, manifest):
        return self.for_manifest(manifest).create_session(manifest)

    def blob_offset(self, package_id, name):
        return self.services[package_id].blob_offset(package_id, name)

    def put_chunk(self, package_id, name, offset, data):
        return self.services[package_id].put_chunk(package_id, name, offset, data)

    def commit(self, package_id):
        return self.services[package_id].commit(package_id)

    def close(self):
        pass


def test_upload_library_skips_corrupt_and_completed(tmp_path):
    manifests = [build_package(tmp_path)[1] for _ in range(3)]
    done_dir, done = build_package(tmp_path)
    write_upload_state(done_dir, UploadState(package_id=done.package_id, status=S.COMPLETE))
    bad_dir, bad = build_package(tmp_path)
    (bad_dir / "gps.jsonl").unlink()

    hub = MultiService()
    results = upload_library(recover(tmp_path), lambda: hub, parallelism=3)

    assert sorted(results) == sorted(m.package_id for m in manifests)
    assert all(st.status is S.COMPLETE for st in results.values())
    assert done.package_id not in results and bad.package_id not in results
    for m in manifests:
        assert hub.services[m.package_id].committed


def test_upload_library_closes_every_client(tmp_path):
    manifests = [build_package(tmp_path)[1] for _ in range(3)]
    hub = MultiService()
    doomed = manifests[0].package_id
    hub.for_manifest(manifests[0]).fail_next = [("commit", ServerRejected("500"))]

    class ClosingClient:
        def __init__(self):
            self.closed = False

        def __getattr__(self, name):
            return getattr(hub, name)

        def close(self):
            self.closed = True

    clients = []

    def factory():
        clients.append(ClosingClient())
        return clients[-1]

    results = upload_library(recover(tmp_path), factory, parallelism=2, max_retries=0)

    assert results[doomed].status is S.FAILED
    assert sorted(pid for pid, st in results.items() if st.status is S.COMPLETE) == sorted(
        m.package_id for m in manifests[1:]
    )
    assert len(clients) == 3
    assert all(c.closed for c in clients)
