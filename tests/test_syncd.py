"""Sync service: registry semantics, wire protocol, durability, event stream."""

import builtins
import hashlib
import http.client
import json
import socket
import statistics
import threading
import time
import uuid
from pathlib import Path

import pytest

from roadsense import syncd
from roadsense.canonical import dumps_canonical
from roadsense.model import BlobEntry, PackageManifest, serialize_manifest
from roadsense.packstore import OffsetMismatch, ServerRejected
from roadsense.syncclient import EventStream, HttpTransport, StreamEnded, SyncClient
from roadsense.syncd import (
    OFFSET_HEADER,
    Conflict,
    DigestMismatch,
    NotFound,
    OffsetError,
    Registry,
    SyncServer,
)


def wire_package(payloads=None, pid=None):
    """A manifest plus the blob bytes it declares; no package dir involved."""
    if payloads is None:
        payloads = {
            "sensors.jsonl": b'{"t":0,"az":9.81}\n' * 40,
            "gps.jsonl": b'{"t":0,"lat":38.95}\n' * 5,
        }
    blobs = tuple(
        BlobEntry(name=n, bytes=len(d), sha256=hashlib.sha256(d).hexdigest())
        for n, d in payloads.items()
    )
    manifest = PackageManifest(
        package_id=pid or str(uuid.uuid4()),
        device_id="pixel-6",
        started_at_ms=1_700_000_000_000,
        ended_at_ms=1_700_000_060_000,
        blobs=blobs,
    )
    return manifest, payloads


def push_all(target, manifest, payloads, chunk=64):
    """Append every payload through ``target`` (registry or client)."""
    append = getattr(target, "append_chunk", None) or target.put_chunk
    for name, data in payloads.items():
        off = 0
        while off < len(data):
            off = append(manifest.package_id, name, off, data[off : off + chunk])


# -- registry ---------------------------------------------------------------------


def test_create_is_idempotent_and_conflicts_on_mismatch(tmp_path):
    reg = Registry(tmp_path)
    manifest, _ = wire_package()
    status, doc = reg.create_package(manifest)
    assert status == 201
    assert doc["status"] == "open"
    assert doc["blobs"] == {b.name: 0 for b in manifest.blobs}

    status, _ = reg.create_package(manifest)
    assert status == 200  # same manifest re-posted

    altered, _ = wire_package(pid=manifest.package_id, payloads={"sensors.jsonl": b"zz"})
    with pytest.raises(Conflict):
        reg.create_package(altered)


def test_append_chunk_offset_discipline(tmp_path):
    reg = Registry(tmp_path)
    manifest, payloads = wire_package()
    reg.create_package(manifest)
    name = "sensors.jsonl"
    data = payloads[name]

    assert reg.append_chunk(manifest.package_id, name, 0, data[:64]) == 64
    with pytest.raises(OffsetError) as gap:
        reg.append_chunk(manifest.package_id, name, 128, data[128:160])
    assert gap.value.expected == 64
    with pytest.raises(OffsetError) as overlap:  # partial overlap is not replay
        reg.append_chunk(manifest.package_id, name, 32, data[32:96])
    assert overlap.value.expected == 64
    assert reg.append_chunk(manifest.package_id, name, 0, data[:64]) == 64  # replay no-op
    assert reg.append_chunk(manifest.package_id, name, 64, data[64:]) == len(data)
    with pytest.raises(OffsetError):  # past the declared size
        reg.append_chunk(manifest.package_id, name, len(data), b"extra")
    with pytest.raises(NotFound):
        reg.append_chunk(manifest.package_id, "nope.bin", 0, b"x")
    with pytest.raises(NotFound):
        reg.append_chunk(str(uuid.uuid4()), name, 0, b"x")


def test_commit_verifies_and_assigns_dense_seqs(tmp_path):
    reg = Registry(tmp_path)
    first, payloads = wire_package()
    reg.create_package(first)
    with pytest.raises(Conflict) as conflict:
        reg.commit(first.package_id)
    assert set(conflict.value.blobs) == set(payloads)

    push_all(reg, first, payloads)
    event, newly = reg.commit(first.package_id)
    assert (event.commit_seq, newly) == (1, True)
    again, newly = reg.commit(first.package_id)
    assert (again, newly) == (event, False)  # idempotent, same record

    with pytest.raises(Conflict, match="committed"):
        reg.append_chunk(first.package_id, "sensors.jsonl", 0, b"x")

    second, payloads2 = wire_package()
    reg.create_package(second)
    push_all(reg, second, payloads2)
    assert reg.commit(second.package_id)[0].commit_seq == 2


def test_commit_rejects_digest_mismatch(tmp_path):
    reg = Registry(tmp_path)
    manifest, payloads = wire_package()
    reg.create_package(manifest)
    push_all(reg, manifest, payloads)
    blob_path = reg.packages_dir / manifest.package_id / "gps.jsonl"
    raw = bytearray(blob_path.read_bytes())
    raw[0] ^= 0xFF
    blob_path.write_bytes(bytes(raw))
    with pytest.raises(DigestMismatch) as e:
        reg.commit(manifest.package_id)
    assert e.value.blob == "gps.jsonl"


def blocking_hash(monkeypatch, release):
    """Patch the registry's hash to wait for *release*; returns a semaphore
    released once per hash that has started."""
    started = threading.Semaphore(0)
    real_hash = syncd.sha256_file

    def hash_after_release(path):
        started.release()
        release.wait(10)
        return real_hash(path)

    monkeypatch.setattr(syncd, "sha256_file", hash_after_release)
    return started


def test_an_append_completes_while_another_package_hashes(tmp_path, monkeypatch):
    reg = Registry(tmp_path)
    first, payloads = wire_package()
    second, payloads2 = wire_package()
    reg.create_package(first)
    reg.create_package(second)
    push_all(reg, first, payloads)
    release = threading.Event()
    started = blocking_hash(monkeypatch, release)
    committed = []
    committer = threading.Thread(target=lambda: committed.append(reg.commit(first.package_id)))
    appender = threading.Thread(target=push_all, args=(reg, second, payloads2))
    committer.start()
    try:
        assert started.acquire(timeout=5)
        appender.start()
        appender.join(2)
        appended_during_hash = not appender.is_alive()
    finally:
        release.set()
        committer.join(10)
        if appender.ident is not None:
            appender.join(10)
    assert appended_during_hash
    assert committed == [(reg.snapshot_events()[0], True)]
    assert reg.commit(second.package_id)[0].commit_seq == 2


def test_concurrent_commits_of_one_package_make_one_event(tmp_path, monkeypatch):
    reg = Registry(tmp_path)
    manifest, payloads = wire_package()
    reg.create_package(manifest)
    push_all(reg, manifest, payloads)
    release = threading.Event()
    started = blocking_hash(monkeypatch, release)
    results = []
    threads = [
        threading.Thread(target=lambda: results.append(reg.commit(manifest.package_id)))
        for _ in range(2)
    ]
    for t in threads:
        t.start()
    try:
        both_hashing = started.acquire(timeout=5) and started.acquire(timeout=5)
    finally:
        release.set()
        for t in threads:
            t.join(10)
    assert both_hashing
    assert sorted(newly for _, newly in results) == [False, True]
    assert results[0][0] == results[1][0]
    assert reg.snapshot_events() == [results[0][0]]
    assert len(reg.commit_log_path.read_bytes().splitlines()) == 1


def test_registry_restart_preserves_offsets_and_commits(tmp_path):
    reg = Registry(tmp_path)
    done, done_payloads = wire_package()
    reg.create_package(done)
    push_all(reg, done, done_payloads)
    reg.commit(done.package_id)

    partial, partial_payloads = wire_package()
    reg.create_package(partial)
    reg.append_chunk(partial.package_id, "sensors.jsonl", 0,
                     partial_payloads["sensors.jsonl"][:100])

    reborn = Registry(tmp_path)  # fresh process over the same data dir
    assert reborn.blob_offset(partial.package_id, "sensors.jsonl") == 100
    assert reborn.blob_offset(partial.package_id, "gps.jsonl") == 0
    assert reborn.packages[done.package_id].committed
    assert reborn.snapshot_events() == reg.snapshot_events()
    # and the partial upload can still finish
    reborn.append_chunk(partial.package_id, "sensors.jsonl", 100,
                        partial_payloads["sensors.jsonl"][100:])
    reborn.append_chunk(partial.package_id, "gps.jsonl", 0, partial_payloads["gps.jsonl"])
    assert reborn.commit(partial.package_id)[0].commit_seq == 2


def test_replay_rejects_broken_commit_logs(tmp_path):
    orphan = tmp_path / "orphan"
    orphan.mkdir()
    (orphan / "commits.jsonl").write_text(
        '{"commit_seq":1,"committed_at_ms":1,"package_id":"%s"}\n' % uuid.uuid4()
    )
    with pytest.raises(RuntimeError, match="missing package"):
        Registry(orphan)

    sparse = tmp_path / "sparse"
    reg = Registry(sparse)
    manifest, payloads = wire_package()
    reg.create_package(manifest)
    push_all(reg, manifest, payloads)
    reg.commit(manifest.package_id)
    log_path = sparse / "commits.jsonl"
    doc = json.loads(log_path.read_text())
    doc["commit_seq"] = 2
    log_path.write_text(json.dumps(doc) + "\n")
    with pytest.raises(RuntimeError, match="not dense"):
        Registry(sparse)


def committed_registry(data_dir, n):
    """A registry over ``data_dir`` holding n committed packages."""
    reg = Registry(data_dir)
    manifests = []
    for _ in range(n):
        manifest, payloads = wire_package()
        reg.create_package(manifest)
        push_all(reg, manifest, payloads)
        reg.commit(manifest.package_id)
        manifests.append(manifest)
    return reg, manifests


@pytest.mark.parametrize("tail", [b'{"commit_seq":3,"comm', b"{}", b"\x00\x00"])
def test_replay_truncates_a_torn_commit_log_tail(tmp_path, tail):
    reg, _ = committed_registry(tmp_path, 2)
    pending, payloads = wire_package()
    reg.create_package(pending)
    push_all(reg, pending, payloads)
    log_path = tmp_path / "commits.jsonl"
    intact = log_path.read_bytes()
    log_path.write_bytes(intact + tail)  # crash in mid-append: no newline

    reborn = Registry(tmp_path)
    assert log_path.read_bytes() == intact
    assert reborn.snapshot_events() == reg.snapshot_events()
    assert not reborn.packages[pending.package_id].committed
    assert reborn.commit(pending.package_id)[0].commit_seq == 3
    assert [e.commit_seq for e in Registry(tmp_path).snapshot_events()] == [1, 2, 3]


@pytest.mark.parametrize("bad_line", [b'{"commit_seq":2,"comm', b"[1]", b'{"commit_seq":2}'])
def test_replay_refuses_a_corrupt_terminated_line(tmp_path, bad_line):
    committed_registry(tmp_path, 1)
    log_path = tmp_path / "commits.jsonl"
    intact = log_path.read_bytes()
    log_path.write_bytes(intact + bad_line + b"\n")
    with pytest.raises(RuntimeError, match="line 2 is corrupt"):
        Registry(tmp_path)
    assert log_path.read_bytes() == intact + bad_line + b"\n"  # left for the operator


def test_torn_manifest_write_leaves_a_bootable_registry(tmp_path, monkeypatch):
    reg, _ = committed_registry(tmp_path, 1)
    manifest, payloads = wire_package()
    real_open = builtins.open

    class TornFile:
        """Writes half of what it is given, then fails like a crash would."""

        def __init__(self, f):
            self._f = f

        def write(self, data):
            self._f.write(data[: len(data) // 2])
            self._f.flush()
            raise OSError("injected crash in mid-write")

        def __getattr__(self, name):
            return getattr(self._f, name)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self._f.close()

    def torn_open(path, mode="r", *args, **kwargs):
        f = real_open(path, mode, *args, **kwargs)
        if Path(path).name.startswith("manifest.json") and "w" in mode:
            return TornFile(f)
        return f

    monkeypatch.setattr(syncd, "open", torn_open, raising=False)
    with pytest.raises(OSError, match="injected"):
        reg.create_package(manifest)
    monkeypatch.undo()

    reborn = Registry(tmp_path)
    assert manifest.package_id not in reborn.packages
    assert reborn.snapshot_events() == reg.snapshot_events()
    assert reborn.create_package(manifest)[0] == 201
    push_all(reborn, manifest, payloads)
    assert reborn.commit(manifest.package_id)[0].commit_seq == 2
    replayed = Registry(tmp_path).packages[manifest.package_id]
    assert replayed.committed and replayed.manifest == manifest


def listing_at_parent(reg, since_seq):
    """The listing as first specified: a scan of every event, each manifest
    serialised afresh."""
    return [
        {
            "commit_seq": e.commit_seq,
            "committed_at_ms": e.committed_at_ms,
            "manifest": json.loads(serialize_manifest(reg.packages[e.package_id].manifest)),
        }
        for e in reg.events
        if e.commit_seq > since_seq
    ]


def test_committed_since_slices_dense_seqs(tmp_path):
    reg, manifests = committed_registry(tmp_path, 4)
    reborn = Registry(tmp_path)  # listing docs rebuilt by replay
    for r in (reg, reborn):
        for since in (-5, -1, 0, 1, 3, 4, 5, 99):
            got = r.committed_since(since)
            assert dumps_canonical(got) == dumps_canonical(listing_at_parent(r, since))
    assert [d["manifest"]["package_id"] for d in reg.committed_since(-3)] == [
        m.package_id for m in manifests
    ]
    assert reg.committed_since(4) == reg.committed_since(99) == []
    assert [d["commit_seq"] for d in reg.committed_since(2)] == [3, 4]


# -- wire protocol ------------------------------------------------------------------


def test_full_upload_over_http(server):
    manifest, payloads = wire_package()
    with SyncClient(server.base_url) as client:
        session = client.create_session(manifest)
        assert session["blobs"] == {name: 0 for name in payloads}
        push_all(client, manifest, payloads, chunk=48)
        assert client.blob_offset(manifest.package_id, "sensors.jsonl") == len(
            payloads["sensors.jsonl"]
        )
        receipt = client.commit(manifest.package_id)
        assert receipt["commit_seq"] == 1

        listed = client.query_packages(since_seq=0)
        assert [p["manifest"]["package_id"] for p in listed] == [manifest.package_id]
        assert client.query_packages(since_seq=1) == []
        for name, data in payloads.items():
            assert client.download_blob(manifest.package_id, name) == data


def test_put_at_wrong_offset_returns_416_with_expected(server):
    manifest, payloads = wire_package()
    client = SyncClient(server.base_url)
    client.create_session(manifest)
    data = payloads["sensors.jsonl"]
    client.put_chunk(manifest.package_id, "sensors.jsonl", 0, data[:32])

    with pytest.raises(OffsetMismatch) as e:
        client.put_chunk(manifest.package_id, "sensors.jsonl", 100, data[100:132])
    assert e.value.expected == 32

    transport = HttpTransport(server.base_url)
    status, headers, body = transport.request(
        "PUT",
        f"/v1/packages/{manifest.package_id}/blobs/sensors.jsonl",
        body=data[100:132],
        headers={OFFSET_HEADER: "100"},
    )
    assert status == 416
    assert json.loads(body)["expected_offset"] == 32
    assert headers[OFFSET_HEADER.lower()] == "32"
    transport.close()
    client.close()


def test_http_error_statuses(server):
    transport = HttpTransport(server.base_url)
    ghost = str(uuid.uuid4())

    status, _, _ = transport.request("HEAD", f"/v1/packages/{ghost}/blobs/x")
    assert status == 404
    status, _, body = transport.request(
        "PUT", f"/v1/packages/{ghost}/blobs/x", body=b"x", headers={OFFSET_HEADER: "0"}
    )
    assert status == 404
    status, _, body = transport.request("POST", "/v1/packages", body=b"not json")
    assert status == 400
    status, _, body = transport.request(
        "POST", "/v1/packages", body=b'{"schema_version": 99}'
    )
    assert status == 400
    status, _, _ = transport.request("GET", "/v1/nope")
    assert status == 404

    # declared body over the server cap is refused before it is read
    status, _, body = transport.request(
        "PUT",
        f"/v1/packages/{ghost}/blobs/x",
        body=b"",
        headers={OFFSET_HEADER: "0", "Content-Length": str(65 * 1024 * 1024)},
    )
    assert status == 413
    assert json.loads(body)["error"] == "body_too_large"
    transport.close()


def test_put_without_length_is_411(server):
    with socket.create_connection((server.host, server.port), timeout=5) as s:
        s.sendall(
            b"PUT /v1/packages/x/blobs/y HTTP/1.1\r\n"
            b"Host: t\r\nUpload-Offset: 0\r\nConnection: close\r\n\r\n"
        )
        reply = s.recv(4096)
    assert reply.split(b"\r\n", 1)[0].endswith(b"411 Length Required")


@pytest.mark.parametrize(
    "length_header, status",
    [
        (b"", b"411 Length Required"),
        (b"Content-Length: -1\r\n", b"400 Bad Request"),
        (b"Content-Length: 1000000000000\r\n", b"413 Request Entity Too Large"),
    ],
)
def test_a_put_without_offset_and_with_a_refused_length_gets_one_reply(
    server, length_header, status
):
    with socket.create_connection((server.host, server.port), timeout=5) as s:
        s.sendall(
            b"PUT /v1/packages/x/blobs/y HTTP/1.1\r\nHost: t\r\n"
            + length_header
            + b"Connection: close\r\n\r\n"
        )
        reply = b""
        while chunk := s.recv(4096):
            reply += chunk
    # a second reply would follow the first one's body, not start a line
    assert reply.count(b"HTTP/1.1 ") == 1
    assert reply.split(b"\r\n", 1)[0].endswith(status)


def raw_status(server, request: bytes) -> bytes:
    """Send one raw request and return the reply's status line."""
    with socket.create_connection((server.host, server.port), timeout=5) as s:
        s.sendall(request)
        reply = b""
        while b"\r\n" not in reply:
            chunk = s.recv(4096)
            if not chunk:
                break
            reply += chunk
    return reply.split(b"\r\n", 1)[0]


def test_malformed_since_seq_is_400(server):
    status = raw_status(
        server,
        b"GET /v1/packages?since_seq=abc HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
    )
    assert status.endswith(b"400 Bad Request")


@pytest.mark.parametrize("length", [b"abc", b"-1"])
def test_malformed_content_length_is_400(server, length):
    status = raw_status(
        server,
        b"POST /v1/packages HTTP/1.1\r\nHost: t\r\nContent-Length: " + length + b"\r\n\r\n{}",
    )
    assert status.endswith(b"400 Bad Request")


def test_malformed_upload_offset_is_400(server):
    manifest, _ = wire_package()
    client = SyncClient(server.base_url)
    client.create_session(manifest)
    client.close()
    status = raw_status(
        server,
        f"PUT /v1/packages/{manifest.package_id}/blobs/sensors.jsonl HTTP/1.1\r\n".encode()
        + b"Host: t\r\nUpload-Offset: zz\r\nContent-Length: 2\r\nConnection: close\r\n\r\nab",
    )
    assert status.endswith(b"400 Bad Request")
    assert server.registry.blob_offset(manifest.package_id, "sensors.jsonl") == 0


def test_listing_since_seq_out_of_range(server):
    with SyncClient(server.base_url) as client:
        ids = commit_empty(client, 2)
        assert [p["manifest"]["package_id"] for p in client.query_packages(since_seq=-7)] == ids
        assert client.query_packages(since_seq=2) == []
        assert client.query_packages(since_seq=50) == []


def test_replies_with_a_body_do_not_stall(server):
    """Keep-alive replies that carry a body must not wait for the client's
    delayed ACK (about 40 ms each while Nagle's algorithm is on)."""
    manifest, payloads = wire_package()
    with SyncClient(server.base_url) as client:
        client.create_session(manifest)
        push_all(client, manifest, payloads, chunk=1 << 16)
        client.commit(manifest.package_id)
    pid = manifest.package_id
    requests = [
        ("GET", "/v1/packages?since_seq=0"),
        ("GET", f"/v1/packages/{pid}/blobs/sensors.jsonl"),
        ("POST", f"/v1/packages/{pid}/commit"),  # repeat commit: idempotent receipt
    ]
    conn = http.client.HTTPConnection(server.host, server.port, timeout=10)
    try:
        conn.connect()
        sock = conn.sock
        times = []
        for i in range(40):
            method, path = requests[i % len(requests)]
            t0 = time.perf_counter()
            conn.request(method, path, body=b"" if method == "POST" else None)
            resp = conn.getresponse()
            body = resp.read()
            times.append(time.perf_counter() - t0)
            assert resp.status == 200 and body
            assert conn.sock is sock  # one connection throughout
    finally:
        conn.close()
    assert statistics.median(times) * 1000 < 15.0


def test_commit_conflict_and_digest_codes(server):
    manifest, payloads = wire_package()
    transport = HttpTransport(server.base_url)
    client = SyncClient(server.base_url, transport=transport)
    client.create_session(manifest)

    status, _, body = transport.request(
        "POST", f"/v1/packages/{manifest.package_id}/commit", body=b""
    )
    assert status == 409
    assert set(json.loads(body)["blobs"]) == set(payloads)

    push_all(client, manifest, payloads)
    blob_path = server.registry.packages_dir / manifest.package_id / "gps.jsonl"
    raw = bytearray(blob_path.read_bytes())
    raw[-1] ^= 0xFF
    blob_path.write_bytes(bytes(raw))
    status, _, body = transport.request(
        "POST", f"/v1/packages/{manifest.package_id}/commit", body=b""
    )
    assert status == 422
    assert json.loads(body)["blob"] == "gps.jsonl"
    client.close()


# -- event stream ---------------------------------------------------------------------


def commit_empty(client, n=1):
    """Commit n zero-blob packages; returns their ids in commit order."""
    ids = []
    for _ in range(n):
        manifest = PackageManifest(
            package_id=str(uuid.uuid4()),
            device_id="d",
            started_at_ms=0,
            ended_at_ms=0,
            blobs=(),
        )
        client.create_session(manifest)
        client.commit(manifest.package_id)
        ids.append(manifest.package_id)
    return ids


def test_stream_replays_then_tails(server):
    with SyncClient(server.base_url) as client:
        ids = commit_empty(client, 3)
        with client.subscribe(from_seq=0) as stream:
            got = [stream.next_event(timeout=5) for _ in range(3)]
            assert [e["commit_seq"] for e in got] == [1, 2, 3]
            assert [e["package_id"] for e in got] == ids
            assert stream.next_event(timeout=0.2) is None  # caught up

            live = commit_empty(client, 1)
            event = stream.next_event(timeout=5)
            assert event["commit_seq"] == 4 and event["package_id"] == live[0]


def test_stream_from_seq_skips_replayed_prefix(server):
    with SyncClient(server.base_url) as client:
        commit_empty(client, 5)
        with client.subscribe(from_seq=3) as stream:
            assert stream.next_event(timeout=5)["commit_seq"] == 4
            assert stream.next_event(timeout=5)["commit_seq"] == 5


def test_reconnect_with_last_seq_never_duplicates(server):
    with SyncClient(server.base_url) as client:
        commit_empty(client, 4)
        stream = client.subscribe(from_seq=0)
        seen = [stream.next_event(timeout=5)["commit_seq"] for _ in range(2)]
        stream.close()
        commit_empty(client, 2)
        stream = client.subscribe(from_seq=stream.last_seq)  # replay overlaps; dedup
        for _ in range(4):
            seen.append(stream.next_event(timeout=5)["commit_seq"])
        stream.close()
        assert seen == [1, 2, 3, 4, 5, 6]


def test_two_subscribers_see_identical_order(server):
    with SyncClient(server.base_url) as client:
        with client.subscribe() as a, client.subscribe() as b:
            commit_empty(client, 4)
            got_a = [a.next_event(timeout=5)["commit_seq"] for _ in range(4)]
            got_b = [b.next_event(timeout=5)["commit_seq"] for _ in range(4)]
    assert got_a == got_b == [1, 2, 3, 4]


def test_stream_end_raises_stream_ended(server):
    client = SyncClient(server.base_url)
    stream = client.subscribe()
    server.stop()
    with pytest.raises(StreamEnded):
        for _ in range(10):
            stream.next_event(timeout=2)
    stream.close()
    client.close()


def test_server_restart_resumes_same_data_dir(tmp_path):
    data_dir = tmp_path / "syncdata"
    first = SyncServer(data_dir).start()
    manifest, payloads = wire_package()
    try:
        with SyncClient(first.base_url) as client:
            client.create_session(manifest)
            client.put_chunk(
                manifest.package_id, "sensors.jsonl", 0, payloads["sensors.jsonl"][:64]
            )
    finally:
        first.stop()

    second = SyncServer(data_dir).start()  # new port, same storage
    try:
        with SyncClient(second.base_url) as client:
            assert client.blob_offset(manifest.package_id, "sensors.jsonl") == 64
            session = client.create_session(manifest)  # idempotent re-register
            assert session["blobs"]["sensors.jsonl"] == 64
            push_all_from(client, manifest, payloads, {"sensors.jsonl": 64})
            assert client.commit(manifest.package_id)["commit_seq"] == 1
    finally:
        second.stop()


def push_all_from(client, manifest, payloads, offsets):
    for name, data in payloads.items():
        off = offsets.get(name, 0)
        while off < len(data):
            off = client.put_chunk(manifest.package_id, name, off, data[off : off + 64])
