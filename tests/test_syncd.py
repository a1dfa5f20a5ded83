"""Sync service: registry semantics, wire protocol, durability, event stream."""

import builtins
import dataclasses
import hashlib
import http.client
import json
import re
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


def reply_to_eof(server, request: bytes) -> bytes:
    """Send one raw request and read until the server closes."""
    with socket.create_connection((server.host, server.port), timeout=5) as s:
        s.sendall(request)
        reply = b""
        while chunk := s.recv(4096):
            reply += chunk
    return reply


def test_an_unread_body_is_not_parsed_as_the_next_request(server):
    smuggled = b"GET /v1/stream HTTP/1.1\r\n\r\n"
    reply = reply_to_eof(
        server,
        b"POST /v1/nope HTTP/1.1\r\nHost: t\r\nContent-Length: %d\r\n\r\n" % len(smuggled)
        + smuggled,
    )
    assert len(re.findall(rb"HTTP/1\.[01] \d{3} ", reply)) == 1
    assert reply.startswith(b"HTTP/1.1 404 ")


@pytest.mark.parametrize("method, path, status", [
    ("GET", "/v1/packages", b"200"),
    ("GET", "/v1/packages/x/blobs/y", b"404"),
    ("HEAD", "/v1/packages/x/blobs/y", b"404"),
    ("GET", "/v1/nope", b"404"),
])
def test_endpoints_that_read_no_body_close_after_a_declared_one(server, method, path, status):
    reply = reply_to_eof(
        server,
        f"{method} {path} HTTP/1.1\r\nHost: t\r\nContent-Length: 5\r\n\r\nhello".encode(),
    )
    assert len(re.findall(rb"HTTP/1\.[01] \d{3} ", reply)) == 1
    assert reply.split(b"\r\n", 1)[0].split(b" ")[1] == status
    assert b"501" not in reply


def test_a_chunked_request_body_ends_the_connection(server):
    reply = reply_to_eof(
        server,
        b"GET /v1/packages HTTP/1.1\r\nHost: t\r\nTransfer-Encoding: chunked\r\n\r\n"
        b"GET /v1/nope HTTP/1.1\r\nHost: t\r\n\r\n",
    )
    assert len(re.findall(rb"HTTP/1\.[01] \d{3} ", reply)) == 1
    assert reply.startswith(b"HTTP/1.1 200 ")


def reply_and_fate(server, request: bytes) -> tuple[bytes, bool]:
    """Send one raw request; return the reply and whether the server then
    closed the connection (EOF or reset before the timeout)."""
    with socket.create_connection((server.host, server.port), timeout=5) as s:
        try:
            s.sendall(request)
        except (BrokenPipeError, ConnectionResetError):
            pass  # refused before the request's end; the reply is still readable
        reply = b""
        try:
            while chunk := s.recv(65536):
                reply += chunk
            closed = True
        except ConnectionResetError:  # the server closed with request bytes unread
            closed = True
        except TimeoutError:
            closed = False
    return reply, closed


def head_reply(server, request: bytes) -> tuple[bytes, bool]:
    """The reply's status line and whether the server closed the connection."""
    reply, closed = reply_and_fate(server, request)
    assert b"\r\n" in reply, f"no status line: {reply!r}"
    return reply.split(b"\r\n", 1)[0], closed


def get_listing(*fields: bytes) -> bytes:
    return b"GET /v1/packages HTTP/1.1\r\n" + b"".join(f + b"\r\n" for f in fields) + b"\r\n"


@pytest.mark.parametrize("n_fields, status", [
    (99, b"HTTP/1.1 200 OK"),  # 100 head lines with the blank one
    (100, b"HTTP/1.1 431 Too many headers"),
    (101, b"HTTP/1.1 431 Too many headers"),
])
def test_the_head_line_limit_is_the_stdlibs(server, n_fields, status):
    fields = [b"Connection: close"] + [b"X-Filler-%d: %d" % (i, i) for i in range(n_fields - 1)]
    assert head_reply(server, get_listing(*fields)) == (status, True)


@pytest.mark.parametrize("line_bytes, status", [
    (65_536, b"HTTP/1.1 200 OK"),
    (65_537, b"HTTP/1.1 431 Line too long"),
])
def test_the_header_line_length_limit_is_the_stdlibs(server, line_bytes, status):
    filler = b"X-Filler: " + b"a" * (line_bytes - len(b"X-Filler: \r\n"))
    assert len(filler + b"\r\n") == line_bytes
    assert head_reply(server, get_listing(filler, b"Connection: close")) == (status, True)


@pytest.mark.parametrize("bad_line", [
    b"Content-Length 2",  # no colon: the stdlib dropped it and every line after it
    b" folded-onto-host",  # obs-fold, RFC 9112 section 5.2
    b"\tfolded-onto-host",
    b"Bad Name: x",
    b": no name",
])
def test_a_malformed_header_line_gets_400_and_the_connection_ends(server, bad_line):
    request = get_listing(b"Host: t", bad_line, b"Connection: keep-alive")
    assert head_reply(server, request) == (b"HTTP/1.1 400 Bad header line", True)


def test_a_malformed_header_line_after_an_http09_request_line_gets_a_status_line(server):
    reply, closed = reply_and_fate(server, b"GET /v1/packages\r\nContent-Length 2\r\n\r\n")
    assert reply.startswith(b"HTTP/1.1 400 Bad header line\r\n") and closed


def test_a_duplicated_content_length_keeps_its_first_value(server):
    manifest, payloads = wire_package()
    with SyncClient(server.base_url) as client:
        client.create_session(manifest)
    pid = manifest.package_id
    # with the second value the server would wait for 3 more body bytes
    reply = reply_to_eof(
        server,
        f"PUT /v1/packages/{pid}/blobs/sensors.jsonl HTTP/1.1\r\n".encode()
        + b"Host: t\r\nUpload-Offset: 0\r\nContent-Length: 2\r\nContent-Length: 5\r\n"
        b"Connection: close\r\n\r\n"
        + payloads["sensors.jsonl"][:2],
    )
    assert reply.startswith(b"HTTP/1.1 204 No Content\r\n")
    assert b"\r\nUpload-Offset: 2\r\n" in reply
    assert server.registry.blob_offset(pid, "sensors.jsonl") == 2


def test_header_names_are_case_insensitive_and_values_lose_blanks(server):
    manifest, payloads = wire_package()
    with SyncClient(server.base_url) as client:
        client.create_session(manifest)
    reply = reply_to_eof(
        server,
        f"PUT /v1/packages/{manifest.package_id}/blobs/sensors.jsonl HTTP/1.1\r\n".encode()
        + b"host: t\r\nUPLOAD-OFFSET:0\r\ncontent-length: \t3 \r\nconnection: CLOSE\r\n\r\n"
        + payloads["sensors.jsonl"][:3],
    )
    assert reply.startswith(b"HTTP/1.1 204 No Content\r\n")
    assert b"\r\nUpload-Offset: 3\r\n" in reply


@pytest.mark.parametrize("request_line, start", [
    (b"GET /v1 packages HTTP/1.1",
     b"HTTP/1.1 400 Bad request syntax ('GET /v1 packages HTTP/1.1')"),
    (b"DELETE /v1/packages HTTP/1.1", b"HTTP/1.1 501 Unsupported method ('DELETE')"),
    (b"GET //v1/packages HTTP/1.0", b"HTTP/1.1 200 OK"),  # "//" collapses to "/"
    # the stdlib answers these as HTTP/0.9, with no status line; syncd
    # starts every refusal with one
    (b"GET /v1/packages HTTP/2.0", b"HTTP/1.1 505 Invalid HTTP version (2.0)"),
    (b"GET /v1/packages HTTP/1", b"HTTP/1.1 400 Bad request version ('HTTP/1')"),
    (b"GET /v1/packages FTP/1.1", b"HTTP/1.1 400 Bad request version ('FTP/1.1')"),
    (b"POST /v1/packages", b"HTTP/1.1 400 Bad HTTP/0.9 request type ('POST')"),
    (b"GET", b"HTTP/1.1 400 Bad request syntax ('GET')"),
    (b"GET /v1/packages", b"[]\n"),  # a valid HTTP/0.9 request: the body alone
])
def test_request_lines_follow_the_stdlib_rules(server, request_line, start):
    reply, closed = reply_and_fate(server, request_line + b"\r\nHost: t\r\n\r\n")
    assert reply.startswith(start) and closed
    messages = {
        b"HTTP/2.0": b"<p>Error code: 505</p>\n        <p>Message: Invalid HTTP version (2.0).",
        b"HTTP/1": b"<p>Error code: 400</p>\n        <p>Message: Bad request version ('HTTP/1').",
        b"FTP/1.1": b"<p>Error code: 400</p>\n        <p>Message: Bad request version ('FTP/1.1').",
        b"POST /v1/packages": b"<p>Message: Bad HTTP/0.9 request type ('POST').",
    }
    for key, message in messages.items():
        if request_line.endswith(key):
            assert message in reply
    if start == b"HTTP/1.1 200 OK":
        assert reply.endswith(b"\r\n\r\n[]\n")
    if start == b"[]\n":
        assert reply == start


def test_expect_100_continue_gets_an_interim_reply(server):
    with socket.create_connection((server.host, server.port), timeout=5) as s:
        s.sendall(
            b"POST /v1/packages HTTP/1.1\r\nHost: t\r\nContent-Length: 8\r\n"
            b"Expect: 100-continue\r\nConnection: close\r\n\r\n"
        )
        interim = b""
        while not interim.endswith(b"\r\n\r\n"):
            interim += s.recv(1)
        s.sendall(b"not json")
        reply = b""
        while chunk := s.recv(4096):
            reply += chunk
    assert interim == b"HTTP/1.1 100 Continue\r\n\r\n"
    assert reply.startswith(b"HTTP/1.1 400 Bad Request\r\n")


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


# -- wire replies, pinned -------------------------------------------------------------

WIRE_A = "0a0a0a0a-0000-4000-8000-00000000000a"
WIRE_Z = "0a0a0a0a-0000-4000-8000-0000000000ff"
WIRE_BAD = "0a0a0a0a-0000-4000-8000-00000000000c"
WIRE_GHOST = "0a0a0a0a-0000-4000-8000-000000000000"
WIRE_SENSORS = b'{"t":0,"az":9.81}\n' * 2
WIRE_FRAME = b"\xff\xd8jpeg\x00"
_WIRE_A_MANIFEST = PackageManifest(
    package_id=WIRE_A, device_id="pixel-6", started_at_ms=0, ended_at_ms=60_000,
    blobs=(
        BlobEntry("sensors.jsonl", len(WIRE_SENSORS), hashlib.sha256(WIRE_SENSORS).hexdigest()),
        BlobEntry("frames/0.jpg", len(WIRE_FRAME), hashlib.sha256(WIRE_FRAME).hexdigest()),
    ),
)
_WIRE_BAD_MANIFEST = PackageManifest(  # declares the digest of other bytes
    package_id=WIRE_BAD, device_id="pixel-6", started_at_ms=0, ended_at_ms=0,
    blobs=(BlobEntry("gps.jsonl", 4, hashlib.sha256(b"good").hexdigest()),),
)
_PROBE = b"GET /v1/nope HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"


def raw_request(method: str, path: str, body: bytes | None = None, **headers) -> bytes:
    """A raw HTTP/1.1 request; a body gets its Content-Length unless one is
    given (``Content_Length=...``; underscores become hyphens)."""
    fields = {"Host": "t"}
    if body is not None:
        fields["Content-Length"] = str(len(body))
    fields.update({k.replace("_", "-"): v for k, v in headers.items()})
    head = f"{method} {path} HTTP/1.1\r\n" + "".join(f"{k}: {v}\r\n" for k, v in fields.items())
    return head.encode() + b"\r\n" + (body or b"")


def blob_path(pid: str, name: str) -> str:
    return f"/v1/packages/{pid}/blobs/{name}"


def put(pid: str, name: str, offset, data: bytes, **headers) -> bytes:
    return raw_request("PUT", blob_path(pid, name), data, Upload_Offset=offset, **headers)


def post_manifest(manifest: PackageManifest | bytes) -> bytes:
    body = manifest if isinstance(manifest, bytes) else serialize_manifest(manifest)
    return raw_request("POST", "/v1/packages", body)


def commit_request(pid: str) -> bytes:
    return raw_request("POST", f"/v1/packages/{pid}/commit", b"")


_A = WIRE_A
_S = "sensors.jsonl"
_HUGE = str(10**12)
_VALID_DOC = json.loads(serialize_manifest(_WIRE_A_MANIFEST))

# (label, raw request, number of SSE events to read, or None for a plain reply)
WIRE_STEPS = [
    ("create", post_manifest(_WIRE_A_MANIFEST), None),
    ("create again", post_manifest(_WIRE_A_MANIFEST), None),
    ("create conflicting", post_manifest(
        dataclasses.replace(_WIRE_A_MANIFEST, device_id="other")), None),
    ("create not json", post_manifest(b"not json"), None),
    ("create not an object", post_manifest(b"[1]"), None),
    ("create foreign version", post_manifest(b'{"schema_version": 99}'), None),
    ("create bad package_id", post_manifest(
        dumps_canonical({**_VALID_DOC, "package_id": "nope"})), None),
    ("create missing field", post_manifest(
        dumps_canonical({k: v for k, v in _VALID_DOC.items() if k != "device_id"})), None),
    ("create without length", raw_request("POST", "/v1/packages"), None),
    ("create length abc", raw_request("POST", "/v1/packages", Content_Length="abc"), None),
    ("create length -1", raw_request("POST", "/v1/packages", Content_Length="-1"), None),
    ("create length huge", raw_request("POST", "/v1/packages", Content_Length=_HUGE), None),
    ("get empty blob", raw_request("GET", blob_path(_A, _S)), None),
    ("head at 0", raw_request("HEAD", blob_path(_A, _S)), None),
    ("put first chunk", put(_A, _S, 0, WIRE_SENSORS[:20]), None),
    ("put replayed chunk", put(_A, _S, 0, WIRE_SENSORS[:20]), None),
    ("put gap", put(_A, _S, 30, WIRE_SENSORS[30:]), None),
    ("put partial overlap", put(_A, _S, 10, WIRE_SENSORS[10:30]), None),
    ("put past declared size", put(_A, _S, 20, WIRE_SENSORS[20:] + b"extra"), None),
    ("put without offset", raw_request("PUT", blob_path(_A, _S), b"ab"), None),
    ("put offset zz", put(_A, _S, "zz", b"ab"), None),
    ("put without length", raw_request("PUT", blob_path(_A, _S), Upload_Offset=0), None),
    ("put length -1", raw_request(
        "PUT", blob_path(_A, _S), Upload_Offset=0, Content_Length="-1"), None),
    ("put length huge", raw_request(
        "PUT", blob_path(_A, _S), Upload_Offset=0, Content_Length=_HUGE), None),
    ("put unknown blob", put(_A, "nope.bin", 0, b"x"), None),
    ("put unknown package", put(WIRE_GHOST, _S, 0, b"x"), None),
    ("put unknown package without offset",
     raw_request("PUT", blob_path(WIRE_GHOST, _S), b"x"), None),
    ("head at 20", raw_request("HEAD", blob_path(_A, _S)), None),
    ("head unknown blob", raw_request("HEAD", blob_path(_A, "nope.bin")), None),
    ("head unknown package", raw_request("HEAD", blob_path(WIRE_GHOST, _S)), None),
    ("head unknown endpoint", raw_request("HEAD", "/v1/nope"), None),
    ("head listing", raw_request("HEAD", "/v1/packages"), None),
    ("get partial blob", raw_request("GET", blob_path(_A, _S)), None),
    ("get unknown blob", raw_request("GET", blob_path(_A, "nope.bin")), None),
    ("get unknown package", raw_request("GET", blob_path(WIRE_GHOST, _S)), None),
    ("commit incomplete", commit_request(_A), None),
    ("commit without length", raw_request("POST", f"/v1/packages/{_A}/commit"), None),
    ("commit unknown package", commit_request(WIRE_GHOST), None),
    ("put last chunk", put(_A, _S, 20, WIRE_SENSORS[20:]), None),
    ("put quoted name", put(_A, "frames%2F0.jpg", 0, WIRE_FRAME), None),
    ("commit", commit_request(_A), None),
    ("commit again", commit_request(_A), None),
    ("create after commit", post_manifest(_WIRE_A_MANIFEST), None),
    ("put after commit", put(_A, _S, 0, b"x"), None),
    ("get nested blob", raw_request("GET", blob_path(_A, "frames/0.jpg")), None),
    ("create empty", post_manifest(dataclasses.replace(
        _WIRE_A_MANIFEST, package_id=WIRE_Z, blobs=())), None),
    ("commit empty", commit_request(WIRE_Z), None),
    ("create bad digest", post_manifest(_WIRE_BAD_MANIFEST), None),
    ("put bad digest", put(WIRE_BAD, "gps.jsonl", 0, b"evil"), None),
    ("commit bad digest", commit_request(WIRE_BAD), None),
    ("list", raw_request("GET", "/v1/packages"), None),
    ("list since 0", raw_request("GET", "/v1/packages?since_seq=0"), None),
    ("list since -3", raw_request("GET", "/v1/packages?since_seq=-3"), None),
    ("list since 1", raw_request("GET", "/v1/packages?since_seq=1"), None),
    ("list since 2", raw_request("GET", "/v1/packages?since_seq=2"), None),
    ("list since 99", raw_request("GET", "/v1/packages?since_seq=99"), None),
    ("list since abc", raw_request("GET", "/v1/packages?since_seq=abc"), None),
    ("stream from abc", raw_request("GET", "/v1/stream?from_seq=abc"), None),
    ("stream from 0", raw_request("GET", "/v1/stream?from_seq=0"), 2),
    ("stream from 1", raw_request("GET", "/v1/stream?from_seq=1"), 1),
    ("get unknown endpoint", raw_request("GET", "/v1/nope"), None),
    ("post unknown endpoint", raw_request("POST", "/v1/nope", b""), None),
    ("put unknown endpoint", raw_request("PUT", "/v1/nope", b""), None),
    ("get commit", raw_request("GET", f"/v1/packages/{_A}/commit"), None),
]


# each step's reply as raw_exchange returns it, recorded from the service;
# a change here is a change to the wire protocol
WIRE_REPLIES = {
    "create": (
        "HTTP/1.1 201 Created",
        ("Content-Type: application/json", "Content-Length: 133"),
        b'{"blobs":{"frames/0.jpg":0,"sensors.jsonl":0},"commit_seq":null,"package_id":'
        b'"0a0a0a0a-0000-4000-8000-00000000000a","status":"open"}\n',
        False,
    ),
    "create again": (
        "HTTP/1.1 200 OK",
        ("Content-Type: application/json", "Content-Length: 133"),
        b'{"blobs":{"frames/0.jpg":0,"sensors.jsonl":0},"commit_seq":null,"package_id":'
        b'"0a0a0a0a-0000-4000-8000-00000000000a","status":"open"}\n',
        False,
    ),
    "create conflicting": (
        "HTTP/1.1 409 Conflict",
        ("Content-Type: application/json", "Content-Length: 53"),
        b'{"error":"manifest differs from the registered one"}\n',
        False,
    ),
    "create not json": (
        "HTTP/1.1 400 Bad Request",
        ("Content-Type: application/json", "Content-Length: 64"),
        b'{"error":"malformed manifest JSON: Expecting value","offset":0}\n',
        False,
    ),
    "create not an object": (
        "HTTP/1.1 400 Bad Request",
        ("Content-Type: application/json", "Content-Length: 55"),
        b'{"error":"manifest JSON must be an object","offset":0}\n',
        False,
    ),
    "create foreign version": (
        "HTTP/1.1 400 Bad Request",
        ("Content-Type: application/json", "Content-Length: 69"),
        b'{"error":"unsupported schema_version 99 (expected 1)","offset":null}\n',
        False,
    ),
    "create bad package_id": (
        "HTTP/1.1 400 Bad Request",
        ("Content-Type: application/json", "Content-Length: 78"),
        b'{"error":"package_id must be a UUID string, got \'nope\'","field":"package_id'
        b'"}\n',
        False,
    ),
    "create missing field": (
        "HTTP/1.1 400 Bad Request",
        ("Content-Type: application/json", "Content-Length: 67"),
        b'{"error":"manifest missing field \'device_id\'","field":"device_id"}\n',
        False,
    ),
    "create without length": (
        "HTTP/1.1 411 Length Required",
        ("Content-Type: application/json", "Content-Length: 28"),
        b'{"error":"length_required"}\n',
        False,
    ),
    "create length abc": (
        "HTTP/1.1 400 Bad Request",
        ("Content-Type: application/json", "Content-Length: 57"),
        b'{"error":"Content-Length must be a nonnegative integer"}\n',
        True,
    ),
    "create length -1": (
        "HTTP/1.1 400 Bad Request",
        ("Content-Type: application/json", "Content-Length: 57"),
        b'{"error":"Content-Length must be a nonnegative integer"}\n',
        True,
    ),
    "create length huge": (
        "HTTP/1.1 413 Request Entity Too Large",
        ("Content-Type: application/json", "Content-Length: 48"),
        b'{"error":"body_too_large","max_bytes":67108864}\n',
        True,
    ),
    "get empty blob": (
        "HTTP/1.1 200 OK",
        ("Content-Type: application/octet-stream", "Content-Length: 0"),
        b'',
        False,
    ),
    "head at 0": (
        "HTTP/1.1 200 OK",
        ("Upload-Offset: 0", "Content-Length: 0"),
        b'',
        False,
    ),
    "put first chunk": (
        "HTTP/1.1 204 No Content",
        ("Upload-Offset: 20", "Content-Length: 0"),
        b'',
        False,
    ),
    "put replayed chunk": (
        "HTTP/1.1 204 No Content",
        ("Upload-Offset: 20", "Content-Length: 0"),
        b'',
        False,
    ),
    "put gap": (
        "HTTP/1.1 416 Requested Range Not Satisfiable",
        ("Content-Type: application/json", "Content-Length: 52", "Upload-Offset: 20"),
        b'{"error":"expected offset 20","expected_offset":20}\n',
        False,
    ),
    "put partial overlap": (
        "HTTP/1.1 416 Requested Range Not Satisfiable",
        ("Content-Type: application/json", "Content-Length: 52", "Upload-Offset: 20"),
        b'{"error":"expected offset 20","expected_offset":20}\n',
        False,
    ),
    "put past declared size": (
        "HTTP/1.1 416 Requested Range Not Satisfiable",
        ("Content-Type: application/json", "Content-Length: 64", "Upload-Offset: 20"),
        b'{"error":"chunk exceeds declared size 36","expected_offset":20}\n',
        False,
    ),
    "put without offset": (
        "HTTP/1.1 400 Bad Request",
        ("Content-Type: application/json", "Content-Length: 41"),
        b'{"error":"missing Upload-Offset header"}\n',
        False,
    ),
    "put offset zz": (
        "HTTP/1.1 400 Bad Request",
        ("Content-Type: application/json", "Content-Length: 45"),
        b'{"error":"Upload-Offset must be an integer"}\n',
        False,
    ),
    "put without length": (
        "HTTP/1.1 411 Length Required",
        ("Content-Type: application/json", "Content-Length: 28"),
        b'{"error":"length_required"}\n',
        False,
    ),
    "put length -1": (
        "HTTP/1.1 400 Bad Request",
        ("Content-Type: application/json", "Content-Length: 57"),
        b'{"error":"Content-Length must be a nonnegative integer"}\n',
        True,
    ),
    "put length huge": (
        "HTTP/1.1 413 Request Entity Too Large",
        ("Content-Type: application/json", "Content-Length: 48"),
        b'{"error":"body_too_large","max_bytes":67108864}\n',
        True,
    ),
    "put unknown blob": (
        "HTTP/1.1 404 Not Found",
        ("Content-Type: application/json", "Content-Length: 36"),
        b'{"error":"unknown blob \'nope.bin\'"}\n',
        False,
    ),
    "put unknown package": (
        "HTTP/1.1 404 Not Found",
        ("Content-Type: application/json", "Content-Length: 65"),
        b'{"error":"unknown package 0a0a0a0a-0000-4000-8000-000000000000"}\n',
        False,
    ),
    "put unknown package without offset": (
        "HTTP/1.1 400 Bad Request",
        ("Content-Type: application/json", "Content-Length: 41"),
        b'{"error":"missing Upload-Offset header"}\n',
        False,
    ),
    "head at 20": (
        "HTTP/1.1 200 OK",
        ("Upload-Offset: 20", "Content-Length: 0"),
        b'',
        False,
    ),
    "head unknown blob": (
        "HTTP/1.1 404 Not Found",
        ("Content-Length: 0",),
        b'',
        False,
    ),
    "head unknown package": (
        "HTTP/1.1 404 Not Found",
        ("Content-Length: 0",),
        b'',
        False,
    ),
    "head unknown endpoint": (
        "HTTP/1.1 404 Not Found",
        ("Content-Length: 0",),
        b'',
        False,
    ),
    "head listing": (
        "HTTP/1.1 404 Not Found",
        ("Content-Length: 0",),
        b'',
        False,
    ),
    "get partial blob": (
        "HTTP/1.1 200 OK",
        ("Content-Type: application/octet-stream", "Content-Length: 20"),
        b'{"t":0,"az":9.81}\n{"',
        False,
    ),
    "get unknown blob": (
        "HTTP/1.1 404 Not Found",
        ("Content-Type: application/json", "Content-Length: 36"),
        b'{"error":"unknown blob \'nope.bin\'"}\n',
        False,
    ),
    "get unknown package": (
        "HTTP/1.1 404 Not Found",
        ("Content-Type: application/json", "Content-Length: 65"),
        b'{"error":"unknown package 0a0a0a0a-0000-4000-8000-000000000000"}\n',
        False,
    ),
    "commit incomplete": (
        "HTTP/1.1 409 Conflict",
        ("Content-Type: application/json", "Content-Length: 99"),
        b'{"blobs":["sensors.jsonl","frames/0.jpg"],"error":"blobs incomplete: sensors.'
        b'jsonl, frames/0.jpg"}\n',
        False,
    ),
    "commit without length": (
        "HTTP/1.1 411 Length Required",
        ("Content-Type: application/json", "Content-Length: 28"),
        b'{"error":"length_required"}\n',
        False,
    ),
    "commit unknown package": (
        "HTTP/1.1 404 Not Found",
        ("Content-Type: application/json", "Content-Length: 65"),
        b'{"error":"unknown package 0a0a0a0a-0000-4000-8000-000000000000"}\n',
        False,
    ),
    "put last chunk": (
        "HTTP/1.1 204 No Content",
        ("Upload-Offset: 36", "Content-Length: 0"),
        b'',
        False,
    ),
    "put quoted name": (
        "HTTP/1.1 204 No Content",
        ("Upload-Offset: 7", "Content-Length: 0"),
        b'',
        False,
    ),
    "commit": (
        "HTTP/1.1 200 OK",
        ("Content-Type: application/json", "Content-Length: 101"),
        b'{"commit_seq":1,"committed_at_ms":0,"package_id":"0a0a0a0a-0000-4000-8000-000'
        b'00000000a"}\n',
        False,
    ),
    "commit again": (
        "HTTP/1.1 200 OK",
        ("Content-Type: application/json", "Content-Length: 101"),
        b'{"commit_seq":1,"committed_at_ms":0,"package_id":"0a0a0a0a-0000-4000-8000-000'
        b'00000000a"}\n',
        False,
    ),
    "create after commit": (
        "HTTP/1.1 200 OK",
        ("Content-Type: application/json", "Content-Length: 136"),
        b'{"blobs":{"frames/0.jpg":7,"sensors.jsonl":36},"commit_seq":1,"package_id":"0'
        b'a0a0a0a-0000-4000-8000-00000000000a","status":"committed"}\n',
        False,
    ),
    "put after commit": (
        "HTTP/1.1 409 Conflict",
        ("Content-Type: application/json", "Content-Length: 38"),
        b'{"error":"package already committed"}\n',
        False,
    ),
    "get nested blob": (
        "HTTP/1.1 200 OK",
        ("Content-Type: application/octet-stream", "Content-Length: 7"),
        b'\xff\xd8jpeg\x00',
        False,
    ),
    "create empty": (
        "HTTP/1.1 201 Created",
        ("Content-Type: application/json", "Content-Length: 99"),
        b'{"blobs":{},"commit_seq":null,"package_id":"0a0a0a0a-0000-4000-8000-000000000'
        b'0ff","status":"open"}\n',
        False,
    ),
    "commit empty": (
        "HTTP/1.1 200 OK",
        ("Content-Type: application/json", "Content-Length: 101"),
        b'{"commit_seq":2,"committed_at_ms":0,"package_id":"0a0a0a0a-0000-4000-8000-000'
        b'0000000ff"}\n',
        False,
    ),
    "create bad digest": (
        "HTTP/1.1 201 Created",
        ("Content-Type: application/json", "Content-Length: 112"),
        b'{"blobs":{"gps.jsonl":0},"commit_seq":null,"package_id":"0a0a0a0a-0000-4000-8'
        b'000-00000000000c","status":"open"}\n',
        False,
    ),
    "put bad digest": (
        "HTTP/1.1 204 No Content",
        ("Upload-Offset: 4", "Content-Length: 0"),
        b'',
        False,
    ),
    "commit bad digest": (
        "HTTP/1.1 422 Unprocessable Entity",
        ("Content-Type: application/json", "Content-Length: 68"),
        b'{"blob":"gps.jsonl","error":"sha256 mismatch for blob \'gps.jsonl\'"}\n',
        False,
    ),
    "list": (
        "HTTP/1.1 200 OK",
        ("Content-Type: application/json", "Content-Length: 711"),
        b'[{"commit_seq":1,"committed_at_ms":0,"manifest":{"blobs":[{"bytes":36,"name":'
        b'"sensors.jsonl","sha256":"9c5e7a5c5fb8233eb77c4b5c7515450400e729c7338abca7578'
        b'f9552f0ad9863"},{"bytes":7,"name":"frames/0.jpg","sha256":"6b824072dbeba8f6bf'
        b'87ca431e03cac747341a028b8718d598d7a5b814f2a95e"}],"device_id":"pixel-6","ende'
        b'd_at_ms":60000,"frame_rate_fps":10,"package_id":"0a0a0a0a-0000-4000-8000-0000'
        b'0000000a","schema_version":1,"sensor_rate_hz":30,"started_at_ms":0}},{"commit'
        b'_seq":2,"committed_at_ms":0,"manifest":{"blobs":[],"device_id":"pixel-6","end'
        b'ed_at_ms":60000,"frame_rate_fps":10,"package_id":"0a0a0a0a-0000-4000-8000-000'
        b'0000000ff","schema_version":1,"sensor_rate_hz":30,"started_at_ms":0}}]\n',
        False,
    ),
    "list since 0": (
        "HTTP/1.1 200 OK",
        ("Content-Type: application/json", "Content-Length: 711"),
        b'[{"commit_seq":1,"committed_at_ms":0,"manifest":{"blobs":[{"bytes":36,"name":'
        b'"sensors.jsonl","sha256":"9c5e7a5c5fb8233eb77c4b5c7515450400e729c7338abca7578'
        b'f9552f0ad9863"},{"bytes":7,"name":"frames/0.jpg","sha256":"6b824072dbeba8f6bf'
        b'87ca431e03cac747341a028b8718d598d7a5b814f2a95e"}],"device_id":"pixel-6","ende'
        b'd_at_ms":60000,"frame_rate_fps":10,"package_id":"0a0a0a0a-0000-4000-8000-0000'
        b'0000000a","schema_version":1,"sensor_rate_hz":30,"started_at_ms":0}},{"commit'
        b'_seq":2,"committed_at_ms":0,"manifest":{"blobs":[],"device_id":"pixel-6","end'
        b'ed_at_ms":60000,"frame_rate_fps":10,"package_id":"0a0a0a0a-0000-4000-8000-000'
        b'0000000ff","schema_version":1,"sensor_rate_hz":30,"started_at_ms":0}}]\n',
        False,
    ),
    "list since -3": (
        "HTTP/1.1 200 OK",
        ("Content-Type: application/json", "Content-Length: 711"),
        b'[{"commit_seq":1,"committed_at_ms":0,"manifest":{"blobs":[{"bytes":36,"name":'
        b'"sensors.jsonl","sha256":"9c5e7a5c5fb8233eb77c4b5c7515450400e729c7338abca7578'
        b'f9552f0ad9863"},{"bytes":7,"name":"frames/0.jpg","sha256":"6b824072dbeba8f6bf'
        b'87ca431e03cac747341a028b8718d598d7a5b814f2a95e"}],"device_id":"pixel-6","ende'
        b'd_at_ms":60000,"frame_rate_fps":10,"package_id":"0a0a0a0a-0000-4000-8000-0000'
        b'0000000a","schema_version":1,"sensor_rate_hz":30,"started_at_ms":0}},{"commit'
        b'_seq":2,"committed_at_ms":0,"manifest":{"blobs":[],"device_id":"pixel-6","end'
        b'ed_at_ms":60000,"frame_rate_fps":10,"package_id":"0a0a0a0a-0000-4000-8000-000'
        b'0000000ff","schema_version":1,"sensor_rate_hz":30,"started_at_ms":0}}]\n',
        False,
    ),
    "list since 1": (
        "HTTP/1.1 200 OK",
        ("Content-Type: application/json", "Content-Length: 246"),
        b'[{"commit_seq":2,"committed_at_ms":0,"manifest":{"blobs":[],"device_id":"pixe'
        b'l-6","ended_at_ms":60000,"frame_rate_fps":10,"package_id":"0a0a0a0a-0000-4000'
        b'-8000-0000000000ff","schema_version":1,"sensor_rate_hz":30,"started_at_ms":0}'
        b'}]\n',
        False,
    ),
    "list since 2": (
        "HTTP/1.1 200 OK",
        ("Content-Type: application/json", "Content-Length: 3"),
        b'[]\n',
        False,
    ),
    "list since 99": (
        "HTTP/1.1 200 OK",
        ("Content-Type: application/json", "Content-Length: 3"),
        b'[]\n',
        False,
    ),
    "list since abc": (
        "HTTP/1.1 400 Bad Request",
        ("Content-Type: application/json", "Content-Length: 41"),
        b'{"error":"since_seq must be an integer"}\n',
        False,
    ),
    "stream from abc": (
        "HTTP/1.1 400 Bad Request",
        ("Content-Type: application/json", "Content-Length: 40"),
        b'{"error":"from_seq must be an integer"}\n',
        False,
    ),
    "stream from 0": (
        "HTTP/1.1 200 OK",
        ("Content-Type: text/event-stream", "Cache-Control: no-cache", "Connection: close"),
        b'data: {"commit_seq":1,"committed_at_ms":0,"package_id":"0a0a0a0a-0000-4000-80'
        b'00-00000000000a"}\n\ndata: {"commit_seq":2,"committed_at_ms":0,"package_id":"'
        b'0a0a0a0a-0000-4000-8000-0000000000ff"}\n\n',
        None,
    ),
    "stream from 1": (
        "HTTP/1.1 200 OK",
        ("Content-Type: text/event-stream", "Cache-Control: no-cache", "Connection: close"),
        b'data: {"commit_seq":2,"committed_at_ms":0,"package_id":"0a0a0a0a-0000-4000-80'
        b'00-0000000000ff"}\n\n',
        None,
    ),
    "get unknown endpoint": (
        "HTTP/1.1 404 Not Found",
        ("Content-Type: application/json", "Content-Length: 29"),
        b'{"error":"no_such_endpoint"}\n',
        False,
    ),
    "post unknown endpoint": (
        "HTTP/1.1 404 Not Found",
        ("Content-Type: application/json", "Content-Length: 29"),
        b'{"error":"no_such_endpoint"}\n',
        False,
    ),
    "put unknown endpoint": (
        "HTTP/1.1 404 Not Found",
        ("Content-Type: application/json", "Content-Length: 29"),
        b'{"error":"no_such_endpoint"}\n',
        False,
    ),
    "get commit": (
        "HTTP/1.1 404 Not Found",
        ("Content-Type: application/json", "Content-Length: 29"),
        b'{"error":"no_such_endpoint"}\n',
        False,
    ),
}


def raw_exchange(server, request: bytes, events: int | None = None):
    """Send one raw request and return its reply as (status line, headers
    other than Date and Server, body with ``committed_at_ms`` zeroed,
    whether the server then closed the connection).

    The connection's fate is read from a probe request sent after the
    reply. A stream reply is read up to its ``events``-th event and not
    probed: its own ``Connection: close`` header settles that.
    """
    with socket.create_connection((server.host, server.port), timeout=5) as s:
        s.sendall(request)
        reply = b""
        while b"\r\n\r\n" not in reply:
            chunk = s.recv(4096)
            assert chunk, f"connection closed before a reply: {reply!r}"
            reply += chunk
        head, body = reply.split(b"\r\n\r\n", 1)
        status, *lines = head.decode("latin-1").split("\r\n")
        headers = tuple(h for h in lines if h.split(":", 1)[0] not in ("Date", "Server"))
        lengths = [int(h.split(":", 1)[1]) for h in lines if h.startswith("Content-Length:")]
        length = 0 if request.startswith(b"HEAD ") or not lengths else lengths[0]
        while (len(body) < length) if events is None else (body.count(b"\n\n") < events):
            chunk = s.recv(4096)
            assert chunk, f"connection closed inside the body: {body!r}"
            body += chunk
        closed = None
        if events is None:
            try:
                s.sendall(_PROBE)
                probe = s.recv(4096)
                closed = not probe
                while probe:  # the probe asks the server to close; read to the end
                    probe = s.recv(4096)
            except (BrokenPipeError, ConnectionResetError):
                closed = True
    return status, headers, re.sub(rb'"committed_at_ms":\d+', b'"committed_at_ms":0', body), closed


def test_wire_replies_are_pinned(server):
    got = {
        label: raw_exchange(server, request, events)
        for label, request, events in WIRE_STEPS
    }
    assert list(WIRE_REPLIES) == [label for label, _, _ in WIRE_STEPS]
    mismatched = {
        label: {"got": got[label], "expected": WIRE_REPLIES[label]}
        for label in got
        if got[label] != WIRE_REPLIES[label]
    }
    assert not mismatched
