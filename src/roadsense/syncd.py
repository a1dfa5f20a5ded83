"""Self-hosted sync service: package registry, blob store, and event fan-out.

Plain HTTP/1.1 + JSON + server-sent events; no vendor SDK semantics.

Endpoints:
    POST /v1/packages                      register a manifest, open an upload
    PUT  /v1/packages/{id}/blobs/{name}    append a chunk at the durable offset
    HEAD /v1/packages/{id}/blobs/{name}    read the durable offset (resume)
    GET  /v1/packages/{id}/blobs/{name}    download a blob
    POST /v1/packages/{id}/commit          verify digests, assign commit_seq
    GET  /v1/packages?since_seq=k          committed manifests after k
    GET  /v1/stream?from_seq=k             SSE: replay then live-tail commits

Durability: blob chunks are fsync'd on append and offsets are recovered
from file sizes at boot; commits append to an fsync'd JSONL log replayed
at boot, so a restart loses no committed package and no durable offset.
A crash in mid-append can leave an unterminated last line in the log;
that commit was never acknowledged, so boot truncates it. A corrupt line
that is terminated still refuses to boot.

Latency: the handler turns Nagle's algorithm off (TCP_NODELAY).
``BaseHTTPRequestHandler`` sends the headers and the body of a reply in
two writes; with Nagle on, the body waits for the client's delayed ACK
of the headers, which adds about 40 ms to every reply that has a body.

Delivery is at-least-once: subscribers reconnect with their last seen
commit_seq and dedup by integer comparison. Slow subscribers are dropped
(bounded queues) and pick up via reconnect-replay; broadcast never blocks
ingestion.
"""

from __future__ import annotations

import json
import logging
import os
import queue
import re
import threading
import time
import urllib.parse
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

from .canonical import dumps_canonical
from .errors import ParseError, ValidationError
from .model import PackageManifest, parse_manifest, serialize_manifest
from .package import sha256_file

log = logging.getLogger(__name__)

COMMIT_LOG_NAME = "commits.jsonl"
PACKAGES_DIRNAME = "packages"
OFFSET_HEADER = "Upload-Offset"

_ROUTE_PACKAGES = re.compile(r"^/v1/packages$")
_ROUTE_COMMIT = re.compile(r"^/v1/packages/([^/]+)/commit$")
_ROUTE_BLOB = re.compile(r"^/v1/packages/([^/]+)/blobs/(.+)$")
_ROUTE_STREAM = re.compile(r"^/v1/stream$")


@dataclass(frozen=True)
class EventRecord:
    commit_seq: int
    package_id: str
    committed_at_ms: int

    def to_doc(self) -> dict:
        return {
            "commit_seq": self.commit_seq,
            "package_id": self.package_id,
            "committed_at_ms": self.committed_at_ms,
        }


@dataclass
class ServerPackage:
    manifest: PackageManifest
    committed: bool = False
    commit_seq: int | None = None
    committed_at_ms: int | None = None
    listing_doc: dict | None = None  # this package's item in committed_since

    def mark_committed(self, event: EventRecord) -> None:
        self.committed = True
        self.commit_seq = event.commit_seq
        self.committed_at_ms = event.committed_at_ms
        self.listing_doc = {
            "commit_seq": event.commit_seq,
            "committed_at_ms": event.committed_at_ms,
            "manifest": json.loads(serialize_manifest(self.manifest)),
        }

    def commit_event(self) -> EventRecord:
        return EventRecord(self.commit_seq, self.manifest.package_id, self.committed_at_ms)


class Registry:
    """Package registry plus blob store rooted at a data directory.

    All mutation happens under one lock except blob appends, which take a
    per-blob lock so parallel blobs and packages do not serialize behind
    each other.
    """

    def __init__(self, data_dir: str | os.PathLike):
        self.data_dir = Path(data_dir)
        self.packages_dir = self.data_dir / PACKAGES_DIRNAME
        self.packages_dir.mkdir(parents=True, exist_ok=True)
        self.commit_log_path = self.data_dir / COMMIT_LOG_NAME
        self.lock = threading.RLock()
        self.packages: dict[str, ServerPackage] = {}
        self.events: list[EventRecord] = []
        self._blob_locks: dict[tuple[str, str], threading.Lock] = {}
        self._blob_offsets: dict[tuple[str, str], int] = {}
        self._replay()

    def _replay(self) -> None:
        for child in sorted(self.packages_dir.iterdir()) if self.packages_dir.is_dir() else []:
            manifest_path = child / "manifest.json"
            if not child.is_dir() or not manifest_path.is_file():
                continue
            manifest = parse_manifest(manifest_path.read_bytes())
            self.packages[manifest.package_id] = ServerPackage(manifest=manifest)
            for blob in manifest.blobs:
                path = child / blob.name
                size = path.stat().st_size if path.is_file() else 0
                self._blob_offsets[(manifest.package_id, blob.name)] = size
        for lineno, line in enumerate(self._read_commit_log(), start=1):
            line = line.strip()
            if not line:
                continue
            try:
                doc = json.loads(line)
                event = EventRecord(
                    commit_seq=doc["commit_seq"],
                    package_id=doc["package_id"],
                    committed_at_ms=doc["committed_at_ms"],
                )
            except (ValueError, TypeError, KeyError) as e:
                raise RuntimeError(f"commit log line {lineno} is corrupt: {e}") from e
            pkg = self.packages.get(event.package_id)
            if pkg is None:
                raise RuntimeError(
                    f"commit log references missing package {event.package_id}"
                )
            pkg.mark_committed(event)
            self.events.append(event)
        self.events.sort(key=lambda e: e.commit_seq)
        for i, e in enumerate(self.events, start=1):
            if e.commit_seq != i:
                raise RuntimeError(f"commit log not dense at seq {e.commit_seq}")

    def _read_commit_log(self) -> list[bytes]:
        """The log's terminated lines; an unterminated tail is truncated away."""
        if not self.commit_log_path.is_file():
            return []
        data = self.commit_log_path.read_bytes()
        end = data.rfind(b"\n") + 1
        if end < len(data):
            log.warning("truncating torn commit log tail (%d bytes)", len(data) - end)
            with open(self.commit_log_path, "r+b") as f:
                f.truncate(end)
                f.flush()
                os.fsync(f.fileno())
        return data[:end].splitlines()

    # -- registration ----------------------------------------------------

    def create_package(self, manifest: PackageManifest) -> tuple[int, dict]:
        """Returns (http_status, session doc): 201 fresh, 200 idempotent
        re-POST, raises Conflict on a different manifest for the same id."""
        with self.lock:
            existing = self.packages.get(manifest.package_id)
            if existing is not None:
                if existing.manifest != manifest:
                    raise Conflict("manifest differs from the registered one")
                return 200, self._session_doc(existing)
            pkg_dir = self.packages_dir / manifest.package_id
            pkg_dir.mkdir(parents=True, exist_ok=True)
            # write-temp-then-rename: a crash mid-write leaves at most a
            # stray manifest.json.tmp, which boot ignores and a re-POST
            # overwrites, never a torn manifest.json that blocks boot
            data = serialize_manifest(manifest) + b"\n"
            tmp = pkg_dir / "manifest.json.tmp"
            with open(tmp, "wb") as f:
                f.write(data)
                f.flush()
                os.fsync(f.fileno())
            os.replace(tmp, pkg_dir / "manifest.json")
            pkg = ServerPackage(manifest=manifest)
            self.packages[manifest.package_id] = pkg
            for blob in manifest.blobs:
                self._blob_offsets.setdefault((manifest.package_id, blob.name), 0)
            return 201, self._session_doc(pkg)

    def _session_doc(self, pkg: ServerPackage) -> dict:
        return {
            "package_id": pkg.manifest.package_id,
            "status": "committed" if pkg.committed else "open",
            "commit_seq": pkg.commit_seq,
            "blobs": {
                b.name: self._blob_offsets.get((pkg.manifest.package_id, b.name), 0)
                for b in pkg.manifest.blobs
            },
        }

    # -- blobs ------------------------------------------------------------

    def _get_package(self, package_id: str) -> ServerPackage:
        with self.lock:
            pkg = self.packages.get(package_id)
        if pkg is None:
            raise NotFound(f"unknown package {package_id}")
        return pkg

    def _blob_lock(self, key: tuple[str, str]) -> threading.Lock:
        with self.lock:
            return self._blob_locks.setdefault(key, threading.Lock())

    def blob_offset(self, package_id: str, name: str) -> int:
        pkg = self._get_package(package_id)
        if pkg.manifest.blob(name) is None:
            raise NotFound(f"unknown blob {name!r}")
        return self._blob_offsets.get((package_id, name), 0)

    def append_chunk(self, package_id: str, name: str, offset: int, data: bytes) -> int:
        """Append a chunk starting exactly at the durable offset.

        A chunk that is already entirely durable is an idempotent no-op.
        A gap or partial overlap raises OffsetError carrying the durable
        offset. Returns the new durable offset.
        """
        pkg = self._get_package(package_id)
        blob = pkg.manifest.blob(name)
        if blob is None:
            raise NotFound(f"unknown blob {name!r}")
        if pkg.committed:
            raise Conflict("package already committed")
        key = (package_id, name)
        with self._blob_lock(key):
            durable = self._blob_offsets.get(key, 0)
            end = offset + len(data)
            if end <= durable:
                return durable  # already durable; replay is a no-op
            if offset != durable:
                raise OffsetError(durable)
            if end > blob.bytes:
                raise OffsetError(durable, detail=f"chunk exceeds declared size {blob.bytes}")
            path = self.packages_dir / package_id / name
            path.parent.mkdir(parents=True, exist_ok=True)
            with open(path, "ab") as f:
                f.write(data)
                f.flush()
                os.fsync(f.fileno())
            self._blob_offsets[key] = end
            return end

    def read_blob(self, package_id: str, name: str) -> bytes:
        pkg = self._get_package(package_id)
        if pkg.manifest.blob(name) is None:
            raise NotFound(f"unknown blob {name!r}")
        path = self.packages_dir / package_id / name
        if not path.is_file():
            return b""
        return path.read_bytes()

    # -- commit -----------------------------------------------------------

    def commit(self, package_id: str) -> tuple[EventRecord, bool]:
        """Verify and commit; idempotent. Returns (event, newly_committed).

        The digests are checked outside the registry lock, so a large
        commit does not stall uploads to other packages. A complete blob
        takes no more appends, so the hashed bytes are the committed ones;
        a concurrent commit of the same package is caught by the second
        ``committed`` check.
        """
        pkg = self._get_package(package_id)
        with self.lock:
            if pkg.committed:
                return pkg.commit_event(), False
            incomplete = [
                b.name
                for b in pkg.manifest.blobs
                if self._blob_offsets.get((package_id, b.name), 0) != b.bytes
            ]
            if incomplete:
                raise Conflict(f"blobs incomplete: {', '.join(incomplete)}", blobs=incomplete)
        for b in pkg.manifest.blobs:
            if b.bytes == 0:
                continue
            path = self.packages_dir / package_id / b.name
            if sha256_file(path) != b.sha256:
                raise DigestMismatch(b.name)
        with self.lock:
            if pkg.committed:
                return pkg.commit_event(), False
            seq = len(self.events) + 1
            event = EventRecord(
                commit_seq=seq,
                package_id=package_id,
                committed_at_ms=int(time.time() * 1000),
            )
            with open(self.commit_log_path, "ab") as f:
                f.write(dumps_canonical(event.to_doc()) + b"\n")
                f.flush()
                os.fsync(f.fileno())
            pkg.mark_committed(event)
            self.events.append(event)
            return event, True

    def committed_since(self, since_seq: int) -> list[dict]:
        """Listing docs of the commits after ``since_seq``, in commit order.

        Sequence numbers are dense from 1, so commit ``k`` is ``events[k - 1]``.
        The docs are shared with later calls; callers must not mutate them.
        """
        with self.lock:
            return [
                self.packages[e.package_id].listing_doc
                for e in self.events[max(since_seq, 0):]
            ]

    def snapshot_events(self) -> list[EventRecord]:
        with self.lock:
            return list(self.events)


class NotFound(Exception):
    pass


class Conflict(Exception):
    def __init__(self, message: str, blobs: list[str] | None = None):
        super().__init__(message)
        self.blobs = blobs or []


class DigestMismatch(Exception):
    def __init__(self, blob: str):
        super().__init__(f"sha256 mismatch for blob {blob!r}")
        self.blob = blob


class OffsetError(Exception):
    def __init__(self, expected: int, detail: str | None = None):
        super().__init__(detail or f"expected offset {expected}")
        self.expected = expected


class _Subscriber:
    __slots__ = ("queue", "dropped")

    def __init__(self, maxsize: int):
        self.queue: queue.Queue = queue.Queue(maxsize=maxsize)
        self.dropped = False


class EventHub:
    """Fan-out of commit events to SSE subscribers.

    Publishing never blocks: a subscriber whose queue is full is marked
    dropped and its connection closed; it recovers by reconnecting with
    its last seen seq.
    """

    def __init__(self, queue_size: int = 256):
        self.lock = threading.Lock()
        self.queue_size = queue_size
        self._subs: set[_Subscriber] = set()

    def register(self) -> _Subscriber:
        sub = _Subscriber(self.queue_size)
        with self.lock:
            self._subs.add(sub)
        return sub

    def unregister(self, sub: _Subscriber) -> None:
        with self.lock:
            self._subs.discard(sub)

    def publish(self, event: EventRecord) -> None:
        with self.lock:
            subs = list(self._subs)
        for sub in subs:
            try:
                sub.queue.put_nowait(event)
            except queue.Full:
                sub.dropped = True

    def close_all(self) -> None:
        with self.lock:
            subs = list(self._subs)
        for sub in subs:
            sub.dropped = True


def _make_handler(registry: Registry, hub: EventHub, stopping: threading.Event, max_body_bytes: int):
    class SyncHandler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        timeout = 60
        disable_nagle_algorithm = True  # see the module docstring

        # -- plumbing -----------------------------------------------------

        def log_message(self, fmt, *args):
            log.debug("%s %s", self.address_string(), fmt % args)

        def _send_body(
            self, status: int, body: bytes, content_type: str, headers: dict | None = None
        ) -> None:
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            for k, v in (headers or {}).items():
                self.send_header(k, str(v))
            self.end_headers()
            self.wfile.write(body)

        def _send_json(self, status: int, doc, headers: dict | None = None) -> None:
            self._send_body(status, dumps_canonical(doc) + b"\n", "application/json", headers)

        def _send_empty(self, status: int, headers: dict | None = None) -> None:
            self.send_response(status)
            for k, v in (headers or {}).items():
                self.send_header(k, str(v))
            self.send_header("Content-Length", "0")
            self.end_headers()

        def _read_body(self) -> bytes | None:
            length = self.headers.get("Content-Length")
            if length is None:
                self._send_json(411, {"error": "length_required"})
                return None
            try:
                n = int(length)
            except ValueError:
                n = -1
            if n < 0:
                # the body's extent is unknown, so the connection cannot be reused
                self.close_connection = True
                self._send_json(400, {"error": "Content-Length must be a nonnegative integer"})
                return None
            if n > max_body_bytes:
                self.close_connection = True
                self._send_json(413, {"error": "body_too_large", "max_bytes": max_body_bytes})
                return None
            return self.rfile.read(n)

        def _query(self) -> dict:
            parsed = urllib.parse.urlsplit(self.path)
            return dict(urllib.parse.parse_qsl(parsed.query))

        @property
        def route(self) -> str:
            return urllib.parse.urlsplit(self.path).path

        # -- methods ------------------------------------------------------

        def do_POST(self):
            path = self.route
            if _ROUTE_PACKAGES.match(path):
                return self._create_package()
            m = _ROUTE_COMMIT.match(path)
            if m:
                return self._commit(urllib.parse.unquote(m.group(1)))
            self._send_json(404, {"error": "no_such_endpoint"})

        def do_PUT(self):
            m = _ROUTE_BLOB.match(self.route)
            if not m:
                return self._send_json(404, {"error": "no_such_endpoint"})
            self._put_chunk(
                urllib.parse.unquote(m.group(1)), urllib.parse.unquote(m.group(2))
            )

        def do_HEAD(self):
            m = _ROUTE_BLOB.match(self.route)
            if not m:
                return self._send_empty(404)
            try:
                offset = registry.blob_offset(
                    urllib.parse.unquote(m.group(1)), urllib.parse.unquote(m.group(2))
                )
            except NotFound:
                return self._send_empty(404)
            self._send_empty(200, {OFFSET_HEADER: offset})

        def do_GET(self):
            path = self.route
            if _ROUTE_STREAM.match(path):
                return self._stream()
            if _ROUTE_PACKAGES.match(path):
                try:
                    since = int(self._query().get("since_seq", "0"))
                except ValueError:
                    return self._send_json(400, {"error": "since_seq must be an integer"})
                return self._send_json(200, registry.committed_since(since))
            m = _ROUTE_BLOB.match(path)
            if m:
                try:
                    data = registry.read_blob(
                        urllib.parse.unquote(m.group(1)), urllib.parse.unquote(m.group(2))
                    )
                except NotFound as e:
                    return self._send_json(404, {"error": str(e)})
                return self._send_body(200, data, "application/octet-stream")
            self._send_json(404, {"error": "no_such_endpoint"})

        # -- endpoint bodies ----------------------------------------------

        def _create_package(self):
            body = self._read_body()
            if body is None:
                return
            try:
                manifest = parse_manifest(body)
            except ValidationError as e:
                return self._send_json(400, {"error": str(e), "field": e.field})
            except ParseError as e:
                return self._send_json(400, {"error": str(e), "offset": e.offset})
            try:
                status, doc = registry.create_package(manifest)
            except Conflict as e:
                return self._send_json(409, {"error": str(e)})
            self._send_json(status, doc)

        def _put_chunk(self, package_id: str, name: str):
            # read the body first: _read_body answers a refused length itself
            body = self._read_body()
            if body is None:
                return
            offset_header = self.headers.get(OFFSET_HEADER)
            if offset_header is None:
                return self._send_json(400, {"error": f"missing {OFFSET_HEADER} header"})
            try:
                offset = int(offset_header)
            except ValueError:
                return self._send_json(400, {"error": f"{OFFSET_HEADER} must be an integer"})
            try:
                new_offset = registry.append_chunk(package_id, name, offset, body)
            except NotFound as e:
                return self._send_json(404, {"error": str(e)})
            except Conflict as e:
                return self._send_json(409, {"error": str(e)})
            except OffsetError as e:
                return self._send_json(
                    416,
                    {"error": str(e), "expected_offset": e.expected},
                    {OFFSET_HEADER: e.expected},
                )
            self._send_empty(204, {OFFSET_HEADER: new_offset})

        def _commit(self, package_id: str):
            body = self._read_body()
            if body is None:
                return
            try:
                event, newly = registry.commit(package_id)
            except NotFound as e:
                return self._send_json(404, {"error": str(e)})
            except Conflict as e:
                return self._send_json(409, {"error": str(e), "blobs": e.blobs})
            except DigestMismatch as e:
                return self._send_json(422, {"error": str(e), "blob": e.blob})
            if newly:
                hub.publish(event)
            self._send_json(200, event.to_doc())

        def _stream(self):
            try:
                from_seq = int(self._query().get("from_seq", "0"))
            except ValueError:
                return self._send_json(400, {"error": "from_seq must be an integer"})
            sub = hub.register()
            replay = registry.snapshot_events()  # after registering: no gap
            self.send_response(200)
            self.send_header("Content-Type", "text/event-stream")
            self.send_header("Cache-Control", "no-cache")
            self.send_header("Connection", "close")
            self.end_headers()
            self.close_connection = True
            last = from_seq
            try:
                for event in replay:
                    if event.commit_seq > last:
                        self._write_event(event)
                        last = event.commit_seq
                while not stopping.is_set() and not sub.dropped:
                    try:
                        event = sub.queue.get(timeout=0.2)
                    except queue.Empty:
                        continue
                    if event.commit_seq > last:
                        self._write_event(event)
                        last = event.commit_seq
            except (BrokenPipeError, ConnectionResetError):
                pass
            finally:
                hub.unregister(sub)

        def _write_event(self, event: EventRecord) -> None:
            self.wfile.write(b"data: " + dumps_canonical(event.to_doc()) + b"\n\n")
            self.wfile.flush()

    return SyncHandler


class SyncServer:
    """Embeddable sync service; also backs the ``serve`` CLI command."""

    def __init__(
        self,
        data_dir: str | os.PathLike,
        host: str = "127.0.0.1",
        port: int = 0,
        max_body_mb: int = 64,
    ):
        self.registry = Registry(data_dir)
        self.hub = EventHub()
        self.stopping = threading.Event()
        handler = _make_handler(
            self.registry, self.hub, self.stopping, max_body_mb * 1024 * 1024
        )
        self._httpd = ThreadingHTTPServer((host, port), handler)
        self._httpd.daemon_threads = True
        self._thread: threading.Thread | None = None

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def base_url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "SyncServer":
        self._thread = threading.Thread(target=self._httpd.serve_forever, daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        self.stopping.set()
        self.hub.close_all()
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=10)
            self._thread = None

    def serve_forever(self) -> None:
        try:
            self._httpd.serve_forever()
        except KeyboardInterrupt:
            pass
        finally:
            self.stop()
