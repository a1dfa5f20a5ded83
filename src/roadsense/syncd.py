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

Refusals: a refused request raises ``RequestError`` (or a subclass), and
that exception is the reply: status, ``{"error": ...}`` body and headers.
The one dispatch sends it, so endpoint bodies hold only the success path.

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
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

from .canonical import dumps_canonical
from .errors import ParseError, ValidationError
from .model import BlobEntry, PackageManifest, parse_manifest, serialize_manifest
from .package import sha256_file

log = logging.getLogger(__name__)

COMMIT_LOG_NAME = "commits.jsonl"
PACKAGES_DIRNAME = "packages"
OFFSET_HEADER = "Upload-Offset"
SUBSCRIBER_QUEUE_SIZE = 256  # commits a subscriber may lag before it is dropped

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


@dataclass(eq=False, slots=True)
class _Blob:
    """One manifest blob on the server: its entry, its durable offset and
    the lock that serializes appends to it."""

    entry: BlobEntry
    offset: int = 0
    lock: threading.Lock = field(default_factory=threading.Lock)


class ServerPackage:
    """A registered manifest, one ``_Blob`` per manifest blob, and the
    commit event once the package is committed."""

    def __init__(self, manifest: PackageManifest):
        self.manifest = manifest
        self.blobs = {b.name: _Blob(b) for b in manifest.blobs}
        self.event: EventRecord | None = None
        self.listing_doc: dict | None = None  # this package's item in committed_since

    @property
    def committed(self) -> bool:
        return self.event is not None

    def blob(self, name: str) -> _Blob:
        blob = self.blobs.get(name)
        if blob is None:
            raise NotFound(f"unknown blob {name!r}")
        return blob

    def mark_committed(self, event: EventRecord) -> None:
        self.event = event
        self.listing_doc = {
            "commit_seq": event.commit_seq,
            "committed_at_ms": event.committed_at_ms,
            "manifest": json.loads(serialize_manifest(self.manifest)),
        }


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
        self._replay()

    def _replay(self) -> None:
        for child in sorted(self.packages_dir.iterdir()) if self.packages_dir.is_dir() else []:
            manifest_path = child / "manifest.json"
            if not child.is_dir() or not manifest_path.is_file():
                continue
            pkg = ServerPackage(parse_manifest(manifest_path.read_bytes()))
            self.packages[pkg.manifest.package_id] = pkg
            for name, blob in pkg.blobs.items():
                path = child / name
                blob.offset = path.stat().st_size if path.is_file() else 0
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
            pkg = ServerPackage(manifest)
            self.packages[manifest.package_id] = pkg
            return 201, self._session_doc(pkg)

    def _session_doc(self, pkg: ServerPackage) -> dict:
        return {
            "package_id": pkg.manifest.package_id,
            "status": "committed" if pkg.committed else "open",
            "commit_seq": pkg.event.commit_seq if pkg.event else None,
            "blobs": {name: blob.offset for name, blob in pkg.blobs.items()},
        }

    # -- blobs ------------------------------------------------------------

    def _get_package(self, package_id: str) -> ServerPackage:
        with self.lock:
            pkg = self.packages.get(package_id)
        if pkg is None:
            raise NotFound(f"unknown package {package_id}")
        return pkg

    def blob_offset(self, package_id: str, name: str) -> int:
        return self._get_package(package_id).blob(name).offset

    def append_chunk(self, package_id: str, name: str, offset: int, data: bytes) -> int:
        """Append a chunk starting exactly at the durable offset.

        A chunk that is already entirely durable is an idempotent no-op.
        A gap or partial overlap raises OffsetError carrying the durable
        offset. Returns the new durable offset.
        """
        pkg = self._get_package(package_id)
        blob = pkg.blob(name)
        if pkg.committed:
            raise Conflict("package already committed")
        with blob.lock:
            durable = blob.offset
            end = offset + len(data)
            if end <= durable:
                return durable  # already durable; replay is a no-op
            if offset != durable:
                raise OffsetError(durable)
            if end > blob.entry.bytes:
                raise OffsetError(durable, detail=f"chunk exceeds declared size {blob.entry.bytes}")
            path = self.packages_dir / package_id / name
            path.parent.mkdir(parents=True, exist_ok=True)
            with open(path, "ab") as f:
                f.write(data)
                f.flush()
                os.fsync(f.fileno())
            blob.offset = end
            return end

    def read_blob(self, package_id: str, name: str) -> bytes:
        self._get_package(package_id).blob(name)  # NotFound for an unknown blob
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
            if pkg.event is not None:
                return pkg.event, False
            incomplete = [
                name for name, blob in pkg.blobs.items() if blob.offset != blob.entry.bytes
            ]
            if incomplete:
                raise Conflict(f"blobs incomplete: {', '.join(incomplete)}", blobs=incomplete)
        for name, blob in pkg.blobs.items():
            if blob.entry.bytes == 0:
                continue
            if sha256_file(self.packages_dir / package_id / name) != blob.entry.sha256:
                raise DigestMismatch(name)
        with self.lock:
            if pkg.event is not None:
                return pkg.event, False
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


class RequestError(Exception):
    """A refused request, and the reply to it: ``status`` with the JSON body
    ``{"error": message, **fields}`` and ``headers``. ``close`` ends the
    connection after the reply, for a request whose body was not read."""

    def __init__(
        self, status: int, message: str, *, headers: dict | None = None,
        close: bool = False, **fields,
    ):
        super().__init__(message)
        self.status = status
        self.headers = headers
        self.close = close
        self.fields = fields


class NotFound(RequestError):
    def __init__(self, message: str):
        super().__init__(404, message)


class Conflict(RequestError):
    def __init__(self, message: str, blobs: list[str] | None = None):
        super().__init__(409, message, **({} if blobs is None else {"blobs": blobs}))
        self.blobs = blobs or []


class DigestMismatch(RequestError):
    def __init__(self, blob: str):
        super().__init__(422, f"sha256 mismatch for blob {blob!r}", blob=blob)
        self.blob = blob


class OffsetError(RequestError):
    def __init__(self, expected: int, detail: str | None = None):
        super().__init__(
            416, detail or f"expected offset {expected}",
            headers={OFFSET_HEADER: expected}, expected_offset=expected,
        )
        self.expected = expected


def _parse_int(text: str, name: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise RequestError(400, f"{name} must be an integer") from None


def _parse_manifest_body(body: bytes) -> PackageManifest:
    try:
        return parse_manifest(body)
    except ValidationError as e:
        raise RequestError(400, str(e), field=e.field) from e
    except ParseError as e:
        raise RequestError(400, str(e), offset=e.offset) from e


class _Subscriber:
    __slots__ = ("queue", "dropped")

    def __init__(self):
        self.queue: queue.Queue = queue.Queue(maxsize=SUBSCRIBER_QUEUE_SIZE)
        self.dropped = False


class EventHub:
    """Fan-out of commit events to SSE subscribers.

    Publishing never blocks: a subscriber whose queue is full is marked
    dropped and its connection closed; it recovers by reconnecting with
    its last seen seq.
    """

    def __init__(self):
        self.lock = threading.Lock()
        self._subs: set[_Subscriber] = set()

    def register(self) -> _Subscriber:
        sub = _Subscriber()
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

        def _read_body(self) -> bytes:
            length = self.headers.get("Content-Length")
            if length is None:
                raise RequestError(411, "length_required")
            try:
                n = int(length)
            except ValueError:
                n = -1
            if n < 0:
                # the body's extent is unknown, so the connection cannot be reused
                raise RequestError(400, "Content-Length must be a nonnegative integer", close=True)
            if n > max_body_bytes:
                raise RequestError(413, "body_too_large", close=True, max_bytes=max_body_bytes)
            return self.rfile.read(n)

        def _query_int(self, name: str) -> int:
            query = dict(urllib.parse.parse_qsl(self.query))
            return _parse_int(query.get(name, "0"), name)

        # -- dispatch -----------------------------------------------------

        def _dispatch(self):
            parts = urllib.parse.urlsplit(self.path)
            self.query = parts.query
            try:
                for pattern, endpoint in self._ROUTES[self.command]:
                    m = pattern.match(parts.path)
                    if m:
                        return endpoint(self, *map(urllib.parse.unquote, m.groups()))
                raise RequestError(404, "no_such_endpoint")
            except RequestError as e:
                if e.close:
                    self.close_connection = True
                if self.command == "HEAD":
                    self._send_empty(e.status)
                else:
                    self._send_json(e.status, {"error": str(e), **e.fields}, e.headers)

        do_GET = do_POST = do_PUT = do_HEAD = _dispatch

        # -- endpoint bodies ----------------------------------------------

        def _create_package(self):
            manifest = _parse_manifest_body(self._read_body())
            status, doc = registry.create_package(manifest)
            self._send_json(status, doc)

        def _put_chunk(self, package_id: str, name: str):
            # the body first: a refused length is answered before a bad offset
            body = self._read_body()
            offset_header = self.headers.get(OFFSET_HEADER)
            if offset_header is None:
                raise RequestError(400, f"missing {OFFSET_HEADER} header")
            offset = _parse_int(offset_header, OFFSET_HEADER)
            new_offset = registry.append_chunk(package_id, name, offset, body)
            self._send_empty(204, {OFFSET_HEADER: new_offset})

        def _head_blob(self, package_id: str, name: str):
            self._send_empty(200, {OFFSET_HEADER: registry.blob_offset(package_id, name)})

        def _get_blob(self, package_id: str, name: str):
            self._send_body(200, registry.read_blob(package_id, name), "application/octet-stream")

        def _list_packages(self):
            self._send_json(200, registry.committed_since(self._query_int("since_seq")))

        def _commit(self, package_id: str):
            self._read_body()
            event, newly = registry.commit(package_id)
            if newly:
                hub.publish(event)
            self._send_json(200, event.to_doc())

        def _stream(self):
            from_seq = self._query_int("from_seq")
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

        # method -> (path pattern, endpoint) in match order
        _ROUTES = {
            "GET": (
                (_ROUTE_STREAM, _stream),
                (_ROUTE_PACKAGES, _list_packages),
                (_ROUTE_BLOB, _get_blob),
            ),
            "POST": ((_ROUTE_PACKAGES, _create_package), (_ROUTE_COMMIT, _commit)),
            "PUT": ((_ROUTE_BLOB, _put_chunk),),
            "HEAD": ((_ROUTE_BLOB, _head_blob),),
        }

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
        if max_body_mb < 1:
            raise ValueError(f"max_body_mb must be >= 1, got {max_body_mb}")
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
