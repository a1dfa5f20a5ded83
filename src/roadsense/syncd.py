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

Durability: blob chunks are fsync'd on append, before the offset moves
and the 204 goes out, and offsets are recovered from file sizes at boot;
commits append to an fsync'd JSONL log replayed at boot, so a restart
loses no committed package and no durable offset.
A crash in mid-append can leave an unterminated last line in the log;
that commit was never acknowledged, so boot truncates it. A corrupt line
that is terminated still refuses to boot.

Refusals: a refused request raises ``RequestError`` (or a subclass), and
that exception is the reply: status, ``{"error": ...}`` body and headers.
The one dispatch sends it, so endpoint bodies hold only the success path.
A request that declares a body no endpoint reads (a GET, a HEAD, an
unknown route) gets its one reply and then the connection ends, so the
body's bytes are never parsed as a next request.

Request heads: ``SyncHandler.parse_request`` keeps the stdlib's
request-line rules and replies (400 for bad syntax or an unreadable
version, 505 for HTTP/2 and later, HTTP/0.9 GETs, ``//`` collapsed to
``/``) and reads the header lines itself with ``read_fields``, which the
client uses for reply heads too. Unlike the stdlib, it starts every refusal
with a status line, also when the request line reads as HTTP/0.9. The
header rules:

- the limits are the stdlib's: a line over 65,536 bytes gets 431 "Line too
  long", and more than 100 lines with the blank one that ends the head get
  431 "Too many headers";
- names are matched without regard to case, and the first occurrence of a
  name wins, as ``HTTPMessage.get`` does; values lose surrounding blanks;
- differing ``Content-Length`` values get 400 and the connection ends (RFC
  9112 section 6.3), and ``Content-Length`` and ``Upload-Offset`` are
  ASCII digits alone, not what ``int()`` takes (a sign, ``_``, blanks);
- an obs-fold continuation line (RFC 9112 section 5.2), a line without a
  colon and a name that is not a token get 400 "Bad header line", and the
  connection ends (the stdlib dropped every header after such a line);
- ``Connection`` and ``Expect: 100-continue`` work as in the stdlib.

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
_OFFSET_FIELD = OFFSET_HEADER.lower()  # its key in a request's fields
SUBSCRIBER_QUEUE_SIZE = 256  # commits a subscriber may lag before it is dropped

MAX_LINE_BYTES = 65536  # longest head line, as in the stdlib's http modules
MAX_HEAD_LINES = 100  # most lines after the start line, the blank one included

_FIELD_NAME = re.compile(rb"[!#$%&'*+.^_`|~0-9A-Za-z-]+")  # an RFC 9110 token
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
    """One manifest blob on the server: its entry, its file, its durable
    offset and the lock that serializes appends to it. ``new_dir`` names
    the directory that the first append of a nested name makes."""

    entry: BlobEntry
    path: str
    offset: int = 0
    new_dir: str | None = None
    lock: threading.Lock = field(default_factory=threading.Lock)


class ServerPackage:
    """A registered manifest, one ``_Blob`` per manifest blob, and the
    commit event once the package is committed."""

    def __init__(self, manifest: PackageManifest, pkg_dir: str):
        self.manifest = manifest
        self.blobs = {}
        for b in manifest.blobs:
            blob = self.blobs[b.name] = _Blob(b, os.path.join(pkg_dir, b.name))
            if "/" in b.name:
                blob.new_dir = os.path.dirname(blob.path)
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
            pkg = ServerPackage(parse_manifest(manifest_path.read_bytes()), str(child))
            self.packages[pkg.manifest.package_id] = pkg
            for blob in pkg.blobs.values():
                blob.offset = os.path.getsize(blob.path) if os.path.isfile(blob.path) else 0
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
            pkg = ServerPackage(manifest, str(pkg_dir))
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
            if blob.new_dir is not None:
                os.makedirs(blob.new_dir, exist_ok=True)
                blob.new_dir = None
            fd = os.open(blob.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
            try:
                view = memoryview(data)
                while view:
                    view = view[os.write(fd, view):]
                os.fsync(fd)  # durable before the offset moves and the 204
            finally:
                os.close(fd)
            blob.offset = end
            return end

    def read_blob(self, package_id: str, name: str) -> bytes:
        path = self._get_package(package_id).blob(name).path  # NotFound for an unknown blob
        return Path(path).read_bytes() if os.path.isfile(path) else b""

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
            if sha256_file(blob.path) != blob.entry.sha256:
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


class HeadError(Exception):
    """A head broke the header rules. ``status`` and ``reason`` are the
    reply the service sends for it, and the message explains it."""

    def __init__(self, status: int, reason: str, explain: str):
        super().__init__(explain)
        self.status = status
        self.reason = reason


def read_fields(rfile) -> dict[str, str]:
    """Read the header lines of a request or reply head from ``rfile``, up
    to and including the blank line that ends it.

    Returns the fields by lowercased name; the first occurrence of a name
    wins, as ``HTTPMessage.get`` does. Values lose surrounding blanks.
    """
    fields: dict[str, str] = {}
    for _ in range(MAX_HEAD_LINES):
        line = rfile.readline(MAX_LINE_BYTES + 1)
        if len(line) > MAX_LINE_BYTES:
            raise HeadError(
                431, "Line too long",
                f"got more than {MAX_LINE_BYTES} bytes when reading header line",
            )
        if line in (b"\r\n", b"\n", b""):
            return fields
        name, colon, value = line.partition(b":")
        # an obs-fold line starts with a blank, so its "name" is no token
        if not colon or not _FIELD_NAME.fullmatch(name):
            raise HeadError(400, "Bad header line", f"bad header line {line[:64]!r}")
        key = name.decode("ascii").lower()
        value = value.strip(b" \t\r\n").decode("iso-8859-1")
        if key not in fields:
            fields[key] = value
        elif key == "content-length" and value != fields[key]:
            raise HeadError(400, "Bad Content-Length", f"{fields[key]!r} and {value!r} differ")
    raise HeadError(431, "Too many headers", f"got more than {MAX_HEAD_LINES} headers")


def parse_digits(text: str) -> int:
    """The value of a field that is 1*DIGIT (RFC 9110), or -1 for any other text."""
    try:
        return int(text) if text.isascii() and text.isdigit() else -1
    except ValueError:  # more digits than int() converts
        return -1


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
            if log.isEnabledFor(logging.DEBUG):
                log.debug("%s %s", self.address_string(), fmt % args)

        def handle(self):
            try:
                super().handle()
            except (BrokenPipeError, ConnectionResetError) as e:
                # the peer left before its reply, often a refusal, was written
                log.debug("%s left: %s", self.address_string(), e)

        def _refuse(self, code: int, message: str, explain: str | None = None) -> bool:
            # send_error writes no status line while request_version reads HTTP/0.9
            self.request_version = self.protocol_version
            self.send_error(code, message, explain)
            return False

        def parse_request(self) -> bool:
            """The stdlib's request-line rules and replies, then the head
            through ``read_fields``; see the module docstring."""
            self.command = None  # set in case of an error on the request line
            self.request_version = version = self.default_request_version
            self.close_connection = True
            requestline = str(self.raw_requestline, "iso-8859-1").rstrip("\r\n")
            self.requestline = requestline
            words = requestline.split()
            if not words:
                return False
            if len(words) >= 3:
                version = words[-1]
                try:
                    if not version.startswith("HTTP/"):
                        raise ValueError
                    base_version = version.split("/", 1)[1]
                    parts = base_version.split(".")
                    if len(parts) != 2 or not all(p.isdigit() and len(p) <= 10 for p in parts):
                        raise ValueError
                    number = int(parts[0]), int(parts[1])
                except (ValueError, IndexError):
                    return self._refuse(400, f"Bad request version ({version!r})")
                if number >= (1, 1):
                    self.close_connection = False
                if number >= (2, 0):
                    return self._refuse(505, f"Invalid HTTP version ({base_version})")
                self.request_version = version
            if not 2 <= len(words) <= 3:
                return self._refuse(400, f"Bad request syntax ({requestline!r})")
            command, path = words[:2]
            if len(words) == 2:  # HTTP/0.9
                self.close_connection = True
                if command != "GET":
                    return self._refuse(400, f"Bad HTTP/0.9 request type ({command!r})")
            if path.startswith("//"):  # no open redirect through "//host/path"
                path = "/" + path.lstrip("/")
            self.command, self.path = command, path
            try:
                self.headers = read_fields(self.rfile)
            except HeadError as e:
                return self._refuse(e.status, e.reason, str(e))
            conntype = self.headers.get("connection", "").lower()
            if conntype == "close":
                self.close_connection = True
            elif conntype == "keep-alive":
                self.close_connection = False
            if (
                self.headers.get("expect", "").lower() == "100-continue"
                and self.request_version >= "HTTP/1.1"
            ):
                return self.handle_expect_100()
            return True

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
            length = self.headers.get("content-length")
            if length is None:
                raise RequestError(411, "length_required")
            n = parse_digits(length)
            if n < 0:
                # the body's extent is unknown, so the connection cannot be reused
                raise RequestError(400, "Content-Length must be a nonnegative integer", close=True)
            if n > max_body_bytes:
                raise RequestError(413, "body_too_large", close=True, max_bytes=max_body_bytes)
            body = self.rfile.read(n)
            # a chunked body is not framed by Content-Length: its rest stays unread
            self.unread_body = "transfer-encoding" in self.headers
            return body

        def _query_int(self, name: str) -> int:
            query = dict(urllib.parse.parse_qsl(self.query))
            return _parse_int(query.get(name, "0"), name)

        # -- dispatch -----------------------------------------------------

        def _dispatch(self):
            parts = urllib.parse.urlsplit(self.path)
            self.query = parts.query
            self.unread_body = (
                "transfer-encoding" in self.headers
                or self.headers.get("content-length") not in (None, "0")
            )
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
            finally:
                # a declared body that no endpoint read would be parsed as
                # the next request: end the connection after this reply
                if self.unread_body:
                    self.close_connection = True

        do_GET = do_POST = do_PUT = do_HEAD = _dispatch

        # -- endpoint bodies ----------------------------------------------

        def _create_package(self):
            manifest = _parse_manifest_body(self._read_body())
            status, doc = registry.create_package(manifest)
            self._send_json(status, doc)

        def _put_chunk(self, package_id: str, name: str):
            # the body first: a refused length is answered before a bad offset
            body = self._read_body()
            offset_header = self.headers.get(_OFFSET_FIELD)
            if offset_header is None:
                raise RequestError(400, f"missing {OFFSET_HEADER} header")
            offset = parse_digits(offset_header)
            if offset < 0:
                raise RequestError(400, f"{OFFSET_HEADER} must be an integer")
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
