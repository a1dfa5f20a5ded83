"""HTTP client for the sync service.

Speaks the wire protocol in syncd: JSON over HTTP/1.1 for registration,
chunk upload, commit, and queries, plus a server-sent-event stream for
commit fan-out. Failure mapping follows the upload state machine's
needs: a refused connect raises ServerRejected (the attempt is consumed
and retried with backoff), an error on an established exchange raises
NetworkError (resume is free; offsets are re-asked from the server),
and a 416 raises OffsetMismatch carrying the server's durable offset.

Transport: ``HttpTransport`` holds one keep-alive socket with Nagle's
algorithm off (TCP_NODELAY) and speaks HTTP/1.1 on it directly. A
request goes out in one ``sendall``, with the bytes ``http.client`` sent:
its line, ``Host``, ``Accept-Encoding: identity``, ``Content-Length``
(unless the caller gives one), the caller's headers and the body. A body
over ``INLINE_BODY_BYTES`` follows the head in a second ``sendall`` instead
of being copied onto it. The reply's status line is read here and its
header lines by ``syncd.read_fields``, the reader the service uses for
requests; the body is read by ``Content-Length``, is empty for HEAD and
204 replies, and runs to EOF when no length is given. A ``Connection:
close`` reply, or any socket or parse failure, drops the socket, and the
next request opens a new one. ``EventStream`` opens its subscription
through the same code.
"""

from __future__ import annotations

import json
import queue
import socket
import threading
import time
import urllib.parse

from .errors import NetworkError
from .model import PackageManifest, serialize_manifest
from .packstore import OffsetMismatch, ServerRejected
from .syncd import MAX_LINE_BYTES, OFFSET_HEADER, HeadError, read_fields

INLINE_BODY_BYTES = 64 * 1024  # larger bodies are not copied onto the head


def _error_text(body: bytes) -> str:
    try:
        doc = json.loads(body)
    except (ValueError, UnicodeDecodeError):
        return body[:200].decode("utf-8", "replace")
    if isinstance(doc, dict) and "error" in doc:
        return str(doc["error"])
    return str(doc)[:200]


class HttpTransport:
    """One keep-alive connection; reopened on demand after failures."""

    def __init__(self, base_url: str, timeout: float = 10.0):
        parsed = urllib.parse.urlsplit(base_url)
        if parsed.scheme != "http":
            raise ValueError(f"unsupported scheme {parsed.scheme!r}")
        if parsed.hostname is None:
            raise ValueError(f"no host in {base_url!r}")
        self.host = parsed.hostname
        self.port = parsed.port or 80
        self.timeout = timeout
        netloc = f"[{self.host}]" if ":" in self.host else self.host
        self._host_field = netloc if self.port == 80 else f"{netloc}:{self.port}"
        self._sock: socket.socket | None = None
        self._rfile = None

    def _connect(self) -> socket.socket:
        if self._sock is None:
            try:
                sock = socket.create_connection((self.host, self.port), self.timeout)
            except OSError as e:
                raise ServerRejected(f"cannot reach {self.host}:{self.port}: {e}") from e
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._sock, self._rfile = sock, sock.makefile("rb")
        return self._sock

    def close(self) -> None:
        sock, rfile = self._sock, self._rfile
        self._sock = self._rfile = None
        if sock is not None:
            try:
                rfile.close()
            finally:
                sock.close()

    def _send(self, method: str, path: str, body: bytes | None, headers: dict | None) -> None:
        """Send one request; a None body also leaves out ``Content-Length``."""
        lines = [
            f"{method} {path} HTTP/1.1", f"Host: {self._host_field}", "Accept-Encoding: identity"
        ]
        headers = headers or {}
        if body is None:
            body = b""
        elif not any(k.lower() == "content-length" for k in headers):
            lines.append(f"Content-Length: {len(body)}")
        lines += [f"{k}: {v}" for k, v in headers.items()]
        lines += ("", "")
        head = "\r\n".join(lines).encode("iso-8859-1")
        sock = self._connect()
        if len(body) > INLINE_BODY_BYTES:
            sock.sendall(head)
            sock.sendall(body)
        else:
            sock.sendall(head + body)

    def _read_head(self) -> tuple[int, dict]:
        """The status and the lowercased fields of the next reply head."""
        line = self._rfile.readline(MAX_LINE_BYTES + 1)
        if not line:
            raise NetworkError("the server closed the connection without a reply")
        words = line.split(None, 2)
        if (
            len(line) > MAX_LINE_BYTES
            or len(words) < 2
            or not words[0].startswith(b"HTTP/")
            or not (len(words[1]) == 3 and words[1].isdigit())
        ):
            raise NetworkError(f"malformed status line {line[:64]!r}")
        return int(words[1]), read_fields(self._rfile)

    def _open(
        self, method: str, path: str, body: bytes | None, headers: dict | None = None
    ) -> tuple[int, dict]:
        """Send a request and read its reply head; the body stays unread.
        Any failure after the connect closes the socket and raises
        NetworkError."""
        try:
            self._send(method, path, body, headers)
            return self._read_head()
        except (OSError, ValueError, HeadError, NetworkError) as e:
            self.close()
            raise NetworkError(f"{method} {path} failed mid-exchange: {e}") from e

    def request(
        self,
        method: str,
        path: str,
        body: bytes = b"",
        headers: dict | None = None,
    ) -> tuple[int, dict, bytes]:
        """Returns (status, lowercase header dict, body bytes)."""
        status, fields = self._open(method, path, body, headers)
        return status, fields, self._read_body(method, path, status, fields)

    def _read_body(self, method: str, path: str, status: int, fields: dict) -> bytes:
        """The body of the reply whose head ``_open`` returned."""
        close = "close" in fields.get("connection", "").lower()
        try:
            if method == "HEAD" or status in (204, 304) or status < 200:
                data = b""
            elif "content-length" in fields:
                n = int(fields["content-length"])
                data = self._rfile.read(n)
                if len(data) != n:
                    raise NetworkError(f"reply body ended after {len(data)} of {n} bytes")
            else:
                data = self._rfile.read()  # the body runs to EOF
                close = True
        except (OSError, ValueError, NetworkError) as e:
            self.close()
            raise NetworkError(f"{method} {path} failed mid-exchange: {e}") from e
        if close:
            self.close()
        return data


class StreamEnded(NetworkError):
    """The server closed the event stream; reconnect with last_seq."""


class EventStream:
    """One SSE subscription. Dedup by commit_seq is built in: events at or
    below ``last_seq`` are dropped, so reconnect-replay never double-delivers.
    """

    def __init__(self, host: str, port: int, from_seq: int, timeout: float = 10.0):
        self.last_seq = from_seq
        netloc = f"[{host}]" if ":" in host else host
        self._transport = HttpTransport(f"http://{netloc}:{port}", timeout=timeout)
        path = f"/v1/stream?from_seq={from_seq}"
        try:
            status, fields = self._transport._open("GET", path, None)
            if status != 200:
                body = self._transport._read_body("GET", path, status, fields)
                self._transport.close()
                raise ServerRejected(f"stream: HTTP {status}: {_error_text(body)}")
        except NetworkError as e:
            raise ServerRejected(f"cannot open event stream: {e}") from e
        # the reply ends with the connection (Connection: close); keep the
        # socket and its reader for the pump and for close()
        self._sock, self._rfile = self._transport._sock, self._transport._rfile
        self._lines: queue.Queue = queue.Queue()
        self._thread = threading.Thread(target=self._pump, daemon=True)
        self._thread.start()

    def _pump(self) -> None:
        try:
            while True:
                line = self._rfile.readline()
                if not line:
                    break
                self._lines.put(line)
        except (OSError, ValueError):
            pass
        finally:
            self._lines.put(None)

    def next_event(self, timeout: float | None = None) -> dict | None:
        """Next deduplicated event, or None if the timeout expires.

        Raises StreamEnded once the server (or close()) ends the stream.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            remaining = None if deadline is None else max(0.0, deadline - time.monotonic())
            try:
                line = self._lines.get(timeout=remaining)
            except queue.Empty:
                return None
            if line is None:
                raise StreamEnded("event stream closed")
            line = line.strip()
            if not line.startswith(b"data:"):
                continue
            doc = json.loads(line[len(b"data:"):].strip())
            seq = int(doc["commit_seq"])
            if seq <= self.last_seq:
                continue  # replay overlap; dedup by seq
            self.last_seq = seq
            return doc

    def close(self) -> None:
        # shut the socket down first: the pump thread holds the reader's
        # lock inside readline(), so closing the reader would block on it
        # until the read timeout expired
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._thread.join(timeout=2)
        self._transport.close()

    def __enter__(self) -> "EventStream":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class SyncClient:
    """Client for one sync service endpoint.

    Satisfies the uploader's contract (create_session, blob_offset,
    put_chunk, commit) and adds the read side (query_packages,
    download_blob, subscribe).
    """

    def __init__(self, base_url: str, transport=None, timeout: float = 10.0):
        self.base_url = base_url.rstrip("/")
        self.transport = transport or HttpTransport(self.base_url, timeout=timeout)
        self.timeout = timeout

    # -- paths -------------------------------------------------------------

    @staticmethod
    def _pkg_path(package_id: str) -> str:
        return f"/v1/packages/{urllib.parse.quote(package_id, safe='')}"

    @classmethod
    def _blob_path(cls, package_id: str, name: str) -> str:
        return f"{cls._pkg_path(package_id)}/blobs/{urllib.parse.quote(name, safe='/')}"

    # -- upload side ---------------------------------------------------------

    def create_session(self, manifest: PackageManifest) -> dict:
        status, _, body = self.transport.request(
            "POST",
            "/v1/packages",
            body=serialize_manifest(manifest),
            headers={"Content-Type": "application/json"},
        )
        if status in (200, 201):
            return json.loads(body)
        raise ServerRejected(f"create package: HTTP {status}: {_error_text(body)}")

    def blob_offset(self, package_id: str, name: str) -> int:
        status, headers, body = self.transport.request(
            "HEAD", self._blob_path(package_id, name)
        )
        if status == 200:
            return int(headers[OFFSET_HEADER.lower()])
        raise ServerRejected(f"offset of {name!r}: HTTP {status}")

    def put_chunk(self, package_id: str, name: str, offset: int, data: bytes) -> int:
        status, headers, body = self.transport.request(
            "PUT",
            self._blob_path(package_id, name),
            body=data,
            headers={
                OFFSET_HEADER: str(offset),
                "Content-Type": "application/octet-stream",
            },
        )
        if status == 204:
            return int(headers[OFFSET_HEADER.lower()])
        if status == 416:
            try:
                expected = int(json.loads(body)["expected_offset"])
            except (ValueError, KeyError):
                expected = int(headers.get(OFFSET_HEADER.lower(), 0))
            raise OffsetMismatch(expected)
        raise ServerRejected(f"put chunk {name!r}@{offset}: HTTP {status}: {_error_text(body)}")

    def commit(self, package_id: str) -> dict:
        status, _, body = self.transport.request(
            "POST", f"{self._pkg_path(package_id)}/commit", body=b""
        )
        if status == 200:
            return json.loads(body)
        raise ServerRejected(f"commit: HTTP {status}: {_error_text(body)}")

    # -- read side -----------------------------------------------------------

    def query_packages(self, since_seq: int = 0) -> list[dict]:
        status, _, body = self.transport.request(
            "GET", f"/v1/packages?since_seq={int(since_seq)}"
        )
        if status == 200:
            return json.loads(body)
        raise ServerRejected(f"query packages: HTTP {status}: {_error_text(body)}")

    def download_blob(self, package_id: str, name: str) -> bytes:
        status, _, body = self.transport.request("GET", self._blob_path(package_id, name))
        if status == 200:
            return body
        raise ServerRejected(f"download {name!r}: HTTP {status}: {_error_text(body)}")

    def subscribe(self, from_seq: int = 0) -> EventStream:
        parsed = urllib.parse.urlsplit(self.base_url)
        return EventStream(parsed.hostname, parsed.port or 80, from_seq, timeout=self.timeout)

    def close(self) -> None:
        self.transport.close()

    def __enter__(self) -> "SyncClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
