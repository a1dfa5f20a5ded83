"""HttpTransport and EventStream against a scripted raw-socket server."""

from __future__ import annotations

import socket
import threading

import pytest

from roadsense.errors import NetworkError
from roadsense.packstore import ServerRejected
from roadsense.syncclient import INLINE_BODY_BYTES, EventStream, HttpTransport, StreamEnded


class ScriptedServer:
    """Answers each request with the next scripted reply, raw bytes as given.

    A reply of ``None`` closes the connection without answering. After a
    reply in ``close_after`` the server closes the connection. Every
    request is kept as ``(connection number, head, body)``; the body is
    read by the head's ``Content-Length`` unless ``read_body`` is false.
    """

    def __init__(self, replies, close_after=(), read_body=True):
        self.replies = list(replies)
        self.close_after = set(close_after)
        self.read_body = read_body
        self.requests: list[tuple[int, bytes, bytes]] = []
        self.connections = 0
        self._listener = socket.create_server(("127.0.0.1", 0))
        self._listener.settimeout(5)
        self.port = self._listener.getsockname()[1]
        self.url = f"http://127.0.0.1:{self.port}"
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        sent = 0
        while sent < len(self.replies):
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return
            self.connections += 1
            with conn, conn.makefile("rb") as rfile:
                while sent < len(self.replies):
                    head = b""
                    while not head.endswith(b"\r\n\r\n"):
                        line = rfile.readline()
                        if not line:
                            break
                        head += line
                    if not head:
                        break  # the client closed this connection
                    length = 0
                    for line in head.split(b"\r\n"):
                        if line.lower().startswith(b"content-length:"):
                            length = int(line.split(b":", 1)[1])
                    body = rfile.read(length) if self.read_body else b""
                    self.requests.append((self.connections, head, body))
                    reply = self.replies[sent]
                    sent += 1
                    if reply is None:
                        break
                    conn.sendall(reply)
                    if sent in self.close_after:
                        break

    def close(self) -> None:
        self._listener.close()
        self._thread.join(timeout=5)


@pytest.fixture
def scripted():
    servers = []

    def start(*replies, **kw):
        servers.append(ScriptedServer(replies, **kw))
        return servers[-1]

    yield start
    for srv in servers:
        srv.close()


NO_CONTENT = b"HTTP/1.1 204 No Content\r\nUpload-Offset: 5\r\n\r\n"
OK_HELLO = b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhello"


def test_head_and_204_replies_carry_no_body(scripted):
    srv = scripted(
        b"HTTP/1.1 200 OK\r\nUpload-Offset: 7\r\nContent-Length: 42\r\n\r\n",
        NO_CONTENT,
        OK_HELLO,
    )
    transport = HttpTransport(srv.url)
    fields = {"upload-offset": "7", "content-length": "42"}
    assert transport.request("HEAD", "/b") == (200, fields, b"")
    assert transport.request("PUT", "/b", b"12345") == (204, {"upload-offset": "5"}, b"")
    # a body read for either would have swallowed this reply
    assert transport.request("GET", "/b")[2] == b"hello"
    transport.close()
    assert srv.connections == 1


def test_a_connection_close_reply_makes_the_next_request_reconnect(scripted):
    srv = scripted(
        b"HTTP/1.1 200 OK\r\nConnection: close\r\nContent-Length: 2\r\n\r\nhi",
        OK_HELLO,
        close_after=[1],
    )
    transport = HttpTransport(srv.url)
    assert transport.request("GET", "/a")[2] == b"hi"
    assert transport.request("GET", "/b")[2] == b"hello"
    transport.close()
    assert [conn for conn, _, _ in srv.requests] == [1, 2]


def test_a_reply_without_a_length_runs_to_eof(scripted):
    srv = scripted(b"HTTP/1.1 200 OK\r\n\r\nto the end", OK_HELLO, close_after=[1])
    transport = HttpTransport(srv.url)
    assert transport.request("GET", "/a") == (200, {}, b"to the end")
    assert transport.request("GET", "/b")[2] == b"hello"
    transport.close()
    assert srv.connections == 2


@pytest.mark.parametrize("replies, close_after, served", [
    ((OK_HELLO, OK_HELLO), [1], [(1, b"/a"), (2, b"/c")]),  # closed while idle
    ((OK_HELLO, None, OK_HELLO), [], [(1, b"/a"), (1, b"/b"), (2, b"/c")]),  # closed unanswered
])
def test_a_kept_alive_socket_the_server_closed_gives_network_error_once(
    scripted, replies, close_after, served
):
    srv = scripted(*replies, close_after=close_after)
    transport = HttpTransport(srv.url)
    assert transport.request("GET", "/a")[2] == b"hello"
    with pytest.raises(NetworkError, match="GET /b failed mid-exchange"):
        transport.request("GET", "/b")
    assert transport.request("GET", "/c")[2] == b"hello"
    transport.close()
    assert [(conn, head.split(b" ")[1]) for conn, head, _ in srv.requests] == served


@pytest.mark.parametrize("reply", [
    b"HTTP/1.1 2OO OK\r\nContent-Length: 0\r\n\r\n",
    b"HTTP/1.1\r\nContent-Length: 0\r\n\r\n",
    b"ICY 200 OK\r\nContent-Length: 0\r\n\r\n",
    b"HTTP/1.1 200 OK\r\nContent-Length: 0\r\n folded\r\n\r\n",
    b"HTTP/1.1 200 OK\r\nContent-Length: five\r\n\r\nhello",
    b"HTTP/1.1 200 OK\r\nContent-Length: 9\r\n\r\nhello",  # then EOF
])
def test_a_malformed_or_cut_reply_gives_network_error(scripted, reply):
    srv = scripted(reply, OK_HELLO, close_after=[1])
    transport = HttpTransport(srv.url)
    with pytest.raises(NetworkError):
        transport.request("GET", "/a")
    assert transport.request("GET", "/b")[2] == b"hello"  # on a new connection
    transport.close()


def test_a_caller_supplied_content_length_is_sent_as_given(scripted):
    srv = scripted(b"HTTP/1.1 413 Too Big\r\nConnection: close\r\nContent-Length: 0\r\n\r\n",
                   read_body=False)
    transport = HttpTransport(srv.url)
    status, _, _ = transport.request(
        "PUT", "/b", b"", {"Upload-Offset": "0", "Content-Length": "68157440"}
    )
    assert status == 413
    _, head, _ = srv.requests[0]
    assert head == (
        b"PUT /b HTTP/1.1\r\nHost: 127.0.0.1:%d\r\nAccept-Encoding: identity\r\n"
        b"Upload-Offset: 0\r\nContent-Length: 68157440\r\n\r\n" % srv.port
    )


@pytest.mark.parametrize("size", [0, 5, INLINE_BODY_BYTES, INLINE_BODY_BYTES + 1, 300_000])
def test_a_request_goes_out_as_http_client_sent_it(scripted, size):
    """Head fields in http.client's order; a large body follows the head."""
    body = bytes(range(256)) * (size // 256) + b"x" * (size % 256)
    srv = scripted(NO_CONTENT)
    transport = HttpTransport(srv.url)
    transport.request("PUT", "/v1/packages/p/blobs/s", body, {"Upload-Offset": "0"})
    transport.close()
    _, head, got = srv.requests[0]
    assert head == (
        b"PUT /v1/packages/p/blobs/s HTTP/1.1\r\nHost: 127.0.0.1:%d\r\n"
        b"Accept-Encoding: identity\r\nContent-Length: %d\r\nUpload-Offset: 0\r\n\r\n"
        % (srv.port, size)
    )
    assert got == body


def test_event_stream_reads_events_then_ends(scripted):
    srv = scripted(
        b"HTTP/1.1 200 OK\r\nContent-Type: text/event-stream\r\nConnection: close\r\n\r\n"
        b'data: {"commit_seq":1}\n\ndata: {"commit_seq":1}\n\ndata: {"commit_seq":2}\n\n',
        close_after=[1],
    )
    stream = EventStream("127.0.0.1", srv.port, from_seq=0, timeout=5)
    assert [stream.next_event(timeout=5)["commit_seq"] for _ in range(2)] == [1, 2]
    with pytest.raises(StreamEnded):
        stream.next_event(timeout=5)
    stream.close()
    # a GET without a body declares no length, as http.client did
    assert srv.requests[0][1] == (
        b"GET /v1/stream?from_seq=0 HTTP/1.1\r\nHost: 127.0.0.1:%d\r\n"
        b"Accept-Encoding: identity\r\n\r\n" % srv.port
    )


def test_event_stream_refusal_is_server_rejected(scripted):
    # the refusal keeps the connection open: its body is read by its length
    srv = scripted(
        b"HTTP/1.1 400 Bad Request\r\nContent-Length: 36\r\n\r\n"
        b'{"error":"from_seq must be integer"}',
        OK_HELLO,
    )
    with pytest.raises(ServerRejected, match="HTTP 400: from_seq must be integer"):
        EventStream("127.0.0.1", srv.port, from_seq=0, timeout=5)


def test_event_stream_close_does_not_wait_for_the_read_timeout(scripted):
    # a second scripted reply keeps the server reading instead of closing
    srv = scripted(b"HTTP/1.1 200 OK\r\nConnection: close\r\n\r\n", OK_HELLO)
    stream = EventStream("127.0.0.1", srv.port, from_seq=0, timeout=30)
    assert stream.next_event(timeout=0.05) is None  # the server stays silent
    stream.close()
    assert not stream._thread.is_alive()
