"""Local package library and the offline-first upload state machine.

Each package directory carries an ``upload_state.json`` sidecar recording
where its upload stands. The state machine:

    Pending     --Start-->       InProgress
    InProgress  --ChunkAcked-->  InProgress   (bytes_sent advances)
    InProgress  --NetLost-->     Interrupted
    InProgress  --Committed-->   Complete
    Interrupted --Start-->       InProgress   (resume from the server's offsets)
    Pending/InProgress/Interrupted --ServerError--> Interrupted (attempt+1)
    Interrupted --GiveUp-->      Failed       (only once attempts exceed max_retries)

Complete and Failed are terminal; every other (status, event) pair is
rejected. Sidecars are rewritten atomically (write-temp-then-rename, fsync).
Every status-changing transition (Start, NetLost, ServerError, Committed,
GiveUp) and every offset sync is persisted before the caller sees it, so a
crash at any point recovers to a state the event history could have
produced. ChunkAcked only advances ``bytes_sent`` and is persisted at most
once per second, which keeps ``roadsense status`` progress about that
fresh without an fsync per chunk.

Resume offsets are authoritative on the server: on resume the uploader
asks the server where each blob stands and continues from there, so a
sidecar whose ``bytes_sent`` is behind or ahead of what the server durably
holds neither re-sends nor skips a byte.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import time
import uuid
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing
from dataclasses import dataclass, field, replace
from enum import Enum
from pathlib import Path

from .canonical import dumps_canonical
from .errors import NetworkError, RoadsenseError, StateMachineError, ValidationError
from .model import (
    BlobEntry,
    PackageManifest,
    StreamColumns,
    _BLOCK_LINES,
    _check_relative_path,
    _shaped_columns,
    _valid_columns,
    encode_jsonl_columns,
    serialize_manifest,
)
from .package import (
    _STREAM_TYPES,
    MANIFEST_NAME,
    RESERVED_NAMES,
    STREAM_NAMES,
    UPLOAD_STATE_NAME,
    ValidationReport,
    _check_monotonic,
    load_package,
    sha256_file,  # noqa: F401  (looked up here by the benchmark tracer)
    validate_package,  # noqa: F401  (looked up here by callers and the benchmark tracer)
    write_memo,
)

DEFAULT_MAX_RETRIES = 5
DEFAULT_BACKOFF_BASE_S = 1.0
DEFAULT_BACKOFF_CAP_S = 60.0
DEFAULT_CHUNK_BYTES = 262_144

# least time.monotonic() seconds between two sidecar writes for ChunkAcked
_PROGRESS_PERSIST_S = 1.0


class UploadStatus(str, Enum):
    PENDING = "pending"
    IN_PROGRESS = "in_progress"
    INTERRUPTED = "interrupted"
    COMPLETE = "complete"
    FAILED = "failed"


class UploadEvent(str, Enum):
    START = "start"
    CHUNK_ACKED = "chunk_acked"
    NET_LOST = "net_lost"
    SERVER_ERROR = "server_error"
    COMMITTED = "committed"
    GIVE_UP = "give_up"


TERMINAL_STATUSES = frozenset({UploadStatus.COMPLETE, UploadStatus.FAILED})


@dataclass(frozen=True)
class UploadState:
    package_id: str
    status: UploadStatus = UploadStatus.PENDING
    bytes_sent: dict = field(default_factory=dict)  # blob name -> durable offset
    attempt_count: int = 0
    last_error: str | None = None

    def to_doc(self) -> dict:
        return {
            "package_id": self.package_id,
            "status": self.status.value,
            "bytes_sent": dict(sorted(self.bytes_sent.items())),
            "attempt_count": self.attempt_count,
            "last_error": self.last_error,
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "UploadState":
        return cls(
            package_id=doc["package_id"],
            status=UploadStatus(doc["status"]),
            bytes_sent=dict(doc.get("bytes_sent", {})),
            attempt_count=int(doc.get("attempt_count", 0)),
            last_error=doc.get("last_error"),
        )


def advance(
    state: UploadState,
    event: UploadEvent,
    *,
    blob: str | None = None,
    offset: int | None = None,
    error: str | None = None,
    max_retries: int = DEFAULT_MAX_RETRIES,
) -> UploadState:
    """Apply one event to an upload state, returning the new state.

    Invalid (status, event) pairs raise StateMachineError.
    """
    s, e = state.status, event
    if s in TERMINAL_STATUSES:
        raise StateMachineError(f"{s.value} is terminal; event {e.value} rejected")

    if e is UploadEvent.START:
        if s in (UploadStatus.PENDING, UploadStatus.INTERRUPTED):
            return replace(state, status=UploadStatus.IN_PROGRESS)
        raise StateMachineError(f"event start invalid in status {s.value}")

    if e is UploadEvent.CHUNK_ACKED:
        if s is not UploadStatus.IN_PROGRESS:
            raise StateMachineError(f"event chunk_acked invalid in status {s.value}")
        if blob is None or offset is None:
            raise StateMachineError("chunk_acked requires blob and offset")
        current = state.bytes_sent.get(blob, 0)
        if offset < current:
            raise StateMachineError(
                f"chunk_acked offset {offset} behind recorded {current} for {blob!r}"
            )
        sent = dict(state.bytes_sent)
        sent[blob] = offset
        return replace(state, bytes_sent=sent)

    if e is UploadEvent.NET_LOST:
        if s is not UploadStatus.IN_PROGRESS:
            raise StateMachineError(f"event net_lost invalid in status {s.value}")
        return replace(state, status=UploadStatus.INTERRUPTED, last_error=error)

    if e is UploadEvent.SERVER_ERROR:
        # valid from any non-terminal status
        return replace(
            state,
            status=UploadStatus.INTERRUPTED,
            attempt_count=state.attempt_count + 1,
            last_error=error,
        )

    if e is UploadEvent.COMMITTED:
        if s is not UploadStatus.IN_PROGRESS:
            raise StateMachineError(f"event committed invalid in status {s.value}")
        return replace(state, status=UploadStatus.COMPLETE, last_error=None)

    if e is UploadEvent.GIVE_UP:
        if s is not UploadStatus.INTERRUPTED:
            raise StateMachineError(f"event give_up invalid in status {s.value}")
        if state.attempt_count <= max_retries:
            raise StateMachineError(
                f"give_up rejected: attempt_count {state.attempt_count} <= max_retries {max_retries}"
            )
        return replace(state, status=UploadStatus.FAILED)

    raise StateMachineError(f"unknown event {event!r}")


def sync_offsets(state: UploadState, offsets: dict) -> UploadState:
    """Replace recorded offsets with the server-authoritative ones.

    Used on resume only; not an FSM event because the server may report
    less than the client previously counted.
    """
    if state.status not in (UploadStatus.IN_PROGRESS, UploadStatus.INTERRUPTED):
        raise StateMachineError(f"cannot sync offsets in status {state.status.value}")
    return replace(state, bytes_sent=dict(offsets))


def write_upload_state(package_dir: str | os.PathLike, state: UploadState) -> None:
    """Atomically persist the sidecar: write temp, fsync, rename."""
    path = Path(package_dir) / UPLOAD_STATE_NAME
    tmp = path.with_suffix(".json.tmp")
    data = dumps_canonical(state.to_doc()) + b"\n"
    with open(tmp, "wb") as f:
        f.write(data)
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, path)


def read_upload_state(package_dir: str | os.PathLike) -> UploadState | None:
    path = Path(package_dir) / UPLOAD_STATE_NAME
    if not path.is_file():
        return None
    return UploadState.from_doc(json.loads(path.read_text(encoding="utf-8")))


def _encoded_blocks(cols: StreamColumns, record_cls):
    """The JSONL bytes of *cols*, ``_BLOCK_LINES`` rows per piece; joined,
    they are ``encode_jsonl_columns(cols, record_cls)``."""
    for i in range(0, len(cols), _BLOCK_LINES):
        block = StreamColumns({k: v[i : i + _BLOCK_LINES] for k, v in cols.fields.items()})
        yield encode_jsonl_columns(block, record_cls)


def create_package(
    root: str | os.PathLike,
    samples: StreamColumns,
    gps: StreamColumns,
    frames: StreamColumns,
    *,
    device_id: str,
    started_at_ms: int,
    ended_at_ms: int,
    sensor_rate_hz: int = 30,
    frame_rate_fps: int = 10,
    package_id: str | None = None,
    extra_blobs: dict | None = None,
) -> tuple[Path, PackageManifest]:
    """Write a fresh package directory in the standard layout.

    The streams are ``StreamColumns`` as ``decode_jsonl_columns`` gives them
    (``columns_from_records`` makes them from records), and must pass the
    checks ``validate_package`` runs on those; the package then gets a fresh
    stream-check memo. ``extra_blobs`` maps other relative names (e.g. frame
    payloads) to raw bytes. A refusal raises ValidationError before anything
    is written; on a write failure the partial directory is removed.

    Each stream is encoded ``model._BLOCK_LINES`` rows at a time, and each
    block is written and fed to the blob's sha256 before the next is made,
    so the memory a stream needs is bounded by one block, not by the
    drive's length; nothing is read back to be hashed.
    """
    # the stream checks of validate_package, so that the memo written below holds
    payloads = {}  # blob name -> an iterable of its bytes, in pieces
    for name, cols in zip(STREAM_NAMES, (samples, gps, frames)):
        record_cls = _STREAM_TYPES[name]
        if not (_shaped_columns(cols.fields, record_cls) and _valid_columns(cols.fields, record_cls)):
            msg = f"{name}: not valid {record_cls.__name__} columns (fields, dtypes or values)"
            raise ValidationError(msg, field=name)
        check = _check_monotonic(name, cols)
        if not check.ok:
            raise ValidationError(f"{name}: {check.detail}", field=name)
        payloads[name] = _encoded_blocks(cols, record_cls)
    for name in extra_blobs or ():
        _check_relative_path("name", name)
    clash = (RESERVED_NAMES | set(STREAM_NAMES)).intersection(extra_blobs or ())
    if clash:
        raise ValidationError(f"extra blobs may not be named {sorted(clash)}", field="name")
    payloads.update((name, (data,)) for name, data in (extra_blobs or {}).items())

    pid = package_id or str(uuid.uuid4())
    uuid.UUID(pid)  # fail early on a malformed explicit id
    package_dir = Path(root) / pid
    if package_dir.exists():
        raise FileExistsError(f"package directory already exists: {package_dir}")
    package_dir.mkdir(parents=True)
    try:
        blobs = []
        for name, pieces in payloads.items():
            path = package_dir / name
            path.parent.mkdir(parents=True, exist_ok=True)
            digest, size = hashlib.sha256(), 0
            with open(path, "wb") as f:
                for piece in pieces:
                    f.write(piece)
                    digest.update(piece)
                    size += len(piece)
            blobs.append(BlobEntry(name=name, bytes=size, sha256=digest.hexdigest()))
        manifest = PackageManifest(
            package_id=pid,
            device_id=device_id,
            started_at_ms=started_at_ms,
            ended_at_ms=ended_at_ms,
            blobs=tuple(blobs),
            sensor_rate_hz=sensor_rate_hz,
            frame_rate_fps=frame_rate_fps,
        )
        manifest_bytes = serialize_manifest(manifest) + b"\n"
        (package_dir / MANIFEST_NAME).write_bytes(manifest_bytes)
        write_upload_state(package_dir, UploadState(package_id=pid))
        write_memo(package_dir, manifest_bytes)  # the checks above passed
    except Exception:
        shutil.rmtree(package_dir, ignore_errors=True)
        raise
    return package_dir, manifest


@dataclass
class LibraryEntry:
    package_id: str
    path: Path
    manifest: PackageManifest | None
    state: UploadState | None
    report: ValidationReport | None
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None and self.report is not None and self.report.valid


@dataclass
class LibraryIndex:
    root: Path
    entries: dict  # package_id (or dir name for corrupt entries) -> LibraryEntry

    def __iter__(self):
        return iter(sorted(self.entries.values(), key=lambda e: e.package_id))


def recover(root: str | os.PathLike) -> LibraryIndex:
    """Scan a library root and rebuild the index from disk.

    Packages that were mid-upload at a crash come back as Interrupted
    (their sidecar says InProgress but no uploader is running). Corrupt
    packages are listed with their validation failure, never dropped.
    Dot-directories, such as the ``.<id>.partial`` of a pull in progress,
    are not packages and are skipped.

    Every blob is hashed, but the streams are decoded only when the
    stream-check memo is not trusted, with the same report. It is trusted
    when every stream is a blob, no blob has a reserved name, every blob
    matches its size and sha256, and it equals the manifest bytes' sha256.
    The column memo is never opened: recover neither reads nor writes it.
    """
    root = Path(root)
    if not root.is_dir():
        raise FileNotFoundError(f"library root does not exist: {root}")
    entries: dict[str, LibraryEntry] = {}
    children = (p for p in root.iterdir() if p.is_dir() and not p.name.startswith("."))
    for child in sorted(children):
        manifest = None
        state = None
        error = None
        report = None
        try:
            report, manifest = load_package(child, _trust_memo=True)[:2]
            if manifest is None:
                # the one problem is "manifest.json missing" or "manifest.json: <why>"
                problem = report.problems[0]
                if problem == f"{MANIFEST_NAME} missing":
                    error = problem
                else:
                    error = "manifest unreadable: " + problem.removeprefix(f"{MANIFEST_NAME}: ")
            elif not report.valid:
                error = "; ".join(
                    line for line in report.summary_lines() if not line.endswith(": ok")
                )
        except OSError as e:
            error = f"unreadable package: {e}"

        pid = manifest.package_id if manifest else child.name
        try:
            state = read_upload_state(child)
        except Exception as e:
            error = error or f"upload state unreadable: {e}"
        if state is None and manifest is not None:
            state = UploadState(package_id=pid)
        if state is not None and state.status is UploadStatus.IN_PROGRESS:
            state = replace(state, status=UploadStatus.INTERRUPTED)
            write_upload_state(child, state)
        entries[pid] = LibraryEntry(
            package_id=pid, path=child, manifest=manifest, state=state,
            report=report, error=error,
        )
    return LibraryIndex(root=root, entries=entries)


class ServerRejected(RoadsenseError):
    """The server answered but refused the request (HTTP error status)."""


class OffsetMismatch(RoadsenseError):
    """416 from the server: the chunk did not start at the durable offset."""

    def __init__(self, expected: int):
        super().__init__(f"server expects offset {expected}")
        self.expected = expected


class Uploader:
    """Drives one package's upload FSM against a sync client.

    Transport failures mid-exchange map to NetLost (free resume); failures
    to reach or satisfy the server map to ServerError (counts an attempt).
    Backoff between attempts is base * 2^attempt, capped.
    """

    def __init__(
        self,
        package_dir: str | os.PathLike,
        manifest: PackageManifest,
        client,
        *,
        state: UploadState | None = None,
        chunk_bytes: int = DEFAULT_CHUNK_BYTES,
        max_retries: int = DEFAULT_MAX_RETRIES,
        backoff_base_s: float = DEFAULT_BACKOFF_BASE_S,
        backoff_cap_s: float = DEFAULT_BACKOFF_CAP_S,
        observer=None,
        sleep=time.sleep,
    ):
        if chunk_bytes < 1:
            raise ValueError(f"chunk_bytes must be >= 1, got {chunk_bytes}")
        self.package_dir = Path(package_dir)
        self.manifest = manifest
        self.client = client
        self.state = state or read_upload_state(self.package_dir) or UploadState(
            package_id=manifest.package_id
        )
        self.chunk_bytes = chunk_bytes
        self.max_retries = max_retries
        self.backoff_base_s = backoff_base_s
        self.backoff_cap_s = backoff_cap_s
        self.observer = observer
        self.sleep = sleep
        self._persisted_at = -math.inf

    def _persist(self) -> None:
        write_upload_state(self.package_dir, self.state)
        self._persisted_at = time.monotonic()

    # every state transition funnels through here and reaches the observer
    # (and crash injection in tests) only after it is persisted; ChunkAcked
    # alone is persisted at most once per _PROGRESS_PERSIST_S, since resume
    # takes its offsets from the server
    def _apply(self, event: UploadEvent, **kw) -> UploadState:
        self.state = advance(self.state, event, max_retries=self.max_retries, **kw)
        if (
            event is not UploadEvent.CHUNK_ACKED
            or time.monotonic() - self._persisted_at >= _PROGRESS_PERSIST_S
        ):
            self._persist()
        if self.observer:
            self.observer("transition", event=event.value, status=self.state.status.value,
                          bytes_sent=dict(self.state.bytes_sent))
        return self.state

    def _sync_offsets(self, offsets: dict) -> None:
        self.state = sync_offsets(self.state, offsets)
        self._persist()
        if self.observer:
            self.observer("offsets_synced", offsets=dict(offsets))

    def backoff_delay(self) -> float:
        return min(self.backoff_cap_s, self.backoff_base_s * (2.0 ** self.state.attempt_count))

    def run(self) -> UploadState:
        """Upload until Complete or Failed; returns the final state."""
        while True:
            if self.state.status is UploadStatus.COMPLETE:
                return self.state
            if self.state.status is UploadStatus.FAILED:
                return self.state
            if self.state.status in (UploadStatus.PENDING, UploadStatus.INTERRUPTED):
                if self.state.status is UploadStatus.INTERRUPTED and self.state.attempt_count > self.max_retries:
                    return self._apply(UploadEvent.GIVE_UP)
                if self.state.attempt_count > 0:
                    self.sleep(self.backoff_delay())
                self._apply(UploadEvent.START)
            try:
                self._attempt()
                return self.state
            except NetworkError as e:
                if self.state.status is UploadStatus.IN_PROGRESS:
                    self._apply(UploadEvent.NET_LOST, error=str(e))
            except ServerRejected as e:
                self._apply(UploadEvent.SERVER_ERROR, error=str(e))

    def _attempt(self) -> None:
        session = self.client.create_session(self.manifest)
        self._sync_offsets(
            {name: int(off) for name, off in session.get("blobs", {}).items()}
        )
        for blob in self.manifest.blobs:
            self._upload_blob(blob)
        self.client.commit(self.manifest.package_id)
        self._apply(UploadEvent.COMMITTED)

    def _upload_blob(self, blob: BlobEntry) -> None:
        offset = int(self.state.bytes_sent.get(blob.name, 0))
        if offset > blob.bytes:
            # server somehow holds more than the manifest declares; re-ask
            offset = self.client.blob_offset(self.manifest.package_id, blob.name)
        path = self.package_dir / blob.name
        with open(path, "rb") as f:
            while offset < blob.bytes:
                f.seek(offset)
                chunk = f.read(self.chunk_bytes)
                if not chunk:
                    raise ServerRejected(
                        f"local blob {blob.name!r} shorter than manifest size"
                    )
                try:
                    new_offset = self.client.put_chunk(
                        self.manifest.package_id, blob.name, offset, chunk
                    )
                except OffsetMismatch as e:
                    # server is authoritative; fall back to its offset
                    self._sync_offsets({**self.state.bytes_sent, blob.name: e.expected})
                    offset = e.expected
                    continue
                offset = int(new_offset)
                self._apply(UploadEvent.CHUNK_ACKED, blob=blob.name, offset=offset)


def upload_library(
    library: LibraryIndex,
    client_factory,
    *,
    parallelism: int = 2,
    chunk_bytes: int = DEFAULT_CHUNK_BYTES,
    max_retries: int = DEFAULT_MAX_RETRIES,
    backoff_base_s: float = DEFAULT_BACKOFF_BASE_S,
    backoff_cap_s: float = DEFAULT_BACKOFF_CAP_S,
    observer=None,
) -> dict:
    """Upload every resumable package in the library; distinct packages in
    parallel, each package serialized. Returns package_id -> final state."""

    def _run(entry: LibraryEntry) -> tuple[str, UploadState]:
        with closing(client_factory()) as client:
            uploader = Uploader(
                entry.path,
                entry.manifest,
                client,
                state=entry.state,
                chunk_bytes=chunk_bytes,
                max_retries=max_retries,
                backoff_base_s=backoff_base_s,
                backoff_cap_s=backoff_cap_s,
                observer=observer,
            )
            return entry.package_id, uploader.run()

    eligible = [
        e for e in library
        if e.ok and e.state is not None and e.state.status not in TERMINAL_STATUSES
    ]
    results = {}
    with ThreadPoolExecutor(max_workers=max(1, parallelism)) as pool:
        for pid, state in pool.map(_run, eligible):
            results[pid] = state
    return results
