"""On-disk package layout: reading, writing, and integrity validation.

Layout (fixed):

    <package_id>/
      manifest.json        # canonical JSON
      sensors.jsonl        # one SensorSample per line
      gps.jsonl            # one GpsFix per line
      frames.jsonl         # one FrameRef per line
      frames/<NNNNNN>.jpg  # optional payloads
      upload_state.json    # sidecar, not a blob (see packstore)
      checked.sha256       # stream-check memo, not a blob (see below)
      checked.columns      # column memo, not a blob (see below)

Every file except manifest.json, upload_state.json and the two memos is a
blob tracked in the manifest with size and sha256.

``load_package`` validates a package and decodes each stream once into
``StreamColumns`` (numpy arrays per field); the checks run on those
columns, and analysis reuses them. ``packstore.create_package`` runs the
same checks on the columns it is given before it writes them; ``query``
runs the order check on the one stream it decodes. ``read_stream(s)``
decode into records, for callers outside roadsense.

The stream-check memo holds the sha256 of the manifest.json bytes whose
streams passed every stream check (the manifest pins the stream bytes).
``create_package`` and a valid full pass write it. The column memo holds
the decoded columns of those streams: a version line, a JSON line naming
each field's dtype and length, each array's raw bytes and the frame
``file`` list as JSON, and last ``sha256(memo_of(manifest bytes) +
everything before it)``, which ties it to one manifest. Only a valid full
pass writes it (not ``create_package``), and neither memo is rewritten
while it is fresh. Both are written through a temp file and ``os.replace``
without fsync; an OSError (a read-only mirror) is ignored.

A memo is trusted only when every stream is a blob, no blob has a reserved
name, every blob matches its size and sha256, and the stream-check memo
equals the sha256 of the manifest bytes just read. ``packstore.recover``
then skips the decode and never opens the column memo. ``report.analyze``
then takes the columns from the column memo when its digest matches and
its columns pass the decoder's shape, value and order checks; otherwise it
decodes, and that valid pass writes the column memo again. ``roadsense
validate`` always decodes. A lost, torn or stale memo costs one decode.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ParseError, ValidationError
from .model import (
    FrameRef,
    GpsFix,
    PackageManifest,
    SensorSample,
    StreamColumns,
    _first_not_increasing,
    _shaped_columns,
    _valid_columns,
    decode_jsonl_columns,
    decode_jsonl_stream,
    parse_manifest,
)

MANIFEST_NAME = "manifest.json"
SENSORS_NAME = "sensors.jsonl"
GPS_NAME = "gps.jsonl"
FRAMES_NAME = "frames.jsonl"
UPLOAD_STATE_NAME = "upload_state.json"
MEMO_NAME = "checked.sha256"
_MEMO_TMP = MEMO_NAME + ".tmp"
COLUMNS_NAME = "checked.columns"
_COLUMNS_TMP = COLUMNS_NAME + ".tmp"
_COLUMNS_VERSION = b"roadsense-columns 1\n"

STREAM_NAMES = (SENSORS_NAME, GPS_NAME, FRAMES_NAME)
RESERVED_NAMES = frozenset(
    {MANIFEST_NAME, UPLOAD_STATE_NAME, MEMO_NAME, _MEMO_TMP, COLUMNS_NAME, _COLUMNS_TMP}
)

_STREAM_TYPES = {
    SENSORS_NAME: SensorSample,
    GPS_NAME: GpsFix,
    FRAMES_NAME: FrameRef,
}


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def memo_of(manifest_bytes: bytes) -> bytes:
    """The memo's contents for a manifest whose streams passed their checks."""
    return hashlib.sha256(manifest_bytes).hexdigest().encode() + b"\n"


def write_memo(package_dir: Path, manifest_bytes: bytes) -> None:
    """Replace the memo, without fsync; on an OSError (a read-only mirror)
    the temp file is removed and the memo left as it was."""
    tmp = package_dir / _MEMO_TMP
    try:
        tmp.write_bytes(memo_of(manifest_bytes))
        os.replace(tmp, package_dir / MEMO_NAME)
    except OSError:
        with contextlib.suppress(OSError):
            tmp.unlink(missing_ok=True)


def write_columns(package_dir: Path, manifest_bytes: bytes, streams) -> None:
    """Replace the column memo with *streams*, the (samples, gps, frames)
    columns of the manifest's streams, which passed every check.

    The parts are hashed and written one at a time, never joined into one
    payload. Without fsync; on an OSError (a read-only mirror) the temp
    file is removed and the memo left as it was.
    """
    layout, parts = [], []
    for cols in streams:
        entry = []
        for name, v in cols.fields.items():
            if isinstance(v, list):
                v = json.dumps(v).encode()
                entry.append([name, "json", len(v)])
            else:
                entry.append([name, v.dtype.str, len(v)])
            parts.append(v)
        layout.append(entry)
    head = _COLUMNS_VERSION + json.dumps(layout).encode()
    head += b" " * (-(len(head) + 1) % 8) + b"\n"
    digest = hashlib.sha256(memo_of(manifest_bytes))
    tmp = package_dir / _COLUMNS_TMP
    try:
        with open(tmp, "wb") as f:
            for part in (head, *parts):
                # zero padding to a multiple of 8 bytes keeps every array aligned
                for piece in (part, b"\0" * (-memoryview(part).nbytes % 8)):
                    digest.update(piece)
                    f.write(piece)
            f.write(digest.digest())
        os.replace(tmp, package_dir / COLUMNS_NAME)
    except OSError:
        with contextlib.suppress(OSError):
            tmp.unlink(missing_ok=True)


def read_columns(package_dir: Path, manifest_bytes: bytes):
    """The (samples, gps, frames) ``StreamColumns`` held by a fresh column
    memo, or None when it is missing, torn, made for other manifest bytes,
    or holds columns that ``decode_jsonl_columns`` could not have given or
    that fail the stream checks (shape, values, order)."""
    try:
        with open(package_dir / COLUMNS_NAME, "rb") as f:
            buf = bytearray(os.fstat(f.fileno()).st_size)
            if f.readinto(buf) != len(buf):
                return None
    except OSError:
        return None
    if len(buf) < 32:
        return None
    view = memoryview(buf)
    digest = hashlib.sha256(memo_of(manifest_bytes))
    digest.update(view[:-32])
    if digest.digest() != buf[-32:]:
        return None
    streams = []
    try:
        if not buf.startswith(_COLUMNS_VERSION):
            return None
        pos = buf.index(b"\n", len(_COLUMNS_VERSION)) + 1
        layout = json.loads(buf[len(_COLUMNS_VERSION):pos])
        if len(layout) != len(STREAM_NAMES):
            return None
        for name, entry in zip(STREAM_NAMES, layout):
            cols = {}
            for field, dtype, count in entry:
                if type(count) is not int or count < 0:
                    return None
                if dtype == "json":
                    cols[field] = json.loads(bytes(view[pos:pos + count]))
                    size = count
                else:
                    cols[field] = np.frombuffer(buf, np.dtype(dtype), count, pos)
                    size = cols[field].nbytes
                pos += size + -size % 8  # the writer's padding
            record_cls = _STREAM_TYPES[name]
            if not (_shaped_columns(cols, record_cls) and _valid_columns(cols, record_cls)):
                return None
            cols = StreamColumns(cols)
            if not _check_monotonic(name, cols).ok:
                return None
            streams.append(cols)
    except (ValueError, TypeError, OverflowError, RecursionError):
        return None  # a layout or JSON that the writer never produces
    return tuple(streams) if pos == len(buf) - 32 else None


def read_manifest(package_dir: str | os.PathLike) -> PackageManifest:
    path = Path(package_dir) / MANIFEST_NAME
    return parse_manifest(path.read_bytes())


def read_stream(package_dir: str | os.PathLike, name: str):
    """Read one of the three JSONL streams into typed records."""
    if name not in _STREAM_TYPES:
        raise ValueError(f"unknown stream {name!r}; expected one of {STREAM_NAMES}")
    data = (Path(package_dir) / name).read_bytes()
    return decode_jsonl_stream(data, _STREAM_TYPES[name], name)


def read_streams(package_dir: str | os.PathLike):
    """Read (samples, gps, frames) from a package directory."""
    return tuple(read_stream(package_dir, n) for n in STREAM_NAMES)


@dataclass(frozen=True)
class BlobCheck:
    name: str
    present: bool
    size_ok: bool | None = None      # None when the file is missing
    sha256_ok: bool | None = None

    @property
    def ok(self) -> bool:
        return self.present and bool(self.size_ok) and bool(self.sha256_ok)


@dataclass(frozen=True)
class StreamCheck:
    name: str
    monotonic_ok: bool
    detail: str | None = None

    @property
    def ok(self) -> bool:
        return self.monotonic_ok


@dataclass
class ValidationReport:
    """Outcome of validate_package: per-blob and per-stream checks."""

    package_id: str | None
    blobs: list[BlobCheck] = field(default_factory=list)
    streams: list[StreamCheck] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)

    @property
    def valid(self) -> bool:
        return (
            not self.problems
            and all(b.ok for b in self.blobs)
            and all(s.ok for s in self.streams)
        )

    def summary_lines(self) -> list[str]:
        lines = []
        for b in self.blobs:
            if not b.present:
                lines.append(f"blob {b.name}: MISSING")
            elif not b.size_ok:
                lines.append(f"blob {b.name}: size mismatch")
            elif not b.sha256_ok:
                lines.append(f"blob {b.name}: sha256 mismatch")
            else:
                lines.append(f"blob {b.name}: ok")
        for s in self.streams:
            lines.append(f"stream {s.name}: {'ok' if s.ok else s.detail or 'not monotonic'}")
        lines.extend(self.problems)
        return lines


def _check_monotonic(name: str, cols: StreamColumns) -> StreamCheck:
    i = _first_not_increasing(cols["t"])
    if i is not None:
        return StreamCheck(
            name,
            monotonic_ok=False,
            detail=f"timestamp not strictly increasing at record {i} (t={int(cols['t'][i])})",
        )
    if name == FRAMES_NAME:
        i = _first_not_increasing(cols["index"])
        if i is not None:
            return StreamCheck(
                name,
                monotonic_ok=False,
                detail=f"frame index not strictly increasing at record {i}",
            )
    return StreamCheck(name, monotonic_ok=True)


def validate_package(package_dir: str | os.PathLike) -> ValidationReport:
    """Check every manifest blob (presence, size, sha256) and every stream
    for strictly increasing timestamps.

    The package is valid iff all checks pass. An unreadable directory
    raises OSError; a corrupt manifest is reported, not raised.
    """
    return load_package(package_dir)[0]


def load_package(
    package_dir: str | os.PathLike, *, _trust_memo: bool = False, _columns_memo: bool = False
):
    """Validate a package and read it in the same pass.

    Returns ``(report, manifest, columns)``: the validate_package report,
    the parsed manifest (None when unreadable) and the ``StreamColumns``
    of ``(samples, gps, frames)`` (None unless every stream file exists
    and decodes). Each stream is read and decoded once, and no records are
    built. ``_trust_memo`` (for ``recover``) lets a trusted memo skip the
    decode, with no columns returned; ``_columns_memo`` (for ``analyze``)
    takes the columns from a trusted, fresh column memo instead.
    """
    package_dir = Path(package_dir)
    if not package_dir.is_dir():
        raise FileNotFoundError(f"package directory does not exist: {package_dir}")

    manifest_path = package_dir / MANIFEST_NAME
    if not manifest_path.is_file():
        problem = f"{MANIFEST_NAME} missing"
        return ValidationReport(package_id=None, problems=[problem]), None, None
    manifest_bytes = manifest_path.read_bytes()
    try:
        manifest = parse_manifest(manifest_bytes)
    except (ParseError, ValidationError) as e:
        problem = f"{MANIFEST_NAME}: {e}"
        return ValidationReport(package_id=None, problems=[problem]), None, None

    names = {blob.name for blob in manifest.blobs}
    memo_applies = names.issuperset(STREAM_NAMES) and names.isdisjoint(RESERVED_NAMES)
    try:
        fresh = (package_dir / MEMO_NAME).read_bytes() == memo_of(manifest_bytes)
    except OSError:
        fresh = False
    trusted = (_trust_memo or _columns_memo) and memo_applies and fresh

    report = ValidationReport(package_id=manifest.package_id)
    data = {}  # stream name -> its bytes, read once to hash and to decode
    for blob in manifest.blobs:
        path = package_dir / blob.name
        if not path.is_file():
            report.blobs.append(BlobCheck(blob.name, present=False))
            continue
        if blob.name in _STREAM_TYPES and not trusted:
            data[blob.name] = path.read_bytes()
            size, sha = len(data[blob.name]), hashlib.sha256(data[blob.name]).hexdigest()
        else:
            size, sha = path.stat().st_size, sha256_file(path)
        report.blobs.append(BlobCheck(
            blob.name, present=True, size_ok=size == blob.bytes, sha256_ok=sha == blob.sha256,
        ))
    if trusted and all(b.ok for b in report.blobs):
        columns = read_columns(package_dir, manifest_bytes) if _columns_memo else None
        if columns is not None or not _columns_memo:
            report.streams = [StreamCheck(name, monotonic_ok=True) for name in STREAM_NAMES]
            return report, manifest, columns

    streams = []
    for name in STREAM_NAMES:
        path = package_dir / name
        if not path.is_file():
            continue  # absence already reported via the blob check
        raw = data.pop(name) if name in data else path.read_bytes()
        try:
            cols = decode_jsonl_columns(raw, _STREAM_TYPES[name], name)
        except (ParseError, ValidationError) as e:
            report.streams.append(StreamCheck(name, monotonic_ok=False, detail=str(e)))
            continue
        report.streams.append(_check_monotonic(name, cols))
        streams.append(cols)
    streams = tuple(streams) if len(streams) == len(STREAM_NAMES) else None
    if report.valid and memo_applies:
        if not fresh:
            write_memo(package_dir, manifest_bytes)
        # recover leaves the column memo alone; for analyze, a trusted pass
        # that got here has just found it wanting
        if not _trust_memo and (trusted or read_columns(package_dir, manifest_bytes) is None):
            write_columns(package_dir, manifest_bytes, streams)

    return report, manifest, streams
