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

Every file except manifest.json, upload_state.json and checked.sha256 is a
blob tracked in the manifest with size and sha256.

``load_package`` validates a package and decodes each stream once into
``StreamColumns`` (numpy arrays per field); the checks run on those
columns, and analysis reuses them. ``packstore.create_package`` runs the
same checks on the columns it is given before it writes them; ``query``
runs the order check on the one stream it decodes. ``read_stream(s)``
decode into records, for callers outside roadsense.

The memo holds the sha256 of the manifest.json bytes whose streams passed
every stream check (the manifest pins the stream bytes). ``create_package``
and a valid full pass write it. Only ``packstore.recover`` trusts it, to skip
the decode, and only when every stream is a blob, no blob has a reserved
name, every blob matches its size and sha256, and the memo equals the sha256
of the manifest bytes just read. A lost or torn memo costs one decode.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ParseError, ValidationError
from .model import (
    FrameRef,
    GpsFix,
    PackageManifest,
    SensorSample,
    StreamColumns,
    _first_not_increasing,
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

STREAM_NAMES = (SENSORS_NAME, GPS_NAME, FRAMES_NAME)
RESERVED_NAMES = frozenset({MANIFEST_NAME, UPLOAD_STATE_NAME, MEMO_NAME, _MEMO_TMP})

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
    """Replace the memo, without fsync; an OSError (a read-only mirror) is ignored."""
    try:
        (package_dir / _MEMO_TMP).write_bytes(memo_of(manifest_bytes))
        os.replace(package_dir / _MEMO_TMP, package_dir / MEMO_NAME)
    except OSError:
        pass


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


def load_package(package_dir: str | os.PathLike, *, _trust_memo: bool = False):
    """Validate a package and read it in the same pass.

    Returns ``(report, manifest, columns)``: the validate_package report,
    the parsed manifest (None when unreadable) and the ``StreamColumns``
    of ``(samples, gps, frames)`` (None unless every stream file exists
    and decodes). Each stream is read and decoded once, and no records are
    built. ``_trust_memo`` (for ``recover``) lets a fresh memo skip the decode.
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
    trusted = _trust_memo and memo_applies and fresh

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
        report.streams = [StreamCheck(name, monotonic_ok=True) for name in STREAM_NAMES]
        return report, manifest, None

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
    if report.valid and memo_applies and not fresh:
        write_memo(package_dir, manifest_bytes)

    return report, manifest, tuple(streams) if len(streams) == len(STREAM_NAMES) else None
