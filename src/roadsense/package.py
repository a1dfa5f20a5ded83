"""On-disk package layout: reading, writing, and integrity validation.

Layout (fixed):

    <package_id>/
      manifest.json        # canonical JSON
      sensors.jsonl        # one SensorSample per line
      gps.jsonl            # one GpsFix per line
      frames.jsonl         # one FrameRef per line
      frames/<NNNNNN>.jpg  # optional payloads
      upload_state.json    # sidecar, not a blob (see packstore)

Every file except manifest.json and upload_state.json is a blob tracked
in the manifest with size and sha256.
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
    decode_jsonl_stream,
    parse_manifest,
)

MANIFEST_NAME = "manifest.json"
SENSORS_NAME = "sensors.jsonl"
GPS_NAME = "gps.jsonl"
FRAMES_NAME = "frames.jsonl"
UPLOAD_STATE_NAME = "upload_state.json"

STREAM_NAMES = (SENSORS_NAME, GPS_NAME, FRAMES_NAME)

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


def _check_monotonic(name: str, records) -> StreamCheck:
    prev_t = None
    for i, r in enumerate(records):
        if prev_t is not None and r.t <= prev_t:
            return StreamCheck(
                name,
                monotonic_ok=False,
                detail=f"timestamp not strictly increasing at record {i} (t={r.t})",
            )
        prev_t = r.t
    if name == FRAMES_NAME:
        prev_idx = None
        for i, r in enumerate(records):
            if prev_idx is not None and r.index <= prev_idx:
                return StreamCheck(
                    name,
                    monotonic_ok=False,
                    detail=f"frame index not strictly increasing at record {i}",
                )
            prev_idx = r.index
    return StreamCheck(name, monotonic_ok=True)


def validate_package(package_dir: str | os.PathLike) -> ValidationReport:
    """Check every manifest blob (presence, size, sha256) and every stream
    for strictly increasing timestamps.

    The package is valid iff all checks pass. An unreadable directory
    raises OSError; a corrupt manifest is reported, not raised.
    """
    return load_package(package_dir)[0]


def load_package(package_dir: str | os.PathLike):
    """Validate a package and read it in the same pass.

    Returns ``(report, manifest, streams)``: the validate_package report,
    the parsed manifest (None when unreadable) and the decoded
    ``(samples, gps, frames)`` (None unless every stream file exists and
    decodes). Each stream is decoded once.
    """
    package_dir = Path(package_dir)
    if not package_dir.is_dir():
        raise FileNotFoundError(f"package directory does not exist: {package_dir}")

    manifest_path = package_dir / MANIFEST_NAME
    if not manifest_path.is_file():
        problem = f"{MANIFEST_NAME} missing"
        return ValidationReport(package_id=None, problems=[problem]), None, None
    try:
        manifest = parse_manifest(manifest_path.read_bytes())
    except (ParseError, ValidationError) as e:
        problem = f"{MANIFEST_NAME}: {e}"
        return ValidationReport(package_id=None, problems=[problem]), None, None

    report = ValidationReport(package_id=manifest.package_id)
    for blob in manifest.blobs:
        path = package_dir / blob.name
        if not path.is_file():
            report.blobs.append(BlobCheck(blob.name, present=False))
            continue
        size_ok = path.stat().st_size == blob.bytes
        sha_ok = sha256_file(path) == blob.sha256
        report.blobs.append(
            BlobCheck(blob.name, present=True, size_ok=size_ok, sha256_ok=sha_ok)
        )

    streams = []
    for name in STREAM_NAMES:
        path = package_dir / name
        if not path.is_file():
            continue  # absence already reported via the blob check
        try:
            records = decode_jsonl_stream(path.read_bytes(), _STREAM_TYPES[name], name)
        except (ParseError, ValidationError) as e:
            report.streams.append(StreamCheck(name, monotonic_ok=False, detail=str(e)))
            continue
        report.streams.append(_check_monotonic(name, records))
        streams.append(records)

    return report, manifest, tuple(streams) if len(streams) == len(STREAM_NAMES) else None
