"""Data model for a recording session ("package").

A package is one recording session: a manifest plus three timestamped
streams (IMU samples, GPS fixes, frame references). Timestamps inside the
streams are session-relative integer milliseconds; the wall-clock anchor
lives only in the manifest. Units are SI throughout: m/s² for
acceleration, rad/s for angular rate, meters and m/s for GPS.

A stream has two decoded forms. ``decode_jsonl_columns`` gives
``StreamColumns``, one numpy array per field, and ``encode_jsonl_columns``
writes them back; the simulator, ``packstore.create_package``,
validation, the ``query`` command and the whole analysis core
(``timeline.align_streams``, ``kinematics``, ``report``) work on these
only. ``decode_jsonl_stream`` gives a list of records (``SensorSample``,
``GpsFix``, ``FrameRef``), which remain only in the public
``package.read_stream(s)`` API; the record decoder is also the error
oracle of the column decoder. Both accept and reject the same bytes,
except that the columns also refuse an integer beyond int64.

Memory stays bounded by a block: the column decoder turns the bytes into
text one slice of whole lines at a time (about ``_SLICE_BYTES``) and holds
at most ``_BLOCK_LINES`` parsed objects, and ``packstore.create_package``
encodes, writes and hashes a stream ``_BLOCK_LINES`` rows at a time.

The records are immutable values whose invariants are checked at
construction, and they are the one statement of those invariants: the
column decoder checks the same rules on whole arrays, and hands any
stream that fails them to the record decoder, so that errors carry the
same message and offset.
"""

from __future__ import annotations

import json
import math
import re
import uuid
from dataclasses import dataclass, field
from json.encoder import encode_basestring

import numpy as np

from .canonical import dumps_canonical
from .errors import ParseError, UnsupportedVersionError, ValidationError

SCHEMA_VERSION = 1

_SHA256_RE = re.compile(r"^[0-9a-f]{64}$")


def _require_finite(name: str, value) -> float:
    v = float(value)
    if not math.isfinite(v):
        raise ValidationError(f"{name} must be finite, got {value!r}", field=name)
    return v


def _require_session_ms(name: str, value) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValidationError(f"{name} must be an integer ms value", field=name)
    if value < 0:
        raise ValidationError(f"{name} must be >= 0, got {value}", field=name)
    return value


@dataclass(frozen=True)
class SensorSample:
    """One 6-axis IMU reading at session time ``t`` (ms)."""

    t: int
    ax: float
    ay: float
    az: float
    gx: float
    gy: float
    gz: float

    def __post_init__(self):
        _require_session_ms("t", self.t)
        for name in ("ax", "ay", "az", "gx", "gy", "gz"):
            object.__setattr__(self, name, _require_finite(name, getattr(self, name)))

    @classmethod
    def from_dict(cls, d: dict) -> "SensorSample":
        try:
            return cls(
                t=d["t"],
                ax=d["ax"],
                ay=d["ay"],
                az=d["az"],
                gx=d["gx"],
                gy=d["gy"],
                gz=d["gz"],
            )
        except KeyError as e:
            raise ValidationError(f"sensor sample missing field {e.args[0]!r}", field=e.args[0])


@dataclass(frozen=True)
class GpsFix:
    """One GPS fix at session time ``t`` (ms).

    ``speed_mps`` and ``h_acc_m`` may be absent (None).
    """

    t: int
    lat: float
    lon: float
    alt_m: float
    speed_mps: float | None = None
    h_acc_m: float | None = None

    def __post_init__(self):
        _require_session_ms("t", self.t)
        lat = _require_finite("lat", self.lat)
        lon = _require_finite("lon", self.lon)
        if not -90.0 <= lat <= 90.0:
            raise ValidationError(f"lat out of range [-90,90]: {lat}", field="lat")
        if not -180.0 <= lon <= 180.0:
            raise ValidationError(f"lon out of range [-180,180]: {lon}", field="lon")
        object.__setattr__(self, "lat", lat)
        object.__setattr__(self, "lon", lon)
        object.__setattr__(self, "alt_m", _require_finite("alt_m", self.alt_m))
        if self.speed_mps is not None:
            v = _require_finite("speed_mps", self.speed_mps)
            if v < 0:
                raise ValidationError(f"speed_mps must be >= 0, got {v}", field="speed_mps")
            object.__setattr__(self, "speed_mps", v)
        if self.h_acc_m is not None:
            v = _require_finite("h_acc_m", self.h_acc_m)
            if v < 0:
                raise ValidationError(f"h_acc_m must be >= 0, got {v}", field="h_acc_m")
            object.__setattr__(self, "h_acc_m", v)

    @classmethod
    def from_dict(cls, d: dict) -> "GpsFix":
        try:
            return cls(
                t=d["t"],
                lat=d["lat"],
                lon=d["lon"],
                alt_m=d["alt_m"],
                speed_mps=d.get("speed_mps"),
                h_acc_m=d.get("h_acc_m"),
            )
        except KeyError as e:
            raise ValidationError(f"gps fix missing field {e.args[0]!r}", field=e.args[0])


@dataclass(frozen=True)
class FrameRef:
    """Metadata reference to one captured video frame.

    ``file`` is a path relative to the package directory; absolute paths
    and ``..`` components are rejected so a manifest can never point
    outside its package.
    """

    t: int
    index: int
    file: str

    def __post_init__(self):
        _require_session_ms("t", self.t)
        if not isinstance(self.index, int) or isinstance(self.index, bool) or self.index < 0:
            raise ValidationError(f"frame index must be >= 0, got {self.index!r}", field="index")
        _check_relative_path("file", self.file)

    @classmethod
    def from_dict(cls, d: dict) -> "FrameRef":
        try:
            return cls(t=d["t"], index=d["index"], file=d["file"])
        except KeyError as e:
            raise ValidationError(f"frame ref missing field {e.args[0]!r}", field=e.args[0])


def _check_relative_path(field_name: str, p) -> str:
    if not isinstance(p, str) or not p:
        raise ValidationError(f"{field_name} must be a nonempty string", field=field_name)
    if p.startswith("/") or "\\" in p:
        raise ValidationError(f"{field_name} must be a relative POSIX path: {p!r}", field=field_name)
    parts = p.split("/")
    if any(part in ("", ".", "..") for part in parts):
        raise ValidationError(f"{field_name} must stay inside the package: {p!r}", field=field_name)
    return p


def _relative_paths(paths) -> bool:
    """Whether every path passes ``_check_relative_path``, in one scan.

    Joined with "/" and wrapped in it, the paths' components are exactly
    the pieces between slashes, so an empty path, a leading or trailing
    "/" and an empty, "." or ".." component each leave "//", "/./" or
    "/../" in the joined text, and valid paths leave none of them.
    """
    if len(paths) == 0:
        return True
    try:
        joined = "/" + "/".join(paths) + "/"
    except TypeError:  # a path that is not a string
        return False
    return not any(bad in joined for bad in ("\\", "//", "/./", "/../"))


@dataclass(frozen=True)
class BlobEntry:
    """One payload file tracked by the manifest."""

    name: str
    bytes: int
    sha256: str

    def __post_init__(self):
        _check_relative_path("name", self.name)
        if not isinstance(self.bytes, int) or isinstance(self.bytes, bool) or self.bytes < 0:
            raise ValidationError(f"blob bytes must be >= 0, got {self.bytes!r}", field="bytes")
        if not isinstance(self.sha256, str) or not _SHA256_RE.match(self.sha256):
            raise ValidationError(
                f"blob sha256 must be 64 lowercase hex chars, got {self.sha256!r}",
                field="sha256",
            )


@dataclass(frozen=True)
class PackageManifest:
    """Session metadata plus the package's blob list and digests."""

    package_id: str
    device_id: str
    started_at_ms: int
    ended_at_ms: int
    blobs: tuple[BlobEntry, ...]
    sensor_rate_hz: int = 30
    frame_rate_fps: int = 10
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self):
        if self.schema_version != SCHEMA_VERSION:
            raise ValidationError(
                f"schema_version must be {SCHEMA_VERSION}, got {self.schema_version!r}",
                field="schema_version",
            )
        try:
            uuid.UUID(self.package_id)
        except (ValueError, AttributeError, TypeError):
            raise ValidationError(
                f"package_id must be a UUID string, got {self.package_id!r}",
                field="package_id",
            )
        if not isinstance(self.device_id, str) or not self.device_id:
            raise ValidationError("device_id must be a nonempty string", field="device_id")
        for name in ("started_at_ms", "ended_at_ms"):
            v = getattr(self, name)
            if not isinstance(v, int) or isinstance(v, bool):
                raise ValidationError(f"{name} must be an integer", field=name)
        if self.ended_at_ms < self.started_at_ms:
            raise ValidationError(
                f"ended_at_ms ({self.ended_at_ms}) < started_at_ms ({self.started_at_ms})",
                field="ended_at_ms",
            )
        if not isinstance(self.sensor_rate_hz, int) or self.sensor_rate_hz <= 0:
            raise ValidationError(
                f"sensor_rate_hz must be > 0, got {self.sensor_rate_hz!r}",
                field="sensor_rate_hz",
            )
        if not isinstance(self.frame_rate_fps, int) or self.frame_rate_fps < 0:
            raise ValidationError(
                f"frame_rate_fps must be >= 0, got {self.frame_rate_fps!r}",
                field="frame_rate_fps",
            )
        object.__setattr__(self, "blobs", tuple(self.blobs))
        names = [b.name for b in self.blobs]
        if len(names) != len(set(names)):
            dup = next(n for n in names if names.count(n) > 1)
            raise ValidationError(f"duplicate blob name {dup!r}", field="blobs")

    def blob(self, name: str) -> BlobEntry | None:
        for b in self.blobs:
            if b.name == name:
                return b
        return None


def serialize_manifest(m: PackageManifest) -> bytes:
    """Encode *m* as canonical JSON (sorted keys, deterministic bytes)."""
    doc = {
        "schema_version": m.schema_version,
        "package_id": m.package_id,
        "device_id": m.device_id,
        "started_at_ms": m.started_at_ms,
        "ended_at_ms": m.ended_at_ms,
        "sensor_rate_hz": m.sensor_rate_hz,
        "frame_rate_fps": m.frame_rate_fps,
        "blobs": [
            {"name": b.name, "bytes": b.bytes, "sha256": b.sha256} for b in m.blobs
        ],
    }
    return dumps_canonical(doc)


def parse_manifest(b: bytes) -> PackageManifest:
    """Decode and validate manifest bytes.

    Raises ParseError (with byte offset) on malformed JSON,
    UnsupportedVersionError on a foreign schema_version, and
    ValidationError when an invariant fails.
    """
    if isinstance(b, str):
        b = b.encode("utf-8")
    try:
        doc = json.loads(b.decode("utf-8"))
    except UnicodeDecodeError as e:
        raise ParseError(f"manifest is not UTF-8: {e}", offset=e.start)
    except json.JSONDecodeError as e:
        raise ParseError(f"malformed manifest JSON: {e.msg}", offset=e.pos)
    if not isinstance(doc, dict):
        raise ParseError("manifest JSON must be an object", offset=0)
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise UnsupportedVersionError(
            f"unsupported schema_version {version!r} (expected {SCHEMA_VERSION})"
        )
    blobs_doc = doc.get("blobs")
    if not isinstance(blobs_doc, list):
        raise ValidationError("blobs must be a list", field="blobs")
    blobs = []
    for entry in blobs_doc:
        if not isinstance(entry, dict):
            raise ValidationError("each blob must be an object", field="blobs")
        try:
            blobs.append(
                BlobEntry(name=entry["name"], bytes=entry["bytes"], sha256=entry["sha256"])
            )
        except KeyError as e:
            raise ValidationError(f"blob entry missing field {e.args[0]!r}", field="blobs")
    try:
        return PackageManifest(
            package_id=doc["package_id"],
            device_id=doc["device_id"],
            started_at_ms=doc["started_at_ms"],
            ended_at_ms=doc["ended_at_ms"],
            blobs=tuple(blobs),
            sensor_rate_hz=doc.get("sensor_rate_hz", 30),
            frame_rate_fps=doc.get("frame_rate_fps", 10),
            schema_version=version,
        )
    except KeyError as e:
        raise ValidationError(f"manifest missing field {e.args[0]!r}", field=e.args[0])


def decode_jsonl_stream(data: bytes, record_cls, stream_name: str):
    """Decode a JSONL blob into a list of *record_cls* records.

    Enforces the line discipline (UTF-8, LF, no trailing whitespace) only
    loosely: each nonempty line must parse as one JSON object.
    """
    records = []
    offset = 0
    for lineno, raw in enumerate(data.split(b"\n"), start=1):
        if raw == b"":
            offset += 1
            continue
        try:
            d = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as e:
            pos = getattr(e, "pos", 0) or 0
            raise ParseError(
                f"{stream_name}: bad JSONL at line {lineno}", offset=offset + pos
            )
        if not isinstance(d, dict):
            raise ParseError(f"{stream_name}: line {lineno} is not an object", offset=offset)
        records.append(record_cls.from_dict(d))
        offset += len(raw) + 1
    return records


class StreamColumns:
    """One decoded stream as numpy columns, one per record field.

    ``t`` (and a frame's ``index``) is int64, every other number float64.
    The optional GPS fields ``speed_mps`` and ``h_acc_m`` are NaN where a
    fix has none, with a bool mask ``has_speed_mps`` / ``has_h_acc_m``; a
    frame's ``file`` is a list of str. ``len`` is the record count.
    """

    __slots__ = ("fields",)

    def __init__(self, fields: dict):
        self.fields = dict(fields)

    def __getitem__(self, name: str):
        return self.fields[name]

    def __len__(self) -> int:
        return len(self.fields["t"])

    def __repr__(self) -> str:
        return f"StreamColumns({sorted(self.fields)}, n={len(self)})"


def _first_not_increasing(v: np.ndarray) -> int | None:
    """Position of the first value not above the one before it, or None:
    the strict-order rule for a stream's ``t`` and a frame's ``index``."""
    bad = np.flatnonzero(v[1:] <= v[:-1])  # compared, not subtracted: no overflow
    return int(bad[0]) + 1 if bad.size else None


# column kind per record field: "int" (int64 >= 0), "float" (finite),
# "optional" (finite or absent), "str"
_COLUMN_KINDS = {
    SensorSample: (("t", "int"),) + tuple((n, "float") for n in ("ax", "ay", "az", "gx", "gy", "gz")),
    GpsFix: (
        ("t", "int"), ("lat", "float"), ("lon", "float"), ("alt_m", "float"),
        ("speed_mps", "optional"), ("h_acc_m", "optional"),
    ),
    FrameRef: (("t", "int"), ("index", "int"), ("file", "str")),
}
# the value types the column decoder takes as they are, per kind; anything
# else (a bool, a numeric string) is left to the record decoder
_FAST_TYPES = {
    "int": frozenset({int}),
    "float": frozenset({int, float}),
    "optional": frozenset({int, float, type(None)}),
    "str": frozenset({str}),
}
INT64_MAX = np.iinfo(np.int64).max
_BLOCK_LINES = 1024  # decoded JSON objects decode_jsonl_columns holds at once
_SLICE_BYTES = 1 << 18  # a decoded slice runs to the first newline past this many bytes
_JSON = json.JSONDecoder()


def _put_column(cols: dict, name: str, kind: str, values: list) -> None:
    """Store one field's values as its column (and mask, when optional)."""
    if kind == "int":
        cols[name] = np.array(values, dtype=np.int64)
    elif kind == "float":
        cols[name] = np.array(values, dtype=np.float64)
    elif kind == "str":
        cols[name] = values
    else:
        cols[name] = np.array([math.nan if v is None else v for v in values], dtype=np.float64)
        cols["has_" + name] = np.array([v is not None for v in values], dtype=bool)


def _shaped_columns(cols: dict, record_cls) -> bool:
    """Whether *cols* has the fields, types and one length that
    ``decode_jsonl_columns`` gives a stream of *record_cls*; the type of
    a list's items is left to ``_valid_columns``."""
    empty = columns_from_records((), record_cls).fields
    if set(cols) != set(empty):
        return False
    for name, e in empty.items():
        v = cols[name]
        if type(v) is not type(e) or (type(v) is np.ndarray and (v.dtype, v.ndim) != (e.dtype, 1)):
            return False
    return len({len(v) for v in cols.values()}) == 1


def _valid_columns(cols: dict, record_cls) -> bool:
    """Every invariant the record constructors check, on whole columns."""
    for name, kind in _COLUMN_KINDS[record_cls]:
        v = cols[name]
        if kind == "int" and (v < 0).any():
            return False
        if kind == "float" and not np.isfinite(v).all():
            return False
        if kind == "optional":
            present = v[cols["has_" + name]]
            if not (np.isfinite(present).all() and (present >= 0).all()):
                return False
    if record_cls is GpsFix:
        if not ((np.abs(cols["lat"]) <= 90.0).all() and (np.abs(cols["lon"]) <= 180.0).all()):
            return False
    if record_cls is FrameRef and not _relative_paths(cols["file"]):
        return False
    return True


def _fast_columns(data: bytes, record_cls) -> dict | None:
    """Columns of a stream in which every nonempty line is exactly one
    JSON object holding valid field values; None for any other stream.

    The bytes are decoded one slice of whole lines at a time, about
    ``_SLICE_BYTES`` each, and a newline byte is never part of a multibyte
    UTF-8 character, so a slice decodes exactly when its lines do. Each
    line is parsed on its own span of the decoded text, so a line that is
    not one complete object never passes, even when the lines joined
    together would parse.
    """
    kinds = _COLUMN_KINDS[record_cls]
    blocks = []

    def take(docs: list) -> bool:
        block = {}
        for name, kind in kinds:
            values = [d.get(name) for d in docs] if kind == "optional" else [d[name] for d in docs]
            if not set(map(type, values)) <= _FAST_TYPES[kind]:
                return False
            _put_column(block, name, kind, values)
        blocks.append(block)
        return True

    scan = _JSON.raw_decode
    try:
        docs = []
        start = 0  # where the current slice starts in data
        while start < len(data):
            # whole lines: up to the first newline past _SLICE_BYTES, or the end
            cut = data.find(b"\n", start + _SLICE_BYTES) + 1 or len(data)
            text = str(data[start:cut], "utf-8")
            start = cut
            size = len(text)
            pos = 0  # where the current line starts in text
            while pos < size:
                end = text.find("\n", pos)
                if end < 0:
                    end = size
                if end > pos:
                    d, stop = scan(text, pos)
                    if stop != end or type(d) is not dict:
                        return None
                    docs.append(d)
                    if len(docs) == _BLOCK_LINES:
                        if not take(docs):
                            return None
                        docs = []
                pos = end + 1
        if not take(docs):
            return None
    except (ValueError, KeyError, OverflowError, RecursionError):
        # UnicodeDecodeError and JSONDecodeError are ValueErrors
        return None

    cols = {}
    for key, first in blocks[0].items():
        parts = [block[key] for block in blocks]
        cols[key] = [v for p in parts for v in p] if isinstance(first, list) else np.concatenate(parts)
    return cols if _valid_columns(cols, record_cls) else None


def columns_from_records(records, record_cls) -> StreamColumns:
    """The columns of a record sequence (see StreamColumns); an integer
    field beyond int64 raises ValidationError naming the field."""
    cols = {}
    for name, kind in _COLUMN_KINDS[record_cls]:
        try:
            _put_column(cols, name, kind, [getattr(r, name) for r in records])
        except OverflowError:
            raise ValidationError(f"{name} beyond the int64 range", field=name) from None
    return StreamColumns(cols)


def encode_jsonl_columns(cols: StreamColumns, record_cls) -> bytes:
    """Encode a stream's columns as LF-terminated JSONL: per record, the
    bytes of ``json.dumps`` with minimal separators and ``ensure_ascii=False``,
    fields in ``_COLUMN_KINDS`` order (``t`` first), an optional field left
    out where its mask is false. Values are not checked (see ``_valid_columns``).
    """
    template, values = "{", []
    for name, kind in _COLUMN_KINDS[record_cls]:
        key = ("" if template == "{" else ",") + f'"{name}":'
        if kind == "optional":
            template += "%s"
            present = zip(cols[name].tolist(), cols["has_" + name].tolist())
            values.append([key + repr(v) if has else "" for v, has in present])
        elif kind == "str":
            template += key + "%s"
            values.append(list(map(encode_basestring, cols[name])))
        else:
            template += key + ("%d" if kind == "int" else "%r")
            values.append(cols[name].tolist())
    template += "}\n"
    return "".join(map(template.__mod__, zip(*values))).encode("utf-8")


def decode_jsonl_columns(data: bytes, record_cls, stream_name: str) -> StreamColumns:
    """Decode a JSONL blob of *record_cls* records straight into columns.

    Accepts exactly what ``decode_jsonl_stream`` accepts, with the same
    values, and raises what it raises: a stream the column checks do not
    pass is decoded by ``decode_jsonl_stream``, whose exception (type,
    message, offset) is the result, and whose records become the columns
    when it succeeds (for example on a bool or a numeric string that
    ``float()`` takes). The one difference: an integer field beyond int64
    raises ValidationError naming the line.
    """
    cols = _fast_columns(data, record_cls)
    if cols is not None:
        return StreamColumns(cols)
    records = decode_jsonl_stream(data, record_cls, stream_name)
    try:
        return columns_from_records(records, record_cls)
    except ValidationError as e:  # an integer beyond int64
        i = next(i for i, r in enumerate(records) if getattr(r, e.field) > INT64_MAX)
        lineno = [k for k, raw in enumerate(data.split(b"\n"), start=1) if raw][i]
        msg = f"{stream_name}: {e.field} beyond the int64 range at line {lineno}"
        raise ValidationError(msg, field=e.field) from None
