"""Manifest and stream-record model: round trips, canonical bytes, validation."""

import json
import math
import tracemalloc
import uuid
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roadsense import drivesim, model
from roadsense.errors import ParseError, UnsupportedVersionError, ValidationError
from roadsense.model import (
    BlobEntry,
    FrameRef,
    GpsFix,
    PackageManifest,
    SensorSample,
    columns_from_records,
    decode_jsonl_columns,
    decode_jsonl_stream,
    encode_jsonl_columns,
    parse_manifest,
    serialize_manifest,
)

# -- strategies ----------------------------------------------------------------

_sha = st.text(alphabet="0123456789abcdef", min_size=64, max_size=64)
# path components that can never be "", "." or ".."
_component = st.from_regex(r"[a-z0-9][a-z0-9_-]{0,8}(\.[a-z0-9]{1,4})?", fullmatch=True)
_blob_name = st.builds(lambda parts: "/".join(parts), st.lists(_component, min_size=1, max_size=3))

_blob = st.builds(
    BlobEntry,
    name=_blob_name,
    bytes=st.integers(min_value=0, max_value=2**40),
    sha256=_sha,
)


@st.composite
def manifests(draw):
    start = draw(st.integers(min_value=0, max_value=2**48))
    return PackageManifest(
        package_id=str(uuid.UUID(int=draw(st.integers(min_value=0, max_value=2**128 - 1)))),
        device_id=draw(st.text(min_size=1, max_size=24).filter(str.strip)),
        started_at_ms=start,
        ended_at_ms=start + draw(st.integers(min_value=0, max_value=10**9)),
        blobs=tuple(draw(st.lists(_blob, max_size=6, unique_by=lambda b: b.name))),
        sensor_rate_hz=draw(st.integers(min_value=1, max_value=400)),
        frame_rate_fps=draw(st.integers(min_value=0, max_value=120)),
    )


# -- round trips ----------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(manifests())
def test_manifest_round_trip(m):
    data = serialize_manifest(m)
    again = parse_manifest(data)
    assert again == m
    assert serialize_manifest(again) == data


def test_serialization_is_canonical():
    m = PackageManifest(
        package_id=str(uuid.uuid5(uuid.NAMESPACE_URL, "pkg")),
        device_id="phone-1",
        started_at_ms=1_700_000_000_000,
        ended_at_ms=1_700_000_060_000,
        blobs=(BlobEntry("sensors.jsonl", 10, "0" * 64),),
    )
    data = serialize_manifest(m)
    # keys sorted, no whitespace, utf-8
    doc = json.loads(data)
    assert list(doc) == sorted(doc)
    assert b" " not in data.split(b'"device_id"')[0]
    # same value -> same bytes regardless of construction order
    doc2 = json.loads(data)
    assert serialize_manifest(parse_manifest(json.dumps(doc2).encode())) == data


def test_stream_records_round_trip():
    records = [
        SensorSample(t=0, ax=0.1, ay=-0.2, az=9.81, gx=0.0, gy=0.0, gz=0.01),
        SensorSample(t=33, ax=0.0, ay=0.0, az=9.79, gx=0.0, gy=0.0, gz=0.0),
    ]
    data = encode_jsonl_columns(columns_from_records(records, SensorSample), SensorSample)
    assert data.endswith(b"\n") and data.count(b"\n") == 2
    assert decode_jsonl_stream(data, SensorSample, "sensors.jsonl") == records

    fixes = [
        GpsFix(t=0, lat=38.9, lon=-92.3, alt_m=201.0, speed_mps=20.0, h_acc_m=3.0),
        GpsFix(t=1000, lat=38.91, lon=-92.31, alt_m=202.0),  # optionals absent
    ]
    data = encode_jsonl_columns(columns_from_records(fixes, GpsFix), GpsFix)
    assert decode_jsonl_stream(data, GpsFix, "gps.jsonl") == fixes
    assert b"speed_mps" not in data.splitlines()[1]

    frames = [FrameRef(t=0, index=0, file="frames/000000.jpg")]
    data = encode_jsonl_columns(columns_from_records(frames, FrameRef), FrameRef)
    assert decode_jsonl_stream(data, FrameRef, "frames.jsonl") == frames


def encode_one(record) -> bytes:
    cls = type(record)
    return encode_jsonl_columns(columns_from_records([record], cls), cls)


def test_jsonl_puts_t_first():
    # wire order is documented: t leads every stream line
    assert encode_one(SensorSample(t=5, ax=0, ay=0, az=9.81, gx=0, gy=0, gz=0)).startswith(b'{"t":5,')
    assert encode_one(GpsFix(t=7, lat=0.0, lon=0.0, alt_m=0.0)).startswith(b'{"t":7,')
    assert encode_one(FrameRef(t=9, index=1, file="a.jpg")).startswith(b'{"t":9,')


def reference_line(row: dict, cls) -> bytes:
    """One record line as json.dumps writes the record's fields in their
    order, an absent optional left out; float fields hold floats, as the
    record constructors make them."""
    doc = {}
    for name, kind in STREAM_FIELDS[cls].items():
        v = row[name]
        if v is not None:
            doc[name] = float(v) if kind in ("float", "optional") else v
    return json.dumps(doc, separators=(",", ":"), ensure_ascii=False, allow_nan=False).encode() + b"\n"


_float_values = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e16, 1e22, 1e-7, 2.0**53 + 2, 1.7976931348623157e308]),
    st.integers(-(2**64), 2**64),  # an int in a float field is stored as a float
)
_text_values = st.text(
    st.sampled_from('a/."\\\x00\x1f\x7f\n\té日\u2028🚗') | st.characters(codec="utf-8"), max_size=8
)
_int_values = st.integers(0, 2**63 - 1)
_ROW_VALUES = {"int": _int_values, "float": _float_values, "optional": st.none() | _float_values,
               "str": _text_values}


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_encode_jsonl_columns_matches_json_dumps_of_each_record(data):
    cls = data.draw(st.sampled_from(ALL))
    fields = STREAM_FIELDS[cls]
    rows = data.draw(st.lists(
        st.fixed_dictionaries({name: _ROW_VALUES[kind] for name, kind in fields.items()}), max_size=8,
    ))
    cols = model.StreamColumns(oracle_columns([SimpleNamespace(**row) for row in rows], cls))
    want = b"".join(reference_line(row, cls) for row in rows)
    assert encode_jsonl_columns(cols, cls) == want


# -- validation -----------------------------------------------------------------


def test_sample_rejects_non_finite_and_negative_t():
    with pytest.raises(ValidationError):
        SensorSample(t=-1, ax=0, ay=0, az=0, gx=0, gy=0, gz=0)
    with pytest.raises(ValidationError):
        SensorSample(t=0, ax=float("nan"), ay=0, az=0, gx=0, gy=0, gz=0)
    with pytest.raises(ValidationError):
        SensorSample(t=0, ax=0, ay=0, az=float("inf"), gx=0, gy=0, gz=0)


def test_gps_fix_bounds():
    with pytest.raises(ValidationError):
        GpsFix(t=0, lat=90.1, lon=0.0, alt_m=0.0)
    with pytest.raises(ValidationError):
        GpsFix(t=0, lat=0.0, lon=-180.5, alt_m=0.0)
    with pytest.raises(ValidationError):
        GpsFix(t=0, lat=0.0, lon=0.0, alt_m=0.0, speed_mps=-1.0)
    with pytest.raises(ValidationError):
        GpsFix(t=0, lat=0.0, lon=0.0, alt_m=0.0, h_acc_m=-0.1)


@pytest.mark.parametrize("bad", ["/abs/path.jpg", "a/../b.jpg", "a//b.jpg", "./x.jpg", "a\\b.jpg", ""])
def test_frame_file_must_stay_inside_package(bad):
    with pytest.raises(ValidationError):
        FrameRef(t=0, index=0, file=bad)


def passes_path_check(p) -> bool:
    try:
        model._check_relative_path("file", p)
    except ValidationError:
        return False
    return True


_PATH_EDGES = ["", ".", "..", "...", "a//b", "/x", "x/", "a\\b", "x/./y", "x/../y",
               "./x", "x/.", "../x", "x/..", "a\nb", "a/\n/b", "\n", "..\n", "a/..\n/b"]
_paths = st.one_of(
    st.sampled_from(_PATH_EDGES),
    st.text(alphabet="ab./\\\n", max_size=8),
    st.lists(st.sampled_from(["", ".", "..", "a", "b.jpg", "\n", ".\n"]), min_size=1, max_size=4)
    .map("/".join),
)


@settings(max_examples=400, deadline=None)
@given(st.lists(_paths, max_size=6))
def test_joined_path_check_matches_the_per_path_check(paths):
    assert model._relative_paths(paths) == all(map(passes_path_check, paths))


@pytest.mark.parametrize("paths", [[b"a.jpg"], ["a.jpg", None], [7]])
def test_joined_path_check_rejects_non_strings(paths):
    assert not model._relative_paths(paths)
    assert not all(map(passes_path_check, paths))


def test_blob_entry_validation():
    with pytest.raises(ValidationError):
        BlobEntry(name="x", bytes=-1, sha256="0" * 64)
    with pytest.raises(ValidationError):
        BlobEntry(name="x", bytes=0, sha256="XYZ")
    with pytest.raises(ValidationError):
        BlobEntry(name="x", bytes=0, sha256="0" * 63)


def test_manifest_invariants():
    ok = dict(
        package_id=str(uuid.uuid4()),
        device_id="d",
        started_at_ms=10,
        ended_at_ms=20,
        blobs=(),
    )
    PackageManifest(**ok)
    with pytest.raises(ValidationError):
        PackageManifest(**{**ok, "package_id": "not-a-uuid"})
    with pytest.raises(ValidationError):
        PackageManifest(**{**ok, "ended_at_ms": 9})
    with pytest.raises(ValidationError):
        PackageManifest(**{**ok, "device_id": ""})
    with pytest.raises(ValidationError):
        PackageManifest(**{**ok, "sensor_rate_hz": 0})
    dup = (BlobEntry("a", 1, "0" * 64), BlobEntry("a", 2, "1" * 64))
    with pytest.raises(ValidationError):
        PackageManifest(**{**ok, "blobs": dup})


def test_parse_manifest_errors():
    with pytest.raises(ParseError) as e:
        parse_manifest(b"{not json")
    assert e.value.offset is not None

    with pytest.raises(ParseError):
        parse_manifest(b"[1,2]")

    doc = {"schema_version": 99}
    with pytest.raises(UnsupportedVersionError):
        parse_manifest(json.dumps(doc).encode())

    doc = {
        "schema_version": 1,
        "package_id": str(uuid.uuid4()),
        "device_id": "d",
        "started_at_ms": 0,
        "ended_at_ms": 1,
        "blobs": [{"name": "a"}],  # entry missing fields
    }
    with pytest.raises(ValidationError):
        parse_manifest(json.dumps(doc).encode())


def test_decode_jsonl_reports_bad_line():
    data = b'{"t":0,"ax":0,"ay":0,"az":0,"gx":0,"gy":0,"gz":0}\nnot json\n'
    with pytest.raises(ParseError):
        decode_jsonl_stream(data, SensorSample, "sensors.jsonl")
    # blank lines are tolerated
    data = b'\n{"t":0,"ax":0,"ay":0,"az":0,"gx":0,"gy":0,"gz":0}\n\n'
    assert len(decode_jsonl_stream(data, SensorSample, "sensors.jsonl")) == 1


# -- column decoding against the record decoder ---------------------------------------

# kind of every field, as the record types define them
STREAM_FIELDS = {
    SensorSample: {"t": "int", "ax": "float", "ay": "float", "az": "float",
                   "gx": "float", "gy": "float", "gz": "float"},
    GpsFix: {"t": "int", "lat": "float", "lon": "float", "alt_m": "float",
             "speed_mps": "optional", "h_acc_m": "optional"},
    FrameRef: {"t": "int", "index": "int", "file": "str"},
}
_DTYPES = {"int": np.int64, "float": np.float64, "optional": np.float64}


def oracle_columns(records, cls) -> dict:
    """The columns of decoded records, built field by field."""
    cols = {}
    for name, kind in STREAM_FIELDS[cls].items():
        values = [getattr(r, name) for r in records]
        if kind == "str":
            cols[name] = values
        elif kind == "optional":
            cols[name] = np.array([np.nan if v is None else v for v in values], dtype=np.float64)
            cols["has_" + name] = np.array([v is not None for v in values], dtype=bool)
        else:
            cols[name] = np.array(values, dtype=_DTYPES[kind])
    return cols


def assert_columns_equal(got, want: dict):
    assert sorted(got.fields) == sorted(want)
    for name, w in want.items():
        g = got[name]
        if isinstance(w, list):
            assert g == w, name
        else:
            assert g.dtype == w.dtype, name
            assert np.array_equal(g, w, equal_nan=True), name
            assert g.tobytes() == w.tobytes(), name  # -0.0 and NaN bits too


def outcome(decode):
    """("ok", result) or ("raised", type, message, offset)."""
    try:
        return ("ok", decode())
    except Exception as e:  # noqa: BLE001 - the exception is the outcome
        return ("raised", type(e), str(e), getattr(e, "offset", None))


def assert_same_outcome(data: bytes, cls, name: str):
    want = outcome(lambda: decode_jsonl_stream(data, cls, name))
    got = outcome(lambda: decode_jsonl_columns(data, cls, name))
    if want[0] == "ok":
        assert got[0] == "ok", got
        assert_columns_equal(got[1], oracle_columns(want[1], cls))
    else:
        assert got == want


_finite = st.floats(allow_nan=False, allow_infinity=False)
_stream_t = st.integers(min_value=0, max_value=2**63 - 1)
_optional = st.one_of(st.none(), st.floats(min_value=0.0, allow_infinity=False))
_record_strategies = {
    SensorSample: st.builds(SensorSample, t=_stream_t, ax=_finite, ay=_finite, az=_finite,
                            gx=_finite, gy=_finite, gz=_finite),
    GpsFix: st.builds(GpsFix, t=_stream_t, lat=st.floats(min_value=-90.0, max_value=90.0),
                      lon=st.floats(min_value=-180.0, max_value=180.0), alt_m=_finite,
                      speed_mps=_optional, h_acc_m=_optional),
    FrameRef: st.builds(FrameRef, t=_stream_t, index=st.integers(min_value=0, max_value=2**63 - 1),
                        file=_blob_name),
}
_STREAM_NAME = {SensorSample: "sensors.jsonl", GpsFix: "gps.jsonl", FrameRef: "frames.jsonl"}


@st.composite
def stream_docs(draw, min_size=0, classes=tuple(STREAM_FIELDS)):
    """(record class, one JSON object per line): valid records, some
    written the way other writers might (integral floats as ints, extra
    keys, spaced separators, null optionals)."""
    cls = draw(st.sampled_from(classes))
    records = draw(st.lists(_record_strategies[cls], min_size=min_size, max_size=12))
    docs = []
    for r in records:
        doc = json.loads(encode_one(r))
        for name, kind in STREAM_FIELDS[cls].items():
            v = doc.get(name)
            if kind in ("float", "optional") and isinstance(v, float) and v.is_integer() \
                    and abs(v) < 2**53 and draw(st.booleans()):
                doc[name] = int(v)
            if kind == "optional" and v is None and draw(st.booleans()):
                doc[name] = None
        if draw(st.booleans()):
            doc["extra"] = draw(st.sampled_from([1, "x", [1, 2], {"k": None}]))
        docs.append(doc)
    return cls, docs


def render(docs, draw) -> list[bytes]:
    sep = draw(st.sampled_from([(",", ":"), (", ", ": ")]))
    lines = [json.dumps(d, separators=sep, ensure_ascii=draw(st.booleans())).encode() for d in docs]
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        lines.insert(draw(st.integers(min_value=0, max_value=len(lines))), b"")
    return lines


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_decode_jsonl_columns_match_the_records_on_valid_streams(data):
    cls, docs = data.draw(stream_docs())
    raw = b"\n".join(render(docs, data.draw)) + data.draw(st.sampled_from([b"", b"\n"]))
    records = decode_jsonl_stream(raw, cls, _STREAM_NAME[cls])
    # a valid stream is decoded without building records
    with mock.patch.object(model, "decode_jsonl_stream", side_effect=AssertionError("fell back")):
        cols = decode_jsonl_columns(raw, cls, _STREAM_NAME[cls])
    assert_columns_equal(cols, oracle_columns(records, cls))


def _set(field_value):
    def mutate(doc, cls, draw):
        name = draw(st.sampled_from(sorted(STREAM_FIELDS[cls])))
        doc[name] = field_value(draw)
        return json.dumps(doc, allow_nan=True).encode()
    return mutate


def _drop_field(doc, cls, draw):
    del doc[draw(st.sampled_from(sorted(doc)))]
    return json.dumps(doc).encode()


def _set_named(names, values):
    def mutate(doc, cls, draw):
        present = [n for n in names if n in STREAM_FIELDS[cls]]
        if present:
            doc[draw(st.sampled_from(present))] = draw(st.sampled_from(values))
        return json.dumps(doc, allow_nan=True).encode()
    return mutate


ALL = (SensorSample, GpsFix, FrameRef)

# kind -> (record classes it applies to, mutation); a mutation takes
# (decoded doc, record class, draw) and returns the line that replaces it
LINE_MUTATIONS = {
    "torn": (ALL, lambda doc, cls, draw: (lambda b: b[: draw(st.integers(0, len(b) - 1))])(
        json.dumps(doc).encode())),
    "non-object": (ALL, lambda doc, cls, draw: draw(st.sampled_from([b"[1, 2]", b"3", b'"x"', b"null", b"[]"]))),
    "two objects": (ALL, lambda doc, cls, draw: json.dumps(doc).encode()
                    + draw(st.sampled_from([b" ", b",", b""])) + json.dumps(doc).encode()),
    "missing field": (ALL, _drop_field),
    "bool": (ALL, _set(lambda draw: draw(st.booleans()))),
    "string number": (ALL, _set(lambda draw: draw(st.sampled_from(["1.5", "7", " 2 ", "nan", "inf", "x"])))),
    "nan or inf": (ALL, _set(lambda draw: draw(st.sampled_from([math.nan, math.inf, -math.inf])))),
    "nan or inf optional": ((GpsFix,), _set_named(("speed_mps", "h_acc_m"), [math.nan, math.inf])),
    "bool where int": (ALL, _set_named(("t", "index"), [True, False])),
    "huge float literal": ((SensorSample,), lambda doc, cls, draw: json.dumps(doc).encode().replace(
        b"}", b', "ax": 1e999}')),
    "int beyond float": ((SensorSample, GpsFix), _set_named(("ax", "lat", "alt_m", "speed_mps"), [10**400])),
    "out-of-range lat/lon": ((GpsFix,), _set_named(("lat", "lon"), [90.0001, -91.0, 180.5, -1e9])),
    "negative": (ALL, _set_named(("speed_mps", "h_acc_m", "t", "index"), [-1, -0.5, -(2**70)])),
    "float where int": (ALL, _set_named(("t", "index"), [1.0, 2.5])),
    "bad frame path": ((FrameRef,), _set_named(("file",), ["/abs.jpg", "a/../b", "", "a\\b", "./x", "a//b", 5, None])),
    "invalid utf-8": (ALL, lambda doc, cls, draw: (lambda b, k: b[:k] + b"\xff" + b[k:])(
        json.dumps(doc).encode(), draw(st.integers(0, len(json.dumps(doc)))))),
    "whitespace only": (ALL, lambda doc, cls, draw: draw(st.sampled_from([b" ", b"\t", b"\r", b"   "]))),
    "padded": (ALL, lambda doc, cls, draw: draw(st.sampled_from([b" ", b"\t", b""])) + json.dumps(doc).encode()
               + draw(st.sampled_from([b" ", b"\r", b"\t\r"]))),
    "split across lines": (ALL, lambda doc, cls, draw: (lambda b, k: b[:k] + b"\n" + b[k:])(
        json.dumps(doc).encode(), draw(st.integers(1, len(json.dumps(doc)) - 1)))),
    "non-ascii string": ((FrameRef,), _set_named(("file",), ["frames/é.jpg", "ü"])),
}


@pytest.mark.parametrize("kind", sorted(LINE_MUTATIONS))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_decode_jsonl_columns_match_the_records_on_mutated_streams(kind, data):
    classes, mutate = LINE_MUTATIONS[kind]
    cls, docs = data.draw(stream_docs(min_size=1, classes=classes))
    lines = render(docs, data.draw)
    at = data.draw(st.sampled_from([i for i, line in enumerate(lines) if line]))
    lines[at] = mutate(json.loads(lines[at]), cls, data.draw)
    raw = b"\n".join(lines) + b"\n"
    assert_same_outcome(raw, cls, _STREAM_NAME[cls])


def test_lines_that_only_parse_when_joined_fall_back_to_the_record_errors():
    # joined with commas into one array these read as three objects, but no
    # line is one object on its own
    lines = [b'{"t":1,"a":[{}', b'{}]}', b'{},{}']
    assert_same_outcome(b"\n".join(lines) + b"\n", FrameRef, "frames.jsonl")
    lines = [b'{"t":1,"index":0,"file":"x},{"}', b'{},{}']
    assert_same_outcome(b"\n".join(lines) + b"\n", FrameRef, "frames.jsonl")


def test_decode_jsonl_columns_of_an_empty_stream():
    for cls in STREAM_FIELDS:
        for raw in (b"", b"\n", b"\n\n"):
            cols = decode_jsonl_columns(raw, cls, _STREAM_NAME[cls])
            assert len(cols) == 0
            assert_columns_equal(cols, oracle_columns([], cls))


@pytest.mark.parametrize("cls, line", [
    (SensorSample, b'{"t":9223372036854775808,"ax":0,"ay":0,"az":0,"gx":0,"gy":0,"gz":0}'),
    (FrameRef, b'{"t":5,"index":99999999999999999999,"file":"f.jpg"}'),
])
def test_an_integer_beyond_int64_is_a_validation_error_naming_the_line(cls, line):
    ok = {SensorSample: b'{"t":0,"ax":0,"ay":0,"az":0,"gx":0,"gy":0,"gz":0}',
          FrameRef: b'{"t":0,"index":0,"file":"f.jpg"}'}[cls]
    raw = ok + b"\n\n" + line + b"\n"
    assert len(decode_jsonl_stream(raw, cls, "s.jsonl")) == 2  # records take any int
    with pytest.raises(ValidationError, match="s.jsonl: .* beyond the int64 range at line 3"):
        decode_jsonl_columns(raw, cls, "s.jsonl")


# -- the column decoder's slices ----------------------------------------------------

SLICE = model._SLICE_BYTES


def frame_line(j: int, file: str) -> bytes:
    return json.dumps({"t": j, "index": j, "file": file}, ensure_ascii=False).encode() + b"\n"


def frame_lines(total: int, first: int = 0) -> list[bytes]:
    """LF-terminated frame lines numbered from *first* whose bytes add up
    to exactly *total* (at least 64): the last one's file name pads it."""
    lines, size, j = [], 0, first
    while total - size >= 128:
        lines.append(frame_line(j, f"frames/{j:06d}.jpg"))
        size += len(lines[-1])
        j += 1
    pad = total - size - len(frame_line(j, "f.jpg"))
    lines.append(frame_line(j, "f" + "a" * pad + ".jpg"))
    return lines


def assert_decodes_without_fallback(raw: bytes):
    records = decode_jsonl_stream(raw, FrameRef, "frames.jsonl")
    with mock.patch.object(model, "decode_jsonl_stream", side_effect=AssertionError("fell back")):
        cols = decode_jsonl_columns(raw, FrameRef, "frames.jsonl")
    assert_columns_equal(cols, oracle_columns(records, FrameRef))
    return records


@pytest.mark.parametrize("at", [0, 100, SLICE - 1, SLICE, SLICE + 1, 2 * SLICE])
def test_a_line_longer_than_a_slice(at):
    head = frame_lines(at, 1) if at else []
    long = frame_line(0, "frames/" + "x" * (2 * SLICE) + ".jpg")
    raw = b"".join(head + [long] + frame_lines(SLICE + 500, len(head) + 1))
    records = assert_decodes_without_fallback(raw)
    assert len(records[len(head)].file) == 2 * SLICE + 11


@pytest.mark.parametrize("char", ["é", "€", "𝄞"])
def test_a_multibyte_file_name_straddling_a_slice_boundary(char):
    wide = char.encode()
    for k in range(1, len(wide)):  # the slice boundary falls k bytes into the character
        line = frame_line(10_000, f"frames/{char}.jpg")
        lead = line.index(wide)
        raw = b"".join(frame_lines(SLICE - lead - k) + [line] + frame_lines(3000, 10_001))
        assert raw[SLICE - k : SLICE - k + len(wide)] == wide
        records = assert_decodes_without_fallback(raw)
        assert f"frames/{char}.jpg" in [r.file for r in records]


def test_no_trailing_newline():
    assert_decodes_without_fallback(b"".join(frame_lines(2 * SLICE + 999))[:-1])
    # the last line is longer than a slice
    assert_decodes_without_fallback(b"".join(frame_lines(SLICE)) + frame_line(1, "x" * 2 * SLICE)[:-1])
    # the stream's last newline sits exactly a slice in
    assert_decodes_without_fallback(b"".join(frame_lines(SLICE + 1)) + frame_line(10**6, "f.jpg")[:-1])


def test_blank_lines_around_slice_boundaries():
    raw = b"\n\n" + b"".join(frame_lines(SLICE - 5)) + b"\n" * 8 + b"".join(frame_lines(SLICE, 10**6))
    raw += b"\n" * (SLICE + 3) + b"".join(frame_lines(900, 2 * 10**6)) + b"\n\n"
    records = assert_decodes_without_fallback(raw)
    assert len(records) == raw.count(b"{")


@pytest.mark.parametrize("bad", [
    frame_line(7, "frames/a.jpg").replace(b"a.jpg", b"a\xff.jpg"),  # invalid UTF-8
    frame_line(7, "frames/\xe9.jpg").replace(b"\xc3\xa9", b"\xc3"),  # a truncated character
    b'{"t":7,"index":7,"fi\n',  # broken JSON
    b'{"t":7,"index":7,"file":"a.jpg"} {}\n',  # two objects on one line
])
def test_an_error_in_a_later_slice_is_the_record_decoders(bad):
    lines = frame_lines(2 * SLICE + 333) + [bad] + frame_lines(4000, 10**6)
    raw = b"".join(lines)
    want = outcome(lambda: decode_jsonl_stream(raw, FrameRef, "frames.jsonl"))
    got = outcome(lambda: decode_jsonl_columns(raw, FrameRef, "frames.jsonl"))
    assert got == want
    start = raw.index(bad)
    lineno = raw[:start].count(b"\n") + 1
    assert got[:3] == ("raised", ParseError, f"frames.jsonl: bad JSONL at line {lineno}")
    assert start <= got[3] <= start + len(bad)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_any_slice_size_decodes_like_the_record_decoder(data):
    kind = data.draw(st.sampled_from([None, *sorted(LINE_MUTATIONS)]))
    cls, docs = data.draw(stream_docs(min_size=1, classes=LINE_MUTATIONS[kind][0] if kind else ALL))
    lines = render(docs, data.draw)
    if kind:
        at = data.draw(st.sampled_from([i for i, line in enumerate(lines) if line]))
        lines[at] = LINE_MUTATIONS[kind][1](json.loads(lines[at]), cls, data.draw)
    raw = b"\n".join(lines) + data.draw(st.sampled_from([b"", b"\n"]))
    with mock.patch.object(model, "_SLICE_BYTES", data.draw(st.sampled_from([1, 2, 16, 64]))):
        assert_same_outcome(raw, cls, _STREAM_NAME[cls])


def test_decoding_a_long_stream_holds_slices_not_the_stream():
    samples = drivesim.generate_drive(drivesim.default_scenario(5, duration_s=1200.0)).samples
    raw = encode_jsonl_columns(samples, SensorSample)
    # a first line longer than a slice must not take the rest of the stream with it
    raw = raw.replace(b",", b"," + b" " * (SLICE + 1000), 1)
    tracemalloc.start()
    try:
        cols = decode_jsonl_columns(raw, SensorSample, "sensors.jsonl")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    columns = sum(v.nbytes for v in cols.fields.values())
    assert peak - columns < len(raw) / 2
    assert_columns_equal(cols, samples.fields)
