"""Package directory layout: write, read back, corrupt-and-detect."""

import errno
import hashlib
import json
import os
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_frames, make_gps, make_samples, resign_manifest
from test_model import LINE_MUTATIONS
from roadsense import cli
from roadsense.errors import ParseError, ValidationError
from roadsense.model import (
    FrameRef,
    GpsFix,
    SensorSample,
    StreamColumns,
    columns_from_records,
    decode_jsonl_stream,
    encode_jsonl_columns,
    parse_manifest,
)
from roadsense.package import (
    FRAMES_NAME,
    GPS_NAME,
    MANIFEST_NAME,
    MEMO_NAME,
    SENSORS_NAME,
    STREAM_NAMES,
    UPLOAD_STATE_NAME,
    COLUMNS_NAME,
    BlobCheck,
    StreamCheck,
    ValidationReport,
    load_package,
    memo_of,
    read_manifest,
    read_columns,
    read_stream,
    read_streams,
    sha256_file,
    validate_package,
    write_columns,
)
from roadsense.packstore import create_package


def write_pkg(root, n=30):
    return create_package(
        root,
        columns_from_records(make_samples(n), SensorSample),
        columns_from_records(make_gps(2), GpsFix),
        columns_from_records(make_frames(3), FrameRef),
        device_id="pixel-4a",
        started_at_ms=1_700_000_000_000,
        ended_at_ms=1_700_000_001_000,
    )


def test_create_then_read_round_trip(tmp_path):
    pkg_dir, manifest = write_pkg(tmp_path)
    assert read_manifest(pkg_dir) == manifest
    samples, gps, frames = read_streams(pkg_dir)
    assert samples == make_samples(30)
    assert gps == make_gps(2)
    assert frames == make_frames(3)
    names = {b.name for b in manifest.blobs}
    assert names == {"sensors.jsonl", "gps.jsonl", "frames.jsonl"}
    for b in manifest.blobs:
        assert (pkg_dir / b.name).stat().st_size == b.bytes
        assert sha256_file(pkg_dir / b.name) == b.sha256


def test_valid_package_validates(tmp_path):
    pkg_dir, _ = write_pkg(tmp_path)
    report = validate_package(pkg_dir)
    assert report.valid
    assert all("ok" in line for line in report.summary_lines())


def test_flipped_byte_is_detected(tmp_path):
    pkg_dir, _ = write_pkg(tmp_path)
    path = pkg_dir / SENSORS_NAME
    data = bytearray(path.read_bytes())
    data[7] = ord("8") if data[7] != ord("8") else ord("9")  # same size, new digest
    path.write_bytes(bytes(data))
    report = validate_package(pkg_dir)
    assert not report.valid
    bad = [b for b in report.blobs if not b.ok]
    assert [b.name for b in bad] == [SENSORS_NAME]
    assert bad[0].size_ok and not bad[0].sha256_ok


def test_truncation_is_detected(tmp_path):
    pkg_dir, _ = write_pkg(tmp_path)
    path = pkg_dir / GPS_NAME
    path.write_bytes(path.read_bytes()[:-5])
    report = validate_package(pkg_dir)
    bad = {b.name: b for b in report.blobs if not b.ok}
    assert GPS_NAME in bad and bad[GPS_NAME].size_ok is False


def test_missing_blob_is_detected(tmp_path):
    pkg_dir, _ = write_pkg(tmp_path)
    (pkg_dir / SENSORS_NAME).unlink()
    report = validate_package(pkg_dir)
    assert not report.valid
    missing = [b for b in report.blobs if not b.present]
    assert [b.name for b in missing] == [SENSORS_NAME]
    assert f"blob {SENSORS_NAME}: MISSING" in report.summary_lines()


def test_corrupt_manifest_is_reported_not_raised(tmp_path):
    pkg_dir, _ = write_pkg(tmp_path)
    (pkg_dir / MANIFEST_NAME).write_bytes(b"{broken")
    report = validate_package(pkg_dir)
    assert not report.valid and report.package_id is None
    assert report.problems


def test_missing_manifest(tmp_path):
    pkg_dir, _ = write_pkg(tmp_path)
    (pkg_dir / MANIFEST_NAME).unlink()
    report = validate_package(pkg_dir)
    assert not report.valid
    assert report.problems == [f"{MANIFEST_NAME} missing"]


def test_missing_directory_raises(tmp_path):
    with pytest.raises(FileNotFoundError):
        validate_package(tmp_path / "nope")


def test_non_monotonic_stream_detected(tmp_path):
    pkg_dir, manifest = write_pkg(tmp_path)
    samples = make_samples(5)
    samples[3] = SensorSample(t=samples[1].t, ax=0, ay=0, az=9.81, gx=0, gy=0, gz=0)
    data = encode_jsonl_columns(columns_from_records(samples, SensorSample), SensorSample)
    (pkg_dir / SENSORS_NAME).write_bytes(data)
    # fix up the manifest so only monotonicity fails, not the digest
    doc = json.loads((pkg_dir / MANIFEST_NAME).read_bytes())
    for entry in doc["blobs"]:
        if entry["name"] == SENSORS_NAME:
            entry["bytes"] = len(data)
            import hashlib

            entry["sha256"] = hashlib.sha256(data).hexdigest()
    (pkg_dir / MANIFEST_NAME).write_text(json.dumps(doc))
    report = validate_package(pkg_dir)
    assert not report.valid
    stream = [s for s in report.streams if s.name == SENSORS_NAME][0]
    assert not stream.monotonic_ok and "record 3" in stream.detail


def test_create_rejects_non_monotonic_streams(tmp_path):
    samples = make_samples(3)
    samples.append(samples[-1])  # duplicate timestamp
    with pytest.raises(ValidationError):
        create_package(
            tmp_path, columns_from_records(samples, SensorSample), columns_from_records([], GpsFix),
            columns_from_records([], FrameRef), device_id="d", started_at_ms=0, ended_at_ms=1,
        )
    assert list(tmp_path.iterdir()) == []  # nothing half-written


def test_create_rejects_a_frame_index_that_is_not_increasing(tmp_path):
    frames = [FrameRef(0, 1, "frames/a.jpg"), FrameRef(100, 1, "frames/b.jpg")]
    with pytest.raises(ValidationError, match=re.escape(
        f"{FRAMES_NAME}: frame index not strictly increasing at record 1"
    )):
        create_package(tmp_path, columns_from_records([], SensorSample),
                       columns_from_records([], GpsFix), columns_from_records(frames, FrameRef),
                       device_id="d", started_at_ms=0, ended_at_ms=1)
    assert list(tmp_path.iterdir()) == []  # nothing half-written


def test_create_rejects_a_timestamp_beyond_int64(tmp_path):
    samples = make_samples(2) + [SensorSample(t=2**63, ax=0, ay=0, az=9.81, gx=0, gy=0, gz=0)]
    with pytest.raises(ValidationError, match="t beyond the int64 range"):
        create_package(tmp_path, columns_from_records(samples, SensorSample),
                       columns_from_records([], GpsFix), columns_from_records([], FrameRef),
                       device_id="d", started_at_ms=0, ended_at_ms=1)
    assert list(tmp_path.iterdir()) == []


# stream, field, replacement (None drops the field) for two-record columns
# that decode_jsonl_columns never gives
_BAD_COLUMNS = {
    "negative t": (SENSORS_NAME, "t", np.array([-1, 33])),
    "nan": (SENSORS_NAME, "ax", np.array([0.0, np.nan])),
    "infinite": (GPS_NAME, "alt_m", np.array([np.inf, 0.0])),
    "negative speed": (GPS_NAME, "speed_mps", np.array([1.0, -1.0])),
    "latitude beyond 90": (GPS_NAME, "lat", np.array([90.5, 0.0])),
    "bad frame path": (FRAMES_NAME, "file", ["frames/a.jpg", "../b.jpg"]),
    "frame path not a str": (FRAMES_NAME, "file", ["frames/a.jpg", 7]),
    "uint64 t holding 2**63": (SENSORS_NAME, "t", np.array([0, 2**63], dtype=np.uint64)),
    "float t": (GPS_NAME, "t", np.array([0.0, 1000.0])),
    "float32 values": (SENSORS_NAME, "az", np.array([9.81, 9.81], dtype=np.float32)),
    "int mask": (GPS_NAME, "has_h_acc_m", np.array([0, 0])),
    "2-d column": (SENSORS_NAME, "gx", np.zeros((2, 1))),
    "short column": (FRAMES_NAME, "index", np.array([0])),
    "missing mask": (GPS_NAME, "has_speed_mps", None),
    "missing field": (SENSORS_NAME, "gz", None),
    "extra field": (FRAMES_NAME, "extra", np.array([1, 2])),
}


@pytest.mark.parametrize("case", sorted(_BAD_COLUMNS))
def test_create_rejects_columns_the_decoder_never_gives(tmp_path, case):
    name, key, value = _BAD_COLUMNS[case]
    streams = {
        SENSORS_NAME: columns_from_records(make_samples(2), SensorSample),
        GPS_NAME: columns_from_records(make_gps(2), GpsFix),
        FRAMES_NAME: columns_from_records(make_frames(2), FrameRef),
    }
    fields = dict(streams[name].fields)
    if value is None:
        del fields[key]
    else:
        fields[key] = value
    streams[name] = StreamColumns(fields)
    with pytest.raises(ValidationError, match=re.escape(name)):
        create_package(tmp_path / "lib", *streams.values(), device_id="d", started_at_ms=0,
                       ended_at_ms=1)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("name", [SENSORS_NAME, MANIFEST_NAME, UPLOAD_STATE_NAME, MEMO_NAME,
                                  COLUMNS_NAME])
def test_create_rejects_an_extra_blob_named_like_a_package_file(tmp_path, name):
    with pytest.raises(ValidationError, match="extra blobs may not be named"):
        create_package(tmp_path, columns_from_records(make_samples(2), SensorSample),
                       columns_from_records([], GpsFix), columns_from_records([], FrameRef),
                       device_id="d", started_at_ms=0, ended_at_ms=1, extra_blobs={name: b"x"})
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("where", ["relative", "absolute"])
def test_create_rejects_an_extra_blob_outside_the_package(tmp_path, where):
    name = {"relative": "../escape.bin", "absolute": str(tmp_path / "escape.bin")}[where]
    with pytest.raises(ValidationError, match="name must"):
        create_package(tmp_path / "lib", columns_from_records(make_samples(2), SensorSample),
                       columns_from_records([], GpsFix), columns_from_records([], FrameRef),
                       device_id="d", started_at_ms=0, ended_at_ms=1, extra_blobs={name: b"x"})
    assert list(tmp_path.rglob("*")) == []  # nothing at all was written


def test_create_cleans_up_on_failure(tmp_path):
    # blob name validation fails before the directory exists
    with pytest.raises(ValidationError):
        create_package(
            tmp_path, columns_from_records(make_samples(2), SensorSample),
            columns_from_records([], GpsFix), columns_from_records([], FrameRef),
            device_id="d", started_at_ms=0, ended_at_ms=1,
            extra_blobs={"/absolute.bin": b"x"},
        )
    assert list(tmp_path.iterdir()) == []


def test_create_removes_the_directory_when_a_write_fails(tmp_path):
    with pytest.raises(OSError):  # "a" is a file, so "a/b.bin" cannot be written
        create_package(
            tmp_path, columns_from_records(make_samples(2), SensorSample),
            columns_from_records([], GpsFix), columns_from_records([], FrameRef),
            device_id="d", started_at_ms=0, ended_at_ms=1,
            extra_blobs={"a": b"x", "a/b.bin": b"y"},
        )
    assert list(tmp_path.iterdir()) == []


def test_create_refuses_existing_directory(tmp_path):
    _, manifest = write_pkg(tmp_path)
    with pytest.raises(FileExistsError):
        create_package(
            tmp_path, columns_from_records(make_samples(2), SensorSample),
            columns_from_records([], GpsFix), columns_from_records([], FrameRef),
            device_id="d", started_at_ms=0, ended_at_ms=1,
            package_id=manifest.package_id,
        )


def test_read_stream_rejects_unknown_name(tmp_path):
    pkg_dir, _ = write_pkg(tmp_path)
    with pytest.raises(ValueError):
        read_stream(pkg_dir, "upload_state.json")


# -- column validation against the record-based check ------------------------------


def oracle_validate(package_dir):
    """validate_package as it was when every stream decoded into records
    and monotonicity was a loop over them."""
    manifest_path = package_dir / MANIFEST_NAME
    if not manifest_path.is_file():
        return ValidationReport(package_id=None, problems=[f"{MANIFEST_NAME} missing"])
    try:
        manifest = parse_manifest(manifest_path.read_bytes())
    except (ParseError, ValidationError) as e:
        return ValidationReport(package_id=None, problems=[f"{MANIFEST_NAME}: {e}"])
    report = ValidationReport(package_id=manifest.package_id)
    for blob in manifest.blobs:
        path = package_dir / blob.name
        if not path.is_file():
            report.blobs.append(BlobCheck(blob.name, present=False))
            continue
        report.blobs.append(BlobCheck(
            blob.name, present=True, size_ok=path.stat().st_size == blob.bytes,
            sha256_ok=hashlib.sha256(path.read_bytes()).hexdigest() == blob.sha256,
        ))
    for name, cls in ((SENSORS_NAME, SensorSample), (GPS_NAME, GpsFix), (FRAMES_NAME, FrameRef)):
        path = package_dir / name
        if not path.is_file():
            continue
        try:
            records = decode_jsonl_stream(path.read_bytes(), cls, name)
        except (ParseError, ValidationError) as e:
            report.streams.append(StreamCheck(name, monotonic_ok=False, detail=str(e)))
            continue
        detail = None
        for i in range(1, len(records)):
            if records[i].t <= records[i - 1].t:
                detail = f"timestamp not strictly increasing at record {i} (t={records[i].t})"
                break
        if detail is None and name == FRAMES_NAME:
            for i in range(1, len(records)):
                if records[i].index <= records[i - 1].index:
                    detail = f"frame index not strictly increasing at record {i}"
                    break
        report.streams.append(StreamCheck(name, monotonic_ok=detail is None, detail=detail))
    return report


def _lines(path):
    return path.read_bytes().split(b"\n")[:-1]


def _swap(lines, draw):
    i = draw(st.integers(0, len(lines) - 2))
    j = draw(st.integers(i + 1, len(lines) - 1))
    lines[i], lines[j] = lines[j], lines[i]


def _duplicate(lines, draw):
    i = draw(st.integers(0, len(lines) - 1))
    lines.insert(i, lines[i])


def _rewrite_field(lines, draw):
    """Set t (or a frame's index) of one line to a neighbour's value, or a
    drawn one."""
    i = draw(st.integers(0, len(lines) - 1))
    doc = json.loads(lines[i])
    name = draw(st.sampled_from([n for n in ("t", "index") if n in doc]))
    j = draw(st.integers(0, len(lines) - 1))
    doc[name] = draw(st.one_of(st.just(json.loads(lines[j])[name]), st.integers(0, 5000)))
    lines[i] = json.dumps(doc).encode()


def _mutate_line(lines, draw):
    classes, mutate = LINE_MUTATIONS[draw(st.sampled_from(sorted(LINE_MUTATIONS)))]
    cls = draw(st.sampled_from(classes))  # may not match the stream
    i = draw(st.integers(0, len(lines) - 1))
    lines[i] = mutate(json.loads(lines[i]), cls, draw)


STREAM_CORRUPTIONS = {"swap": _swap, "duplicate": _duplicate, "rewrite t or index": _rewrite_field,
                      "mutate a line": _mutate_line}


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_validate_package_matches_the_record_based_check(data):
    draw = data.draw
    with tempfile.TemporaryDirectory() as tmp:
        pkg_dir, _ = create_package(
            tmp, columns_from_records(make_samples(draw(st.integers(2, 12))), SensorSample),
            columns_from_records(make_gps(draw(st.integers(2, 4))), GpsFix),
            columns_from_records(make_frames(draw(st.integers(2, 6))), FrameRef),
            device_id="pixel-4a", started_at_ms=0, ended_at_ms=1_000,
        )
        streams = st.sampled_from([SENSORS_NAME, GPS_NAME, FRAMES_NAME])
        for name in draw(st.lists(streams, max_size=2, unique=True)):
            path = pkg_dir / name
            how = draw(st.sampled_from(sorted(STREAM_CORRUPTIONS) + ["delete", "truncate"]))
            if how == "delete":
                path.unlink()
                continue
            if how == "truncate":
                path.write_bytes(path.read_bytes()[: draw(st.integers(0, path.stat().st_size - 1))])
                continue
            lines = _lines(path)
            STREAM_CORRUPTIONS[how](lines, draw)
            path.write_bytes(b"\n".join(lines) + b"\n")
        if draw(st.booleans()):
            # re-sign the manifest so that the stream checks are what fail
            doc = json.loads((pkg_dir / MANIFEST_NAME).read_bytes())
            for entry in doc["blobs"]:
                blob = pkg_dir / entry["name"]
                if blob.is_file():
                    entry["bytes"] = blob.stat().st_size
                    entry["sha256"] = hashlib.sha256(blob.read_bytes()).hexdigest()
            (pkg_dir / MANIFEST_NAME).write_text(json.dumps(doc))
        try:
            want = oracle_validate(pkg_dir)
        except Exception as e:  # noqa: BLE001 - must raise the same way
            with pytest.raises(type(e), match=re.escape(str(e))):
                validate_package(pkg_dir)
            return
        got = validate_package(pkg_dir)
        assert (got.valid, got.summary_lines()) == (want.valid, want.summary_lines())


def test_a_timestamp_beyond_int64_fails_its_stream_check(tmp_path):
    pkg_dir, _ = write_pkg(tmp_path)
    path = pkg_dir / SENSORS_NAME
    lines = _lines(path)
    doc = json.loads(lines[-1])
    doc["t"] = 2**63
    lines[-1] = json.dumps(doc).encode()
    path.write_bytes(b"\n".join(lines) + b"\n")
    assert oracle_validate(pkg_dir).streams[0].ok  # records took any int
    report = validate_package(pkg_dir)
    stream = [s for s in report.streams if s.name == SENSORS_NAME][0]
    assert not stream.ok
    assert stream.detail == f"{SENSORS_NAME}: t beyond the int64 range at line {len(lines)}"


finite = st.floats(allow_nan=False, allow_infinity=False)
gps_extra = st.none() | st.floats(min_value=0, allow_infinity=False)
path_part = st.text(min_size=1, max_size=4).filter(lambda p: "/" not in p and "\\" not in p
                                                   and p not in (".", ".."))
frame_file = st.lists(path_part, min_size=1, max_size=2).map("/".join)


@st.composite
def stream_records(draw):
    """(samples, gps, frames) records, up to four of each, ordered as a
    recorder writes them in most draws."""

    def times(n):
        # strictly increasing in three draws of four, as a recorder writes them,
        # and at int64's edge in one of eight
        edge = draw(st.integers(0, 7)) == 0
        ints = st.integers(2**63 - 2, 2**63 + 1) if edge else st.integers(0, 10**6)
        if draw(st.integers(0, 3)):
            return sorted(draw(st.lists(ints, min_size=n, max_size=n, unique=True)))
        return draw(st.lists(ints, min_size=n, max_size=n))

    samples = [
        SensorSample(t, *draw(st.tuples(*[finite] * 6))) for t in times(draw(st.integers(0, 4)))
    ]
    gps = [
        GpsFix(t, draw(st.floats(-90, 90)), draw(st.floats(-180, 180)), draw(finite),
               draw(gps_extra), draw(gps_extra))
        for t in times(draw(st.integers(0, 4)))
    ]
    n = draw(st.integers(0, 4))
    frames = [FrameRef(t, i, draw(frame_file)) for t, i in zip(times(n), times(n))]
    return samples, gps, frames


def stream_columns(records):
    """The columns of stream_records' streams; ValidationError past int64."""
    return [columns_from_records(r, cls) for r, cls in zip(records, (SensorSample, GpsFix, FrameRef))]


@settings(max_examples=150, deadline=None)
@given(stream_records(), st.data())
def test_every_package_create_package_accepts_passes_a_full_validation(records, data):
    names = st.sampled_from(["frames/000000.jpg", "notes.txt", MEMO_NAME, COLUMNS_NAME, GPS_NAME,
                             MANIFEST_NAME])
    extra = data.draw(st.dictionaries(names, st.binary(max_size=8), max_size=2))
    with tempfile.TemporaryDirectory() as tmp:
        try:
            pkg_dir, _ = create_package(tmp, *stream_columns(records), device_id="d",
                                        started_at_ms=0, ended_at_ms=1, extra_blobs=extra)
        except ValidationError:
            assert os.listdir(tmp) == []
            return
        report = validate_package(pkg_dir)
        assert report.valid, report.summary_lines()
        assert (pkg_dir / MEMO_NAME).read_bytes() == memo_of((pkg_dir / MANIFEST_NAME).read_bytes())
        assert load_package(pkg_dir, _trust_memo=True)[0].summary_lines() == report.summary_lines()


# -- the stream-check memo -------------------------------------------------------


def test_create_package_writes_a_fresh_memo(tmp_path):
    pkg_dir, manifest = write_pkg(tmp_path)
    digest = hashlib.sha256((pkg_dir / MANIFEST_NAME).read_bytes()).hexdigest()
    assert (pkg_dir / MEMO_NAME).read_bytes() == digest.encode() + b"\n"
    assert MEMO_NAME not in {b.name for b in manifest.blobs}  # never uploaded


def test_a_fresh_memo_skips_the_decode_only_where_trusted(tmp_path, decodes):
    pkg_dir, _ = write_pkg(tmp_path)
    full, _, columns = load_package(pkg_dir)
    assert decodes == list(STREAM_NAMES) and columns is not None
    decodes.clear()
    trusted, manifest, columns = load_package(pkg_dir, _trust_memo=True)
    assert decodes == [] and columns is None and manifest == read_manifest(pkg_dir)
    assert trusted.streams == [StreamCheck(name, monotonic_ok=True) for name in STREAM_NAMES]
    assert trusted.valid and trusted.summary_lines() == full.summary_lines()


MEMO_DAMAGE = {
    "missing": lambda memo, other: memo.unlink(),
    "torn": lambda memo, other: memo.write_bytes(memo.read_bytes()[:20]),
    "empty": lambda memo, other: memo.write_bytes(b""),
    "made for another manifest": lambda memo, other: memo.write_bytes(other),
}


@pytest.mark.parametrize("damage", sorted(MEMO_DAMAGE))
def test_a_memo_that_is_not_fresh_means_a_full_decode(tmp_path, decodes, damage):
    pkg_dir, _ = write_pkg(tmp_path / "a")
    other_dir, _ = write_pkg(tmp_path / "b")
    want = validate_package(pkg_dir).summary_lines()
    MEMO_DAMAGE[damage](pkg_dir / MEMO_NAME, (other_dir / MEMO_NAME).read_bytes())
    decodes.clear()
    report = load_package(pkg_dir, _trust_memo=True)[0]
    assert decodes == list(STREAM_NAMES)
    assert report.valid and report.summary_lines() == want
    # that valid pass wrote the memo again, so the next one skips the decode
    decodes.clear()
    assert load_package(pkg_dir, _trust_memo=True)[0].summary_lines() == want
    assert decodes == []


def test_a_full_pass_writes_the_memo_only_when_missing_or_stale(tmp_path, monkeypatch):
    pkg_dir, _ = write_pkg(tmp_path)
    memo = pkg_dir / MEMO_NAME
    written = memo.stat().st_mtime_ns
    for _ in range(2):
        assert validate_package(pkg_dir).valid
    assert memo.stat().st_mtime_ns == written
    memo.write_bytes(b"stale\n")
    assert validate_package(pkg_dir).valid
    assert memo.read_bytes() == memo_of((pkg_dir / MANIFEST_NAME).read_bytes())


def test_an_invalid_package_gets_no_memo(tmp_path):
    pkg_dir, _ = write_pkg(tmp_path)
    (pkg_dir / MEMO_NAME).unlink()
    path = pkg_dir / SENSORS_NAME
    path.write_bytes(path.read_bytes()[:-5])
    assert not validate_package(pkg_dir).valid
    assert not (pkg_dir / MEMO_NAME).exists()


@pytest.mark.parametrize("change", ["no frames blob", MEMO_NAME, MEMO_NAME + ".tmp",
                                    COLUMNS_NAME, COLUMNS_NAME + ".tmp"])
def test_a_memo_is_never_trusted_for_an_odd_manifest(tmp_path, decodes, change):
    """A manifest without a stream blob, or with a blob named like a memo
    or its temp file, is always decoded, and such a blob is never overwritten."""
    pkg_dir, _ = write_pkg(tmp_path)
    doc = json.loads((pkg_dir / MANIFEST_NAME).read_bytes())
    if change == "no frames blob":
        doc["blobs"] = [entry for entry in doc["blobs"] if entry["name"] != FRAMES_NAME]
    else:
        (pkg_dir / change).write_bytes(b"a blob\n")
        doc["blobs"].append({"name": change, "bytes": 0, "sha256": "0" * 64})
    (pkg_dir / MANIFEST_NAME).write_text(json.dumps(doc))
    resign_manifest(pkg_dir)
    if change == "no frames blob":
        (pkg_dir / MEMO_NAME).write_bytes(memo_of((pkg_dir / MANIFEST_NAME).read_bytes()))
    for trust in ({"_trust_memo": True}, {"_columns_memo": True}) * 2:
        report = load_package(pkg_dir, **trust)[0]
        assert report.valid and decodes == list(STREAM_NAMES)
        decodes.clear()
    if change != "no frames blob":
        assert (pkg_dir / change).read_bytes() == b"a blob\n"
    assert change == COLUMNS_NAME or not (pkg_dir / COLUMNS_NAME).exists()


def test_validate_works_on_a_read_only_package(tmp_path, monkeypatch):
    pkg_dir, _ = write_pkg(tmp_path)
    want = validate_package(pkg_dir).summary_lines()
    (pkg_dir / MEMO_NAME).unlink()

    def read_only(*args, **kwargs):
        raise OSError(errno.EROFS, "Read-only file system")

    # a mode bit does not stop root, so the rename fails too, as on a read-only mount
    monkeypatch.setattr(os, "replace", read_only)
    pkg_dir.chmod(0o555)
    try:
        for report in (validate_package(pkg_dir), load_package(pkg_dir, _trust_memo=True)[0]):
            assert report.valid and report.summary_lines() == want
    finally:
        pkg_dir.chmod(0o755)
    assert not (pkg_dir / MEMO_NAME).exists()


def test_a_failed_memo_rename_leaves_no_temp_file(tmp_path, monkeypatch):
    pkg_dir, _ = write_pkg(tmp_path)
    (pkg_dir / MEMO_NAME).unlink()

    def read_only(*args, **kwargs):
        raise OSError(errno.EROFS, "Read-only file system")

    monkeypatch.setattr(os, "replace", read_only)
    assert validate_package(pkg_dir).valid
    assert not (pkg_dir / MEMO_NAME).exists()
    assert [p.name for p in pkg_dir.iterdir() if p.name.endswith(".tmp")] == []


def test_roadsense_validate_decodes_even_with_a_fresh_memo(tmp_path, decodes, capsys):
    pkg_dir, manifest = write_pkg(tmp_path)
    assert cli.main(["validate", "--package", str(pkg_dir)]) == 0
    assert decodes == list(STREAM_NAMES)
    assert capsys.readouterr().out == f"{manifest.package_id}: valid\n"


# -- the column memo -------------------------------------------------------------


def assert_same_columns(got, want):
    assert len(got) == len(want) == len(STREAM_NAMES)
    for g, w in zip(got, want):
        assert g.fields.keys() == w.fields.keys()
        for name, v in w.fields.items():
            if isinstance(v, list):
                assert type(g[name]) is list and g[name] == v
            else:
                assert g[name].dtype == v.dtype
                np.testing.assert_array_equal(g[name], v)


def test_a_valid_full_pass_writes_the_column_memo_and_create_package_does_not(tmp_path, decodes):
    pkg_dir, manifest = write_pkg(tmp_path)
    assert not (pkg_dir / COLUMNS_NAME).exists()
    assert COLUMNS_NAME not in {b.name for b in manifest.blobs}
    _, _, want = load_package(pkg_dir)
    manifest_bytes = (pkg_dir / MANIFEST_NAME).read_bytes()
    assert_same_columns(read_columns(pkg_dir, manifest_bytes), want)
    decodes.clear()
    report, _, got = load_package(pkg_dir, _columns_memo=True)
    assert decodes == [] and report.valid
    assert report.summary_lines() == validate_package(pkg_dir).summary_lines()
    assert_same_columns(got, want)
    assert all(v.flags.writeable for cols in got for v in cols.fields.values()
               if isinstance(v, np.ndarray))
    assert sorted(p.name for p in pkg_dir.iterdir()) == sorted(
        [COLUMNS_NAME, MEMO_NAME, MANIFEST_NAME, UPLOAD_STATE_NAME, *STREAM_NAMES])


def test_a_fresh_column_memo_is_not_rewritten(tmp_path):
    pkg_dir, _ = write_pkg(tmp_path)
    validate_package(pkg_dir)
    written = (pkg_dir / COLUMNS_NAME).stat().st_mtime_ns
    for _ in range(2):
        assert validate_package(pkg_dir).valid
        assert load_package(pkg_dir, _columns_memo=True)[0].valid
    assert (pkg_dir / COLUMNS_NAME).stat().st_mtime_ns == written


def _crafted(change):
    """A damage that rewrites the column memo with a valid trailer over
    columns that ``change`` edits in place."""

    def damage(pkg_dir, memo, other):
        streams = load_package(pkg_dir)[2]
        change(streams[0].fields)
        write_columns(pkg_dir, (pkg_dir / MANIFEST_NAME).read_bytes(), streams)
    return damage


def _flip_a_payload_bit(pkg_dir, memo, other):
    data = bytearray(memo.read_bytes())
    data[len(data) // 2] ^= 0x10
    memo.write_bytes(bytes(data))


COLUMN_MEMO_DAMAGE = {
    "missing": lambda pkg_dir, memo, other: memo.unlink(),
    "torn": lambda pkg_dir, memo, other: memo.write_bytes(memo.read_bytes()[:1000]),
    "empty": lambda pkg_dir, memo, other: memo.write_bytes(b""),
    "a flipped payload bit": _flip_a_payload_bit,
    "made for another manifest": lambda pkg_dir, memo, other: memo.write_bytes(other),
    "non-monotonic t": _crafted(lambda cols: cols["t"].__setitem__(slice(1, 3), cols["t"][2:0:-1])),
    "a wrong dtype": _crafted(lambda cols: cols.__setitem__("ax", cols["ax"].astype(np.float32))),
    "a short column": _crafted(lambda cols: cols.__setitem__("ax", cols["ax"][:-1])),
}


@pytest.mark.parametrize("damage", sorted(COLUMN_MEMO_DAMAGE))
def test_a_column_memo_that_is_not_fresh_means_a_full_decode(tmp_path, decodes, damage):
    pkg_dir, _ = write_pkg(tmp_path / "a")
    other_dir, _ = write_pkg(tmp_path / "b", n=31)
    want_report, _, want = load_package(pkg_dir)
    validate_package(other_dir)
    memo = pkg_dir / COLUMNS_NAME
    COLUMN_MEMO_DAMAGE[damage](pkg_dir, memo, (other_dir / COLUMNS_NAME).read_bytes())
    decodes.clear()
    report, _, got = load_package(pkg_dir, _columns_memo=True)
    assert decodes == list(STREAM_NAMES)
    assert report.valid and report.summary_lines() == want_report.summary_lines()
    assert_same_columns(got, want)
    # that valid pass wrote the column memo again, so the next one decodes nothing
    assert_same_columns(read_columns(pkg_dir, (pkg_dir / MANIFEST_NAME).read_bytes()), want)
    decodes.clear()
    report, _, got = load_package(pkg_dir, _columns_memo=True)
    assert decodes == [] and report.summary_lines() == want_report.summary_lines()
    assert_same_columns(got, want)
    assert not (pkg_dir / (COLUMNS_NAME + ".tmp")).exists()


def test_a_stale_stream_check_memo_means_a_full_decode_for_analyze_too(tmp_path, decodes):
    pkg_dir, _ = write_pkg(tmp_path)
    validate_package(pkg_dir)  # a fresh column memo
    (pkg_dir / MEMO_NAME).write_bytes(b"stale\n")
    decodes.clear()
    assert load_package(pkg_dir, _columns_memo=True)[0].valid
    assert decodes == list(STREAM_NAMES)
    assert (pkg_dir / MEMO_NAME).read_bytes() == memo_of((pkg_dir / MANIFEST_NAME).read_bytes())


def test_a_bad_blob_is_reported_despite_fresh_memos(tmp_path):
    pkg_dir, _ = write_pkg(tmp_path)
    want = validate_package(pkg_dir).summary_lines()
    path = pkg_dir / GPS_NAME
    path.write_bytes(path.read_bytes().replace(b"200.0", b"201.0", 1))
    report, _, _ = load_package(pkg_dir, _columns_memo=True)
    assert not report.valid
    assert report.summary_lines() == validate_package(pkg_dir).summary_lines() != want


def test_analyze_works_on_a_read_only_package_and_writes_nothing(tmp_path, monkeypatch, decodes):
    from roadsense.report import analyze

    pkg_dir, _ = write_pkg(tmp_path)
    want = analyze(pkg_dir)
    (pkg_dir / COLUMNS_NAME).unlink()
    before = {p.name: p.read_bytes() for p in pkg_dir.iterdir()}

    def read_only(*args, **kwargs):
        raise OSError(errno.EROFS, "Read-only file system")

    # a mode bit does not stop root, so the rename fails too, as on a read-only mount
    monkeypatch.setattr(os, "replace", read_only)
    pkg_dir.chmod(0o555)
    try:
        for _ in range(2):
            decodes.clear()
            got = analyze(pkg_dir)
            assert decodes == list(STREAM_NAMES)
            assert (got.package_id, got.events, got.segments) == (
                want.package_id, want.events, want.segments)
    finally:
        pkg_dir.chmod(0o755)
    assert {p.name: p.read_bytes() for p in pkg_dir.iterdir()} == before


@settings(max_examples=60, deadline=None)
@given(stream_records())
def test_warm_analyze_gives_the_cold_report_bytes(records):
    from roadsense.drivesim import default_route
    from roadsense.report import analyze, emit_report

    try:
        streams = stream_columns(records)
    except ValidationError:
        return  # a time past int64 has no columns

    def outcome(pkg_dir, out):
        try:
            with np.errstate(all="ignore"):  # extreme drawn values overflow the plot scale
                emit_report(analyze(pkg_dir, route=default_route()), out)
        except Exception as e:  # noqa: BLE001 - must fail the same way warm and cold
            return type(e), str(e)
        return {p.name: p.read_bytes() for p in out.iterdir()}

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        try:
            pkg_dir, _ = create_package(tmp / "lib", *streams, device_id="d",
                                        started_at_ms=0, ended_at_ms=1)
        except ValidationError:
            return
        cold = outcome(pkg_dir, tmp / "cold")
        assert (pkg_dir / COLUMNS_NAME).is_file()
        assert_same_columns(load_package(pkg_dir, _columns_memo=True)[2], load_package(pkg_dir)[2])
        assert outcome(pkg_dir, tmp / "warm") == cold
