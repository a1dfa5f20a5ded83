"""Package directory layout: write, read back, corrupt-and-detect."""

import hashlib
import json
import re
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_frames, make_gps, make_samples
from test_model import LINE_MUTATIONS
from roadsense.errors import ParseError, ValidationError
from roadsense.model import FrameRef, GpsFix, SensorSample, decode_jsonl_stream, parse_manifest
from roadsense.package import (
    FRAMES_NAME,
    GPS_NAME,
    MANIFEST_NAME,
    SENSORS_NAME,
    BlobCheck,
    StreamCheck,
    ValidationReport,
    read_manifest,
    read_stream,
    read_streams,
    sha256_file,
    validate_package,
)
from roadsense.packstore import create_package


def write_pkg(root, n=30):
    return create_package(
        root,
        make_samples(n),
        make_gps(2),
        make_frames(3),
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
    from roadsense.model import encode_jsonl_stream

    data = encode_jsonl_stream(samples)
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
            tmp_path, samples, [], [],
            device_id="d", started_at_ms=0, ended_at_ms=1,
        )
    assert list(tmp_path.iterdir()) == []  # nothing half-written


def test_create_cleans_up_on_failure(tmp_path):
    # blob name validation fails after the directory exists
    with pytest.raises(ValidationError):
        create_package(
            tmp_path, make_samples(2), [], [],
            device_id="d", started_at_ms=0, ended_at_ms=1,
            extra_blobs={"/absolute.bin": b"x"},
        )
    assert list(tmp_path.iterdir()) == []


def test_create_refuses_existing_directory(tmp_path):
    _, manifest = write_pkg(tmp_path)
    with pytest.raises(FileExistsError):
        create_package(
            tmp_path, make_samples(2), [], [],
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
            tmp, make_samples(draw(st.integers(2, 12))), make_gps(draw(st.integers(2, 4))),
            make_frames(draw(st.integers(2, 6))),
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
