"""Shared fixtures: stream builders and a live sync server."""

from __future__ import annotations

import hashlib
import json
import traceback

import pytest

from roadsense import package
from roadsense.model import FrameRef, GpsFix, SensorSample
from roadsense.syncd import SyncServer


def make_samples(n: int, rate_hz: int = 30, az: float = 9.81, ax: float = 0.0, ay: float = 0.0):
    """n quiet IMU samples on the standard tick grid."""
    return [
        SensorSample(t=round(i * 1000 / rate_hz), ax=ax, ay=ay, az=az, gx=0.0, gy=0.0, gz=0.0)
        for i in range(n)
    ]


def make_gps(n: int, rate_hz: float = 1.0, lat: float = 38.95, lon: float = -92.33):
    return [
        GpsFix(t=round(i * 1000 / rate_hz), lat=lat + i * 1e-4, lon=lon, alt_m=200.0, speed_mps=11.0)
        for i in range(n)
    ]


def make_frames(n: int, fps: int = 10):
    return [
        FrameRef(t=round(j * 1000 / fps), index=j, file=f"frames/{j:06d}.jpg")
        for j in range(n)
    ]


def resign_manifest(pkg_dir) -> None:
    """Rewrite the manifest's blob sizes and digests from the files on disk."""
    path = pkg_dir / package.MANIFEST_NAME
    doc = json.loads(path.read_bytes())
    for entry in doc["blobs"]:
        data = (pkg_dir / entry["name"]).read_bytes()
        entry["bytes"], entry["sha256"] = len(data), hashlib.sha256(data).hexdigest()
    path.write_text(json.dumps(doc))


@pytest.fixture
def decodes(monkeypatch):
    """The stream name of every column decode ``load_package`` makes."""
    names = []
    real = package.decode_jsonl_columns

    def counting(data, record_cls, stream_name):
        names.append(stream_name)
        return real(data, record_cls, stream_name)

    monkeypatch.setattr(package, "decode_jsonl_columns", counting)
    return names


@pytest.fixture
def server(tmp_path):
    """A started SyncServer; an exception escaping one of its request
    handlers fails the test that caused it."""
    srv = SyncServer(tmp_path / "syncdata")
    handler_errors = []
    srv._httpd.handle_error = lambda request, client_address: handler_errors.append(
        traceback.format_exc()
    )
    srv.start()
    yield srv
    srv.stop()
    assert not handler_errors, "".join(handler_errors)
