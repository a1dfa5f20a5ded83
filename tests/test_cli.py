"""Command line: end-to-end walkthrough and exit code contract."""

import hashlib
import json
import shutil
from pathlib import Path

import pytest

from roadsense.cli import main
from roadsense.drivesim import Scenario, default_scenario, write_package
from roadsense.errors import NetworkError
from roadsense.package import validate_package
from roadsense.syncclient import SyncClient
from roadsense.geo import ReferenceIriRecord
from roadsense.report import analyze


@pytest.fixture(scope="module")
def sim_lib(tmp_path_factory):
    """A library holding one simulated package, built through the CLI."""
    root = tmp_path_factory.mktemp("clilib")
    scenario_doc = default_scenario(1, duration_s=30.0).to_doc()
    scenario_file = root / "scenario.json"
    scenario_file.write_text(json.dumps(scenario_doc))
    truth_file = root / "truth.json"
    lib = root / "lib"
    rc = main([
        "simulate", "--scenario", str(scenario_file), "--seed", "9",
        "--out", str(lib), "--truth", str(truth_file),
    ])
    assert rc == 0
    scenario = Scenario.from_doc({**scenario_doc, "seed": 9})
    return lib, lib / scenario.package_id, scenario, truth_file


def test_simulate_writes_package_and_truth(sim_lib, capsys):
    lib, pkg_dir, scenario, truth_file = sim_lib
    assert pkg_dir.is_dir()  # --seed overrode the scenario file's seed
    truth = json.loads(truth_file.read_text())
    assert [e["kind"] for e in truth["events"]] == ["pothole", "lane_change", "pothole"]

    rc = main(["validate", "--package", str(pkg_dir)])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.strip() == f"{scenario.package_id}: valid"


def test_query_at_and_range(sim_lib, capsys):
    _, pkg_dir, _, _ = sim_lib
    rc = main(["query", "--package", str(pkg_dir), "--at", "1010"])
    assert rc == 0
    record = json.loads(capsys.readouterr().out)
    assert record["t"] == 1000  # nearest tick on the 30 Hz grid

    rc = main(["query", "--package", str(pkg_dir), "--range", "0", "500"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 16  # ticks 0..500 inclusive
    assert [json.loads(x)["t"] for x in lines][:3] == [0, 33, 67]

    rc = main(["query", "--package", str(pkg_dir), "--stream", "gps", "--at", "2400"])
    assert json.loads(capsys.readouterr().out)["t"] == 2000
    assert rc == 0

    # no record within tolerance: empty output, still a clean exit
    rc = main(["query", "--package", str(pkg_dir), "--at", "1016", "--tol", "5"])
    assert rc == 0
    assert capsys.readouterr().out == ""


# sha256 of the stdout bytes of each query on default_scenario(7), recorded
# when query still decoded records; columns must print the same bytes
QUERY_PINS = [
    (["sensors", "--range", "0", "120000"],
     "d5a2f2d99eb11b3dd6d0cdde60749d9b410e160c50d7a86595f2ce381af5483b"),
    (["frames", "--range", "0", "120000"],
     "d099e5235e1ab908cc511783ba92236229b7df6b829dce36dd656031bb0c9506"),
    (["gps", "--range", "0", "120000"],
     "a32e0d6a7ef8f00a2e30ab58383860aaae335d0a2964ebd768f806c9e30497b0"),
    (["gps", "--at", "5500", "--tol", "600"],
     "11beae473d0286f9c6483e31920917d647f432f14e11af94374b565e0a4aa74b"),
    (["sensors", "--at", "1016", "--tol", "5"],  # nothing within 5 ms
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (["frames", "--at", "-50"],
     "bb55cd0bb775febb72fca0a9e2d966c260d1e4eb894d3dd369baa84387a2b4d9"),
]


def test_query_output_is_pinned(tmp_path, capsysbinary):
    pkg_dir, _, _ = write_package(default_scenario(7), tmp_path)
    for (stream, *query), digest in QUERY_PINS:
        assert main(["query", "--package", str(pkg_dir), "--stream", stream, *query]) == 0
        out = capsysbinary.readouterr().out
        assert hashlib.sha256(out).hexdigest() == digest, (stream, *query)


def test_query_on_a_stream_out_of_order_is_a_validation_failure(sim_lib, tmp_path, capsys):
    pkg_dir = tmp_path / "pkg"
    shutil.copytree(sim_lib[1], pkg_dir)  # the library is shared by the module
    path = pkg_dir / "sensors.jsonl"
    lines = path.read_bytes().split(b"\n")
    lines[1], lines[2] = lines[2], lines[1]  # t = 0, 67, 33, ...
    path.write_bytes(b"\n".join(lines))
    assert main(["query", "--package", str(pkg_dir), "--at", "0"]) == 1
    err = capsys.readouterr().err
    assert "sensors.jsonl: timestamp not strictly increasing at record 2 (t=33)" in err


def test_analyze_plain_and_with_reference(sim_lib, tmp_path, capsys):
    _, pkg_dir, scenario, _ = sim_lib
    out_dir = tmp_path / "report"
    rc = main(["analyze", "--package", str(pkg_dir), "--out", str(out_dir)])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "event(s)" in stdout and "0 segment(s)" in stdout
    assert (out_dir / "report.json").is_file()
    assert json.loads((out_dir / "report.json").read_bytes())["segments"] == []

    route_file = tmp_path / "route.geojson"
    route_file.write_text(json.dumps(scenario.to_doc()["route"]))
    base = analyze(pkg_dir, route=scenario.route)
    refs = [
        ReferenceIriRecord(s.chainage_start_m, s.chainage_end_m, s.rms)
        for s in base.segments
    ]
    ref_file = tmp_path / "iri.csv"
    ref_file.write_text(
        "begin_log_m,end_log_m,iri\n"
        + "".join(f"{r.begin_log_m},{r.end_log_m},{r.iri_value}\n" for r in refs)
    )
    out2 = tmp_path / "report2"
    rc = main([
        "analyze", "--package", str(pkg_dir), "--out", str(out2),
        "--route", str(route_file), "--reference", str(ref_file),
    ])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "r_squared 1.0000" in stdout
    doc = json.loads((out2 / "report.json").read_bytes())
    assert len(doc["segments"]) == len(refs)
    assert doc["gps_accuracy"]["n_fixes"] == 31


def test_status_reports_pending_bytes(sim_lib, capsys):
    lib, _, scenario, _ = sim_lib
    rc = main(["status", "--library", str(lib)])
    assert rc == 0
    line = capsys.readouterr().out.strip()
    assert line.startswith(f"{scenario.package_id}: pending 0/")


# -- exit codes ------------------------------------------------------------------


def test_argument_errors_exit_2(tmp_path, capsys):
    assert main(["simulate", "--out", str(tmp_path)]) == 2  # no seed, no scenario
    assert "argument error" in capsys.readouterr().err

    pkg = tmp_path / "missing"
    ref = tmp_path / "iri.csv"
    ref.write_text("begin_log_m,end_log_m,iri\n0,100,1.5\n")
    assert main([
        "analyze", "--package", str(pkg), "--out", str(tmp_path / "r"),
        "--reference", str(ref),
    ]) == 2  # reference without route, checked before I/O
    assert main(["serve", "--listen", "nope", "--data-dir", str(tmp_path)]) == 2
    assert main(["serve", "--listen", "127.0.0.1:70000", "--data-dir", str(tmp_path)]) == 2
    assert "0-65535" in capsys.readouterr().err
    for max_body_mb in ("0", "-1"):  # a server that would refuse every body
        assert main([
            "serve", "--listen", "127.0.0.1:0", "--data-dir", str(tmp_path),
            "--max-body-mb", max_body_mb,
        ]) == 2
        assert "max_body_mb must be >= 1" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["query", "--package", str(pkg), "--stream", "bogus", "--at", "0"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        main(["upload", "--package", "a", "--library", "b", "--endpoint", "x"])


@pytest.mark.parametrize("flag, args", [
    ("--at", ["--at", "99999999999999999999"]),
    ("--tol", ["--at", "0", "--tol", str(2**63)]),
    ("--range", ["--range", str(-(2**63) - 1), "0"]),
    ("--range", ["--range", "0", str(2**70)]),
])
def test_query_times_beyond_int64_exit_2(tmp_path, capsys, flag, args):
    with pytest.raises(SystemExit) as exc:
        main(["query", "--package", str(tmp_path), *args])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"error: argument {flag}" in err and "beyond the int64 range" in err
    assert "Traceback" not in err


def test_query_takes_the_int64_extremes(sim_lib, capsys):
    _, pkg_dir, _, _ = sim_lib
    lo, hi = str(-(2**63)), str(2**63 - 1)
    # 2**63 ms from the first record: beyond any tolerance the flag takes
    assert main(["query", "--package", str(pkg_dir), "--at", lo, "--tol", hi]) == 0
    assert capsys.readouterr().out == ""
    assert main(["query", "--package", str(pkg_dir), "--at", lo]) == 0
    assert json.loads(capsys.readouterr().out)["t"] == 0
    assert main(["query", "--package", str(pkg_dir), "--range", lo, hi]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 901


def test_missing_paths_exit_3(tmp_path, capsys):
    assert main(["status", "--library", str(tmp_path / "void")]) == 3
    assert main(["query", "--package", str(tmp_path / "void"), "--at", "0"]) == 3
    assert main([
        "upload", "--package", str(tmp_path / "void"),
        "--endpoint", "http://127.0.0.1:9",
    ]) == 3
    capsys.readouterr()

    # route and reference load before the package is read
    analyze_args = ["analyze", "--package", str(tmp_path / "void"), "--out", str(tmp_path / "r")]
    assert main(analyze_args + ["--route", str(tmp_path / "void.geojson")]) == 3
    assert "void.geojson" in capsys.readouterr().err
    route = tmp_path / "route.geojson"
    coords = [[-92.0, 38.0], [-92.0, 38.001]]
    route.write_text(json.dumps({"type": "LineString", "coordinates": coords}))
    missing_ref = ["--reference", str(tmp_path / "void.csv")]
    assert main(analyze_args + ["--route", str(route)] + missing_ref) == 3
    assert "void.csv" in capsys.readouterr().err


def test_a_route_with_a_bad_vertex_exits_1(tmp_path, capsys):
    route = tmp_path / "route.geojson"
    route.write_text('{"type": "LineString", "coordinates": [[-92.0, 38.0], [-92.0, NaN]]}')
    assert main([
        "analyze", "--package", str(tmp_path / "void"), "--out", str(tmp_path / "r"),
        "--route", str(route),
    ]) == 1  # the route loads before the package is read
    assert "vertex 1 " in capsys.readouterr().err


def test_chunk_bytes_below_one_exits_2_before_any_request(sim_lib, capsys):
    _, pkg_dir, _, _ = sim_lib
    assert main([
        "upload", "--package", str(pkg_dir), "--endpoint", "http://127.0.0.1:9",
        "--chunk-bytes", "0",
    ]) == 2
    assert "chunk_bytes must be >= 1" in capsys.readouterr().err


def test_corrupt_package_exits_1(tmp_path, capsys):
    rc = main(["simulate", "--seed", "30", "--out", str(tmp_path)])
    assert rc == 0
    pkg_dir = tmp_path / default_scenario(30).package_id
    blob = pkg_dir / "gps.jsonl"
    raw = bytearray(blob.read_bytes())
    raw[-2] ^= 0xFF
    blob.write_bytes(bytes(raw))
    capsys.readouterr()
    assert main(["validate", "--package", str(pkg_dir)]) == 1
    assert "sha256 mismatch" in capsys.readouterr().out


def test_unreachable_endpoint_exits_4(sim_lib, capsys):
    _, pkg_dir, _, _ = sim_lib
    rc = main([
        "upload", "--package", str(pkg_dir),
        "--endpoint", "http://127.0.0.1:9", "--max-retries", "0",
    ])
    assert rc == 4
    assert "failed" in capsys.readouterr().out


# -- against a live service ---------------------------------------------------------


def flip_a_sensor_bit(pkg_dir):
    blob = pkg_dir / "sensors.jsonl"
    raw = bytearray(blob.read_bytes())
    raw[len(raw) // 2] ^= 0x01
    blob.write_bytes(bytes(raw))


def test_upload_refuses_a_corrupt_package_before_any_request(server, tmp_path, capsys):
    lib = tmp_path / "lib"
    assert main(["simulate", "--seed", "34", "--out", str(lib)]) == 0
    pkg_dir = lib / default_scenario(34).package_id
    flip_a_sensor_bit(pkg_dir)
    chaos = tmp_path / "chaos.json"
    chaos.write_text(json.dumps({"disconnect_count": 1}))
    capsys.readouterr()
    upload = [
        "upload", "--package", str(pkg_dir), "--endpoint", server.base_url,
        "--max-retries", "0",
    ]
    for extra in ([], ["--chaos", str(chaos)]):
        assert main(upload + extra) == 1
        out = capsys.readouterr().out
        assert "blob sensors.jsonl: sha256 mismatch" in out
    assert server.registry.packages == {}  # nothing was registered


def test_upload_library_names_corrupt_packages(server, tmp_path, capsys):
    lib = tmp_path / "lib"
    for seed in (35, 36):
        assert main(["simulate", "--seed", str(seed), "--out", str(lib)]) == 0
    corrupt_id, good_id = (default_scenario(seed).package_id for seed in (35, 36))
    flip_a_sensor_bit(lib / corrupt_id)
    capsys.readouterr()

    # the good package uploads; the corrupt one is named and skipped
    assert main(["upload", "--library", str(lib), "--endpoint", server.base_url]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert f"{good_id}: complete" in lines
    assert any(
        line.startswith(f"{corrupt_id}: CORRUPT (") and "sha256 mismatch" in line
        for line in lines
    )
    assert list(server.registry.packages) == [good_id]

    # an upload that does not complete outranks a skipped package
    (lib / good_id / "upload_state.json").unlink()
    rc = main([
        "upload", "--library", str(lib), "--endpoint", "http://127.0.0.1:9",
        "--max-retries", "0",
    ])
    assert rc == 4
    out = capsys.readouterr().out
    assert f"{corrupt_id}: CORRUPT (" in out and f"{good_id}: failed" in out


def test_upload_pull_round_trip(server, tmp_path, capsys):
    lib = tmp_path / "lib"
    assert main(["simulate", "--seed", "31", "--out", str(lib)]) == 0
    pkg_dir = lib / default_scenario(31).package_id
    capsys.readouterr()

    rc = main(["upload", "--package", str(pkg_dir), "--endpoint", server.base_url])
    assert rc == 0
    assert "complete" in capsys.readouterr().out

    # idempotent: sidecar is already COMPLETE
    assert main(["upload", "--package", str(pkg_dir), "--endpoint", server.base_url]) == 0

    pulled = tmp_path / "pulled"
    rc = main(["pull", "--endpoint", server.base_url, "--out", str(pulled)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "seq 1, valid" in out and "1 package(s)" in out
    mirror = pulled / pkg_dir.name
    for name in ("sensors.jsonl", "gps.jsonl", "frames.jsonl"):
        assert (mirror / name).read_bytes() == (pkg_dir / name).read_bytes()

    rc = main(["pull", "--endpoint", server.base_url, "--out", str(pulled)])
    assert rc == 0
    assert "exists, skipped" in capsys.readouterr().out

    rc = main(["status", "--library", str(lib)])
    assert rc == 0
    assert "complete" in capsys.readouterr().out


def test_interrupted_pull_resumes_to_a_valid_mirror(server, tmp_path, monkeypatch, capsys):
    lib = tmp_path / "lib"
    assert main(["simulate", "--seed", "33", "--out", str(lib)]) == 0
    pkg_dir = lib / default_scenario(33).package_id
    assert main(["upload", "--package", str(pkg_dir), "--endpoint", server.base_url]) == 0

    real_download = SyncClient.download_blob
    calls = []

    def dies_after_first_blob(self, package_id, name):
        if calls:
            raise NetworkError("connection lost mid-pull")
        calls.append(name)
        return real_download(self, package_id, name)

    pulled = tmp_path / "pulled"
    monkeypatch.setattr(SyncClient, "download_blob", dies_after_first_blob)
    assert main(["pull", "--endpoint", server.base_url, "--out", str(pulled)]) == 4
    assert not (pulled / pkg_dir.name).exists()
    monkeypatch.undo()
    capsys.readouterr()

    assert main(["pull", "--endpoint", server.base_url, "--out", str(pulled)]) == 0
    assert "seq 1, valid" in capsys.readouterr().out
    assert [p.name for p in pulled.iterdir()] == [pkg_dir.name]  # no work dir left
    mirror = pulled / pkg_dir.name
    assert validate_package(mirror).valid
    for name in ("manifest.json", "sensors.jsonl", "gps.jsonl", "frames.jsonl"):
        assert (mirror / name).read_bytes() == (pkg_dir / name).read_bytes()

    assert main(["pull", "--endpoint", server.base_url, "--out", str(pulled)]) == 0
    assert "exists, skipped" in capsys.readouterr().out


def test_pull_makes_each_blob_directory_once(server, tmp_path, monkeypatch):
    scenario = default_scenario(35, duration_s=10.0, frame_rate_fps=1, frame_bytes=64)
    pkg_dir, manifest, _ = write_package(scenario, tmp_path / "lib")
    assert sum(b.name.startswith("frames/") for b in manifest.blobs) > 1
    assert main(["upload", "--package", str(pkg_dir), "--endpoint", server.base_url]) == 0
    made = []
    real_mkdir = Path.mkdir

    def counting_mkdir(self, *args, **kwargs):
        made.append(self.name)
        return real_mkdir(self, *args, **kwargs)

    monkeypatch.setattr(Path, "mkdir", counting_mkdir)
    assert main(["pull", "--endpoint", server.base_url, "--out", str(tmp_path / "pulled")]) == 0
    assert made.count("frames") == 1
    mirror = tmp_path / "pulled" / pkg_dir.name
    for blob in manifest.blobs:
        served = server.registry.read_blob(manifest.package_id, blob.name)
        assert (mirror / blob.name).read_bytes() == served


def test_upload_library_names_a_package_left_failed(server, tmp_path, capsys):
    lib = tmp_path / "lib"
    assert main(["simulate", "--seed", "37", "--out", str(lib)]) == 0
    pid = default_scenario(37).package_id
    dead = ["--endpoint", "http://127.0.0.1:9", "--max-retries", "0"]
    assert main(["upload", "--library", str(lib), *dead]) == 4
    capsys.readouterr()

    # FAILED is terminal: the live server gets nothing, and the run says why
    assert main(["upload", "--library", str(lib), "--endpoint", server.base_url]) == 4
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"{pid}: failed (not retried: ")
    assert server.registry.packages == {}


def test_upload_library_batch(server, tmp_path, capsys):
    lib = tmp_path / "lib"
    for seed in (41, 42):
        assert main(["simulate", "--seed", str(seed), "--out", str(lib)]) == 0
    capsys.readouterr()
    rc = main([
        "upload", "--library", str(lib), "--endpoint", server.base_url,
        "--parallelism", "2",
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.count("complete") == 2


def test_upload_with_chaos_profile_and_transcript(server, tmp_path, capsys):
    lib = tmp_path / "lib"
    assert main(["simulate", "--seed", "43", "--out", str(lib)]) == 0
    pkg_dir = lib / default_scenario(43).package_id
    chaos = tmp_path / "chaos.json"
    chaos.write_text(json.dumps({"drop_at_fraction": 0.5, "disconnect_count": 1}))
    transcript = tmp_path / "transcript.jsonl"
    capsys.readouterr()

    rc = main([
        "upload", "--package", str(pkg_dir), "--endpoint", server.base_url,
        "--chaos", str(chaos), "--transcript", str(transcript),
        "--chunk-bytes", "4096",
    ])
    assert rc == 0
    assert "complete" in capsys.readouterr().out
    entries = [json.loads(x) for x in transcript.read_bytes().splitlines()]
    assert any(e.get("injected") == "disconnect" for e in entries)
    assert any(e.get("injected") == "drop_mid_chunk" for e in entries)
    assert entries[-1]["kind"] == "transition" and entries[-1]["status"] == "complete"
