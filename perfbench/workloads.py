"""Inputs and closed loops of the three benchmark workloads.

Every workload runs in its own process against an in-process
``SyncServer`` on 127.0.0.1:0. Inputs (drivesim packages, a densified route
GeoJSON, a reference-IRI CSV) are generated from the seed during set-up;
the program only ever sees those files. A pass is one closed-loop unit of
work; passes repeat until the run's measuring time is used up.

Set-up is the input generation plus one server start. It is repeated
(three times; five for roundtrip_frames, whose set-up is short and noisy)
so that ``setup_s`` is a median, not a single reading.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
import threading
import time
from pathlib import Path

import numpy as np

from roadsense import cli, drivesim, package, packstore, report
from roadsense.errors import NetworkError
from roadsense.geo import Polyline
from roadsense.packstore import OffsetMismatch, ServerRejected, UploadStatus
from roadsense.syncclient import StreamEnded, SyncClient
from roadsense.syncd import SyncServer

REPORT_FILES = (
    report.REPORT_JSON, report.SEGMENTS_CSV, report.EVENTS_CSV,
    report.TRACE_GEOJSON, report.ACCEL_SVG, report.FIT_SVG,
)
GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"
# the fixed drive every analysing run also checks against recorded digests,
# whatever seed the run itself was given
FIXED_SEED = 7

LONG_ROUTE_M = 25_000.0
DENSE_SPACING_M = 10.0
IRI_CELL_M = 160.9


class Run:
    """State of one benchmark run: samples, operation counts, tracer."""

    def __init__(self, work: Path, seed: int, seconds: float, tracer=None):
        self.work = work
        self.seed = seed
        self.seconds = seconds
        self.tracer = tracer
        self.samples: dict[str, list[float]] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.retries = 0
        self.passes = 0
        # over the traced passes only: what per-layer ratios divide by
        self.traced_passes = 0
        self.payload_bytes = 0
        self.records_stored = 0
        self.routed_analyses = 0
        self.receipts: list[tuple[int, float]] = []   # (commit_seq, receipt time)
        self.commit_started: dict[str, float] = {}
        self._lock = threading.Lock()
        self._golden = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.is_file() else {}

    def sample(self, metric: str, value: float) -> None:
        with self._lock:
            self.samples.setdefault(metric, []).append(value)

    def check(self, ok: bool, what: str) -> None:
        """Count one attempted operation; a false check is a failed one."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)

    def count_retry(self) -> None:
        with self._lock:
            self.retries += 1

    def phase(self, name: str | None):
        if self.tracer is not None:
            self.tracer.phase = name

    def span(self, name: str, trace: str | None = None):
        return self.tracer.span(name, trace) if self.tracer else contextlib.nullcontext()

    def golden(self, *path: str) -> dict | None:
        node = self._golden
        for p in path:
            node = node.get(p) if isinstance(node, dict) else None
        return node

    def start_pass(self) -> bool:
        """Start recording a pass. A traced run leaves every other pass
        untraced, so that it measures its own overhead under the same load."""
        traced = self.tracer is not None and self.passes % 2 == 0
        self.phase("measure" if traced else None)
        return traced

    def end_pass(self, traced: bool, seconds: float, payload: int, records: int,
                 routed: int = 0) -> None:
        self.phase(None)
        self.passes += 1
        if self.tracer is not None and not traced:
            self.sample("untraced_pass_s", seconds)
            return
        self.sample("pass_s", seconds)
        self.traced_passes += traced
        self.payload_bytes += payload
        self.records_stored += records
        self.routed_analyses += routed

    def more_passes(self, started: float) -> bool:
        """Until the measuring time is used up; a traced run needs a traced
        and an untraced pass."""
        if self.tracer is not None and self.passes < 2:
            return True
        return time.perf_counter() - started < self.seconds


class TimedSyncClient(SyncClient):
    """The client ``upload_library`` gets from its ``client_factory``: times
    commits and counts every error surfaced to the uploader as a retry."""

    def __init__(self, base_url: str, run: Run):
        super().__init__(base_url)
        self._run = run

    def _counted(self, call, *args):
        try:
            return call(*args)
        except (OffsetMismatch, NetworkError, ServerRejected):
            self._run.count_retry()
            raise

    def create_session(self, manifest):
        return self._counted(super().create_session, manifest)

    def blob_offset(self, package_id, name):
        return self._counted(super().blob_offset, package_id, name)

    def put_chunk(self, package_id, name, offset, data):
        return self._counted(super().put_chunk, package_id, name, offset, data)

    def commit(self, package_id):
        t0 = time.perf_counter()
        self._run.commit_started[package_id] = t0
        doc = self._counted(super().commit, package_id)
        self._run.sample("commit_ms", (time.perf_counter() - t0) * 1000.0)
        return doc


class ClientPool:
    """``client_factory`` for upload_library that closes what it handed out."""

    def __init__(self, base_url: str, run: Run):
        self.base_url = base_url
        self.run = run
        self.clients: list[TimedSyncClient] = []

    def __call__(self) -> TimedSyncClient:
        client = TimedSyncClient(self.base_url, self.run)
        self.clients.append(client)
        return client

    def close(self) -> None:
        for c in self.clients:
            c.close()


class Subscriber:
    """One SSE subscriber on /v1/stream that stamps each event on receipt."""

    def __init__(self, base_url: str, run: Run):
        self.run = run
        self.events: list[tuple[float, dict]] = []   # (receipt time, event)
        self._stream = SyncClient(base_url).subscribe(from_seq=0)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()

    def _loop(self) -> None:
        while not self._stop.is_set():
            try:
                doc = self._stream.next_event(timeout=0.1)
            except StreamEnded:
                return
            if doc is not None:
                t = time.perf_counter()
                self.run.receipts.append((int(doc["commit_seq"]), t))
                self.events.append((t, doc))

    def wait_for(self, n: int, timeout: float = 10.0) -> bool:
        deadline = time.monotonic() + timeout
        while len(self.events) < n and time.monotonic() < deadline:
            time.sleep(0.005)
        return len(self.events) >= n

    def close(self) -> None:
        self._stop.set()
        self._thread.join(timeout=5)
        self._stream.close()


# -- inputs ------------------------------------------------------------------


def dense_route(seed: int) -> tuple[Polyline, Polyline]:
    """(base, dense): drivesim's default route over 25 km with a heading
    drawn from the seed, and the same line with a vertex every 10 m."""
    rng = np.random.default_rng([seed, 1])
    base = drivesim.default_route(heading_deg=240.0 + 60.0 * float(rng.random()),
                                  length_m=LONG_ROUTE_M)
    verts = []
    for i in range(len(base.vertices) - 1):
        (alat, alon), (blat, blon) = base.vertices[i], base.vertices[i + 1]
        n = max(1, round((base.chainage[i + 1] - base.chainage[i]) / DENSE_SPACING_M))
        verts.extend((alat + k / n * (blat - alat), alon + k / n * (blon - alon)) for k in range(n))
    verts.append(base.vertices[-1])
    return base, Polyline(verts)


def write_route(line, path: Path) -> Path:
    coords = [[lon, lat] for lat, lon in line.vertices]
    path.write_text(json.dumps({"type": "LineString", "coordinates": coords}), encoding="utf-8")
    return path


def write_reference_csv(seed: int, length_m: float, path: Path) -> Path:
    """One reference IRI row per 160.9 m cell along the route."""
    rng = np.random.default_rng([seed, 2])
    cells = math.ceil(length_m / IRI_CELL_M)
    lines = ["# units: m/km", "begin_log_m,end_log_m,iri"]
    for c in range(cells):
        lo, hi = c * IRI_CELL_M, min((c + 1) * IRI_CELL_M, length_m)
        lines.append(f"{lo:.1f},{hi:.1f},{1.0 + 3.0 * float(rng.random()):.3f}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def write_library(scenarios, root: Path) -> list[Path]:
    root.mkdir(parents=True)
    return [drivesim.write_package(s, root)[0] for s in scenarios]


# Each of these writes one workload's inputs under ``root`` and returns
# {"lib": library dir, "pkgs": package dirs, "route": GeoJSON, "ref": IRI CSV}
# (route and ref where the workload analyses with them).


def long_inputs(seed: int, root: Path) -> dict:
    base, dense = dense_route(seed)
    scenario = drivesim.default_scenario(
        seed * 1000, duration_s=1200.0, route=base,
        rough_patches=(drivesim.RoughPatch(540.0, 600.0, 0.5),),
    )
    return {
        "lib": root / "lib",
        "pkgs": write_library([scenario], root / "lib"),
        "route": write_route(dense, root / "route.geojson"),
        "ref": write_reference_csv(seed, dense.length_m, root / "iri.csv"),
    }


def ingest_inputs(seed: int, root: Path) -> dict:
    scenarios = [drivesim.default_scenario(seed * 1000 + i, duration_s=600.0) for i in range(8)]
    return {"lib": root / "lib", "pkgs": write_library(scenarios, root / "lib")}


def frames_inputs(seed: int, root: Path) -> dict:
    scenarios = [
        drivesim.default_scenario(seed * 1000 + i, duration_s=120.0,
                                  frame_rate_fps=1, frame_bytes=8192)
        for i in range(4)
    ]
    return {
        "lib": root / "lib",
        "pkgs": write_library(scenarios, root / "lib"),
        "route": write_route(drivesim.default_route(), root / "route.geojson"),
    }


def fixed_inputs(root: Path) -> dict:
    """The fixed drive: seed 7, 120 s, default route and an IRI CSV."""
    line = drivesim.default_route()
    return {
        "lib": root / "lib",
        "pkgs": write_library([drivesim.default_scenario(FIXED_SEED)], root / "lib"),
        "route": write_route(line, root / "route.geojson"),
        "ref": write_reference_csv(FIXED_SEED, line.length_m, root / "iri.csv"),
    }


def analyze_into(inp: dict, pkg: Path, out: Path) -> None:
    """analyze() + emit_report() of one package with the workload's route
    and reference, called through the module so tracing sees them."""
    rep = report.analyze(pkg, route=inp["route"], reference=inp.get("ref"))
    report.emit_report(rep, out)


def package_stats(pkg_dirs) -> tuple[int, int]:
    """(payload bytes, JSONL records) over the given packages."""
    payload = records = 0
    for d in pkg_dirs:
        manifest = package.read_manifest(d)
        payload += sum(b.bytes for b in manifest.blobs)
        records += sum((Path(d) / n).read_bytes().count(b"\n") for n in package.STREAM_NAMES)
    return payload, records


def set_up(run: Run, make_inputs, times: int = 3) -> tuple[dict, SyncServer]:
    """Generate inputs and start a server ``times`` times; keep the first
    set and the first server, record each as a ``setup_s`` sample."""
    kept = None
    try:
        for k in range(times):
            root = run.work / f"setup{k}"
            root.mkdir()
            run.phase("setup")
            t0 = time.perf_counter()
            inputs = make_inputs(root)
            server = SyncServer(root / "server").start()
            run.sample("setup_s", time.perf_counter() - t0)
            run.phase(None)
            if kept is None:
                kept = (inputs, server)
            else:
                server.stop()
                shutil.rmtree(root)
    except BaseException:
        if kept is not None:
            kept[1].stop()
        raise
    return kept


# -- checks ------------------------------------------------------------------


def report_digests(out_dir: Path) -> dict:
    return {n: hashlib.sha256((out_dir / n).read_bytes()).hexdigest() for n in REPORT_FILES}


def check_report(run: Run, out_dir: Path, expected: dict | None, seen: dict, key: str) -> None:
    """Digests must equal the recorded ones when the seed has a record, and
    must repeat exactly across passes over the same input."""
    got = report_digests(out_dir)
    if expected is not None:
        run.check(got == expected, f"{key}: report digests differ from the recorded ones")
    if key in seen:
        run.check(got == seen[key], f"{key}: report digests changed between passes")
    seen.setdefault(key, got)


def check_fixed_drive(run: Run) -> None:
    """Analyse the fixed-seed drive and compare with its recorded digests."""
    root = run.work / "fixed"
    inp = fixed_inputs(root)
    analyze_into(inp, inp["pkgs"][0], root / "out")
    expected = run.golden("fixed", str(FIXED_SEED))
    run.check(expected is not None and report_digests(root / "out") == expected,
              "fixed drive: report digests differ from the recorded ones")
    shutil.rmtree(root)


def check_upload(run: Run, states: dict, pkg_dirs, server: SyncServer) -> None:
    """Every upload COMPLETE and every server-side blob equal to its local copy."""
    for d in pkg_dirs:
        manifest = package.read_manifest(d)
        pid = manifest.package_id
        state = states.get(pid)
        ok = state is not None and state.status is UploadStatus.COMPLETE
        ok = ok and all(
            server.registry.read_blob(pid, b.name) == (Path(d) / b.name).read_bytes()
            for b in manifest.blobs
        )
        run.check(ok, f"upload {pid}: not COMPLETE or server blobs differ")


def check_pulled(run: Run, mirror: Path, pkg_dirs) -> None:
    """Each pulled package validates and is byte-equal to its source."""
    for d in pkg_dirs:
        src = Path(d)
        dst = mirror / src.name
        manifest = package.read_manifest(src)
        names = [package.MANIFEST_NAME] + [b.name for b in manifest.blobs]
        ok = dst.is_dir() and package.validate_package(dst).valid and all(
            (dst / n).read_bytes() == (src / n).read_bytes() for n in names
        )
        run.check(ok, f"pull {src.name}: invalid or differs from its source")


# -- workloads ---------------------------------------------------------------


def analyze_long(run: Run) -> None:
    """One 1,200 s drive analysed against a dense 25 km route and an IRI CSV."""

    inp, server = set_up(run, lambda root: long_inputs(run.seed, root))
    pkg = inp["pkgs"][0]
    payload, records = package_stats([pkg])
    expected = run.golden("analyze_long", str(run.seed))
    seen: dict = {}
    try:
        started = time.perf_counter()
        while True:
            out = run.work / f"out{run.passes}"
            traced = run.start_pass()
            with run.span("bench.pass"), run.span("bench.analyze_drive", pkg.name):
                t0 = time.perf_counter()
                analyze_into(inp, pkg, out)
                dt = time.perf_counter() - t0
            run.sample("analyze_s", dt)
            run.end_pass(traced, dt, payload, records, routed=1)
            check_report(run, out, expected, seen, "drive")
            shutil.rmtree(out)
            if not run.more_passes(started):
                break
        check_fixed_drive(run)
    finally:
        server.stop()


def _upload(run: Run, lib: Path, server: SyncServer, parallelism: int, chunk_bytes: int) -> dict:
    """recover() then upload_library(), as ``roadsense upload --library`` does."""
    pool = ClientPool(server.base_url, run)
    try:
        with run.span("bench.upload"):
            index = packstore.recover(lib)
            return packstore.upload_library(
                index, pool, parallelism=parallelism, chunk_bytes=chunk_bytes
            )
    finally:
        pool.close()


def ingest_chunked(run: Run) -> None:
    """A library of 8 x 600 s drives uploaded in 16 KiB chunks, 2 at a time."""

    inp, server = set_up(run, lambda root: ingest_inputs(run.seed, root))
    payload, records = package_stats(inp["pkgs"])
    try:
        started = time.perf_counter()
        while True:
            n = run.passes
            lib = run.work / f"lib{n}"
            shutil.copytree(inp["lib"], lib)
            if n > 0:
                server.stop()
                server = SyncServer(run.work / f"server{n}").start()
            traced = run.start_pass()
            with run.span("bench.pass"):
                t0 = time.perf_counter()
                states = _upload(run, lib, server, parallelism=2, chunk_bytes=16384)
                dt = time.perf_counter() - t0
            run.sample("upload_mb_s", payload / dt / 1e6)
            run.end_pass(traced, dt, payload, records)
            check_upload(run, states, sorted(lib.iterdir()), server)
            shutil.rmtree(lib)
            if not run.more_passes(started):
                break
    finally:
        server.stop()


def roundtrip_frames(run: Run) -> None:
    """4 x 120 s drives with frames: upload with a live subscriber, pull
    through the CLI, analyse each pulled package."""

    inp, server = set_up(run, lambda root: frames_inputs(run.seed, root), times=5)
    payload, records = package_stats(inp["pkgs"])
    seen: dict = {}
    try:
        started = time.perf_counter()
        while True:
            n = run.passes
            lib = run.work / f"lib{n}"
            mirror = run.work / f"mirror{n}"
            shutil.copytree(inp["lib"], lib)
            if n > 0:
                server.stop()
                server = SyncServer(run.work / f"server{n}").start()
            run.commit_started.clear()
            sub = Subscriber(server.base_url, run)
            pulled_out = io.StringIO()
            analyses: list[float] = []
            try:
                traced = run.start_pass()
                with run.span("bench.pass"):
                    t0 = time.perf_counter()
                    states = _upload(run, lib, server, parallelism=1,
                                     chunk_bytes=packstore.DEFAULT_CHUNK_BYTES)
                    t_up = time.perf_counter()
                    with run.span("bench.pull"), contextlib.redirect_stdout(pulled_out):
                        rc = cli.main(["pull", "--endpoint", server.base_url, "--out", str(mirror)])
                    t_pull = time.perf_counter()
                    for pkg in sorted(p for p in mirror.iterdir() if p.is_dir()):
                        with run.span("bench.analyze_drive", pkg.name):
                            a0 = time.perf_counter()
                            analyze_into(inp, pkg, run.work / f"out{n}" / pkg.name)
                            analyses.append(time.perf_counter() - a0)
                    t_end = time.perf_counter()
                run.end_pass(traced, t_end - t0, payload, records, routed=len(analyses))
                got_all = sub.wait_for(len(inp["pkgs"]))
            finally:
                run.phase(None)
                sub.close()
            run.sample("roundtrip_s", t_end - t0)
            run.sample("upload_mb_s", payload / (t_up - t0) / 1e6)
            run.sample("pull_mb_s", payload / (t_pull - t_up) / 1e6)
            for dt in analyses:
                run.sample("analyze_s", dt)
            for t_seen, ev in sub.events:
                t_commit = run.commit_started.get(ev["package_id"])
                if t_commit is not None:
                    run.sample("fanout_ms", (t_seen - t_commit) * 1000.0)
            run.check(rc == 0, f"pull exited {rc}: {pulled_out.getvalue()[-200:]}")
            run.check(got_all, f"subscriber saw {len(sub.events)} of {len(inp['pkgs'])} commits")
            check_upload(run, states, sorted(lib.iterdir()), server)
            check_pulled(run, mirror, inp["pkgs"])
            for i, src in enumerate(inp["pkgs"]):
                out = run.work / f"out{n}" / src.name
                run.check(out.is_dir(), f"no report for {src.name}")
                if out.is_dir():
                    expected = run.golden("roundtrip_frames", str(run.seed), str(i))
                    check_report(run, out, expected, seen, str(i))
            for d in (lib, mirror, run.work / f"out{n}"):
                shutil.rmtree(d, ignore_errors=True)
            if not run.more_passes(started):
                break
        check_fixed_drive(run)
    finally:
        server.stop()


WORKLOADS = {
    "analyze_long": analyze_long,
    "ingest_chunked": ingest_chunked,
    "roundtrip_frames": roundtrip_frames,
}
