"""In-memory span tracer that wraps roadsense's public functions from outside.

Nothing inside the program changes: ``install`` replaces each traced
function at the binding its caller looks up (for example
``report.detect_axis_spikes``, which ``analyze`` calls through the report
module's globals), and ``uninstall`` puts the originals back. Spans live in
a list until ``write`` dumps them as JSONL at the end of a run.

Each span records its name, trace id (the package id wherever the call
names one, otherwise inherited from the enclosing span), parent, thread,
start and end, and the number of ``os.fsync`` calls made while it was the
innermost open span on its thread.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np


class Span:
    __slots__ = ("id", "name", "trace", "parent", "thread", "phase", "key",
                 "start", "end", "child_s", "fsyncs")

    def __init__(self, id, name, trace, parent, phase, key):
        self.id = id
        self.name = name
        self.trace = trace
        self.parent = parent
        self.thread = threading.get_ident()
        self.phase = phase
        self.key = key
        self.start = time.perf_counter()
        self.end = None
        self.child_s = 0.0
        self.fsyncs = 0

    @property
    def dur(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.dur - self.child_s

    def to_doc(self) -> dict:
        return {
            "id": self.id, "name": self.name, "trace": self.trace,
            "parent": self.parent.id if self.parent else None,
            "thread": self.thread, "phase": self.phase,
            "key": list(self.key) if self.key else None,
            "start": self.start, "end": self.end, "self_s": self.self_s,
            "fsyncs": self.fsyncs,
        }


class Tracer:
    """Records spans while ``phase`` is set; passes calls straight through
    while it is None (set-up bookkeeping and correctness checks)."""

    def __init__(self):
        self.phase: str | None = None
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, trace: str | None, key) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if trace is None:
            trace = parent.trace if parent else "-"
        span = Span(next(self._ids), name, trace, parent, self.phase, key)
        stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        if span.parent is not None:
            span.parent.child_s += span.dur
        self.spans.append(span)

    @contextmanager
    def span(self, name: str, trace: str | None = None):
        """A span opened by the benchmark itself around a group of calls."""
        if self.phase is None:
            yield
            return
        s = self._open(name, trace, None)
        try:
            yield
        finally:
            self._close(s)

    def wrap(self, owner, attr: str, name: str, trace_of=None, key_of=None) -> None:
        """Replace ``owner.attr`` by a function that records a span per call.

        ``trace_of(args)`` and ``key_of(args)`` pick the trace id and the
        request key out of the positional arguments (``self`` included for
        methods).
        """
        original = vars(owner)[attr]
        func = getattr(owner, attr)
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if tracer.phase is None:
                return func(*args, **kwargs)
            span = tracer._open(
                name,
                trace_of(args) if trace_of else None,
                key_of(args) if key_of else None,
            )
            try:
                return func(*args, **kwargs)
            finally:
                tracer._close(span)

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def count_fsyncs(self) -> None:
        real = os.fsync
        tracer = self

        def fsync(fd):
            if tracer.phase is not None:
                stack = tracer._stack()
                if stack:
                    stack[-1].fsyncs += 1
            return real(fd)

        os.fsync = fsync
        self._patches.append((os, "fsync", real))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for s in self.spans:
                f.write(json.dumps(s.to_doc()) + "\n")


def _pkg_of_dir(args) -> str:
    return Path(args[0]).name


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every roadsense layer."""
    from roadsense import cli, drivesim, geo, kinematics, package, packstore, report
    from roadsense import syncclient, syncd

    w = tracer.wrap
    # package / model: validate and read, at each importing module's binding
    for mod in (package, report, packstore, cli):
        w(mod, "validate_package", "package.validate_package", _pkg_of_dir)
    w(report, "read_streams", "package.read_streams", _pkg_of_dir)
    w(report, "read_manifest", "package.read_manifest", _pkg_of_dir)
    for mod in (package, packstore, syncd):
        w(mod, "sha256_file", "package.sha256_file", key_of=lambda a: (Path(a[0]).stat().st_size,))
    w(package, "decode_jsonl_stream", "model.decode_jsonl_stream",
      key_of=lambda a: (a[0].count(b"\n"),))
    # analysis layers, at the report module's bindings
    w(report, "align_streams", "timeline.align_streams")
    w(report, "detect_axis_spikes", "kinematics.detect_axis_spikes")
    w(kinematics, "robust_scores", "kinematics.robust_scores")
    w(report, "classify_events", "kinematics.classify_events")
    w(report, "segment_roughness", "kinematics.segment_roughness")
    w(report, "trace_accuracy", "geo.trace_accuracy")
    w(geo.Polyline, "snap_many", "geo.snap_many")
    w(geo.Polyline, "from_geojson", "geo.from_geojson")
    w(report, "load_reference_csv", "geo.load_reference_csv")
    w(report, "join_reference", "geo.join_reference")
    w(report, "regression_metrics", "geo.regression_metrics")
    w(report, "analyze", "report.analyze", _pkg_of_dir)
    w(report, "emit_report", "report.emit_report", lambda a: a[0].package_id)
    # upload side
    w(drivesim, "write_package", "drivesim.write_package")
    w(packstore, "recover", "packstore.recover")
    w(packstore, "upload_library", "packstore.upload_library")
    w(packstore, "write_upload_state", "packstore.write_upload_state", _pkg_of_dir)
    w(packstore.Uploader, "run", "packstore.uploader_run", lambda a: a[0].manifest.package_id)
    C = syncclient.SyncClient
    w(C, "create_session", "syncclient.create_session",
      lambda a: a[1].package_id, lambda a: ("create", a[1].package_id))
    w(C, "blob_offset", "syncclient.blob_offset", lambda a: a[1])
    w(C, "put_chunk", "syncclient.put_chunk", lambda a: a[1], lambda a: ("put", a[1], a[2], a[3]))
    w(C, "commit", "syncclient.commit", lambda a: a[1], lambda a: ("commit", a[1]))
    w(C, "download_blob", "syncclient.download_blob", lambda a: a[1], lambda a: ("read", a[1], a[2]))
    w(C, "query_packages", "syncclient.query_packages",
      key_of=lambda a: ("query", a[1] if len(a) > 1 else 0))
    # server side; handler threads have no enclosing span, so the package
    # id comes from the arguments
    R = syncd.Registry
    w(R, "create_package", "syncd.create_package",
      lambda a: a[1].package_id, lambda a: ("create", a[1].package_id))
    w(R, "append_chunk", "syncd.append_chunk", lambda a: a[1], lambda a: ("put", a[1], a[2], a[3]))
    w(R, "commit", "syncd.commit", lambda a: a[1], lambda a: ("commit", a[1]))
    w(R, "read_blob", "syncd.read_blob", lambda a: a[1], lambda a: ("read", a[1], a[2]))
    w(R, "committed_since", "syncd.committed_since", key_of=lambda a: ("query", a[1]))
    w(syncd.EventHub, "publish", "syncd.publish",
      lambda a: a[1].package_id, lambda a: ("publish", a[1].commit_seq))
    tracer.count_fsyncs()


def _median(xs) -> float:
    return float(np.median(xs)) if len(xs) else 0.0


def _pct(xs, q: float) -> float:
    return float(np.percentile(xs, q)) if len(xs) else 0.0


def _wire_ms(client: list[Span], server: list[Span]) -> list[float]:
    """Client span minus its server span, paired by request key in order."""
    by_key: dict = {}
    for s in sorted(server, key=lambda s: s.start):
        by_key.setdefault(s.key, []).append(s)
    out = []
    for c in sorted(client, key=lambda s: s.start):
        match = by_key.get(c.key)
        if match:
            out.append((c.dur - match.pop(0).dur) * 1000.0)
    return out


def _overlap_ms(spans: list[Span], others: list[Span]) -> float:
    total = 0.0
    for s in spans:
        for o in others:
            if o.thread != s.thread:
                total += max(0.0, min(s.end, o.end) - max(s.start, o.start))
    return total * 1000.0


def per_layer(tracer: Tracer, ctx: dict) -> dict:
    """Per-layer metrics from the spans of the measured passes.

    ``ctx`` carries what only the workload knows, over the traced passes:
    ``passes``, ``payload_bytes`` and ``records_stored`` (summed over the
    packages each pass handled), ``routed_analyses``; and for the whole run
    ``receipts`` ((commit_seq, subscriber receipt time) pairs),
    ``untraced_pass_s`` and ``retries``. A layer a workload never calls
    reads 0.
    """
    measured = [s for s in tracer.spans if s.phase == "measure"]
    by_name: dict[str, list[Span]] = {}
    for s in measured:
        by_name.setdefault(s.name, []).append(s)

    def spans(name):
        return by_name.get(name, [])

    passes = max(1, ctx["passes"])

    def self_per_pass(name):
        return sum(s.self_s for s in spans(name)) / passes

    def ms(name):
        return [s.dur * 1000.0 for s in spans(name)]

    m = {}
    for name in (
        "package.validate_package", "package.read_streams", "package.sha256_file",
        "model.decode_jsonl_stream", "timeline.align_streams",
        "kinematics.robust_scores", "kinematics.detect_axis_spikes",
        "kinematics.segment_roughness", "geo.snap_many",
    ):
        m[name + "_s"] = self_per_pass(name)
    # recover is a thin loop over validate_package; its total is the cost
    # that competes with the upload itself
    m["packstore.recover_s"] = sum(s.dur for s in spans("packstore.recover")) / passes
    m["report.analyze_self_s"] = self_per_pass("report.analyze")
    m["report.emit_report_s"] = self_per_pass("report.emit_report")

    decoded = sum(s.key[0] for s in spans("model.decode_jsonl_stream"))
    m["model.decode_passes"] = decoded / ctx["records_stored"] if ctx["records_stored"] else 0.0
    hashed = sum(s.key[0] for s in spans("package.sha256_file"))
    m["package.hash_passes"] = hashed / ctx["payload_bytes"] if ctx["payload_bytes"] else 0.0
    routed = ctx["routed_analyses"]
    m["geo.snap_many_calls"] = len(spans("geo.snap_many")) / routed if routed else 0.0

    puts = spans("syncclient.put_chunk")
    appends = spans("syncd.append_chunk")
    m["packstore.write_upload_state_ms"] = _median(ms("packstore.write_upload_state"))
    m["packstore.fsyncs_per_chunk"] = (
        sum(s.fsyncs for s in spans("packstore.write_upload_state")) / len(puts) if puts else 0.0
    )
    m["syncclient.put_chunk_ms.p50"] = _pct(ms("syncclient.put_chunk"), 50)
    m["syncclient.put_chunk_ms.p99"] = _pct(ms("syncclient.put_chunk"), 99)
    for op, server in (
        ("create_session", "syncd.create_package"), ("put_chunk", "syncd.append_chunk"),
        ("commit", "syncd.commit"), ("download_blob", "syncd.read_blob"),
        ("query_packages", "syncd.committed_since"),
    ):
        m[f"syncclient.wire_ms.{op}"] = _median(
            _wire_ms(spans(f"syncclient.{op}"), spans(server))
        )
    m["syncclient.retries"] = float(ctx["retries"])
    m["syncd.append_chunk_ms.p50"] = _pct(ms("syncd.append_chunk"), 50)
    m["syncd.append_chunk_ms.p99"] = _pct(ms("syncd.append_chunk"), 99)
    m["syncd.fsyncs_per_chunk"] = sum(s.fsyncs for s in appends) / len(appends) if appends else 0.0
    m["syncd.commit_ms"] = _median(ms("syncd.commit"))
    m["syncd.append_blocked_by_commit_ms"] = _overlap_ms(appends, spans("syncd.commit")) / passes
    m["syncd.read_blob_ms"] = _median(ms("syncd.read_blob"))
    m["syncd.committed_since_ms"] = _median(ms("syncd.committed_since"))
    # commit_seq restarts with every fresh server, so a publish pairs with
    # the first receipt of its seq at or after it
    arrivals: dict[int, list[float]] = {}
    for seq, t in ctx["receipts"]:
        arrivals.setdefault(seq, []).append(t)
    delays = []
    for s in spans("syncd.publish"):
        later = [t for t in arrivals.get(s.key[1], ()) if t >= s.start]
        if later:
            delays.append((min(later) - s.start) * 1000.0)
    m["syncd.publish_to_receive_ms"] = _median(delays)
    setup_writes = [s.dur for s in tracer.spans
                    if s.phase == "setup" and s.name == "drivesim.write_package"]
    m["drivesim.write_package_s"] = _median(setup_writes)

    roots = spans("bench.pass")
    m["trace.pass_s"] = _median([s.dur for s in roots])
    # the untraced passes of the same run, alternating with the traced ones
    m["trace.untraced_pass_s"] = _median(ctx["untraced_pass_s"])
    m["trace.overhead_s"] = m["trace.pass_s"] - m["trace.untraced_pass_s"]
    drives = spans("bench.analyze_drive")
    m["trace.analyze_s"] = _median([s.dur for s in drives])
    # the part of analyze()+emit_report() no wrapped layer accounts for
    m["trace.unattributed_s"] = _median([s.self_s for s in drives])
    m["trace.spans_per_pass"] = len(measured) / passes
    return m
