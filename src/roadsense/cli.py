"""Operator command line.

Commands tie the pipeline together: simulate a drive into a package,
serve the sync service, upload/pull packages, query timestamps, analyze
into report files, show upload status, validate a package directory.

Exit codes: 0 success, 1 validation failure, 2 argument error, 3 I/O
error, 4 network error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import shutil
import sys
from pathlib import Path

from .canonical import dumps_canonical
from .config import Config, load_config
from .drivesim import NetworkProfile, Scenario, default_scenario, replay_upload, write_package
from .errors import NetworkError, ParseError, StateMachineError, ValidationError
from .model import parse_manifest
from .package import read_manifest, read_stream, validate_package
from .packstore import (
    ServerRejected,
    Uploader,
    UploadStatus,
    recover,
    upload_library,
)
from .report import analyze, emit_report
from .syncd import SyncServer
from .timeline import TimeIndex

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_ARGS = 2
EXIT_IO = 3
EXIT_NETWORK = 4

_UNBOUNDED_TOL = 2**62


def _load_scenario(args) -> Scenario:
    if args.scenario is None and args.seed is None:
        raise ValueError("simulate needs --scenario and/or --seed")
    if args.scenario is not None:
        doc = json.loads(Path(args.scenario).read_text(encoding="utf-8"))
        scenario = Scenario.from_doc(doc)
        if args.seed is not None:
            scenario = dataclasses.replace(scenario, seed=args.seed)
        return scenario
    return default_scenario(args.seed)


def cmd_simulate(args) -> int:
    scenario = _load_scenario(args)
    path, manifest, truth = write_package(scenario, args.out)
    if args.truth:
        Path(args.truth).write_bytes(dumps_canonical(truth.to_doc()) + b"\n")
    print(path)
    print(f"package {manifest.package_id}: {len(manifest.blobs)} blobs, "
          f"{sum(b.bytes for b in manifest.blobs)} bytes")
    return EXIT_OK


def cmd_serve(args) -> int:
    host, _, port = args.listen.rpartition(":")
    if not host or not port.isdigit() or int(port) > 65535:
        raise ValueError(f"--listen must be host:port with a port in 0-65535, got {args.listen!r}")
    server = SyncServer(args.data_dir, host=host, port=int(port), max_body_mb=args.max_body_mb)
    print(f"listening on {server.base_url}, data in {args.data_dir}", flush=True)
    server.serve_forever()
    return EXIT_OK


def _config_from_args(args) -> Config:
    overrides = {
        name: getattr(args, name, None)
        for name in (
            "frame_tol_ms", "gps_max_gap_ms", "rms_window_ms", "rms_hop_ms",
            "spike_k", "spike_window_ms", "merge_gap_ms", "spike_min_run",
            "segment_len_m", "max_retries", "chunk_bytes",
        )
    }
    return load_config(getattr(args, "config", None), overrides)


def _report_invalid(check) -> int:
    """Print why a package is invalid; returns the exit code for it."""
    for line in check.summary_lines():
        print(line)
    return EXIT_VALIDATION


def _print_corrupt(entry) -> None:
    print(f"{entry.package_id}: CORRUPT ({entry.error or 'invalid package'})")


def cmd_upload(args) -> int:
    from .syncclient import SyncClient

    cfg = _config_from_args(args)
    if args.package:
        # a corrupt package could never commit; refuse it before any request
        check = validate_package(args.package)
        if not check.valid:
            return _report_invalid(check)
        if args.chaos:
            profile = NetworkProfile.from_doc(
                json.loads(Path(args.chaos).read_text(encoding="utf-8"))
            )
            transcript = replay_upload(
                args.package, args.endpoint, profile,
                chunk_bytes=cfg.chunk_bytes, max_retries=cfg.max_retries,
            )
            if args.transcript:
                transcript.write(args.transcript)
            final = transcript.final_state
        else:
            package_dir = Path(args.package)
            manifest = read_manifest(package_dir)
            with SyncClient(args.endpoint) as client:
                uploader = Uploader(
                    package_dir, manifest, client,
                    chunk_bytes=cfg.chunk_bytes,
                    max_retries=cfg.max_retries,
                    backoff_base_s=cfg.backoff_base_s,
                    backoff_cap_s=cfg.backoff_cap_s,
                )
                final = uploader.run()
        print(f"{final.package_id}: {final.status.value}"
              + (f" ({final.last_error})" if final.last_error else ""))
        return EXIT_OK if final.status is UploadStatus.COMPLETE else EXIT_NETWORK

    library = recover(args.library)
    corrupt = [entry for entry in library if not entry.ok]
    for entry in corrupt:
        _print_corrupt(entry)
    results = upload_library(
        library,
        lambda: SyncClient(args.endpoint),
        parallelism=args.parallelism,
        chunk_bytes=cfg.chunk_bytes,
        max_retries=cfg.max_retries,
        backoff_base_s=cfg.backoff_base_s,
        backoff_cap_s=cfg.backoff_cap_s,
    )
    for pid, state in sorted(results.items()):
        print(f"{pid}: {state.status.value}")
    if any(state.status is not UploadStatus.COMPLETE for state in results.values()):
        return EXIT_NETWORK
    return EXIT_VALIDATION if corrupt else EXIT_OK


def cmd_pull(args) -> int:
    from .syncclient import SyncClient

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with SyncClient(args.endpoint) as client:
        listed = client.query_packages(since_seq=args.since_seq)
        for item in listed:
            manifest = parse_manifest(dumps_canonical(item["manifest"]))
            pkg_dir = out / manifest.package_id
            if pkg_dir.exists():
                print(f"{manifest.package_id}: exists, skipped")
                continue
            # download beside the mirror and move in only once valid, so an
            # interrupted pull never leaves a partial package under its id
            partial = out / f".{manifest.package_id}.partial"
            if partial.exists():
                shutil.rmtree(partial)
            partial.mkdir()
            for blob in manifest.blobs:
                data = client.download_blob(manifest.package_id, blob.name)
                dest = partial / blob.name
                dest.parent.mkdir(parents=True, exist_ok=True)
                dest.write_bytes(data)
            (partial / "manifest.json").write_bytes(
                dumps_canonical(item["manifest"]) + b"\n"
            )
            check = validate_package(partial)
            print(f"{manifest.package_id}: seq {item['commit_seq']}, "
                  f"{'valid' if check.valid else 'INVALID'}")
            if not check.valid:
                for line in check.summary_lines():
                    print(f"  {line}")
                return EXIT_VALIDATION
            os.replace(partial, pkg_dir)
    print(f"{len(listed)} package(s)")
    return EXIT_OK


def cmd_query(args) -> int:
    records = read_stream(args.package, f"{args.stream}.jsonl")
    index = TimeIndex(records)
    if args.at is not None:
        tol = args.tol if args.tol is not None else _UNBOUNDED_TOL
        hit = index.nearest(args.at, tol)
        if hit is not None:
            sys.stdout.buffer.write(hit.to_jsonl() + b"\n")
    else:
        t0, t1 = args.range
        for rec in index.range(t0, t1):
            sys.stdout.buffer.write(rec.to_jsonl() + b"\n")
    sys.stdout.buffer.flush()
    return EXIT_OK


def cmd_analyze(args) -> int:
    cfg = _config_from_args(args)
    # as Paths, a missing file is an I/O error rather than inline text
    route = Path(args.route) if args.route else None
    reference = Path(args.reference) if args.reference else None
    report = analyze(args.package, route=route, reference=reference, config=cfg)
    written = emit_report(report, args.out)
    print(f"{report.package_id}: {len(report.events)} event(s), "
          f"{len(report.segments)} segment(s)"
          + (f", r_squared {report.fit.r_squared:.4f}" if report.fit else ""))
    for path in written:
        print(path)
    return EXIT_OK


def cmd_status(args) -> int:
    library = recover(args.library)
    for entry in library:
        if entry.error or entry.manifest is None:
            _print_corrupt(entry)
            continue
        total = sum(b.bytes for b in entry.manifest.blobs)
        state = entry.state
        sent = sum(state.bytes_sent.values())
        line = f"{entry.package_id}: {state.status.value} {sent}/{total} bytes, " \
               f"attempts {state.attempt_count}"
        if state.last_error:
            line += f", last error: {state.last_error}"
        print(line)
    return EXIT_OK


def cmd_validate(args) -> int:
    check = validate_package(args.package)
    if check.valid:
        print(f"{check.package_id}: valid")
        return EXIT_OK
    return _report_invalid(check)


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file; flags override it")
    p.add_argument("--frame-tol-ms", type=int, dest="frame_tol_ms")
    p.add_argument("--gps-max-gap-ms", type=int, dest="gps_max_gap_ms")
    p.add_argument("--rms-window-ms", type=int, dest="rms_window_ms")
    p.add_argument("--rms-hop-ms", type=int, dest="rms_hop_ms")
    p.add_argument("--spike-k", type=float, dest="spike_k")
    p.add_argument("--spike-window-ms", type=int, dest="spike_window_ms")
    p.add_argument("--merge-gap-ms", type=int, dest="merge_gap_ms")
    p.add_argument("--spike-min-run", type=int, dest="spike_min_run")
    p.add_argument("--segment-len-m", type=float, dest="segment_len_m")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="roadsense",
        description="Road telemetry: simulate, sync, query, and analyze drive packages.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic drive package")
    p.add_argument("--scenario", help="scenario JSON file")
    p.add_argument("--seed", type=int, help="seed (default scenario if no file)")
    p.add_argument("--out", required=True, help="library directory to write into")
    p.add_argument("--truth", help="also write ground truth JSON here")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("serve", help="run the sync service")
    p.add_argument("--listen", default="127.0.0.1:8373", metavar="HOST:PORT")
    p.add_argument("--data-dir", required=True)
    p.add_argument("--max-body-mb", type=int, default=64)
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("upload", help="upload package(s) to a sync service")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--package", help="one package directory")
    group.add_argument("--library", help="library root; uploads all resumable packages")
    p.add_argument("--endpoint", required=True, help="sync service base URL")
    p.add_argument("--chaos", help="network fault profile JSON (single package only)")
    p.add_argument("--transcript", help="write upload transcript JSONL here")
    p.add_argument("--parallelism", type=int, default=2)
    p.add_argument("--max-retries", type=int, dest="max_retries")
    p.add_argument("--chunk-bytes", type=int, dest="chunk_bytes")
    p.add_argument("--config", help="JSON config file; flags override it")
    p.set_defaults(func=cmd_upload)

    p = sub.add_parser("pull", help="download committed packages from a sync service")
    p.add_argument("--endpoint", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--since-seq", type=int, default=0)
    p.set_defaults(func=cmd_pull)

    p = sub.add_parser("query", help="timestamp lookups against one stream")
    p.add_argument("--package", required=True)
    p.add_argument("--stream", choices=("sensors", "gps", "frames"), default="sensors")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--at", type=int, help="nearest record to this time (ms)")
    group.add_argument("--range", type=int, nargs=2, metavar=("T0", "T1"))
    p.add_argument("--tol", type=int, help="tolerance for --at (ms)")
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("analyze", help="run the analysis pipeline, write report files")
    p.add_argument("--package", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--route", help="road reference GeoJSON LineString")
    p.add_argument("--reference", help="reference IRI CSV (requires --route)")
    _add_config_flags(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("status", help="upload state of every package in a library")
    p.add_argument("--library", required=True)
    p.set_defaults(func=cmd_status)

    p = sub.add_parser("validate", help="integrity-check one package directory")
    p.add_argument("--package", required=True)
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (NetworkError, ServerRejected) as e:
        print(f"network error: {e}", file=sys.stderr)
        return EXIT_NETWORK
    except (ValidationError, ParseError, StateMachineError) as e:
        print(f"validation error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except (ValueError, KeyError) as e:
        print(f"argument error: {e}", file=sys.stderr)
        return EXIT_ARGS
    except FileNotFoundError as e:
        print(f"not found: {e}", file=sys.stderr)
        return EXIT_IO
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return EXIT_IO
    except KeyboardInterrupt:
        return 130


if __name__ == "__main__":
    sys.exit(main())
