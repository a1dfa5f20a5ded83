"""Pipeline configuration: one dataclass holding every tunable default.

A JSON config file may override any field; CLI flags override the file.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields, replace
from pathlib import Path


@dataclass(frozen=True)
class Config:
    # timeline
    frame_tol_ms: int = 50
    gps_max_gap_ms: int = 5000
    # kinematics
    rms_window_ms: int = 1000
    rms_hop_ms: int = 500
    spike_k: float = 3.0
    spike_window_ms: int = 1000
    merge_gap_ms: int = 300
    spike_min_run: int = 2
    segment_len_m: float = 160.9
    # packstore / upload
    max_retries: int = 5
    backoff_base_s: float = 1.0
    backoff_cap_s: float = 60.0
    chunk_bytes: int = 262_144


def load_config(path: str | Path | None = None, overrides: dict | None = None) -> Config:
    """Defaults, then file values, then explicit overrides (None skipped)."""
    values = {}
    if path is not None:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
        if not isinstance(doc, dict):
            raise ValueError("config file must contain a JSON object")
        known = {f.name for f in fields(Config)}
        unknown = set(doc) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        values.update(doc)
    cfg = Config(**values)
    if overrides:
        cfg = replace(cfg, **{k: v for k, v in overrides.items() if v is not None})
    return cfg
