"""Canonical JSON encoding.

Every JSON artifact this package writes (manifests, upload-state sidecars,
analysis reports) goes through ``dumps_canonical`` so that equal values
always produce equal bytes: sorted keys, minimal separators, UTF-8, no
NaN/Infinity. Floats use Python's shortest round-trip repr, which is
deterministic for a given value.
"""

import json


def dumps_canonical(obj) -> bytes:
    """Serialize *obj* to canonical JSON bytes (no trailing newline)."""
    return json.dumps(
        obj,
        sort_keys=True,
        separators=(",", ":"),
        ensure_ascii=False,
        allow_nan=False,
    ).encode("utf-8")
