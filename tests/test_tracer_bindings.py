"""The benchmark tracer still finds every binding it wraps.

``perfbench/tracer.py`` wraps each layer function at the module attribute
its caller looks it up on. A refactor that moves or renames one of those
functions breaks ``--trace 1``; this test makes it fail here instead.
"""

import importlib.util
import os
from pathlib import Path

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_wraps_every_binding_and_uninstall_restores_them():
    tracing = load_tracer()
    real_fsync = os.fsync
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        patches = list(tracer._patches)
        assert patches
        for owner, attr, original in patches:
            assert vars(owner)[attr] is not original, f"{owner!r}.{attr} was not wrapped"
    finally:
        tracer.uninstall()
    for owner, attr, original in patches:
        assert vars(owner)[attr] is original, f"{owner!r}.{attr} was not restored"
    assert os.fsync is real_fsync
    wrapped = {(getattr(owner, "__name__", ""), attr) for owner, attr, _ in patches}
    for binding in [
        ("roadsense.package", "decode_jsonl_stream"),
        ("roadsense.packstore", "validate_package"),
        ("roadsense.packstore", "recover"),
        ("roadsense.report", "align_streams"),
        ("roadsense.report", "read_streams"),
        ("roadsense.report", "analyze"),
    ]:
        assert binding in wrapped
