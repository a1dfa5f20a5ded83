"""Config loading: defaults, then the file, then flag overrides."""

import json

import pytest

from roadsense.cli import main
from roadsense.config import Config, load_config


def write_config(tmp_path, doc):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(doc))
    return path


def test_defaults_without_file_or_overrides():
    assert load_config() == Config()
    assert load_config(None, {}) == Config()


def test_file_values_replace_defaults(tmp_path):
    cfg = load_config(write_config(tmp_path, {"spike_k": 2.5, "rms_window_ms": 800}))
    assert cfg == Config(spike_k=2.5, rms_window_ms=800)


def test_overrides_beat_the_file_and_none_is_skipped(tmp_path):
    path = write_config(tmp_path, {"spike_k": 2.5, "rms_window_ms": 800})
    cfg = load_config(path, {"spike_k": 4.0, "rms_window_ms": None, "merge_gap_ms": None})
    assert cfg == Config(spike_k=4.0, rms_window_ms=800)


def test_unknown_key_is_refused(tmp_path):
    with pytest.raises(ValueError, match=r"unknown config keys: \['spike_kk'\]"):
        load_config(write_config(tmp_path, {"spike_kk": 2.0}))


@pytest.mark.parametrize("doc", [[], [1, 2], "spike_k", 3, None])
def test_a_file_that_is_not_an_object_is_refused(tmp_path, doc):
    with pytest.raises(ValueError, match="must contain a JSON object"):
        load_config(write_config(tmp_path, doc))


@pytest.mark.parametrize("key, value", [
    ("spike_k", "x"),          # str in a float field
    ("spike_k", True),         # bool in a float field
    ("rms_window_ms", "800"),  # str in an int field
    ("rms_window_ms", False),  # bool in an int field
    ("rms_window_ms", 800.0),  # float in an int field
    ("segment_len_m", None),
    ("chunk_bytes", [4096]),
])
def test_a_value_of_the_wrong_type_is_refused(tmp_path, key, value):
    with pytest.raises(ValueError, match=f"config key '{key}' must be "):
        load_config(write_config(tmp_path, {key: value}))


def test_an_int_in_a_float_field_is_kept_as_it_is(tmp_path):
    cfg = load_config(write_config(tmp_path, {"spike_k": 3, "segment_len_m": 200}))
    assert cfg.spike_k == 3 and type(cfg.spike_k) is int
    assert cfg.segment_len_m == 200 and type(cfg.segment_len_m) is int


def test_analyze_with_a_wrongly_typed_config_exits_2(tmp_path, capsys):
    path = write_config(tmp_path, {"spike_k": "x"})
    rc = main(["analyze", "--package", str(tmp_path / "void"), "--out", str(tmp_path / "r"),
               "--config", str(path)])
    assert rc == 2
    assert "argument error: config key 'spike_k' must be float, got str" in capsys.readouterr().err


@pytest.mark.parametrize("key, text", [("segment_len_m", "1e999"), ("spike_k", "NaN"),
                                       ("backoff_cap_s", "-Infinity")])
def test_a_non_finite_float_in_the_file_is_refused(tmp_path, key, text):
    path = tmp_path / "c.json"
    path.write_text(f'{{"{key}": {text}}}')  # json reads these as inf, nan and -inf
    with pytest.raises(ValueError, match=f"config key '{key}' must be finite"):
        load_config(path)


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_a_non_finite_override_is_refused(value):
    with pytest.raises(ValueError, match="config key 'spike_k' must be finite"):
        load_config(None, {"spike_k": value})


@pytest.mark.parametrize("flags", [
    ["--spike-k", "nan"],
    ["--segment-len-m", "inf"],
    ["--config", "c.json"],  # {"segment_len_m": 1e999}
])
def test_analyze_refuses_a_non_finite_float_before_any_work(tmp_path, monkeypatch, capsys, flags):
    from roadsense.drivesim import default_scenario, write_package

    pkg_dir = write_package(default_scenario(7, duration_s=10.0), tmp_path / "lib")[0]
    (tmp_path / "c.json").write_text('{"segment_len_m": 1e999}')
    monkeypatch.chdir(tmp_path)
    read = []
    monkeypatch.setattr("roadsense.report.load_package", lambda *a, **k: read.append(a))
    rc = main(["analyze", "--package", str(pkg_dir), "--out", str(tmp_path / "out"), *flags])
    assert rc == 2
    key = "spike_k" if "--spike-k" in flags else "segment_len_m"
    assert f"argument error: config key '{key}' must be finite" in capsys.readouterr().err
    assert read == [] and not (tmp_path / "out").exists()
