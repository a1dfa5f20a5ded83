"""Synthetic drive generator and wire-protocol replay client.

The generator produces package streams with a ground-truth record of
every injected disturbance, so detection and roughness results can be
scored against a known answer. All randomness flows from the scenario
seed through one PCG64 generator with a fixed draw order, making the
streams byte-reproducible.

Signal morphology:
    pothole      120 ms half-sine impulse on all three accel axes
                 (full magnitude on z, 0.6 on x/y)
    lane change  2 s maneuver: 0.4 s turn-in and counter-steer humps of
                 opposite sign on x (full) and y (0.8), plus a yaw-rate
                 trace on gz; z untouched by construction
    stop         5 s cosine speed taper to zero, a dwell, 5 s ramp back;
                 the longitudinal acceleration lands on y and the speed
                 change flows into GPS spacing and speed fields

The replay side drives the upload state machine against a live sync
service through a fault-injecting transport, recording a transcript of
every HTTP exchange and state transition.
"""

from __future__ import annotations

import math
import time
import uuid
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import NetworkError, ValidationError
from .geo import EARTH_RADIUS_M, Polyline
from .kinematics import DriveEvent, EventKind
from .model import PackageManifest, StreamColumns
from .package import read_manifest
from .packstore import ServerRejected, Uploader, UploadState, create_package
from .syncd import OFFSET_HEADER

GRAVITY_MPS2 = 9.81
POTHOLE_S = 0.12
LANE_CHANGE_S = 2.0
LANE_HUMP_S = 0.4
STOP_TAPER_S = 5.0
_M_PER_DEG = EARTH_RADIUS_M * math.pi / 180.0
_SCENARIO_NAMESPACE = uuid.uuid5(uuid.NAMESPACE_URL, "roadsense://scenario")

ACCEL_SIGMA_DEFAULT = 0.05
GYRO_SIGMA_DEFAULT = 0.01
_CHANNELS = ("ax", "ay", "az", "gx", "gy", "gz")


class SimEventKind(str, Enum):
    POTHOLE = "pothole"
    LANE_CHANGE = "lane_change"
    STOP = "stop"


@dataclass(frozen=True)
class SimEvent:
    """One injected disturbance. ``magnitude`` is the peak acceleration in
    m/s² for potholes and lane changes, and the dwell duration in seconds
    for stops."""

    t_s: float
    kind: SimEventKind
    magnitude: float

    def __post_init__(self):
        if self.magnitude <= 0:
            raise ValidationError(
                f"event magnitude must be > 0, got {self.magnitude}", field="magnitude"
            )
        if self.t_s < 0:
            raise ValidationError(f"event time must be >= 0, got {self.t_s}", field="t_s")

    @property
    def span_s(self) -> float:
        if self.kind is SimEventKind.POTHOLE:
            return POTHOLE_S
        if self.kind is SimEventKind.LANE_CHANGE:
            return LANE_CHANGE_S
        return STOP_TAPER_S + self.magnitude + STOP_TAPER_S

    def to_doc(self) -> dict:
        return {"t_s": self.t_s, "kind": self.kind.value, "magnitude": self.magnitude}

    @classmethod
    def from_doc(cls, d: dict) -> "SimEvent":
        return cls(t_s=float(d["t_s"]), kind=SimEventKind(d["kind"]), magnitude=float(d["magnitude"]))


@dataclass(frozen=True)
class RoughPatch:
    """Extra vertical vibration over a time window (rough pavement)."""

    t_start_s: float
    t_end_s: float
    amplitude: float

    def __post_init__(self):
        if self.amplitude <= 0:
            raise ValidationError("patch amplitude must be > 0", field="amplitude")
        if not 0 <= self.t_start_s < self.t_end_s:
            raise ValidationError("patch window must be ordered", field="t_start_s")

    def to_doc(self) -> dict:
        return {"t_start_s": self.t_start_s, "t_end_s": self.t_end_s, "amplitude": self.amplitude}

    @classmethod
    def from_doc(cls, d: dict) -> "RoughPatch":
        return cls(float(d["t_start_s"]), float(d["t_end_s"]), float(d["amplitude"]))


@dataclass(frozen=True)
class SpeedStep:
    t_s: float
    mps: float

    def to_doc(self) -> dict:
        return {"t_s": self.t_s, "mps": self.mps}


@dataclass(frozen=True)
class Scenario:
    seed: int
    duration_s: float = 120.0
    route: Polyline = None  # default set in __post_init__
    speed_profile: tuple = (SpeedStep(0.0, 20.0),)
    events: tuple = ()
    noise_sigma: dict = field(default_factory=dict)
    gps_rate_hz: float = 1.0
    gps_noise_m: float = 0.0
    sensor_rate_hz: int = 30
    frame_rate_fps: int = 10
    rough_patches: tuple = ()
    started_at_ms: int = 1_700_000_000_000
    device_id: str = "drivesim"
    frame_bytes: int = 0

    def __post_init__(self):
        if self.duration_s <= 0:
            raise ValidationError("duration_s must be > 0", field="duration_s")
        if self.sensor_rate_hz <= 0 or self.frame_rate_fps <= 0 or self.gps_rate_hz <= 0:
            raise ValidationError("rates must be > 0", field="sensor_rate_hz")
        if self.route is None:
            object.__setattr__(self, "route", default_route())
        object.__setattr__(self, "speed_profile", tuple(self.speed_profile))
        object.__setattr__(self, "events", tuple(self.events))
        object.__setattr__(self, "rough_patches", tuple(self.rough_patches))
        sigma = dict(self.noise_sigma)
        for ch in ("ax", "ay", "az"):
            sigma.setdefault(ch, sigma.get("accel", ACCEL_SIGMA_DEFAULT))
        for ch in ("gx", "gy", "gz"):
            sigma.setdefault(ch, sigma.get("gyro", GYRO_SIGMA_DEFAULT))
        object.__setattr__(
            self, "noise_sigma", {ch: float(sigma[ch]) for ch in _CHANNELS}
        )
        for ch, v in self.noise_sigma.items():
            if v < 0:
                raise ValidationError(f"noise sigma for {ch} must be >= 0", field=ch)
        prev = -math.inf
        for step in self.speed_profile:
            if step.t_s <= prev:
                raise ValidationError("speed profile times must increase", field="speed_profile")
            if step.mps < 0:
                raise ValidationError("speed must be >= 0", field="speed_profile")
            prev = step.t_s
        for ev in self.events:
            if ev.t_s + ev.span_s > self.duration_s:
                raise ValidationError(
                    f"{ev.kind.value} at {ev.t_s}s runs past duration", field="events"
                )
        for patch in self.rough_patches:
            if patch.t_end_s > self.duration_s:
                raise ValidationError("rough patch runs past duration", field="rough_patches")

    @property
    def package_id(self) -> str:
        """Package id derived from the seed, so a scenario always produces
        the same package identity (end-to-end reproducibility)."""
        return str(uuid.uuid5(_SCENARIO_NAMESPACE, str(self.seed)))

    def to_doc(self) -> dict:
        lonlat = [[lon, lat] for lat, lon in self.route.vertices]
        return {
            "seed": self.seed,
            "duration_s": self.duration_s,
            "route": {"type": "LineString", "coordinates": lonlat},
            "speed_profile": [s.to_doc() for s in self.speed_profile],
            "events": [e.to_doc() for e in self.events],
            "noise_sigma": dict(self.noise_sigma),
            "gps_rate_hz": self.gps_rate_hz,
            "gps_noise_m": self.gps_noise_m,
            "sensor_rate_hz": self.sensor_rate_hz,
            "frame_rate_fps": self.frame_rate_fps,
            "rough_patches": [p.to_doc() for p in self.rough_patches],
            "started_at_ms": self.started_at_ms,
            "device_id": self.device_id,
            "frame_bytes": self.frame_bytes,
        }

    @classmethod
    def from_doc(cls, d: dict) -> "Scenario":
        route = Polyline.from_geojson(d["route"]) if "route" in d else None
        return cls(
            seed=int(d["seed"]),
            duration_s=float(d.get("duration_s", 120.0)),
            route=route,
            speed_profile=tuple(
                SpeedStep(float(s["t_s"]), float(s["mps"]))
                for s in d.get("speed_profile", [{"t_s": 0.0, "mps": 20.0}])
            ),
            events=tuple(SimEvent.from_doc(e) for e in d.get("events", [])),
            noise_sigma=dict(d.get("noise_sigma", {})),
            gps_rate_hz=float(d.get("gps_rate_hz", 1.0)),
            gps_noise_m=float(d.get("gps_noise_m", 0.0)),
            sensor_rate_hz=int(d.get("sensor_rate_hz", 30)),
            frame_rate_fps=int(d.get("frame_rate_fps", 10)),
            rough_patches=tuple(RoughPatch.from_doc(p) for p in d.get("rough_patches", [])),
            started_at_ms=int(d.get("started_at_ms", 1_700_000_000_000)),
            device_id=str(d.get("device_id", "drivesim")),
            frame_bytes=int(d.get("frame_bytes", 0)),
        )


def default_route(heading_deg: float = 270.0, length_m: float = 12_000.0) -> Polyline:
    """Gently curving corridor starting near Columbia, MO."""
    lat, lon = 38.9517, -92.3341
    vertices = [(lat, lon)]
    step = 500.0
    heading = math.radians(heading_deg)
    travelled = 0.0
    k = 0
    while travelled < length_m:
        bend = math.radians(2.0 * math.sin(k / 4.0))  # mild sweep, no U-turns
        heading += bend
        d = min(step, length_m - travelled)
        lat += d * math.cos(heading) / _M_PER_DEG
        lon += d * math.sin(heading) / (_M_PER_DEG * math.cos(math.radians(lat)))
        vertices.append((lat, lon))
        travelled += d
        k += 1
    return Polyline(vertices)


def default_scenario(seed: int, **overrides) -> Scenario:
    """Baseline scenario used by tests and docs: noise sigma 0.05 m/s² on
    accel channels, impulse magnitudes at ten times that. Events sit at
    fixed fractions of the duration so overriding it stays valid."""
    duration_s = float(overrides.pop("duration_s", 120.0))
    base = dict(
        seed=seed,
        duration_s=duration_s,
        speed_profile=(SpeedStep(0.0, 20.0),),
        events=(
            SimEvent(duration_s / 6, SimEventKind.POTHOLE, 0.5),
            SimEvent(duration_s * 3 / 8, SimEventKind.LANE_CHANGE, 0.5),
            SimEvent(duration_s * 2 / 3, SimEventKind.POTHOLE, 0.5),
        ),
        gps_rate_hz=1.0,
        gps_noise_m=3.0,
    )
    base.update(overrides)
    return Scenario(**base)


# -- ground truth -----------------------------------------------------------


@dataclass(frozen=True)
class TruthEvent:
    kind: str
    t_start_ms: int
    t_end_ms: int
    chainage_m: float

    def to_doc(self) -> dict:
        return {
            "kind": self.kind,
            "t_start_ms": self.t_start_ms,
            "t_end_ms": self.t_end_ms,
            "chainage_m": self.chainage_m,
        }


@dataclass(frozen=True)
class TruthPatch:
    t_start_ms: int
    t_end_ms: int
    amplitude: float
    chainage_start_m: float
    chainage_end_m: float

    def to_doc(self) -> dict:
        return {
            "t_start_ms": self.t_start_ms,
            "t_end_ms": self.t_end_ms,
            "amplitude": self.amplitude,
            "chainage_start_m": self.chainage_start_m,
            "chainage_end_m": self.chainage_end_m,
        }


@dataclass(frozen=True)
class GroundTruth:
    events: tuple
    patches: tuple

    def to_doc(self) -> dict:
        return {
            "events": [e.to_doc() for e in self.events],
            "patches": [p.to_doc() for p in self.patches],
        }


@dataclass(frozen=True)
class SimResult:
    scenario: Scenario
    samples: StreamColumns
    gps: StreamColumns
    frames: StreamColumns
    truth: GroundTruth


# -- generation ---------------------------------------------------------------


def _tick_grid(duration_s: float, rate_hz: float) -> np.ndarray:
    n = int(math.floor(duration_s * rate_hz)) + 1
    i = np.arange(n, dtype=np.float64)
    return np.floor(i * 1000.0 / rate_hz + 0.5).astype(np.int64)


def _profile_speed(profile: Sequence[SpeedStep], t_s: np.ndarray) -> np.ndarray:
    times = np.asarray([s.t_s for s in profile])
    speeds = np.asarray([s.mps for s in profile])
    idx = np.clip(np.searchsorted(times, t_s, side="right") - 1, 0, len(profile) - 1)
    return speeds[idx]


def _stop_factor(ev: SimEvent, t_s: np.ndarray) -> np.ndarray:
    """Speed multiplier for one stop: cosine taper down, dwell at 0, ramp up."""
    f = np.ones_like(t_s)
    tau = t_s - ev.t_s
    down = (tau >= 0) & (tau < STOP_TAPER_S)
    f[down] = 0.5 * (1.0 + np.cos(np.pi * tau[down] / STOP_TAPER_S))
    dwell = (tau >= STOP_TAPER_S) & (tau < STOP_TAPER_S + ev.magnitude)
    f[dwell] = 0.0
    up = (tau >= STOP_TAPER_S + ev.magnitude) & (tau < ev.span_s)
    tau_up = tau[up] - STOP_TAPER_S - ev.magnitude
    f[up] = 0.5 * (1.0 - np.cos(np.pi * tau_up / STOP_TAPER_S))
    return f


def generate_drive(scenario: Scenario) -> SimResult:
    """Produce package streams, as ``StreamColumns`` built from the
    generator's arrays, plus the ground truth of what was injected.

    Deterministic for a given scenario: one seeded generator, fixed draw
    order (channel noise, per-event signs, patch vibration, GPS noise).
    """
    rng = np.random.Generator(np.random.PCG64(scenario.seed))
    t_ms = _tick_grid(scenario.duration_s, scenario.sensor_rate_hz)
    t_s = t_ms.astype(np.float64) / 1000.0
    n = len(t_ms)

    signal = {
        "ax": np.zeros(n),
        "ay": np.zeros(n),
        "az": np.full(n, GRAVITY_MPS2),
        "gx": np.zeros(n),
        "gy": np.zeros(n),
        "gz": np.zeros(n),
    }
    for ch in _CHANNELS:
        signal[ch] = signal[ch] + rng.standard_normal(n) * scenario.noise_sigma[ch]

    # speed with stop tapers applied; drives both GPS spacing and the
    # longitudinal accel trace
    v = _profile_speed(scenario.speed_profile, t_s)
    for ev in scenario.events:
        if ev.kind is SimEventKind.STOP:
            v = v * _stop_factor(ev, t_s)

    truth_events = []
    for ev in scenario.events:
        if ev.kind is SimEventKind.POTHOLE:
            mask = (t_s >= ev.t_s) & (t_s < ev.t_s + POTHOLE_S)
            u = (t_s[mask] - ev.t_s) / POTHOLE_S
            pulse = np.sin(np.pi * u) * ev.magnitude
            sx, sy = (1.0 if b else -1.0 for b in rng.integers(0, 2, size=2))
            signal["az"][mask] += pulse
            signal["ax"][mask] += sx * 0.6 * pulse
            signal["ay"][mask] += sy * 0.6 * pulse
        elif ev.kind is SimEventKind.LANE_CHANGE:
            s = 1.0 if rng.integers(0, 2) else -1.0
            shape = np.zeros(n)
            m1 = (t_s >= ev.t_s) & (t_s < ev.t_s + LANE_HUMP_S)
            shape[m1] = np.sin(np.pi * (t_s[m1] - ev.t_s) / LANE_HUMP_S)
            t2 = ev.t_s + LANE_CHANGE_S - LANE_HUMP_S
            m2 = (t_s >= t2) & (t_s < t2 + LANE_HUMP_S)
            shape[m2] = -np.sin(np.pi * (t_s[m2] - t2) / LANE_HUMP_S)
            signal["ax"] += s * ev.magnitude * shape
            signal["ay"] += 0.8 * s * ev.magnitude * shape
            signal["gz"] += 0.15 * s * ev.magnitude * shape
        else:  # stop: longitudinal accel from the taper, v already shaped
            dv = np.gradient(v, t_s)
            window = (t_s >= ev.t_s) & (t_s < ev.t_s + ev.span_s)
            signal["ay"] = np.where(window, signal["ay"] + dv, signal["ay"])

    for patch in scenario.rough_patches:
        mask = (t_s >= patch.t_start_s) & (t_s < patch.t_end_s)
        signal["az"][mask] += rng.standard_normal(int(mask.sum())) * patch.amplitude

    # chainage by trapezoid over the sensor grid; GPS interpolates into it
    chain = np.concatenate([[0.0], np.cumsum((v[1:] + v[:-1]) * 0.5 * np.diff(t_s))])
    chain = np.minimum(chain, scenario.route.length_m)

    for ev in scenario.events:
        t0 = int(round(ev.t_s * 1000.0))
        t1 = int(round((ev.t_s + ev.span_s) * 1000.0))
        c = float(np.interp(ev.t_s, t_s, chain))
        truth_events.append(TruthEvent(ev.kind.value, t0, t1, c))
    truth_patches = tuple(
        TruthPatch(
            int(round(p.t_start_s * 1000.0)),
            int(round(p.t_end_s * 1000.0)),
            p.amplitude,
            float(np.interp(p.t_start_s, t_s, chain)),
            float(np.interp(p.t_end_s, t_s, chain)),
        )
        for p in scenario.rough_patches
    )

    samples = StreamColumns({"t": t_ms, **signal})

    gps_t = _tick_grid(scenario.duration_s, scenario.gps_rate_hz)
    gps_noise = rng.standard_normal((len(gps_t), 2)) * scenario.gps_noise_m
    m = len(gps_t)
    lats, lons = np.empty(m), np.empty(m)
    for k, ck in enumerate(np.interp(gps_t, t_ms, chain).tolist()):
        lat, lon = scenario.route.point_at(ck)
        lats[k] = lat + gps_noise[k, 0] / _M_PER_DEG
        lons[k] = lon + gps_noise[k, 1] / (_M_PER_DEG * math.cos(math.radians(lat)))
    has_h_acc = scenario.gps_noise_m > 0
    gps = StreamColumns({
        "t": gps_t,
        "lat": lats,
        "lon": lons,
        "alt_m": np.full(m, 200.0),
        "speed_mps": np.interp(gps_t, t_ms, v),
        "has_speed_mps": np.ones(m, dtype=bool),
        "h_acc_m": np.full(m, scenario.gps_noise_m if has_h_acc else math.nan, dtype=np.float64),
        "has_h_acc_m": np.full(m, has_h_acc),
    })

    frame_t = _tick_grid(scenario.duration_s, scenario.frame_rate_fps)
    frames = StreamColumns({
        "t": frame_t,
        "index": np.arange(len(frame_t), dtype=np.int64),
        "file": [f"frames/{j:06d}.jpg" for j in range(len(frame_t))],
    })

    return SimResult(
        scenario=scenario,
        samples=samples,
        gps=gps,
        frames=frames,
        truth=GroundTruth(events=tuple(truth_events), patches=truth_patches),
    )


def write_package(scenario: Scenario, library_root: str | Path) -> tuple[Path, PackageManifest, GroundTruth]:
    """Generate a drive and write it as a package directory.

    The package id is derived from the seed, so the same scenario always
    writes the same package (byte-identical streams included).
    """
    sim = generate_drive(scenario)
    extra = None
    if scenario.frame_bytes > 0:
        frame_rng = np.random.Generator(np.random.PCG64(scenario.seed ^ 0xF4A3E5))
        extra = {file: frame_rng.bytes(scenario.frame_bytes) for file in sim.frames["file"]}
    path, manifest = create_package(
        library_root,
        sim.samples,
        sim.gps,
        sim.frames,
        device_id=scenario.device_id,
        started_at_ms=scenario.started_at_ms,
        ended_at_ms=scenario.started_at_ms + int(round(scenario.duration_s * 1000)),
        sensor_rate_hz=scenario.sensor_rate_hz,
        frame_rate_fps=scenario.frame_rate_fps,
        package_id=scenario.package_id,
        extra_blobs=extra,
    )
    return path, manifest, sim.truth


# -- scoring against ground truth ---------------------------------------------

# what the signal rules should call each injection; stops are matchable
# (braking is a legitimate x/y transient) but never required for recall
# because the taper is smooth by design
_COMPATIBLE = {
    "pothole": {EventKind.POTHOLE},
    "lane_change": {EventKind.STEERING},
    "stop": {EventKind.STEERING},
}
_REQUIRED_KINDS = ("pothole", "lane_change")


@dataclass(frozen=True)
class DetectionScore:
    precision: float
    recall: float
    n_detections: int
    n_required: int
    lane_change_as_pothole: int


def score_detections(
    detected: Iterable[DriveEvent], truth: GroundTruth, pad_ms: int = 150
) -> DetectionScore:
    """Precision/recall of detected events against injected ground truth.

    A detection matches a truth interval when they overlap (padded by
    ``pad_ms``) and the detected kind is compatible with the injection.
    Calm stretches are not detections. Also counts the forbidden case of
    a lane change injection labelled a pothole.
    """
    dets = [e for e in detected if e.kind is not EventKind.CALM]
    matched_truth: set[int] = set()
    n_matched = 0
    lane_as_pothole = 0
    for det in dets:
        hit = False
        for i, tr in enumerate(truth.events):
            overlaps = det.t_start <= tr.t_end_ms + pad_ms and det.t_end >= tr.t_start_ms - pad_ms
            if not overlaps:
                continue
            if tr.kind == "lane_change" and det.kind is EventKind.POTHOLE:
                lane_as_pothole += 1
            if det.kind in _COMPATIBLE[tr.kind]:
                hit = True
                matched_truth.add(i)
        if hit:
            n_matched += 1
    required = [i for i, tr in enumerate(truth.events) if tr.kind in _REQUIRED_KINDS]
    n_recalled = sum(1 for i in required if i in matched_truth)
    return DetectionScore(
        precision=n_matched / len(dets) if dets else 1.0,
        recall=n_recalled / len(required) if required else 1.0,
        n_detections=len(dets),
        n_required=len(required),
        lane_change_as_pothole=lane_as_pothole,
    )


# -- replay / chaos ------------------------------------------------------------


@dataclass(frozen=True)
class NetworkProfile:
    """Fault plan for a replayed upload.

    drop_at_fraction: sever the connection partway through the chunk that
    crosses this fraction of total payload bytes, after forwarding the
    bytes up to the cut (the server durably holds a prefix the client
    never saw acknowledged).
    disconnect_count: sever cleanly before the first chunk of that many
    distinct blobs.
    latency_ms: fixed pause before every request.
    """

    drop_at_fraction: float | None = None
    latency_ms: int = 0
    disconnect_count: int = 0

    def to_doc(self) -> dict:
        return {
            "drop_at_fraction": self.drop_at_fraction,
            "latency_ms": self.latency_ms,
            "disconnect_count": self.disconnect_count,
        }

    @classmethod
    def from_doc(cls, d: dict) -> "NetworkProfile":
        return cls(
            drop_at_fraction=d.get("drop_at_fraction"),
            latency_ms=int(d.get("latency_ms", 0)),
            disconnect_count=int(d.get("disconnect_count", 0)),
        )


class FlakyTransport:
    """Transport wrapper that injects faults per a NetworkProfile and logs
    every exchange to a transcript list."""

    def __init__(self, inner, profile: NetworkProfile, total_put_bytes: int, transcript: list):
        self._inner = inner
        self._log = transcript
        self._latency_s = profile.latency_ms / 1000.0
        self._cut_at = (
            None
            if profile.drop_at_fraction is None
            else int(total_put_bytes * profile.drop_at_fraction)
        )
        self._forwarded = 0
        self._disconnects_left = profile.disconnect_count
        self._hit_paths: set[str] = set()

    def close(self) -> None:
        self._inner.close()

    def _entry(self, method: str, path: str, **kw) -> None:
        self._log.append({"t_ms": int(time.time() * 1000), "kind": "http", "method": method, "path": path, **kw})

    def request(self, method, path, body=b"", headers=None):
        if self._latency_s:
            time.sleep(self._latency_s)
        if method == "PUT":
            if self._disconnects_left > 0 and path not in self._hit_paths:
                self._hit_paths.add(path)
                self._disconnects_left -= 1
                self._inner.close()
                self._entry(method, path, injected="disconnect")
                raise NetworkError("injected disconnect")
            if self._cut_at is not None and self._forwarded < self._cut_at <= self._forwarded + len(body):
                keep = self._cut_at - self._forwarded
                self._cut_at = None
                if keep > 0:
                    # the prefix reaches the server; the client never
                    # sees the ack, so resume must trust server offsets
                    status, h, _ = self._inner.request(method, path, body[:keep], headers)
                    if status == 204:
                        self._forwarded += keep
                    self._entry(method, path, status=status,
                                offset=int((headers or {}).get(OFFSET_HEADER, -1)),
                                payload=keep, truncated=True)
                self._inner.close()
                self._entry(method, path, injected="drop_mid_chunk")
                raise NetworkError("injected drop mid-chunk")
        try:
            status, h, data = self._inner.request(method, path, body, headers)
        except (NetworkError, ServerRejected) as e:
            self._entry(method, path, error=str(e))
            raise
        entry: dict = {"status": status}
        if method == "PUT":
            if status == 204:
                self._forwarded += len(body)
            entry.update(
                offset=int((headers or {}).get(OFFSET_HEADER, -1)),
                payload=len(body),
                new_offset=int(h.get(OFFSET_HEADER.lower(), -1)) if status in (204, 416) else None,
            )
        self._entry(method, path, **entry)
        return status, h, data


@dataclass
class UploadTranscript:
    package_id: str
    entries: list
    final_state: UploadState

    def write(self, path: str | Path) -> None:
        from .canonical import dumps_canonical

        with open(path, "wb") as f:
            for e in self.entries:
                f.write(dumps_canonical(e) + b"\n")

    def acked_put_bytes(self) -> int:
        """Sum of server-side offset growth across acknowledged chunks;
        equals total blob bytes exactly when no byte landed twice."""
        total = 0
        for e in self.entries:
            if e.get("kind") == "http" and e.get("method") == "PUT" and e.get("status") == 204:
                new = e.get("new_offset")
                if new is None:  # truncated forward: growth equals payload
                    total += e.get("payload", 0)
                else:
                    total += max(0, new - e.get("offset", 0))
        return total


def replay_upload(
    package_dir: str | Path,
    endpoint: str,
    profile: NetworkProfile = NetworkProfile(),
    *,
    chunk_bytes: int = 65_536,
    max_retries: int = 5,
    backoff_base_s: float = 0.01,
    backoff_cap_s: float = 0.25,
    timeout: float = 10.0,
) -> UploadTranscript:
    """Drive one package's upload against a live sync service, injecting
    faults per the profile. Backoff defaults are shrunk: replays are load
    and chaos drivers, not production uploads."""
    from .syncclient import HttpTransport, SyncClient

    package_dir = Path(package_dir)
    manifest = read_manifest(package_dir)
    entries: list = []
    transport = FlakyTransport(
        HttpTransport(endpoint, timeout=timeout),
        profile,
        total_put_bytes=sum(b.bytes for b in manifest.blobs),
        transcript=entries,
    )
    client = SyncClient(endpoint, transport=transport)

    def observer(kind: str, **kw) -> None:
        entries.append({"t_ms": int(time.time() * 1000), "kind": kind, **kw})

    uploader = Uploader(
        package_dir,
        manifest,
        client,
        chunk_bytes=chunk_bytes,
        max_retries=max_retries,
        backoff_base_s=backoff_base_s,
        backoff_cap_s=backoff_cap_s,
        observer=observer,
    )
    try:
        final = uploader.run()
    finally:
        client.close()
    return UploadTranscript(package_id=manifest.package_id, entries=entries, final_state=final)
