"""Record the report digests the benchmark's correctness gate compares against.

    python3 perfbench/record_golden.py --seeds 0-15

Writes perfbench/golden.json: the sha256 of every report file for the
fixed drive and, for each listed seed, for the drives of analyze_long and
roundtrip_frames. Run it only when a change is meant to alter report
bytes, and say so in the change.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads as wl  # noqa: E402


def digests(inp: dict, pkg: Path, out: Path) -> dict:
    wl.analyze_into(inp, pkg, out)
    return wl.report_digests(out)


def record(seeds, root: Path) -> dict:
    fixed = wl.fixed_inputs(root / "fixed")
    golden: dict = {
        "fixed": {str(wl.FIXED_SEED): digests(fixed, fixed["pkgs"][0], root / "fixed-out")},
        "analyze_long": {},
        "roundtrip_frames": {},
    }
    for seed in seeds:
        d = root / f"seed{seed}"
        long = wl.long_inputs(seed, d / "long")
        golden["analyze_long"][str(seed)] = digests(long, long["pkgs"][0], d / "long-out")
        frames = wl.frames_inputs(seed, d / "frames")
        golden["roundtrip_frames"][str(seed)] = {
            str(i): digests(frames, p, d / f"frames-out{i}") for i, p in enumerate(frames["pkgs"])
        }
        shutil.rmtree(d)
        print(f"seed {seed} recorded", flush=True)
    return golden


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", required=True, help="inclusive range, e.g. 0-15")
    args = p.parse_args()
    lo, _, hi = args.seeds.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)
    work = HERE.parent / ".perfbench_work"
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        golden = record(seeds, Path(tmp))
    try:
        work.rmdir()
    except OSError:  # a benchmark run is using it
        pass
    wl.GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
