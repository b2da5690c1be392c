"""Interleaved paired scaling measurement — the variance-robust protocol.

The level-sequential protocol (scaling_report.py) is biased by slow drift
in shared-VM load: whichever level runs later absorbs the drift (observed
spread: 4-CPU headline 118→158 s across a session at unchanged code). This
tool alternates FRESH sessions lo,hi,lo,hi,... and computes the efficiency
of each ADJACENT PAIR, so drift affects both members of a pair nearly
equally and cancels; the reported number is the MEDIAN of per-pair
efficiencies, with all raw times printed.

Usage: python tools/scaling_interleaved.py [pairs=5] [lo=4] [hi=16]
"""

import json
import statistics
import subprocess
import sys
from pathlib import Path

CHILD = r"""
import ray, time, shutil, json, sys
ncpu = int(sys.argv[1])
ray.init(address="local", num_cpus=ncpu, include_dashboard=False,
         logging_level="ERROR", log_to_driver=False)
from ocr_sam_project_ray.pipelines.extraction import run_extraction, PipelineConfig
cfg = PipelineConfig()
sf = "/root/testdata/sf0.1"
run_extraction(sf, cfg).count()  # warm (workers + imports + page cache)
shutil.rmtree("/dev/shm/scaling_pair_out", ignore_errors=True)
t0 = time.time()
run_extraction(sf, cfg).write_parquet("/dev/shm/scaling_pair_out")
wall = time.time() - t0
n = ray.data.read_parquet("/dev/shm/scaling_pair_out").count()
shutil.rmtree("/dev/shm/scaling_pair_out", ignore_errors=True)
ray.shutdown()
print(json.dumps({"ncpu": ncpu, "wall": wall, "docs": n}))
"""


def run_once(ncpu: int) -> dict:
    out = subprocess.run(
        [sys.executable, "-c", CHILD, str(ncpu)],
        capture_output=True, text=True, check=True,
        cwd=Path(__file__).resolve().parents[1],
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


def main():
    pairs = int(sys.argv[1]) if len(sys.argv) > 1 else 5
    lo = int(sys.argv[2]) if len(sys.argv) > 2 else 4
    hi = int(sys.argv[3]) if len(sys.argv) > 3 else 16
    t_lo, t_hi, effs = [], [], []
    docs = None
    for _ in range(pairs):
        a = run_once(lo)
        b = run_once(hi)
        docs = b["docs"]
        t_lo.append(round(a["wall"], 2))
        t_hi.append(round(b["wall"], 2))
        effs.append(round((a["wall"] / b["wall"]) / (hi / lo), 3))
    result = {
        "protocol": "interleaved-paired, fresh sessions, write-to-tmpfs headline",
        "cpus": [lo, hi],
        "pairs": pairs,
        "docs": docs,
        f"wall_{lo}": t_lo,
        f"wall_{hi}": t_hi,
        "pair_efficiencies": effs,
        "eff_median": round(statistics.median(effs), 3),
        "eff_min": round(min(effs), 3),
        "eff_max": round(max(effs), 3),
        "docs_per_sec_hi_best": round(docs / min(t_hi), 1),
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
