"""Definitive scaling measurement for BASELINE.md: N reps of the headline
pipeline (count-consume and parquet-write-to-tmpfs) at two parallelism
levels in fresh Ray sessions, fixed PipelineConfig. Prints one JSON blob
with min/median per level and derived efficiencies.

Usage: python tools/scaling_report.py [reps=3] [lo=8] [hi=32]
"""

import json
import statistics
import subprocess
import sys
from pathlib import Path

CHILD = r"""
import os, ray, time, shutil, json, sys
ncpu, reps = int(sys.argv[1]), int(sys.argv[2])
write_only = bool(int(os.environ.get("SCALING_WRITE_ONLY", "0")))
ray.init(address="local", num_cpus=ncpu, include_dashboard=False,
         logging_level="ERROR", log_to_driver=False)
from ocr_sam_project_ray.pipelines.extraction import run_extraction, PipelineConfig
cfg = PipelineConfig()
sf = "/root/testdata/sf0.1"
run_extraction(sf, cfg).count()  # warm
counts, writes = [], []
if not write_only:
    for _ in range(reps):
        t0 = time.time(); run_extraction(sf, cfg).count(); counts.append(time.time() - t0)
for _ in range(reps):
    shutil.rmtree("/dev/shm/scaling_report_out", ignore_errors=True)
    t0 = time.time()
    run_extraction(sf, cfg).write_parquet("/dev/shm/scaling_report_out")
    writes.append(time.time() - t0)
n = ray.data.read_parquet("/dev/shm/scaling_report_out").count()
shutil.rmtree("/dev/shm/scaling_report_out", ignore_errors=True)
ray.shutdown()
print(json.dumps({"ncpu": ncpu, "counts": counts or writes, "writes": writes, "docs": n}))
"""


def run_level(ncpu: int, reps: int) -> dict:
    out = subprocess.run(
        [sys.executable, "-c", CHILD, str(ncpu), str(reps)],
        capture_output=True, text=True, check=True,
        cwd=Path(__file__).resolve().parents[1],
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


def main():
    reps = int(sys.argv[1]) if len(sys.argv) > 1 else 3
    lo = int(sys.argv[2]) if len(sys.argv) > 2 else 8
    hi = int(sys.argv[3]) if len(sys.argv) > 3 else 32
    r_lo, r_hi = run_level(lo, reps), run_level(hi, reps)

    def stats(xs):
        return {"min": round(min(xs), 2), "median": round(statistics.median(xs), 2),
                "all": [round(x, 2) for x in xs]}

    def eff(a, b):
        return round((a / b) / (hi / lo), 3)

    docs = r_hi["docs"]
    result = {
        "docs": docs,
        f"count_{lo}": stats(r_lo["counts"]),
        f"count_{hi}": stats(r_hi["counts"]),
        f"write_{lo}": stats(r_lo["writes"]),
        f"write_{hi}": stats(r_hi["writes"]),
        "eff_count_min": eff(min(r_lo["counts"]), min(r_hi["counts"])),
        "eff_count_median": eff(statistics.median(r_lo["counts"]),
                                statistics.median(r_hi["counts"])),
        "eff_write_min": eff(min(r_lo["writes"]), min(r_hi["writes"])),
        "eff_write_median": eff(statistics.median(r_lo["writes"]),
                                statistics.median(r_hi["writes"])),
        "docs_per_sec_write_hi": round(docs / min(r_hi["writes"]), 1),
        "docs_per_sec_write_lo": round(docs / min(r_lo["writes"]), 1),
        "cpus": [lo, hi],
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
