"""bench.py's object-store telemetry (perfbench's Probe at 4 Hz, read as
bytes) must see real occupancy while objects are live and report zero
spill growth when nothing spills."""

import importlib.util
import os
import time

import numpy as np
import ray


def _load_bench():
    spec = importlib.util.spec_from_file_location(
        "bench_mod", os.path.join(os.path.dirname(__file__), "..", "bench.py")
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_store_monitor_sees_occupancy():
    bench = _load_bench()
    with bench.Probe(interval_s=0.25) as mon:
        refs = [ray.put(np.zeros(8_000_000, dtype=np.uint8))
                for _ in range(4)]
        time.sleep(0.8)  # let the 4 Hz sampler observe the live objects
        del refs
    stats = bench._store_stats(mon)
    assert stats["objstore_peak_bytes"] >= 8_000_000, stats
    assert stats["spill_bytes"] == 0, stats
    assert set(stats) == {"objstore_peak_bytes", "spill_bytes"}


def test_store_monitor_excludes_occupancy_at_block_start(monkeypatch):
    """Objects already live when the block starts are not charged to it:
    with 100 MB in the store at start and 108 MB at the block's peak, the
    block reports 8 MB. The readings are scripted — in a shared session
    earlier tests' objects are freed asynchronously, so live occupancy
    cannot isolate the subtraction."""
    bench = _load_bench()
    total = ray.cluster_resources()["object_store_memory"]
    used = iter([100_000_000])  # the block-start reading, then 108 MB

    def available_resources():
        return {"object_store_memory": total - next(used, 108_000_000)}

    monkeypatch.setattr(ray, "available_resources", available_resources)
    with bench.Probe(interval_s=0.25) as mon:
        time.sleep(0.3)  # at least one background sample
    assert bench._store_stats(mon)["objstore_peak_bytes"] == 8_000_000
