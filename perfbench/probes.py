"""Resource probes sampled on a thread while one pass runs.

``Probe`` reports, for the block it wraps:

- ``peak_rss_mb``: the peak summed RSS of this process and every process
  it spawned (Ray GCS, raylet and workers), read from ``/proc``;
- ``objstore_peak_mb``: the peak object-store occupancy *over the
  occupancy at block start*, so objects left by earlier blocks do not count;
- ``spill_mb``: the growth of the session's spill directory.

Sampling at 10 Hz can miss spikes shorter than 100 ms.
"""

from __future__ import annotations

import glob
import os
import threading

_PAGE = os.sysconf("SC_PAGE_SIZE")
_MB = 1024 * 1024


def process_tree(root: int) -> list[int]:
    """``root`` and every live process descended from it."""
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                stat = f.read()
        except OSError:
            continue  # exited while listing
        state, ppid = stat[stat.rfind(")") + 2:].split()[:2]
        if state != "Z":
            children.setdefault(int(ppid), []).append(int(entry))
    tree, todo = [], [root]
    while todo:
        pid = todo.pop()
        tree.append(pid)
        todo.extend(children.get(pid, ()))
    return tree


def _process_tree_rss(root: int) -> int:
    total = 0
    for pid in process_tree(root):
        try:
            with open(f"/proc/{pid}/statm") as f:
                total += int(f.read().split()[1]) * _PAGE
        except OSError:
            pass  # exited since the scan
    return total


def alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            stat = f.read()
    except OSError:
        return False
    return stat[stat.rfind(")") + 2] != "Z"


class Probe:
    def __init__(self, interval_s: float = 0.1):
        import ray

        self._interval = interval_s
        self._store_total = ray.cluster_resources().get("object_store_memory", 0.0)
        session = ray._private.worker._global_node.get_session_dir_path()
        self._spill_glob = os.path.join(session, "ray_spilled_objects*", "*")
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self.rss_peak = 0
        self._store0 = self._store_used()
        self.store_peak = self._store0
        self._spill0 = self._spill_bytes()
        self.spill_peak = self._spill0

    def _store_used(self) -> float:
        import ray

        return self._store_total - ray.available_resources().get(
            "object_store_memory", self._store_total
        )

    def _spill_bytes(self) -> int:
        total = 0
        for path in glob.glob(self._spill_glob):
            try:
                total += os.path.getsize(path)
            except OSError:
                pass
        return total

    def _sample(self) -> None:
        self.rss_peak = max(self.rss_peak, _process_tree_rss(os.getpid()))
        self.store_peak = max(self.store_peak, self._store_used())
        self.spill_peak = max(self.spill_peak, self._spill_bytes())

    def _run(self) -> None:
        while not self._stop.wait(self._interval):
            self._sample()

    def __enter__(self) -> "Probe":
        self._sample()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self._sample()

    def stats(self) -> dict:
        return {
            "peak_rss_mb": self.rss_peak / _MB,
            "objstore_peak_mb": (self.store_peak - self._store0) / _MB,
            "spill_mb": (self.spill_peak - self._spill0) / _MB,
        }
