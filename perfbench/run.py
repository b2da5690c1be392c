"""Seeded benchmark of the ray-extract engine.

    python3 perfbench/run.py --workload extract_large_pages --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

Run from the repository root. It generates its inputs from ``--seed``,
drives the engine's public entry points in Ray sessions it starts and
stops itself, checks every pass's output against the goldens, prints a
readable summary and, as the last line of stdout, one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Settings and the reasons for them are in ``perfbench/protocol.json``.

Exit status: 0 when every pass ran and every output check passed, 1 when
one did not (the result line still prints), 2 when the engine cannot be
imported (nothing prints).
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import shutil
import signal
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, ".work")
# Ray puts unix sockets under its temp dir, and their paths may not exceed
# 107 bytes. Every Ray process runs with the repository root as its working
# directory, so this short spelling names a directory inside the checkout
# whatever the checkout's own path length. One per run, so that a run
# never deletes another's live session.
RAY_TMP = f"/proc/self/cwd/perfbench/.work/ray{os.getpid()}"
MAX_PROBLEM_CHARS = 3000
STOP_TIMEOUT_S = 20
E2E_UNITS = {"docs_per_s": "docs/s", "setup_s": "s", "peak_rss_mb": "MB", "resume_s": "s"}


class Interrupted(BaseException):
    """The run went past its deadline or was told to stop; unwinds through
    every handler, so that Ray is still shut down."""


class Ledger:
    """Counts attempted and failed passes. A pass fails when it raises,
    runs past the timeout or fails its output check."""

    def __init__(self, timeout_s: float):
        self.timeout_s = timeout_s
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def attempt(self, what: str, fn, check):
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            res = fn()
            elapsed = time.perf_counter() - t0
            problems = check(res)
        except Exception:
            self.failed += 1
            self.problems.append(f"{what} raised: {traceback.format_exc()[-MAX_PROBLEM_CHARS:]}")
            return None
        if elapsed > self.timeout_s:
            problems.append(f"ran {elapsed:.1f} s, past the {self.timeout_s} s limit")
        if problems:
            self.failed += 1
            self.problems.extend(f"{what}: {p}" for p in problems)
            return None
        return res


def _bootstrap() -> None:
    """Make the engine importable here and in every Ray worker; a main
    script that only patches its own sys.path leaves workers failing with
    ModuleNotFoundError."""
    os.chdir(ROOT)
    sys.path.insert(0, ROOT)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p
    )
    os.environ.setdefault("RAY_USAGE_STATS_ENABLED", "0")
    try:
        import ocr_sam_project_ray  # noqa: F401
    except ImportError as exc:
        print(f"perfbench: cannot import the engine from {ROOT}: {exc}", file=sys.stderr)
        sys.exit(2)


def _num_cpus() -> int:
    # the affinity mask, not nproc: nproc honours OMP_NUM_THREADS and can
    # print 1 on a 4-core box; at 1 CPU the curate hash shuffle deadlocks
    return max(2, len(os.sched_getaffinity(0)))


def _start_ray(num_cpus: int, session: dict) -> None:
    import ray

    from ocr_sam_project_ray.context import configure_data_context

    ray.init(
        num_cpus=num_cpus,
        object_store_memory=session["object_store_mb"] * 1024 * 1024,
        include_dashboard=False,
        logging_level="ERROR",
        log_to_driver=False,
        _temp_dir=RAY_TMP,
    )
    configure_data_context()
    logging.getLogger("ray.data").setLevel(logging.ERROR)


def _stop_ray() -> None:
    """Shut Ray down and wait until every process it started has ended.
    ray.shutdown() signals the processes without waiting for all of them,
    and workers leave the process tree once their raylet exits, so their
    pids are taken before the shutdown."""
    import ray

    from .probes import alive, process_tree

    pids = set(process_tree(os.getpid())) - {os.getpid()}
    ray.shutdown()
    deadline = time.monotonic() + STOP_TIMEOUT_S
    while pids and time.monotonic() < deadline:
        time.sleep(0.05)
        pids = {p for p in pids if alive(p)}
    for pid in pids:
        os.kill(pid, signal.SIGKILL)


def run_workload(name: str, seed: int, seconds: float, trace: bool, protocol: dict):
    import ray

    from . import spans
    from .workloads import LAYER_REPS, PER_LAYER_UNITS, WORKLOADS

    session = protocol["session"]
    num_cpus = _num_cpus()
    work_dir = os.path.join(WORK, f"{name}-s{seed}")
    trace_dir = os.path.join(work_dir, "trace")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(trace_dir)
    phases = {"start": time.perf_counter()}
    wl = WORKLOADS[name](name, protocol["workloads"][name], seed, work_dir, num_cpus)
    wl.prepare()
    phases["prepare"] = time.perf_counter()
    ledger = Ledger(session["pass_timeout_s"])
    setups, warm, probes, traced = [], [], [], []
    try:
        for k in range(1 if trace else session["setup_reps"]):
            if ray.is_initialized():
                _stop_ray()
            t0 = time.perf_counter()
            _start_ray(num_cpus, session)
            init_s = time.perf_counter() - t0
            res = ledger.attempt(f"cold pass {k + 1}", wl.run_pass, wl.check)
            if res:
                setups.append(init_s + res.total)
        phases["setups"] = time.perf_counter()

        measured, n = 0.0, 0
        wl.probing = True
        while measured < seconds or n < session["min_warm_passes"]:
            n += 1
            t0 = time.perf_counter()
            res = ledger.attempt(f"warm pass {n}", wl.run_pass, wl.check)
            if res:
                warm.append(res)
                probes.append(wl.probe_stats)
                measured += res.total
            else:
                measured += time.perf_counter() - t0
        wl.probing = False
        phases["warm"] = time.perf_counter()

        if trace:
            layer = wl.layer_passes(ledger)
            # traced passes last: worker-side wrappers stay installed
            for i in range(LAYER_REPS):
                res = ledger.attempt(
                    f"traced pass {i + 1}", lambda: wl.traced_pass(i, trace_dir), wl.check
                )
                if res:
                    traced.append((i, res))
            phases["layers"] = time.perf_counter()
    finally:
        if ray.is_initialized():
            _stop_ray()
        shutil.rmtree(RAY_TMP, ignore_errors=True)
    phases["stop"] = time.perf_counter()

    metrics = {}
    if trace and warm and traced:
        spans.RECORDER.flush(os.path.join(trace_dir, f"spans-{os.getpid()}.jsonl"))
        span_list = spans.load(trace_dir)
        with open(os.path.join(WORK, f"trace-{name}-s{seed}.jsonl"), "w") as f:
            f.write("".join(json.dumps(s) + "\n" for s in span_list))
        values = wl.layer_metrics(warm, probes, layer, traced, span_list)
        metrics = {k: (values[k], PER_LAYER_UNITS[k]) for k in PER_LAYER_UNITS}
    elif not trace and warm and setups:
        metrics = {
            "docs_per_s": (statistics.median(r.rows / r.wall for r in warm), E2E_UNITS["docs_per_s"]),
            "setup_s": (statistics.median(setups), E2E_UNITS["setup_s"]),
            "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in probes), E2E_UNITS["peak_rss_mb"]),
            "resume_s": (statistics.median(r.resume_s for r in warm), E2E_UNITS["resume_s"]),
        }
    shutil.rmtree(work_dir, ignore_errors=True)

    print(f"# {name}: seed {seed}, num_cpus {num_cpus}, {len(warm)} warm passes, "
          f"{len(setups)} setups, {len(traced)} traced passes")
    print("# warm pass walls (s): " + " ".join(f"{r.wall:.3f}" for r in warm))
    marks = list(phases.items())
    print("# phase seconds: " + ", ".join(
        f"{k} {t - marks[i][1]:.1f}" for i, (k, t) in enumerate(marks[1:])))
    for key, (value, unit) in metrics.items():
        print(f"{name:22s} {key:36s} {value:14.4f} {unit}")
    print(f"{name:22s} {'ops_failed_frac':36s} {ledger.failed / max(1, ledger.attempted):14.4f} 1"
          f"   ({ledger.failed} of {ledger.attempted} passes)")
    for p in ledger.problems:
        print(f"perfbench: {name}: {p}", file=sys.stderr)
    return {
        "correct": ledger.failed == 0 and bool(metrics),
        "attempted": max(1, ledger.attempted),
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def _interrupt(signum, frame):
    raise Interrupted(signal.Signals(signum).name)


def main(argv=None) -> int:
    with open(os.path.join(HERE, "protocol.json")) as f:
        protocol = json.load(f)
    names = list(protocol["workloads"])
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*names, "all"])
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    _bootstrap()
    for signum in (signal.SIGALRM, signal.SIGTERM):
        signal.signal(signum, _interrupt)
    ok = True
    for name in names if args.workload == "all" else [args.workload]:
        signal.alarm(protocol["session"]["run_deadline_s"])
        try:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace), protocol)
        except Interrupted as exc:
            print(f"perfbench: {name}: stopped by {exc} before a result "
                  f"(deadline {protocol['session']['run_deadline_s']} s)", file=sys.stderr)
            return 1
        finally:
            signal.alarm(0)
        ok = ok and result["correct"]
        print(json.dumps(result), flush=True)
    if not ok:
        print("perfbench: OUTPUT CHECK FAILED (see above)", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.path.insert(0, ROOT)
    from perfbench.run import main as _main  # run as a package module

    sys.exit(_main())
