"""Benchmark entry point (driver contract).

Runs the headline extraction pipeline over the synthetic page corpus derived
from $GRAFT_SF_DIR (default /root/testdata/sf0.1 → 24k pages) plus the other
headline pipelines, and prints ONE JSON line::

    {"metric": "...", "value": <headline sec>, "unit": "sec",
     "queries": {...}, "sf": ..., "num_cpus": N, ...}

``--scaling`` runs the headline pipeline in two fresh processes at
num_cpus=4 and num_cpus=16 (N and 4N; overridable via SCALING_LO/HI) over
the same (pre-generated, page-cache-warmed) input and reports both
throughputs + scaling efficiency — the in-sandbox proxy for the north
rule's N→4N cluster criterion. 4→16 is the cleanest single-box proxy:
16 workers stay below the socket's bandwidth saturation point, so the
PIPELINE's scaling is what gets measured; at 8→32 the socket itself caps
raw efficiency at ~0.7 regardless of pipeline design (analysis and
multi-run medians in BASELINE.md).

This script OWNS its ray session (init/shutdown); library code never does.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

from perfbench.probes import Probe

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))


def _store_stats(probe: Probe) -> dict:
    """Object-store telemetry of one timed block: what it ADDED, in bytes —
    peak occupancy and peak spill, each over its value at block start
    (objects left live by an earlier block are not charged to this one).
    The probe samples at 4 Hz: a spike shorter than 250 ms can be missed,
    which is enough for trend-level regression catching."""
    s = probe.stats()
    return {"objstore_peak_bytes": round(s["objstore_peak_mb"] * 2**20),
            "spill_bytes": round(s["spill_mb"] * 2**20)}


def _sf_number(sf_dir: str) -> float:
    name = os.path.basename(os.path.normpath(sf_dir))
    try:
        return float(name.replace("sf", ""))
    except ValueError:
        return 0.0


def run_bench(sf_dir: str, num_cpus: int) -> dict:
    import ray

    ray.init(
        address="local",
        num_cpus=num_cpus,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
        log_to_driver=False,  # keep stdout to exactly one JSON line
    )
    import ray.data

    from ocr_sam_project_ray.context import configure_data_context
    from ocr_sam_project_ray.pipelines.extraction import (
        PipelineConfig, batch_rollup, project_persons, run_extraction,
    )
    from ocr_sam_project_ray.sources.synthetic import ensure_corpus
    from ocr_sam_project_ray.stages.dedup import dedup_by_url

    configure_data_context()
    paths = ensure_corpus(sf_dir)  # untimed generation (cached)

    # untimed warm read: measure compute+shuffle, not first-touch disk I/O
    ray.data.read_parquet(paths["pages"]).count()

    cfg = PipelineConfig(dedup_partitions=max(8, num_cpus // 2))
    # sink on tmpfs when available: on one box all writers share a single
    # disk, which conflates disk contention with the N→4N scaling criterion;
    # a real cluster writes through per-node disks / object storage
    out_root = "/dev/shm" if os.path.isdir("/dev/shm") else "/tmp"
    out_dir = os.path.join(
        out_root, "ocr_sam_ray_bench", os.path.basename(os.path.normpath(sf_dir))
    )
    shutil.rmtree(out_dir, ignore_errors=True)

    queries: dict[str, float] = {}
    telemetry: dict[str, dict] = {}

    def timed(name: str, fn) -> None:
        # best of 2, like the headline: every entry is an idempotent
        # read→compute→count, and single-shot walls on this shared box
        # occasionally catch a multi-second stall (observed: line_dedup
        # 17.4 s once vs 4.5–5.3 s across three isolated re-runs) that
        # would read as a phantom regression in the recorded JSON.
        # Telemetry keeps the MAX across reps: spill/occupancy is an
        # early-warning channel, and taking the fast rep's stats would
        # structurally mask a spill that only the slow rep exhibited.
        best = float("inf")
        tel: dict = {}
        for _ in range(2):
            with Probe(interval_s=0.25) as mon:
                t0 = time.time()
                fn()
                dt = time.time() - t0
            best = min(best, dt)
            for k, v in _store_stats(mon).items():
                tel[k] = max(tel.get(k, 0), v)
        queries[name] = round(best, 3)
        telemetry[name] = tel

    # untimed warmup: run the same pipeline once so Ray worker processes /
    # shuffle aggregators exist and imports are loaded — both parallelism
    # levels then measure steady-state throughput, not process cold-start
    run_extraction(sf_dir, cfg).count()

    # headline: full extraction pipeline → parquet sink (the real consumer);
    # best of 2 timed runs (single-node wall times vary ~±10%)
    headline = float("inf")
    head_tel: dict = {}
    for rep in range(2):
        shutil.rmtree(out_dir, ignore_errors=True)
        with Probe(interval_s=0.25) as mon:
            t0 = time.time()
            ds = run_extraction(sf_dir, cfg)
            ds.write_parquet(os.path.join(out_dir, "extracted"))
            dt = time.time() - t0
        headline = min(headline, dt)
        # max across reps — don't let the fast rep hide the slow one's spill
        for k, v in _store_stats(mon).items():
            head_tel[k] = max(head_tel.get(k, 0), v)
    telemetry["extraction_write"] = head_tel
    queries["extraction_write"] = round(headline, 3)

    n_docs = ray.data.read_parquet(os.path.join(out_dir, "extracted")).count()

    if os.environ.get("BENCH_HEADLINE_ONLY"):
        result = {
            "metric": "extraction_pipeline_sec",
            "value": round(headline, 3),
            "unit": "sec",
            "protocol": "best-of-2 (headline only)",
            "queries": queries,
            "telemetry": telemetry,
            "sf": _sf_number(sf_dir),
            "num_cpus": num_cpus,
            "docs_out": n_docs,
            "docs_per_sec": round(n_docs / headline, 1) if headline > 0 else None,
        }
        ray.shutdown()
        return result

    # both dedup strategies in isolation: the broadcast winner pre-pass
    # (production path) vs the full hash-shuffle (fallback), 2 columns each
    from ocr_sam_project_ray.stages.dedup import compute_dup_winners

    timed("dedup_winners_pass", lambda: compute_dup_winners(paths["pages"]))
    timed("dedup_shuffle", lambda: dedup_by_url(
        ray.data.read_parquet(paths["pages"], columns=["url", "warc_ts"]),
        num_partitions=cfg.dedup_partitions,
    ).count())

    # distributed near-dedup chain over the documents table (the LLM-data
    # flagship: LSH pairs → connected components → anti-join drop)
    from ocr_sam_project_ray.ops.dedup_text import dedup_near_minhash

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet")
    timed("near_dedup_docs", lambda: dedup_near_minhash(
        docs, threshold=0.7, num_partitions=8).count())

    # full curation chain (quality → exact dedup → near-dup → counts)
    from ocr_sam_project_ray.pipelines.curate import curate_corpus

    docs_qt = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    timed("curate_docs", lambda: curate_corpus(
        docs_qt, None, num_partitions=8))

    # persons projection + batch rollup on top of a cached annotated dataset
    annotated = run_extraction(sf_dir, cfg).materialize()
    timed("project_persons", lambda: project_persons(annotated).count())
    timed("batch_rollup", lambda: batch_rollup(annotated).count())

    # C4-style corpus-global line dedup over the extraction output (the
    # post-extraction boilerplate strip: winners shuffle + broadcast apply)
    from ocr_sam_project_ray.ops.line_dedup import line_dedup

    seg_text = annotated.map_batches(
        lambda b: b.filter(b["success"]).select(["doc_id", "extracted_text"]),
        batch_format="pyarrow",
    )
    timed("line_dedup_extracted", lambda: line_dedup(
        seg_text, id_col="doc_id", text_col="extracted_text",
        num_partitions=cfg.dedup_partitions,
    ).count())

    # ExactSubstr duplicate-span stats over the documents table (gram
    # resolve shuffle + broadcast searchsorted apply)
    from ocr_sam_project_ray.ops.span_dedup import dup_span_stats

    timed("span_dedup_docs", lambda: dup_span_stats(
        docs, num_partitions=8).count())

    # host link graph + fixed-point PageRank over the raw pages corpus
    # (href extraction streams the html payload; ranks stay host-bounded)
    from ocr_sam_project_ray.ops.linkgraph import host_pagerank

    pages_ds = ray.data.read_parquet(paths["pages"],
                                     columns=["url", "html", "text"])
    timed("host_pagerank", lambda: host_pagerank(
        pages_ds, iters=5, num_partitions=8).count())

    # crawl-frontier discovery (round 5): one corpus scan emitting both
    # anti-join roles, one url co-partition
    from ocr_sam_project_ray.ops.linkgraph import crawl_frontier

    timed("crawl_frontier", lambda: crawl_frontier(
        pages_ds, num_partitions=8).count())

    # per-host quota cap (payload-free prefix-sum keep set)
    from ocr_sam_project_ray.ops.hostquota import host_quota

    timed("host_quota", lambda: host_quota(
        ray.data.read_parquet(paths["pages"], columns=["url"]), 500,
        num_partitions=8,
    ).count())

    # DSIR importance scoring over the documents table (fit both hashed
    # n-gram models in one fold pass, broadcast llr, score every doc)
    from ocr_sam_project_ray.ops.dsir import dsir_score

    docs_tbl = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "lang"]
    )
    timed("dsir_score_docs", lambda: dsir_score(docs_tbl).count())

    # BM25 retrieval over the documents table (stats pass + broadcast
    # term stats + streaming local top-k + per-query merge)
    from ocr_sam_project_ray.ops.bm25 import bm25_topk

    timed("bm25_topk_docs", lambda: bm25_topk(
        docs_tbl,
        ["table scan fast", "window agg join", "hash merge sort",
         "spark row column value"],
        k=10,
    ))

    # text→embedding actor-pool stage (round 4: model-in-__init__ seam,
    # deterministic hash backend) over the documents table
    from ocr_sam_project_ray.stages.embedder import embed_documents

    timed("embed_documents", lambda: embed_documents(
        docs_tbl, concurrency=(1, max(4, num_cpus // 4)), batch_size=1024
    ).count())

    result = {
        "metric": "extraction_pipeline_sec",
        "value": round(headline, 3),
        "unit": "sec",
        "protocol": "best-of-2 per entry (headline and per-op)",
        "queries": queries,
        # per-entry object-store telemetry (round 5): peak occupancy and
        # spill growth during each timed block — the early-warning signal
        # for payload regressions that wall time alone hides at sf0.1
        "telemetry": telemetry,
        "sf": _sf_number(sf_dir),
        "num_cpus": num_cpus,
        "docs_out": n_docs,
        "docs_per_sec": round(n_docs / headline, 1) if headline > 0 else None,
    }
    ray.shutdown()
    return result


def _spin_ceiling(lo: int, hi: int) -> float:
    """Hardware scaling ceiling of THIS box: run the same fixed-work spin
    loop in lo and hi concurrent processes; the per-process slowdown ratio
    bounds any perfectly-parallel program's lo→hi efficiency (single shared
    box: clock/bandwidth degrade with occupancy — a multi-node cluster adds
    whole nodes instead). Returns max achievable efficiency in [0, 1]."""
    import multiprocessing as mp

    def run(nproc: int) -> float:
        t0 = time.time()
        with mp.Pool(nproc) as p:
            p.map(_spin, [20_000_000] * nproc)
        return time.time() - t0

    # best-of-3 per level: the calibration itself is load-sensitive; taking
    # the MAX resulting ceiling is conservative (it shrinks the normalized
    # efficiency, never inflates it)
    t_lo = min(run(lo) for _ in range(3))
    t_hi = min(run(hi) for _ in range(3))
    return min(1.0, t_lo / t_hi)


def _spin(n: int) -> int:
    s = 0
    for i in range(n):
        s += i * i
    return s


def run_scaling(sf_dir: str, lo: int = None, hi: int = None) -> dict:
    lo = lo or int(os.environ.get("SCALING_LO", "4"))
    hi = hi or int(os.environ.get("SCALING_HI", "16"))
    # pre-generate + warm in this process so both children see a hot cache
    from ocr_sam_project_ray.sources.synthetic import ensure_corpus

    ensure_corpus(sf_dir)

    def child(ncpu: int) -> dict:
        env = dict(os.environ, RAY_GRAFT_CPUS=str(ncpu), GRAFT_SF_DIR=sf_dir,
                   BENCH_HEADLINE_ONLY="1")
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__)],
            env=env, capture_output=True, text=True, check=True,
        ).stdout
        return json.loads(out.strip().splitlines()[-1])

    r_lo, r_hi = child(lo), child(hi)
    t_lo, t_hi = r_lo["value"], r_hi["value"]
    eff = (t_lo / t_hi) / (hi / lo) if t_hi > 0 else None
    ceiling = _spin_ceiling(lo, hi)
    return {
        "metric": "scaling_efficiency",
        "value": round(eff, 3) if eff else None,
        "unit": "ratio",
        "sf": _sf_number(sf_dir),
        f"sec_{lo}": t_lo,
        f"sec_{hi}": t_hi,
        f"docs_per_sec_{lo}": r_lo.get("docs_per_sec"),
        f"docs_per_sec_{hi}": r_hi.get("docs_per_sec"),
        "cpus": [lo, hi],
        # same-box calibration: a perfectly parallel job can reach at most
        # hw_ceiling here (clock/bandwidth vs occupancy); value_normalized
        # is the pipeline's efficiency relative to that ceiling — the
        # better proxy for N→4N MULTI-NODE scaling, where added nodes bring
        # their own cores/bandwidth/disks
        "hw_ceiling": round(ceiling, 3),
        "value_normalized": (
            round(min(1.0, eff / ceiling), 3) if eff and ceiling else None
        ),
    }


if __name__ == "__main__":
    if "--scaling" in sys.argv:
        print(json.dumps(run_scaling(SF_DIR)))
    else:
        print(json.dumps(run_bench(SF_DIR, NUM_CPUS)))
