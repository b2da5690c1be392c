"""Embedding similarity ops over a (id, embedding: list<float>) table:

- knn_cosine:       brute-force cosine top-k — the broadcast pattern: the
                    query matrix is ``ray.put`` once, every batch does one
                    numpy matmul against it and emits only its LOCAL top-k
                    per query; the global merge handles k×n_batches rows
                    (tiny), never the full corpus
- cosine_near_pairs: exact all-pairs cosine ≥ τ over a bounded id subset
                    (SQL-oracle-checkable verification kernel)
- knn_ivf:          IVF-style scale path: k-means-lite centroids (fixed
                    deterministic seeds), partition by nearest centroid,
                    probe only the closest n_probe partitions per query

All float comparisons exported to oracles are rounded to 6 dp on BOTH
sides; computations are float64 from the float32 column.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray
from ray.data import Dataset


def _batch_matrix(batch: pa.Table, col: str) -> np.ndarray:
    arr = batch[col]
    flat = np.asarray(arr.combine_chunks().flatten(), dtype=np.float64)
    return flat.reshape(len(batch), -1)


def _normalize(m: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(m, axis=1, keepdims=True)
    n[n == 0] = 1.0
    return m / n


def chunked_upper_pairs(
    m: np.ndarray, ids: np.ndarray, threshold: float, chunk: int = 1024
) -> tuple[list, list, list]:
    """All strict-upper-triangle cosine pairs ≥ threshold over a
    row-NORMALIZED matrix ``m`` aligned with ascending-sorted ``ids``:
    returns (id_a, id_b, sim-rounded-6dp) lists in row-major order —
    the shared kernel of cosine_near_pairs and cosine_near_pairs_ivf.

    Row-chunked so transients stay at chunk×(n−lo) instead of the n²
    sims + triu_indices arrays (~1.2 GB per ~8k-row group, measured at
    sf1), and each chunk multiplies only
    against columns at-or-right-of itself (``m[lo:]``), halving flops
    vs a full ``m @ m.T``; the emit order is identical to the one-shot
    triu form, and each surviving dot product is identical ON THIS
    BLAS/build (pinned by test_embed's parity test — gemm on different
    sub-matrix shapes is not universally guaranteed bit-equal across
    BLAS implementations/threading, so a BLAS change that perturbs a
    threshold-boundary pair fails that test loudly rather than being
    silently absorbed here)."""
    out_a, out_b, out_s = [], [], []
    n = len(ids)
    for lo in range(0, n, chunk):
        sims_c = m[lo:lo + chunk] @ m[lo:].T
        r, c = np.nonzero(sims_c >= threshold)
        keep = c > r  # strict upper triangle in global coordinates
        r, c = r[keep], c[keep]
        if r.size:
            out_a.extend(ids[r + lo].tolist())
            out_b.extend(ids[c + lo].tolist())
            out_s.extend(np.round(sims_c[r, c], 6).tolist())
    return out_a, out_b, out_s


def topk_tied_idx(scores: np.ndarray, ids: np.ndarray, kk: int) -> np.ndarray:
    """Indices of the top ``kk`` rows by (score DESC, id ASC) — the
    tie-DETERMINISTIC local cut every knn partial must use (an
    argpartition pick is arbitrary among boundary ties, so a tied
    candidate the merge/oracle keeps could be dropped). O(B) partition
    to find the kth score, then a lexsort over only the ~kk candidates
    at-or-above it (a full-batch lexsort per query was ~12x the
    comparison work on the benchmarked paths)."""
    if len(scores) <= kk:
        return np.lexsort((ids, -scores))
    kth = -np.partition(-scores, kk - 1)[kk - 1]
    cand = np.nonzero(scores >= kth)[0]
    order = np.lexsort((ids[cand], -scores[cand]))[:kk]
    return cand[order]


def knn_cosine(
    ds: Dataset,
    queries: np.ndarray,
    query_ids: list[int],
    k: int = 10,
    id_col: str = "vec_id",
    emb_col: str = "embedding",
) -> "pa.Table":
    """Top-k cosine neighbours for each query vector. Returns an arrow table
    (qid, vec_id, sim) — k rows per query, sim rounded to 6 dp."""
    qn = _normalize(np.asarray(queries, dtype=np.float64))
    q_ref = ray.put(qn)  # broadcast once, read per task — never re-shipped

    def local_topk(batch: pa.Table) -> pa.Table:
        q = ray.get(q_ref)
        m = _normalize(_batch_matrix(batch, emb_col))
        sims = q @ m.T  # (Q, B)
        ids = np.asarray(batch[id_col].to_pylist(), dtype=np.int64)
        kk = min(k, sims.shape[1])
        out_q, out_i, out_s = [], [], []
        for qi in range(sims.shape[0]):
            part = topk_tied_idx(sims[qi], ids, kk)
            out_q.extend([query_ids[qi]] * len(part))
            out_i.extend(ids[part].tolist())
            out_s.extend(sims[qi][part].tolist())
        return pa.table(
            {
                "qid": pa.array(out_q, pa.int64()),
                "vec_id": pa.array(out_i, pa.int64()),
                "sim": pa.array(out_s, pa.float64()),
            }
        )

    partials = ds.map_batches(local_topk, batch_format="pyarrow", batch_size=4096)
    return _merge_topk(partials, k)


def _merge_topk(
    partials, k: int, score_col: str = "sim", round6: bool = True
) -> "pa.Table":
    """Distributed final top-k merge: the per-batch candidates (k ×
    n_batches rows per query) are grouped by query and reduced per group —
    the merge scales with query count, never with corpus size; only the
    k-per-query result lands on the driver. One home for the
    (score DESC, id ASC) tie contract that topk_tied_idx's local cuts
    must match (ops/quantize reuses it with score_col='score',
    round6=False — integer scores round-trip exactly)."""

    def final(g):
        g = g.sort_values([score_col, "vec_id"],
                          ascending=[False, True]).head(k)
        if round6:
            g[score_col] = g[score_col].round(6)
        return g

    merged = (
        partials.groupby("qid", num_partitions=2)
        .map_groups(final, batch_format="pandas")
        .to_pandas()
        .sort_values(["qid", score_col, "vec_id"],
                     ascending=[True, False, True])
        .reset_index(drop=True)
    )
    return pa.Table.from_pandas(merged, preserve_index=False)


def cosine_near_pairs(
    ds: Dataset, threshold: float, max_id: int,
    id_col: str = "vec_id", emb_col: str = "embedding",
) -> Dataset:
    """Exact cosine ≥ τ pairs among ids < max_id (bounded verification
    kernel; the scale path buckets by IVF centroid / LSH hyperplane first)."""
    import pyarrow.compute as pc

    ds = ds.map_batches(
        lambda b: b.filter(pc.less(b[id_col], max_id)), batch_format="pyarrow"
    ).repartition(1)

    def pairs(batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch[id_col].to_pylist(), dtype=np.int64)
        order = np.argsort(ids)
        m = _normalize(_batch_matrix(batch, emb_col))[order]
        ids = ids[order]
        out_a, out_b, out_s = chunked_upper_pairs(m, ids, threshold)
        return pa.table(
            {
                "id_a": pa.array(out_a, pa.int64()),
                "id_b": pa.array(out_b, pa.int64()),
                "sim": pa.array(out_s, pa.float64()),
            }
        )

    return ds.map_batches(pairs, batch_format="pyarrow", batch_size=None)


# ---------------------------------------------------------------------------
# IVF-style bucketed ANN (the 100 TB path)
# ---------------------------------------------------------------------------

def _lite_centroids(sample: np.ndarray, n_centroids: int, iters: int = 5) -> np.ndarray:
    """Deterministic k-means-lite: first-n seed, fixed Lloyd iterations."""
    c = sample[:n_centroids].copy()
    for _ in range(iters):
        assign = np.argmax(_normalize(sample) @ _normalize(c).T, axis=1)
        for j in range(n_centroids):
            members = sample[assign == j]
            if len(members):
                c[j] = members.mean(axis=0)
    return c


def knn_ivf(
    ds: Dataset,
    queries: np.ndarray,
    query_ids: list[int],
    k: int = 10,
    n_centroids: int = 16,
    n_probe: int = 4,
    sample_rows: int = 2048,
    id_col: str = "vec_id",
    emb_col: str = "embedding",
) -> "pa.Table":
    """IVF-bucketed approximate top-k: train centroids on a bounded sample,
    assign every vector to its nearest centroid inside map_batches, then
    search only the ``n_probe`` closest buckets per query. At cluster scale
    the bucket assignment is the partition key (one shuffle) and each query
    touches n_probe/n_centroids of the data."""
    sample_df = ds.limit(sample_rows).to_pandas()  # bounded, small
    sample = np.asarray(list(sample_df[emb_col]), dtype=np.float64)
    cents = _lite_centroids(sample, n_centroids)
    cn = _normalize(cents)
    c_ref = ray.put(cn)

    def assign(batch: pa.Table) -> pa.Table:
        c = ray.get(c_ref)
        m = _normalize(_batch_matrix(batch, emb_col))
        bucket = np.argmax(m @ c.T, axis=1).astype(np.int32)
        return batch.append_column("ivf_bucket", pa.array(bucket, pa.int32()))

    assigned = ds.map_batches(assign, batch_format="pyarrow")

    qn = _normalize(np.asarray(queries, dtype=np.float64))
    probe = np.argsort(-(qn @ cn.T), axis=1)[:, :n_probe]  # (Q, n_probe)
    probe_sets = [set(row.tolist()) for row in probe]
    q_ref = ray.put((qn, probe_sets))

    def local_topk(batch: pa.Table) -> pa.Table:
        q, psets = ray.get(q_ref)
        m = _normalize(_batch_matrix(batch, emb_col))
        ids = np.asarray(batch[id_col].to_pylist(), dtype=np.int64)
        buckets = np.asarray(batch["ivf_bucket"].to_pylist())
        out_q, out_i, out_s = [], [], []
        for qi in range(q.shape[0]):
            mask = np.isin(buckets, list(psets[qi]))
            if not mask.any():
                continue
            sims = q[qi] @ m[mask].T
            kk = min(k, sims.shape[0])
            part = topk_tied_idx(sims, ids[mask], kk)
            sel_ids = ids[mask][part]
            out_q.extend([query_ids[qi]] * len(part))
            out_i.extend(sel_ids.tolist())
            out_s.extend(sims[part].tolist())
        return pa.table(
            {
                "qid": pa.array(out_q, pa.int64()),
                "vec_id": pa.array(out_i, pa.int64()),
                "sim": pa.array(out_s, pa.float64()),
            }
        )

    partials = assigned.map_batches(local_topk, batch_format="pyarrow", batch_size=4096)
    return _merge_topk(partials, k)


def cosine_near_pairs_ivf(
    ds: Dataset, threshold: float, n_centroids: int = 16,
    sample_rows: int = 2048, id_col: str = "vec_id",
    emb_col: str = "embedding", num_partitions: int = 4,
    n_assign: int = 2,
) -> Dataset:
    """Embedding near-dup pairs at scale: assign every vector to its
    ``n_assign`` NEAREST IVF centroids (multi-assignment — the standard
    boundary-miss mitigation: a near pair straddling one centroid border
    still shares its second-choice bucket w.h.p.), hash-repartition by
    bucket, compare only within buckets, then dedup pairs found in more
    than one shared bucket. Still approximate (rows-only + recall-tested);
    the exact kernel (cosine_near_pairs) verifies bounded subsets. The
    fan-out cost is ×n_assign rows through the shuffle — stated, bounded,
    and the price of recall."""
    sample_df = ds.limit(sample_rows).to_pandas()
    sample = np.asarray(list(sample_df[emb_col]), dtype=np.float64)
    cents = _lite_centroids(sample, n_centroids)
    cn = _normalize(cents)
    c_ref = ray.put(cn)
    k_assign = max(1, min(n_assign, n_centroids))

    def assign(batch: pa.Table) -> pa.Table:
        c = ray.get(c_ref)
        m = _normalize(_batch_matrix(batch, emb_col))
        sims = m @ c.T
        top = np.argpartition(-sims, k_assign - 1, axis=1)[:, :k_assign]
        ids = np.asarray(batch[id_col].to_pylist(), dtype=np.int64)
        embs = batch[emb_col]
        out_idx = np.repeat(np.arange(len(ids)), k_assign)
        return pa.table(
            {
                id_col: pa.array(ids[out_idx], pa.int64()),
                emb_col: embs.take(pa.array(out_idx)),
                "ivf_bucket": pa.array(
                    top.ravel().astype(np.int32), pa.int32()
                ),
            }
        )

    from ..context import configure_data_context

    configure_data_context()
    assigned = ds.map_batches(assign, batch_format="pyarrow").repartition(
        num_blocks=num_partitions, keys=["ivf_bucket"]
    )

    def pairs(batch: pa.Table) -> pa.Table:
        ids_all = np.asarray(batch[id_col].to_pylist(), dtype=np.int64)
        buckets = np.asarray(batch["ivf_bucket"].to_pylist())
        m_all = _normalize(_batch_matrix(batch, emb_col))
        out_a, out_b, out_s = [], [], []
        for bk in np.unique(buckets):
            mask = buckets == bk
            ids = ids_all[mask]
            order = np.argsort(ids)
            ids = ids[order]
            m = m_all[mask][order]
            if len(ids) < 2:
                continue
            # chunked_upper_pairs bounds transients at chunk×m; compute
            # stays O(Σ m²/2) by design — size n_centroids so buckets
            # fit a worker
            a, b, s = chunked_upper_pairs(m, ids, threshold)
            out_a.extend(a)
            out_b.extend(b)
            out_s.extend(s)
        return pa.table(
            {
                "id_a": pa.array(out_a, pa.int64()),
                "id_b": pa.array(out_b, pa.int64()),
                "sim": pa.array(out_s, pa.float64()),
            }
        )

    p = assigned.map_batches(pairs, batch_format="pyarrow", batch_size=None)

    # multi-assignment can surface the same pair from two shared buckets →
    # global pair dedup (same shape as minhash_lsh_pairs' band dedup)
    from .dedup_text import _keep_min_id_per_key

    def add_key(b: pa.Table) -> pa.Table:
        k = [f"{a}:{c}" for a, c in zip(b["id_a"].to_pylist(), b["id_b"].to_pylist())]
        return b.append_column("pair_key", pa.array(k, pa.string()))

    p = (
        p.map_batches(add_key, batch_format="pyarrow")
        .repartition(num_blocks=2, keys=["pair_key"])
        .map_batches(
            lambda b: _keep_min_id_per_key(b, "pair_key", "id_a"),
            batch_format="pyarrow",
            batch_size=None,
        )
    )
    return p.drop_columns(["pair_key"])


def dedup_near_cosine(
    ds: Dataset, threshold: float, id_col: str = "vec_id",
    emb_col: str = "embedding", **ivf_kwargs,
) -> Dataset:
    """Embedding-cosine near-dedup with transitive cluster resolution:
    IVF-bucketed near pairs → distributed connected components → one
    survivor (min id) per component, losers removed by a hash anti-join
    (mirrors dedup_near_minhash; no driver-side id set)."""
    from .graph import connected_components, drop_by_components

    pairs = cosine_near_pairs_ivf(ds, threshold, id_col=id_col,
                                  emb_col=emb_col, **ivf_kwargs)
    comps = connected_components(pairs, num_partitions=4)
    return drop_by_components(ds, comps, id_col, num_partitions=4)
