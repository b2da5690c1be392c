"""Exact global order statistics WITHOUT a global sort — per-row global
rank and NTILE bucket over an integer key, the length-balanced sharding /
curriculum-bucketing step of a pretraining pipeline (assign every doc its
corpus-wide length percentile, split the corpus into k equal tiles).

Contract (all integer; what the DuckDB oracle recomputes):
- ordering = (key_col ASC, id_col ASC), keys non-null integers;
- rank     = 1-based global row_number under that ordering;
- ntile    = SQL NTILE(k): the first (N % k) tiles get ceil(N/k) rows,
             the rest floor(N/k), assigned in rank order (1-based).

Scale shape (the two-pass distributed prefix-sum of
corpus_stats.pack_documents, generalized from hash-order to KEY order):
1. key histogram: per-batch ``np.unique`` counts → one small groupby →
   the driver folds the sorted (key, count) table into exclusive base
   ranks (bounded driver state = distinct-key count, asserted <=
   ``max_distinct_keys``; broadcast once via ``ray.put``);
2. rank assign: rows travel PAYLOAD-FREE (id + key, 16 bytes/row)
   through one hash repartition on the key, so every row of a key lands
   in one partition; a vectorized lexsort gives each row its within-key
   position, and rank = base[key] + position + 1. The full-width output
   joins back by id only if the caller wants it — this op returns the
   (id, key, rank, ntile) assignment table, the resumable-parquet shape.

Partitioning assumption (documented like sessionization/pack_documents):
one KEY's rows fit one partition. A pathological single-valued key
degrades to one partition — for such keys pre-bucket by id range using
the same histogram trick at a second level.

Behavioral lineage: beyond-reference training-data surface (the
reference processes one document per Lambda and has no corpus-wide
ordering anywhere, src/ocr_processor/app.py:94-138).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray
from ray.data import Dataset
from ray.data.aggregate import Sum

from ..context import configure_data_context

MAX_DISTINCT_KEYS = 5_000_000


def _ntile_of(rank0: np.ndarray, n_total: int, k: int) -> np.ndarray:
    """Vectorized SQL NTILE from 0-based ranks."""
    q, r0 = divmod(n_total, k)
    big_span = r0 * (q + 1)
    out = np.empty(rank0.shape, dtype=np.int64)
    in_big = rank0 < big_span
    out[in_big] = rank0[in_big] // (q + 1)
    if q:
        out[~in_big] = r0 + (rank0[~in_big] - big_span) // q
    return out + 1


def global_rank_ntile(
    ds: Dataset, key_col: str, id_col: str = "doc_id", k: int = 10,
    num_partitions: int = 8, max_distinct_keys: int = MAX_DISTINCT_KEYS,
) -> Dataset:
    """Dataset(id_col, key_col, rank, ntile) — exact global rank and
    NTILE(k) bucket by (key_col, id_col), no global sort."""
    configure_data_context()
    n_total = ds.count()
    slim = ds.select_columns([id_col, key_col])
    id_type = ds.schema().base_schema.field(id_col).type
    key_type = ds.schema().base_schema.field(key_col).type

    def hist(batch: pa.Table) -> pa.Table:
        keys = batch[key_col].to_numpy(zero_copy_only=False)
        ks, counts = np.unique(keys, return_counts=True)
        return pa.table(
            {"key": pa.array(ks, key_type),
             "cnt": pa.array(counts, pa.int64())}
        )

    slim = slim.materialize()
    histo = (
        slim.map_batches(hist, batch_format="pyarrow")
        .groupby("key", num_partitions=2)
        .aggregate(Sum("cnt", alias_name="cnt"))
        .to_pandas()
        .sort_values("key")
    )
    if len(histo) > max_distinct_keys:
        raise ValueError(
            f"{len(histo)} distinct keys exceeds max_distinct_keys="
            f"{max_distinct_keys}; raise the bound or pre-bucket the key"
        )
    sorted_keys = histo["key"].to_numpy()
    base_ranks = (histo["cnt"].cumsum() - histo["cnt"]).to_numpy()
    bases_ref = ray.put((sorted_keys, base_ranks))

    by_key = slim.repartition(num_blocks=num_partitions, keys=[key_col])

    def assign(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table(
                {id_col: pa.array([], id_type),
                 key_col: pa.array([], key_type),
                 "rank": pa.array([], pa.int64()),
                 "ntile": pa.array([], pa.int64())}
            )
        key_index, key_bases = ray.get(bases_ref)
        keys = batch[key_col].to_numpy(zero_copy_only=False)
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        order = np.lexsort((ids, keys))
        sk = keys[order]
        run_start = np.zeros(len(order), dtype=np.int64)
        new_run = np.nonzero(sk[1:] != sk[:-1])[0] + 1
        run_start[new_run] = new_run
        np.maximum.accumulate(run_start, out=run_start)
        within = np.arange(len(order), dtype=np.int64) - run_start
        base = key_bases[np.searchsorted(key_index, sk)]
        rank0_sorted = base + within
        rank0 = np.empty_like(rank0_sorted)
        rank0[order] = rank0_sorted
        return pa.table(
            {
                id_col: batch[id_col],
                key_col: batch[key_col],
                "rank": pa.array(rank0 + 1, pa.int64()),
                "ntile": pa.array(_ntile_of(rank0, n_total, k), pa.int64()),
            }
        )

    return by_key.map_batches(assign, batch_format="pyarrow",
                              batch_size=None)


def sql_global_rank_ntile(
    key_col: str, k: int = 10, table: str = "documents",
    id_col: str = "doc_id",
) -> str:
    """DuckDB recompute: row_number + NTILE over the same ordering."""
    return f"""
        SELECT {id_col}, {key_col},
               CAST(row_number() OVER (ORDER BY {key_col}, {id_col})
                    AS BIGINT) AS rank,
               CAST(ntile({k}) OVER (ORDER BY {key_col}, {id_col})
                    AS BIGINT) AS ntile
        FROM {table}
    """


def group_percent_rank(
    ds: Dataset,
    group_col: str,
    value_col: str,
    keep_cols: tuple = (),
    num_partitions: int = 4,
) -> Dataset:
    """Per-GROUP percent_rank of an integer value — the per-domain
    score-normalization transform (rank a doc's quality/length against
    its own host, not the corpus): SQL
    ``percent_rank() OVER (PARTITION BY group ORDER BY value)``.

    Contract (DuckDB-bit-identical): ties share the MIN rank;
    ``pct_rank = (rank - 1) / (n_group - 1)`` as ONE IEEE float64
    division of exact integers (the ops/tfidf.py rank-contract trick),
    and a single-row group gets 0.0. A ``cume_dist`` column rides along
    under the same contract: ``(rows with value <= current) / n_group``
    — the peer-run END over the group size, single-row group 1.0
    (matches DuckDB cume_dist()). The kernel is vectorized across
    all groups of a partition: one lexsort + two global searchsorted
    probes over a composite (segment, value) key: each row's key is
    ``segment * stride + (value - min)`` with ``stride`` above the value
    span (loud int64-overflow guard), so one sorted array answers every
    group's peer-run bounds without crossing into another group.

    Rows travel payload-light (group + value + keep_cols) through ONE
    group-key repartition; one group's rows are assumed to fit one
    partition (the module-level partitioning assumption above).
    """
    from .segmented import sorted_segments

    configure_data_context()

    out_cols = list(keep_cols) + [group_col, value_col,
                                  "pct_rank", "cume_dist"]

    def pct(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            arrs = {c: pa.array([], batch.schema.field(c).type
                                if c in batch.schema.names
                                else pa.float64())
                    for c in out_cols}
            return pa.table(arrs)
        value_type = batch.schema.field(value_col).type
        if not pa.types.is_integer(value_type):
            # the composite key is int64; a float column would truncate
            # silently and tie distinct values
            raise TypeError(
                f"group_percent_rank needs an integer value column; "
                f"{value_col!r} is {value_type}"
            )
        if (batch[value_col].null_count or batch[group_col].null_count):
            # nulls would sort to segment end as NaN-derived garbage
            # keys and silently corrupt EVERY rank in the partition —
            # loud, like the overflow guard below (DuckDB's NULLS-LAST
            # percent_rank is a different contract; coalesce upstream)
            raise ValueError(
                "group_percent_rank: null values in "
                f"{group_col!r}/{value_col!r} — coalesce upstream"
            )
        s, starts, counts = sorted_segments(
            batch, [(group_col, "ascending"), (value_col, "ascending")]
        )
        v = s[value_col].to_numpy(zero_copy_only=False).astype(np.int64)
        v0 = int(v.min())
        stride = int(v.max()) - v0 + 2
        n_seg = len(starts)
        if n_seg * stride >= 2**62:
            raise ValueError(
                f"group_percent_rank composite key overflow: "
                f"{n_seg} segments x stride {stride}"
            )
        seg_id = np.repeat(np.arange(n_seg, dtype=np.int64), counts)
        key = seg_id * stride + (v - v0)
        seg_start = np.repeat(starts, counts)
        rank0 = np.searchsorted(key, key, side="left") - seg_start
        hi = np.searchsorted(key, key, side="right") - seg_start
        ngrp = np.repeat(counts, counts)
        denom = ngrp - 1
        # the maximum-clamp keeps the division well-defined; the where
        # enforces the single-row-group -> 0.0 contract
        pr = np.where(denom > 0, rank0 / np.maximum(denom, 1), 0.0)
        cd = hi / ngrp
        cols = {c: s[c] for c in out_cols
                if c not in ("pct_rank", "cume_dist")}
        cols["pct_rank"] = pa.array(pr, pa.float64())
        cols["cume_dist"] = pa.array(cd, pa.float64())
        return pa.table(cols)

    return ds.repartition(
        num_blocks=num_partitions, keys=[group_col]
    ).map_batches(pct, batch_format="pyarrow", batch_size=None)
