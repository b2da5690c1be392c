"""Partition-local segmented kernels — the Arrow-native replacement for
``groupby().map_groups(batch_format="pandas")`` in the grouped operators
(ops/corpus_stats.pack_documents, ops/ranking, ops/stratified,
ops/mixture).

Why: ``map_groups`` invokes the kernel once per GROUP (a Python call +
frame slice per user), and the pandas format adds an Arrow→pandas→Arrow
conversion per group. The segmented shape does one keyed repartition
(same shuffle the groupby performed), then inside each partition sorts
ONCE by (key, order...) and runs every group's kernel vectorized over
segment boundaries — one Python call per PARTITION, zero pandas.

Correctness relies on the same contract map_groups gave us: after
``repartition(keys=[key])`` every row of a key is in exactly one
partition, and ``map_batches(batch_size=None)`` hands the whole
partition to the kernel as one batch (the repo-wide keyed-repartition
convention; see ops/invindex.py).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def sorted_segments(
    batch: pa.Table, sort_keys: list[tuple[str, str]]
) -> tuple[pa.Table, np.ndarray, np.ndarray]:
    """Sort the partition by ``sort_keys`` (first key = the group key)
    and return (sorted_table, group_starts, group_counts). Boundary
    detection is the vectorized shift-compare idiom (line_dedup/
    _resolve_block)."""
    idx = pc.sort_indices(batch, sort_keys=sort_keys)
    s = batch.take(idx)
    k = s[sort_keys[0][0]].combine_chunks()
    n = len(s)
    first = np.ones(n, dtype=bool)
    if n > 1:
        first[1:] = ~pc.equal(k.slice(1), k.slice(0, n - 1)).to_numpy(
            zero_copy_only=False
        )
    starts = np.flatnonzero(first)
    counts = np.diff(np.append(starts, n)).astype(np.int64)
    return s, starts, counts


def sorted_segments_multi(
    batch: pa.Table,
    group_keys: list[str],
    order_keys: list[tuple[str, str]],
) -> tuple[pa.Table, np.ndarray, np.ndarray]:
    """Multi-key variant: groups are runs where ALL ``group_keys`` are
    equal; sort is (group_keys asc..., order_keys...)."""
    sort_keys = [(k, "ascending") for k in group_keys] + list(order_keys)
    idx = pc.sort_indices(batch, sort_keys=sort_keys)
    s = batch.take(idx)
    n = len(s)
    first = np.ones(n, dtype=bool)
    if n > 1:
        same = np.ones(n - 1, dtype=bool)
        for k in group_keys:
            col = s[k].combine_chunks()
            same &= pc.equal(col.slice(1), col.slice(0, n - 1)).to_numpy(
                zero_copy_only=False
            )
        first[1:] = ~same
    starts = np.flatnonzero(first)
    counts = np.diff(np.append(starts, n)).astype(np.int64)
    return s, starts, counts
