"""Percentile-gated outlier trimming — the two-pass length filter every
curation pipeline runs (drop the shortest/longest tail before training;
C4 and Gopher both gate on length percentiles rather than fixed
constants so the rule tracks the corpus).

Pass 1: EXACT quantile thresholds of an integer column via the
distributed-histogram plan (per-batch (value → count) combiners → one
small groupby → bounded driver walk over distinct values; same
quantile_disc rank rule — 0-based ceil(q·n)−1 — pinned by
test_corpus_stats). Pass 2: the thresholds are two scalars
broadcast into a stateless vectorized filter; the payload never
shuffles and the stream never materializes.

Bounded-driver note: the histogram is bounded by the number of DISTINCT
values of the gated column (lengths, counts — naturally small domains),
the same convention as ops/corpus_stats.token_count_quantiles.
"""

from __future__ import annotations

import math

import pyarrow as pa
import pyarrow.compute as pc

import ray.data
from ray.data import Dataset

from ..context import configure_data_context


def quantile_disc_walk(values, counts, qs) -> dict:
    """{q: value} walk over a sorted (value, count) histogram with the
    DuckDB quantile_disc rank rule — element at 0-based rank
    ceil(q·n)−1 of the sorted multiset (pinned by the probe test in
    test_corpus_stats). THE shared implementation: corpus_stats
    and this module both delegate here so the rank rule lives once."""
    total = int(sum(counts))
    out = {}
    for q in qs:
        target = max(0, math.ceil(q * total) - 1)  # 0-based rank
        cum = 0
        val = int(values[-1]) if len(values) else 0
        for v, c in zip(values, counts):
            cum += int(c)
            if cum > target:
                val = int(v)
                break
        out[q] = val
    return out


def column_quantiles(
    ds: Dataset, col: str, qs, num_partitions: int = 2
) -> dict:
    """{q: value} EXACT discrete quantiles of an integer column."""
    configure_data_context()

    def partial(batch: pa.Table) -> pa.Table:
        agg = (
            pa.table({col: batch[col]})
            .group_by(col)
            .aggregate([([], "count_all")])
        )
        # count column name must not collide with the gated column
        return agg.rename_columns([col, "cnt_"])

    from ray.data.aggregate import Sum

    hist = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(col, num_partitions=num_partitions)
        .aggregate(Sum("cnt_", alias_name="cnt_"))
        .to_pandas()
        .sort_values(col)
        .reset_index(drop=True)
    )
    return quantile_disc_walk(
        hist[col].to_numpy(), hist["cnt_"].to_numpy(), qs
    )


def trim_outliers(
    ds: Dataset, col: str, lo_q: float = 0.05, hi_q: float = 0.95,
    num_partitions: int = 2,
) -> tuple[Dataset, dict]:
    """(kept rows, {'lo': .., 'hi': ..}) — rows with col inside the
    inclusive [quantile(lo_q), quantile(hi_q)] band survive."""
    qv = column_quantiles(ds, col, (lo_q, hi_q), num_partitions)
    lo, hi = qv[lo_q], qv[hi_q]

    def keep(batch: pa.Table) -> pa.Table:
        c = batch[col]
        return batch.filter(
            pc.and_(
                pc.greater_equal(c, pa.scalar(lo)),
                pc.less_equal(c, pa.scalar(hi)),
            )
        )

    return ds.map_batches(keep, batch_format="pyarrow"), {"lo": lo, "hi": hi}


def trim_docs_by_length(sf_dir: str) -> Dataset:
    """Driver-query instantiation: documents kept by the [p05, p95]
    n_chars band; column-pruned output (doc_id, n_chars)."""
    configure_data_context()
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "n_chars"]
    )
    kept, _ = trim_outliers(docs, "n_chars", 0.05, 0.95)
    return kept


SQL_TRIM_DOCS_BY_LENGTH = """
WITH q AS (
  SELECT quantile_disc(n_chars, 0.05) AS lo,
         quantile_disc(n_chars, 0.95) AS hi
  FROM documents
)
SELECT d.doc_id, d.n_chars
FROM documents d, q
WHERE d.n_chars BETWEEN q.lo AND q.hi
ORDER BY d.doc_id
"""
