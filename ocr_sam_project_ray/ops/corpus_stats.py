"""Corpus-level statistics operators — the vocabulary / distribution /
per-source accounting a large-scale training-data pipeline runs before and
after every preparation step:

- token_df:        corpus document-frequency + term-frequency table
                   (vocabulary building, stop-list derivation, df-pruning)
- host_stats:      per-host page/url accounting over a crawl table
                   (crawl-balance audits; host-level dedup planning)
- token_count_quantiles: EXACT distribution quantiles of per-doc token
                   counts via a distributed histogram (no sampling) —
                   the corpus length profile used to pick packing lengths

All are partial-then-final aggregations: per-batch combiners shrink the
data before the single hash shuffle; nothing lands on the driver except
final results (token_df result is the vocabulary itself — bounded by
vocab size, returned as a Dataset so callers can keep it distributed).
Every operator is SQL-recomputed by a DuckDB oracle.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data
from ray.data import Dataset

from ..context import configure_data_context


def token_df(
    ds: Dataset, id_col: str = "doc_id", text_col: str = "text",
    num_partitions: int = 8,
) -> Dataset:
    """(token, df, tf): documents containing each whitespace token and its
    total occurrence count. Token model = the engine-wide contract
    (ops/textstats.tokenize: split \\s+ after strip). A row is entirely
    inside one batch, so per-batch distinct-doc counts sum to exact global
    document frequency."""
    from .textstats import doc_token_counts

    configure_data_context()

    def partial(batch: pa.Table) -> pa.Table:
        # vectorized combiner (textstats.doc_token_counts): df = number
        # of distinct (doc, token) pairs per token, tf = their count sum
        # — one bincount each over the batch-local dictionary. Output
        # order is irrelevant (feeds the token-key groupby).
        pair_doc, pair_token, pair_tf, _dl = doc_token_counts(
            batch[text_col]
        )
        if len(pair_token) == 0:
            return pa.table(
                {"token": pa.array([], pa.string()),
                 "df": pa.array([], pa.int64()),
                 "tf": pa.array([], pa.int64())}
            )
        enc = pc.dictionary_encode(pair_token)
        codes = enc.indices.to_numpy(zero_copy_only=False)
        nd = len(enc.dictionary)
        return pa.table(
            {
                "token": enc.dictionary,
                "df": pa.array(np.bincount(codes, minlength=nd), pa.int64()),
                "tf": pa.array(
                    np.bincount(codes, weights=pair_tf, minlength=nd)
                    .astype(np.int64),
                    pa.int64(),
                ),
            }
        )

    from ray.data.aggregate import Sum

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("token", num_partitions=num_partitions)
        .aggregate(Sum("df", alias_name="df"), Sum("tf", alias_name="tf"))
    )


def host_stats(pages_path, num_partitions: int = 4):
    """Per-host crawl accounting: page rows and DISTINCT urls per host.
    Vectorized host extraction (pc.extract_regex); distinct urls via a
    two-level aggregation — (host, url) combiner → count per pair →
    host rollup — never a driver-side set."""
    configure_data_context()
    ds = ray.data.read_parquet(pages_path, columns=["url"])

    def partial(batch: pa.Table) -> pa.Table:
        # host = url minus scheme, up to the first '/' — two vectorized
        # regex rewrites, no Python loop
        stripped = pc.replace_substring_regex(
            batch["url"], pattern=r"^https?://", replacement=""
        )
        host = pc.replace_substring_regex(
            stripped, pattern=r"/.*$", replacement=""
        )
        t = pa.table({"host": host, "url": batch["url"]})
        agg = t.group_by(["host", "url"]).aggregate([([], "count_all")])
        return agg.rename_columns(["host", "url", "n"])

    from ray.data.aggregate import Sum

    per_url = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(["host", "url"], num_partitions=num_partitions)
        .aggregate(Sum("n", alias_name="n"))
    )

    def host_partial(batch: pa.Table) -> pa.Table:
        t = pa.table({"host": batch["host"], "n_pages": batch["n"]})
        agg = t.group_by("host").aggregate([("n_pages", "sum"), ([], "count_all")])
        return agg.rename_columns(["host", "n_pages", "n_urls"])

    out = (
        per_url.map_batches(host_partial, batch_format="pyarrow")
        .groupby("host", num_partitions=num_partitions)
        .aggregate(Sum("n_pages", alias_name="n_pages"),
                   Sum("n_urls", alias_name="n_urls"))
    )
    return out.to_pandas().sort_values("host").reset_index(drop=True)


def pack_documents(
    ds: Dataset, budget: int = 512, id_col: str = "doc_id",
    text_col: str = "text", num_partitions: int = 4,
):
    """Deterministic shuffle + SEQUENCE PACKING — the pretraining
    batch-assembly shape: order the corpus by a content hash (reproducible
    'shuffle', independent of input partitioning), then assign each doc a
    ``pack_id`` = floor(exclusive-prefix-sum(n_tokens) / budget) so
    consecutive docs fill fixed token budgets.

    Distributed prefix-sum, two passes:
      1. docs → (bucket = first md5 byte) token totals via one small
         groupby; the driver turns 256 bucket totals into exclusive bucket
         OFFSETS (bounded driver state, broadcast once);
      2. groupby(bucket).map_groups: sort the bucket by (hash, id), local
         exclusive cumsum + the bucket's offset → pack_id. Partitioning
         assumption (documented, as for sessionization): one bucket's rows
         fit one group — buckets are 1/256 of the corpus; add a second
         hash byte (65k buckets) for larger corpora.

    Oracle: SQL window SUM OVER (ORDER BY hash ROWS … 1 PRECEDING)."""
    import hashlib

    from .textstats import flat_tokens

    configure_data_context()

    def keyed(batch: pa.Table) -> pa.Table:
        texts = batch[text_col].to_pylist()
        hs = [hashlib.md5((t or "").encode("utf-8")).hexdigest() for t in texts]
        return pa.table(
            {
                id_col: batch[id_col],
                "h": pa.array(hs, pa.string()),
                "bucket": pa.array([int(h[:2], 16) for h in hs], pa.int64()),
                "n": pa.array(flat_tokens(batch[text_col])[0], pa.int64()),
            }
        )

    keyed_ds = ds.map_batches(keyed, batch_format="pyarrow").materialize()

    from ray.data.aggregate import Sum

    totals = (
        keyed_ds.groupby("bucket", num_partitions=2)
        .aggregate(Sum("n", alias_name="total"))
        .to_pandas()
        .sort_values("bucket")
    )
    offsets = {}
    run = 0
    for _, row in totals.iterrows():
        offsets[int(row.bucket)] = run
        run += int(row.total)
    offsets_ref = ray.put(offsets)

    def pack_local(batch: pa.Table) -> pa.Table:
        # Arrow-native segmented kernel (round 4): all hash buckets of
        # the partition in one pass — exclusive prefix sums from one
        # global cumsum plus the broadcast bucket offsets
        from .segmented import sorted_segments

        if batch.num_rows == 0:
            return pa.table(
                {id_col: pa.array([], pa.int64()),
                 "pack_id": pa.array([], pa.int64())}
            )
        offs = ray.get(offsets_ref)
        s, starts, counts = sorted_segments(
            batch,
            [("bucket", "ascending"), ("h", "ascending"),
             (id_col, "ascending")],
        )
        nv = s["n"].to_numpy(zero_copy_only=False).astype(np.int64)
        cum = nv.cumsum()
        base = np.where(starts > 0, cum[np.maximum(starts - 1, 0)], 0)
        bkt_at = s["bucket"].take(pa.array(starts, pa.int64())).to_pylist()
        off_seg = np.fromiter(
            (offs[int(b)] for b in bkt_at), dtype=np.int64,
            count=len(starts),
        )
        # exclusive prefix = inclusive cumsum shifted by one row
        prefix = (cum - nv) - np.repeat(base, counts) \
            + np.repeat(off_seg, counts)
        return pa.table(
            {
                id_col: pc.cast(s[id_col], pa.int64()),
                "pack_id": pa.array(prefix // budget, pa.int64()),
            }
        )

    # one row per doc — returned as a DATASET so the packing plan can be
    # written straight to parquet without ever landing on the driver
    return keyed_ds.repartition(
        num_blocks=num_partitions, keys=["bucket"]
    ).map_batches(pack_local, batch_format="pyarrow", batch_size=None)


SQL_PACK_DOCUMENTS = """
WITH t AS (SELECT doc_id, md5(text) AS h, {n_tokens} AS n FROM documents)
SELECT doc_id,
       CAST(floor(COALESCE(sum(n) OVER (ORDER BY h, doc_id
                   ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0)
                  / {budget}) AS BIGINT) AS pack_id
FROM t ORDER BY doc_id
"""


def token_count_quantiles(
    ds: Dataset, qs=(0.5, 0.9, 0.99), text_col: str = "text",
    num_partitions: int = 2,
):
    """EXACT quantiles of the per-doc token-count distribution via a
    distributed histogram: per-batch (n_tokens → count) combiners, one
    small groupby, then a driver walk over the (bounded) distinct-value
    histogram. quantile_disc semantics: element at 0-based rank
    ceil(q·n)−1 of the sorted multiset — DuckDB's discrete-quantile rank
    rule, verified empirically across n and q (test_corpus_stats;
    the earlier floor((n−1)·q) formula coincides at the corpus sizes the
    oracle runs at but diverges for e.g. n=71, q=0.99)."""
    import pandas as pd

    from .textstats import flat_tokens, sql_n_tokens  # noqa: F401 (sql used by oracle)

    configure_data_context()

    def partial(batch: pa.Table) -> pa.Table:
        counts = pa.array(flat_tokens(batch[text_col])[0], pa.int64())
        agg = pa.table({"n_tokens": counts}).group_by("n_tokens").aggregate(
            [([], "count_all")]
        )
        return agg.rename_columns(["n_tokens", "n_docs"])

    from ray.data.aggregate import Sum

    hist = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("n_tokens", num_partitions=num_partitions)
        .aggregate(Sum("n_docs", alias_name="n_docs"))
        .to_pandas()
        .sort_values("n_tokens")
        .reset_index(drop=True)
    )
    # the quantile_disc rank rule lives ONCE, in outliers.quantile_disc_walk
    from .outliers import quantile_disc_walk

    walked = quantile_disc_walk(
        hist.n_tokens.to_numpy(), hist.n_docs.to_numpy(), qs
    )
    return pd.DataFrame([{f"p{int(q * 100)}": v for q, v in walked.items()}])
