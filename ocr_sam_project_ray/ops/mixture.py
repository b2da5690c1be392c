"""Token-budget mixture sampling — the data-mixing step that assembles a
pretraining corpus from per-domain token budgets (the mixture-weights
machinery behind Pile/DoReMi-style recipes: "x billion tokens of web, y of
code, z of books"). Given per-source token budgets, admit documents in a
DETERMINISTIC content-hash order (reproducible across engines, runs and
partitionings — the same trick as textstats.sample_by_content_hash) until
each source's budget is exhausted.

Contract (what the SQL oracle recomputes): per source, order docs by
(md5(text), doc_id); keep a doc iff its INCLUSIVE running token total is
<= the source's budget; emit (doc_id, source, n_tokens, cum_tokens).
Token model = the engine-wide contract (textstats.tokenize). All integer.

Scale shape — the distributed prefix-sum pattern (cf. corpus_stats.
pack_documents), partitioned by source:
  1. one keyed pass computes (source, bucket = first md5 byte, n_tokens);
  2. one SMALL groupby yields per-(source, bucket) token totals; the
     driver folds them into exclusive offsets (bounded state:
     n_sources x 256 rows) and broadcasts the dict once;
  3. groupby((source, bucket)).map_groups sorts each bucket by (hash, id),
     adds the bucket offset to a local inclusive cumsum, and keeps rows
     within budget. Buckets whose offset already exceeds their source's
     budget emit nothing (and a real deployment can prune them before the
     shuffle — the offsets are on the driver).
Partitioning assumption (documented, as for pack_documents /
sessionization): one (source, bucket) cell fits one group — cells are
1/256 of one source; widen to two hash bytes for larger corpora.

The reference has no sampling or corpus-assembly stage (SURVEY §2.6);
this op is part of the engine's beyond-reference training-data surface.
"""

from __future__ import annotations

import hashlib
from typing import Mapping

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
from ray.data import Dataset

from ..context import configure_data_context
from .textstats import flat_tokens


def mixture_sample(
    ds: Dataset,
    budgets: Mapping[str, int],
    id_col: str = "doc_id",
    text_col: str = "text",
    source_col: str = "source",
    num_partitions: int = 4,
) -> Dataset:
    """Select docs per source up to its token budget, in deterministic
    content-hash order → Dataset(id_col, source, n_tokens, cum_tokens).
    Sources absent from ``budgets`` are excluded entirely."""
    configure_data_context()
    budgets = dict(budgets)

    def keyed(batch: pa.Table) -> pa.Table:
        texts = batch[text_col].to_pylist()
        hs = [hashlib.md5((t or "").encode("utf-8")).hexdigest() for t in texts]
        return pa.table(
            {
                id_col: batch[id_col],
                "source": batch[source_col],
                "h": pa.array(hs, pa.string()),
                "bucket": pa.array([int(h[:2], 16) for h in hs], pa.int64()),
                "n_tokens": pa.array(
                    flat_tokens(batch[text_col])[0], pa.int64()
                ),
            }
        )

    # materialize once: the totals pass and the select pass both consume it
    keyed_ds = ds.map_batches(keyed, batch_format="pyarrow").materialize()

    from ray.data.aggregate import Sum

    totals = (
        keyed_ds.groupby(["source", "bucket"], num_partitions=2)
        .aggregate(Sum("n_tokens", alias_name="total"))
        .to_pandas()  # bounded: n_sources x 256 rows
        .sort_values(["source", "bucket"])
    )
    offsets: dict[tuple[str, int], int] = {}
    run_by_source: dict[str, int] = {}
    for _, row in totals.iterrows():
        src = row.source
        offsets[(src, int(row.bucket))] = run_by_source.get(src, 0)
        run_by_source[src] = run_by_source.get(src, 0) + int(row.total)
    offsets_ref = ray.put(offsets)
    budgets_ref = ray.put(budgets)

    from .segmented import sorted_segments_multi

    def select_local(batch: pa.Table) -> pa.Table:
        """Arrow-native segmented kernel (round 4): all (source, bucket)
        cells of the partition in one pass — cell-local running totals
        from one global cumsum plus the broadcast cell offsets."""
        id_type = batch.schema.field(id_col).type
        empty = pa.table(
            {id_col: pa.array([], id_type),
             "source": pa.array([], pa.string()),
             "n_tokens": pa.array([], pa.int64()),
             "cum_tokens": pa.array([], pa.int64())}
        )
        if batch.num_rows == 0:
            return empty
        offs = ray.get(offsets_ref)
        buds = ray.get(budgets_ref)
        s, starts, counts = sorted_segments_multi(
            batch, ["source", "bucket"],
            [("h", "ascending"), (id_col, "ascending")],
        )
        n = s.num_rows
        tok = s["n_tokens"].to_numpy(zero_copy_only=False).astype(np.int64)
        cum = tok.cumsum()
        src_at = s["source"].take(pa.array(starts, pa.int64())).to_pylist()
        bkt_at = s["bucket"].take(pa.array(starts, pa.int64())).to_pylist()
        # per-segment scalars (bounded: n_sources x 256 cells/partition)
        off_seg = np.fromiter(
            (offs[(sv, int(bv))] for sv, bv in zip(src_at, bkt_at)),
            dtype=np.int64, count=len(starts),
        )
        bud_seg = np.fromiter(
            (buds.get(sv, -1) for sv in src_at),
            dtype=np.int64, count=len(starts),
        )
        base = np.where(starts > 0, cum[np.maximum(starts - 1, 0)], 0)
        within = cum - np.repeat(base, counts) + np.repeat(off_seg, counts)
        keep = within <= np.repeat(bud_seg, counts)  # budget -1 keeps none
        kept = s.filter(pa.array(keep))
        return pa.table(
            {
                id_col: kept[id_col],
                "source": kept["source"],
                "n_tokens": pc.cast(kept["n_tokens"], pa.int64()),
                "cum_tokens": pa.array(within[keep], pa.int64()),
            }
        )

    return keyed_ds.repartition(
        num_blocks=num_partitions, keys=["source", "bucket"]
    ).map_batches(select_local, batch_format="pyarrow", batch_size=None)


def sql_mixture_sample(
    budgets: Mapping[str, int], table: str = "documents",
    id_col: str = "doc_id", text_col: str = "text", source_col: str = "source",
) -> str:
    """Render the DuckDB recompute for the same budgets dict — window
    cumsum over (PARTITION BY source ORDER BY md5(text), id)."""
    values = ", ".join(
        f"('{s}', {int(b)})" for s, b in sorted(budgets.items())
    )
    return f"""
        WITH t AS (
          SELECT {id_col}, {source_col} AS source,
                 CAST(CASE WHEN trim(coalesce({text_col}, '')) = '' THEN 0
                      ELSE len(string_split_regex(trim({text_col}), '\\s+'))
                      END AS BIGINT) AS n_tokens,
                 md5(coalesce({text_col}, '')) AS h
          FROM {table}
        ),
        b(source, budget) AS (VALUES {values}),
        c AS (
          SELECT t.{id_col}, t.source, t.n_tokens, b.budget,
                 SUM(t.n_tokens) OVER (
                   PARTITION BY t.source ORDER BY t.h, t.{id_col}
                   ROWS UNBOUNDED PRECEDING) AS cum
          FROM t JOIN b USING (source)
        )
        SELECT {id_col}, source, n_tokens, CAST(cum AS BIGINT) AS cum_tokens
        FROM c WHERE cum <= budget
    """


# --------------------------------------------------------------------------
# Temperature-balanced mixture — budgets derived from corpus composition
# --------------------------------------------------------------------------

ISQRT_MAX = 1 << 52          # floor(sqrt(double)) is within ±1 below this
BUDGET_PRODUCT_MAX = 1 << 62


def temperature_budgets(
    ds: Dataset,
    total_tokens: int,
    text_col: str = "text",
    source_col: str = "source",
) -> dict:
    """Per-source token budgets ∝ size^(1/2) — the α-temperature source
    balancing of multilingual/multi-domain recipes (Pile/mT5/XGLM
    shape: small sources upsampled relative to proportional mixing,
    large sources capped) at the one α whose weights stay EXACT
    integers: ``w_s = isqrt(T_s)`` (math.isqrt — no float sqrt), then
    ``budget_s = (total_tokens * w_s) // Σw`` (floor division). The SQL
    twin recomputes isqrt exactly as floor(sqrt(double)) plus a ±1
    correction, valid for totals < 2^52 (guarded loudly here).

    One streaming pass: per-batch (source, n_tokens) Arrow combiner →
    one bounded groupby (n_sources rows on the driver)."""
    from ray.data.aggregate import Sum

    configure_data_context()

    def partial(batch: pa.Table) -> pa.Table:
        t = pa.table({
            "source": batch[source_col],
            "n_tokens": pa.array(flat_tokens(batch[text_col])[0], pa.int64()),
        })
        agg = t.group_by(["source"]).aggregate([("n_tokens", "sum")])
        return agg.rename_columns(["source", "n_tokens"])

    totals = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("source", num_partitions=2)
        .aggregate(Sum("n_tokens", alias_name="total"))
        .to_pandas()  # bounded: one row per source
    )
    import math

    weights = {}
    for _, row in totals.iterrows():
        t = int(row.total)
        if t >= ISQRT_MAX:
            raise ValueError(
                f"temperature_budgets: source {row.source!r} total {t} "
                f">= 2^52 — the SQL isqrt correction bound; shard the "
                f"source or raise the contract"
            )
        weights[row.source] = math.isqrt(t)
    wsum = sum(weights.values())
    if wsum == 0:
        return {s: 0 for s in weights}
    if total_tokens * max(weights.values()) >= BUDGET_PRODUCT_MAX:
        raise ValueError("temperature_budgets: total_tokens x weight "
                         "overflows the exact integer contract")
    return {s: (total_tokens * w) // wsum for s, w in weights.items()}


def temperature_mixture_sample(
    ds: Dataset,
    total_tokens: int,
    id_col: str = "doc_id",
    text_col: str = "text",
    source_col: str = "source",
    num_partitions: int = 4,
) -> Dataset:
    """Derive α=1/2 temperature budgets from the corpus itself, then
    admit docs per source in deterministic content-hash order until
    each budget is exhausted (the mixture_sample machinery). End to end
    integer-exact, so the DuckDB oracle recomputes composition →
    weights → budgets → selection in one statement."""
    budgets = temperature_budgets(ds, total_tokens, text_col, source_col)
    return mixture_sample(ds, budgets, id_col, text_col, source_col,
                          num_partitions)


def sql_temperature_mixture(
    total_tokens: int, table: str = "documents",
    id_col: str = "doc_id", text_col: str = "text",
    source_col: str = "source",
) -> str:
    """DuckDB recompute of the full temperature chain. isqrt is exact:
    s0 = floor(sqrt(x)) is within ±1 of isqrt(x) for x < 2^52, so one
    two-sided correction pins it."""
    n_tok = (f"CAST(CASE WHEN trim(coalesce({text_col}, '')) = '' THEN 0 "
             f"ELSE len(string_split_regex(trim({text_col}), '\\s+')) "
             f"END AS BIGINT)")
    return f"""
        WITH t AS (
          SELECT {id_col}, {source_col} AS source, {n_tok} AS n_tokens,
                 md5(coalesce({text_col}, '')) AS h
          FROM {table}
        ),
        comp AS (
          SELECT source, CAST(sum(n_tokens) AS BIGINT) AS total
          FROM t GROUP BY source
        ),
        s0 AS (
          SELECT source, total,
                 CAST(floor(sqrt(CAST(total AS DOUBLE))) AS BIGINT) AS r
          FROM comp
        ),
        w AS (
          SELECT source,
                 r + CASE WHEN (r+1)*(r+1) <= total THEN 1
                          WHEN r*r > total THEN -1 ELSE 0 END AS wgt
          FROM s0
        ),
        b AS (
          SELECT source,
                 coalesce(({int(total_tokens)} * wgt)
                   // nullif((SELECT sum(wgt) FROM w), 0), 0) AS budget
          FROM w
        ),
        c AS (
          SELECT t.{id_col}, t.source, t.n_tokens, b.budget,
                 SUM(t.n_tokens) OVER (
                   PARTITION BY t.source ORDER BY t.h, t.{id_col}
                   ROWS UNBOUNDED PRECEDING) AS cum
          FROM t JOIN b USING (source)
        )
        SELECT {id_col}, source, n_tokens, CAST(cum AS BIGINT) AS cum_tokens
        FROM c WHERE cum <= budget
    """
