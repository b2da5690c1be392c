"""Per-label embedding centroids — the class-prototype computation used
to seed clustering (ops/kmeans), initialize nearest-centroid
classifiers, and audit embedding drift between corpus snapshots.

Exact cross-engine contract: float mean is reduction-order-dependent,
so the op sums QUANTIZED components — ppm integers, round-half-away-
from-zero like DuckDB round(), the ``CAST(round(x*1e6) AS BIGINT)``
analogue of the engine-wide ``CAST(round(x*100) AS BIGINT)`` integer-
cents contract — and returns the integer sums plus counts instead
of dividing (the caller divides at whatever precision it wants; the
oracle hash stays exact regardless of partition order). Output rows =
|labels| × dim — bounded by contract, independent of corpus size.

Scale shape: one column-pruned streaming pass; per-batch numpy fold to
a (labels-in-batch × dim) partial grid; ONE small groupby over
(label, dim) rows. No driver traffic beyond the final bounded result.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray.data
from ray.data import Dataset

from ..context import configure_data_context

PPM = 1_000_000


def _quantize_ppm(m: np.ndarray) -> np.ndarray:
    """round(v*1e6) half-away-from-zero (DuckDB round()) as int64 —
    via the EXACT kernel (ops/quantize.np_round_half_away): the old
    floor(x+0.5) trick rounds UP at x = nextafter(n+0.5, 0) where
    round() gives n, a live oracle divergence class."""
    from .quantize import np_round_half_away

    return np_round_half_away(m.astype(np.float64) * PPM).astype(np.int64)


def label_centroids(
    ds: Dataset,
    label_col: str = "label",
    vec_col: str = "embedding",
    num_partitions: int = 2,
) -> Dataset:
    """(label, dim, sum_ppm, n_vecs) per label and vector dimension —
    centroid component = sum_ppm / (n_vecs * 1e6)."""
    configure_data_context()

    def partial(batch: pa.Table) -> pa.Table:
        labels = np.asarray(batch[label_col].to_pylist(), dtype=np.int64)
        vecs = np.asarray(batch[vec_col].to_pylist(), dtype=np.float64)
        if vecs.ndim != 2 or len(labels) == 0:
            return pa.table(
                {
                    "label": pa.array([], pa.int64()),
                    "dim": pa.array([], pa.int64()),
                    "sum_ppm": pa.array([], pa.int64()),
                    "n_vecs": pa.array([], pa.int64()),
                }
            )
        q = _quantize_ppm(vecs)                      # (n, d) int64
        uniq, inv = np.unique(labels, return_inverse=True)
        d = q.shape[1]
        sums = np.zeros((len(uniq), d), dtype=np.int64)
        np.add.at(sums, inv, q)
        counts = np.bincount(inv, minlength=len(uniq)).astype(np.int64)
        lab = np.repeat(uniq, d)
        dim = np.tile(np.arange(d, dtype=np.int64), len(uniq))
        return pa.table(
            {
                "label": pa.array(lab, pa.int64()),
                "dim": pa.array(dim, pa.int64()),
                "sum_ppm": pa.array(sums.ravel(), pa.int64()),
                "n_vecs": pa.array(np.repeat(counts, d), pa.int64()),
            }
        )

    from ray.data.aggregate import Sum

    return (
        ds.select_columns([label_col, vec_col])
        .map_batches(partial, batch_format="pyarrow")
        .groupby(["label", "dim"], num_partitions=num_partitions)
        .aggregate(
            Sum("sum_ppm", alias_name="sum_ppm"),
            Sum("n_vecs", alias_name="n_vecs"),
        )
    )


SQL_LABEL_CENTROIDS = """
WITH e AS (
  SELECT CAST(label AS BIGINT) AS label,
         CAST(embedding AS DOUBLE[]) AS emb
  FROM embeddings
),
comp AS (
  -- parallel unnest: range(len(emb)) and emb align positionally
  SELECT label,
         CAST(unnest(range(len(emb))) AS BIGINT) AS dim,
         CAST(round(unnest(emb) * 1000000) AS BIGINT) AS ppm
  FROM e
)
SELECT label, dim,
       CAST(sum(ppm) AS BIGINT) AS sum_ppm,
       CAST(count(*) AS BIGINT) AS n_vecs
FROM comp GROUP BY label, dim ORDER BY label, dim
"""
