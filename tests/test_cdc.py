"""Content-defined chunking: tiling/size invariants, shift robustness,
planted-duplicate recall, partition invariance; plus the percentile
outlier trim vs DuckDB."""

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

import ray.data

from ocr_sam_project_ray.ops.cdc import (
    CDC_MAX, CDC_MIN, cdc_chunk_stats, chunk_spans, doc_chunk_rows,
)
from ocr_sam_project_ray.ops.outliers import (
    SQL_TRIM_DOCS_BY_LENGTH, column_quantiles, trim_docs_by_length,
    trim_outliers,
)

SF = "/root/testdata/sf0.001"


def _lorem(seed: int, n_words: int = 400) -> str:
    rng = np.random.default_rng(seed)
    vocab = [f"w{i:03d}" for i in range(200)]
    return " ".join(rng.choice(vocab, size=n_words))


# ---------- CDC kernel invariants ----------

def test_spans_tile_and_respect_bounds():
    text = _lorem(1)
    n = len(text.encode("utf-8"))
    spans = chunk_spans(text)
    assert spans[0][0] == 0 and spans[-1][1] == n
    for (s0, e0), (s1, e1) in zip(spans, spans[1:]):
        assert e0 == s1  # exact tiling, no gaps/overlaps
    for s, e in spans[:-1]:
        assert CDC_MIN <= e - s <= CDC_MAX
    assert spans[-1][1] - spans[-1][0] <= CDC_MAX


def test_spans_deterministic_and_edge_cases():
    text = _lorem(2)
    assert chunk_spans(text) == chunk_spans(text)
    assert chunk_spans("") == []
    assert chunk_spans(None) == []
    tiny = chunk_spans("ab")
    assert tiny == [(0, 2)]


def test_shift_robustness():
    base = _lorem(3, n_words=600)
    shifted = "inserted preamble sentence here. " + base
    h0 = set(doc_chunk_rows(base, 0)[0])
    h1 = set(doc_chunk_rows(shifted, 1)[0])
    common = len(h0 & h1) / len(h0)
    # fixed-size chunking would give ~0 here; CDC resyncs after the edit
    assert common >= 0.5, f"only {common:.2f} of chunks survived a prefix edit"


def test_planted_duplicate_recall():
    a, b = _lorem(4), _lorem(5)
    docs = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([1, 2, 3], pa.int64()),
                "text": [a, a, b],  # doc 2 is an exact copy of doc 1
            }
        )
    ).repartition(3)
    out = cdc_chunk_stats(docs).to_pandas().set_index("doc_id")
    assert out.loc[2, "n_dup_chunks"] == out.loc[2, "n_chunks"]
    assert out.loc[2, "dup_ratio_ppm"] == 1_000_000
    assert out.loc[1, "n_dup_chunks"] == 0  # keep-first: doc 1 is original
    assert out.loc[3, "n_dup_chunks"] == 0


def test_partition_invariance():
    texts = [_lorem(i) for i in range(6)]
    t = pa.table(
        {
            "doc_id": pa.array(range(6), pa.int64()),
            "text": texts,
        }
    )
    a = (
        cdc_chunk_stats(ray.data.from_arrow(t).repartition(1))
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    b = (
        cdc_chunk_stats(ray.data.from_arrow(t).repartition(5),
                        num_partitions=3)
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(a, b)


# ---------- percentile outlier trim ----------

def test_column_quantiles_match_duckdb():
    docs = ray.data.read_parquet(f"{SF}/documents.parquet")
    got = column_quantiles(docs, "n_chars", (0.05, 0.5, 0.95))
    exp = duckdb.sql(
        f"""SELECT quantile_disc(n_chars, 0.05) q05,
                   quantile_disc(n_chars, 0.5) q50,
                   quantile_disc(n_chars, 0.95) q95
            FROM read_parquet('{SF}/documents.parquet')"""
    ).fetchone()
    assert (got[0.05], got[0.5], got[0.95]) == exp


def test_trim_docs_matches_duckdb():
    got = (
        trim_docs_by_length(SF)
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    con = duckdb.connect()
    con.sql(
        f"CREATE VIEW documents AS SELECT * FROM "
        f"read_parquet('{SF}/documents.parquet')"
    )
    exp = con.sql(SQL_TRIM_DOCS_BY_LENGTH).df()
    for c in exp.columns:
        exp[c] = exp[c].astype("int64")
    pd.testing.assert_frame_equal(got[exp.columns.tolist()], exp)


def test_trim_reports_thresholds():
    docs = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(range(100), pa.int64()),
                "n": pa.array(list(range(100)), pa.int64()),
            }
        )
    ).repartition(4)
    kept, thr = trim_outliers(docs, "n", 0.10, 0.90)
    df = kept.to_pandas()
    assert thr["lo"] == 9 and thr["hi"] == 89  # ceil(q*100)-1 rank rule
    assert df["n"].min() == 9 and df["n"].max() == 89
    assert len(df) == 81
