"""Corpus statistics operators vs hand-computed and DuckDB-recomputed
expectations; plus the percentile outlier trim vs DuckDB."""

import duckdb
import pandas as pd
import pyarrow as pa

import ray.data

from ocr_sam_project_ray.ops.corpus_stats import (
    host_stats, token_count_quantiles, token_df,
)
from ocr_sam_project_ray.ops.outliers import (
    SQL_TRIM_DOCS_BY_LENGTH, column_quantiles, trim_docs_by_length,
    trim_outliers,
)

SF = "/root/testdata/sf0.001"


def test_token_df_hand_case():
    docs = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
                "text": ["a b a", "b c", "", "   "],
            }
        )
    ).repartition(3)
    out = token_df(docs, num_partitions=2).to_pandas().set_index("token")
    assert out.loc["a"].df == 1 and out.loc["a"].tf == 2
    assert out.loc["b"].df == 2 and out.loc["b"].tf == 2
    assert out.loc["c"].df == 1 and out.loc["c"].tf == 1
    assert len(out) == 3  # empty/whitespace docs contribute nothing


def test_token_df_matches_duckdb():
    docs_path = f"{SF}/documents.parquet"
    got = (
        token_df(ray.data.read_parquet(docs_path), num_partitions=4)
        .to_pandas()
        .sort_values("token")
        .reset_index(drop=True)
    )
    exp = duckdb.sql(
        f"""
        WITH toks AS (
          SELECT doc_id, unnest(string_split_regex(trim(text), '\\s+')) AS token
          FROM read_parquet('{docs_path}') WHERE trim(text) <> ''
        )
        SELECT token, CAST(count(DISTINCT doc_id) AS BIGINT) AS df,
               CAST(count(*) AS BIGINT) AS tf
        FROM toks GROUP BY token ORDER BY token
        """
    ).df()
    assert got.token.tolist() == exp.token.tolist()
    assert got.df.tolist() == exp.df.tolist()
    assert got.tf.tolist() == exp.tf.tolist()


def test_host_stats_counts():
    from ocr_sam_project_ray.sources.synthetic import ensure_corpus

    paths = ensure_corpus(SF)
    got = host_stats(paths["pages"])
    assert (got.n_pages >= got.n_urls).all()  # dup urls collapse in n_urls
    assert got.host.str.match(r"^portal\d+\.example\.pa$").all()
    import pyarrow.dataset as pads

    t = pads.dataset(paths["pages"], format="parquet").to_table(columns=["url"])
    assert got.n_pages.sum() == t.num_rows
    assert got.n_urls.sum() == len(set(t["url"].to_pylist()))


def test_quantiles_hand_case_and_duckdb_parity():
    texts = [" ".join(["w"] * n) for n in [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]]
    docs = ray.data.from_arrow(
        pa.table({"doc_id": pa.array(range(10), pa.int64()), "text": texts})
    ).repartition(3)
    out = token_count_quantiles(docs, qs=(0.5, 0.9))
    # quantile_disc: element at floor((n-1)q) of the sorted multiset
    assert out.p50.iloc[0] == 5 and out.p90.iloc[0] == 9
    exp = duckdb.sql(
        "SELECT quantile_disc(x, 0.5) AS p50, quantile_disc(x, 0.9) AS p90 "
        "FROM (SELECT unnest([1,2,3,4,5,6,7,8,9,10]) AS x)"
    ).df()
    assert out.p50.iloc[0] == exp.p50.iloc[0]
    assert out.p90.iloc[0] == exp.p90.iloc[0]



def test_duckdb_rank_rule_is_ceil_qn_minus_1():
    # pin the contract: quantile_disc rank (0-based) = ceil(q*n) - 1
    import math

    con = duckdb.connect()
    for n in (4, 5, 10, 71, 100, 333):
        vals = list(range(1, n + 1))
        for q in (0.5, 0.9, 0.99):
            duck = con.execute(
                "SELECT quantile_disc(v, ?) FROM (SELECT unnest(?) AS v)",
                [q, vals],
            ).fetchone()[0]
            assert duck == vals[max(0, math.ceil(q * n) - 1)], (n, q)


def test_pack_documents_matches_duckdb():
    from ocr_sam_project_ray.ops.corpus_stats import (
        SQL_PACK_DOCUMENTS, pack_documents,
    )
    from ocr_sam_project_ray.ops.textstats import sql_n_tokens

    docs_path = f"{SF}/documents.parquet"
    got = pack_documents(
        ray.data.read_parquet(docs_path), budget=512
    ).to_pandas().sort_values("doc_id").reset_index(drop=True)
    sql = SQL_PACK_DOCUMENTS.format(n_tokens=sql_n_tokens("text"), budget=512)
    exp = duckdb.sql(
        sql.replace("FROM documents", f"FROM read_parquet('{docs_path}')")
    ).df()
    assert got.doc_id.tolist() == exp.doc_id.tolist()
    assert got.pack_id.tolist() == exp.pack_id.tolist()
    # packing invariants: ids start at 0, are contiguous, and every pack
    # except possibly the last holds <= budget + one overflowing doc
    assert got.pack_id.min() == 0
    assert set(got.pack_id) == set(range(got.pack_id.max() + 1))


def test_pack_documents_partition_invariant():
    """The deterministic shuffle must be independent of input block
    layout: different repartitioning, identical pack assignment."""
    from ocr_sam_project_ray.ops.corpus_stats import pack_documents

    docs_path = f"{SF}/documents.parquet"
    a = pack_documents(
        ray.data.read_parquet(docs_path), budget=256
    ).to_pandas().sort_values("doc_id").reset_index(drop=True)
    b = pack_documents(
        ray.data.read_parquet(docs_path).repartition(7), budget=256
    ).to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert a.pack_id.tolist() == b.pack_id.tolist()


def test_pack_documents_streams_to_parquet(tmp_path):
    """pack_documents returns a streaming Dataset: end-to-end to parquet
    with NO driver materialization, and the written plan equals the
    collected one."""
    from ocr_sam_project_ray.ops.corpus_stats import pack_documents

    docs_path = f"{SF}/documents.parquet"
    out_dir = str(tmp_path / "packs")
    ds = pack_documents(ray.data.read_parquet(docs_path), budget=512)
    import ray.data as rd

    assert isinstance(ds, rd.Dataset)
    ds.write_parquet(out_dir)
    import duckdb as dd

    written = dd.sql(
        f"SELECT doc_id, pack_id FROM read_parquet('{out_dir}/*.parquet') "
        "ORDER BY doc_id"
    ).df()
    collected = pack_documents(
        ray.data.read_parquet(docs_path), budget=512
    ).to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert written.pack_id.tolist() == collected.pack_id.tolist()


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
