"""Hash-classifier quality gate (ops/hashclf.py) vs a hand-computed kernel
value and DuckDB recomputes."""

import duckdb
import pandas as pd
import pyarrow as pa

import ray
import ray.data

from ocr_sam_project_ray.ops.hashclf import (
    _scores, hashclf_score, sql_hashclf_score,
)

SF = "/root/testdata/sf0.001"


def _norm(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if str(df[c].dtype).startswith(("int", "uint")):
            df[c] = df[c].astype("int64")
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def test_hashclf_kernel_hand_case():
    # h('ab') = (2*97 + 97*31 + 98) % 1024 = (194 + 3007 + 98) % 1024
    h = (2 * 97 + ord("a") * 31 + ord("b")) % 1024
    w = (h * 2654435761) % 1997 - 998
    assert _scores(["ab ab"]).tolist() == [2 * w]
    assert _scores([""]).tolist() == [0]
    assert _scores([None]).tolist() == [0]
    assert _scores(["  "]).tolist() == [0]


def test_hashclf_matches_duckdb():
    docs = ray.data.read_parquet(f"{SF}/documents.parquet")
    got = _norm(hashclf_score(docs).to_pandas())
    con = duckdb.connect()
    con.sql(
        f"CREATE VIEW documents AS SELECT * FROM "
        f"read_parquet('{SF}/documents.parquet')"
    )
    exp = _norm(con.sql(sql_hashclf_score()).df())
    pd.testing.assert_frame_equal(got, exp)


def test_hashclf_unicode_parity():
    # character (not byte) addressing on both engines: multi-byte chars
    docs = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([1, 2], pa.int64()),
                "text": ["café naïve 中文", "é"],
            }
        )
    )
    got = _norm(hashclf_score(docs).to_pandas())
    con = duckdb.connect()
    con.sql(
        "CREATE TABLE documents AS SELECT * FROM (VALUES "
        "(1, 'café naïve 中文'), (2, 'é')"
        ") t(doc_id, text)"
    )
    exp = _norm(con.sql(sql_hashclf_score()).df())
    pd.testing.assert_frame_equal(got, exp)
