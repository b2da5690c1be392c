import duckdb
import pyarrow as pa

import ray.data

from ocr_sam_project_ray.ops.invindex import (
    build_inverted_index, conjunctive_query, lookup_postings,
    sql_inverted_index,
)

SF = "/root/testdata/sf0.001"


def _small():
    texts = ["the cat sat", "the dog ran", "cat and dog", "the the the", ""]
    return ray.data.from_arrow(
        pa.table(
            {"doc_id": pa.array(range(5), pa.int64()),
             "text": pa.array(texts, pa.string())}
        )
    )


def test_index_small_corpus():
    idx = build_inverted_index(_small(), num_partitions=2).to_pandas()
    got = {r.token: list(r.postings) for r in idx.itertuples()}
    assert got["the"] == [0, 1, 3]
    assert got["cat"] == [0, 2]
    assert got["dog"] == [1, 2]
    assert got["and"] == [2]
    df = {r.token: r.df for r in idx.itertuples()}
    assert df["the"] == 3  # distinct docs, not occurrences
    # no duplicate token rows (group completeness across the shuffle)
    assert idx.token.is_unique


def test_index_matches_duckdb_oracle():
    ds = ray.data.read_parquet(f"{SF}/documents.parquet",
                               columns=["doc_id", "text"])
    got = (
        build_inverted_index(ds, num_partitions=4)
        .to_pandas().sort_values("token").reset_index(drop=True)
    )
    got["postings"] = got["postings"].map(list)
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM "
        f"read_parquet('{SF}/documents.parquet')"
    )
    want = con.execute(sql_inverted_index()).df()
    want["postings"] = want["postings"].map(list)
    assert list(got.columns) == list(want.columns)
    assert got.values.tolist() == want.values.tolist()


def test_max_postings_cap_is_visible():
    idx = build_inverted_index(_small(), num_partitions=2,
                               max_postings=2).to_pandas()
    the = idx[idx.token == "the"].iloc[0]
    assert the.df == 3 and list(the.postings) == [0, 1]  # df keeps truth


def test_lookup_and_conjunctive_query():
    idx = build_inverted_index(_small(), num_partitions=2)
    hits = lookup_postings(idx, ["cat", "dog"])
    assert sorted(hits["token"].to_pylist()) == ["cat", "dog"]
    assert conjunctive_query(idx, ["cat", "dog"]) == [2]
    assert conjunctive_query(idx, ["the", "cat"]) == [0]
    assert conjunctive_query(idx, ["cat", "zebra"]) == []


def test_partition_invariant():
    a = (build_inverted_index(_small(), num_partitions=2)
         .to_pandas().sort_values("token").reset_index(drop=True))
    b = (build_inverted_index(_small().repartition(4), num_partitions=3)
         .to_pandas().sort_values("token").reset_index(drop=True))
    a["postings"] = a["postings"].map(list)
    b["postings"] = b["postings"].map(list)
    assert a.values.tolist() == b.values.tolist()


# --------------------------------------------------------------------------
# phrase_search
# --------------------------------------------------------------------------

def _phrase_df(tbl, phrases):
    import pandas as pd  # noqa: F401

    from ocr_sam_project_ray.ops.invindex import phrase_search

    return (
        phrase_search(ray.data.from_arrow(tbl), phrases)
        .to_pandas().sort_values(["phrase", "doc_id"])
        .reset_index(drop=True)
    )


def test_phrase_search_hand_case():
    tbl = pa.table({
        "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
        "text": pa.array([
            "the quick brown fox",
            "a a a b",              # overlapping "a a" occurs twice
            "quick brown",          # phrase crosses nothing: matches
            "brown quick",          # right tokens, wrong order: no match
        ], pa.string()),
    })
    df = _phrase_df(tbl, ["quick brown", "a a", "quick brown fox"])
    got = {(r.doc_id, r.phrase): r.n_hits for r in df.itertuples()}
    assert got == {
        (1, "quick brown"): 1,
        (3, "quick brown"): 1,
        (2, "a a"): 2,
        (1, "quick brown fox"): 1,
    }


def test_phrase_search_empty_and_whitespace_docs():
    tbl = pa.table({
        "doc_id": pa.array([1, 2, 3], pa.int64()),
        "text": pa.array(["", "   ", "x y"], pa.string()),
    })
    df = _phrase_df(tbl, ["x y"])
    assert list(df["doc_id"]) == [3] and list(df["n_hits"]) == [1]


def test_phrase_search_matches_duckdb():
    import pandas as pd

    from ocr_sam_project_ray.ops.invindex import (
        phrase_search, sql_phrase_search,
    )

    phrases = ["table part", "agg row scan", "a a"]
    ds = ray.data.read_parquet(f"{SF}/documents.parquet",
                               columns=["doc_id", "text"])
    got = (
        phrase_search(ds, phrases)
        .to_pandas().sort_values(["phrase", "doc_id"])
        .reset_index(drop=True)
    )
    con = duckdb.connect()
    con.sql(f"CREATE VIEW documents AS SELECT * FROM "
            f"read_parquet('{SF}/documents.parquet')")
    exp = con.sql(sql_phrase_search(phrases)).df()
    got["doc_id"] = got["doc_id"].astype("int64")
    exp["doc_id"] = exp["doc_id"].astype("int64")
    exp["n_hits"] = exp["n_hits"].astype("int64")
    pd.testing.assert_frame_equal(got, exp.reset_index(drop=True))
    assert len(got) > 0


def test_phrase_search_duplicate_phrases_match_duckdb():
    """A phrase given twice (or with other whitespace) is one phrase on
    both sides: one hit row per (doc, phrase), as with the unique list."""
    import pandas as pd

    from ocr_sam_project_ray.ops.invindex import (
        phrase_search, sql_phrase_search,
    )

    phrases = ["table part", "table  part", " a a", "a a", "table part"]
    ds = ray.data.read_parquet(f"{SF}/documents.parquet",
                               columns=["doc_id", "text"])
    got = (
        phrase_search(ds, phrases)
        .to_pandas().sort_values(["phrase", "doc_id"])
        .reset_index(drop=True)
    )
    con = duckdb.connect()
    con.sql(f"CREATE VIEW documents AS SELECT * FROM "
            f"read_parquet('{SF}/documents.parquet')")
    exp = con.sql(sql_phrase_search(phrases)).df()
    unique = con.sql(sql_phrase_search(["table part", "a a"])).df()
    pd.testing.assert_frame_equal(exp, unique)
    got["doc_id"] = got["doc_id"].astype("int64")
    exp["doc_id"] = exp["doc_id"].astype("int64")
    exp["n_hits"] = exp["n_hits"].astype("int64")
    pd.testing.assert_frame_equal(got, exp.reset_index(drop=True))
    assert not got.duplicated(["doc_id", "phrase"]).any()
    assert len(got) > 0


def test_phrase_search_rejects_empty_phrase():
    import pytest

    from ocr_sam_project_ray.ops.invindex import phrase_search

    with pytest.raises(ValueError, match="empty phrase"):
        phrase_search(ray.data.range(1), ["  "])
