"""Global rank + NTILE without a global sort: engine↔SQL parity, NTILE
remainder semantics (N % k != 0), duplicate-key tie-break by id,
partition invariance, and the distinct-key bound guard."""

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data

from ocr_sam_project_ray.ops.ranking import (
    _ntile_of,
    global_rank_ntile,
    sql_global_rank_ntile,
)


def _docs(n=23, seed=7) -> pa.Table:
    rng = np.random.default_rng(seed)
    # heavy duplication in the key column to exercise tie-breaks
    return pa.table(
        {
            "doc_id": pa.array(np.arange(n)[::-1].copy(), pa.int64()),
            "n_chars": pa.array(rng.integers(0, 6, n), pa.int64()),
        }
    )


def _oracle(tbl: pa.Table, k: int) -> pd.DataFrame:
    con = duckdb.connect()
    con.register("documents", tbl)
    return con.execute(sql_global_rank_ntile("n_chars", k=k)).df()


def _norm(df: pd.DataFrame) -> pd.DataFrame:
    return (df[sorted(df.columns)].sort_values("doc_id")
            .reset_index(drop=True).astype("int64"))


@pytest.mark.parametrize("k", [1, 4, 10, 23, 100])
def test_matches_sql_oracle(k):
    tbl = _docs()
    got = global_rank_ntile(
        ray.data.from_arrow(tbl), "n_chars", k=k, num_partitions=3
    ).to_pandas()
    pd.testing.assert_frame_equal(_norm(got), _norm(_oracle(tbl, k)))


def test_rank_is_a_permutation_and_ties_break_by_id():
    tbl = _docs()
    got = global_rank_ntile(
        ray.data.from_arrow(tbl), "n_chars", k=5, num_partitions=2
    ).to_pandas().sort_values("rank")
    assert list(got["rank"]) == list(range(1, len(got) + 1))
    # within equal keys, rank order == id order
    for _, grp in got.groupby("n_chars"):
        assert grp["doc_id"].is_monotonic_increasing


def test_ntile_remainder_semantics():
    # N=7, k=3 -> tile sizes 3,2,2
    ranks0 = np.arange(7)
    assert list(_ntile_of(ranks0, 7, 3)) == [1, 1, 1, 2, 2, 3, 3]
    # N=6, k=3 -> 2,2,2
    assert list(_ntile_of(np.arange(6), 6, 3)) == [1, 1, 2, 2, 3, 3]
    # k > N: one row per tile, tiles 1..N used
    assert list(_ntile_of(np.arange(3), 3, 10)) == [1, 2, 3]


def test_partition_invariance():
    tbl = _docs(101, seed=3)
    a = global_rank_ntile(
        ray.data.from_arrow(tbl).repartition(1), "n_chars", k=7,
        num_partitions=1,
    ).to_pandas()
    b = global_rank_ntile(
        ray.data.from_arrow(tbl).repartition(9), "n_chars", k=7,
        num_partitions=5,
    ).to_pandas()
    pd.testing.assert_frame_equal(_norm(a), _norm(b))


def test_distinct_key_bound_guard():
    tbl = pa.table(
        {"doc_id": pa.array(range(10), pa.int64()),
         "n_chars": pa.array(range(10), pa.int64())}
    )
    with pytest.raises(ValueError, match="distinct keys"):
        global_rank_ntile(
            ray.data.from_arrow(tbl), "n_chars", max_distinct_keys=3
        )


# --------------------------------------------------------------------------
# group_percent_rank — per-group window rank, DuckDB percent_rank contract
# --------------------------------------------------------------------------

def _pr_df(tbl, **kw):
    from ocr_sam_project_ray.ops.ranking import group_percent_rank

    return (
        group_percent_rank(
            ray.data.from_arrow(tbl), group_col="g", value_col="v",
            keep_cols=("id",), **kw,
        )
        .to_pandas().sort_values("id").reset_index(drop=True)
    )


def test_group_percent_rank_hand_case():
    tbl = pa.table({
        "id": pa.array([1, 2, 3, 4, 5], pa.int64()),
        "g": pa.array(["a", "a", "a", "a", "b"], pa.string()),
        "v": pa.array([10, 20, 20, 30, 5], pa.int64()),
    })
    df = _pr_df(tbl)
    # ties share the MIN rank: both 20s get (2-1)/(4-1) = 1/3
    assert list(df["pct_rank"]) == [0.0, 1 / 3, 1 / 3, 1.0, 0.0]
    # cume_dist: peer-run END / n; single-row group -> 1.0
    assert list(df["cume_dist"]) == [0.25, 0.75, 0.75, 1.0, 1.0]


def test_group_percent_rank_matches_duckdb():
    rng = np.random.default_rng(7)
    n = 3000
    tbl = pa.table({
        "id": pa.array(range(n), pa.int64()),
        "g": pa.array([f"h{int(x)}" for x in rng.integers(0, 40, n)],
                      pa.string()),
        # heavy ties (small value domain) + one huge-span outlier group
        "v": pa.array(rng.integers(0, 25, n), pa.int64()),
    })
    got = _pr_df(tbl, num_partitions=5)
    exp = duckdb.sql("""
        SELECT id, g, v,
               percent_rank() OVER (PARTITION BY g ORDER BY v) AS pct_rank,
               cume_dist() OVER (PARTITION BY g ORDER BY v) AS cume_dist
        FROM tbl ORDER BY id
    """).df()
    got["id"] = got["id"].astype("int64")
    exp["id"] = exp["id"].astype("int64")
    pd.testing.assert_frame_equal(
        got[["id", "g", "v", "pct_rank", "cume_dist"]].astype({"v": "int64"}),
        exp.astype({"v": "int64"}),
    )
    # bit-identical, not just close
    assert (got["pct_rank"].to_numpy() == exp["pct_rank"].to_numpy()).all()
    assert (got["cume_dist"].to_numpy() == exp["cume_dist"].to_numpy()).all()


def test_group_percent_rank_partition_invariance():
    rng = np.random.default_rng(11)
    n = 500
    tbl = pa.table({
        "id": pa.array(range(n), pa.int64()),
        "g": pa.array([f"h{int(x)}" for x in rng.integers(0, 7, n)],
                      pa.string()),
        "v": pa.array(rng.integers(-1000, 1000, n), pa.int64()),
    })
    a = _pr_df(tbl, num_partitions=1)
    b = _pr_df(tbl, num_partitions=6)
    pd.testing.assert_frame_equal(a, b)


def test_group_percent_rank_null_guard():
    from ocr_sam_project_ray.ops.ranking import group_percent_rank

    tbl = pa.table({
        "id": pa.array([1, 2], pa.int64()),
        "g": pa.array(["a", "a"], pa.string()),
        "v": pa.array([1, None], pa.int64()),
    })
    with pytest.raises(Exception, match="null"):
        group_percent_rank(
            ray.data.from_arrow(tbl), group_col="g", value_col="v",
        ).to_pandas()


def test_group_percent_rank_rejects_float_values():
    """The kernel ranks on an int64 composite key; a float value column
    would truncate (1.2 and 1.7 would tie), so it is refused by name."""
    from ocr_sam_project_ray.ops.ranking import group_percent_rank

    tbl = pa.table({
        "id": pa.array([1, 2], pa.int64()),
        "g": pa.array(["a", "a"], pa.string()),
        "v": pa.array([1.2, 1.7], pa.float64()),
    })
    with pytest.raises(Exception) as err:
        group_percent_rank(
            ray.data.from_arrow(tbl), group_col="g", value_col="v",
        ).to_pandas()
    # Ray re-raises the task's error with its traceback in the message
    assert (
        "TypeError: group_percent_rank needs an integer value column; "
        "'v' is double" in str(err.value)
    )


def test_group_percent_rank_empty_input():
    from ocr_sam_project_ray.ops.ranking import group_percent_rank

    tbl = pa.table({
        "id": pa.array([], pa.int64()),
        "g": pa.array([], pa.string()),
        "v": pa.array([], pa.int64()),
    })
    out = group_percent_rank(
        ray.data.from_arrow(tbl), group_col="g", value_col="v",
        keep_cols=("id",),
    )
    assert out.count() == 0
