"""Token-budget mixture sampling: engine↔SQL parity, budget semantics,
determinism across partitionings, and source exclusion."""

import duckdb
import pandas as pd
import pyarrow as pa
import pytest
import ray.data

from ocr_sam_project_ray.ops.mixture import mixture_sample, sql_mixture_sample


def _docs(n_per_source=6, sources=("web", "code")):
    rows = {"doc_id": [], "text": [], "source": []}
    i = 0
    for s in sources:
        for k in range(n_per_source):
            rows["doc_id"].append(i)
            # 10 + k tokens each, text varies so hashes vary
            rows["text"].append(" ".join(f"{s}tok{k}w{j}" for j in range(10 + k)))
            rows["source"].append(s)
            i += 1
    # adversarial rows: empty, whitespace, NULL text (0 tokens each)
    for t in ["", "   ", None]:
        rows["doc_id"].append(i)
        rows["text"].append(t)
        rows["source"].append("web")
        i += 1
    return pa.table(rows)


def _oracle(tbl: pa.Table, budgets) -> pd.DataFrame:
    con = duckdb.connect()
    con.register("documents", tbl)
    return (
        con.execute(sql_mixture_sample(budgets)).df()
        .sort_values("doc_id").reset_index(drop=True)
    )


def _run(tbl: pa.Table, budgets, num_partitions=3) -> pd.DataFrame:
    ds = ray.data.from_arrow(tbl)
    return (
        mixture_sample(ds, budgets, num_partitions=num_partitions)
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )


@pytest.mark.parametrize("budgets", [
    {"web": 40, "code": 25},
    {"web": 0, "code": 10_000},      # zero budget vs take-everything
    {"web": 9, "code": 30},          # web below its smallest admissible doc
])
def test_matches_sql_oracle(budgets):
    tbl = _docs()
    got = _run(tbl, budgets)
    exp = _oracle(tbl, budgets)
    pd.testing.assert_frame_equal(got, exp, check_dtype=False)


def test_nothing_fits_anywhere():
    """Budgets below every doc in hash order → empty selection (an
    all-empty Ray result has no schema to sort on, so assert via count)."""
    ds = ray.data.from_arrow(_docs())
    out = mixture_sample(ds, {"web": 9, "code": 9}, num_partitions=2)
    assert out.count() == len(_oracle(_docs(), {"web": 9, "code": 9})) == 0


def test_budget_semantics():
    """Inclusive running total <= budget: admitted docs' tokens never
    exceed the budget, and the next doc in hash order would not fit."""
    tbl = _docs()
    budgets = {"web": 40, "code": 25}
    got = _run(tbl, budgets)
    for src, budget in budgets.items():
        part = got[got.source == src]
        assert part.n_tokens.sum() <= budget
        assert (part.cum_tokens <= budget).all()
    # zero-token docs (empty/NULL text) cost nothing and are admitted
    # wherever the running total stands — verified via oracle parity above


def test_source_exclusion():
    """Sources absent from the budgets dict contribute nothing."""
    tbl = _docs()
    got = _run(tbl, {"code": 10_000})
    assert set(got.source) == {"code"}
    assert len(got) == 6


@pytest.mark.parametrize("parts", [1, 2, 6])
def test_partition_invariance(parts):
    tbl = _docs()
    budgets = {"web": 55, "code": 34}
    exp = _oracle(tbl, budgets)
    got = _run(tbl, budgets, num_partitions=parts)
    pd.testing.assert_frame_equal(got, exp, check_dtype=False)


def test_deterministic_under_input_shuffle():
    """The selection depends only on content hashes, not input order."""
    tbl = _docs()
    budgets = {"web": 50, "code": 50}
    base = _run(tbl, budgets)
    # reverse the input row order
    rev = tbl.take(list(range(tbl.num_rows - 1, -1, -1)))
    again = _run(rev, budgets)
    pd.testing.assert_frame_equal(base, again)


# --------------------------------------------------------------------------
# temperature_mixture — α=1/2 budgets from corpus composition
# --------------------------------------------------------------------------

def _skewed_docs():
    """web is 16x code in tokens — temperature balancing must give code
    MORE than its proportional share."""
    rows = {"doc_id": [], "text": [], "source": []}
    i = 0
    for k in range(64):
        rows["doc_id"].append(i)
        rows["text"].append(" ".join(f"web{k}w{j}" for j in range(16)))
        rows["source"].append("web")
        i += 1
    for k in range(8):
        rows["doc_id"].append(i)
        rows["text"].append(" ".join(f"code{k}w{j}" for j in range(8)))
        rows["source"].append("code")
        i += 1
    return pa.table(rows)


def test_temperature_budgets_exact_isqrt_and_upsampling():
    import math

    from ocr_sam_project_ray.ops.mixture import temperature_budgets

    tbl = _skewed_docs()
    total_web, total_code = 64 * 16, 8 * 8          # 1024, 64
    b = temperature_budgets(ray.data.from_arrow(tbl), total_tokens=500)
    w_web, w_code = math.isqrt(total_web), math.isqrt(total_code)  # 32, 8
    assert b == {"web": 500 * w_web // 40, "code": 500 * w_code // 40}
    # α=1/2 upsamples the small source: code's budget share (1/5) far
    # exceeds its token share (1/17)
    assert b["code"] / sum(b.values()) > total_code / (total_web + total_code)


def test_temperature_mixture_matches_sql_chain():
    from ocr_sam_project_ray.ops.mixture import (
        sql_temperature_mixture, temperature_mixture_sample,
    )

    tbl = _skewed_docs()
    got = (
        temperature_mixture_sample(ray.data.from_arrow(tbl), 300,
                                   num_partitions=3)
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    con = duckdb.connect()
    con.register("documents", tbl)
    exp = (
        con.execute(sql_temperature_mixture(300)).df()
        .sort_values("doc_id").reset_index(drop=True)
    )
    for c in ("doc_id", "n_tokens", "cum_tokens"):
        got[c] = got[c].astype("int64")
        exp[c] = exp[c].astype("int64")
    pd.testing.assert_frame_equal(got, exp)
    assert len(got) > 0


def test_temperature_mixture_all_empty_corpus_matches_sql():
    """Every text empty: every weight is 0, the Python twin gives each
    source a budget of 0 and admits the zero-token docs (cum 0 <= 0); the
    SQL twin must not divide by a zero weight sum into NULL budgets."""
    from ocr_sam_project_ray.ops.mixture import (
        sql_temperature_mixture, temperature_mixture_sample,
    )

    tbl = pa.table({
        "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
        "text": pa.array(["", "  ", "", " "], pa.string()),
        "source": pa.array(["web", "web", "code", "code"], pa.string()),
    })
    got = (
        temperature_mixture_sample(ray.data.from_arrow(tbl), 300,
                                   num_partitions=2)
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    con = duckdb.connect()
    con.register("documents", tbl)
    exp = (
        con.execute(sql_temperature_mixture(300)).df()
        .sort_values("doc_id").reset_index(drop=True)
    )
    for c in ("doc_id", "n_tokens", "cum_tokens"):
        got[c] = got[c].astype("int64")
        exp[c] = exp[c].astype("int64")
    pd.testing.assert_frame_equal(got, exp)
    assert list(got["doc_id"]) == [1, 2, 3, 4]


def test_sql_isqrt_correction_is_exact():
    """The ±1-corrected floor(sqrt) must equal math.isqrt at perfect
    squares and their neighbors (where raw float sqrt flips)."""
    import math

    vals = []
    for k in (1, 2, 3, 10, 1000, 2**20, 67108864):
        sq = k * k
        vals += [sq - 1, sq, sq + 1]
    vals = sorted(set(v for v in vals if v >= 0))
    lit = ", ".join(f"({v})" for v in vals)
    df = duckdb.sql(f"""
        WITH x(total) AS (VALUES {lit}),
        s0 AS (SELECT total,
                      CAST(floor(sqrt(CAST(total AS DOUBLE))) AS BIGINT) AS r
               FROM x)
        SELECT total,
               r + CASE WHEN (r+1)*(r+1) <= total THEN 1
                        WHEN r*r > total THEN -1 ELSE 0 END AS wgt
        FROM s0 ORDER BY total
    """).df()
    for _, row in df.iterrows():
        assert int(row.wgt) == math.isqrt(int(row.total)), row


def test_temperature_guard_overflow():
    from ocr_sam_project_ray.ops.mixture import temperature_budgets

    tbl = _docs(n_per_source=2)
    with pytest.raises(ValueError, match="overflow"):
        temperature_budgets(ray.data.from_arrow(tbl), total_tokens=1 << 62)
