import duckdb
import numpy as np
import pyarrow as pa
import pytest

import ray.data

from ocr_sam_project_ray.ops.quantize import (
    Q_LEVELS, fit_maxabs_scale, knn_quantized, np_round_half_away,
    quantize_embeddings, quantize_stats, sql_knn_quantized,
    sql_quantize_stats,
)

SF = "/root/testdata/sf0.001"


def _tiny(rows):
    return ray.data.from_items(
        [{"vec_id": i, "embedding": list(map(float, v))}
         for i, v in enumerate(rows)]
    )


def test_round_half_away_matches_duckdb():
    # includes the floor(x+0.5) killer: nextafter(0.5, 0), where the
    # +0.5 rounds UP to exactly 1.0 before the floor but C/DuckDB
    # round() correctly gives 0
    adversarial = float(np.nextafter(0.5, 0))
    vals = [0.5, -0.5, 1.5, -1.5, 2.5, -2.5, 0.49, -0.49, 126.5, -126.5,
            0.0, 3.0, -3.0, adversarial, -adversarial,
            2.0 + adversarial, -(2.0 + adversarial)]
    got = np_round_half_away(np.array(vals)).tolist()
    con = duckdb.connect()
    for v, g in zip(vals, got):
        assert con.execute(f"SELECT round(CAST({v!r} AS DOUBLE))").fetchone()[
            0] == g, v


def test_fit_scale_and_zero_guard(ray_session):
    ds = _tiny([[1.0, -4.0], [2.0, 3.0]])
    assert fit_maxabs_scale(ds) == 4.0
    with pytest.raises(ValueError, match="all-zero"):
        fit_maxabs_scale(_tiny([[0.0, 0.0]]))


def test_quantize_embeddings_values(ray_session):
    ds = _tiny([[1.0, -4.0], [2.0, 3.0], [0.0, 4.0]])
    out = {r["vec_id"]: r["qemb"]
           for r in quantize_embeddings(ds, scale=4.0).take_all()}
    # q = round(x * 127 / 4): 1 -> 31.75 -> 32 ; -4 -> -127 ; 2 -> 63.5
    # -> 64 (half away) ; 3 -> 95.25 -> 95
    assert list(out[0]) == [32, -127]
    assert list(out[1]) == [64, 95]
    assert list(out[2]) == [0, 127]  # max-abs cell saturates exactly


def test_quantize_stats_matches_numpy(ray_session):
    rng = np.random.default_rng(7)
    rows = rng.normal(size=(40, 8))
    ds = _tiny(rows)
    scale = float(np.abs(rows).max())
    qm = np_round_half_away(rows * Q_LEVELS / scale).astype(np.int64)
    got = (quantize_stats(ds, scale=scale).to_pandas()
           .sort_values("vec_id").reset_index(drop=True))
    assert got["q_min"].tolist() == qm.min(axis=1).tolist()
    assert got["q_max"].tolist() == qm.max(axis=1).tolist()
    assert got["q_sum"].tolist() == qm.sum(axis=1).tolist()
    assert got["q_l1"].tolist() == np.abs(qm).sum(axis=1).tolist()
    # the corpus max-abs cell saturates at ±127 (sign depends on which
    # extreme the random draw produced)
    assert max(int(got["q_max"].max()), -int(got["q_min"].min())) == 127


def test_knn_quantized_matches_bruteforce(ray_session):
    rng = np.random.default_rng(11)
    rows = rng.normal(size=(60, 6))
    ds = _tiny(rows)
    scale = float(np.abs(rows).max())
    q = np_round_half_away(rows * Q_LEVELS / scale).astype(np.int64)
    scores = q[:3] @ q.T  # queries = vecs 0..2
    t = knn_quantized(ds, rows[:3], [0, 1, 2], k=5, scale=scale)
    got = t.to_pandas()
    for qi in range(3):
        order = sorted(range(60), key=lambda i: (-scores[qi, i], i))[:5]
        sub = got[got.qid == qi]
        assert sub["vec_id"].tolist() == order
        assert sub["score"].tolist() == [int(scores[qi, i]) for i in order]


def test_knn_quantized_tie_break(ray_session):
    # identical vectors -> identical scores -> id-ascending ties
    ds = _tiny([[1.0, 1.0]] * 6)
    t = knn_quantized(ds, np.array([[1.0, 1.0]]), [0], k=4, scale=1.0)
    assert t.to_pandas()["vec_id"].tolist() == [0, 1, 2, 3]


def test_sql_parity_on_corpus(ray_session):
    emb = ray.data.read_parquet(f"{SF}/embeddings.parquet")
    con = duckdb.connect()
    con.execute(
        "CREATE VIEW embeddings AS "
        f"SELECT * FROM read_parquet('{SF}/embeddings.parquet')")

    stats = (quantize_stats(emb).to_pandas()
             .sort_values("vec_id").reset_index(drop=True))
    o_stats = con.execute(sql_quantize_stats()).fetchdf()
    assert stats.equals(o_stats)

    df = emb.to_pandas().sort_values("vec_id")
    qm = np.asarray(list(df[df.vec_id < 20].embedding), dtype=np.float64)
    t = knn_quantized(emb, qm, list(range(20)), k=10)
    got = t.to_pandas().reset_index(drop=True)
    o_knn = con.execute(sql_knn_quantized()).fetchdf()
    assert got.equals(o_knn)


def test_pre_quantized_store_identical(ray_session):
    rng = np.random.default_rng(23)
    rows = rng.normal(size=(80, 6))
    ds = _tiny(rows)
    scale = float(np.abs(rows).max())
    store = quantize_embeddings(ds, scale=scale)
    fly = knn_quantized(ds, rows[:4], [0, 1, 2, 3], k=6, scale=scale)
    stored = knn_quantized(
        store, rows[:4], [0, 1, 2, 3], k=6, scale=scale,
        emb_col="qemb", pre_quantized=True)
    assert fly.to_pandas().equals(stored.to_pandas())
    with pytest.raises(ValueError, match="persisted scale"):
        knn_quantized(store, rows[:4], [0, 1, 2, 3],
                      emb_col="qemb", pre_quantized=True)


def test_quantize_store_refuses_out_of_range(ray_session):
    # stale persisted scale + new larger vector: the int8 cast would
    # WRAP (2.0 under scale 1.0 -> 254 -> -2); must refuse loudly
    ds = _tiny([[2.0, 0.5]])
    with pytest.raises(Exception, match="exceeds the quantization scale"):
        quantize_embeddings(ds, scale=1.0).take_all()


def test_topk_tied_idx_matches_full_lexsort():
    from ocr_sam_project_ray.ops.embed import topk_tied_idx
    rng = np.random.default_rng(3)
    for _ in range(200):
        n = int(rng.integers(1, 50))
        scores = rng.integers(0, 5, size=n).astype(np.float64)
        ids = rng.permutation(n).astype(np.int64)
        kk = int(rng.integers(1, n + 1))
        got = topk_tied_idx(scores, ids, kk)
        ref = np.lexsort((ids, -scores))[:kk]
        assert got.tolist() == ref.tolist()


def test_round_half_away_fuzz_vs_duckdb():
    # the shared exact kernel backs quantize and
    # _quantize_ppm — fuzz it against DuckDB round() including the
    # adversarial near-half grid the floor(x+0.5) trick fails on
    rng = np.random.default_rng(99)
    vals = list(rng.normal(scale=50.0, size=300))
    vals += [float(np.nextafter(n + 0.5, n)) for n in range(-5, 6)]
    vals += [float(np.nextafter(n + 0.5, n + 1)) for n in range(-5, 6)]
    got = np_round_half_away(np.array(vals))
    con = duckdb.connect()
    con.register("v", pa.table({"x": pa.array(vals, pa.float64())}))
    exp = [r[0] for r in
           con.execute("SELECT round(x) FROM v").fetchall()]
    assert got.tolist() == exp
