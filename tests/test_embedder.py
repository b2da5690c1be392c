"""Text→embedding actor-pool stage (stages/embedder.py): kernel vs a
slow per-token reference, zero-token / degenerate-token paths, the
DuckDB oracle contract and actor-pool schema."""

import duckdb
import numpy as np
import pyarrow as pa
import pytest
import ray.data

from ocr_sam_project_ray.ops.textstats import tokenize
from ocr_sam_project_ray.stages.embedder import (
    EMBED_DIM,
    HASH_MOD,
    HASH_MULT,
    HASH_SHIFT,
    Embedder,
    embed_documents,
    hash_embed_batch,
    sql_doc_embeddings,
)


def _ref_embed(text, dim=EMBED_DIM):
    """Per-token reference implementation of the documented contract."""
    v = np.zeros(dim, dtype=np.int64)
    for tok in tokenize(text):
        hh = len(tok) * 97 + ord(tok[0]) * 31 + ord(tok[-1])
        v[hh % dim] += (hh * HASH_MULT) % HASH_MOD - HASH_SHIFT
    return v


TEXTS = [
    "the quick brown fox jumps over the lazy dog",
    "  leading and   trailing   whitespace  ",
    "",
    None,
    "unicode: café naïve Ñandú 日本語 emoji 🙂 end",
    "single",
    "repeated repeated repeated repeated",
]


def test_kernel_matches_reference():
    mat = hash_embed_batch(TEXTS)
    for i, t in enumerate(TEXTS):
        assert np.array_equal(mat[i], _ref_embed(t)), t


def test_tokenless_docs_zero_vector():
    mat = hash_embed_batch(["", None, "   "])
    assert not mat.any()
    assert mat.shape == (3, EMBED_DIM)


def test_degenerate_long_token_path():
    # one 100k-char token forces the compact O(n)-memory path; it must
    # agree with the reference (and with the fast path on short tokens)
    big = "x" * 100_000 + "y"
    texts = ["short tokens here", big + " tail"]
    mat = hash_embed_batch(texts)
    for i, t in enumerate(texts):
        assert np.array_equal(mat[i], _ref_embed(t))


def test_actor_pool_stage_schema_and_values():
    n = 700  # > batch_size so multiple batches hit the pool
    tbl = pa.table(
        {
            "doc_id": pa.array(range(n), pa.int64()),
            "text": pa.array([f"doc {i} body word{i % 13}" for i in range(n)]),
            "extra": pa.array(["dropme"] * n),
        }
    )
    out = embed_documents(
        ray.data.from_arrow(tbl), concurrency=(1, 2), batch_size=256
    )
    res = out.take_all()
    assert len(res) == n
    by_id = {r["doc_id"]: r["embedding"] for r in res}
    for i in (0, 13, n - 1):
        assert by_id[i] == _ref_embed(f"doc {i} body word{i % 13}").tolist()
    schema = out.schema()
    assert schema.names == ["doc_id", "embedding"]
    assert pa.types.is_list(schema.types[1])
    assert schema.types[1].value_type == pa.int64()


def test_unknown_and_model_backends():
    with pytest.raises(ValueError):
        Embedder(backend="nope")
    with pytest.raises((NotImplementedError, ValueError)):
        # no sentence-transformers in this container: the wiring raises
        # loudly instead of silently degrading
        Embedder(backend="model:all-MiniLM-L6-v2")


def test_sql_oracle_parity():
    tbl = pa.table(
        {
            "doc_id": pa.array(range(len(TEXTS)), pa.int64()),
            "text": pa.array(TEXTS, pa.string()),
        }
    )
    mat = hash_embed_batch(TEXTS)
    con = duckdb.connect()
    con.register("documents", tbl)
    got = con.execute(sql_doc_embeddings("documents")).fetchall()
    assert len(got) == len(TEXTS)
    for doc_id, emb_str in got:
        assert emb_str == ",".join(map(str, mat[doc_id]))


def test_huge_token_no_int64_wrap():
    # a token long enough that unreduced hh * HASH_MULT would wrap int64
    # (len >= ~3.6e7 chars): the kernel's mod-(dim*HASH_MOD) reduction
    # must keep it exactly equal to the unbounded-integer reference
    big = "z" * 40_000_000
    mat = hash_embed_batch(["pre " + big + " post"])
    assert np.array_equal(mat[0], _ref_embed("pre " + big + " post"))


# --------------------------------------------------------------------------
# weights-artifact backend (round 5)
# --------------------------------------------------------------------------

def _ref_weights_embed(text, W):
    v = np.zeros(W.shape[1], dtype=np.float64)
    for tok in tokenize(text):
        hh = len(tok) * 97 + ord(tok[0]) * 31 + ord(tok[-1])
        v += W[hh % W.shape[0]].astype(np.float64)
    return v


def test_weights_artifact_roundtrip(tmp_path):
    from ocr_sam_project_ray.stages.embedder import (
        load_weights_artifact,
        write_weights_artifact,
    )

    W = np.arange(48, dtype=np.float32).reshape(6, 8) - 20.5
    p = str(tmp_path / "w.parquet")
    write_weights_artifact(p, W)
    got = load_weights_artifact(p)
    assert got.dtype == np.float32 and got.shape == (6, 8)
    assert np.array_equal(got, W)


def test_weights_kernel_matches_reference():
    from ocr_sam_project_ray.stages.embedder import (
        demo_learned_weights,
        weights_embed_batch,
    )

    W = demo_learned_weights()
    got = weights_embed_batch(TEXTS, W)
    assert got.dtype == np.float32
    for i, t in enumerate(TEXTS):
        assert np.array_equal(
            got[i].astype(np.float64), _ref_weights_embed(t, W)
        ), (i, t)


def test_weights_backend_loads_once_per_actor(tmp_path):
    """The load-once seam, measured: many batches through a 2-actor
    pool must produce exactly as many artifact-load markers as ACTORS,
    never one per batch — the thing __init__-loading exists for."""
    from ocr_sam_project_ray.stages.embedder import (
        demo_learned_weights,
        weights_embed_batch,
        write_weights_artifact,
    )

    W = demo_learned_weights()
    art = str(tmp_path / "w.parquet")
    write_weights_artifact(art, W)
    log_dir = str(tmp_path / "loads")

    texts = [f"doc number {i} alpha beta" for i in range(400)]
    ds = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(range(400), pa.int64()),
                "text": pa.array(texts, pa.string()),
            }
        )
    ).repartition(8)
    out = embed_documents(
        ds, backend=f"weights:{art}", batch_size=25,
        concurrency=2, load_log_dir=log_dir,
    ).to_pandas().sort_values("doc_id").reset_index(drop=True)

    assert len(out) == 400
    exp = weights_embed_batch(texts, W)
    got = np.vstack(out["embedding"].to_numpy())
    assert np.array_equal(got, exp)

    import glob as _glob
    import os as _os

    markers = _glob.glob(_os.path.join(log_dir, "*.marker"))
    n_batches = (400 + 24) // 25
    assert 1 <= len(markers) <= 2, markers      # == actors in the pool
    assert len(markers) < n_batches             # and NEVER per-batch


def test_weights_dim_mismatch_raises(tmp_path):
    from ocr_sam_project_ray.stages.embedder import write_weights_artifact

    art = str(tmp_path / "w8.parquet")
    write_weights_artifact(art, np.zeros((4, 8), dtype=np.float32))
    with pytest.raises(ValueError, match="8-dim"):
        Embedder(backend=f"weights:{art}", dim=16)


def test_weights_sql_oracle_parity():
    """Engine weights path vs the DuckDB recompute over the demo
    artifact — the full doc_embeddings_learned driver contract."""
    from ocr_sam_project_ray.stages.embedder import (
        embed_documents,
        ensure_demo_weights_artifact,
        sql_doc_embeddings_learned,
    )

    tbl = pa.table(
        {
            "doc_id": pa.array(range(len(TEXTS)), pa.int64()),
            "text": pa.array(TEXTS, pa.string()),
        }
    )
    path = ensure_demo_weights_artifact()
    df = (
        embed_documents(
            ray.data.from_arrow(tbl), backend=f"weights:{path}"
        )
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    df["embedding"] = df["embedding"].map(
        lambda v: ",".join(str(int(round(float(x)))) for x in v)
    )
    con = duckdb.connect()
    con.register("documents", tbl)
    exp = con.execute(sql_doc_embeddings_learned()).df()
    assert df["embedding"].tolist() == exp["embedding"].tolist()
