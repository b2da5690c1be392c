"""Text → embedding actor-pool stage — the missing first-class LLM-data
component called out by the round-3 review: every embedding consumer in
this engine (ops/embed.knn_cosine, ops/bm25.rrf_fuse) previously started
from a pre-built ``embeddings.parquet``; this stage produces that column
FROM RAW TEXT inside the pipeline.

Stage shape (the reference's warm-singleton seam re-expressed as a Ray
Data actor pool — src/ocr_processor/app.py:22-27 keeps its Textract
client in a module global so one Lambda container pays client setup
once; here the "client" is an embedding model held by a long-lived
actor):

- ``Embedder`` is a CALLABLE CLASS passed to ``map_batches`` — the model
  is loaded ONCE per actor in ``__init__``, never per batch;
- ``embed_documents`` wires it: ``ds.select_columns([id, text])
  .map_batches(Embedder, concurrency=(1, n), batch_size=B,
  num_gpus=g)`` — column-pruned input, actor-pool concurrency, and a
  GPU knob that becomes real the moment a GPU backend is configured
  (num_gpus=0 on this CPU-only box);
- batch_size defaults small-ish (256) because a real encoder is
  memory-bound on (batch × max_seq); raise it for the hash backend.

Backends:

- ``"hash"`` (default, DETERMINISTIC): a hashed bag-of-tokens projection
  — a fastText-style hashed lattice giving a D-dim vector, fully
  vectorized (one padded U-view code-point pass per batch, one bincount
  per batch). Being an exact integer
  contract, it is SQL-recomputable, so the driver oracle checks this
  stage end-to-end (query ``doc_embeddings``) — the same
  deterministic-stand-in policy as stages/scorer.py.
- ``"weights:<path>"`` (round 5): a hashed-feature linear projection
  with LEARNED weights loaded from a parquet ARTIFACT — the load-once
  seam exercised end-to-end with a real weight file and no external
  model libs. ``__init__`` reads the (n_buckets, dim) float32 matrix
  ONCE per actor (this is the expensive step a real encoder pays);
  ``__call__`` is a pure vectorized EmbeddingBag: each token hashes to
  a bucket (the same engine-wide lattice hash) and the document vector
  is the sum of its tokens' weight rows. ``load_log_dir`` (optional)
  appends one marker file per artifact load — operational telemetry
  that actor churn isn't silently re-paying model loads; the pytest
  load-once assertion counts exactly these.
- ``"model:<name>"``: loads a real sentence-encoder via
  sentence-transformers. That library is NOT in this container, so the
  constructor raises ``NotImplementedError`` with the wiring documented —
  the Ray-side plumbing (schema, actor signature, batch size, GPU knob,
  output layout) is identical and is what the tests certify.

Exact integer contract of the hash backend (mirrored by the DuckDB
oracle in __ray_entry__):

- token model = the engine-wide contract (ops/textstats.tokenize:
  whitespace split after strip; '' / NULL → no tokens);
- raw hash    hh(tok) = len(tok)*97 + cp_first*31 + cp_last
  (code points — DuckDB ascii(substr()) == Python ord, both
  character-addressed; the kernel reduces hh mod (D * 1997) before
  the multiply — arithmetically invisible since both consumers are
  modular — so hh * 2654435761 < 2^63 holds for ANY token length,
  exact in BIGINT and int64);
- bucket      j(tok)  = hh mod D                (D = EMBED_DIM = 16)
- weight      w(tok)  = (hh * 2654435761) mod 1997 - 998
- emb[d][j]   = Σ w(tok) over d's tokens (with multiplicity) whose
  bucket is j; token-less docs get the zero vector.

The weight is taken from the FULL hash (not hh mod D), so two tokens
sharing a bucket still contribute distinct weights — the usual hashing-
trick variance reduction (Weinberger et al. 2009), and what makes the
vectors useful for cosine similarity rather than collapsing to counts.

Scale shape: one stateless-per-batch pass over a column-pruned read —
no shuffle, no driver traffic; output is (id, list<int64>[D]) which
downstream ops consume directly (cosine normalizes, so integer vectors
need no float conversion).
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa

from ray.data import Dataset

from ..context import configure_data_context
from ..ops.textstats import flat_tokens, token_lff

EMBED_DIM = 16
HASH_MULT = 2654435761
HASH_MOD = 1997
HASH_SHIFT = 998


def _as_arrow_text(texts) -> pa.Array:
    if isinstance(texts, pa.ChunkedArray):
        return texts.combine_chunks()
    if isinstance(texts, pa.Array):
        return texts
    return pa.array(list(texts), pa.string())


def hash_embed_batch(texts, dim: int = EMBED_DIM) -> np.ndarray:
    """(n_docs, dim) int64 embedding matrix for one batch — fully
    vectorized on the shared Arrow kernels (textstats.flat_tokens +
    token_lff: buffer-direct tokenize and char-feature decode; no Python
    strings, O(bytes) regardless of the longest token). ``texts`` is an
    Arrow string column or any sequence."""
    col = _as_arrow_text(texts)
    n_docs = len(col)
    _dl, flat, doc_idx = flat_tokens(col)
    emb = np.zeros((n_docs, dim), dtype=np.int64)
    if not len(flat):
        return emb
    lens, first, last = token_lff(flat)
    hh = lens * 97 + first * 31 + last
    # Both consumers of hh are modular (j = hh % dim, w via % HASH_MOD),
    # so reducing hh mod (dim * HASH_MOD) first is EXACTLY equivalent to
    # the unbounded-integer formula — and keeps hh * HASH_MULT inside
    # int64 even for degenerate multi-megabyte tokens (unreduced, a
    # ~3.6e7-char token would silently wrap the int64 product). The SQL
    # oracle needs no change: the reduction is arithmetically invisible.
    hh %= dim * HASH_MOD
    j = hh % dim
    w = (hh * HASH_MULT) % HASH_MOD - HASH_SHIFT
    # |w| < 1000: float64 bincount sums are integer-exact far beyond any
    # real per-doc token count (the sums stay far below 2**53)
    cells = np.bincount(
        doc_idx * dim + j, weights=w, minlength=n_docs * dim
    ).astype(np.int64)
    return cells.reshape(n_docs, dim)


def write_weights_artifact(path: str, weights: np.ndarray) -> None:
    """Persist an (n_buckets, dim) weight matrix as the parquet artifact
    the ``weights:<path>`` backend loads — one FixedSizeList<float32>
    row per bucket (round-trips exactly through load_weights_artifact)."""
    import pyarrow.parquet as pq

    w = np.ascontiguousarray(weights, dtype=np.float32)
    tbl = pa.table(
        {
            "row": pa.FixedSizeListArray.from_arrays(
                pa.array(w.reshape(-1), pa.float32()), w.shape[1]
            )
        }
    )
    pq.write_table(tbl, path)


def load_weights_artifact(path: str) -> np.ndarray:
    """Read the (n_buckets, dim) float32 weight matrix back. This is the
    once-per-actor load the warm-singleton seam exists for."""
    import pyarrow.parquet as pq

    col = pq.read_table(path)["row"].combine_chunks()
    dim = col.type.list_size
    return col.flatten().to_numpy(zero_copy_only=False).reshape(-1, dim)


def weights_embed_batch(texts, weights: np.ndarray) -> np.ndarray:
    """(n_docs, dim) float32 matrix: hashed EmbeddingBag with LEARNED
    weights — doc vector = Σ over its tokens of weights[hh(tok) mod
    n_buckets]. The raw lattice hash needs no pre-reduction here (no
    multiply follows it, so no int64 overflow is reachable); accumulation
    runs in float64 (one bincount per output dim — dim is small) and is
    integer-EXACT whenever the artifact holds integer-valued weights,
    which is what lets the DuckDB oracle recompute this path bit-for-bit."""
    col = _as_arrow_text(texts)
    n_docs, dim = len(col), weights.shape[1]
    _dl, flat, doc_idx = flat_tokens(col)
    if not len(flat):
        return np.zeros((n_docs, dim), dtype=np.float32)
    lens, first, last = token_lff(flat)
    hh = lens * 97 + first * 31 + last
    b = hh % weights.shape[0]
    emb = np.empty((n_docs, dim), dtype=np.float64)
    w64 = weights.astype(np.float64)
    for d in range(dim):
        emb[:, d] = np.bincount(doc_idx, weights=w64[b, d], minlength=n_docs)
    return emb.astype(np.float32)


class Embedder:
    """Actor-pool embedding stage: model in ``__init__``, batches in
    ``__call__``. One instance == one warm actor."""

    def __init__(
        self,
        backend: str = "hash",
        dim: int = EMBED_DIM,
        id_col: str = "doc_id",
        text_col: str = "text",
        out_col: str = "embedding",
        load_log_dir: str | None = None,
    ):
        self.dim = dim
        self.id_col = id_col
        self.text_col = text_col
        self.out_col = out_col
        self._load_log_dir = load_log_dir
        if backend == "hash":
            # "load the model": for the deterministic backend the model IS
            # the (dim, lattice-constant) pair; a trained hashed-feature
            # model would load its weight table here instead.
            self._encode = lambda texts: hash_embed_batch(texts, self.dim)
        elif backend.startswith("weights:"):
            path = backend.split(":", 1)[1]
            w = load_weights_artifact(path)  # the once-per-actor load
            if w.shape[1] != self.dim:
                raise ValueError(
                    f"weights artifact {path} is {w.shape[1]}-dim, "
                    f"stage configured for dim={self.dim}"
                )
            # marker only after validation: a constructor that raises
            # (Ray retries it) must not inflate the load-once telemetry
            self._log_load(path)
            self._encode = lambda texts: weights_embed_batch(texts, w)
        elif backend.startswith("model:"):
            name = backend.split(":", 1)[1]
            try:
                from sentence_transformers import SentenceTransformer
            except ImportError as exc:  # pragma: no cover - no model libs here
                raise NotImplementedError(
                    f"backend 'model:{name}' needs sentence-transformers, "
                    "which is not installed in this environment; the actor "
                    "wiring is identical — the model would be loaded HERE "
                    "(once per actor) and self._encode would call "
                    "model.encode(texts, batch_size=len(texts))"
                ) from exc
            model = SentenceTransformer(name)  # pragma: no cover
            self._encode = lambda texts: np.asarray(  # pragma: no cover
                model.encode(
                    texts.to_pylist()
                    if hasattr(texts, "to_pylist") else list(texts)
                )
            )
        else:
            raise ValueError(f"unknown embedder backend: {backend!r}")

    def _log_load(self, path: str) -> None:
        """One marker file per artifact load (telemetry proving the
        warm-actor seam: markers == actors, not batches)."""
        if not self._load_log_dir:
            return
        import tempfile

        os.makedirs(self._load_log_dir, exist_ok=True)
        fd, _ = tempfile.mkstemp(
            prefix=f"load.{os.getpid()}.", suffix=".marker",
            dir=self._load_log_dir,
        )
        os.close(fd)

    def __call__(self, batch: pa.Table) -> pa.Table:
        mat = self._encode(batch[self.text_col])
        if np.issubdtype(mat.dtype, np.integer):
            value_type = pa.int64()
        else:
            value_type = pa.float32()
        emb = pa.FixedSizeListArray.from_arrays(
            pa.array(mat.reshape(-1), value_type), self.dim
        ).cast(pa.list_(value_type))
        return pa.table({self.id_col: batch[self.id_col], self.out_col: emb})


def embed_documents(
    ds: Dataset,
    backend: str = "hash",
    dim: int = EMBED_DIM,
    id_col: str = "doc_id",
    text_col: str = "text",
    out_col: str = "embedding",
    concurrency=(1, 8),
    batch_size: int = 256,
    num_gpus: float = 0.0,
    load_log_dir: str | None = None,
) -> Dataset:
    """documents → Dataset(id_col, embedding list<int64|float32>[dim]).

    Column-pruned at the read, actor-pool map_batches, GPU knob plumbed
    through (0 on this box; a GPU backend sets num_gpus=1 and Ray places
    each actor on a GPU)."""
    configure_data_context()
    kwargs = dict(
        fn_constructor_kwargs=dict(
            backend=backend, dim=dim, id_col=id_col,
            text_col=text_col, out_col=out_col,
            load_log_dir=load_log_dir,
        ),
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
    )
    if num_gpus:
        kwargs["num_gpus"] = num_gpus  # pragma: no cover - CPU-only box
    return ds.select_columns([id_col, text_col]).map_batches(Embedder, **kwargs)


def sql_knn_from_text(
    queries: list[str],
    k: int = 10,
    table: str = "documents",
    dim: int = EMBED_DIM,
    id_col: str = "doc_id",
    text_col: str = "text",
) -> str:
    """DuckDB recompute of semantic retrieval FROM RAW TEXT: re-derive
    every document's hash embedding (the sql_doc_embeddings CTE chain),
    embed the query strings engine-side (deterministic — rendered as
    literals), then cosine top-k with the knn_cosine oracle shape
    (round 6 dp, ties by vec_id; zero-norm docs excluded on both
    sides)."""
    qm = hash_embed_batch(queries, dim)
    qrows = " UNION ALL ".join(
        f"SELECT {qid} AS qid, CAST([{', '.join(str(int(x)) for x in qm[qid])}] "
        "AS DOUBLE[]) AS e"
        for qid in range(len(queries))
    )
    return f"""
        WITH tok AS (
          SELECT {id_col} AS doc_id,
                 unnest(string_split_regex(trim({text_col}), '\\s+')) AS tok
          FROM {table} WHERE trim(coalesce({text_col}, '')) <> ''
        ),
        h AS (
          SELECT doc_id,
                 (length(tok)*97
                  + ascii(substr(tok, 1, 1))*31
                  + ascii(substr(tok, length(tok), 1))) AS hh
          FROM tok
        ),
        cell AS (
          SELECT doc_id, hh % {dim} AS j,
                 CAST(sum((hh * {HASH_MULT}) % {HASH_MOD}
                          - {HASH_SHIFT}) AS BIGINT) AS v
          FROM h GROUP BY doc_id, hh % {dim}
        ),
        dims AS (SELECT unnest(range({dim})) AS j),
        grid AS (
          SELECT d.{id_col} AS doc_id, dims.j AS j,
                 coalesce(c.v, 0) AS v
          FROM {table} d CROSS JOIN dims
          LEFT JOIN cell c ON c.doc_id = d.{id_col} AND c.j = dims.j
        ),
        vecs AS (
          SELECT doc_id AS vec_id,
                 list(CAST(v AS DOUBLE) ORDER BY j) AS e,
                 sum(v * v) AS nrm
          FROM grid GROUP BY doc_id
        ),
        t AS (SELECT vec_id, e FROM vecs WHERE nrm > 0),
        q AS ({qrows})
        SELECT qid, vec_id,
               round(list_cosine_similarity(q.e, t.e), 6) AS sim
        FROM q, t
        QUALIFY row_number() OVER (
            PARTITION BY qid
            ORDER BY list_cosine_similarity(q.e, t.e) DESC, vec_id
        ) <= {k}
    """


def sql_doc_embeddings(
    table: str = "documents",
    dim: int = EMBED_DIM,
    id_col: str = "doc_id",
    text_col: str = "text",
) -> str:
    """DuckDB recompute of the hash backend, embedding rendered as the
    comma-joined int string (list columns cross pandas bridges with
    unstable reprs — the ops/invindex.py rendering convention)."""
    return f"""
        WITH tok AS (
          SELECT {id_col} AS doc_id,
                 unnest(string_split_regex(trim({text_col}), '\\s+')) AS tok
          FROM {table} WHERE trim(coalesce({text_col}, '')) <> ''
        ),
        h AS (
          SELECT doc_id,
                 (length(tok)*97
                  + ascii(substr(tok, 1, 1))*31
                  + ascii(substr(tok, length(tok), 1))) AS hh
          FROM tok
        ),
        cell AS (
          SELECT doc_id, hh % {dim} AS j,
                 CAST(sum((hh * {HASH_MULT}) % {HASH_MOD}
                          - {HASH_SHIFT}) AS BIGINT) AS v
          FROM h GROUP BY doc_id, hh % {dim}
        ),
        dims AS (SELECT unnest(range({dim})) AS j),
        grid AS (
          SELECT d.{id_col} AS doc_id, dims.j AS j,
                 coalesce(c.v, 0) AS v
          FROM {table} d CROSS JOIN dims
          LEFT JOIN cell c ON c.doc_id = d.{id_col} AND c.j = dims.j
        )
        SELECT doc_id,
               string_agg(CAST(v AS VARCHAR), ',' ORDER BY j) AS embedding
        FROM grid GROUP BY doc_id ORDER BY doc_id
    """


# --------------------------------------------------------------------------
# learned-weights demo artifact + its DuckDB recompute (round 5)
# --------------------------------------------------------------------------

LEARNED_BUCKETS = 64


def demo_learned_weights(
    n_buckets: int = LEARNED_BUCKETS, dim: int = EMBED_DIM
) -> np.ndarray:
    """Deterministic INTEGER-VALUED float32 weight matrix standing in for
    trained weights: W[b, j] = ((b*31 + j*17) mod 61) - 30. Integer
    values keep per-cell float64 accumulation exact, which is what lets
    the DuckDB oracle recompute the weights path value-for-value — the
    same deterministic-stand-in policy as the hash backend."""
    b = np.arange(n_buckets, dtype=np.int64)[:, None]
    j = np.arange(dim, dtype=np.int64)[None, :]
    return (((b * 31 + j * 17) % 61) - 30).astype(np.float32)


def ensure_demo_weights_artifact(
    cache_dir: str = "/tmp/ocr_sam_ray_weights",
) -> str:
    """Write (once, atomically) and return the demo artifact path — the
    real parquet file the ``weights:`` backend loads once per actor."""
    path = os.path.join(
        cache_dir, f"learned_w{LEARNED_BUCKETS}x{EMBED_DIM}.parquet"
    )
    if not os.path.exists(path):
        os.makedirs(cache_dir, exist_ok=True)
        tmp = path + f".tmp.{os.getpid()}"
        write_weights_artifact(tmp, demo_learned_weights())
        os.replace(tmp, path)
    return path


def sql_doc_embeddings_learned(
    table: str = "documents",
    n_buckets: int = LEARNED_BUCKETS,
    dim: int = EMBED_DIM,
    id_col: str = "doc_id",
    text_col: str = "text",
) -> str:
    """DuckDB recompute of the weights backend over the demo artifact:
    emb[j] = Σ_b count(doc tokens in bucket b) x W[b, j], with W
    re-derived from the demo formula (the oracle checks the ENGINE
    loaded and applied the artifact correctly — identical cell values
    are only reachable if the loaded matrix matches). Embedding rendered
    as the comma-joined int string (invindex convention); integer-valued
    weights make every float64 sum exact on both engines."""
    return f"""
        WITH tok AS (
          SELECT {id_col} AS doc_id,
                 unnest(string_split_regex(trim({text_col}), '\\s+')) AS tok
          FROM {table} WHERE trim(coalesce({text_col}, '')) <> ''
        ),
        h AS (
          SELECT doc_id,
                 (length(tok)*97
                  + ascii(substr(tok, 1, 1))*31
                  + ascii(substr(tok, length(tok), 1))) AS hh
          FROM tok
        ),
        bt AS (
          SELECT doc_id, hh % {n_buckets} AS b, count(*) AS c
          FROM h GROUP BY doc_id, hh % {n_buckets}
        ),
        wv AS (
          SELECT bb.range AS b, jj.range AS j,
                 ((bb.range*31 + jj.range*17) % 61) - 30 AS w
          FROM range({n_buckets}) bb, range({dim}) jj
        ),
        cell AS (
          SELECT doc_id, j, CAST(sum(c * w) AS BIGINT) AS v
          FROM bt JOIN wv USING (b) GROUP BY doc_id, j
        ),
        dims AS (SELECT unnest(range({dim})) AS j),
        grid AS (
          SELECT d.{id_col} AS doc_id, dims.j AS j,
                 coalesce(c.v, 0) AS v
          FROM {table} d CROSS JOIN dims
          LEFT JOIN cell c ON c.doc_id = d.{id_col} AND c.j = dims.j
        )
        SELECT doc_id,
               string_agg(CAST(v AS VARCHAR), ',' ORDER BY j) AS embedding
        FROM grid GROUP BY doc_id ORDER BY doc_id
    """
