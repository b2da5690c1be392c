"""BM25 lexical retrieval + reciprocal-rank fusion — the query side of
the retrieval stack a training-data platform runs over its curated
corpus (RAG stores, contamination lookups, nearest-page audits).
Robertson & Sparck Jones' Okapi BM25 (TREC-3, 1994) with the
fixed-query top-k shape of ops/embed.knn_cosine: the query set is tiny
and broadcast; the corpus streams through one scoring pass; only local
top-k candidates move to a per-query merge.

Exact cross-engine contract (what the DuckDB oracle recomputes):
- token model = the engine-wide contract (ops/textstats.tokenize:
  whitespace split after strip; '' / NULL -> no tokens); query terms
  are the DISTINCT tokens of each query string;
- N  = total input rows (including token-less docs); T = total token
  count over the corpus; dl(d) = token count of d; df(t) = distinct
  docs containing t; tf(d, t) = occurrences of t in d;
- BM25 constants are EXACT dyadic rationals, k1 = 3/2 and b = 3/4, so
  the tf-saturation component clears to an integer ratio:
      tf_comp = tf*(k1+1) / (tf + k1*(1 - b + b*dl/avgdl))
              = 20*tf*T / (8*tf*T + 3*T + 9*dl*N)      [avgdl = T/N]
- idf is the LINEAR surrogate (2*(N-df)+1) / (2*df+1) — the exact
  integer-ratio rendering of Robertson idf's argument
  (N-df+0.5)/(df+0.5), monotone-identical to it, chosen because ln()
  is libm-dependent and would make cross-engine value parity
  unprovable (same deliberate trade-off as ops/tfidf's linear idf);
- per (query, doc, term) contribution, in parts-per-million:
      c = floor( (idf_num/idf_den) * (tf_num/tf_den) * 1e6 + 0.5 )
  evaluated LEFT-ASSOCIATIVE — each step (two divisions of exact
  integers, two multiplications, one add, one floor) is a single
  correctly-rounded IEEE-754 double op, so Python/numpy and DuckDB
  produce bit-identical integers;
- score_ppm(q, d) = integer sum of contributions over q's distinct
  terms with tf > 0 (docs matching no term are absent); top-k per
  query by (score_ppm DESC, doc_id ASC), rank 1-based.
All intermediate integer products must stay below 2^53 for the
division-parity argument; ``bm25_topk`` guards this explicitly.
At true 100 TB scale (T ~ 1e13 corpus tokens) those products blow the
bound, so the engine carries a SECOND scoring contract and switches
automatically (``scoring='auto'``, the default): classic float64
log-idf Okapi BM25 with the same k1 = 3/2, b = 3/4 and the
Lucene-style non-negative idf  ln(1 + (N - df + 0.5)/(df + 0.5)).
Float scores are not cross-engine bit-recomputable — that is the
point of having two contracts — so the float path is verified by
rank-overlap against the rational path on shared (in-bound) corpora
plus row-count/schema checks, not by value hash. The switch decision
is made ONCE on the driver from the stats pass's (N, T, max_dl) fold
(tf <= dl <= max_dl bounds every per-cell product), never silently
per batch; ``scoring='rational'`` restores the old raise-on-overflow
behaviour, ``scoring='float'`` forces the log-idf path.

Scale shape (round 5 — the corpus is read and tokenized exactly ONCE):
1. tokenize pass: one column-pruned streaming pass materializes a
   SPARSE per-doc term table (doc_id, dl, tids, tfs — only tf>0 cells
   over the bounded query-term vocabulary; stored cells ≤ corpus token
   count, so it spills like any dataset); the corpus text never flows
   past this pass;
2. stats fold: a tokenize-free pass over the term table emits ONE tiny
   partial row per block (n_docs, total_tokens, df vector); the driver
   folds block partials (bounded by block count — the ops/bloom.py
   take_all convention) and decides the scoring contract;
3. scoring pass: (live-term map, idf vector, query-term mask, N, T)
   are ``ray.put`` once; every batch of the term table rebuilds its
   dense (docs x live terms) tf matrix from the sparse cells (repeat +
   scatter, no tokenization), forms the contribution matrix
   elementwise, reduces to per-(query, doc) scores with one int64
   matmul, and emits its LOCAL top-k per query (k x n_blocks rows
   total) — no per-doc Python loop anywhere in the hot path;
4. merge: ``groupby(qid).map_groups`` per-query reduction — scales
   with query count, never corpus size (same as embed._merge_topk).

``rrf_fuse`` combines bounded top-k rankings from heterogeneous
retrievers (BM25 + embedding knn) by reciprocal-rank fusion (Cormack,
Clarke & Buettcher, SIGIR 2009): contribution per (system, qid, doc)
is floor(1e9/(k0 + rank) + 0.5) — one exact-integer division, so the
fused integer scores are SQL-recomputable. Inputs are top-k lists
(systems x queries x k rows), bounded by contract, so fusion is a
driver-side arrow reduction — the corpus never flows through it.

The reference has no retrieval surface at all (one document per Lambda
invocation, src/ocr_processor/app.py:94-138); this module is part of
the engine's beyond-reference training-data surface.
"""

from __future__ import annotations

import heapq
import math
from collections import defaultdict

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
from ray.data import Dataset

from .embed import topk_tied_idx
from .textstats import flat_tokens, tokenize

_PARITY_BOUND = 2 ** 53
RRF_K0 = 60
RRF_SCALE = 1_000_000_000


def _query_terms(queries: list[str]) -> list[list[str]]:
    return [sorted(set(tokenize(q))) for q in queries]


def _tf_matrix(
    texts, terms_arr: pa.Array
) -> tuple[np.ndarray, np.ndarray]:
    """(tf[n_docs, n_terms] int64, dl[n_docs] int64) for one batch —
    the vectorized kernel both passes share. ``texts`` is an Arrow
    string array (or any pa.array-able sequence); tokenization is the
    C-speed shared kernel (textstats.flat_tokens — exact contract
    parity, full-codepoint-enumerated) and tokens map to the bounded
    query-term vocabulary with one ``pc.index_in`` hash lookup; counts
    come from one bincount. No Python string materializes anywhere —
    no per-doc Counter, no per-(doc, term) loop (tokenizer-inclusive:
    ~3x faster than the prior per-row-tokenize + get_indexer rendering
    at 200-token docs)."""
    if not isinstance(texts, (pa.Array, pa.ChunkedArray)):
        texts = pa.array(list(texts), pa.string())
    n_docs = len(texts)
    dl, flat, doc_idx = flat_tokens(texts)
    nt = len(terms_arr)
    tf = np.zeros((n_docs, nt), dtype=np.int64)
    if len(flat) and nt:
        tid = pc.fill_null(
            pc.index_in(flat, value_set=terms_arr), -1
        ).to_numpy(zero_copy_only=False).astype(np.int64)
        hit = tid >= 0
        if hit.any():
            cells = np.bincount(
                doc_idx[hit] * nt + tid[hit], minlength=n_docs * nt
            )
            tf = cells.reshape(n_docs, nt).astype(np.int64)
    return tf, dl


def _doc_term_table(
    ds: Dataset, terms: list[str], id_col: str, text_col: str
) -> Dataset:
    """ONE corpus tokenize → materialized SPARSE per-doc term table
    ``(id_col, dl:int64, tids:list<int32>, tfs:list<int64>)`` holding
    only tf>0 cells over the bounded query-term vocabulary. Every input
    row appears (token-less docs carry empty lists) so N folds from row
    count. Stored cells ≤ corpus token count, so the intermediate is
    strictly smaller than the text it replaces and streams/spills like
    any dataset — at 100 TB this trades one extra (small) materialized
    pass for HALVING the corpus reads and tokenizations."""
    terms_arr = pa.array(terms, pa.string())

    def per_doc(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table({
                id_col: batch[id_col],
                "dl": pa.array([], pa.int64()),
                "tids": pa.array([], pa.list_(pa.int32())),
                "tfs": pa.array([], pa.list_(pa.int64())),
            })
        col = batch[text_col].combine_chunks() if isinstance(
            batch[text_col], pa.ChunkedArray
        ) else batch[text_col]
        parts: list[pa.Table] = []
        # chunked so the dense (docs x terms) tf transient stays bounded;
        # the token flattening itself is Arrow-native now (no Python
        # string transients at any chunk size)
        for lo in range(0, batch.num_rows, 4096):
            ids = batch[id_col].slice(lo, 4096)
            tf, dl = _tf_matrix(col.slice(lo, 4096), terms_arr)
            n_chunk = len(dl)
            r, c = np.nonzero(tf)          # row-major: grouped by doc
            counts = np.bincount(r, minlength=n_chunk)
            offsets = np.zeros(n_chunk + 1, dtype=np.int32)
            np.cumsum(counts, out=offsets[1:])
            parts.append(pa.table({
                id_col: ids,
                "dl": pa.array(dl, pa.int64()),
                "tids": pa.ListArray.from_arrays(
                    pa.array(offsets, pa.int32()),
                    pa.array(c.astype(np.int32), pa.int32()),
                ),
                "tfs": pa.ListArray.from_arrays(
                    pa.array(offsets, pa.int32()),
                    pa.array(tf[r, c], pa.int64()),
                ),
            }))
        return pa.concat_tables(parts)

    return ds.map_batches(
        per_doc, batch_format="pyarrow", batch_size=None
    ).materialize()


def _stats_from_doc_terms(
    inter: Dataset, terms: list[str]
) -> tuple[int, int, dict[str, int], int]:
    """(N, T, {term: df}, max_dl) folded from the sparse per-doc term
    table — no tokenization; one tiny partial row per block lands on
    the driver (bounded by block count)."""
    nt = len(terms)

    def partial(batch: pa.Table) -> pa.Table:
        dl = batch["dl"].to_numpy(zero_copy_only=False)
        flat = batch["tids"].combine_chunks().flatten().to_numpy(
            zero_copy_only=False
        )
        # stored cells are tf>0 and unique per (doc, term), so df is a
        # straight bincount of term ids
        df = np.bincount(flat, minlength=nt) if nt else np.zeros(0)
        return pa.table({
            "n_docs": pa.array([len(dl)], pa.int64()),
            "total_tokens": pa.array([int(dl.sum())], pa.int64()),
            "max_dl": pa.array(
                [int(dl.max()) if dl.size else 0], pa.int64()
            ),
            "df": pa.array([df.astype(np.int64).tolist()],
                           pa.list_(pa.int64())),
        })

    rows = inter.map_batches(
        partial, batch_format="pyarrow", batch_size=None
    ).take_all()
    n_docs = sum(r["n_docs"] for r in rows)
    total_tokens = sum(r["total_tokens"] for r in rows)
    max_dl = max((r["max_dl"] for r in rows), default=0)
    df_tot = np.zeros(nt, dtype=np.int64)
    for r in rows:
        df_tot += np.asarray(r["df"], dtype=np.int64)
    return n_docs, total_tokens, {
        t: int(df_tot[i]) for i, t in enumerate(terms) if df_tot[i] > 0
    }, max_dl


def _rational_parity_ok(
    n: int, t: int, max_dl: int, max_qterms: int, bound: int
) -> bool:
    """True iff the integer-rational contract is provably safe for this
    corpus: every per-cell product stays under ``bound`` (2^53 — the
    correctly-rounded-double-division parity argument) and the worst
    per-query score SUM stays inside int64. Exact Python ints, driver
    side, evaluated once per call from the stats fold — tf <= dl <=
    max_dl bounds every cell the scoring pass can form."""
    if max_dl == 0 or t == 0:
        return True
    num = 20 * max_dl * t
    den = 8 * max_dl * t + 3 * t + 9 * max_dl * n
    if num >= bound or den >= bound:
        return False
    # contribution <= idf_max * (20/8) * 1e6 + 1; idf_max at df = 1 is
    # (2n - 1) / 3. Conservative sum guard mirrors local_topk's runtime
    # check so 'auto' never selects a path that would raise mid-stream.
    c_max = (2 * n - 1) * 2_500_000 // 3 + 1
    if max_qterms and c_max > (2 ** 63 - 1) // max_qterms:
        return False
    return True


def _contribution(tf: int, df: int, dl: int, n: int, t: int) -> int:
    """floor(idf_ratio * tf_ratio * 1e6 + 0.5) — the exact left-assoc
    IEEE sequence the SQL oracle replays (module docstring). Scalar
    reference implementation; the batch path is _contrib_matrix (they
    are equality-tested in test_bm25)."""
    idf = (2 * (n - df) + 1) / (2 * df + 1)
    tf_num = 20 * tf * t
    tf_den = 8 * tf * t + 3 * t + 9 * dl * n
    if tf_num >= _PARITY_BOUND or tf_den >= _PARITY_BOUND:
        raise ValueError(
            "bm25 integer contract exceeded 2^53 — corpus too large for "
            "the bit-parity rational scoring; use the log-idf float path"
        )
    return math.floor(idf * (tf_num / tf_den) * 1e6 + 0.5)


def _contrib_matrix(
    tf: np.ndarray, dl: np.ndarray, idf: np.ndarray, n: int, t: int
) -> np.ndarray:
    """Vectorized _contribution over a (n_docs, n_terms) tf matrix —
    the SAME left-associative IEEE double sequence elementwise, so the
    integers are bit-identical to the scalar path and the SQL oracle.

    Overflow discipline: products are formed in int64 AFTER a Python-int
    pre-check on the maximal cell (20*max_tf*t resp. den(max_tf, max_dl))
    against 2^63 — if the max fits in int64, every cell does, so the
    elementwise 2^53 parity guard below sees true values, never wrapped
    ones. The scalar path's guard is per-actual-cell; this pre-check
    only triggers >2^63 (already far beyond the 2^53 raise)."""
    max_tf = int(tf.max()) if tf.size else 0
    max_dl = int(dl.max()) if dl.size else 0
    if (20 * max_tf * t >= 2**63
            or 8 * max_tf * t + 3 * t + 9 * max_dl * n >= 2**63):
        raise ValueError(
            "bm25 integer contract exceeded 2^53 — corpus too large for "
            "the bit-parity rational scoring; use the log-idf float path"
        )
    tf_num = 20 * tf * t
    tf_den = 8 * tf * t + 3 * t + 9 * dl[:, None] * n
    active = tf > 0
    if np.any(active & ((tf_num >= _PARITY_BOUND) | (tf_den >= _PARITY_BOUND))):
        raise ValueError(
            "bm25 integer contract exceeded 2^53 — corpus too large for "
            "the bit-parity rational scoring; use the log-idf float path"
        )
    c = np.floor(
        idf[None, :] * (tf_num / tf_den) * 1e6 + 0.5
    ).astype(np.int64)
    return np.where(active, c, 0)


def _float_contrib_matrix(
    tf: np.ndarray, dl: np.ndarray, idf_log: np.ndarray, n: int, t: int
) -> np.ndarray:
    """Classic float64 Okapi BM25 contribution matrix — the above-parity
    contract (module docstring): k1 = 3/2, b = 3/4, avgdl = T/N,
    tf_comp = tf*(k1+1) / (tf + k1*(1 - b + b*dl/avgdl)), scaled by the
    caller-supplied log-idf vector. No overflow bound: everything is
    float64. Deterministic given (idf_log, n, t) — each doc's score is
    computed wholly inside its batch, so block boundaries cannot change
    float accumulation order."""
    k1, b = 1.5, 0.75
    avgdl = t / n if n else 1.0
    tf_f = tf.astype(np.float64)
    denom = tf_f + k1 * (1.0 - b + b * (dl[:, None] / avgdl))
    comp = np.divide(
        tf_f * (k1 + 1.0), denom, out=np.zeros_like(tf_f), where=denom > 0
    )
    return np.where(tf > 0, comp * idf_log[None, :], 0.0)


def bm25_topk(
    ds: Dataset,
    queries: list[str],
    k: int = 10,
    id_col: str = "doc_id",
    text_col: str = "text",
    scoring: str = "auto",
    _parity_bound: int = _PARITY_BOUND,
) -> pa.Table:
    """Top-k BM25 docs per query. ``queries[i]`` has qid = i.

    ``scoring`` selects the contract (module docstring):
    - 'auto' (default): integer-rational when the driver-side pre-check
      proves every product stays under the 2^53 parity bound, else
      float64 log-idf Okapi — the 100 TB path, chosen once per call,
      never raising mid-stream;
    - 'rational': force the bit-parity contract (raises loudly when the
      corpus exceeds the bound — the pre-round-4 behaviour);
    - 'float': force the log-idf contract.
    Returns an arrow table (qid, doc_id, rank, score_ppm:int64) for the
    rational contract or (qid, doc_id, rank, score:float64) for the
    float one — the column NAME declares which contract scored the run.
    k rows max per query, ordered (qid ASC, rank ASC); ties broken
    doc_id ASC under both contracts.

    ``_parity_bound`` exists for tests: shrinking it forces the auto
    switch on a small corpus without synthesizing 2^53 tokens."""
    if scoring not in ("auto", "rational", "float"):
        raise ValueError(f"unknown bm25 scoring contract: {scoring!r}")
    # prune to the two live columns, then TOKENIZE ONCE: the corpus text
    # is read and tokenized in a single pass that materializes a sparse
    # per-doc term table (doc_id, dl, tids, tfs — only tf>0 cells, so
    # its token-cell count is bounded by the corpus token count and it
    # spills like any dataset); both the stats fold and the scoring pass
    # consume the intermediate. Previously stats + scoring each ran
    # their own full tokenize — 2x the dominant cost (measured at sf1:
    # 500k docs, 16.3 s -> see BASELINE round 5).
    ds = ds.select_columns([id_col, text_col])
    qterms = _query_terms(queries)
    all_terms = sorted({t for qt in qterms for t in qt})
    inter = _doc_term_table(ds, all_terms, id_col, text_col)
    n_docs, total_tokens, df_map, max_dl = _stats_from_doc_terms(
        inter, all_terms
    )
    max_qterms = max((len(tl) for tl in qterms), default=0)
    if scoring == "auto":
        scoring = (
            "rational"
            if _rational_parity_ok(
                n_docs, total_tokens, max_dl, max_qterms, _parity_bound
            )
            else "float"
        )
    # only terms that occur in the corpus can score; the bounded
    # (query x term) structure is precomputed once and broadcast
    live_terms = [t for t in all_terms if t in df_map]
    if scoring == "rational":
        idf = np.array(
            [(2 * (n_docs - df_map[t]) + 1) / (2 * df_map[t] + 1)
             for t in live_terms],
            dtype=np.float64,
        )
        score_col, score_type = "score_ppm", pa.int64()
    else:
        idf = np.array(
            [math.log1p((n_docs - df_map[t] + 0.5) / (df_map[t] + 0.5))
             for t in live_terms],
            dtype=np.float64,
        )
        score_col, score_type = "score", pa.float64()
    qmask = np.zeros((len(queries), len(live_terms)), dtype=np.int64)
    pos = {t: j for j, t in enumerate(live_terms)}
    for qid, tlist in enumerate(qterms):
        for term in tlist:
            if term in pos:
                qmask[qid, pos[term]] = 1
    # tids in the intermediate index ALL_TERMS; scoring runs over the
    # live subset — renumber with a broadcast lookup array. (A stored
    # cell's term always has df>0, so every stored tid maps to a live
    # column; the -1 branch is structural safety only.)
    all_pos = {t: i for i, t in enumerate(all_terms)}
    live_map = np.full(len(all_terms), -1, dtype=np.int32)
    for j, t in enumerate(live_terms):
        live_map[all_pos[t]] = j
    # broadcast once, read per task — never re-shipped per batch
    ref = ray.put(
        (live_map, len(live_terms), idf, qmask, n_docs, total_tokens,
         scoring)
    )

    def local_topk(batch: pa.Table) -> pa.Table:
        lmap, n_live, idf_v, qm, n, t, mode = ray.get(ref)
        empty = pa.table(
            {
                "qid": pa.array([], pa.int64()),
                "doc_id": pa.array([], pa.int64()),
                score_col: pa.array([], score_type),
            }
        )
        if n_live == 0 or t == 0 or batch.num_rows == 0:
            return empty
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        dl = batch["dl"].to_numpy(zero_copy_only=False)
        # dense (docs x live terms) tf rebuilt from the sparse cells —
        # no tokenization here; the corpus text never reaches this pass
        tids_la = batch["tids"].combine_chunks()
        flat_t = tids_la.flatten().to_numpy(zero_copy_only=False)
        flat_v = batch["tfs"].combine_chunks().flatten().to_numpy(
            zero_copy_only=False
        )
        lens = pc.list_value_length(tids_la).to_numpy(
            zero_copy_only=False
        )
        doc_idx = np.repeat(np.arange(len(ids)), lens)
        live = lmap[flat_t]
        keep = live >= 0
        tf = np.zeros((len(ids), n_live), dtype=np.int64)
        tf[doc_idx[keep], live[keep]] = flat_v[keep]
        if mode == "rational":
            c = _contrib_matrix(tf, dl, idf_v, n, t)
            # per-(query, doc) integer score + hit mask via two int64
            # matmuls (exact: contributions < 2^53, bounded term count
            # per query). The per-cell 2^53 guard does not bound the
            # SUM: a query of m matching terms can reach m * max|c|, so
            # guard the worst-case row sum against int64 before the
            # matmul (loud, never silent — and 'auto' pre-checks the
            # same bound driver-side so it never selects this path when
            # the guard could fire).
            mt = int(qm.sum(axis=1).max()) if qm.size else 0
            cmax = int(np.abs(c).max()) if c.size else 0
            if mt and cmax and cmax > (2 ** 63 - 1) // mt:
                raise ValueError(
                    "bm25 integer contract: per-query score sum could "
                    "exceed int64 (max |contribution| "
                    f"{cmax} × {mt} query terms); use scoring='float'"
                )
            scores = c @ qm.T                   # (n_docs, n_queries)
        else:
            c = _float_contrib_matrix(tf, dl, idf_v, n, t)
            scores = c @ qm.T.astype(np.float64)
        hits = ((tf > 0).astype(np.int64) @ qm.T) > 0
        out_q, out_d, out_s = [], [], []
        for qid in range(qm.shape[0]):
            h = np.flatnonzero(hits[:, qid])
            if h.size == 0:
                continue
            s = scores[h, qid]
            # tie-deterministic local top-k by (score DESC, doc_id ASC)
            # without sorting every matching doc (embed.topk_tied_idx:
            # O(B) partition + lexsort of the ~k boundary candidates)
            order = topk_tied_idx(s, ids[h], min(k, h.size))
            sel = h[order]
            out_q.append(np.full(sel.size, qid, dtype=np.int64))
            out_d.append(ids[sel].astype(np.int64))
            out_s.append(scores[sel, qid])
        if not out_q:
            return empty
        return pa.table(
            {
                "qid": pa.array(np.concatenate(out_q), pa.int64()),
                "doc_id": pa.array(np.concatenate(out_d), pa.int64()),
                score_col: pa.array(np.concatenate(out_s), score_type),
            }
        )

    def typed_empty() -> pa.Table:
        return pa.table(
            {
                "qid": pa.array([], pa.int64()),
                "doc_id": pa.array([], pa.int64()),
                "rank": pa.array([], pa.int64()),
                score_col: pa.array([], score_type),
            }
        )

    # materialize the bounded partials (≤ k × n_blocks rows by contract)
    # and short-circuit when NOTHING matched: an all-empty-blocks input
    # loses its schema through the hash shuffle (the Ray 2.49 empty-block
    # trap) and a column-less merge frame would KeyError downstream
    partials = inter.map_batches(
        local_topk, batch_format="pyarrow", batch_size=4096
    ).materialize()
    if partials.count() == 0:
        return typed_empty()

    def final(g):
        g = g.sort_values(
            [score_col, "doc_id"], ascending=[False, True]
        ).head(k).reset_index(drop=True)
        g["rank"] = np.arange(1, len(g) + 1, dtype=np.int64)
        return g

    merged = (
        partials.groupby("qid", num_partitions=2)
        .map_groups(final, batch_format="pandas")
        .to_pandas()
    )
    if merged.empty:
        # no document matched any query: an all-empty partials dataset
        # can surface as a column-less frame — return the typed empty
        # result instead of letting the projection KeyError
        return typed_empty()
    merged = merged.sort_values(["qid", "rank"]).reset_index(drop=True)
    merged = merged[["qid", "doc_id", "rank", score_col]]
    out = pa.Table.from_pandas(merged, preserve_index=False)
    return out.cast(
        pa.schema(
            [("qid", pa.int64()), ("doc_id", pa.int64()),
             ("rank", pa.int64()), (score_col, score_type)]
        )
    )


def sql_bm25_topk(
    queries: list[str], k: int = 10, table: str = "documents",
    id_col: str = "doc_id", text_col: str = "text",
) -> str:
    """DuckDB recompute of the full contract — same tokenizer rendering
    as sql_tfidf_topk, same left-associative double sequence."""
    # terms land inside SQL string literals: double any single quote
    # (general-API hardening; the driver's fixed query set has none)
    values = ", ".join(
        "({}, '{}')".format(qid, term.replace("'", "''"))
        for qid, tlist in enumerate(_query_terms(queries))
        for term in tlist
    )
    return f"""
        WITH q(qid, token) AS (VALUES {values}),
        docs AS (
          SELECT {id_col} AS doc_id, coalesce({text_col}, '') AS text
          FROM {table}
        ),
        tok AS (
          SELECT doc_id, unnest(
                   string_split_regex(trim(text), '\\s+')
                 ) AS token
          FROM docs WHERE trim(text) <> ''
        ),
        dl AS (
          SELECT doc_id, CAST(count(*) AS BIGINT) AS dl
          FROM tok GROUP BY doc_id
        ),
        stats AS (
          SELECT (SELECT CAST(count(*) AS BIGINT) FROM docs) AS n,
                 (SELECT CAST(count(*) AS BIGINT) FROM tok)  AS tt
        ),
        df AS (
          SELECT token, CAST(count(DISTINCT doc_id) AS BIGINT) AS df
          FROM tok WHERE token IN (SELECT token FROM q)
          GROUP BY token
        ),
        tf AS (
          SELECT q.qid, tok.doc_id, tok.token,
                 CAST(count(*) AS BIGINT) AS tf
          FROM tok JOIN q ON tok.token = q.token
          GROUP BY q.qid, tok.doc_id, tok.token
        ),
        contrib AS (
          SELECT tf.qid, tf.doc_id,
                 CAST(FLOOR(
                   (CAST(2*(s.n - df.df) + 1 AS DOUBLE) / (2*df.df + 1))
                   * (CAST(20*tf.tf*s.tt AS DOUBLE)
                      / (8*tf.tf*s.tt + 3*s.tt + 9*dl.dl*s.n))
                   * 1000000.0 + 0.5) AS BIGINT) AS c
          FROM tf
          JOIN df USING (token)
          JOIN dl USING (doc_id)
          CROSS JOIN stats s
        ),
        scores AS (
          SELECT qid, doc_id, CAST(SUM(c) AS BIGINT) AS score_ppm
          FROM contrib GROUP BY qid, doc_id
        )
        SELECT qid, doc_id, CAST(rnk AS BIGINT) AS rank, score_ppm
        FROM (
          SELECT qid, doc_id, score_ppm,
                 row_number() OVER (
                   PARTITION BY qid ORDER BY score_ppm DESC, doc_id
                 ) AS rnk
          FROM scores
        ) WHERE rnk <= {k}
    """


def rrf_fuse(
    rankings: list[pa.Table], k: int = 10, k0: int = RRF_K0,
    doc_col: str = "doc_id",
) -> pa.Table:
    """Reciprocal-rank fusion of bounded top-k tables, each carrying
    (qid, {doc_col}, rank). Fused score per (qid, doc) is the integer
    sum of floor(1e9/(k0 + rank) + 0.5) over the systems that ranked
    it. Returns (qid, doc_id, rank, rrf_score), top-k per query by
    (rrf_score DESC, doc_id ASC). Inputs are top-k lists — bounded by
    contract — so this is a driver-side arrow reduction; the corpus
    itself never flows through fusion."""
    fused: dict[tuple[int, int], int] = defaultdict(int)
    for tbl in rankings:
        for qid, did, rnk in zip(
            tbl["qid"].to_pylist(), tbl[doc_col].to_pylist(),
            tbl["rank"].to_pylist(),
        ):
            fused[(qid, did)] += math.floor(RRF_SCALE / (k0 + rnk) + 0.5)
    by_q: dict[int, list] = defaultdict(list)
    for (qid, did), s in fused.items():
        by_q[qid].append((-s, did))
    out_q, out_d, out_r, out_s = [], [], [], []
    for qid in sorted(by_q):
        for rnk, (neg, did) in enumerate(
            heapq.nsmallest(k, by_q[qid]), start=1
        ):
            out_q.append(qid)
            out_d.append(did)
            out_r.append(rnk)
            out_s.append(-neg)
    return pa.table(
        {
            "qid": pa.array(out_q, pa.int64()),
            "doc_id": pa.array(out_d, pa.int64()),
            "rank": pa.array(out_r, pa.int64()),
            "rrf_score": pa.array(out_s, pa.int64()),
        }
    )
