"""Sharded inverted-index build: token -> sorted posting list of doc
ids. The retrieval-index step a training-data platform runs over its
curated corpus (RAG stores, contamination lookups, concordance audits —
the classic sort-based index construction, cf. Manning et al., IIR ch.4
"BSBI/SPIMI": distribute postings by term, sort within term).

Scale shape:
1. per-batch combiner: DISTINCT (token, doc_id) pairs per batch (a doc's
   rows never split across batches, so per-doc distinctness is exact) —
   repeated tokens collapse before anything moves;
2. ONE hash repartition on the token key (``repartition(keys=...)`` —
   the engine's keyed-shuffle convention, cf. line_dedup);
3. partition-local finish inside ``map_batches``: pyarrow
   ``group_by(token).aggregate(doc_id: list)`` then a vectorized
   per-list sort — every posting row for a token lives in exactly one
   partition after the shuffle, so the group is complete.
Output Dataset(token, df:int64, postings:list<int64>), postings sorted
ascending — a deterministic, SQL-recomputable rendering
(``list(DISTINCT doc_id ORDER BY doc_id)``).

Posting lists are doc-frequency-bounded; a stopword's list over the full
corpus is the classic skew risk. ``max_postings`` caps the stored list
(keeping the SMALLEST doc ids — deterministic) while ``df`` always keeps
the TRUE count, so a capped term is visible as ``df > len(postings)``
(no-silent-caps rule); the driver contract runs uncapped (the oracle
recomputes full lists).

The reference has no index/retrieval surface (one document per Lambda);
beyond-reference training-data op.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ray.data import Dataset

from ..context import configure_data_context
from .textstats import doc_token_counts


def build_inverted_index(
    ds: Dataset, id_col: str = "doc_id", text_col: str = "text",
    num_partitions: int = 8, max_postings: int | None = None,
) -> Dataset:
    """Dataset(token, df, postings) — see module docstring."""
    configure_data_context()

    def pairs(batch: pa.Table) -> pa.Table:
        # distinct (doc, token) pairs, vectorized (doc_token_counts —
        # the tf side is discarded; distinctness is exactly the posting
        # contract)
        pair_doc, pair_token, _tf, _dl = doc_token_counts(batch[text_col])
        return pa.table(
            {
                "token": pair_token,
                "doc_id": batch[id_col].take(
                    pa.array(pair_doc, pa.int64())
                ).cast(pa.int64()),
            }
        )

    posting_rows = (
        ds.map_batches(pairs, batch_format="pyarrow")
        .repartition(num_blocks=num_partitions, keys=["token"])
    )

    def finish(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table(
                {
                    "token": pa.array([], pa.string()),
                    "df": pa.array([], pa.int64()),
                    "postings": pa.array([], pa.list_(pa.int64())),
                }
            )
        grouped = batch.group_by("token").aggregate([("doc_id", "list")])
        tokens = grouped["token"]
        lists = [sorted(v) for v in grouped["doc_id_list"].to_pylist()]
        df = pa.array([len(v) for v in lists], pa.int64())
        if max_postings is not None:
            lists = [v[:max_postings] for v in lists]
        return pa.table(
            {
                "token": tokens,
                "df": df,
                "postings": pa.array(lists, pa.list_(pa.int64())),
            }
        )

    # batch_size=None: one batch per shuffled block, so every posting row
    # of a token is in the same `finish` call (group completeness)
    return posting_rows.map_batches(finish, batch_format="pyarrow",
                                    batch_size=None)


def lookup_postings(index: Dataset, tokens: list[str]) -> pa.Table:
    """Driver-side point lookup for a bounded token set (filter is
    pushed into every block scan; result is len(tokens)-bounded)."""
    import pyarrow.compute as pc

    tok_set = pa.array(tokens, pa.string())

    def probe(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.is_in(batch["token"], value_set=tok_set))

    hits = index.map_batches(probe, batch_format="pyarrow").to_pandas()
    return pa.Table.from_pandas(hits, preserve_index=False)


def sql_inverted_index(table: str = "documents", id_col: str = "doc_id",
                       text_col: str = "text") -> str:
    """DuckDB recompute: postings = list(DISTINCT id ORDER BY id)."""
    toks = f"string_split_regex(trim(coalesce({text_col}, '')), '\\s+')"
    return f"""
        WITH pairs AS (
          SELECT DISTINCT {id_col} AS doc_id, unnest({toks}) AS token
          FROM {table} WHERE trim(coalesce({text_col}, '')) <> ''
        )
        SELECT token,
               CAST(count(*) AS BIGINT) AS df,
               list(doc_id ORDER BY doc_id) AS postings
        FROM pairs GROUP BY token ORDER BY token
    """


def _np_intersect(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.intersect1d(a, b, assume_unique=True)


def conjunctive_query(index: Dataset, tokens: list[str]) -> list[int]:
    """AND-query: doc ids containing ALL tokens (sorted). Intersects the
    (bounded) looked-up posting lists smallest-first — the standard
    conjunctive-query optimization."""
    hits = lookup_postings(index, tokens)
    found = {t: np.asarray(p, dtype=np.int64)
             for t, p in zip(hits["token"].to_pylist(),
                             hits["postings"].to_pylist())}
    if len(found) < len(set(tokens)):
        return []  # some token absent from the corpus
    lists = sorted(found.values(), key=len)
    cur = lists[0]
    for nxt in lists[1:]:
        if cur.size == 0:
            break
        cur = _np_intersect(cur, nxt)
    return cur.tolist()


# --------------------------------------------------------------------------
# Phrase search — positional retrieval without a positional index
# --------------------------------------------------------------------------


def phrase_search(
    ds: Dataset,
    phrases: list[str],
    id_col: str = "doc_id",
    text_col: str = "text",
) -> Dataset:
    """(doc_id, phrase, n_hits) for every document containing each query
    phrase as a CONSECUTIVE token run — the positional-query sibling of
    conjunctive_query (which only tests co-occurrence). A doc matches a
    k-token phrase iff the phrase equals one of the doc's token
    k-grams under the engine-wide tokenizer contract; ``n_hits`` counts
    the (possibly overlapping) occurrences.

    Scale shape: ZERO shuffle. The phrase set is a bounded broadcast
    (captured in the task closure); per batch, one flat_tokens pass +
    one ``ngrams_from_flat`` + ``pc.is_in`` per distinct phrase LENGTH
    (not per phrase), and every doc lives in exactly one batch row so
    per-batch outputs are final. The gram construction is the shared
    textstats kernel — "phrase" means the same thing as every other
    n-gram op corpus-wide.
    """
    from .textstats import flat_tokens, ngrams_from_flat

    configure_data_context()
    by_len: dict[int, list[str]] = {}
    for p in _normalized_phrases(phrases):
        by_len.setdefault(len(p.split()), []).append(p)

    def search(batch: pa.Table) -> pa.Table:
        return phrase_hits_batch(batch[id_col], batch[text_col],
                                 by_len, id_col)

    return ds.map_batches(search, batch_format="pyarrow", batch_size=None)


def _normalized_phrases(phrases: list[str]) -> list[str]:
    """Single-space-joined token runs of ``phrases``, first occurrence
    kept: "a  b" and "a b" are one phrase, so a repeated phrase yields its
    hit rows once, in ``phrase_search`` and ``sql_phrase_search`` alike."""
    out = []
    for p in phrases:
        toks = p.split()
        if not toks:
            raise ValueError(f"empty phrase {p!r}")
        out.append(" ".join(toks))
    return list(dict.fromkeys(out))


def phrase_hits_batch(id_arr, text_arr, by_len: dict,
                      id_col: str = "doc_id") -> pa.Table:
    """Pure per-batch phrase-hit kernel (exported so the hypothesis
    parity fuzz can drive it without a Ray session): (id, phrase,
    n_hits) rows for every (row, phrase) with >= 1 consecutive-token
    match. ``by_len`` maps phrase token count -> list of normalized
    phrases (single-space joined)."""
    import pyarrow.compute as pc

    from .textstats import flat_tokens, ngrams_from_flat

    empty = pa.table({
        id_col: pa.array([], pa.int64()),
        "phrase": pa.array([], pa.string()),
        "n_hits": pa.array([], pa.int64()),
    })
    if len(id_arr) == 0:
        return empty
    ids = id_arr.to_numpy(zero_copy_only=False)
    _, flat, doc_idx = flat_tokens(text_arr)
    out_doc, out_phrase, out_hits = [], [], []
    for n, plist in by_len.items():
        grams, gdoc = ngrams_from_flat(flat, doc_idx, n)
        if len(grams) == 0:
            continue
        hit = pc.is_in(grams, value_set=pa.array(plist, pa.string()))
        hit_np = hit.to_numpy(zero_copy_only=False)
        if not hit_np.any():
            continue
        hg = grams.filter(hit)
        hd = gdoc[hit_np]
        # count occurrences per (row, phrase) via one dictionary
        # encode + np.unique — no Python loop over hits
        enc = pc.dictionary_encode(hg)
        codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        nd = len(enc.dictionary)
        key = hd * nd + codes
        uk, cnt = np.unique(key, return_counts=True)
        out_doc.append(ids[uk // nd])
        out_phrase.append(enc.dictionary.take(pa.array(uk % nd, pa.int64())))
        out_hits.append(cnt.astype(np.int64))
    if not out_doc:
        return empty
    return pa.table({
        id_col: pa.array(np.concatenate(out_doc), pa.int64()),
        "phrase": pa.concat_arrays(
            [a.combine_chunks() if isinstance(a, pa.ChunkedArray) else a
             for a in out_phrase]),
        "n_hits": pa.array(np.concatenate(out_hits), pa.int64()),
    })


def sql_phrase_search(phrases: list[str], table: str = "documents",
                      id_col: str = "doc_id", text_col: str = "text") -> str:
    """DuckDB recompute: per phrase, count equal token n-grams (the
    trigram-oracle gram construction, generalized to the phrase's n)."""
    from .urltools import _sql_escape

    toks_expr = f"string_split_regex(trim({text_col}), '\\s+')"
    selects = []
    for p in _normalized_phrases(phrases):
        n = len(p.split())
        gram = " || ' ' || ".join(f"ws[i+{j}]" for j in range(n))
        lit = _sql_escape(p)
        selects.append(f"""
        SELECT {id_col}, '{lit}' AS phrase,
               CAST(list_sum(list_transform(
                 generate_series(1, greatest(len(ws) - {n - 1}, 0)),
                 i -> CASE WHEN {gram} = '{lit}' THEN 1 ELSE 0 END))
                 AS BIGINT) AS n_hits
        FROM (SELECT {id_col},
                     CASE WHEN trim({text_col}) = '' THEN []
                          ELSE {toks_expr} END AS ws
              FROM {table})
        WHERE n_hits > 0""")
    return " UNION ALL ".join(selects) + f" ORDER BY phrase, {id_col}"
