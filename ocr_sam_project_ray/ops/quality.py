"""Gopher/C4-style document quality rules — the standard pre-training
corpus hygiene pass (Rae et al. 2021 "Scaling Language Models" appendix A
/ Raffel et al. 2020 C4): repetition, shape and symbol heuristics that
drop machine-generated or boilerplate junk before training.

Every metric is an INTEGER counter and every rule an integer comparison,
so the DuckDB oracle (``sql_quality_gopher``) recomputes the whole surface
exactly — no float-ratio parity traps (the engine-wide rule: a money
value is compared as DuckDB's ``CAST(round(x*100) AS BIGINT)`` integer
cents, never as a float). The rule thresholds are the published Gopher values
expressed in integer math, e.g. "mean word length in [3, 10]" becomes
``3*n_words <= sum_word_len <= 10*n_words``.

Scale shape: one stateless vectorized ``map_batches`` pass — no shuffle,
no state, no driver work; the per-batch kernel is Arrow split/regex/count
kernels plus bincount/reduceat folds (``_metrics_batch`` — no Python
strings; ``quality_row`` remains the scalar reference, equality-pinned).
Filtering (``filter_quality``) happens in the same batch that scored it,
so rejected payloads never travel.

Metric contract (all on ``coalesce(text, '')``):
- lines  = text.split("\\n")           (so even "" has 1 line)
- words  = textstats.tokenize(text)    (strip, split \\s+, "" -> [])
- alpha word  = word containing >= 1 ASCII letter
- bullet line = line matching ^[ \\t]*[-*•]   (explicit [ \\t], NOT \\s —
  Python re and DuckDB RE2 disagree on unicode whitespace classes)
- ellipsis line = line matching (\\.\\.\\.|…)[ \\t]*$
- '...' symbol count = non-overlapping count (str.count == replace-based
  SQL count, both consume left-to-right)
- max_word_count / stop hits are over LOWERCASED words; stop set =
  textstats.STOPWORDS["en"] (10 words, the C4 "contains stopwords" rule)

Rules (gopher_pass = all of):
  R1  50 <= n_words <= 100000                (word-count bounds)
  R2  3*n_words <= sum_word_len <= 10*n_words  (mean word length 3..10)
  R3  10*n_alpha_words >= 8*n_words          (>= 80% words alphabetic)
  R4  10*n_bullet_lines <= 9*n_lines         (<= 90% bullet lines)
  R5  10*n_ellipsis_lines <= 3*n_lines       (<= 30% ellipsis lines)
  R6  10*n_hash_sym <= n_words               (# -to-word ratio <= 0.1)
  R7  10*n_ellipsis_sym <= n_words           ('...'-to-word ratio <= 0.1)
  R8  10*(n_lines - n_distinct_lines) <= 3*n_lines  (<= 30% dup lines)
  R9  10*max_word_count <= 2*n_words         (top word covers <= 20%)
  R10 n_stop_hits >= 2                       (C4 stopword evidence)
"""

from __future__ import annotations

import re
from collections import Counter

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .textstats import STOPWORDS, flat_tokens, tokenize

_ALPHA = re.compile(r"[A-Za-z]")
_BULLET = re.compile(r"^[ \t]*[-*\u2022]")
_ELLIPSIS_END = re.compile(r"(\.\.\.|\u2026)[ \t]*$")

_STOP_EN = frozenset(STOPWORDS["en"])

QUALITY_COLUMNS = (
    "n_lines",
    "n_distinct_lines",
    "n_words",
    "sum_word_len",
    "n_alpha_words",
    "n_bullet_lines",
    "n_ellipsis_lines",
    "n_hash_sym",
    "n_ellipsis_sym",
    "max_word_count",
    "n_stop_hits",
)


def quality_row(text: str | None) -> dict:
    t = text or ""
    lines = t.split("\n")
    words = tokenize(t)
    lwords = [w.lower() for w in words]
    counts = Counter(lwords)
    row = {
        "n_lines": len(lines),
        "n_distinct_lines": len(set(lines)),
        "n_words": len(words),
        "sum_word_len": sum(len(w) for w in words),
        "n_alpha_words": sum(1 for w in words if _ALPHA.search(w)),
        "n_bullet_lines": sum(1 for x in lines if _BULLET.match(x)),
        "n_ellipsis_lines": sum(1 for x in lines if _ELLIPSIS_END.search(x)),
        "n_hash_sym": t.count("#"),
        "n_ellipsis_sym": t.count("..."),
        "max_word_count": max(counts.values()) if counts else 0,
        "n_stop_hits": sum(1 for w in lwords if w in _STOP_EN),
    }
    row["gopher_pass"] = _passes(row)
    return row


def _passes(r: dict) -> bool:
    nw, nl = r["n_words"], r["n_lines"]
    return (
        50 <= nw <= 100000
        and 3 * nw <= r["sum_word_len"] <= 10 * nw
        and 10 * r["n_alpha_words"] >= 8 * nw
        and 10 * r["n_bullet_lines"] <= 9 * nl
        and 10 * r["n_ellipsis_lines"] <= 3 * nl
        and 10 * r["n_hash_sym"] <= nw
        and 10 * r["n_ellipsis_sym"] <= nw
        and 10 * (nl - r["n_distinct_lines"]) <= 3 * nl
        and 10 * r["max_word_count"] <= 2 * nw
        and r["n_stop_hits"] >= 2
    )


def _seg_sum_int(doc_idx: np.ndarray, vals: np.ndarray, n: int) -> np.ndarray:
    """Exact int64 per-row sums over a NON-DECREASING row index (reduceat
    segments — no float accumulation)."""
    out = np.zeros(n, dtype=np.int64)
    if doc_idx.size:
        starts = np.flatnonzero(np.r_[True, doc_idx[1:] != doc_idx[:-1]])
        out[doc_idx[starts]] = np.add.reduceat(
            vals.astype(np.int64), starts
        )
    return out


def _pair_stats(
    flat, doc_idx: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """(n_distinct, max_multiplicity) per row of a flat string column —
    one dictionary_encode + one np.unique over composite keys (the
    textstats.doc_token_counts idiom)."""
    distinct = np.zeros(n, dtype=np.int64)
    mx = np.zeros(n, dtype=np.int64)
    if len(flat) == 0:
        return distinct, mx
    enc = pc.dictionary_encode(flat)
    codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    ndict = len(enc.dictionary)
    uk, counts = np.unique(doc_idx * ndict + codes, return_counts=True)
    pair_doc = (uk // ndict).astype(np.int64)
    distinct = np.bincount(pair_doc, minlength=n).astype(np.int64)
    starts = np.flatnonzero(np.r_[True, pair_doc[1:] != pair_doc[:-1]])
    mx[pair_doc[starts]] = np.maximum.reduceat(counts, starts)
    return distinct, mx


_STOP_ARR = pa.array(sorted(_STOP_EN), pa.string())


def _metrics_batch(col) -> dict[str, np.ndarray]:
    """All 11 integer metrics for one batch, fully vectorized — Arrow
    split/regex/count kernels plus bincount/reduceat folds; no Python
    strings in the hot path. Exact parity with quality_row is pinned by
    test_quality (nulls, unicode whitespace, bullets, ellipses). One
    documented edge: token lowercasing is ``pc.utf8_lower`` —
    non-context-sensitive Unicode case mapping, the same utf8proc
    mapping DuckDB's ``lower()`` uses, so the ORACLE agrees exactly;
    Python's ``str.lower()`` (quality_row) differs only on
    context-sensitive mappings (Greek final sigma), which the engine's
    corpora never hit and the pinned test documents."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    n = len(col)
    filled = pc.fill_null(col, "")
    # --- line metrics ---
    la = pc.split_pattern(filled, "\n")
    n_lines = pc.list_value_length(la).to_numpy().astype(np.int64)
    flat_lines = pc.list_flatten(la)
    line_doc = np.repeat(np.arange(n, dtype=np.int64), n_lines)
    n_distinct_lines, _ = _pair_stats(flat_lines, line_doc, n)
    bullet = pc.match_substring_regex(
        flat_lines, r"^[ \t]*[-*•]"
    ).to_numpy(zero_copy_only=False)
    ellipsis_l = pc.match_substring_regex(
        flat_lines, r"(\.\.\.|…)[ \t]*$"
    ).to_numpy(zero_copy_only=False)
    n_bullet = np.bincount(line_doc[bullet], minlength=n).astype(np.int64)
    n_ellipsis = np.bincount(
        line_doc[ellipsis_l], minlength=n
    ).astype(np.int64)
    # --- word metrics ---
    dl, flat, doc_idx = flat_tokens(col)
    wlens = pc.utf8_length(flat).to_numpy(zero_copy_only=False)
    sum_word_len = _seg_sum_int(doc_idx, wlens, n)
    alpha = pc.match_substring_regex(flat, "[A-Za-z]").to_numpy(
        zero_copy_only=False
    )
    n_alpha = np.bincount(doc_idx[alpha], minlength=n).astype(np.int64)
    lflat = pc.utf8_lower(flat)
    _, max_word_count = _pair_stats(lflat, doc_idx, n)
    stop_hit = pc.is_in(lflat, value_set=_STOP_ARR).to_numpy(
        zero_copy_only=False
    )
    n_stop = np.bincount(doc_idx[stop_hit], minlength=n).astype(np.int64)
    # --- symbol metrics (left-to-right non-overlapping, like str.count) ---
    n_hash = pc.count_substring(filled, "#").to_numpy().astype(np.int64)
    n_ell_sym = pc.count_substring(filled, "...").to_numpy().astype(
        np.int64
    )
    return {
        "n_lines": n_lines,
        "n_distinct_lines": n_distinct_lines,
        "n_words": dl,
        "sum_word_len": sum_word_len,
        "n_alpha_words": n_alpha,
        "n_bullet_lines": n_bullet,
        "n_ellipsis_lines": n_ellipsis,
        "n_hash_sym": n_hash,
        "n_ellipsis_sym": n_ell_sym,
        "max_word_count": max_word_count,
        "n_stop_hits": n_stop,
    }


def _passes_vec(m: dict[str, np.ndarray]) -> np.ndarray:
    """Vectorized _passes over the metric vectors (same R1–R10)."""
    nw, nl = m["n_words"], m["n_lines"]
    return (
        (nw >= 50) & (nw <= 100000)
        & (3 * nw <= m["sum_word_len"]) & (m["sum_word_len"] <= 10 * nw)
        & (10 * m["n_alpha_words"] >= 8 * nw)
        & (10 * m["n_bullet_lines"] <= 9 * nl)
        & (10 * m["n_ellipsis_lines"] <= 3 * nl)
        & (10 * m["n_hash_sym"] <= nw)
        & (10 * m["n_ellipsis_sym"] <= nw)
        & (10 * (nl - m["n_distinct_lines"]) <= 3 * nl)
        & (10 * m["max_word_count"] <= 2 * nw)
        & (m["n_stop_hits"] >= 2)
    )


def quality_batch(batch: pa.Table, id_col: str = "doc_id",
                  text_col: str = "text") -> pa.Table:
    m = _metrics_batch(batch.column(text_col))
    cols: dict = {id_col: batch.column(id_col)}
    for name in QUALITY_COLUMNS:
        cols[name] = pa.array(m[name], pa.int64())
    cols["gopher_pass"] = pa.array(_passes_vec(m), pa.bool_())
    return pa.table(cols)


def score_quality(ds, *, id_col: str = "doc_id", text_col: str = "text"):
    """Dataset → Dataset(id, 11 integer metrics, gopher_pass)."""
    return ds.map_batches(
        lambda b: quality_batch(b, id_col, text_col), batch_format="pyarrow"
    )


def filter_quality(ds, *, text_col: str = "text"):
    """Dataset → Dataset of passing docs (all columns), filtered inside the
    scoring batch — rejected payloads never leave the task."""

    def keep(batch: pa.Table) -> pa.Table:
        mask = pa.array(_passes_vec(_metrics_batch(batch.column(text_col))))
        return batch.filter(mask)

    return ds.map_batches(keep, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# oracle rendering (DuckDB). Same integer contract, recomputed from scratch.
# ---------------------------------------------------------------------------

def _sql_strip(expr: str) -> str:
    """Python ``str.strip()`` equivalent: DuckDB ``trim`` strips only spaces
    by default, so pass the ASCII whitespace set explicitly."""
    ws = "' ' || chr(9) || chr(10) || chr(13) || chr(12) || chr(11)"
    return f"trim({expr}, {ws})"


def sql_quality_gopher(table: str = "documents", id_col: str = "doc_id",
                       text_col: str = "text") -> str:
    stop = ", ".join(f"'{w}'" for w in STOPWORDS["en"])
    strip = _sql_strip(f"coalesce({text_col}, '')")
    strip_l = _sql_strip(f"lower(coalesce({text_col}, ''))")
    return f"""
WITH base AS (
  SELECT {id_col},
         coalesce({text_col}, '') AS t,
         string_split(coalesce({text_col}, ''), chr(10)) AS lines,
         CASE WHEN {strip} = '' THEN CAST([] AS VARCHAR[])
              ELSE string_split_regex({strip}, '\\s+')
         END AS words,
         CASE WHEN {strip} = '' THEN CAST([] AS VARCHAR[])
              ELSE string_split_regex({strip_l}, '\\s+')
         END AS lwords
  FROM {table}
), m AS (
  SELECT {id_col},
         len(lines) AS n_lines,
         len(list_distinct(lines)) AS n_distinct_lines,
         len(words) AS n_words,
         CAST(coalesce(list_sum(list_transform(words, w -> len(w))), 0) AS BIGINT) AS sum_word_len,
         len(list_filter(words, w -> regexp_matches(w, '[A-Za-z]'))) AS n_alpha_words,
         len(list_filter(lines, x -> regexp_matches(x, '^[ \\t]*[-*\u2022]'))) AS n_bullet_lines,
         len(list_filter(lines, x -> regexp_matches(x, '(\\.\\.\\.|\u2026)[ \\t]*$'))) AS n_ellipsis_lines,
         length(t) - length(replace(t, '#', '')) AS n_hash_sym,
         (length(t) - length(replace(t, '...', ''))) // 3 AS n_ellipsis_sym,
         coalesce(list_max(list_transform(list_distinct(lwords),
                  w -> len(list_filter(lwords, x -> x = w)))), 0) AS max_word_count,
         len(list_filter(lwords, w -> list_contains([{stop}], w))) AS n_stop_hits
  FROM base
)
SELECT *,
       (n_words BETWEEN 50 AND 100000
        AND 3 * n_words <= sum_word_len AND sum_word_len <= 10 * n_words
        AND 10 * n_alpha_words >= 8 * n_words
        AND 10 * n_bullet_lines <= 9 * n_lines
        AND 10 * n_ellipsis_lines <= 3 * n_lines
        AND 10 * n_hash_sym <= n_words
        AND 10 * n_ellipsis_sym <= n_words
        AND 10 * (n_lines - n_distinct_lines) <= 3 * n_lines
        AND 10 * max_word_count <= 2 * n_words
        AND n_stop_hits >= 2) AS gopher_pass
FROM m
ORDER BY {id_col}
""".strip()
