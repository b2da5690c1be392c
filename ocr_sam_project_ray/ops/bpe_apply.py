"""Apply a fixed BPE merge list to the corpus at scale — the ENCODE half
of the tokenizer lifecycle (Sennrich, Haddow & Birch 2016 §3.2: merges
are applied to new text in the order they were learned, each pass
merging leftmost non-overlapping occurrences). This is the op a training-data pipeline runs on every
document after the tokenizer is frozen: exact token counts for packing
/ budgeting, and the realized subword frequency table.

Packed representation — the trick that makes the apply both fast and
fully SQL-recomputable: every symbol is exactly ONE character. Initial
symbols are the word's own characters; merge k's output symbol is the
private-use-area character chr(0xE000+k). Applying merge (a, b) is then
a plain string replace of sym(a)+sym(b) (a 2-char pattern) with the
1-char output — and str.replace's leftmost non-overlapping single pass
is EXACTLY reference BPE's merge semantics (pinned by test_bpe_apply
against a per-word merge loop applied sequentially). Because the pattern
spans precisely two whole symbols, no false match across symbol boundaries is
possible, and DuckDB's replace() has the same single-pass semantics —
so the oracle recomputes the encode VERBATIM as a chain of replace()
calls built from the same table (sql helpers below).

Scale shape: one column-pruned corpus pass; per batch the flat word
list is np.unique'd so each DISTINCT word is encoded once (vocabulary
is Zipf — at 100 TB the per-batch hit rate is near total) and per-doc
sums are bincount scatters; the merge table is tiny and ships once per
task as a capture. bpe_token_freqs adds one vocabulary-bounded
token-key groupby (the token_df pattern). No other shuffle.

The reference repo has no tokenizer surface; beyond-reference
training-data op (see SURVEY.md §2 "beyond the reference").
"""

from __future__ import annotations

import re
from collections import Counter

import numpy as np
import pyarrow as pa

from ray.data import Dataset
from ray.data.aggregate import Sum

from ..context import configure_data_context
from .textstats import tokenize

PUA_BASE = 0xE000  # Unicode private-use area: never in real text

# Demo merge list for the registered queries — fixed (not learned) so
# the DuckDB oracle can embed the same replace chain. Exercises every
# structural case: base+base, merged+base chains three deep ("data"),
# and merged+merged ("jo"+"in" -> "join").
DEMO_MERGES: list[tuple[str, str]] = [
    ("t", "h"),
    ("th", "e"),      # -> "the"
    ("d", "a"),
    ("da", "t"),
    ("dat", "a"),     # -> "data" (three-level chain)
    ("i", "n"),
    ("j", "o"),
    ("jo", "in"),     # -> "join" (merged + merged)
    ("e", "r"),
    ("s", "t"),
    ("o", "r"),
    ("a", "r"),
]


def build_replace_table(
    merges: list[tuple[str, str]],
) -> tuple[list[tuple[str, str]], dict[str, str]]:
    """Compile a merge list into (replace_table, decode_map).

    replace_table: [(2-char packed pattern, 1-char packed output)] in
    merge order; decode_map: packed char -> symbol string (base chars
    map to themselves implicitly and are absent).

    Two corner cases of string-valued BPE symbols are preserved:
    - two merges producing the SAME output string (e.g. (a,bc) and
      (ab,c) both yield "abc") must yield the same symbol — the later
      merge reuses the earlier output's packed char;
    - a merge whose element string was never produced by any earlier
      merge (and is multi-char, so it can't be a base symbol) can never
      match any sequence — it is dropped from the table, exactly as it
      would never fire in the list-of-strings form.
    """
    # the BMP private-use area is 6400 codepoints (U+E000–U+F8FF);
    # past it chr(PUA_BASE+k) would collide with REAL characters (CJK
    # compatibility ideographs) and the input guard would start
    # rejecting legitimate text — refuse loudly (a >6400-merge frozen
    # tokenizer needs an int-array symbol representation, not chars)
    if len(merges) > 6400:
        raise ValueError(
            f"{len(merges)} merges exceed the 6400-codepoint private-"
            "use area the packed representation draws from"
        )
    sym: dict[str, str] = {}   # symbol string -> packed char
    decode: dict[str, str] = {}
    table: list[tuple[str, str]] = []
    for k, (a, b) in enumerate(merges):
        pa_ = a if len(a) == 1 else sym.get(a)
        pb = b if len(b) == 1 else sym.get(b)
        if pa_ is None or pb is None:
            continue  # unreachable merge: element string never produced
        out = a + b
        ch = sym.get(out)
        if ch is None:
            ch = chr(PUA_BASE + k)
            sym[out] = ch
            decode[ch] = out
        table.append((pa_ + pb, ch))
    return table, decode


def _guard_re(n_merges: int) -> "re.Pattern[str]":
    hi = PUA_BASE + max(n_merges, 1) - 1
    return re.compile(f"[{chr(PUA_BASE)}-{chr(hi)}]")


def encode_packed(word: str, table: list[tuple[str, str]]) -> str:
    """Encode one word to its packed symbol string (len == n_tokens)."""
    s = word
    for pat, rep in table:
        if pat in s:
            s = s.replace(pat, rep)
    return s


def encode_word(word: str, merges: list[tuple[str, str]]) -> list[str]:
    """Token strings for one word — the human-readable form (tests /
    small interactive use; the distributed ops stay packed)."""
    table, decode = build_replace_table(merges)
    return [decode.get(c, c) for c in encode_packed(word, table)]


def _doc_token_lists(texts: list) -> tuple[list[str], np.ndarray]:
    """Flatten per-doc whitespace tokens; returns (flat words,
    per-doc counts)."""
    counts = np.empty(len(texts), dtype=np.int64)
    flat: list[str] = []
    for i, t in enumerate(texts):
        toks = tokenize(t)
        counts[i] = len(toks)
        flat.extend(toks)
    return flat, counts


def bpe_encode_stats(
    ds: Dataset,
    merges: list[tuple[str, str]] = DEMO_MERGES,
    id_col: str = "doc_id",
    text_col: str = "text",
) -> Dataset:
    """Per-document encode statistics under a frozen merge list:
    (id, n_words, n_chars, n_tokens). Empty/whitespace-only docs are
    kept with zeros (the oracle keeps every doc_id too). n_tokens is
    the exact BPE token count — the number a packing/budgeting stage
    consumes (cf. ops/corpus_stats.pack_documents)."""
    table, _ = build_replace_table(merges)
    guard = _guard_re(len(merges))

    def enc(batch: pa.Table) -> pa.Table:
        texts = batch[text_col].to_pylist()
        flat, counts = _doc_token_lists(texts)
        n = len(texts)
        if flat:
            uniq, inv = np.unique(np.asarray(flat, dtype=object),
                                  return_inverse=True)
            for w in uniq:
                if guard.search(w):
                    raise ValueError(
                        "input word contains a private-use char reserved "
                        f"for packed BPE symbols: {w!r}"
                    )
            enc_len = np.array(
                [len(encode_packed(w, table)) for w in uniq], dtype=np.int64
            )
            char_len = np.array([len(w) for w in uniq], dtype=np.int64)
            doc_idx = np.repeat(np.arange(n), counts)
            # bincount weights are float64: exact for lengths < 2^53
            n_tokens = np.bincount(
                doc_idx, weights=enc_len[inv], minlength=n
            ).astype(np.int64)
            n_chars = np.bincount(
                doc_idx, weights=char_len[inv], minlength=n
            ).astype(np.int64)
        else:
            n_tokens = np.zeros(n, dtype=np.int64)
            n_chars = np.zeros(n, dtype=np.int64)
        return pa.table(
            {
                id_col: batch[id_col],
                "n_words": pa.array(counts, pa.int64()),
                "n_chars": pa.array(n_chars, pa.int64()),
                "n_tokens": pa.array(n_tokens, pa.int64()),
            }
        )

    return ds.select_columns([id_col, text_col]).map_batches(
        enc, batch_format="pyarrow"
    )


def bpe_token_freqs(
    ds: Dataset,
    merges: list[tuple[str, str]] = DEMO_MERGES,
    text_col: str = "text",
    num_partitions: int = 4,
) -> Dataset:
    """Realized subword frequency table (token, freq) over the corpus
    under a frozen merge list — what a vocabulary-coverage audit reads.
    Per-batch partial Counter over DECODED tokens (rows bounded by the
    subword vocabulary) -> one token-key groupby sum."""
    table, decode = build_replace_table(merges)
    guard = _guard_re(len(merges))
    configure_data_context()

    def partial(batch: pa.Table) -> pa.Table:
        flat, _ = _doc_token_lists(batch[text_col].to_pylist())
        counts: Counter = Counter()
        if flat:
            uniq, uniq_counts = np.unique(
                np.asarray(flat, dtype=object), return_counts=True
            )
            for w, m in zip(uniq, uniq_counts):
                if guard.search(w):
                    raise ValueError(
                        "input word contains a private-use char reserved "
                        f"for packed BPE symbols: {w!r}"
                    )
                for c in encode_packed(w, table):
                    counts[decode.get(c, c)] += int(m)
        tokens = sorted(counts)
        return pa.table(
            {
                "token": pa.array(tokens, pa.string()),
                "freq": pa.array([counts[t] for t in tokens], pa.int64()),
            }
        )

    return (
        ds.select_columns([text_col])
        .map_batches(partial, batch_format="pyarrow")
        .groupby("token", num_partitions=num_partitions)
        .aggregate(Sum("freq", alias_name="freq"))
    )


# ---------------------------------------------------------------- SQL

def _sql_char_lit(s: str) -> str:
    """A string literal built from chr() calls — immune to quoting and
    safe for private-use codepoints."""
    return "||".join(f"chr({ord(c)})" for c in s) if s else "''"


def sql_replace_chain(expr: str, merges: list[tuple[str, str]]) -> str:
    """The packed encode as nested DuckDB replace() calls — the exact
    same single-pass leftmost semantics as str.replace (binder depth
    allows ~40 nested calls; DEMO_MERGES is 12)."""
    table, _ = build_replace_table(merges)
    if len(table) > 40:
        raise ValueError(
            "replace chain too deep for one DuckDB expression; stage it "
            "through CTE chunks (cf. ops/mojibake.py)"
        )
    for pat, rep in table:
        expr = f"replace({expr}, {_sql_char_lit(pat)}, {_sql_char_lit(rep)})"
    return expr


def sql_bpe_encode_stats(
    merges: list[tuple[str, str]] = DEMO_MERGES,
    table: str = "documents",
    id_col: str = "doc_id",
    text_col: str = "text",
) -> str:
    chain = sql_replace_chain("w", merges)
    toks = (
        f"CASE WHEN trim(coalesce({text_col}, '')) = '' "
        f"THEN CAST([] AS VARCHAR[]) "
        f"ELSE string_split_regex(trim(coalesce({text_col}, '')), '\\s+') END"
    )
    return f"""
        WITH docs AS (SELECT {id_col}, {toks} AS toks FROM {table})
        SELECT {id_col},
               CAST(len(toks) AS BIGINT) AS n_words,
               CAST(coalesce(list_sum(list_transform(toks,
                    w -> length(w))), 0) AS BIGINT) AS n_chars,
               CAST(coalesce(list_sum(list_transform(toks,
                    w -> length({chain}))), 0) AS BIGINT) AS n_tokens
        FROM docs ORDER BY {id_col}
    """


def sql_bpe_token_freqs(
    merges: list[tuple[str, str]] = DEMO_MERGES,
    table: str = "documents",
    text_col: str = "text",
) -> str:
    chain = sql_replace_chain("w", merges)
    _, decode = build_replace_table(merges)
    whens = " ".join(
        f"WHEN {_sql_char_lit(c)} THEN {_sql_char_lit(s)}"
        for c, s in sorted(decode.items())
    )
    case = f"CASE c {whens} ELSE c END" if whens else "c"
    return f"""
        WITH words AS (
          SELECT unnest(string_split_regex(
                   trim(coalesce({text_col}, '')), '\\s+')) AS w
          FROM {table} WHERE trim(coalesce({text_col}, '')) <> ''
        ),
        packed AS (SELECT {chain} AS p FROM words),
        chars AS (
          SELECT substr(p, i, 1) AS c
          FROM packed,
               UNNEST(generate_series(1, length(p))) AS t(i)
        )
        SELECT {case} AS token, CAST(count(*) AS BIGINT) AS freq
        FROM chars GROUP BY 1 ORDER BY 1
    """
