"""Text analysis ops: language-ID, quality scoring, token counting,
fingerprinting. Every op is a vectorized ``map_batches`` stage and has an
exactly-matching ANSI-SQL rendering (used by the DuckDB oracles), so the
Ray implementation is independently re-computable.

Token model (the contract): tokens = non-empty runs split on ``\\s+`` after
strip; empty text → 0 tokens.
"""

from __future__ import annotations

import hashlib
import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

_WS = re.compile(r"\s+")
_PUNCT = re.compile(r"[.,;:!?]")

# small fixed stopword sets per language (deterministic heuristic lang-ID);
# ties break by alphabetical language code, no hits → "und"
STOPWORDS: dict[str, tuple[str, ...]] = {
    "de": ("der", "die", "und", "den", "von", "zu", "das", "mit", "ist", "nicht"),
    "en": ("the", "and", "of", "to", "a", "in", "is", "it", "you", "that"),
    "es": ("el", "la", "de", "que", "y", "a", "en", "un", "se", "no"),
    "fr": ("le", "la", "de", "et", "les", "des", "en", "un", "une", "est"),
}


def tokenize(text: str) -> list[str]:
    t = (text or "").strip()
    return _WS.split(t) if t else []


def flat_tokens(col) -> tuple[np.ndarray, "pa.Array", np.ndarray]:
    """Vectorized engine-contract tokenizer over an Arrow string column:
    returns ``(dl, flat, doc_idx)`` where ``dl[i]`` is row i's token
    count, ``flat`` is every token of every row in row-major order (an
    Arrow string array — no Python strings materialize), and
    ``doc_idx[j]`` is the row index of ``flat[j]``.

    EXACT parity with ``[tokenize(t) for t in col]`` flattened (pinned
    by test_ops_textstats): ``pc.utf8_split_whitespace`` groups
    whitespace RUNS (so interior empties cannot occur) and its Unicode
    whitespace set equals Python's ``\\s`` — verified by full-codepoint
    enumeration over every non-surrogate scalar (the divergence sets
    are empty in BOTH directions; the test re-enumerates the plane-0
    range that contains all whitespace plus a high-plane sample). The
    only difference is boundary empties from leading/trailing
    whitespace (Python strips first); those are filtered here. ~4x
    faster than the per-row Python path at 200-token docs — the shared
    kernel behind bm25/tfidf/token-count hot paths."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    filled = pc.fill_null(col, "")
    la = pc.utf8_split_whitespace(filled)
    lens = pc.list_value_length(la).to_numpy().astype(np.int64)
    flat = pc.list_flatten(la)
    nonempty = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
    doc_idx = np.repeat(np.arange(len(lens), dtype=np.int64), lens)
    if not nonempty.all():
        # boundary empties only: subtract their per-row count from dl
        lens = lens - np.bincount(doc_idx[~nonempty], minlength=len(lens))
        flat = flat.filter(pa.array(nonempty))
        doc_idx = doc_idx[nonempty]
    return lens, flat, doc_idx


def doc_token_counts(
    col,
) -> tuple[np.ndarray, "pa.Array", np.ndarray, np.ndarray]:
    """Per-(row, token) term frequencies for one batch, fully vectorized:
    returns ``(pair_doc, pair_token, pair_tf, dl)`` — one entry per
    DISTINCT (row, token) pair, where ``pair_doc[j]`` is the row index,
    ``pair_token`` the token (Arrow string array), ``pair_tf[j]`` its
    occurrence count in that row, and ``dl`` the per-row total token
    count. Semantics identical to ``Counter(tokenize(t))`` per row
    (pinned by test_ops_textstats); pairs come out grouped by row in
    first-seen dictionary order per batch — callers must not rely on
    token order (every consumer feeds a groupby or a per-doc rank).
    The shared combiner kernel behind token_df / tfidf: tokenize is
    flat_tokens (C-speed), token identity one dictionary_encode, pair
    counting one np.unique over int64 keys."""
    dl, flat, doc_idx = flat_tokens(col)
    if len(flat) == 0:
        return (np.zeros(0, np.int64), flat, np.zeros(0, np.int64), dl)
    enc = pc.dictionary_encode(flat)
    codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    ndict = len(enc.dictionary)
    key = doc_idx * ndict + codes
    uk, counts = np.unique(key, return_counts=True)
    pair_doc = uk // ndict
    pair_code = uk % ndict
    pair_token = enc.dictionary.take(pa.array(pair_code, pa.int64()))
    return pair_doc, pair_token, counts.astype(np.int64), dl


def ngrams_from_flat(
    flat, doc_idx: np.ndarray, n: int, sep: str = " "
) -> tuple["pa.Array", np.ndarray]:
    """Flat token n-grams from flat_tokens output: returns ``(grams,
    gdoc)`` where ``grams[j]`` is ``sep``-joined tokens
    ``flat[j..j+n-1]`` RESTRICTED to windows lying wholly inside one row
    (``doc_idx[j] == doc_idx[j+n-1]`` — flat is row-major so equal
    endpoints imply an equal interior) and ``gdoc[j]`` is that row.
    Exact parity with the per-row ``[' '.join(toks[i:i+n]) ...]``
    rendering; one ``binary_join_element_wise`` over n shifted slices —
    no Python strings. gdoc is non-decreasing (callers use reduceat
    segment sums on it)."""
    ln = len(flat)
    if ln < n:
        return pa.array([], pa.string()), np.zeros(0, np.int64)
    m = ln - n + 1
    parts = [flat.slice(i, m) for i in range(n)]
    grams = pc.binary_join_element_wise(*parts, sep)
    valid = doc_idx[:m] == doc_idx[n - 1:]
    if valid.all():
        return grams, doc_idx[:m]
    return grams.filter(pa.array(valid)), doc_idx[:m][valid]


def _single_cp(arr) -> np.ndarray:
    """Vectorized UTF-8 decode of an array of SINGLE-codepoint strings
    (each element 1–4 bytes) straight from the Arrow buffers — no Python
    strings. Valid UTF-8 by construction (Arrow enforces it), so the
    lead-byte width patterns are exhaustive."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    n = len(arr)
    if n == 0:
        return np.zeros(0, np.int64)
    bufs = arr.buffers()
    odt = np.int64 if pa.types.is_large_string(arr.type) else np.int32
    off = np.frombuffer(bufs[1], odt)[
        arr.offset: arr.offset + n + 1
    ].astype(np.int64)
    data = np.frombuffer(bufs[2], np.uint8).astype(np.int64)
    starts = off[:-1]
    nb = off[1:] - starts
    b0 = data[starts]
    cp = b0.copy()
    for width, mask0, shift in ((2, 0x1F, 6), (3, 0x0F, 12), (4, 0x07, 18)):
        m = nb == width
        if m.any():
            s = starts[m]
            v = (b0[m] & mask0) << shift
            for j in range(1, width):
                v |= (data[s + j] & 0x3F) << (shift - 6 * j)
            cp[m] = v
    return cp


def token_lff(flat) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(codepoint length, first codepoint, last codepoint) per token of
    an Arrow string array of NON-EMPTY tokens (flat_tokens output) —
    int64 numpy arrays, fully vectorized. Exact parity with the Python
    rendering (len(tok), ord(tok[0]), ord(tok[-1])): utf8_length counts
    codepoints like len(), and _single_cp decodes the 1-char slices
    exactly (surrogates cannot occur in valid UTF-8). The shared
    char-feature kernel behind stages/embedder —
    replaces the padded numpy-U view, which required materializing every
    token as a Python string first."""
    lens = pc.utf8_length(flat).to_numpy(zero_copy_only=False).astype(
        np.int64
    )
    first = _single_cp(pc.utf8_slice_codeunits(flat, 0, 1))
    last = _single_cp(pc.utf8_slice_codeunits(flat, -1, None))
    return lens, first, last


def lang_id(text: str) -> str:
    toks = tokenize((text or "").lower())  # null-safe like tokenize/quality_row
    best_lang, best_hits = "und", 0
    for lang in sorted(STOPWORDS):  # alphabetical = deterministic tie-break
        hits = sum(1 for t in toks if t in STOPWORDS[lang])
        if hits > best_hits:
            best_lang, best_hits = lang, hits
    return best_lang


def quality_row(text: str) -> dict:
    toks = tokenize(text)
    n_chars = len(text or "")
    n_tokens = len(toks)
    sum_tok = sum(len(t) for t in toks)
    punct = len(_PUNCT.findall(text or ""))
    stop_en = sum(1 for t in tokenize((text or "").lower()) if t in STOPWORDS["en"])
    return {
        "n_chars": n_chars,
        "n_tokens": n_tokens,
        # integer sum (not a float mean) so the SQL oracle compares exactly
        "sum_token_len": sum_tok,
        "punct_count": punct,
        "stopword_count_en": stop_en,
        # mean >= 3.0 expressed in integer math: sum >= 3 * n
        "passes_quality": bool(n_tokens >= 10 and sum_tok >= 3 * n_tokens),
    }


def fingerprint_md5(text: str) -> str:
    return hashlib.md5((text or "").encode("utf-8")).hexdigest()


def rolling_fingerprint(text: str, window: int = 8, mod: int = (1 << 61) - 1) -> int:
    """Deterministic rolling-hash document fingerprint: min of polynomial
    window hashes over the byte stream (winnowing-style min-sampling).
    Not SQL-expressible — covered by unit tests + rows-only driver check."""
    data = (text or "").encode("utf-8")
    if len(data) < window:
        h = 0
        for b in data:
            h = (h * 257 + b) % mod
        return h
    base = 257
    pw = pow(base, window - 1, mod)
    h = 0
    for b in data[:window]:
        h = (h * base + b) % mod
    best = h
    for i in range(window, len(data)):
        h = ((h - data[i - window] * pw) * base + data[i]) % mod
        if h < best:
            best = h
    return best


# --- map_batches stages ----------------------------------------------------

STAT_COLUMNS = [
    "n_chars", "n_tokens", "sum_token_len", "punct_count",
    "stopword_count_en", "passes_quality", "lang_pred", "fingerprint",
    "rolling_fp",
]


def textstats_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    texts = batch[text_col].to_pylist()
    rows = [quality_row(t) for t in texts]
    # input may already carry same-named columns (e.g. documents.n_chars) —
    # ours replace them
    out = batch.drop_columns([c for c in STAT_COLUMNS if c in batch.column_names])
    for name, typ in [
        ("n_chars", pa.int64()), ("n_tokens", pa.int64()),
        ("sum_token_len", pa.int64()), ("punct_count", pa.int64()),
        ("stopword_count_en", pa.int64()), ("passes_quality", pa.bool_()),
    ]:
        out = out.append_column(name, pa.array([r[name] for r in rows], typ))
    return out.append_column(
        "lang_pred", pa.array([lang_id(t) for t in texts], pa.string())
    ).append_column(
        "fingerprint", pa.array([fingerprint_md5(t) for t in texts], pa.string())
    ).append_column(
        "rolling_fp",
        pa.array([rolling_fingerprint(t) for t in texts], pa.int64()),
    )


# --- SQL renderings (must agree exactly with the Python above) -------------

def sql_n_tokens(col: str) -> str:
    return (
        f"CASE WHEN trim({col}) = '' THEN 0 "
        f"ELSE len(string_split_regex(trim({col}), '\\s+')) END"
    )


def sql_lang_id(col: str) -> str:
    def hits(lang: str) -> str:
        lst = ", ".join(f"'{w}'" for w in STOPWORDS[lang])
        return (
            f"len(list_filter(string_split_regex(trim(lower({col})), '\\s+'), "
            f"t -> list_contains([{lst}], t)))"
        )

    # replicate "strictly greater than current best, langs in alphabetical
    # order" via a greatest-with-first-wins CASE
    h = {lang: hits(lang) for lang in sorted(STOPWORDS)}
    g = f"greatest({', '.join(h.values())})"
    whens = "\n".join(
        f"WHEN {h[lang]} = {g} THEN '{lang}'" for lang in sorted(STOPWORDS)
    )
    return (
        f"CASE WHEN trim({col}) = '' OR {g} = 0 THEN 'und'\n{whens}\nELSE 'und' END"
    )


def sample_by_content_hash(ds, fraction_sixteenths: int = 4,
                           text_col: str = "text"):
    """Deterministic content-hash sampling: keep rows whose md5(text) first
    hex digit < fraction_sixteenths (4/16 = 25%). Unlike seeded random
    sampling this is reproducible across engines and partitionings — the
    standard trick for stable corpus subsampling at scale; the SQL oracle
    recomputes it exactly."""
    import hashlib

    import pyarrow as pa

    allowed = set("0123456789abcdef"[:fraction_sixteenths])

    def f(batch: pa.Table) -> pa.Table:
        keep = [
            hashlib.md5((t or "").encode("utf-8")).hexdigest()[0] in allowed
            for t in batch[text_col].to_pylist()
        ]
        return batch.filter(pa.array(keep))

    return ds.map_batches(f, batch_format="pyarrow")


# BPE-ish pretokenizer: GPT-2-style word/number/punct/space segmentation,
# restricted to lookahead-free ASCII classes so the exact same pattern runs
# in Python re and DuckDB's RE2 (the oracle recomputes the counts)
BPE_ISH_PATTERN = r" ?[A-Za-z]+| ?[0-9]+| ?[^A-Za-z0-9\s]+|\s+"
_BPE_ISH = re.compile(BPE_ISH_PATTERN)


def bpe_ish_token_count(text: str) -> int:
    """Token count under the BPE-ish pretokenizer (whitespace runs count as
    tokens, matching the raw pattern — a cheap proxy for LLM token cost)."""
    return len(_BPE_ISH.findall(text or ""))
