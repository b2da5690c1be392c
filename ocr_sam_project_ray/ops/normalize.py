"""Text normalization for dedup keys — the CCNet/C4 convention: exact
dedup must not be defeated by case, whitespace runs, or Unicode composed/
decomposed variants of the same accented character, so the dedup key is a
NORMALIZED rendering of the text, while the stored payload stays verbatim.

Normalization chain (fixed order, DuckDB twin byte-identical — verified
on composed/decomposed adversarial strings in test_normalize):

1. Unicode NFC — composed and decomposed accents collapse to one byte
   sequence. NOT Arrow: pyarrow 16.1's ``utf8_normalize(form='NFC')``
   only decomposes (it never recomposes — verified in test_normalize),
   so this step runs ``unicodedata.normalize`` per row (the reference
   implementation DuckDB's ``nfc_normalize`` agrees with). The chain is
   a dedup-KEY kernel whose sibling step is already a per-row ``md5``,
   so the Python step does not change the stage's cost class; inputs
   that are pure ASCII (the overwhelming majority of urls/boilerplate)
   short-circuit via a vectorized ASCII pre-test.
2. lowercase (``pc.utf8_lower`` ↔ ``lower``, both utf8proc semantics);
3. collapse whitespace runs to one space (``\\s+`` → `` ``);
4. trim leading/trailing whitespace.

NFKC (ligature/width folding) is deliberately NOT used: DuckDB has no
NFKC primitive, and the oracle-parity rule wins over marginal extra
folding.

``dedup_exact_normalized`` reuses the dedup_exact shuffle shape
(ops/dedup_text.py) with the normalized rendering as the digest input:
local keep-min-id combiner → one fingerprint-keyed repartition →
vectorized keep-first. The normalized column is dropped before the
shuffle — only the 32-char digest travels.

The reference lowercases inside individual extractors but has no corpus
dedup at all; beyond-reference training-data op (SURVEY §2.6).
"""

from __future__ import annotations

import hashlib

import pyarrow as pa
import pyarrow.compute as pc

from ray.data import Dataset

from ..context import configure_data_context


def normalize_expr(arr: pa.ChunkedArray | pa.Array):
    """The 4-step chain over one Arrow array."""
    import unicodedata

    cur = pc.cast(arr, pa.string())
    # NFC via unicodedata (see module docstring); ASCII rows (vectorized
    # pre-test) are NFC by definition and skip the Python call
    ascii_mask = pc.string_is_ascii(cur).to_numpy(zero_copy_only=False)
    if not ascii_mask.all():
        vals = cur.to_pylist()
        vals = [
            v if v is None or a else unicodedata.normalize("NFC", v)
            for v, a in zip(vals, ascii_mask)
        ]
        cur = pa.array(vals, pa.string())
    cur = pc.utf8_lower(cur)
    cur = pc.replace_substring_regex(cur, pattern=r"\s+", replacement=" ")
    return pc.utf8_trim_whitespace(cur)


def sql_normalize_expr(expr: str) -> str:
    """The identical chain rendered for DuckDB."""
    return (f"trim(regexp_replace(lower(nfc_normalize({expr})), "
            f"'\\s+', ' ', 'g'))")


def normalize_text(ds: Dataset, text_col: str = "text",
                   out_col: str = "norm_text") -> Dataset:
    """Append ``out_col`` = normalized rendering. Stateless vectorized
    task stage; nulls normalize to ''."""

    def norm(batch: pa.Table) -> pa.Table:
        vals = pc.fill_null(pc.cast(batch[text_col], pa.string()), "")
        return batch.append_column(out_col, normalize_expr(vals))

    return ds.map_batches(norm, batch_format="pyarrow")


def dedup_exact_normalized(
    ds: Dataset, id_col: str = "doc_id", text_col: str = "text",
    num_partitions: int = 8,
) -> Dataset:
    """Exact dedup keyed on md5(normalized text), keep min id — catches
    case/whitespace/NFC variants that byte-exact dedup misses. Returns
    the surviving rows of ``ds`` (original payload untouched)."""
    configure_data_context()
    from .dedup_text import _keep_min_id_per_key

    def add_fp(batch: pa.Table) -> pa.Table:
        vals = pc.fill_null(pc.cast(batch[text_col], pa.string()), "")
        norm = normalize_expr(vals)
        fps = [hashlib.md5(t.encode("utf-8")).hexdigest()
               for t in norm.to_pylist()]
        return batch.append_column("content_fp", pa.array(fps, pa.string()))

    ds = ds.map_batches(add_fp, batch_format="pyarrow")
    ds = ds.map_batches(
        lambda b: _keep_min_id_per_key(b, "content_fp", id_col),
        batch_format="pyarrow",
    )  # local combiner
    ds = ds.repartition(num_blocks=num_partitions, keys=["content_fp"])
    ds = ds.map_batches(
        lambda b: _keep_min_id_per_key(b, "content_fp", id_col),
        batch_format="pyarrow",
        batch_size=None,
    )
    return ds.drop_columns(["content_fp"])
