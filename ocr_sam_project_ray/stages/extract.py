"""Main-content extraction stage — the heavy transform, run as stateless
tasks inside the fused stage (stages/fused.py).

Role analog of the reference's OCR extractor (the one remote-API call per
document, src/services/ocr_service.py:52-124, 504-661), re-expressed as a
deterministic local HTML → text parse (functions/html_text.py). The parser
holds no state: its regexes and heuristic tables are module-level
constants, imported once per worker process.

Memory discipline: the ``html`` binary column is DROPPED from the output —
the reference drops ``pdf_content`` the same way after storing shards
(src/services/pdf_service.py:255); post-parse stages must never carry raw
payload bytes (SURVEY.md §7 hard part (f)).
"""

from __future__ import annotations

import pyarrow as pa

from ..functions.html_text import extract_main_text
from ..functions.pdf_text import extract_pdf_like_text, is_pdf_like

# columns that travel past this stage
_CARRY = ["url", "warc_ts", "lang", "doc_bytes", "size_bucket", "valid", "error"]


def extract_batch(batch: pa.Table) -> pa.Table:
    """Parse each valid row's ``html`` into ``extracted_text``; a row whose
    parser raises gets empty text instead of failing the task."""
    html = batch["html"]
    valid = batch["valid"].to_pylist()
    texts: list[str] = []
    for i in range(len(batch)):
        if not valid[i]:
            texts.append("")
            continue
        payload = html[i].as_py()
        try:
            # dual payload routing: DOM path for HTML, layout-parse
            # path for PDF-like binaries (FIXTURES.md §1)
            if is_pdf_like(payload):
                texts.append(extract_pdf_like_text(payload))
            else:
                texts.append(extract_main_text(payload))
        except Exception:  # poison-row capture, never fail the task
            texts.append("")
    out = batch.select([c for c in _CARRY if c in batch.column_names])
    return out.append_column("extracted_text", pa.array(texts, type=pa.string()))
