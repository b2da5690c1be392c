"""Deterministic text-analysis scorer stage — the M22 slot.

The reference's complementary text analyzer
(/root/reference/src/services/mistral_service.py:43-273) sends text to a
remote chat API for "legal analysis" / summary / entity extraction. This
engine fills that seam with a DETERMINISTIC stateless batch function so
outputs are reproducible and offline-testable; it runs as a plain task
map (``map_batches(score_batch)``). A real model scorer, which has weights
to load once, would be a callable class run on an actor pool instead.

Outputs per row:
- ``summary``: first ``SUMMARY_CHARS`` characters of the text (whitespace-
  collapsed), the analog of the API's summary analysis type
- ``risk_keyword_count``: occurrences of the high-priority keyword set
  (crm_integrator/app.py:411-414)
- ``legal_density_ppm``: integer ppm of characters inside legal-pattern
  matches (cedula/ruc/oficio/money/date spans) — a deterministic
  "how legal is this text" score
"""

from __future__ import annotations

import re

import pyarrow as pa

from ..functions import extract_core as core
from ..functions.classify import HIGH_PRIORITY_KEYWORDS

SUMMARY_CHARS = 160
KEYWORDS = re.compile("|".join(re.escape(k) for k in HIGH_PRIORITY_KEYWORDS))


def score_one(text: str) -> tuple[str, int, int]:
    """The scores of one text, with its own span scan (the reference form
    of ``score_batch``)."""
    text = text or ""
    return _score(text, core.extract_spans(text))


def _score(text: str, spans: list[dict]) -> tuple[str, int, int]:
    # summary: " ".join(s.split()) == re.sub(r"\s+", " ", s).strip() on every
    # string (the html_text.py whitespace-set enumeration), and f(P) is
    # always a PREFIX of f(T) for any prefix P of T (split/join only
    # deletes whitespace and inserts single separators), so collapsing a
    # bounded prefix yields the identical first SUMMARY_CHARS characters;
    # escalate only in the rare whitespace-dense case. Equality with the
    # full-collapse form is pinned in test_scorer_and_skew over corpus
    # texts plus whitespace-dense adversarial cases.
    k = SUMMARY_CHARS
    take = 4 * k + 64
    collapsed = " ".join(text[:take].split())
    while len(collapsed) < k and take < len(text):
        take *= 8
        collapsed = " ".join(text[:take].split())
    summary = collapsed[:k]
    risk = len(KEYWORDS.findall(text.lower()))
    # identical match set to six full finditer passes — extract_spans
    # and the batch form in score_batch try each pattern only where a
    # match can start, equality-pinned against _extract_spans_direct in
    # test_patterns
    covered = sum(s["end"] - s["start"] for s in spans)
    density_ppm = int(covered * 1_000_000 / len(text)) if text else 0
    return summary, risk, density_ppm


def score_batch(batch: pa.Table) -> pa.Table:
    texts = [t or "" for t in batch["extracted_text"].to_pylist()]
    # the spans of the whole batch from one digit-run scan: _scan has a
    # fixed numpy cost per call that dominates on short texts
    spans = core._spans(texts, core._scan(texts).starts)
    scored = [_score(t, s) for t, s in zip(texts, spans)]
    return (
        batch.append_column(
            "summary", pa.array([s[0] for s in scored], pa.string())
        )
        .append_column(
            "risk_keyword_count", pa.array([s[1] for s in scored], pa.int64())
        )
        .append_column(
            "legal_density_ppm", pa.array([s[2] for s in scored], pa.int64())
        )
    )
