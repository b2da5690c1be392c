"""Compiled regex pattern library.

Behavioral parity targets (cited into the read-only reference at
/root/reference; semantics replicated, code written fresh):

- Panamanian document patterns + 0.7 validation threshold:
  src/services/ocr_service.py:746-753, 814-819
- Fallback person table-row extractor and "should have persons"
  indicators: src/services/post_ocr_validator.py:77-96, 108
- First-page metadata key:value patterns: src/services/metadata_service.py:56-87
  (divergence: the reference flattens newlines to spaces before matching
  (metadata_service.py:53), which makes its ``[^\\n\\r]+`` captures run to the
  end of the document; we keep line structure so captures stay line-scoped)
- Separator page patterns + <200-char rule: src/services/pdf_service.py:78-95
- Config-page indicator keywords: src/services/pdf_service.py:209-223
- Basic-info fallback extractors (oficio number / authority / date):
  src/ocr_processor/app.py:547-582
"""

from __future__ import annotations

import re

# --- Panamanian validation patterns (ocr_service.py:746-753) ---------------
PANAMA_PATTERNS: dict[str, re.Pattern] = {
    "cedula": re.compile(r"\b\d{1,2}-\d{1,4}-\d{1,4}\b", re.IGNORECASE),
    "ruc": re.compile(r"\b\d{1,3}-\d{1,6}-\d{1,2}-?\d{0,2}\b", re.IGNORECASE),
    "oficio_number": re.compile(
        r"\b(?:JE-|DJ-|No\.?)\s*\d{1,6}(?:-\d{4})?\b", re.IGNORECASE
    ),
    "phone": re.compile(r"\b\d{3}-\d{4}\b", re.IGNORECASE),
    "money": re.compile(r"\bB/\.?\s*[\d,]+\.?\d{0,2}\b", re.IGNORECASE),
    "date_es": re.compile(r"\b\d{1,2}\s+de\s+\w+\s+de\s+\d{4}\b", re.IGNORECASE),
}

# Pass threshold for pattern validation (ocr_service.py:814-819)
VALIDATION_PASS_THRESHOLD = 0.7

# --- Person table-row fallback extractor (post_ocr_validator.py:108) -------
PERSON_ROW = re.compile(
    r"([A-ZÁ-Ú][A-ZÁ-Ú\s\.,/]+)\s*\|?\s*(\d+-\d+-\d+[^\|]*)\s*\|?\s*([\d,]+\.?\d*)",
    re.MULTILINE,
)

# --- "Should have persons" table indicators (post_ocr_validator.py:77-89) --
_TABLE_INDICATOR_SRC: list[str] = [
    r"agente\s+económico",
    r"empleador",
    r"n[°º]\s*exp",
    r"r\.?u\.?c\.?",
    r"c\.?i\.?p\.?",
    r"monto\s+b/",
    r"\|\s*nombre",
    r"tabla.*persona",
    r"listado.*cliente",
    r"\d+-\d+-\d+.*\d+[,\.]\d+",  # cedula + monto on one line
]
TABLE_INDICATORS: list[re.Pattern] = [
    re.compile(p, re.IGNORECASE) for p in _TABLE_INDICATOR_SRC
]

# Necessary-literal guards for each indicator, aligned 1:1 with
# _TABLE_INDICATOR_SRC. Each guard is a CONJUNCTION of disjunction groups:
# the pattern CANNOT match a ``.lower()``-ed string unless every group has at
# least one member substring present — so a failed group skips the
# full-document regex scan (measured ~90 µs/scan on 10 KB docs;
# indicator-free docs paid all ten). Guard letters are restricted to
# case-fold-clean characters (their only re.IGNORECASE matches are their own
# upper/lower pair — verified by enumerating the whole codepoint space; '°'
# and 'º' have no case pair at all); 'i' and 's' never appear in guards
# because U+0131 'ı' and U+017F 'ſ' also fold to them, hence 'tado' for
# listado and the explicit 'ı' variants for c.i.p. The last indicator (cedula
# + monto) has no literal guard; it needs a ``\d+-\d+-\d+`` triple instead,
# which the batch annotate kernel finds from its digit runs.
_TABLE_INDICATOR_GUARDS: list[tuple[tuple[str, ...], ...]] = [
    (("agente",),),                                # agente\s+económico
    (("empleador",),),                             # empleador
    (("n°", "nº"), ("exp",)),                      # n[°º]\s*exp — n adjacent
    (("ruc", "r.uc", "ru.c", "r.u.c"),),           # r\.?u\.?c\.? (exact set)
    (("cip", "c.ip", "ci.p", "c.i.p",
      "cıp", "c.ıp", "cı.p", "c.ı.p"),),           # c\.?i\.?p\.? (exact set)
    (("monto",), ("b/",)),                         # monto\s+b/
    (("|",), ("nombre",)),                         # \|\s*nombre
    (("tabla",),),                                 # tabla.*persona
    (("tado",),),                                  # listado.*cliente
]
# The literal every match of an indicator starts with, where there is one
# (fold-clean letters only, as above): a match can then start only at an
# occurrence of it in ``low``, and the regex is tried only there.
_TABLE_INDICATOR_LEADS: list[str | None] = [
    "agente", "empleador", None, None, None, "monto", "|", "tabla", None,
]
assert len(_TABLE_INDICATOR_GUARDS) == len(TABLE_INDICATORS) - 1
assert len(_TABLE_INDICATOR_LEADS) == len(_TABLE_INDICATOR_GUARDS)
_TABLE_INDICATORS_GUARDED: list[
    tuple[tuple[tuple[str, ...], ...], str | None, re.Pattern]
] = list(zip(_TABLE_INDICATOR_GUARDS, _TABLE_INDICATOR_LEADS, TABLE_INDICATORS))
CEDULA_MONTO_LINE = TABLE_INDICATORS[-1]

# --- First-page / config-block metadata (metadata_service.py:56-87) --------
# Matched against lowercased text with line structure preserved (see module
# docstring for the divergence note).
METADATA_PATTERNS: dict[str, list[re.Pattern]] = {
    "empresa": [
        re.compile(r"empresa:\s*([^\n\r]+)"),
        re.compile(r"cliente:\s*([^\n\r]+)"),
        re.compile(r"organizacion:\s*([^\n\r]+)"),
    ],
    "cantidad_oficios": [
        re.compile(r"cantidad_oficios:\s*(\d+)"),
        re.compile(r"cantidad:\s*(\d+)"),
        re.compile(r"total_oficios:\s*(\d+)"),
        re.compile(r"oficios:\s*(\d+)"),
    ],
    "origen": [
        re.compile(r"origen:\s*([^\n\r]+)"),
        re.compile(r"provincia:\s*([^\n\r]+)"),
        re.compile(r"ubicacion:\s*([^\n\r]+)"),
    ],
    "observaciones": [
        re.compile(r"observaciones:\s*([^\n\r]+)"),
        re.compile(r"comentarios:\s*([^\n\r]+)"),
        re.compile(r"notas:\s*([^\n\r]+)"),
    ],
    "fecha": [
        re.compile(r"fecha:\s*([^\n\r]+)"),
        re.compile(r"date:\s*([^\n\r]+)"),
    ],
    "operador": [
        re.compile(r"operador:\s*([^\n\r]+)"),
        re.compile(r"usuario:\s*([^\n\r]+)"),
        re.compile(r"procesado_por:\s*([^\n\r]+)"),
    ],
}

# Defaults for unparsed metadata fields (metadata_service.py:90-98).
# ``fecha_envio`` is a fixed sentinel instead of the reference's wall-clock
# default so every output byte is deterministic.
METADATA_DEFAULTS: dict[str, object] = {
    "empresa": "No especificado",
    "cantidad_oficios_declarada": 0,
    "origen": "No especificado",
    "observaciones": "Procesado automáticamente desde S3",
    "fecha_envio": "1900-01-01",
    "operador": "Sistema automático",
}

# --- Separator lines (pdf_service.py:78-95) --------------------------------
SEPARATOR_PATTERNS: list[str] = [
    "separador de oficios",
    "=====================",
    "separador",
    "divisor",
    "---",
    "===",
]
# Logically-reduced probe set: "separador de oficios" ⊃ "separador" and the
# 21-char "=" run ⊃ "===", so `any(p in low)` over the six patterns equals
# `any(p in low)` over these four (equality pinned in test_patterns).
SEPARATOR_PROBES: tuple[str, ...] = ("separador", "divisor", "---", "===")
SEPARATOR_MAX_LEN = 200  # separator pages/lines are short (pdf_service.py:91)

# --- Config-page indicators (pdf_service.py:209-223) -----------------------
CONFIG_INDICATORS: list[str] = ["cantidad_oficios", "empresa", "configuración", "lote"]

# --- Basic-info fallback patterns (ocr_processor/app.py:547-582) -----------
BASIC_OFICIO = re.compile(r"(?:oficio|no\.?)\s*:?\s*([A-Za-z0-9\-]+)", re.IGNORECASE)
BASIC_AUTORIDAD = [
    re.compile(r"(juzgado [^\.]+)", re.IGNORECASE),
    re.compile(r"(tribunal [^\.]+)", re.IGNORECASE),
    re.compile(r"(ministerio [^\.]+)", re.IGNORECASE),
]
BASIC_DATE = re.compile(r"(\d{1,2}[\/\-]\d{1,2}[\/\-]\d{4})")


def is_separator_line(line: str, low: str = None) -> bool:
    """A line is a separator iff it contains a separator pattern and is short.

    Mirrors src/services/pdf_service.py:78-95 (page → line analog). ``low``
    lets batch callers (``split_segments``) reuse one whole-document
    ``lower()`` instead of paying a per-line one; probes use the reduced
    :data:`SEPARATOR_PROBES` set, which is boolean-equal to the full list.
    """
    if len(line.strip()) >= SEPARATOR_MAX_LEN:
        return False
    if low is None:
        low = line.lower()
    return any(p in low for p in SEPARATOR_PROBES)


def has_config_block(text: str) -> bool:
    """First-block config detection (src/services/pdf_service.py:209-223)."""
    low = text.lower()
    return any(k in low for k in CONFIG_INDICATORS)


def should_have_persons(text: str, low: str = None) -> bool:
    """True iff any table indicator matches (post_ocr_validator.py:77-96).

    Short-circuiting per-pattern loop (measured 2.4× faster than one combined
    alternation) with necessary-literal guards in front of each regex: a doc
    failing any guard group cannot match that pattern, so indicator-free docs
    pay a handful of C-level substring probes plus ONE unguardable digit-line
    scan instead of ten full-document regex scans (measured 0.78 s → 0.15 s
    per 1.6k docs; the conjunction form further skips scans on docs that
    contain 'monto' but no 'b/', '|' but no 'nombre', etc.). Result is
    identical to :func:`should_have_persons_reference` — equality is pinned
    in tests over the corpus plus fold-adversarial strings.
    """
    if low is None:
        low = text.lower()
    return table_indicator_hit(low, may_have_triple=True)


def table_indicator_hit(low: str, may_have_triple: bool) -> bool:
    """:func:`should_have_persons` over ``low`` (``text.lower()``).

    Pass ``may_have_triple=False`` only when the text has no
    ``\\d+-\\d+-\\d+`` triple: the cedula + monto indicator cannot match
    then, and its unguarded whole-text scan is skipped. ``lower()`` maps
    decimals and '-' to themselves and no other character to either
    (enumerated in test_patterns), so the text and ``low`` have the same
    triples.
    """
    for guards, lead, pat in _TABLE_INDICATORS_GUARDED:
        if not all(any(g in low for g in group) for group in guards):
            continue
        if lead is None:
            if pat.search(low):
                return True
            continue
        i = low.find(lead)
        while i >= 0:
            if pat.match(low, i):
                return True
            i = low.find(lead, i + 1)
    return may_have_triple and CEDULA_MONTO_LINE.search(low) is not None


def should_have_persons_reference(text: str, low: str = None) -> bool:
    """Unguarded reference form of :func:`should_have_persons` (kept for the
    equality tests; change the two together)."""
    if low is None:
        low = text.lower()
    return any(p.search(low) for p in TABLE_INDICATORS)
