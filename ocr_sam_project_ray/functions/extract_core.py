"""Document-level extraction core: metadata parsing, segment splitting,
span/entity annotation, classification, validation and confidence scoring.

Pure deterministic functions over the canonical ``extracted_text`` — no Ray,
no I/O. ``annotate_texts`` is the batch annotate kernel the annotate stage
runs: it finds the digit runs of a whole batch in one numpy pass and tries
each digit-anchored pattern only where a match can start. The standalone
per-text extractors (``annotate_segment``, ``_extract_spans_direct``,
``extract_basic_info``, ``extract_fecha``, ...) are its reference forms,
and the equality tests compare the two. Behavioral parity targets in the
reference implementation:

- metadata parse + defaults: src/services/metadata_service.py:49-123
- separator split incl. tail segment: src/services/pdf_service.py:106-147
- segment id minting ``{url}#seg{n:03d}``: analog of
  ``{batch_id}_oficio_{n:03d}`` at src/services/pdf_service.py:196
- count validation, tolerance max(1, 10%): src/shared/validators.py:46-91
- person fallback extraction: src/services/post_ocr_validator.py:98-135
- basic info fallback: src/ocr_processor/app.py:547-582
- Panamanian pattern validation + score + 0.7 gate:
  src/services/ocr_service.py:726-827
- confidence derivation: src/services/ocr_service.py:620-638
- monto_total: src/ocr_processor/app.py:403
"""

from __future__ import annotations

from typing import Any, NamedTuple, Optional

import numpy as np

from . import patterns as P
from .classify import classify_keywords, classify_text, matched_keywords


# ---------------------------------------------------------------------------
# Metadata (config block)
# ---------------------------------------------------------------------------

def parse_metadata(text: str) -> dict[str, Any]:
    """Parse the leading config block of a document's extracted text.

    Mirrors metadata_service.py:49-123: lowercase the text, try each
    field's alternative patterns in order, first hit wins; count extracted
    fields; fall back to defaults. (Line structure is preserved — see the
    divergence note in ``patterns.py``.)
    """
    normalized = (text or "").lower()
    meta: dict[str, Any] = dict(P.METADATA_DEFAULTS)
    extracted = 0
    for field, pats in P.METADATA_PATTERNS.items():
        for pat in pats:
            m = pat.search(normalized)
            if m:
                value = m.group(1).strip()
                if field == "cantidad_oficios":
                    try:
                        meta["cantidad_oficios_declarada"] = int(value)
                        extracted += 1
                    except ValueError:
                        continue
                elif field == "fecha":
                    meta["fecha_envio"] = value
                    extracted += 1
                else:
                    meta[field] = value
                    extracted += 1
                break
    meta["extraction_success"] = extracted > 0
    meta["extracted_fields_count"] = extracted
    return meta


def parse_metadata_has_config(text: str) -> bool:
    """Config-block detection scoped to the document's FIRST line — the line
    analog of the reference's first-page check (pdf_service.py:209-223)."""
    first_line = (text or "").split("\n", 1)[0]
    return P.has_config_block(first_line)


def validate_metadata(meta: dict[str, Any]) -> tuple[bool, str, str]:
    """(valid, error, warning) — mirrors validators.py:93-134."""
    missing = [
        f for f in ("empresa", "cantidad_oficios_declarada")
        if f not in meta or not meta[f]
    ]
    warnings: list[str] = []
    count = meta.get("cantidad_oficios_declarada")
    if count is not None and (count < 0 or count > 1000):
        warnings.append(f"Cantidad de oficios inusual: {count}")
    if meta.get("empresa") and len(str(meta["empresa"])) < 3:
        warnings.append("Nombre de empresa muy corto")
    if missing:
        return False, f"Campos requeridos faltantes: {missing}", "; ".join(warnings)
    return True, "", "; ".join(warnings)


# ---------------------------------------------------------------------------
# Segment splitting (the document splitter)
# ---------------------------------------------------------------------------

def split_segments(text: str) -> list[str]:
    """Split extracted text at separator lines into sub-document segments.

    Line-level analog of the page-level split at pdf_service.py:106-147:
    for each separator, the segment is the run of lines since the previous
    separator (or the start); a non-empty tail after the last separator is
    emitted too. With no separators the whole document is one segment
    (divergence note: the reference's no-separator fallback splits per page
    with ``oficios_per_page`` (pdf_service.py:149-177); a per-line analog
    would shred documents, so the engine keeps them whole and lets count
    validation flag the mismatch).
    """
    if not text:
        return []
    # One whole-document lower() + four C-level probes reject separator-free
    # docs without a per-line scan; when a probe hits, the lowered lines are
    # reused so no line pays a second lower(). lower() never introduces a
    # newline, so ``low.split`` aligns 1:1 with ``text.split`` (the only
    # cross-line lower() context rule, Greek final-sigma, maps within the
    # σ/ς pair — disjoint from every probe, so per-doc and per-line lowering
    # probe identically).
    low = text.lower()
    if not any(p in low for p in P.SEPARATOR_PROBES):
        return [text]
    lines = text.split("\n")
    low_lines = low.split("\n")
    sep_idx = [
        i
        for i, ln in enumerate(lines)
        if P.is_separator_line(ln, low_lines[i])
    ]
    if not sep_idx:
        return [text]
    segments: list[str] = []
    for i, sep in enumerate(sep_idx):
        start = 0 if i == 0 else sep_idx[i - 1] + 1
        if sep > start:
            segments.append("\n".join(lines[start:sep]))
    if sep_idx[-1] + 1 < len(lines):
        tail = "\n".join(lines[sep_idx[-1] + 1:])
        if tail:
            segments.append(tail)
    return segments


def mint_doc_id(url: str, seg_index: int, n_segments: int) -> str:
    """``url`` for single-segment docs, else ``url#seg{n:03d}`` (1-based) —
    analog of pdf_service.py:196."""
    if n_segments <= 1:
        return url
    return f"{url}#seg{seg_index + 1:03d}"


def validate_count(extracted: int, declared: int) -> tuple[bool, str, str]:
    """(valid, error, warning) — mirrors validators.py:46-91."""
    if extracted == 0:
        return False, "No se pudieron extraer oficios del PDF", ""
    if declared == 0:
        return True, "", (
            f"No se declaró cantidad, procesando {extracted} oficios encontrados"
        )
    if extracted == declared:
        return True, "", ""
    tolerance = max(1, int(declared * 0.1))
    difference = abs(extracted - declared)
    if difference <= tolerance:
        return True, "", (
            f"Diferencia menor dentro de tolerancia: {difference} (tolerancia: {tolerance})"
        )
    return False, (
        f"Diferencia excede tolerancia: declarados {declared}, extraídos {extracted} "
        f"(diferencia: {difference}, tolerancia: {tolerance})"
    ), ""


# ---------------------------------------------------------------------------
# Span / entity / info extraction
# ---------------------------------------------------------------------------

def _extract_spans_direct(text: str) -> list[dict[str, Any]]:
    """Reference form of :func:`extract_spans`: six whole-text ``finditer``
    passes (kept for the equality tests)."""
    spans: list[dict[str, Any]] = []
    for field, pat in P.PANAMA_PATTERNS.items():
        for m in pat.finditer(text):
            spans.append(
                {"field": field, "start": m.start(), "end": m.end(), "text": m.group(0)}
            )
    return spans


# Where a match can start. The batch kernel finds the runs of ``\d`` in all
# texts of a batch in one numpy pass, and tries each pattern with
# ``Pattern.match(text, p)`` only at the positions p below. A ``\d{m,n}``
# that stops short of a run's end is followed by a digit, so when a pattern
# needs '-', '/' or whitespace after its first digits, those digits are the
# whole run:
#   cedula    ``\b\d{1,2}-``     starts a run of <= 2 digits followed by '-'
#   ruc       ``\b\d{1,3}-``     starts a run of <= 3 digits followed by '-'
#   phone     ``\b\d{3}-``       starts a run of exactly 3 digits followed by '-'
#   date_es   ``\b\d{1,2}\s``    starts a run of <= 2 digits followed by whitespace
#   oficio_number  ``(?:JE-|DJ-|No\.?)\s*\d{1,6}(?:-\d{4})?\b``: its digits
#             are a whole run of <= 6 (a longer run fails the ``\b``); walking
#             left from the run over whitespace to j, the prefix ends at j-1,
#             in 'o'/'O' ("No", starts at j-2) or in '-'/'.' (the other
#             three, start at j-3)
#   money     ``\bB/``           each "B/" or "b/"
#   BASIC_DATE ``\d{1,2}[/-]``   (no ``\b``) e-2 or e-1 of a run ending at e
#             that is followed by '/' or '-'; only the first match is kept
# ``match`` at p sees the text before p, as ``finditer`` does, so trying the
# candidates in order and skipping any that lies before the previous
# match's end gives ``finditer``'s matches exactly. ``\d`` is
# ``str.isdecimal``, ``\s`` is ``str.isspace``, and under re.IGNORECASE the
# prefix letters match only their ASCII pair (all enumerated over every
# code point in test_patterns).
_LATIN1_SPACE = np.array([chr(c).isspace() for c in range(256)])


def _isspace(codes: np.ndarray) -> np.ndarray:
    """``str.isspace`` of each code point."""
    if codes.dtype == np.uint8:
        return _LATIN1_SPACE[codes]
    return np.array([chr(c).isspace() for c in codes.tolist()], bool)


def _isin(codes: np.ndarray, chars: str) -> np.ndarray:
    """Whether each code point is one of ``chars``."""
    out = codes == ord(chars[0])
    for c in chars[1:]:
        out |= codes == ord(c)
    return out


class _Scan(NamedTuple):
    # field -> (text index, offset) of each candidate start, in text order
    starts: dict[str, tuple[list[int], list[int]]]
    # (text index, start, end) of each digit run followed by '/' or '-'
    date_runs: tuple[list[int], list[int], list[int]]
    # per text: it contains a ``\d+-\d+-\d+`` triple
    has_triple: list[bool]


def _scan(texts: list[str]) -> _Scan:
    """Digit runs of a batch, and the candidate starts of every pattern."""
    joined = "\x00" + "\x00".join(texts) + "\x00"
    try:  # one byte per code point when every one of them is below 256
        codes = np.frombuffer(joined.encode("latin-1"), np.uint8)
    except UnicodeEncodeError:
        codes = np.frombuffer(joined.encode("utf-32-le", "surrogatepass"), np.uint32)
    digit = (codes - ord("0")) < 10  # unsigned: wraps round below '0'
    high = np.flatnonzero(codes >= 128)
    if high.size:
        decimals = [c for c in np.unique(codes[high]).tolist() if chr(c).isdecimal()]
        if decimals:
            digit[high] |= np.isin(codes[high], decimals)
    # the "\x00" before and after every text ends each run inside its text
    edges = np.flatnonzero(digit[1:] != digit[:-1]) + 1
    run_start, run_end = edges[0::2], edges[1::2]
    base = np.cumsum([1] + [len(t) + 1 for t in texts])[:-1]
    tid = np.searchsorted(base, run_start, "right") - 1
    local = run_start - base[tid]
    length = run_end - run_start
    after, before = codes[run_end], codes[run_start - 1]
    dash = after == ord("-")

    def pick(mask: np.ndarray) -> tuple[list[int], list[int]]:
        i = np.flatnonzero(mask)
        return tid[i].tolist(), local[i].tolist()

    starts = {
        "cedula": pick((length <= 2) & dash),
        "ruc": pick((length <= 3) & dash),
        "phone": pick((length == 3) & dash),
        "date_es": pick((length <= 2) & _isspace(after)),
    }
    oficio_t, oficio_p = [], []
    for t, s in zip(*pick(
        (length <= 6) & (_isspace(before) | _isin(before, "-.oO"))
    )):
        text = texts[t]
        j = s
        while j and text[j - 1].isspace():
            j -= 1
        if j >= 2 and text[j - 1] in "-.oO":
            oficio_t.append(t)
            oficio_p.append(j - 2 if text[j - 1] in "oO" else j - 3)
    starts["oficio_number"] = (oficio_t, oficio_p)
    slash = np.flatnonzero(codes == ord("/"))
    b = slash[_isin(codes[slash - 1], "Bb")] - 1
    b_tid = np.searchsorted(base, b, "right") - 1
    starts["money"] = (b_tid.tolist(), (b - base[b_tid]).tolist())

    i = np.flatnonzero(dash | (after == ord("/")))
    date_runs = (tid[i].tolist(), local[i].tolist(), (local + length)[i].tolist())
    # run k, '-', run k+1, '-', run k+2, with nothing in between
    link = dash[:-1] & (run_start[1:] == run_end[:-1] + 1)
    has_triple = np.zeros(len(texts), bool)
    has_triple[tid[:-2][link[:-1] & link[1:]]] = True
    return _Scan(starts, date_runs, has_triple.tolist())


def _spans(texts: list[str], starts) -> list[list[dict[str, Any]]]:
    """Every text's PANAMA_PATTERNS matches, in (pattern, position) order,
    tried only at the candidate ``starts``."""
    spans: list[list[dict[str, Any]]] = [[] for _ in texts]
    for field, pat in P.PANAMA_PATTERNS.items():
        cur, resume, text = -1, 0, ""
        for t, p in zip(*starts[field]):
            if t != cur:
                cur, resume, text = t, 0, texts[t]
            if p < resume:
                continue
            m = pat.match(text, p)
            if m is None:
                resume = p + 1
            else:
                resume = m.end()
                spans[t].append({"field": field, "start": p, "end": resume, "text": m.group(0)})
    return spans


def _first_basic_dates(texts: list[str], date_runs) -> list[Optional[str]]:
    """Per text, group 1 of the first ``BASIC_DATE`` match, or None.

    A match at e-1 continues exactly as one at e-2 does from the '/' or
    '-' at e, so one try at the leftmost of the two decides the run."""
    found: list[Optional[str]] = [None] * len(texts)
    for t, s, e in zip(*date_runs):
        if found[t] is None:
            m = P.BASIC_DATE.match(texts[t], max(s, e - 2))
            if m:
                found[t] = m.group(1)
    return found


def extract_spans(text: str) -> list[dict[str, Any]]:
    """All Panamanian-pattern matches as span annotations, in fixed
    (pattern-order, position) order. Fields mirror ocr_service.py:746-753.

    Each pattern is tried only where a match can start (see ``_scan``);
    the result equals :func:`_extract_spans_direct` (equality-tested over
    the corpus, adversarial cases and a fuzz).
    """
    return _spans([text], _scan([text]).starts)[0]


# Necessary-literal guards for BASIC_AUTORIDAD (juzgado / tribunal /
# ministerio), aligned 1:1 — each entry is a disjunction: the regex cannot
# match ``text`` unless at least one member is a substring of
# ``text.lower()``. Soundness differs from patterns._TABLE_INDICATOR_GUARDS
# in one way: these regexes search the ORIGINAL text, so a guard literal
# containing a fold-dirty letter must enumerate the ``lower()`` images of
# every codepoint re.IGNORECASE accepts there. For the 'i' in 'terio' that
# class is {I, i, İ U+0130, ı U+0131} (enumerated over the full codepoint
# space), whose lower() images are 'i', 'i', 'i̇' (i + combining dot
# above), 'ı' — hence the three variants. 'juzgado'/'bunal' use only
# single-class letters.
_AUTORIDAD_GUARDS: tuple[tuple[str, ...], ...] = (
    ("juzgado",),
    ("bunal",),
    ("terio", "terıo", "teri̇o"),
)
assert len(_AUTORIDAD_GUARDS) == len(P.BASIC_AUTORIDAD)


def _oficio_autoridad(text: str, low: str) -> tuple[Optional[str], Optional[str]]:
    """First oficio-number capture and first authority capture."""
    m = P.BASIC_OFICIO.search(text)
    numero_oficio = m.group(1) if m else None
    for guards, pat in zip(_AUTORIDAD_GUARDS, P.BASIC_AUTORIDAD):
        if not any(g in low for g in guards):
            continue
        m = pat.search(text)
        if m:
            return numero_oficio, m.group(1)
    return numero_oficio, None


def extract_basic_info(text: str, low: str = None) -> dict[str, Optional[str]]:
    """Fallback info extraction (ocr_processor/app.py:547-582):
    first oficio-number match, first authority match, first numeric date.

    ``low`` (``text.lower()``) gates the three authority regexes behind
    cheap substring probes — docs without any authority keyword skip three
    full-document IGNORECASE scans. Output is byte-identical either way
    (guards are necessary conditions; equality pinned in test_patterns).
    """
    if low is None:
        low = text.lower()
    numero_oficio, autoridad = _oficio_autoridad(text, low)
    m = P.BASIC_DATE.search(text)  # only the first match is used
    return {
        "numero_oficio": numero_oficio,
        "autoridad": autoridad,
        "fecha_emision": m.group(1) if m else None,
    }


def extract_fecha(text: str) -> Optional[str]:
    """Document date: first Spanish long-form date, else first numeric date —
    feeds the ``informacion_general.fecha`` analog validated at
    ocr_service.py:769-775."""
    m = P.PANAMA_PATTERNS["date_es"].search(text)
    if m:
        return m.group(0)
    m = P.BASIC_DATE.search(text)
    if m:
        return m.group(1)
    return None


def extract_entities(text: str) -> list[dict[str, Any]]:
    """Fallback person extraction (post_ocr_validator.py:98-135): table-row
    regex → {nombre_completo, numero_identificacion, monto, monto_numerico};
    monto string has commas stripped exactly as the reference does."""
    persons: list[dict[str, Any]] = []
    for idx, m in enumerate(P.PERSON_ROW.finditer(text)):
        nombre = m.group(1).strip()
        identificacion = m.group(2).strip()
        monto_str = m.group(3).strip().replace(",", "")
        try:
            monto_numerico = float(monto_str)
        except ValueError:
            monto_numerico = 0.0
        persons.append(
            {
                "nombre_completo": nombre,
                "numero_identificacion": identificacion,
                "numero_ruc": "",
                "numero_cuenta": "",
                "monto": monto_str,
                "monto_numerico": monto_numerico,
                "expediente": "",
                "tipo_persona": "Extraído del texto",
            }
        )
    return persons


# ---------------------------------------------------------------------------
# Validation + confidence
# ---------------------------------------------------------------------------

def validate_panamanian(
    numero_oficio: Optional[str],
    fecha: Optional[str],
    entities: list[dict[str, Any]],
) -> dict[str, Any]:
    """Pattern validation replicating ocr_service.py:726-827 over our columns:

    - ``numero_oficio`` / ``fecha`` each count as one valid or invalid entry;
    - when an entity list is present, every entity's cedula is checked and
      the keys ``clientes_validos`` + ``total_clientes`` are both recorded
      as *valid* entries (exactly as the reference does);
    - score = |valid| / (|valid| + |invalid|); pass iff score >= 0.7.
    """
    valid: dict[str, Any] = {}
    invalid: dict[str, Any] = {}

    if numero_oficio is not None:
        if P.PANAMA_PATTERNS["oficio_number"].search(numero_oficio):
            valid["numero_oficio"] = numero_oficio
        else:
            invalid["numero_oficio"] = numero_oficio
    if fecha is not None:
        if P.PANAMA_PATTERNS["date_es"].search(fecha):
            valid["fecha"] = fecha
        else:
            invalid["fecha"] = fecha

    if entities:
        valid_clientes = 0
        for ent in entities:
            ok = True
            ced = ent.get("numero_identificacion")
            if ced is not None and ced != "":
                if not P.PANAMA_PATTERNS["cedula"].search(ced):
                    ok = False
                    invalid[f"cedula_{ent.get('nombre_completo', 'unknown')}"] = ced
            ruc = ent.get("numero_ruc")
            if ruc:
                if not P.PANAMA_PATTERNS["ruc"].search(ruc):
                    ok = False
                    invalid[f"ruc_{ent.get('nombre_completo', 'unknown')}"] = ruc
            if ok:
                valid_clientes += 1
        valid["clientes_validos"] = valid_clientes
        valid["total_clientes"] = len(entities)

    total = len(valid) + len(invalid)
    score = (len(valid) / total) if total > 0 else 0.0
    return {
        "valid_count": len(valid),
        "invalid_count": len(invalid),
        "confidence_score": score,
        "validation_passed": score >= P.VALIDATION_PASS_THRESHOLD,
    }


def derive_confidence(
    has_text: bool, has_structured: bool, validation: Optional[dict[str, Any]]
) -> str:
    """Confidence ladder (ocr_service.py:629-638): base high/medium/low from
    structured+text presence, then promoted to high on validation pass and
    demoted to low when the validation score drops under 0.5."""
    confidence = "high" if (has_structured and has_text) else ("medium" if has_text else "low")
    if validation is not None:
        if validation.get("validation_passed"):
            confidence = "high"
        elif validation.get("confidence_score", 0.0) < 0.5:
            confidence = "low"
    return confidence


def accept_result(
    success: bool, extracted_text: str, type_id: int, n_entities: int
) -> bool:
    """Downstream result-acceptance predicate (crm_integrator/app.py:153-223
    parity): a result is consumable iff it succeeded AND carries at least
    one of extracted text / classification / structured entities."""
    return bool(
        success and (extracted_text or type_id > 0 or n_entities > 0)
    )


# ---------------------------------------------------------------------------
# Whole-segment annotation
# ---------------------------------------------------------------------------

def _annotation(
    text: str,
    numero_oficio: Optional[str],
    autoridad: Optional[str],
    fecha: Optional[str],
    fecha_emision: Optional[str],
    keywords: list[str],
    classification: tuple[int, str, str, str],
    spans: list[dict[str, Any]],
    entities: list[dict[str, Any]],
    should_have_persons: bool,
) -> dict[str, Any]:
    """The flat dict of output columns from one segment's extracted fields."""
    type_id, label, tramite, departamento = classification
    has_structured = bool(type_id > 0 or entities or numero_oficio)
    validation = (
        validate_panamanian(numero_oficio, fecha, entities)
        if has_structured
        else None
    )
    confidence = derive_confidence(bool(text), has_structured, validation)

    return {
        "numero_oficio": numero_oficio or "",
        "autoridad": autoridad or "",
        "fecha": fecha or "",
        "fecha_emision": fecha_emision or "",
        "type_id": type_id,
        "type_label": label,
        "tramite": tramite,
        "departamento": departamento,
        "keywords": keywords,
        "spans": spans,
        "entities": entities,
        "n_entities": len(entities),
        "monto_total": float(sum(e["monto_numerico"] for e in entities)),
        "should_have_persons": should_have_persons,
        "confidence_score": validation["confidence_score"] if validation else 0.0,
        "validation_passed": bool(validation and validation["validation_passed"]),
        "confidence": confidence,
    }


def annotate_segment(text: str) -> dict[str, Any]:
    """Full annotation of one segment's extracted text → flat dict of the
    output columns (schema assembled by the stage wrapper).

    Reference form of :func:`annotate_texts`, built from the standalone
    extractors and :func:`_extract_spans_direct` (kept for the equality
    tests)."""
    low = text.lower()
    info = extract_basic_info(text, low=low)
    return _annotation(
        text,
        info["numero_oficio"],
        info["autoridad"],
        extract_fecha(text),
        info["fecha_emision"],
        matched_keywords(text, low=low),
        classify_text(text, low=low),
        _extract_spans_direct(text),
        extract_entities(text),
        P.should_have_persons(text, low=low),
    )


def annotate_texts(texts: list[str]) -> list[dict[str, Any]]:
    """:func:`annotate_segment` of each text, as one batch kernel.

    The digit runs of the whole batch are found once (``_scan``); the span
    patterns and ``BASIC_DATE`` run only where a match can start, ``fecha``
    reuses the first ``date_es`` span or else that first ``BASIC_DATE``
    match, and ``PERSON_ROW`` and the cedula + monto indicator, which both
    need a ``\\d+-\\d+-\\d+`` triple, run only on texts that have one.
    One pass over the trigger table gives both the keywords and the class.
    Output equals ``annotate_segment`` per text (equality-tested over the
    corpus and a fuzz of mixed batches).
    """
    scan = _scan(texts)
    spans = _spans(texts, scan.starts)
    basic_dates = _first_basic_dates(texts, scan.date_runs)
    out = []
    for text, text_spans, basic_date, triple in zip(
        texts, spans, basic_dates, scan.has_triple
    ):
        low = text.lower()
        numero_oficio, autoridad = _oficio_autoridad(text, low)
        fecha = next(
            (s["text"] for s in text_spans if s["field"] == "date_es"), basic_date
        )
        keywords = matched_keywords(text, low=low)
        out.append(
            _annotation(
                text,
                numero_oficio,
                autoridad,
                fecha,
                basic_date,
                keywords,
                classify_keywords(keywords),
                text_spans,
                extract_entities(text) if triple else [],
                P.table_indicator_hit(low, may_have_triple=triple),
            )
        )
    return out
