"""Document-type classifier: the 16-type Panamanian oficio taxonomy.

The taxonomy (id, label, tramite, departamento) replicates the enumeration in
the reference's classification prompt/schema
(/root/reference/src/services/ocr_service.py:299-321 and the schema enum at
ocr_service.py:135-168). The reference delegates the actual classification to
a remote LLM; this engine replaces that with a deterministic first-match
keyword rule table (triggers are our design, ordered most-specific-first so
matching is unambiguous), which also determines priority/urgency downstream
(crm_integrator/app.py:404-447 keyword semantics).
"""

from __future__ import annotations


# (id, label, tramite, departamento) — ocr_service.py:305-320
TAXONOMY: list[tuple[int, str, str, str]] = [
    (1, "Oficios de Secuestros Civiles", "Secuestros", "Civil"),
    (2, "Oficios de Aprehensiones", "Secuestros", "Civil"),
    (3, "Oficios de Solicitud de Traslado de Fondos Aprehendidos", "Secuestros", "Civil"),
    (4, "Oficios de Levantamiento Civiles y Penales", "Levantamientos", "Civil"),
    (5, "Oficios de Embargos", "Embargos", "Civil"),
    (6, "Oficios de Adjudicación en Procesos de Sucesión", "Juicios de Sucesión", "Civil"),
    (7, "Oficios de Investigaciones de Procesos de Sucesión", "Juicios de Sucesión", "Civil"),
    (8, "Oficios de Solo Notificación", "Citaciones", "Civil"),
    (9, "Oficios de Citaciones", "Citaciones", "Civil"),
    (10, "Oficios de Investigaciones Civiles", "Investigaciones", "Penal"),
    (11, "Oficios de Investigación de Familia", "Investigaciones", "Penal"),
    (12, "Oficios de Investigaciones de Procesos Penales", "Investigaciones", "Penal"),
    (13, "Oficios Solicitando Información de Clientes", "Investigaciones", "Penal"),
    (14, "Oficios de Inspección Ocular", "Investigaciones", "Penal"),
    (15, "Oficios de Allanamiento", "Investigaciones", "Penal"),
    (16, "Diligencia Exhibitoria", "Investigaciones", "Penal"),
]

TAXONOMY_BY_ID = {t[0]: t for t in TAXONOMY}

# Ordered trigger table: FIRST substring hit (on lowercased text) wins.
# Most-specific phrases first so e.g. "traslado de fondos" beats "secuestro".
TRIGGERS: list[tuple[str, int]] = [
    ("traslado de fondos", 3),
    ("adjudicación", 6),
    ("investigación de sucesión", 7),
    ("diligencia exhibitoria", 16),
    ("inspección ocular", 14),
    ("allanamiento", 15),
    ("investigación de familia", 11),
    ("proceso penal", 12),
    ("información de clientes", 13),
    ("investigación civil", 10),
    ("aprehensión", 2),
    ("secuestro", 1),
    ("levantamiento", 4),
    ("embargo", 5),
    ("solo notificación", 8),
    ("citación", 9),
    ("sucesión", 6),
    ("investigación", 10),
]

_TRIGGER_TYPE = dict(TRIGGERS)
assert len(_TRIGGER_TYPE) == len(TRIGGERS)  # each trigger keyword once

UNCLASSIFIED = (0, "No clasificado", "No clasificado", "No clasificado")

# High-priority / urgent type keywords (crm_integrator/app.py:411-414, 437-440)
HIGH_PRIORITY_KEYWORDS = [
    "secuestro", "embargo", "aprehensión", "allanamiento", "citación", "levantamiento",
]


def classify_text(text: str, low: str = None) -> tuple[int, str, str, str]:
    """First-match keyword classification → (id, label, tramite, departamento).
    Pass ``low`` (precomputed ``text.lower()``) to avoid re-lowering large texts."""
    if low is None:
        low = (text or "").lower()
    for kw, type_id in TRIGGERS:
        if kw in low:
            return TAXONOMY_BY_ID[type_id]
    return UNCLASSIFIED


def matched_keywords(text: str, low: str = None) -> list[str]:
    """All trigger keywords present in the text, in trigger-table order
    (deduplicated) — feeds the ``palabras_clave_encontradas`` analog column
    (ocr_service.py:277-281 schema field)."""
    if low is None:
        low = (text or "").lower()
    seen: list[str] = []
    for kw, _ in TRIGGERS:
        if kw in low and kw not in seen:
            seen.append(kw)
    return seen


def classify_keywords(keywords: list[str]) -> tuple[int, str, str, str]:
    """:func:`classify_text` from :func:`matched_keywords`' output: that list
    is the trigger hits in table order, so its first entry is the first hit
    (one pass over TRIGGERS serves both columns)."""
    if not keywords:
        return UNCLASSIFIED
    return TAXONOMY_BY_ID[_TRIGGER_TYPE[keywords[0]]]


def priority_for(tipo_oficio: str, monto_total: float) -> str:
    """Priority rule (crm_integrator/app.py:404-430): High iff the type label
    contains a high-priority keyword or monto_total>50000; Medium if >10000;
    else Medium (the reference's floor is Medium)."""
    low = (tipo_oficio or "").lower()
    if any(kw in low for kw in HIGH_PRIORITY_KEYWORDS):
        return "High"
    if monto_total > 50000:
        return "High"
    if monto_total > 10000:
        return "Medium"
    return "Medium"


def is_urgent(tipo_oficio: str) -> bool:
    """Urgency rule (crm_integrator/app.py:433-447)."""
    low = (tipo_oficio or "").lower()
    return any(kw in low for kw in HIGH_PRIORITY_KEYWORDS)

