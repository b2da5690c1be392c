"""Span / entity / classification / confidence annotation stage.

Runs the batch kernel functions/extract_core.annotate_texts once per Arrow
batch, over the rows that parsed and have text, producing the typed output
columns of FIXTURES.md §2: ``spans`` and ``entities`` as Arrow
list<struct>, classification struct fields, keywords, validation score and
the confidence ladder. Parity targets are cited in
functions/extract_core.py (ocr_service.py:726-827, post_ocr_validator.py,
ocr_processor/app.py:547-582, crm_integrator/app.py:404-447).

The pipelines run it as a stateless task inside the fused stage
(stages/fused.py).
"""

from __future__ import annotations

import pyarrow as pa

from ..functions import extract_core as core
from ..functions.classify import is_urgent, priority_for

SPAN_TYPE = pa.list_(
    pa.struct(
        [("field", pa.string()), ("start", pa.int64()),
         ("end", pa.int64()), ("text", pa.string())]
    )
)

ENTITY_TYPE = pa.list_(
    pa.struct(
        [
            ("nombre_completo", pa.string()),
            ("numero_identificacion", pa.string()),
            ("numero_ruc", pa.string()),
            ("numero_cuenta", pa.string()),
            ("monto", pa.string()),
            ("monto_numerico", pa.float64()),
            ("expediente", pa.string()),
            ("tipo_persona", pa.string()),
        ]
    )
)

_EMPTY_ANNOTATION = {
    "numero_oficio": "", "autoridad": "", "fecha": "", "fecha_emision": "",
    "type_id": 0, "type_label": "No clasificado", "tramite": "No clasificado",
    "departamento": "No clasificado", "keywords": [], "spans": [],
    "entities": [], "n_entities": 0, "monto_total": 0.0,
    "should_have_persons": False, "confidence_score": 0.0,
    "validation_passed": False, "confidence": "low",
}


def annotate_batch(batch: pa.Table) -> pa.Table:
    """Append the annotation columns; rows that failed or have no text get
    the empty annotation."""
    texts = batch["extracted_text"].to_pylist()
    success = batch["success"].to_pylist()
    rows = [i for i, (ok, text) in enumerate(zip(success, texts)) if ok and text]
    anns = [_EMPTY_ANNOTATION] * len(texts)
    for i, ann in zip(rows, core.annotate_texts([texts[i] for i in rows])):
        anns[i] = ann

    def col(name):
        return [a[name] for a in anns]

    labels = col("type_label")
    montos = col("monto_total")
    return (
        batch
        .append_column("numero_oficio", pa.array(col("numero_oficio"), pa.string()))
        .append_column("autoridad", pa.array(col("autoridad"), pa.string()))
        .append_column("fecha", pa.array(col("fecha"), pa.string()))
        .append_column("fecha_emision", pa.array(col("fecha_emision"), pa.string()))
        .append_column("type_id", pa.array(col("type_id"), pa.int32()))
        .append_column("type_label", pa.array(labels, pa.string()))
        .append_column("tramite", pa.array(col("tramite"), pa.string()))
        .append_column("departamento", pa.array(col("departamento"), pa.string()))
        .append_column("keywords", pa.array(col("keywords"), pa.list_(pa.string())))
        .append_column("spans", pa.array(col("spans"), SPAN_TYPE))
        .append_column("entities", pa.array(col("entities"), ENTITY_TYPE))
        .append_column("n_entities", pa.array(col("n_entities"), pa.int64()))
        .append_column("monto_total", pa.array(montos, pa.float64()))
        .append_column(
            "should_have_persons", pa.array(col("should_have_persons"), pa.bool_())
        )
        .append_column(
            "confidence_score", pa.array(col("confidence_score"), pa.float64())
        )
        .append_column(
            "validation_passed", pa.array(col("validation_passed"), pa.bool_())
        )
        .append_column("confidence", pa.array(col("confidence"), pa.string()))
        .append_column(
            "priority",
            pa.array([priority_for(l, m) for l, m in zip(labels, montos)], pa.string()),
        )
        .append_column("urgent", pa.array([is_urgent(l) for l in labels], pa.bool_()))
    )
