"""Fused heavy stage: extract → segment → annotate in ONE task.

The three logical stages (stages/extract.py, stages/segment.py,
stages/annotate.py — each individually unit-tested) are pure batch→batch
functions, so composing them inside one batch function is semantically
identical to chaining three ``map_batches`` calls. Fusing them keeps the
html→text→segments intermediates inside the worker's heap instead of
round-tripping each through the object store. The three stage functions
are called through this module's globals, so a wrapper set on them here
(the benchmark's per-stage timing) takes effect.
"""

from __future__ import annotations

import pyarrow as pa

from .annotate import annotate_batch
from .extract import extract_batch
from .segment import segment_batch


def extract_segment_annotate_batch(batch: pa.Table) -> pa.Table:
    return annotate_batch(segment_batch(extract_batch(batch)))
