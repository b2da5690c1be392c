"""CSV source + sink — the remaining classic interchange format next to
parquet (hot tables) and JSONL (sources/jsonl.py): what spreadsheet
exports, legacy ETL drops, and labeling-vendor deliveries arrive as.

Reader: ``ray.data.read_csv`` streams files block-by-block through the
Arrow CSV parser (vectorized, zero Python per row). CSV is row-major
and untyped, so unlike parquet the bytes are all read regardless of the
projection — pass ``columns_select`` to prune immediately after parse
(cuts object-store traffic), and convert hot tables to parquet once.
Types are INFERRED per file unless ``schema_overrides`` pins them —
pin anything that must be stable across shards (a column of digit-like
ids infers int64 in one shard and string in another otherwise; the
cross-shard union would then fail loudly at schema merge).

Writer: ``Dataset.write_csv`` emits one shard per block (resumable
partitioned output, never one giant file — the S5/S6 sink convention).

Round-trip caveats documented for 100 TB honesty: CSV has no type
system (everything re-infers on read), no nested/list/struct columns,
and binary columns are NOT representable (multimodal payload tables
must stay parquet); timestamps round-trip through ISO strings.
"""

from __future__ import annotations

import copy
from typing import Optional, Sequence

import ray.data
from ray.data import Dataset

from ..context import configure_data_context


def read_csv(
    paths,
    columns_select: Optional[Sequence[str]] = None,
    schema_overrides: Optional[dict] = None,
    **kwargs,
) -> Dataset:
    """Stream CSV files into a Dataset; optional column prune straight
    after parse and per-column dtype pins (pyarrow types) that override
    inference."""
    from pyarrow import csv as pacsv

    configure_data_context()
    if schema_overrides:
        kwargs = dict(kwargs)
        # set the pins on a copy: the caller's ConvertOptions stays as passed
        co = copy.copy(kwargs.pop("convert_options", None) or pacsv.ConvertOptions())
        co.column_types = {**(co.column_types or {}), **schema_overrides}
        kwargs["convert_options"] = co
    ds = ray.data.read_csv(paths, **kwargs)
    if columns_select:
        ds = ds.select_columns(list(columns_select))
    return ds


def write_csv(ds: Dataset, out_dir: str, **kwargs) -> None:
    """Partitioned CSV sink: one file per block under ``out_dir``."""
    ds.write_csv(out_dir, **kwargs)
