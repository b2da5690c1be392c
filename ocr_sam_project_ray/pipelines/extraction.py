"""The flagship extraction pipeline (SURVEY.md §3.4 lifecycle)::

    (pre-pass) winner map from column-pruned (url, warc_ts)      [§2.6 dedup]
    read_parquet(pages)
      → map_batches(validate)                 stateless, Arrow   [M1,M7,M8]
      → map_batches(winner filter)            broadcast dedup    [§2.6]
      → map_batches(extract+segment+annotate) fused heavy stage  [M2-M15,M21,M24]
      [→ map_batches(project_persons)         stateless          [M16-M20]]

Fully streaming — with broadcast dedup (the default) there is NO payload
shuffle anywhere; parse overlaps read with backpressure. The ``html``
binary column is dropped inside the fused stage. The parse has one plan:
the fused kernel as stateless tasks (it holds no state to keep warm);
``PipelineConfig.dedup_mode`` picks only the dedup step.

Per-plan resource reservation: Ray Data by default reserves a share of the
CPUs for every physical operator. The default plan is two operators (Ray
does not fuse a read whose blocks it splits), so the reservation caps the
fused parse at about half the CPUs while the read needs far less. The
Dataset ``build_extraction`` returns therefore carries its own DataContext
copy with ``op_resource_reservation_enabled`` off when its whole logical
plan is reads plus task-pool maps (the default plan, every checkpoint
shard). Actor pools in an input's plan (a pool could take every CPU
from the read) and all-to-all operators (shuffle or bloom dedup, an
input with a groupby or join) keep the session's setting, and
``batch_rollup`` puts it back for its groupby. It is never switched off session-wide: on the curate
hash shuffles that cost 8-21% docs/s and 9-12% peak RSS.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import ray.data

from ..context import configure_data_context
from ..sources.synthetic import ensure_corpus
from ..stages.dedup import dedup_by_url
from ..stages.project import project_persons_batch
from ..stages.validate import validate_batch

DEDUP_MODES = ("broadcast", "bloom", "shuffle", "none")


@dataclass
class PipelineConfig:
    """Execution knobs. Defaults target the 32-CPU single-node sandbox; on
    a multi-node cluster raise ``dedup_partitions`` to O(cluster CPUs)."""

    dedup_partitions: int = 16
    # "broadcast": payload-free two-pass dedup (column-pruned winner pre-pass
    #              + broadcast filter; needs the input path) — the scale path
    # "bloom":     bounded-memory variant — Bloom of dup urls routes only
    #              possible duplicates through a shuffled exact resolve;
    #              for duplicate fractions too large to broadcast exactly
    # "shuffle":   full hash-shuffle dedup (any duplicate distribution)
    # "none":      skip dedup
    dedup_mode: str = "broadcast"
    # html payloads are KB–MB; keep parse batches SMALL so (a) a batch of
    # worst-case docs fits a worker heap and (b) huge-page stragglers are
    # split finely enough for good load balance — measured on the sf0.1
    # corpus, 48 beat 128 by ~20% wall at 32 CPUs (SURVEY.md §4 skew row)
    parse_batch_size: int = 48
    # optional per-error-class retry/backoff around the fused parse kernel
    # (ops/retry.py; parity: ocr_service.py:448-502). None = off (the local
    # parse is deterministic); set for flaky/remote kernels.
    retry_policy: object = None

    def __post_init__(self) -> None:
        if self.dedup_mode not in DEDUP_MODES:
            raise ValueError(
                f"unknown dedup_mode {self.dedup_mode!r}; expected one of "
                + ", ".join(map(repr, DEDUP_MODES))
            )


def _read_task_map_plan(op) -> bool:
    """True when ``op`` and everything upstream of it are reads or
    task-pool maps (no actor pool, no all-to-all, join, union or
    in-memory source)."""
    from ray.data._internal.compute import TaskPoolStrategy
    from ray.data._internal.logical.operators.map_operator import AbstractMap

    return (
        isinstance(op, AbstractMap)
        and isinstance(op._compute, TaskPoolStrategy)
        and all(_read_task_map_plan(d) for d in op.input_dependencies)
    )


def _scope_reservation(ds: ray.data.Dataset) -> ray.data.Dataset:
    """Return ``ds`` with the per-operator reservation off if its plan is
    reads plus task-pool maps, and at the session's setting otherwise.

    A Dataset chain shares one DataContext object with its source, so the
    flag is set on a deep copy: the caller's input keeps its context."""
    session = ray.data.DataContext.get_current().op_resource_reservation_enabled
    want = session and not _read_task_map_plan(ds._logical_plan.dag)
    if ds.context.op_resource_reservation_enabled == want:
        return ds
    ds = ray.data.Dataset.copy(ds, _deep_copy=True)
    ds.context.op_resource_reservation_enabled = want
    return ds


def read_pages(sf_dir: str, columns: Optional[list[str]] = None) -> ray.data.Dataset:
    """Read (and lazily generate) the page corpus for a scale tier.
    Pass ``columns`` to prune at the read (e.g. no ``html`` for
    metadata-only pipelines)."""
    configure_data_context()
    paths = ensure_corpus(sf_dir)
    return ray.data.read_parquet(paths["pages"], columns=columns)


def build_extraction(
    ds: ray.data.Dataset,
    cfg: Optional[PipelineConfig] = None,
    pages_path=None,
) -> ray.data.Dataset:
    """pages Dataset → annotated sub-document Dataset (lazy).

    ``pages_path`` (a path or list of files) enables the payload-free
    broadcast dedup; without it the shuffle dedup is used. The result runs
    without the per-operator reservation when its plan allows it (see the
    module docstring)."""
    cfg = cfg or PipelineConfig()
    configure_data_context()
    return _scope_reservation(_extraction_plan(ds, cfg, pages_path))


def _extraction_plan(
    ds: ray.data.Dataset, cfg: PipelineConfig, pages_path
) -> ray.data.Dataset:
    ds = ds.map_batches(validate_batch, batch_format="pyarrow")
    if cfg.dedup_mode == "broadcast" and pages_path is not None:
        from ..stages.dedup import compute_dup_winners, make_winner_filter

        winners_ref = ray.put(
            compute_dup_winners(pages_path, num_partitions=min(8, cfg.dedup_partitions))
        )
        ds = ds.map_batches(make_winner_filter(winners_ref), batch_format="pyarrow")
    elif cfg.dedup_mode == "bloom" and pages_path is not None:
        from ..stages.dedup import dedup_by_url_bloom

        ds = dedup_by_url_bloom(ds, pages_path, num_partitions=cfg.dedup_partitions)
    elif cfg.dedup_mode in ("shuffle", "broadcast", "bloom"):
        ds = dedup_by_url(ds, num_partitions=cfg.dedup_partitions)
    # looked up at build time, so a patched module attribute takes effect
    from ..stages.fused import extract_segment_annotate_batch

    kernel = extract_segment_annotate_batch
    if cfg.retry_policy is not None:
        from ..ops.retry import with_retries

        kernel = with_retries(kernel, cfg.retry_policy)
    return ds.map_batches(kernel, batch_format="pyarrow", batch_size=cfg.parse_batch_size)


def run_extraction(
    sf_dir: str, cfg: Optional[PipelineConfig] = None
) -> ray.data.Dataset:
    paths = ensure_corpus(sf_dir)
    return build_extraction(read_pages(sf_dir), cfg, pages_path=paths["pages"])


def project_persons(
    annotated: ray.data.Dataset, name_flavor: str = "a"
) -> ray.data.Dataset:
    """Annotated segments → flat per-person projection (CRM-payload analog).
    ``name_flavor`` selects the name-split convention: "a" =
    ocr_processor/app.py:499-503, "b" = crm_integrator/app.py:377-394."""
    import functools

    return annotated.map_batches(
        functools.partial(project_persons_batch, name_flavor=name_flavor),
        batch_format="pyarrow",
    )


def batch_rollup(annotated: ray.data.Dataset, num_partitions: int = 8) -> ray.data.Dataset:
    """Batch-accounting rollup (tracking_service.py:93-152 semantics):
    per url — total jobs (segments), completed/error counts, derived batch
    status. Pre-aggregated per batch inside map_batches, then a small
    groupby-sum (partial+final aggregation; SURVEY.md §2.5)."""
    import pyarrow as pa

    def partials(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        ok = pc.cast(batch["success"], pa.int64())
        t = pa.table(
            {
                "url": batch["url"],
                "completed": ok,
                "errors": pc.subtract(1, ok),
            }
        )
        agg = t.group_by("url").aggregate(
            [([], "count_all"), ("completed", "sum"), ("errors", "sum")]
        )
        return agg.rename_columns(["url", "jobs", "completed", "errors"])

    from ray.data.aggregate import Sum

    rolled = (
        annotated.map_batches(partials, batch_format="pyarrow")
        # explicit partition count: the hash-shuffle default allocates one
        # aggregator per default-partition and over-subscribes small nodes
        .groupby("url", num_partitions=num_partitions)
        .aggregate(
            Sum("jobs", alias_name="total_jobs"),
            Sum("completed", alias_name="completed_count"),
            Sum("errors", alias_name="error_count"),
        )
    )

    def status(batch: pa.Table) -> pa.Table:
        total = batch["total_jobs"].to_pylist()
        done = batch["completed_count"].to_pylist()
        err = batch["error_count"].to_pylist()
        st = []
        for t, d, e in zip(total, done, err):
            if e == 0 and d == t:
                st.append("completed")
            elif d > 0:
                st.append("partial_completion")
            else:
                st.append("failed")
        return batch.append_column("batch_status", pa.array(st, type=pa.string()))

    return _scope_reservation(rolled.map_batches(status, batch_format="pyarrow"))
