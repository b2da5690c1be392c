"""Per-stage metrics extraction from an executed Dataset."""

from __future__ import annotations


def stage_metrics(ds) -> dict:
    """{operator name: total wall time in s} of an executed Dataset, or of
    the write it ran through, from Ray Data's structured stats summary,
    upstream operators first; empty when nothing has run yet."""

    def walk(summary):
        for parent in summary.parents:
            yield from walk(parent)
        for op in summary.operators_stats:
            yield op.operator_name, op.time_total_s

    return dict(walk((ds._write_ds or ds)._get_stats_summary()))
