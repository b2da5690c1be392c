"""Spans around calls into each layer's public functions.

A span has a name, start and end (``time.perf_counter``, which reads the
system-wide monotonic clock, so spans of different processes share one time
axis), the id of the span that caused it, a pass id and counts taken at the
same boundary. Spans stay in memory; a worker appends its finished spans to
``spans-<pid>.jsonl`` in the trace directory once per top-level batch call,
and the benchmark process writes its own when the traced run ends.

``traced(pass_id, trace_dir)`` wraps, for the passes built inside it:

- in the benchmark process: ``compute_dup_winners`` (the winner pre-pass
  runs there);
- as top-level batch functions sent to Ray workers: ``validate_batch``, the
  winner filter that ``make_winner_filter`` returns, and the fused
  ``extract_segment_annotate_batch``;
- inside a worker, on the first traced call: ``extract_batch``,
  ``segment_batch``, ``annotate_batch`` and the per-page
  ``extract_main_text`` / ``extract_pdf_like_text`` that they call.

The program's own code is untouched; the wrappers replace module
attributes, and ``traced`` restores them on exit. Inner wrappers record
only below an open top-level span, so untraced work costs one check.
"""

from __future__ import annotations

import contextlib
import importlib
import itertools
import json
import os
import time

import pyarrow.compute as pc


class Recorder:
    """The spans of one process."""

    def __init__(self):
        self.finished: list[dict] = []
        self._stack: list[dict] = []
        self._ids = itertools.count()

    @property
    def active(self) -> bool:
        return bool(self._stack)

    @contextlib.contextmanager
    def span(self, name: str, pass_id=None, **counts):
        parent = self._stack[-1] if self._stack else None
        s = {
            "name": name,
            "id": f"{os.getpid()}:{next(self._ids)}",
            "parent": parent["id"] if parent else None,
            "pass": pass_id if parent is None else parent["pass"],
            "pid": os.getpid(),
            "counts": counts,
            "start": time.perf_counter(),
        }
        self._stack.append(s)
        try:
            yield s["counts"]
        finally:
            s["end"] = time.perf_counter()
            self._stack.pop()
            self.finished.append(s)

    def flush(self, path: str) -> None:
        spans, self.finished = self.finished, []
        if spans:
            with open(path, "a") as f:
                f.write("".join(json.dumps(s) + "\n" for s in spans))


RECORDER = Recorder()  # one per process: workers import this module once
_INNER_INSTALLED = False


def _child(name: str, fn, count_rows: bool):
    def wrapper(arg):
        if not RECORDER.active:
            return fn(arg)
        if count_rows:
            with RECORDER.span(name, rows_in=arg.num_rows) as counts:
                out = fn(arg)
                counts["rows_out"] = out.num_rows
            return out
        with RECORDER.span(name):
            return fn(arg)

    return wrapper


def _install_inner() -> None:
    global _INNER_INSTALLED
    if _INNER_INSTALLED:
        return
    from ocr_sam_project_ray.stages import extract, fused

    fused.extract_batch = _child("stages.extract", fused.extract_batch, True)
    fused.segment_batch = _child("stages.segment", fused.segment_batch, True)
    fused.annotate_batch = _child("stages.annotate", fused.annotate_batch, True)
    extract.extract_main_text = _child("functions.html_text", extract.extract_main_text, False)
    extract.extract_pdf_like_text = _child("functions.pdf_text", extract.extract_pdf_like_text, False)
    _INNER_INSTALLED = True


class TracedBatchFn:
    """A batch function sent to Ray workers that records one top-level span
    per call. The wrapped function is given directly (``fn``) or by module
    and attribute, resolved in the worker, where the module is unpatched."""

    def __init__(self, name, pass_id, trace_dir, fn=None, module=None, attr=None, inner=False):
        self.name, self.pass_id, self.trace_dir = name, pass_id, trace_dir
        self.fn, self.module, self.attr, self.inner = fn, module, attr, inner

    def __call__(self, batch):
        fn = self.fn or getattr(importlib.import_module(self.module), self.attr)
        if self.inner:
            _install_inner()
        with RECORDER.span(self.name, self.pass_id, rows_in=batch.num_rows) as counts:
            out = fn(batch)
            counts["rows_out"] = out.num_rows
            if self.name == "stages.validate":
                counts["rows_rejected"] = out.num_rows - (pc.sum(out["valid"]).as_py() or 0)
        RECORDER.flush(os.path.join(self.trace_dir, f"spans-{os.getpid()}.jsonl"))
        return out


@contextlib.contextmanager
def traced(pass_id: int, trace_dir: str):
    """Patch the layer entry points for passes built inside this block."""
    from ocr_sam_project_ray.pipelines import extraction
    from ocr_sam_project_ray.stages import dedup, fused

    orig_winners = dedup.compute_dup_winners
    orig_filter = dedup.make_winner_filter
    orig_validate = extraction.validate_batch
    orig_fused = fused.extract_segment_annotate_batch

    def compute_dup_winners(*args, **kwargs):
        with RECORDER.span("stages.dedup.winners") as counts:
            winners = orig_winners(*args, **kwargs)
            counts["rows_out"] = winners.num_rows
        return winners

    def make_winner_filter(winners_ref):
        return TracedBatchFn("stages.dedup.filter", pass_id, trace_dir, fn=orig_filter(winners_ref))

    dedup.compute_dup_winners = compute_dup_winners
    dedup.make_winner_filter = make_winner_filter
    extraction.validate_batch = TracedBatchFn(
        "stages.validate", pass_id, trace_dir,
        module="ocr_sam_project_ray.stages.validate", attr="validate_batch",
    )
    fused.extract_segment_annotate_batch = TracedBatchFn(
        "stages.fused", pass_id, trace_dir,
        module="ocr_sam_project_ray.stages.fused", attr="extract_segment_annotate_batch",
        inner=True,
    )
    try:
        yield
    finally:
        dedup.compute_dup_winners = orig_winners
        dedup.make_winner_filter = orig_filter
        extraction.validate_batch = orig_validate
        fused.extract_segment_annotate_batch = orig_fused


def load(trace_dir: str) -> list[dict]:
    spans = []
    for name in sorted(os.listdir(trace_dir)):
        if name.startswith("spans-") and name.endswith(".jsonl"):
            with open(os.path.join(trace_dir, name)) as f:
                spans.extend(json.loads(line) for line in f)
    return spans


def self_times(spans: list[dict]) -> dict[str, float]:
    """Span id -> duration minus the durations of its child spans."""
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] in own:
            own[s["parent"]] -= s["end"] - s["start"]
    return own
