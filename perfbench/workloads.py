"""The benchmark's workloads.

Each workload generates its inputs from the seed (``prepare``), runs one
pass of its entry point (``run_pass``), checks a pass's output against the
goldens (``check``), and, for the traced run, runs the extra passes that
price single layers (``layer_passes``) and turns them into per-layer
metrics (``layer_metrics``). Every call into the program goes through its
public entry points: ``pipelines.extraction.build_extraction``,
``pipelines.checkpoint.run_checkpointed`` and
``pipelines.curate.curate_corpus``.
"""

from __future__ import annotations

import glob
import json
import math
import os
import shutil
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field

import pyarrow as pa
import ray
import ray.data

from ocr_sam_project_ray.ops.dedup_text import dedup_exact, dedup_near_minhash
from ocr_sam_project_ray.ops.quality import filter_quality
from ocr_sam_project_ray.pipelines.checkpoint import run_checkpointed
from ocr_sam_project_ray.pipelines.curate import curate_corpus
from ocr_sam_project_ray.pipelines.extraction import PipelineConfig, build_extraction

from . import spans
from .checks import (
    check_curate,
    check_extraction,
    check_same_output,
    curate_expectations,
    read_parquet_dir,
)
from .corpus import make_corpus, write_segment_texts
from .probes import Probe

PER_LAYER_UNITS = {
    "stages.annotate.busy_s": "s",
    "stages.extract.busy_s": "s",
    "functions.html_text.ms_per_page": "ms",
    "functions.pdf_text.ms_per_page": "ms",
    "stages.segment.busy_s": "s",
    "stages.segment.segments_per_page": "ratio",
    "stages.fused.batch_ms_p50": "ms",
    "stages.fused.batch_ms_p99": "ms",
    "stages.fused.batches": "count",
    "stages.validate.busy_s": "s",
    "stages.validate.rows_rejected": "count",
    "stages.dedup.winners_s": "s",
    "stages.dedup.drop_ratio": "ratio",
    "ray.read_noop_s": "s",
    "ray.kernel_util": "ratio",
    "sink.write_s": "s",
    "sink.mb_written": "MB",
    "ray.objstore_peak_mb": "MB",
    "ray.spill_mb": "MB",
    "pipelines.checkpoint.shard_s_p50": "s",
    "pipelines.checkpoint.shard_s_max": "s",
    "pipelines.checkpoint.shards_redone": "count",
    "pipelines.checkpoint.shards_skipped": "count",
    "ops.quality.busy_s": "s",
    "ops.dedup_text.exact_s": "s",
    "ops.dedup_text.near_s": "s",
    "ops.dedup_text.lsh_skipped_ratio": "ratio",
    "pipelines.curate.overhead_s": "s",
    "trace.overhead_s": "s",
    "trace.accounted_frac": "ratio",
}
LAYER_REPS = 2
_MB = 1024 * 1024


@dataclass
class PassResult:
    wall: float  # job wall: dataset construction to a complete sink
    rows: int  # docs_per_s numerator
    resume_s: float  # see protocol.json
    total: float  # all timed work of the pass; what a cold pass adds to setup_s
    out: object = None  # what check() reads
    extra: dict = field(default_factory=dict)


def _timed(fn) -> tuple[object, float]:
    t0 = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - t0


def _noop(batch: pa.Table) -> pa.Table:
    return batch


def _dir_mb(path: str) -> float:
    files = glob.glob(os.path.join(path, "**", "*.parquet"), recursive=True)
    return sum(os.path.getsize(f) for f in files) / _MB


def _median_each(rows: list[dict]) -> dict:
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]}


def _p99(values: list[float]) -> float:
    ordered = sorted(values)
    return ordered[math.ceil(0.99 * len(ordered)) - 1]


class Workload:
    def __init__(self, name: str, spec: dict, seed: int, work_dir: str, num_cpus: int):
        self.name, self.spec, self.seed = name, spec, seed
        self.work_dir, self.num_cpus = work_dir, num_cpus
        self.out_dir = os.path.join(work_dir, "out")
        self.probing = False  # set while warm passes run
        self.probe_stats: dict = {}

    def _job(self, fn) -> tuple[object, float]:
        """Time the job that defines docs_per_s, under a Probe when probing."""
        if not self.probing:
            return _timed(fn)
        with Probe() as probe:
            result = _timed(fn)
        self.probe_stats = probe.stats()
        return result


class Extraction(Workload):
    """``build_extraction`` over the seeded pages into a Parquet sink."""

    def prepare(self) -> None:
        self.corpus = make_corpus(self.work_dir, self.seed, self.spec)

    def _dataset(self, files):
        return build_extraction(ray.data.read_parquet(files), PipelineConfig(), pages_path=files)

    def run_pass(self) -> PassResult:
        shutil.rmtree(self.out_dir, ignore_errors=True)
        _, wall = self._job(lambda: self._dataset(self.corpus.files).write_parquet(self.out_dir))
        out = read_parquet_dir(self.out_dir)
        return PassResult(wall, out.num_rows, wall, wall, out, {"mb_written": _dir_mb(self.out_dir)})

    def check(self, res: PassResult) -> list[str]:
        return check_extraction(res.out, self.corpus.golden_pages, self.corpus.golden_segments)

    def _noop_pass(self, files) -> float:
        return _timed(
            lambda: ray.data.read_parquet(files).map_batches(_noop, batch_format="pyarrow").materialize()
        )[1]

    def _materialize_pass(self, ledger) -> float:
        # the same pass with materialize() in place of write_parquet; its
        # output is checked like any other
        def run():
            ds, wall = _timed(lambda: self._dataset(self.corpus.files).materialize())
            out = pa.concat_tables(ray.get(ds.to_arrow_refs()))
            return PassResult(wall, out.num_rows, wall, wall, out)

        res = ledger.attempt("materialize pass", run, self.check)
        return res.wall if res else float("nan")

    def layer_passes(self, ledger) -> dict:
        return {
            "noop": [self._noop_pass(self.corpus.files) for _ in range(LAYER_REPS)],
            "materialize": [self._materialize_pass(ledger) for _ in range(LAYER_REPS)],
        }

    def traced_pass(self, pass_id: int, trace_dir: str) -> PassResult:
        with spans.traced(pass_id, trace_dir), spans.RECORDER.span("pass", pass_id):
            return self.run_pass()

    def _span_layers(self, pass_spans: list[dict], wall: float) -> dict:
        by = defaultdict(list)
        for s in pass_spans:
            by[s["name"]].append(s)

        def busy(name):
            return sum(s["end"] - s["start"] for s in by[name])

        def total(name, key):
            return sum(s["counts"][key] for s in by[name])

        def ms_per_call(name):
            return 1000 * busy(name) / len(by[name]) if by[name] else 0.0

        fused_ms = [1000 * (s["end"] - s["start"]) for s in by["stages.fused"]]
        filtered = total("stages.dedup.filter", "rows_in")
        own = spans.self_times(pass_spans)
        worker_self = sum(own[s["id"]] for s in pass_spans if s["pid"] != os.getpid())
        return {
            "stages.annotate.busy_s": busy("stages.annotate"),
            "stages.extract.busy_s": busy("stages.extract"),
            "functions.html_text.ms_per_page": ms_per_call("functions.html_text"),
            "functions.pdf_text.ms_per_page": ms_per_call("functions.pdf_text"),
            "stages.segment.busy_s": busy("stages.segment"),
            "stages.segment.segments_per_page": total("stages.segment", "rows_out") / total("stages.segment", "rows_in"),
            "stages.fused.batch_ms_p50": statistics.median(fused_ms),
            "stages.fused.batch_ms_p99": _p99(fused_ms),
            "stages.fused.batches": len(fused_ms),
            "stages.validate.busy_s": busy("stages.validate"),
            "stages.validate.rows_rejected": total("stages.validate", "rows_rejected"),
            "stages.dedup.winners_s": busy("stages.dedup.winners"),
            "stages.dedup.drop_ratio": (filtered - total("stages.dedup.filter", "rows_out")) / filtered if filtered else 0.0,
            "ray.kernel_util": worker_self / (wall * self.num_cpus),
            "worker_self_s": worker_self,
        }

    def layer_metrics(self, warm, probes, layer, traced, span_list) -> dict:
        untraced_wall = statistics.median(r.total for r in warm)
        per_pass = [
            self._span_layers([s for s in span_list if s["pass"] == pid], res.total)
            for pid, res in traced
        ]
        m = dict.fromkeys(PER_LAYER_UNITS, 0.0)
        m.update(_median_each(per_pass))
        worker_self = m.pop("worker_self_s")
        m["ray.read_noop_s"] = statistics.median(layer["noop"])
        m["sink.write_s"] = untraced_wall - statistics.median(layer["materialize"])
        m["sink.mb_written"] = statistics.median(r.extra["mb_written"] for r in warm)
        m["ray.objstore_peak_mb"] = statistics.median(p["objstore_peak_mb"] for p in probes)
        m["ray.spill_mb"] = statistics.median(p["spill_mb"] for p in probes)
        m["trace.overhead_s"] = statistics.median(r.total for _, r in traced) - untraced_wall
        # self time of every worker span spread over the CPUs, plus the
        # winner pre-pass of the benchmark process, the executor (no-op
        # read) and the sink
        m["trace.accounted_frac"] = (
            m["stages.dedup.winners_s"] + worker_self / self.num_cpus
            + m["ray.read_noop_s"] + m["sink.write_s"]
        ) / untraced_wall
        return m


class Checkpoint(Extraction):
    """``run_checkpointed`` with one shard per input file into a fresh
    directory; then the lineage record and directory of the last half of
    the shards are dropped (a simulated preemption) and the run resumed."""

    def _lineage(self) -> dict[str, tuple[int, dict]]:
        out = {}
        for path in glob.glob(os.path.join(self.out_dir, "lineage", "*.json")):
            with open(path) as f:
                rec = json.load(f)
            out[rec["shard_id"]] = (os.stat(path).st_mtime_ns, rec)
        return out

    def run_pass(self) -> PassResult:
        files = self.corpus.files
        shutil.rmtree(self.out_dir, ignore_errors=True)
        _, wall = self._job(lambda: run_checkpointed(files, self.out_dir, n_shards=len(files)))
        full = read_parquet_dir(self.out_dir)
        mb_written = _dir_mb(self.out_dir)
        before = self._lineage()
        dropped = sorted(before)[len(before) // 2:]
        for sid in dropped:
            shutil.rmtree(os.path.join(self.out_dir, f"shard={sid}"))
            os.remove(os.path.join(self.out_dir, "lineage", f"{sid}.json"))
        _, resume = _timed(lambda: run_checkpointed(files, self.out_dir, n_shards=len(files)))
        after = self._lineage()
        redone = [sid for sid, (mtime, _) in after.items() if before[sid][0] != mtime or sid in dropped]
        shard_s = [rec["wall_time_s"] for _, rec in before.values()]
        return PassResult(
            wall, full.num_rows, resume, wall + resume,
            (full, read_parquet_dir(self.out_dir)),
            {
                "mb_written": mb_written,
                "shard_s_p50": statistics.median(shard_s),
                "shard_s_max": max(shard_s),
                "shards_redone": len(redone),
                "shards_skipped": len(after) - len(redone),
            },
        )

    def check(self, res: PassResult) -> list[str]:
        full, resumed = res.out
        return check_extraction(
            full, self.corpus.golden_pages, self.corpus.golden_segments
        ) + check_same_output(resumed, full, "resumed output")

    def _pass_shards(self) -> list[str]:
        """The input file of every shard job one pass runs: all shards,
        then the dropped half again."""
        files = self.corpus.files
        return files + files[len(files) // 2:]

    def _shard_jobs(self, sink) -> float:
        # run_checkpointed's per-shard jobs without its lineage bookkeeping
        def run():
            for i, f in enumerate(self._pass_shards()):
                sink(self._dataset([f]), i)

        return _timed(run)[1]

    def layer_passes(self, ledger) -> dict:
        tmp = os.path.join(self.work_dir, "shard-jobs")

        def write(ds, i):
            ds.write_parquet(os.path.join(tmp, f"shard={i:05d}"))

        layer = {"noop": [], "write": [], "materialize": []}
        for _ in range(LAYER_REPS):
            layer["noop"].append(sum(self._noop_pass([f]) for f in self._pass_shards()))
            shutil.rmtree(tmp, ignore_errors=True)
            layer["write"].append(self._shard_jobs(write))
            layer["materialize"].append(self._shard_jobs(lambda ds, i: ds.materialize()))
        shutil.rmtree(tmp, ignore_errors=True)
        return layer

    def layer_metrics(self, warm, probes, layer, traced, span_list) -> dict:
        m = super().layer_metrics(warm, probes, layer, traced, span_list)
        m["sink.write_s"] = statistics.median(layer["write"]) - statistics.median(layer["materialize"])
        for key in ("shard_s_p50", "shard_s_max", "shards_redone", "shards_skipped"):
            m[f"pipelines.checkpoint.{key}"] = statistics.median(r.extra[key] for r in warm)
        return m


class Curate(Workload):
    """``curate_corpus`` over the golden segment texts with int64 doc_id."""

    def prepare(self) -> None:
        corpus = make_corpus(self.work_dir, self.seed, self.spec)
        self.files, self.texts = write_segment_texts(
            corpus, self.work_dir, self.spec["docs"], self.spec["files"])
        self.expected = curate_expectations(self.texts)
        self.first_counts = None
        self.partitions = self.spec["num_partitions"]

    def _read(self):
        return ray.data.read_parquet(self.files)

    def run_pass(self, sink: bool = True) -> PassResult:
        out_dir = self.out_dir if sink else None
        shutil.rmtree(self.out_dir, ignore_errors=True)
        counts, wall = self._job(lambda: curate_corpus(self._read(), out_dir, num_partitions=self.partitions))
        written = read_parquet_dir(out_dir) if sink else None
        extra = {"mb_written": _dir_mb(out_dir) if sink else 0.0}
        return PassResult(wall, self.texts.num_rows, wall, wall, (counts, written), extra)

    def check(self, res: PassResult) -> list[str]:
        counts, written = res.out
        problems = check_curate(counts, self.expected, self.first_counts, written, self.texts)
        if self.first_counts is None and not problems:
            self.first_counts = counts
        return problems

    def _prefixes(self) -> dict:
        p = self.partitions

        def exact():
            return dedup_exact(filter_quality(self._read()), num_partitions=p).drop_columns(["content_fp"])

        return {
            "noop": _timed(lambda: self._read().map_batches(_noop, batch_format="pyarrow").materialize())[1],
            "quality": _timed(lambda: filter_quality(self._read()).materialize())[1],
            "exact": _timed(lambda: exact().materialize())[1],
            "near": _timed(lambda: dedup_near_minhash(exact().materialize(), num_partitions=p).materialize())[1],
        }

    def layer_passes(self, ledger) -> dict:
        layer = defaultdict(list)
        for _ in range(LAYER_REPS):
            for k, v in self._prefixes().items():
                layer[k].append(v)
            res = ledger.attempt("curate pass without sink", lambda: self.run_pass(sink=False), self.check)
            layer["no_sink"].append(res.wall if res else float("nan"))
        return layer

    def traced_pass(self, pass_id: int, trace_dir: str) -> PassResult:
        with spans.RECORDER.span("pass", pass_id):
            return self.run_pass()

    def layer_metrics(self, warm, probes, layer, traced, span_list) -> dict:
        med = {k: statistics.median(v) for k, v in layer.items()}
        untraced_wall = statistics.median(r.wall for r in warm)
        counts = warm[0].out[0]
        m = dict.fromkeys(PER_LAYER_UNITS, 0.0)
        m.update({
            "ray.read_noop_s": med["noop"],
            "sink.write_s": untraced_wall - med["no_sink"],
            "sink.mb_written": statistics.median(r.extra["mb_written"] for r in warm),
            "ray.objstore_peak_mb": statistics.median(p["objstore_peak_mb"] for p in probes),
            "ray.spill_mb": statistics.median(p["spill_mb"] for p in probes),
            "ops.quality.busy_s": med["quality"] - med["noop"],
            "ops.dedup_text.exact_s": med["exact"] - med["quality"],
            "ops.dedup_text.near_s": med["near"] - med["exact"],
            "ops.dedup_text.lsh_skipped_ratio": counts["lsh_skews"]["skipped_members"] / counts["after_exact_dedup"],
            "pipelines.curate.overhead_s": med["no_sink"] - med["near"],
            "trace.overhead_s": statistics.median(r.wall for _, r in traced) - untraced_wall,
            "trace.accounted_frac": (med["near"] + untraced_wall - med["no_sink"]) / untraced_wall,
        })
        return m


WORKLOADS = {
    "extract_large_pages": Extraction,
    "checkpoint_resume": Checkpoint,
    "curate_segments": Curate,
}
