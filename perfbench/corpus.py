"""Seeded benchmark inputs.

Every run generates its corpus from ``--seed`` with
``sources.synthetic.generate_corpus`` and writes the pages as url-aligned
Parquet shards (``split_offsets_by_url``), so that shard-local dedup in
``run_checkpointed`` stays exact. Files go under the run's own work
directory, named by seed and size; the shared corpus cache behind
``ensure_corpus`` is never read or written. The goldens the generator
composed stay in memory for the output checks: the program sees only the
Parquet files.

About 2% of generated pages are "tail" pages, tens of times larger than
the rest (up to 1 MB at body_scale=10), and they carry most of the bytes.
Their number and sizes vary so much between seeds that the work of a
600-page pass varied by a third from seed to seed. The corpus therefore
leaves them out: it is the first ``pages`` ordinary pages of the seed's
page stream, each with its duplicates and goldens. Generated pages depend
only on (seed, index), so this is a subset of one ``generate_corpus`` call.
"""

from __future__ import annotations

import os
import shutil
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ocr_sam_project_ray.sources.synthetic import (
    generate_corpus,
    split_offsets_by_url,
)


@dataclass
class Corpus:
    files: list[str]
    golden_pages: pa.Table
    golden_segments: pa.Table


TAIL_FACTOR = 10  # a tail page is larger than this many median pages


def _compose(seed: int, spec: dict) -> tuple[pa.Table, pa.Table, pa.Table]:
    n = spec["pages"]
    n_pool = n + n // 10
    while True:
        pages, golden_pages, golden_segments, _ = generate_corpus(
            n_pool, seed=seed, body_scale=spec["body_scale"], check_stride=spec["check_stride"],
        )
        size = pc.binary_length(pages["html"]).to_numpy(zero_copy_only=False)
        tail = set(pages.filter(pa.array(size > TAIL_FACTOR * np.median(size)))["url"].to_pylist())
        plain = [u for u in golden_pages["url"].to_pylist() if u not in tail]  # generation order
        if len(plain) >= n:
            break
        n_pool *= 2
    keep = pa.array(plain[:n])
    return tuple(t.filter(pc.is_in(t["url"], value_set=keep)) for t in (pages, golden_pages, golden_segments))


def make_corpus(work_dir: str, seed: int, spec: dict) -> Corpus:
    """Generate the corpus ``spec`` describes and write it as
    ``spec["files"]`` url-aligned Parquet shards."""
    pages, golden_pages, golden_segments = _compose(seed, spec)
    name = f"pages-s{seed}-n{spec['pages']}-b{spec['body_scale']}-f{spec['files']}"
    pages_dir = os.path.join(work_dir, name)
    shutil.rmtree(pages_dir, ignore_errors=True)
    os.makedirs(pages_dir)
    files = []
    # split_offsets_by_url can leave a small remainder piece past the n
    # asked for; fold it into the last piece so that every seed has the
    # same number of files (each file is one shard job in run_checkpointed)
    offsets = split_offsets_by_url(pages, spec["files"])
    last = spec["files"] - 1
    offsets = offsets[:last] + [(offsets[last][0], offsets[-1][1])]
    for j, (start, end) in enumerate(offsets):
        path = os.path.join(pages_dir, f"part-{j:05d}.parquet")
        pq.write_table(pages.slice(start, end - start), path)
        files.append(path)
    return Corpus(files, golden_pages, golden_segments)


def write_segment_texts(corpus: Corpus, work_dir: str, n_docs: int, n_files: int) -> tuple[list[str], pa.Table]:
    """The first ``n_docs`` golden segment texts as a (doc_id: int64, text)
    table, written as ``n_files`` Parquet files. ``curate_corpus`` needs an
    integer id: its MinHash stage casts ids to int64 and fails on the
    string doc_ids the extraction emits."""
    segments = corpus.golden_segments
    if segments.num_rows < n_docs:
        raise ValueError(f"{segments.num_rows} segments, {n_docs} docs asked for")
    texts = pa.table(
        {
            "doc_id": pa.array(range(n_docs), pa.int64()),
            "text": segments["extracted_text"].slice(0, n_docs),
        }
    )
    texts_dir = os.path.join(work_dir, "segment-texts")
    shutil.rmtree(texts_dir, ignore_errors=True)
    os.makedirs(texts_dir)
    files = []
    step = -(-texts.num_rows // n_files)
    for j in range(n_files):
        path = os.path.join(texts_dir, f"part-{j:05d}.parquet")
        pq.write_table(texts.slice(j * step, step), path)
        files.append(path)
    return files, texts
