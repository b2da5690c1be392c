"""Resume-equivalence property: killing after k shards and resuming must
produce exactly the single-run output; completed shards are not reprocessed."""

import glob
import json
import os

import pandas as pd
import pyarrow as pa
import pyarrow.dataset as pads
import pyarrow.parquet as pq
import pytest

from ocr_sam_project_ray.pipelines.checkpoint import (
    completed_shards, run_checkpointed,
)
from ocr_sam_project_ray.pipelines.extraction import PipelineConfig
from ocr_sam_project_ray.sources.synthetic import ensure_corpus, split_offsets_by_url

SF = "/root/testdata/sf0.001"


@pytest.fixture()
def files():
    paths = ensure_corpus(SF)
    return sorted(glob.glob(os.path.join(paths["pages"], "*.parquet")))


def _read_out(out_dir, columns=("doc_id", "extracted_text", "success", "confidence")):
    df = (
        pads.dataset(
            glob.glob(os.path.join(out_dir, "shard=*", "*.parquet")), format="parquet"
        )
        .to_table(columns=list(columns))
        .to_pandas()
    )
    return df.sort_values("doc_id").reset_index(drop=True)


def test_full_run_writes_lineage_and_metrics(tmp_path, files):
    out = str(tmp_path / "full")
    metrics = run_checkpointed(files, out, PipelineConfig(dedup_partitions=2), n_shards=2)
    assert metrics["shards_completed"] == 2
    assert metrics["row_count"] > 0
    assert metrics["error_count"] > 0  # malformed pages captured, not dropped
    assert os.path.exists(os.path.join(out, "metrics.json"))
    recs = [
        json.load(open(p))
        for p in sorted(glob.glob(os.path.join(out, "lineage", "*.json")))
    ]
    assert [r["shard_id"] for r in recs] == ["00000", "00001"]
    assert all(r["status"] == "completed" for r in recs)


def test_resume_after_partial_run(tmp_path, files):
    full_out = str(tmp_path / "single")
    run_checkpointed(files, full_out, PipelineConfig(dedup_partitions=2), n_shards=2)
    expected = _read_out(full_out)

    # "crash" after the first shard: run over only the first shard's files
    # by doing a full run then deleting shards 1,2 + their lineage
    part_out = str(tmp_path / "resumed")
    run_checkpointed(files, part_out, PipelineConfig(dedup_partitions=2), n_shards=2)
    for sid in ("00001",):
        os.remove(os.path.join(part_out, "lineage", f"{sid}.json"))
        import shutil

        shutil.rmtree(os.path.join(part_out, f"shard={sid}"))
    assert set(completed_shards(part_out)) == {"00000"}

    # shard 0 must not be reprocessed: corrupt its data dir marker-free way —
    # record mtime and assert unchanged after resume
    probe = sorted(glob.glob(os.path.join(part_out, "shard=00000", "*.parquet")))[0]
    mtime = os.path.getmtime(probe)

    metrics = run_checkpointed(files, part_out, PipelineConfig(dedup_partitions=2), n_shards=2)
    assert metrics["shards_completed"] == 2
    assert os.path.getmtime(probe) == mtime  # skipped, not rewritten

    resumed = _read_out(part_out)
    pd.testing.assert_frame_equal(resumed, expected)


def test_status_query_api(tmp_path, files):
    """Read-side status surface (status/app.py + batch_status/app.py
    analog): shard status, aggregate run status with derived progress,
    per-url status from written output."""
    from ocr_sam_project_ray.pipelines.status import (
        run_status, shard_status, url_status,
    )

    out = str(tmp_path / "status")
    assert run_status(out)["status"] == "queued"

    run_checkpointed(files, out, PipelineConfig(dedup_partitions=2), n_shards=2)

    s = shard_status(out, "00000")
    assert s["status"] == "completed" and s["row_count"] > 0
    assert shard_status(out, "99999")["status"] == "not_found"

    r = run_status(out)
    assert r["status"] == "completed"
    assert r["shards_planned"] == 2 and r["shards_completed"] == 2
    assert r["row_count"] == r["success_count"] + r["error_count"]

    # torn shard → partial_completion
    os.remove(os.path.join(out, "lineage", "00001.json"))
    r2 = run_status(out)
    assert r2["status"] == "partial_completion"
    assert r2["shards_completed"] == 1

    # per-url query over the written parquet
    import pyarrow.dataset as pads2

    any_url = (
        pads2.dataset(
            glob.glob(os.path.join(out, "shard=*", "*.parquet")), format="parquet"
        )
        .to_table(columns=["url"])
        .column("url")[0]
        .as_py()
    )
    u = url_status(out, any_url)
    assert u["status"] in ("completed", "partial_completion", "failed")
    assert u["total_jobs"] == u["completed_count"] + u["error_count"]
    assert url_status(out, "https://no-such-url.example/")["status"] == "not_found"


def test_changed_shard_plan_is_redone(tmp_path, files):
    """Resuming with a different n_shards (or input list) must NOT skip
    shards whose zero-padded id collides with a stale lineage record — the
    recorded input_fragment/n_shards are compared against the current plan."""
    out = str(tmp_path / "replan")
    run_checkpointed(files, out, PipelineConfig(dedup_partitions=2), n_shards=2)
    # single-shard plan over the same files = the ground truth output
    truth_out = str(tmp_path / "truth")
    run_checkpointed(files, truth_out, PipelineConfig(dedup_partitions=2), n_shards=1)
    expected = _read_out(truth_out)

    # rerun with n_shards=1: shard 00000 now covers ALL files; the stale
    # 2-shard record with the same id must not cause a skip
    probe = sorted(glob.glob(os.path.join(out, "shard=00000", "*.parquet")))[0]
    mtime = os.path.getmtime(probe)
    run_checkpointed(files, out, PipelineConfig(dedup_partitions=2), n_shards=1)
    new_probe = sorted(glob.glob(os.path.join(out, "shard=00000", "*.parquet")))[0]
    assert not (new_probe == probe and os.path.getmtime(new_probe) == mtime)
    df = (
        pads.dataset(
            glob.glob(os.path.join(out, "shard=00000", "*.parquet")), format="parquet"
        )
        .to_table(columns=["doc_id", "extracted_text", "success", "confidence"])
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(df, expected)


def test_torn_shard_is_redone(tmp_path, files):
    out = str(tmp_path / "torn")
    run_checkpointed(files, out, PipelineConfig(dedup_partitions=2), n_shards=2)
    expected = _read_out(out)
    # simulate a torn write: shard dir present but lineage missing
    os.remove(os.path.join(out, "lineage", "00001.json"))
    metrics = run_checkpointed(files, out, PipelineConfig(dedup_partitions=2), n_shards=2)
    assert metrics["shards_completed"] == 2
    pd.testing.assert_frame_equal(_read_out(out), expected)


ANNOTATION_COLUMNS = [
    "type_id", "type_label", "tramite", "departamento", "n_entities",
    "priority", "urgent", "count_valid", "declared_count",
]


def _four_inputs(tmp_path, files):
    """The corpus re-split into four url-aligned files (one shard each)."""
    pages = pa.concat_tables([pq.read_table(f) for f in files])
    inputs = []
    for i, (lo, hi) in enumerate(split_offsets_by_url(pages, 4)):
        inputs.append(str(tmp_path / f"part-{i:05d}.parquet"))
        pq.write_table(pages.slice(lo, hi - lo), inputs[-1])
    assert len(inputs) == 4
    return inputs


def test_concurrent_shard_failure_is_isolated(tmp_path, files):
    """Four shards run concurrently and one input fails mid-execution (its
    html column is gone, so the validate task raises): the call raises,
    the other three shards still commit, the failed one leaves nothing
    behind, and once the input is repaired a second call redoes only that
    shard — ending in the uninterrupted run's output."""
    inputs = _four_inputs(tmp_path, files)
    cfg = PipelineConfig(dedup_partitions=2)
    columns = ["doc_id", "extracted_text", "success", *ANNOTATION_COLUMNS]
    run_checkpointed(inputs, str(tmp_path / "truth"), cfg, n_shards=4)
    expected = _read_out(str(tmp_path / "truth"), columns)

    broken = pq.read_table(inputs[2])
    pq.write_table(broken.drop_columns(["html"]), inputs[2])
    out = str(tmp_path / "out")
    with pytest.raises(Exception, match="html"):
        run_checkpointed(inputs, out, cfg, n_shards=4)
    assert set(completed_shards(out)) == {"00000", "00001", "00003"}
    assert not os.path.exists(os.path.join(out, "shard=00002"))
    assert not os.path.exists(os.path.join(out, "lineage", "00002.json"))
    assert not glob.glob(os.path.join(out, "**", "*.tmp.*"), recursive=True)
    assert not os.path.exists(os.path.join(out, "metrics.json"))

    lineage = os.path.join(out, "lineage")
    mtimes = {n: os.stat(os.path.join(lineage, n)).st_mtime_ns for n in os.listdir(lineage)}
    pq.write_table(broken, inputs[2])
    metrics = run_checkpointed(inputs, out, cfg, n_shards=4)
    assert metrics["shards_completed"] == 4
    assert {
        n: os.stat(os.path.join(lineage, n)).st_mtime_ns for n in mtimes
    } == mtimes  # only shard 00002 was redone
    pd.testing.assert_frame_equal(_read_out(out, columns), expected)


def _read_fragments(out_dir):
    df = (
        pads.dataset(
            glob.glob(os.path.join(out_dir, "fragment=*", "*.parquet")),
            format="parquet",
        )
        .to_table(columns=["doc_id", "extracted_text", "success"])
        .to_pandas()
    )
    return df.sort_values("doc_id").reset_index(drop=True)


def test_ingest_incremental_only_new_fragments(tmp_path, files):
    """Round-4 'done' bar: run, append fragments, re-run -> only new
    fragments processed, outputs identical to a from-scratch run."""
    from ocr_sam_project_ray.pipelines.checkpoint import ingest_incremental

    cfg = PipelineConfig(dedup_partitions=2)
    assert len(files) >= 2
    first, rest = files[: len(files) // 2], files[len(files) // 2:]

    inc_out = str(tmp_path / "inc")
    m1 = ingest_incremental(first, inc_out, cfg)
    assert m1["fragments_processed"] == len(first)
    assert m1["fragments_skipped"] == 0

    # append the remaining fragments and re-run over the FULL list
    m2 = ingest_incremental(files, inc_out, cfg)
    assert m2["fragments_processed"] == len(rest)
    assert m2["fragments_skipped"] == len(first)

    # third run: everything already ingested -> pure no-op
    m3 = ingest_incremental(files, inc_out, cfg)
    assert m3["fragments_processed"] == 0
    assert m3["fragments_skipped"] == len(files)

    scratch_out = str(tmp_path / "scratch")
    ms = ingest_incremental(files, scratch_out, cfg)
    assert ms["fragments_processed"] == len(files)
    pd.testing.assert_frame_equal(
        _read_fragments(inc_out), _read_fragments(scratch_out)
    )


def test_ingest_cross_fragment_url_redelivery(tmp_path, files):
    """A later fragment re-delivering an already-ingested url must not
    re-admit it (the at-least-once S3 shape): the snapshot dedup drops
    the re-delivered rows payload-free."""
    import pyarrow.parquet as pq
    import ray.data

    from ocr_sam_project_ray.pipelines.checkpoint import ingest_incremental

    cfg = PipelineConfig(dedup_partitions=2)
    out = str(tmp_path / "redeliver")
    m1 = ingest_incremental(files[:1], out, cfg)
    n_before = len(_read_fragments(out))
    assert n_before > 0

    # re-deliver the first fragment's pages under a new fragment name
    dup = str(tmp_path / "zz_redelivered.parquet")
    pq.write_table(pq.read_table(files[0]), dup)
    m2 = ingest_incremental(files[:1] + [dup], out, cfg)
    assert m2["fragments_processed"] == 1  # the new fragment ran...
    # ...but every row it carried was already ingested -> no new docs
    assert len(_read_fragments(out)) == n_before


def test_ingest_basename_collision_not_skipped(tmp_path, files):
    """Two different files sharing a basename must both be ingested:
    the skip check compares the FULL input path, not just the name."""
    import shutil

    from ocr_sam_project_ray.pipelines.checkpoint import ingest_incremental

    cfg = PipelineConfig(dedup_partitions=2)
    out = str(tmp_path / "collide")
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    a_dir.mkdir(); b_dir.mkdir()
    shutil.copy(files[0], a_dir / "batch1.parquet")
    shutil.copy(files[1], b_dir / "batch1.parquet")

    m1 = ingest_incremental([str(a_dir / "batch1.parquet")], out, cfg)
    assert m1["fragments_processed"] == 1
    # same basename, different directory and content: duplicate
    # fragment ids in ONE list are rejected loudly...
    with pytest.raises(ValueError, match="duplicate fragment ids"):
        ingest_incremental(
            [str(a_dir / "batch1.parquet"), str(b_dir / "batch1.parquet")],
            out, cfg,
        )
    # ...and across runs the b-file must NOT be skipped as a's record
    m2 = ingest_incremental([str(b_dir / "batch1.parquet")], out, cfg)
    assert m2["fragments_processed"] == 1
    assert m2["fragments_skipped"] == 0


def test_ingest_dedup_survives_archived_sources(tmp_path, files):
    """The prior-url snapshot reads completed fragments' OUTPUT shards,
    so deleting the original input after ingestion (the normal archive
    step) must not weaken cross-fragment re-delivery dedup."""
    import shutil

    import pyarrow.parquet as pq

    from ocr_sam_project_ray.pipelines.checkpoint import ingest_incremental

    cfg = PipelineConfig(dedup_partitions=2)
    out = str(tmp_path / "archived")
    src = str(tmp_path / "frag_a.parquet")
    shutil.copy(files[0], src)
    ingest_incremental([src], out, cfg)
    n_before = len(_read_fragments(out))
    assert n_before > 0

    os.remove(src)  # archive the source after ingestion

    # re-deliver the same pages under a new fragment name: every url is
    # already in fragment=frag_a's OUTPUT, so nothing new lands
    dup = str(tmp_path / "zz_redelivered_late.parquet")
    pq.write_table(pq.read_table(files[0]), dup)
    m = ingest_incremental([dup], out, cfg)
    assert m["fragments_processed"] == 1
    assert len(_read_fragments(out)) == n_before


def _dir_bytes(pattern):
    return sum(os.path.getsize(p) for p in glob.glob(pattern))


def test_ingest_sidecars_written_and_flat(tmp_path, files):
    """Round-5 sidecars: every ingested fragment gets a
    ``{out}/urlfp/fragment=<id>/`` parquet of 16-byte url fingerprints,
    row-matched to its output; the prior-dedup scan reads THOSE, so its
    byte volume is ~16 B x urls regardless of the (much wider) output
    schema — the fix for the round-4 'prior-scan grows with output
    width/history' finding."""
    import pyarrow.parquet as pq

    from ocr_sam_project_ray.pipelines.checkpoint import ingest_incremental

    cfg = PipelineConfig(dedup_partitions=2)
    out = str(tmp_path / "sidecars")
    ingest_incremental(files, out, cfg)

    frag_dirs = sorted(glob.glob(os.path.join(out, "fragment=*")))
    assert frag_dirs
    total_side = total_out = 0
    for fd in frag_dirs:
        fid = os.path.basename(fd).split("=", 1)[1]
        side = sorted(
            glob.glob(os.path.join(out, "urlfp", f"fragment={fid}",
                                   "*.parquet"))
        )
        assert side, f"missing urlfp sidecar for fragment {fid}"
        n_side = sum(pq.read_metadata(p).num_rows for p in side)
        n_out = sum(
            pq.read_metadata(p).num_rows
            for p in glob.glob(os.path.join(fd, "*.parquet"))
        )
        assert n_side == n_out, (fid, n_side, n_out)
        side_bytes = sum(os.path.getsize(p) for p in side)
        # 16 B/url + bounded parquet framing — flat in output schema width
        assert side_bytes <= 16 * n_side + 16384, (fid, side_bytes, n_side)
        total_side += side_bytes
        total_out += _dir_bytes(os.path.join(fd, "*.parquet"))
    assert total_side < total_out / 5, (total_side, total_out)


def test_ingest_dedup_survives_archived_outputs(tmp_path, files):
    """With sidecars the OUTPUT shards themselves can be archived after
    ingestion: the prior-url snapshot is rebuilt from urlfp sidecars
    alone, so a late re-delivery still lands zero new rows."""
    import shutil

    import pyarrow.parquet as pq

    from ocr_sam_project_ray.pipelines.checkpoint import ingest_incremental

    cfg = PipelineConfig(dedup_partitions=2)
    out = str(tmp_path / "arch_out")
    src = str(tmp_path / "frag_a.parquet")
    shutil.copy(files[0], src)
    ingest_incremental([src], out, cfg)
    frag_dirs = glob.glob(os.path.join(out, "fragment=*"))
    assert len(frag_dirs) == 1

    shutil.rmtree(frag_dirs[0])  # archive the OUTPUT after ingestion

    dup = str(tmp_path / "zz_redelivered_out.parquet")
    pq.write_table(pq.read_table(files[0]), dup)
    m = ingest_incremental([dup], out, cfg)
    assert m["fragments_processed"] == 1
    dup_rows = sum(
        pq.read_metadata(p).num_rows
        for p in glob.glob(
            os.path.join(out, "fragment=zz_redelivered_out", "*.parquet")
        )
    )
    assert dup_rows == 0  # every url was already in the sidecar snapshot


def test_ingest_pre_sidecar_history_falls_back(tmp_path, files):
    """Fragments ingested before sidecars existed (simulated by deleting
    the sidecar) fall back to their output shards, keeping re-delivery
    dedup intact across the upgrade."""
    import shutil

    import pyarrow.parquet as pq

    from ocr_sam_project_ray.pipelines.checkpoint import ingest_incremental

    cfg = PipelineConfig(dedup_partitions=2)
    out = str(tmp_path / "presidecar")
    src = str(tmp_path / "frag_a.parquet")
    shutil.copy(files[0], src)
    ingest_incremental([src], out, cfg)
    n_before = len(_read_fragments(out))
    shutil.rmtree(os.path.join(out, "urlfp"))  # pre-sidecar history

    dup = str(tmp_path / "zz_redelivered_fb.parquet")
    pq.write_table(pq.read_table(files[0]), dup)
    m = ingest_incremental([dup], out, cfg)
    assert m["fragments_processed"] == 1
    assert len(_read_fragments(out)) == n_before


def test_ingest_missing_snapshot_artifacts_raise(tmp_path, files):
    """A completed fragment with row_count > 0 whose sidecar AND output
    are both gone must raise loudly: the snapshot is load-bearing for
    the re-delivery guarantee (round-4 advice — silent empty glob would
    quietly re-admit duplicate urls)."""
    import shutil

    import pyarrow.parquet as pq

    from ocr_sam_project_ray.pipelines.checkpoint import ingest_incremental

    cfg = PipelineConfig(dedup_partitions=2)
    out = str(tmp_path / "torn_snapshot")
    src = str(tmp_path / "frag_a.parquet")
    shutil.copy(files[0], src)
    ingest_incremental([src], out, cfg)

    shutil.rmtree(os.path.join(out, "urlfp"))
    for d in glob.glob(os.path.join(out, "fragment=*")):
        shutil.rmtree(d)

    dup = str(tmp_path / "zz_next.parquet")
    pq.write_table(pq.read_table(files[1]), dup)
    with pytest.raises(RuntimeError, match="urlfp sidecar"):
        ingest_incremental([dup], out, cfg)


def test_ingest_no_prior_dedup_skips_snapshot_scan(tmp_path, files):
    """dedup_against_prior=False must not touch (or raise on) snapshot
    artifacts it will never read: the same torn-snapshot state that
    raises above ingests fine when prior-url dedup is opted out."""
    import shutil

    import pyarrow.parquet as pq

    from ocr_sam_project_ray.pipelines.checkpoint import ingest_incremental

    cfg = PipelineConfig(dedup_partitions=2)
    out = str(tmp_path / "optout")
    src = str(tmp_path / "frag_a.parquet")
    shutil.copy(files[0], src)
    ingest_incremental([src], out, cfg)

    shutil.rmtree(os.path.join(out, "urlfp"))
    for d in glob.glob(os.path.join(out, "fragment=*")):
        shutil.rmtree(d)

    dup = str(tmp_path / "zz_next.parquet")
    pq.write_table(pq.read_table(files[1]), dup)
    m = ingest_incremental([dup], out, cfg, dedup_against_prior=False)
    assert m["fragments_processed"] == 1


def test_ingest_inplace_rewrite_reprocessed(tmp_path, files):
    """An in-place REWRITE of an already-ingested path (same basename,
    same abspath, different bytes) must be reprocessed, not skipped —
    lineage records carry the input's (size, mtime_ns) signature."""
    import shutil

    import pyarrow.parquet as pq

    from ocr_sam_project_ray.pipelines.checkpoint import ingest_incremental

    cfg = PipelineConfig(dedup_partitions=2)
    out = str(tmp_path / "rewrite")
    src = str(tmp_path / "frag_a.parquet")
    shutil.copy(files[0], src)
    m1 = ingest_incremental([src], out, cfg)
    assert m1["fragments_processed"] == 1
    n_before = len(_read_fragments(out))

    # unchanged file -> skipped (the resume fast path survives)
    m2 = ingest_incremental([src], out, cfg)
    assert m2["fragments_skipped"] == 1
    assert m2["fragments_processed"] == 0

    # rewrite the path in place with DIFFERENT content
    pq.write_table(pq.read_table(files[1]), src)
    m3 = ingest_incremental([src], out, cfg)
    assert m3["fragments_processed"] == 1
    assert m3["fragments_skipped"] == 0
    # the fragment now reflects the new content (old rows replaced; new
    # urls admitted — prior snapshot excluded the reprocessed fragment)
    assert len(_read_fragments(out)) != n_before or not pq.read_table(
        files[0]
    ).equals(pq.read_table(files[1]))

    # pre-signature records (older engine versions) still match: strip
    # the new fields from the lineage record and re-run -> skipped
    rec_path = glob.glob(os.path.join(out, "lineage", "*.json"))[0]
    rec = json.loads(open(rec_path).read())
    rec.pop("input_size")
    rec.pop("input_mtime_ns")
    with open(rec_path, "w") as fh:
        json.dump(rec, fh)
    m4 = ingest_incremental([src], out, cfg)
    assert m4["fragments_skipped"] == 1


def test_crawl_loop_frontier_to_ingest(tmp_path, files):
    """Closes the crawl loop end-to-end: frontier discovery over the
    ingested corpus -> 'fetch' a batch of frontier urls as a new pages
    fragment -> incremental ingest processes ONLY that fragment -> the
    fetched urls leave the frontier on the next discovery pass."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data

    from ocr_sam_project_ray.ops.linkgraph import crawl_frontier

    cfg = PipelineConfig(dedup_partitions=2)
    first = files[: max(1, len(files) // 2)]
    out = str(tmp_path / "loop")

    from ocr_sam_project_ray.pipelines.checkpoint import ingest_incremental

    m1 = ingest_incremental(first, out, cfg)
    assert m1["fragments_processed"] == len(first)

    def frontier_of(paths):
        ds = ray.data.read_parquet(paths, columns=["url", "html", "text"])
        return (
            crawl_frontier(ds, num_partitions=2)
            .to_pandas().sort_values("n_refs", ascending=False)
        )

    fr = frontier_of(first)
    assert len(fr) > 0, "corpus footer links must produce a frontier"

    # 'fetch' the top frontier urls: a new crawl fragment whose pages
    # are well-formed and link back to an already-crawled url
    fetched_urls = fr["target_url"].head(5).tolist()
    back_link = pq.read_table(first[0], columns=["url"])["url"][0].as_py()
    ts = pd.Timestamp("2025-01-01")
    frag = pa.table({
        "url": pa.array(fetched_urls, pa.string()),
        "warc_ts": pa.array([ts] * len(fetched_urls), pa.timestamp("us")),
        "html": pa.array(
            [f'<!DOCTYPE html><html><body><p>fetched page</p>'
             f'<a href="{back_link}">back</a></body></html>'.encode()
             for _ in fetched_urls], pa.binary()),
        "text": pa.array(["fetched page"] * len(fetched_urls), pa.string()),
        "lang": pa.array(["es"] * len(fetched_urls), pa.string()),
    })
    frag_path = str(tmp_path / "fetched_batch.parquet")
    pq.write_table(frag, frag_path)

    # incremental ingest: ONLY the fetched fragment is processed
    m2 = ingest_incremental(first + [frag_path], out, cfg)
    assert m2["fragments_processed"] == 1
    assert m2["fragments_skipped"] == len(first)

    # the fetched urls are crawled now -> they leave the frontier
    fr2 = frontier_of(first + [frag_path])
    assert set(fetched_urls).isdisjoint(set(fr2["target_url"]))
    # and the back-link target was already crawled, so it is not
    # frontier either
    assert back_link not in set(fr2["target_url"])
