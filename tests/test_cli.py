"""CLI (ray-job-submit surface) driven end-to-end in subprocesses — the CLI
owns its own Ray session, so it must not run under the shared fixture."""

import glob
import json
import os
import subprocess
import sys
from pathlib import Path

SF = "/root/testdata/sf0.001"
# the checkout under test, whichever directory it sits in
ROOT = Path(__file__).resolve().parents[1]


def _run(args):
    out = subprocess.run(
        [sys.executable, "-m", "ocr_sam_project_ray.cli", *args],
        capture_output=True, text=True, check=True, cwd=ROOT,
        timeout=300,
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


def test_cli_run(tmp_path):
    out_dir = str(tmp_path / "run_out")
    res = _run(["run", "--sf-dir", SF, "--out", out_dir,
                "--num-cpus", "2", "--partitions", "2"])
    assert res["out"] == out_dir
    assert res["wall_time_s"] > 0
    assert res["stats"], res
    assert glob.glob(os.path.join(out_dir, "*.parquet"))


def test_cli_resume(tmp_path):
    out_dir = str(tmp_path / "resume_out")
    res = _run(["resume", "--sf-dir", SF, "--out", out_dir,
                "--num-cpus", "2", "--partitions", "2", "--shards", "2"])
    assert res["shards_completed"] == 2
    assert res["row_count"] > 0
    assert os.path.exists(os.path.join(out_dir, "metrics.json"))
    # second invocation resumes: all shards skipped, same metrics
    res2 = _run(["resume", "--sf-dir", SF, "--out", out_dir,
                 "--num-cpus", "2", "--partitions", "2", "--shards", "2"])
    assert res2["row_count"] == res["row_count"]


def test_cli_split(tmp_path):
    out_dir = str(tmp_path / "split_out")
    res = _run(["split", "--sf-dir", SF, "--out", out_dir,
                "--num-cpus", "2", "--partitions", "2"])
    assert res["out"] == out_dir
    assert res["n_parts"] > 0
    files = glob.glob(os.path.join(out_dir, "*.parquet"))
    assert files
    # every part is a standalone valid PDF the extractor accepts
    import pyarrow.parquet as pq

    from ocr_sam_project_ray.functions.pdf_text import extract_pdf_like_text

    t = pq.read_table(files[0], columns=["part_id", "payload"])
    assert len(t) > 0
    for p in t["payload"].to_pylist()[:10]:
        assert p.startswith(b"%PDF-") and p.rstrip().endswith(b"%%EOF")
        assert extract_pdf_like_text(p)


def test_status_http_endpoint(tmp_path, monkeypatch):
    """HTTP status parity (round 4): run a small checkpointed job, then
    hit every route of the stdlib server and cross-check against the
    direct function results."""
    import glob as _glob
    import json as _json
    import os as _os
    import urllib.error
    import urllib.request

    from ocr_sam_project_ray.pipelines.checkpoint import run_checkpointed
    from ocr_sam_project_ray.pipelines.extraction import PipelineConfig
    from ocr_sam_project_ray.pipelines.status import (
        run_status, shard_status, url_status,
    )
    from ocr_sam_project_ray.pipelines.status_http import serve
    from ocr_sam_project_ray.sources.synthetic import ensure_corpus

    paths = ensure_corpus("/root/testdata/sf0.001")
    files = sorted(_glob.glob(_os.path.join(paths["pages"], "*.parquet")))
    out = str(tmp_path / "run")
    run_checkpointed(files, out, PipelineConfig(dedup_partitions=2), n_shards=2)

    server, port = serve(out, port=0)
    try:
        def get(path):
            try:
                with urllib.request.urlopen(
                    f"http://127.0.0.1:{port}{path}", timeout=10
                ) as r:
                    return r.status, _json.loads(r.read())
            except urllib.error.HTTPError as e:
                return e.code, _json.loads(e.read())

        code, body = get("/status")
        assert code == 200 and body == run_status(out)
        assert body["status"] == "completed"

        code, body = get("/status/shard/00000")
        assert code == 200 and body == shard_status(out, "00000")
        assert body["status"] == "completed"

        code, body = get("/status/shard/99999")
        assert code == 200 and body["status"] == "not_found"

        # per-url route: take a url that exists in the output
        import pyarrow.dataset as pads
        url = pads.dataset(
            _glob.glob(_os.path.join(out, "shard=*", "*.parquet")),
            format="parquet",
        ).to_table(columns=["url"])["url"][0].as_py()
        from urllib.parse import quote
        code, body = get(f"/status/url?url={quote(url, safe='')}")
        assert code == 200 and body["total_jobs"] >= 1
        assert body == url_status(out, url)

        code, body = get("/nope")
        assert code == 404
    finally:
        server.shutdown()


def test_cli_ingest_watch_picks_up_midstream(tmp_path):
    """--watch: a fragment dropped into the watched glob WHILE the loop
    runs is ingested in its own round (only it processed; the earlier
    fragment skipped), and the loop exits once the idle budget passes."""
    import shutil
    import time

    from ocr_sam_project_ray.sources.synthetic import ensure_corpus

    pages = sorted(
        glob.glob(os.path.join(ensure_corpus(SF)["pages"], "*.parquet"))
    )
    watch_dir = tmp_path / "incoming"
    watch_dir.mkdir()
    out_dir = str(tmp_path / "watch_out")
    shutil.copy(pages[0], watch_dir / "frag_a.parquet")

    proc = subprocess.Popen(
        [sys.executable, "-m", "ocr_sam_project_ray.cli", "ingest",
         "--glob", os.path.join(str(watch_dir), "*.parquet"),
         "--out", out_dir, "--num-cpus", "2", "--partitions", "2",
         "--watch", "--interval", "0.5", "--idle-budget", "12"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        cwd=ROOT,
    )
    try:
        # wait until round 1 (frag_a) completes, then drop frag_b in
        a_rec = os.path.join(out_dir, "lineage", "frag_a.json")
        deadline = time.time() + 90
        while not os.path.exists(a_rec):
            assert time.time() < deadline, "frag_a never ingested"
            assert proc.poll() is None, proc.communicate()[1]
            time.sleep(0.25)
        shutil.copy(pages[1], watch_dir / "frag_b.parquet")
        stdout, stderr = proc.communicate(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
    assert proc.returncode == 0, stderr
    res = json.loads(stdout.strip().splitlines()[-1])
    assert res["watch_rounds"] == 2
    assert res["watch_fragments_processed"] == 2
    # the LAST ingest call saw both fragments but processed only frag_b
    assert res["fragments_processed"] == 1
    assert res["fragments_skipped"] == 1
    assert os.path.exists(os.path.join(out_dir, "lineage", "frag_b.json"))


def test_cli_ingest_watch_waits_for_stable_file(tmp_path):
    """--watch write-stability guard: a fragment COPIED NON-ATOMICALLY
    into the watched dir (two chunks with a pause between) must be
    ingested exactly once, with its FULL row count — never read
    mid-copy (a truncated parquet would crash the loop or, worse,
    permanently record a partial ingest)."""
    import shutil
    import time

    from ocr_sam_project_ray.sources.synthetic import ensure_corpus

    pages = sorted(
        glob.glob(os.path.join(ensure_corpus(SF)["pages"], "*.parquet"))
    )
    import pyarrow.parquet as pq

    full_rows = pq.read_metadata(pages[0]).num_rows
    watch_dir = tmp_path / "incoming"
    watch_dir.mkdir()
    out_dir = str(tmp_path / "stable_out")
    target = watch_dir / "frag_slow.parquet"

    proc = subprocess.Popen(
        [sys.executable, "-m", "ocr_sam_project_ray.cli", "ingest",
         "--glob", os.path.join(str(watch_dir), "*.parquet"),
         "--out", out_dir, "--num-cpus", "2", "--partitions", "2",
         "--watch", "--interval", "0.5", "--idle-budget", "12"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        cwd=ROOT,
    )
    try:
        # give the watch loop time to start polling the (empty) glob,
        # then land the file in two chunks with a pause >> interval:
        # several polls observe a PARTIAL file whose stat keeps moving
        time.sleep(2.0)
        raw = open(pages[0], "rb").read()
        cut = len(raw) // 2
        with open(target, "wb") as fh:
            fh.write(raw[:cut])
            fh.flush()
            os.fsync(fh.fileno())
            time.sleep(2.0)  # 4 polls see the truncated half-file
            fh.write(raw[cut:])
        stdout, stderr = proc.communicate(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
    assert proc.returncode == 0, stderr
    res = json.loads(stdout.strip().splitlines()[-1])
    # ingested exactly once, after the copy completed, with every byte
    assert res["watch_rounds"] == 1
    assert res["watch_fragments_processed"] == 1
    assert "watch_pending_incomplete" not in res
    rec = json.load(open(os.path.join(out_dir, "lineage",
                                      "frag_slow.json")))
    assert rec["input_size"] == len(raw)
    # the splitter emits 1->N sub-docs, so row_count is >= input pages;
    # exactness = same row_count as a NON-watch ingest of the same bytes
    assert rec["row_count"] >= full_rows
    ref_out = str(tmp_path / "ref_out")
    ref = subprocess.run(
        [sys.executable, "-m", "ocr_sam_project_ray.cli", "ingest",
         "--files", pages[0], "--out", ref_out,
         "--num-cpus", "2", "--partitions", "2"],
        capture_output=True, text=True, cwd=ROOT,
    )
    assert ref.returncode == 0, ref.stderr
    ref_rec = json.load(open(glob.glob(
        os.path.join(ref_out, "lineage", "*.json"))[0]))
    assert rec["row_count"] == ref_rec["row_count"]


def test_cli_ingest_watch_inplace_rewrite(tmp_path):
    """In-place rewrite of an already-ingested path during watch: while
    the rewrite is IN FLIGHT (footerless) the path must be excluded
    from triggered batches (the staleness check would read it
    half-written); once the rewrite COMPLETES, it rides along with the
    next triggered round and is reprocessed via the lineage staleness
    check."""
    import shutil
    import time

    from ocr_sam_project_ray.sources.synthetic import ensure_corpus

    pages = sorted(
        glob.glob(os.path.join(ensure_corpus(SF)["pages"], "*.parquet"))
    )
    assert len(pages) >= 2
    watch_dir = tmp_path / "incoming"
    watch_dir.mkdir()
    out_dir = str(tmp_path / "rw_out")
    frag_a = watch_dir / "frag_a.parquet"
    shutil.copy(pages[0], frag_a)

    proc = subprocess.Popen(
        [sys.executable, "-m", "ocr_sam_project_ray.cli", "ingest",
         "--glob", os.path.join(str(watch_dir), "*.parquet"),
         "--out", out_dir, "--num-cpus", "2", "--partitions", "2",
         "--watch", "--interval", "0.5", "--idle-budget", "15"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        cwd=ROOT,
    )

    def wait_for(pred, what, deadline_s=90):
        deadline = time.time() + deadline_s
        while not pred():
            assert time.time() < deadline, f"timed out waiting: {what}"
            assert proc.poll() is None, proc.communicate()[1]
            time.sleep(0.25)

    a_rec = os.path.join(out_dir, "lineage", "frag_a.json")
    b_rec = os.path.join(out_dir, "lineage", "frag_b.json")
    c_rec = os.path.join(out_dir, "lineage", "frag_c.json")
    # rewrite content = pages[1] bytes (the corpus has 2 fragments; the
    # rewritten frag_a will dedup to 0 new rows against frag_b — the
    # test asserts REPROCESSING via input_size, not row_count)
    new_bytes = open(pages[1], "rb").read()
    try:
        wait_for(lambda: os.path.exists(a_rec), "round 1 (frag_a)")
        # begin an in-place rewrite of frag_a: truncate + half, NO footer
        fh = open(frag_a, "wb")
        fh.write(new_bytes[: len(new_bytes) // 2])
        fh.flush()
        os.fsync(fh.fileno())
        # trigger round 2 while the rewrite is stalled mid-write
        shutil.copy(pages[1], watch_dir / "frag_b.parquet")
        wait_for(lambda: os.path.exists(b_rec), "round 2 (frag_b)")
        m2 = json.load(open(b_rec))
        assert m2["status"] == "completed"
        # frag_a must NOT have been touched while footerless
        assert json.load(open(a_rec))["input_size"] == os.path.getsize(
            pages[0]
        )
        # complete the rewrite, then trigger round 3
        fh.write(new_bytes[len(new_bytes) // 2:])
        fh.close()
        shutil.copy(pages[1], watch_dir / "frag_c.parquet")
        wait_for(
            lambda: os.path.exists(c_rec)
            and json.load(open(a_rec)).get("input_size") == len(new_bytes),
            "round 3 (frag_c + frag_a reprocess)",
        )
        stdout, stderr = proc.communicate(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
    assert proc.returncode == 0, stderr
    res = json.loads(stdout.strip().splitlines()[-1])
    assert res["watch_rounds"] == 3
    # rounds processed 1 (frag_a) + 1 (frag_b) + 2 (frag_c + rewritten
    # frag_a)
    assert res["watch_fragments_processed"] == 4
