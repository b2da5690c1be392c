"""Curation pipeline: stage composition, per-stage accounting, output."""

import glob
import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray.data

from ocr_sam_project_ray.pipelines.curate import curate_corpus

GOOD = (
    "the quick brown fox jumps over a lazy dog and then runs far away "
    "into the green forest where it finds a quiet stream and drinks "
    "slowly before the long night settles in and every sound fades out "
    "under a pale moon that hangs low over the silent trees tonight"
)
GOOD2 = (
    "a calm morning rises over the wide valley and the first light "
    "touches every roof while the small town wakes slowly to the sound "
    "of bells and the market fills with voices that carry far along "
    "the narrow streets until the whole place hums with an easy life "
    "that lasts well into the warm evening hours"
)
GOOD3 = (
    "deep beneath the old library a forgotten archive keeps a record of "
    "every ship that ever left the harbor and the clerks who wrote the "
    "ledgers by hand would be amazed that anyone still reads the pages "
    "they filled so carefully during the long winters of that century"
)
BENCH = "what is the capital of atlantis and why did it sink below"


def _corpus():
    rows = {
        0: GOOD,                                  # clean survivor
        1: GOOD,                                  # exact dup of 0 → dropped
        2: GOOD + " tail",                        # near dup of 0 → dropped
        3: GOOD2,                                 # clean survivor
        4: "too short",                           # fails quality → dropped
        5: GOOD3 + " " + BENCH + " and the question stays open",
        # ^ contaminated (carries a benchmark 8-gram) → dropped last
    }
    return ray.data.from_arrow(
        pa.table({"doc_id": list(rows), "text": list(rows.values())})
    )


def test_curate_end_to_end(tmp_path):
    out = str(tmp_path / "curated")
    m = curate_corpus(
        _corpus(), out, bench_texts=[BENCH], near_threshold=0.7,
        num_partitions=2,
    )
    assert m["rows_in"] == 6
    assert m["after_quality"] == 5          # doc 4 out
    assert m["after_exact_dedup"] == 4      # doc 1 out
    assert m["after_near_dedup"] == 3       # doc 2 out
    assert m["after_decontam"] == 2         # doc 5 out
    assert m["rows_out"] == 2
    files = glob.glob(os.path.join(out, "*.parquet"))
    assert files
    got = pq.read_table(out).to_pydict()
    assert sorted(got["doc_id"]) == [0, 3]


def test_curate_without_bench(tmp_path):
    m = curate_corpus(_corpus(), None, near_threshold=0.7, num_partitions=2)
    assert "after_decontam" not in m
    assert m["rows_out"] == m["after_near_dedup"] == 3
    assert m["lsh_skews"]["skipped_buckets"] == 0


def test_curate_with_line_dedup(tmp_path):
    """The C4 line strip after near-dedup: the shared footer line survives
    only in its first (doc_id, idx) home; a doc that is pure boilerplate
    is dropped entirely."""
    footer = "subscribe to our newsletter for more updates"
    rows = {
        0: GOOD + "\n" + footer,        # keeps its text + wins the footer
        3: GOOD2 + "\n" + footer,       # loses the footer line
        6: GOOD3 + "\n" + footer,       # loses the footer line
        7: footer,                      # fails quality first (too short)
    }
    ds = ray.data.from_arrow(
        pa.table({"doc_id": list(rows), "text": list(rows.values())})
    )
    out = str(tmp_path / "curated_ld")
    m = curate_corpus(ds, out, near_threshold=0.7, num_partitions=2,
                      line_dedup=True)
    assert m["after_quality"] == 3
    assert m["after_line_dedup"] == 3 == m["rows_out"]
    got = pq.read_table(out).to_pydict()
    texts = dict(zip(got["doc_id"], got["text"]))
    assert texts[0] == GOOD + "\n" + footer
    assert texts[3] == GOOD2
    assert texts[6] == GOOD3


def test_curate_with_repair_and_split(tmp_path):
    """Opt-in encoding repair rewrites mojibake before quality scoring;
    assign_split partitions the output into split= directories."""
    # genuine mojibake: utf-8 bytes of 'quíck' read as latin-1
    corrupted = GOOD.replace(
        "quick", "quíck".encode("utf-8").decode("latin-1"))
    rows = {
        0: corrupted,
        3: GOOD2,
        6: GOOD3 + " and the stories those pages still tell",  # >=50 words
    }
    ds = ray.data.from_arrow(
        pa.table({"doc_id": list(rows), "text": list(rows.values())})
    )
    out = str(tmp_path / "curated_rs")
    m = curate_corpus(ds, out, near_threshold=0.7, num_partitions=2,
                      repair_encoding=True, assign_split=True)
    assert m["rows_out"] == 3
    # split= partition directories exist and carry all rows
    dirs = glob.glob(os.path.join(out, "split=*"))
    assert dirs, "expected split-partitioned output"
    got = pq.read_table(out).to_pydict()
    assert len(got["doc_id"]) == 3
    texts = dict(zip(got["doc_id"], got["text"]))
    assert "quíck" in texts[0] and "Ã" not in texts[0]  # repaired
    # split assignment matches the standalone op
    from ocr_sam_project_ray.ops.split import hash_split

    want = (
        hash_split(ds).to_pandas().set_index("doc_id").split.to_dict()
    )
    # partition column may come back as category/str per file; normalize
    splits = {}
    for d in dirs:
        name = os.path.basename(d).split("=", 1)[1]
        for f in glob.glob(os.path.join(d, "*.parquet")):
            for i in pq.read_table(f).to_pydict()["doc_id"]:
                splits[i] = name
    assert splits == want


def test_curate_string_doc_id_fails_loudly():
    """Extraction's segment ids ("url#seg001") are strings; MinHash
    near-dup keys its band rows by int64, so it must refuse them by name
    instead of failing as an Arrow cast deep inside a task."""
    rows = {"https://a.example/#seg001": GOOD, "https://b.example/#seg001": GOOD2}
    ds = ray.data.from_arrow(
        pa.table({"doc_id": list(rows), "text": list(rows.values())})
    )
    with pytest.raises(Exception) as err:
        curate_corpus(ds, None, near_threshold=0.7, num_partitions=2)
    # Ray re-raises the task's error as its own type, with the task's
    # traceback in the message
    assert (
        "TypeError: MinHash near-dup needs an integer id column; "
        "'doc_id' is string" in str(err.value)
    )
