"""Output checks against the goldens the generator composed.

Each check returns a list of problems; an empty list means the output is
correct. The checks run outside every timed region.
"""

from __future__ import annotations

import glob
import os

import duckdb
import pyarrow as pa
import pyarrow.dataset as pads

from ocr_sam_project_ray.ops.quality import sql_quality_gopher

# compared exactly, as in tests/test_pipeline_e2e.py
ANNOTATION_COLUMNS = [
    "type_id", "type_label", "tramite", "departamento", "n_entities",
    "priority", "urgent", "count_valid", "declared_count",
]
EXTRACTION_COLUMNS = [
    "doc_id", "url", "warc_ts", "success", "error", "extracted_text",
    "monto_total", *ANNOTATION_COLUMNS,
]
MAX_REPORTED = 3


def read_parquet_dir(path: str, columns=None) -> pa.Table:
    """All Parquet files under ``path`` (any depth) as one table."""
    files = sorted(glob.glob(os.path.join(path, "**", "*.parquet"), recursive=True))
    if not files:
        raise FileNotFoundError(f"no parquet files under {path}")
    return pads.dataset(files, format="parquet").to_table(columns=columns)


def _first_diffs(got: list, exp: list, keys: list) -> str:
    diffs = [k for k, a, b in zip(keys, got, exp) if a != b]
    return f"{len(diffs)} rows, first {diffs[:MAX_REPORTED]}"


def check_extraction(out: pa.Table, golden_pages: pa.Table, golden_segments: pa.Table) -> list[str]:
    """Extraction output against the goldens: per doc_id byte-identical
    text and equal annotations, error rows equal by (url, error), every
    golden url present once with its winning warc_ts."""
    problems = []
    df = out.select(EXTRACTION_COLUMNS).to_pandas()
    ok = df[df.success].sort_values("doc_id").reset_index(drop=True)
    exp = golden_segments.to_pandas().sort_values("doc_id").reset_index(drop=True)
    if list(ok.doc_id) != list(exp.doc_id):
        missing = sorted(set(exp.doc_id) - set(ok.doc_id))
        extra = sorted(set(ok.doc_id) - set(exp.doc_id))
        problems.append(
            f"segment doc_ids differ: {len(ok)} rows vs {len(exp)} golden; "
            f"missing {missing[:MAX_REPORTED]}, unexpected {extra[:MAX_REPORTED]}, "
            f"duplicated {int(ok.doc_id.duplicated().sum())}"
        )
    else:
        keys = list(ok.doc_id)
        if list(ok.extracted_text) != list(exp.extracted_text):
            problems.append(
                "extracted_text not byte-identical: "
                + _first_diffs(list(ok.extracted_text), list(exp.extracted_text), keys)
            )
        for col in ANNOTATION_COLUMNS:
            if list(ok[col]) != list(exp[col]):
                problems.append(f"{col} differs: " + _first_diffs(list(ok[col]), list(exp[col]), keys))
        got_m = [round(x, 6) for x in ok.monto_total]
        exp_m = [round(x, 6) for x in exp.monto_total]
        if got_m != exp_m:
            problems.append("monto_total differs: " + _first_diffs(got_m, exp_m, keys))

    gp = golden_pages.to_pandas()
    bad = df[~df.success]
    exp_bad = gp[~gp.success]
    if sorted(zip(bad.url, bad.error)) != sorted(zip(exp_bad.url, exp_bad.error)):
        problems.append(
            f"error rows differ: {len(bad)} rows vs {len(exp_bad)} golden"
        )

    pages = df.groupby("url").warc_ts.agg(["nunique", "first"])
    if set(pages.index) != set(gp.url):
        problems.append(
            f"url set differs: {len(pages)} urls vs {len(gp)} golden"
        )
    else:
        merged = pages.join(gp.set_index("url").warc_ts)
        if (merged["nunique"] != 1).any() or (merged["first"] != merged.warc_ts).any():
            problems.append("a url kept a non-winning or more than one warc_ts")
    return problems


def check_same_output(got: pa.Table, expected: pa.Table, what: str) -> list[str]:
    """Two runs' outputs are equal row for row, in every column."""
    if got.schema != expected.schema:
        return [f"{what}: schema differs"]
    a = got.sort_by("doc_id").combine_chunks()
    b = expected.sort_by("doc_id").combine_chunks()
    if not a.equals(b):
        return [f"{what}: {a.num_rows} rows differ from the {b.num_rows} expected"]
    return []


def curate_expectations(texts: pa.Table) -> dict:
    """Counts an independent DuckDB evaluation gives for the curate chain:
    Gopher survivors (``ops.quality.sql_quality_gopher``) and the distinct
    texts among them."""
    con = duckdb.connect()
    try:
        con.execute("SET enable_progress_bar = false")
        con.register("documents", texts)
        gopher = sql_quality_gopher("documents", "doc_id", "text")
        after_quality, distinct = con.execute(
            f"SELECT count(*), count(DISTINCT d.text) FROM documents d "
            f"JOIN ({gopher}) q USING (doc_id) WHERE q.gopher_pass"
        ).fetchone()
    finally:
        con.close()
    return {
        "rows_in": texts.num_rows,
        "after_quality": after_quality,
        "after_exact_dedup": distinct,
    }


CHAIN = ["rows_in", "after_quality", "after_exact_dedup", "after_near_dedup", "rows_out"]


def check_curate(counts: dict, expected: dict, first_counts, written, texts: pa.Table) -> list[str]:
    """curate_corpus counts against DuckDB, a non-increasing chain, exact
    repeats across passes, and the written rows equal to input rows."""
    problems = []
    for key, want in expected.items():
        if counts.get(key) != want:
            problems.append(f"{key}: {counts.get(key)} vs {want} expected")
    chain = [counts.get(k) for k in CHAIN]
    if None in chain or any(a < b for a, b in zip(chain, chain[1:])):
        problems.append(f"stage counts not a non-increasing chain: {chain}")
    if first_counts is not None and counts != first_counts:
        problems.append(f"counts differ from the first pass: {counts} vs {first_counts}")
    if written is not None:
        if written.num_rows != counts.get("rows_out"):
            problems.append(f"{written.num_rows} rows written, rows_out {counts.get('rows_out')}")
        src = dict(zip(texts["doc_id"].to_pylist(), texts["text"].to_pylist()))
        ids = written["doc_id"].to_pylist()
        if len(set(ids)) != len(ids):
            problems.append("a doc_id was written twice")
        wrong = [i for i, t in zip(ids, written["text"].to_pylist()) if src.get(i) != t]
        if wrong:
            problems.append(f"{len(wrong)} written texts differ from the input, first {wrong[:MAX_REPORTED]}")
    return problems
