"""Self-test of the benchmark's output checks.

    python3 perfbench/selftest.py [--seed N]

Builds, from a small seeded corpus, the output the engine must produce,
confirms that the checks accept it, then corrupts it in small ways (one
flipped byte in one row, among others) and confirms that the checks reject
every corruption. Needs no Ray session. Exits 0 only when the clean output
passes and every corruption is caught.
"""

from __future__ import annotations

import argparse
import os
import sys

import pyarrow as pa
import pyarrow.compute as pc

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def golden_output(golden_pages: pa.Table, golden_segments: pa.Table) -> pa.Table:
    """The extraction output the goldens prescribe, in the columns the
    checks read."""
    from perfbench.checks import ANNOTATION_COLUMNS

    ts = dict(zip(golden_pages["url"].to_pylist(), golden_pages["warc_ts"].to_pylist()))
    seg = golden_segments.to_pylist()
    bad = golden_pages.filter(pc.invert(golden_pages["success"])).to_pylist()
    rows = [
        {**{c: r[c] for c in ANNOTATION_COLUMNS}, "doc_id": r["doc_id"], "url": r["url"],
         "warc_ts": ts[r["url"]], "success": True, "error": "",
         "extracted_text": r["extracted_text"], "monto_total": r["monto_total"]}
        for r in seg
    ]
    blank = {c: seg[0][c] for c in ANNOTATION_COLUMNS}
    rows += [
        {**blank, "doc_id": r["url"], "url": r["url"], "warc_ts": r["warc_ts"],
         "success": False, "error": r["error"], "extracted_text": "", "monto_total": 0.0}
        for r in bad
    ]
    return pa.Table.from_pylist(rows)


def flip_byte(table: pa.Table, column: str, row: int) -> pa.Table:
    """``table`` with the low bit of the first byte of one string cell flipped."""
    values = table[column].to_pylist()
    raw = bytearray(values[row].encode("utf-8"))
    raw[0] ^= 0x01
    values[row] = raw.decode("utf-8")
    i = table.schema.get_field_index(column)
    return table.set_column(i, column, pa.array(values, table.schema.field(column).type))


def _replace(table: pa.Table, column: str, row: int, value) -> pa.Table:
    values = table[column].to_pylist()
    values[row] = value
    i = table.schema.get_field_index(column)
    return table.set_column(i, column, pa.array(values, table.schema.field(column).type))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=42)
    args = ap.parse_args(argv)
    sys.path.insert(0, ROOT)

    from ocr_sam_project_ray.sources.synthetic import generate_corpus
    from perfbench.checks import check_curate, check_extraction, curate_expectations

    _, gp, gs, _ = generate_corpus(240, seed=args.seed, check_stride=16)
    out = golden_output(gp, gs)
    ok_rows = [i for i, s in enumerate(out["success"].to_pylist()) if s]
    err_rows = [i for i, s in enumerate(out["success"].to_pylist()) if not s]
    mid = ok_rows[len(ok_rows) // 2]

    failures = 0
    clean = check_extraction(out, gp, gs)
    if clean:
        print(f"FAIL clean extraction output rejected: {clean}")
        failures += 1
    corrupted = {
        "one flipped byte in one row's extracted_text": flip_byte(out, "extracted_text", mid),
        "one flipped byte in one row's type_label": flip_byte(out, "type_label", mid),
        "one error message changed": flip_byte(out, "error", err_rows[0]),
        "one entity count changed": _replace(out, "n_entities", mid, out["n_entities"][mid].as_py() + 1),
        "one row dropped": out.slice(1),
        "one row duplicated": pa.concat_tables([out, out.slice(mid, 1)]),
        "a losing warc_ts kept": _replace(
            out, "warc_ts", mid, out["warc_ts"][mid].as_py().replace(year=2024)),
    }
    for what, table in corrupted.items():
        problems = check_extraction(table, gp, gs)
        print(f"{'ok  ' if problems else 'FAIL'} {what}: {problems[:1] or 'not caught'}")
        failures += not problems

    texts = pa.table({
        "doc_id": pa.array(range(gs.num_rows), pa.int64()),
        "text": gs["extracted_text"],
    })
    expected = curate_expectations(texts)
    counts = {**expected, "after_near_dedup": 10, "rows_out": 10}
    written = texts.slice(0, 10)
    clean = check_curate(counts, expected, counts, written, texts)
    if clean:
        print(f"FAIL clean curate output rejected: {clean}")
        failures += 1
    for what, (c, w) in {
        "one flipped byte in one curated text": (counts, flip_byte(written, "text", 3)),
        "after_quality off by one": ({**counts, "after_quality": counts["after_quality"] - 1}, written),
        "rows_out not matching the written rows": (counts, written.slice(1)),
    }.items():
        problems = check_curate(c, expected, counts, w, texts)
        print(f"{'ok  ' if problems else 'FAIL'} {what}: {problems[:1] or 'not caught'}")
        failures += not problems

    print("self-test passed" if not failures else f"self-test FAILED: {failures} checks")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
