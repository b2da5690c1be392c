"""CSV source/sink round-trip, pruning, quoting, and dtype pins."""

import glob

import pandas as pd
import pyarrow as pa

import ray.data

from ocr_sam_project_ray.sources.csvio import read_csv, write_csv

SF = "/root/testdata/sf0.001"


def test_roundtrip_documents(tmp_path):
    docs = ray.data.read_parquet(f"{SF}/documents.parquet")
    out = str(tmp_path / "docs_csv")
    write_csv(docs, out)
    files = glob.glob(f"{out}/*.csv")
    assert files, "sink wrote no shards"
    back = (
        read_csv(files).to_pandas()
        .sort_values("doc_id").reset_index(drop=True)
    )
    orig = docs.to_pandas().sort_values("doc_id").reset_index(drop=True)
    back = back[orig.columns.tolist()]
    assert len(back) == len(orig)
    assert back["doc_id"].tolist() == orig["doc_id"].tolist()
    assert back["text"].tolist() == orig["text"].tolist()
    assert back["n_chars"].tolist() == orig["n_chars"].tolist()


def test_quoting_and_delimiters_roundtrip(tmp_path):
    t = pa.table({
        "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
        "text": pa.array(
            ['comma, inside', 'quote " inside', "new\nline", "plain"],
            pa.string()),
    })
    out = str(tmp_path / "q")
    write_csv(ray.data.from_arrow(t), out)
    back = (
        read_csv(glob.glob(f"{out}/*.csv"))
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    assert back["text"].tolist() == t["text"].to_pylist()


def test_column_prune(tmp_path):
    docs = ray.data.read_parquet(f"{SF}/documents.parquet")
    out = str(tmp_path / "p")
    write_csv(docs, out)
    pruned = read_csv(glob.glob(f"{out}/*.csv"),
                      columns_select=["doc_id", "lang"])
    df = pruned.to_pandas()
    assert set(df.columns) == {"doc_id", "lang"}
    assert len(df) == docs.count()


def test_schema_override_pins_dtype(tmp_path):
    # a digit-like string column must stay string when pinned —
    # without the pin the Arrow CSV reader would infer int64
    p = tmp_path / "a.csv"
    p.write_text("id,code\n1,001\n2,010\n")
    back = read_csv([str(p)],
                    schema_overrides={"code": pa.string()}).to_pandas()
    assert back["code"].tolist() == ["001", "010"]
    inferred = read_csv([str(p)]).to_pandas()
    assert inferred["code"].tolist() == [1, 10]


def test_schema_override_leaves_caller_convert_options(tmp_path):
    from pyarrow import csv as pacsv

    p = tmp_path / "a.csv"
    p.write_text("id,code,flag\n1,001,NA\n2,010,x\n")
    co = pacsv.ConvertOptions(column_types={"id": pa.int32()},
                              null_values=["NA"], strings_can_be_null=True)
    back = read_csv([str(p)], schema_overrides={"code": pa.string()},
                    convert_options=co).to_pandas()
    # the caller's options and the pins both apply to the read ...
    assert back["code"].tolist() == ["001", "010"]
    assert str(back["id"].dtype) == "int32"
    assert back["flag"].isna().tolist() == [True, False]
    # ... and the caller's object is unchanged afterwards
    assert co.column_types == {"id": pa.int32()}
    assert co.null_values == ["NA"]
