"""Golden end-to-end: the full Ray pipeline over the sf0.001 corpus must
reproduce the generator's composed expectations byte-for-byte (the
byte-identical extracted-text contract), including error rows, dedup, and
annotation columns. Also: dedup idempotence and order independence."""

import pandas as pd
import pyarrow.parquet as pq
import pytest
import ray.data
from ray.data import DataContext

from ocr_sam_project_ray.pipelines.extraction import (
    PipelineConfig, batch_rollup, build_extraction, project_persons,
    read_pages, run_extraction,
)
from ocr_sam_project_ray.sources.synthetic import ensure_corpus

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def golden():
    paths = ensure_corpus(SF)
    return {
        "pages": pq.read_table(paths["golden_pages"]).to_pandas(),
        "segments": pq.read_table(paths["golden_segments"]).to_pandas(),
        "entities": pq.read_table(paths["golden_entities"]).to_pandas(),
    }


@pytest.fixture(scope="module")
def annotated(golden):
    ds = run_extraction(SF, PipelineConfig(dedup_partitions=4))
    return ds.to_pandas()


def test_segments_match_golden_bytes(annotated, golden):
    ok = annotated[annotated.success].sort_values("doc_id").reset_index(drop=True)
    exp = golden["segments"].sort_values("doc_id").reset_index(drop=True)
    assert list(ok.doc_id) == list(exp.doc_id)
    assert list(ok.extracted_text) == list(exp.extracted_text)  # BYTE-identical


def test_annotations_match_golden(annotated, golden):
    ok = annotated[annotated.success].sort_values("doc_id").reset_index(drop=True)
    exp = golden["segments"].sort_values("doc_id").reset_index(drop=True)
    assert list(ok.type_id) == list(exp.type_id)
    assert list(ok.type_label) == list(exp.type_label)
    assert list(ok.tramite) == list(exp.tramite)
    assert list(ok.departamento) == list(exp.departamento)
    assert list(ok.n_entities) == list(exp.n_entities)
    assert [round(x, 6) for x in ok.monto_total] == [round(x, 6) for x in exp.monto_total]
    assert list(ok.priority) == list(exp.priority)
    assert list(ok.urgent) == list(exp.urgent)
    assert list(ok.count_valid) == list(exp.count_valid)
    assert list(ok.declared_count) == list(exp.declared_count)


def test_error_rows_preserved(annotated, golden):
    bad = annotated[~annotated.success]
    exp_bad = golden["pages"][~golden["pages"].success]
    assert sorted(bad.url) == sorted(exp_bad.url)
    assert sorted(bad.error) == sorted(exp_bad.error)


def test_dedup_kept_latest(annotated, golden):
    # every url appears exactly once at page level; warc_ts is the max
    doc_level = annotated.groupby("url").warc_ts.first().reset_index()
    exp = golden["pages"][["url", "warc_ts"]]
    m = doc_level.merge(exp, on="url", suffixes=("", "_exp"))
    assert len(m) == len(exp)
    assert (m.warc_ts == m.warc_ts_exp).all()


def test_entities_match_golden(annotated, golden):
    persons = project_persons(
        run_extraction(SF, PipelineConfig(dedup_partitions=4))
    ).to_pandas()
    got = persons.sort_values(["doc_id", "secuencia"]).reset_index(drop=True)
    exp = golden["entities"].sort_values(["doc_id", "seq"]).reset_index(drop=True)
    assert list(got.doc_id) == list(exp.doc_id)
    assert list(got.nombre_completo) == list(exp.nombre_completo)
    assert list(got.identificacion) == list(exp.numero_identificacion)
    assert [round(x, 6) for x in got.monto_numerico] == [
        round(x, 6) for x in exp.monto_numerico
    ]
    # flavor-A name split spot check
    row = got.iloc[0]
    toks = row.nombre_completo.split()
    assert row.nombre == toks[0]


def test_batch_rollup_statuses(annotated, golden):
    rolled = batch_rollup(
        run_extraction(SF, PipelineConfig(dedup_partitions=4))
    ).to_pandas()
    gp = golden["pages"]
    merged = rolled.merge(gp[["url", "success", "n_segments"]], on="url")
    assert len(merged) == len(gp)
    good = merged[merged.success]
    assert (good.batch_status == "completed").all()
    assert (good.total_jobs == good.n_segments).all()
    bad = merged[~merged.success]
    assert (bad.batch_status == "failed").all()
    assert (bad.error_count == 1).all()


def test_order_independence_and_idempotence(annotated):
    # different partitioning → identical sorted output
    out2 = run_extraction(SF, PipelineConfig(dedup_partitions=2)).to_pandas()
    a = annotated.sort_values("doc_id").reset_index(drop=True)
    b = out2.sort_values("doc_id").reset_index(drop=True)
    assert list(a.doc_id) == list(b.doc_id)
    assert list(a.extracted_text) == list(b.extracted_text)
    assert list(a.confidence) == list(b.confidence)


def _reserved(ds) -> bool:
    return ds.context.op_resource_reservation_enabled


def test_extraction_plan_runs_without_reservation():
    """The read -> task-map extraction plan turns the per-operator
    reservation off on its own context copy: the caller's input and the
    session context keep it, and a groupby appended downstream gets it
    back."""
    pages = ensure_corpus(SF)["pages"]
    src = ray.data.read_parquet(pages)
    out = build_extraction(src, PipelineConfig(dedup_partitions=2), pages_path=pages)
    assert not _reserved(out)
    assert _reserved(src)
    assert DataContext.get_current().op_resource_reservation_enabled
    assert not _reserved(project_persons(out))
    assert _reserved(batch_rollup(out, num_partitions=2))
    assert not _reserved(out)


def test_default_plan_shape():
    """One parse plan: read -> validate -> winner filter -> fused kernel,
    every map a task-pool map of the module functions."""
    from ray.data._internal.compute import TaskPoolStrategy

    from ocr_sam_project_ray.stages import fused
    from ocr_sam_project_ray.stages.validate import validate_batch

    pages = ensure_corpus(SF)["pages"]
    op = build_extraction(ray.data.read_parquet(pages), pages_path=pages)._logical_plan.dag
    chain = []
    while True:
        chain.append(op)
        if not op.input_dependencies:
            break
        assert len(op.input_dependencies) == 1
        op = op.input_dependencies[0]
    read, validate, winners, parse = reversed(chain)
    assert read.name == "ReadParquet"
    assert validate._fn is validate_batch
    assert winners.name == "MapBatches(drop_losers)"
    assert parse._fn is fused.extract_segment_annotate_batch
    assert all(isinstance(o._compute, TaskPoolStrategy) for o in chain)


def test_dedup_mode_is_checked():
    with pytest.raises(ValueError, match="'brodcast'") as err:
        PipelineConfig(dedup_mode="brodcast")
    for mode in ("broadcast", "bloom", "shuffle", "none"):
        assert repr(mode) in str(err.value)
        PipelineConfig(dedup_mode=mode)


def test_removed_parse_alternates_are_rejected():
    with pytest.raises(TypeError):
        PipelineConfig(use_actors=True)


@pytest.mark.parametrize(
    "cfg",
    [
        PipelineConfig(dedup_partitions=2, dedup_mode="shuffle"),
        PipelineConfig(dedup_partitions=2, dedup_mode="bloom"),
    ],
    ids=["shuffle_dedup", "bloom_dedup"],
)
def test_actor_and_all_to_all_plans_keep_reservation(cfg):
    pages = ensure_corpus(SF)["pages"]
    assert _reserved(build_extraction(ray.data.read_parquet(pages), cfg, pages_path=pages))


class _Identity:
    def __call__(self, batch):
        return batch


@pytest.mark.parametrize("upstream", ["groupby", "join", "actor_pool"])
def test_input_with_all_to_all_keeps_reservation(upstream):
    """The whole plan counts, not only the operators build_extraction adds;
    an actor pool upstream could take every CPU from the read."""
    pages = ensure_corpus(SF)["pages"]
    src = ray.data.read_parquet(pages)
    if upstream == "groupby":
        src = src.groupby("url", num_partitions=2).map_groups(
            lambda g: g, batch_format="pyarrow"
        )
    elif upstream == "actor_pool":
        src = src.map_batches(_Identity, batch_format="pyarrow", concurrency=1)
    else:
        urls = ray.data.read_parquet(pages, columns=["url"])
        src = src.join(urls, "left_semi", num_partitions=2, on=("url",))
    out = build_extraction(src, PipelineConfig(dedup_mode="none"))
    assert _reserved(out)
    assert not _reserved(build_extraction(ray.data.read_parquet(pages),
                                          PipelineConfig(dedup_mode="none")))

