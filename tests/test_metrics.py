import ray.data

from ocr_sam_project_ray.pipelines.metrics import stage_metrics


def test_stage_metrics_of_written_dataset(tmp_path):
    ds = ray.data.range(1000).map_batches(lambda b: b)
    ds.write_parquet(str(tmp_path / "out"))
    stats = stage_metrics(ds)
    assert stats, stats
    assert any("ReadRange" in name for name in stats), stats
    assert any("Write" in name for name in stats), stats
    assert all(isinstance(t, float) and t >= 0 for t in stats.values()), stats


def test_stage_metrics_empty_before_execution():
    assert stage_metrics(ray.data.range(10).map_batches(lambda b: b)) == {}
