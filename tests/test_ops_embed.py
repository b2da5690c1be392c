import numpy as np
import pyarrow.parquet as pq
import pytest

import ray.data

from ocr_sam_project_ray.ops.embed import cosine_near_pairs, knn_cosine, knn_ivf

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def emb():
    return ray.data.read_parquet(f"{SF}/embeddings.parquet")


@pytest.fixture(scope="module")
def ref():
    t = pq.read_table(f"{SF}/embeddings.parquet")
    E = np.asarray(t["embedding"].to_pylist(), dtype=np.float64)
    ids = np.asarray(t["vec_id"].to_pylist(), dtype=np.int64)
    En = E / np.linalg.norm(E, axis=1, keepdims=True)
    return ids, E, En


def _exact_topk(ref, q, k=10):
    ids, _, En = ref
    qn = q / np.linalg.norm(q)
    sims = En @ qn
    order = np.lexsort((ids, -sims))[:k]
    return set(ids[order].tolist())


def test_knn_cosine_matches_numpy(emb, ref):
    ids, E, _ = ref
    qm = E[:5]
    out = knn_cosine(emb, qm, query_ids=ids[:5].tolist(), k=10).to_pandas()
    assert len(out) == 50
    for i in range(5):
        got = set(out[out.qid == ids[i]].vec_id)
        assert got == _exact_topk(ref, E[i]), i
    # self is always the top hit with sim 1.0
    top = out.sort_values(["qid", "sim"], ascending=[True, False]).groupby("qid").head(1)
    assert (top.qid.values == top.vec_id.values).all()
    assert (top.sim == 1.0).all()


def test_knn_ivf_recall(emb, ref):
    ids, E, _ = ref
    qm = E[:10]
    out = knn_ivf(emb, qm, query_ids=ids[:10].tolist(), k=10,
                  n_centroids=8, n_probe=4).to_pandas()
    recalls = []
    for i in range(10):
        got = set(out[out.qid == ids[i]].vec_id)
        exact = _exact_topk(ref, E[i])
        recalls.append(len(got & exact) / 10)
    assert sum(recalls) / len(recalls) >= 0.5  # probing half the centroids


def test_cosine_near_pairs_exact(emb, ref):
    ids, _, En = ref
    out = cosine_near_pairs(emb, threshold=0.35, max_id=200).to_pandas()
    mask = ids < 200
    sub_ids = ids[mask]
    sub = En[mask]
    sims = sub @ sub.T
    ia, ib = np.triu_indices(len(sub_ids), k=1)
    sel = sims[ia, ib] >= 0.35
    expected = {
        (int(min(a, b)), int(max(a, b)))
        for a, b in zip(sub_ids[ia[sel]], sub_ids[ib[sel]])
    }
    got = set(zip(out.id_a, out.id_b))
    assert got == expected


def test_cosine_near_pairs_ivf_and_dedup(emb, ref):
    from ocr_sam_project_ray.ops.embed import (
        cosine_near_pairs_ivf, dedup_near_cosine,
    )

    ids, _, En = ref
    # exact pairs at a low threshold so some exist in this corpus
    sims = En @ En.T
    import numpy as np

    ia, ib = np.triu_indices(len(ids), k=1)
    sel = sims[ia, ib] >= 0.4
    exact = {(int(min(a, b)), int(max(a, b)))
             for a, b in zip(ids[ia[sel]], ids[ib[sel]])}

    got = cosine_near_pairs_ivf(emb, threshold=0.4, n_centroids=4,
                                num_partitions=2).to_pandas()
    gset = set(zip(got.id_a, got.id_b))
    assert gset <= exact                       # no false positives
    if exact:
        # default 2-probe multi-assignment: measured 0.94 on this corpus
        # (1-probe was 0.50); floor leaves margin for centroid drift
        assert len(gset) / len(exact) >= 0.75
    # no duplicate pairs despite multi-assignment (pair-key dedup)
    assert len(got) == len(gset)

    kept = dedup_near_cosine(emb, threshold=0.4, n_centroids=4,
                             num_partitions=2).to_pandas()
    kept_ids = set(kept.vec_id)
    # cluster-resolved: exactly one survivor (min id) per pair-graph
    # component — union-find recompute over the SAME bucketed pairs
    from test_ops_dedup import _union_find_survivors

    expected = _union_find_survivors(set(ids.tolist()),
                                     list(zip(got.id_a, got.id_b)))
    assert kept_ids == expected


def test_chunked_upper_pairs_equals_triu_form():
    """The shared chunked scan must emit exactly the one-shot
    m@m.T + triu_indices pairs, in the same row-major order, for chunk
    sizes that split groups mid-row (the boundary cases the exact and IVF
    kernels rely on)."""
    import numpy as np

    from ocr_sam_project_ray.ops.embed import _normalize, chunked_upper_pairs

    rng = np.random.default_rng(7)
    m = _normalize(rng.normal(size=(37, 8)))
    m[5] = m[29]  # exact duplicate rows -> sim 1.0 ties
    ids = np.sort(rng.choice(10_000, size=37, replace=False)).astype(np.int64)
    for thr in (0.2, 0.7, 0.999):
        sims = m @ m.T
        ia, ib = np.triu_indices(len(ids), k=1)
        mask = sims[ia, ib] >= thr
        exp = (
            ids[ia[mask]].tolist(),
            ids[ib[mask]].tolist(),
            np.round(sims[ia, ib][mask], 6).tolist(),
        )
        for chunk in (1, 3, 36, 37, 1024):
            got = chunked_upper_pairs(m, ids, thr, chunk=chunk)
            assert got == exp, (thr, chunk)


def test_knn_cosine_tie_break_lowest_ids(emb, ref):
    # identical vectors tie exactly; the local cut and the merge must
    # both order (sim DESC, vec_id ASC)
    ds = ray.data.from_items(
        [{"vec_id": i, "embedding": [1.0, 2.0, 3.0]} for i in range(8)]
    ).repartition(1)
    t = knn_cosine(ds, np.array([[1.0, 2.0, 3.0]]), [0], k=4)
    assert t.to_pandas()["vec_id"].tolist() == [0, 1, 2, 3]
