"""Hypothesis fuzz for phrase_search: cross-engine parity with its DuckDB
n-gram recompute on arbitrary small-alphabet documents, multi-byte and
non-BMP tokens included."""

import duckdb
from hypothesis import given, settings, strategies as st

_PWORD = st.sampled_from(
    ["a", "b", "ab", "a.b", "0", "é", "中中", "x🙂", "Ω-1"]
)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.lists(_PWORD, min_size=0, max_size=10),
             min_size=1, max_size=4),
    st.data(),
)
def test_phrase_hits_parity_fuzz(docs_tokens, data):
    """Random small-alphabet docs (forcing overlapping/adjacent gram
    collisions) + phrases drawn both from real doc slices (guaranteed
    hits) and at random (probable misses): the kernel must match the
    DuckDB n-gram recompute exactly, including occurrence counts."""
    import pyarrow as pa

    from ocr_sam_project_ray.ops.invindex import (
        phrase_hits_batch, sql_phrase_search,
    )

    texts = [" ".join(toks) for toks in docs_tokens]
    phrases = set()
    # one slice phrase per non-empty doc (guaranteed present)
    for toks in docs_tokens:
        if toks:
            n = data.draw(st.integers(1, min(3, len(toks))))
            i = data.draw(st.integers(0, len(toks) - n))
            phrases.add(" ".join(toks[i:i + n]))
    # plus a random phrase (may or may not occur)
    phrases.add(" ".join(data.draw(
        st.lists(_PWORD, min_size=1, max_size=3))))
    phrases = sorted(phrases)

    by_len = {}
    for p in phrases:
        by_len.setdefault(len(p.split()), []).append(p)
    got = (
        phrase_hits_batch(
            pa.array(range(len(texts)), pa.int64()),
            pa.array(texts, pa.string()), by_len,
        )
        .to_pandas().sort_values(["phrase", "doc_id"])
        .reset_index(drop=True)
    )

    con = duckdb.connect()
    con.execute("CREATE TABLE documents (doc_id BIGINT, text VARCHAR)")
    for i, t in enumerate(texts):
        con.execute("INSERT INTO documents VALUES (?, ?)", [i, t])
    exp = con.sql(sql_phrase_search(phrases)).df()
    exp["n_hits"] = exp["n_hits"].astype("int64")
    exp["doc_id"] = exp["doc_id"].astype("int64")
    # sort BOTH sides in pandas — DuckDB's ORDER BY collation on
    # non-ASCII phrases differs from pandas codepoint order, and the
    # driver compare sorts rows itself anyway
    exp = exp.sort_values(["phrase", "doc_id"]).reset_index(drop=True)

    assert len(got) == len(exp), (texts, phrases, got, exp)
    assert got["doc_id"].tolist() == exp["doc_id"].tolist()
    assert got["phrase"].tolist() == exp["phrase"].tolist()
    assert got["n_hits"].tolist() == exp["n_hits"].tolist()
