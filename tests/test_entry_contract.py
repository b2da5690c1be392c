"""Driver-contract conformance: every queries() entry runs at sf0.001 and
matches its oracle_sql() under the driver's comparison shape (sorted
columns, order-insensitive values). oracle_sql() golden paths target
sf0.01 by contract, so oracles here are re-rendered for sf0.001 where they
reference golden parquet; view-based oracles run as-is."""

import sys
from pathlib import Path

import duckdb
import pandas as pd
import pytest

ROOT = Path(__file__).resolve().parents[1]  # the checkout under test
sys.path.insert(0, str(ROOT))

SF = "/root/testdata/sf0.001"


def _normalize(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
        elif str(df[c].dtype).startswith("float"):
            df[c] = df[c].round(6)
        elif str(df[c].dtype) == "bool":
            df[c] = df[c].astype(int)
        elif "datetime" in str(df[c].dtype):
            df[c] = df[c].astype("datetime64[us]").astype(str)
        elif str(df[c].dtype).startswith(("int", "uint")):
            df[c] = df[c].astype("int64")
    return df.sort_values(list(df.columns)).reset_index(drop=True)


@pytest.fixture(scope="module")
def entry_mod():
    import __ray_entry__ as E

    return E


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for v in ("documents", "embeddings"):
        c.sql(f"CREATE VIEW {v} AS SELECT * FROM read_parquet('{SF}/{v}.parquet')")
    return c


@pytest.fixture(scope="module")
def oracles_001(entry_mod):
    """oracle_sql() with golden paths re-rendered for sf0.001."""
    from ocr_sam_project_ray.sources.synthetic import corpus_paths, ensure_corpus

    ensure_corpus(SF)
    p01 = corpus_paths("/root/testdata/sf0.01")
    p001 = corpus_paths(SF)
    out = {}
    for name, sql in entry_mod.oracle_sql().items():
        for key in ("pages", "golden_pages", "golden_segments", "golden_entities"):
            sql = sql.replace(p01[key], p001[key])
        out[name] = sql
    return out


def test_entry_smoke(entry_mod):
    ds = entry_mod.entry()
    assert ds.count() > 0
    assert "extracted_text" in ds.schema().names


def test_cached_annotated_dataset_keeps_reservation(entry_mod):
    """The cached extraction output is an in-memory source: it and the
    shuffles the queries run over it keep the session's per-operator
    reservation instead of the extraction plan's reservation-off context."""
    from ray.data import DataContext

    assert DataContext.get_current().op_resource_reservation_enabled
    ds = entry_mod._annotated(SF)
    assert ds.context.op_resource_reservation_enabled
    grouped = ds.groupby("url", num_partitions=2).count()
    assert grouped.context.op_resource_reservation_enabled
    assert grouped.count() > 0


def test_every_query_has_callable_and_runs(entry_mod, con, oracles_001):
    qs = entry_mod.queries()
    assert len(qs) >= 25
    failures = []
    for name, fn in qs.items():
        got = fn(SF)
        if hasattr(got, "to_pandas"):
            got = got.to_pandas()
        assert len(got.columns) > 0, name
        sql = oracles_001.get(name)
        if sql is None:
            continue  # rows-only contract
        exp = con.sql(sql).df()
        g, e = _normalize(got), _normalize(exp)
        if list(g.columns) != list(e.columns) or not g.equals(e):
            failures.append(name)
    assert failures == []


# The external driver snapshots EXACTLY the first 50 queries() entries
# (observed at r01–r03); rotations into/out of that window must be
# deliberate. This pin makes an accidental reorder (or an insertion that
# silently shifts the window) fail a test instead of silently changing
# what the driver records.
RECORDED_50 = [
    "extract_main_text", "extract_validate", "extract_segments", "extract_classify", "extract_entities",
    "extract_montos", "extract_metadata", "extract_spans_agg", "extract_fecha_iso", "project_names",
    "text_scores", "accepted_results", "dedup_pages", "batch_rollup", "crawl_frontier",
    "token_df", "bpe_encode_docs", "knn_quantized", "pack_documents", "text_lang_id",
    "doc_fingerprint", "dedup_docs_exact", "dedup_docs_norm", "ngram_jaccard_pairs", "near_dup_verified",
    "near_dup_clusters", "dedup_docs_near_verified", "line_dedup", "pii_redact", "multimodal_meta",
    "knn_cosine", "cosine_near_pairs", "doc_embeddings", "trigram_lm_score", "dsir_score",
    "bm25_topk", "tfidf_topk", "host_pagerank", "doc_split_safe", "phrase_search",
    "quality_gopher", "dedup_incremental", "knn_from_text", "hybrid_rrf", "fix_mojibake",
    "project_names_b", "mixture_sample", "dup_span_stats", "stratified_sample", "url_canonical",
]


def test_recorded_window_boundary(entry_mod):
    keys = list(entry_mod.queries())
    assert keys[:50] == RECORDED_50, (
        "the driver-recorded 50-query window shifted — if this rotation "
        "is deliberate, update RECORDED_50 (and the registry marker "
        "comment in __ray_entry__.QUERIES)"
    )
    # every recorded query must be oracle-checked (the driver's hash gate)
    oracles = entry_mod.oracle_sql()
    missing = [k for k in RECORDED_50 if k not in oracles]
    assert not missing, f"recorded-window queries without oracles: {missing}"


# The queries without an oracle: approximate or not SQL-expressible, each
# accuracy-tested in its op's own test file. A query added without an
# oracle must be added here on purpose, not pass silently as rows-only.
ROWS_ONLY = {
    "knn_ivf", "approx_distinct_users", "bm25_topk_float", "compression_signal",
}


def test_rows_only_queries_pinned(entry_mod):
    """Registry bookkeeping only; no query runs."""
    names, oracles = set(entry_mod.queries()), set(entry_mod.oracle_sql())
    assert names - oracles == ROWS_ONLY
    assert oracles <= names


def _imported_modules(path, root):
    """The files under ``root`` of the modules a source file imports (at
    any depth, function-local imports included)."""
    import ast

    # the package a relative import starts from: the file's directory,
    # for an __init__.py as for any other module
    package = list(path.relative_to(root).parts[:-1])
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = package[: len(package) - node.level + 1]
                mod = ".".join(base + ([node.module] if node.module else []))
            else:
                mod = node.module
            names.add(mod)
            names.update(f"{mod}.{a.name}" for a in node.names)
    found = set()
    for name in names:
        f = root.joinpath(*name.split("."))
        for cand in (f.with_suffix(".py"), f / "__init__.py"):
            if cand.is_file():
                found.add(cand)
    return found


def test_ops_modules_reachable():
    """Every module under ops/, sources/, functions/ and stages/ is
    imported, directly or through other reachable modules, by a pipeline,
    the CLI or the driver entry points — a retired caller cannot leave an
    orphan behind. Static scan; nothing is imported or run."""
    pkg = ROOT / "ocr_sam_project_ray"
    todo = [*pkg.glob("pipelines/*.py"), pkg / "cli.py", ROOT / "__ray_entry__.py"]
    seen = set(todo)
    while todo:
        for mod in _imported_modules(todo.pop(), ROOT) - seen:
            seen.add(mod)
            todo.append(mod)
    orphans = sorted(str(p.relative_to(pkg))
                     for area in ("ops", "sources", "functions", "stages")
                     for p in pkg.glob(f"{area}/*.py")
                     if p.name != "__init__.py" and p not in seen)
    assert orphans == []


def test_top_level_names_referenced():
    """Every top-level function and class in the package is referenced
    somewhere in the repo (package, driver, bench, tools, tests,
    perfbench) by a name, an attribute or an import — a retired caller
    cannot leave a dead helper behind inside a kept module. Static scan;
    nothing is imported or run."""
    import ast

    pkg = ROOT / "ocr_sam_project_ray"
    files = [*pkg.rglob("*.py"), ROOT / "__ray_entry__.py", ROOT / "bench.py",
             *(ROOT / "tools").rglob("*.py"), *(ROOT / "tests").rglob("*.py"),
             *(p for p in (ROOT / "perfbench").rglob("*.py") if ".work" not in p.parts)]
    defined, used = [], set()
    for path in files:
        tree = ast.parse(path.read_text())
        if pkg in path.parents:
            for node in tree.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    defined.append((node.name, f"{path.relative_to(pkg)}:{node.name}"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name.rsplit(".", 1)[-1])
    dead = sorted(where for name, where in defined if name not in used)
    assert not dead, f"top-level names nothing references: {dead}"
