"""Driver-contract simulator: runs entry() and every queries() entry against
its oracle_sql() via DuckDB, comparing row count, column names, and
order-insensitive values — the same comparison shape the external driver
applies at sf=0.01.
Each query's line carries its wall time (run and collect, oracle excluded).
Usage: python tools/check_oracle.py [sf_dir] [num_cpus] [only]
  only: optional comma-separated query names — check just those (skips
        the entry() smoke) for fast iteration on, or timing of, one op.
"""

import sys
import time
from pathlib import Path

import duckdb
import pandas as pd


def normalize(df: pd.DataFrame) -> pd.DataFrame:
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


def main():
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    ncpu = int(sys.argv[2]) if len(sys.argv) > 2 else 8

    import ray

    ray.init(address="local", num_cpus=ncpu, include_dashboard=False,
             logging_level="ERROR")
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
    import __ray_entry__ as E

    only = set(sys.argv[3].split(",")) if len(sys.argv) > 3 else None
    if only is None:
        ds = E.entry()
        n = ds.count() if hasattr(ds, "count") else len(ds)
        print(f"entry(): {n} rows")
        assert n >= 0

    con = duckdb.connect()
    for view in ("documents", "embeddings"):
        con.sql(
            f"CREATE VIEW {view} AS SELECT * FROM "
            f"read_parquet('{sf_dir}/{view}.parquet')"
        )
    qs, oracles = E.queries(), E.oracle_sql()
    # pinned-oracle detection (see below): resolve real paths once
    import os

    from ocr_sam_project_ray.sources.synthetic import corpus_paths

    driver_tier = "/root/testdata/sf0.01"
    at_driver_tier = os.path.realpath(sf_dir) == os.path.realpath(driver_tier)
    # the corpus cache directory every sf0.01-pinned oracle SQL references
    pin_root = os.path.dirname(corpus_paths(driver_tier)["golden_pages"])
    failures = []
    for name, fn in qs.items():
        if only is not None and name not in only:
            continue
        t0 = time.perf_counter()
        got = fn(sf_dir)
        if hasattr(got, "to_pandas"):
            got = got.to_pandas()
        wall = f"{time.perf_counter() - t0:.2f}s"
        sql = oracles.get(name)
        if sql is None:
            print(f"  {name}: {len(got)} rows, {wall} (no oracle — rows-only)")
            continue
        # The synthetic-page-corpus oracles read golden parquet generated
        # for sf0.01 — the ONLY scale the driver contract runs oracle_sql()
        # at (oracle_sql() takes no sf argument). At any other sf_dir those
        # oracles would compare against the wrong corpus; report the Ray
        # side rows-only instead of a false failure. Detection resolves
        # REAL paths (not name substrings): an oracle is pinned iff its SQL
        # references the sf0.01 corpus cache, and the run is off-tier iff
        # sf_dir does not resolve to the driver tier itself.
        if not at_driver_tier and pin_root in sql:
            print(f"  {name}: {len(got)} rows, {wall} (oracle pinned to "
                  "sf0.01 by driver contract — rows-only at this scale)")
            continue
        exp = con.sql(sql).df()
        g, e = normalize(got), normalize(exp)
        status = "OK"
        if list(g.columns) != list(e.columns):
            status = f"SCHEMA MISMATCH {list(g.columns)} vs {list(e.columns)}"
        elif len(g) != len(e):
            status = f"ROWCOUNT {len(g)} vs {len(e)}"
        elif not g.equals(e):
            diff = (g != e).any(axis=1)
            status = f"VALUES differ on {int(diff.sum())} rows"
            ex_g = g[diff].head(2)
            ex_e = e[diff].head(2)
            status += f"\n    got: {ex_g.to_dict('records')}\n    exp: {ex_e.to_dict('records')}"
        print(f"  {name}: {len(g)} rows, {wall} … {status}")
        if status != "OK":
            failures.append(name)
    ray.shutdown()
    if failures:
        print(f"FAILED: {failures}")
        sys.exit(1)
    print("ALL ORACLE CHECKS PASS")


if __name__ == "__main__":
    main()
