"""Local stand-in for the driver's correctness gate: run every queries()
entry at the given sf, run its oracle_sql() in DuckDB over the same parquet
views, and compare row count, column names, and order-insensitive values.

Usage: python scripts/check_oracles.py [sf_dir] [query ...]

An unknown query name is an error (exit 2) before anything runs.
"""

from __future__ import annotations

import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import duckdb
import numpy as np
import pandas as pd

TABLES = [
    "region", "nation", "customer", "supplier", "part", "orders",
    "lineitem", "events", "documents", "embeddings",
]


def to_pandas(result) -> pd.DataFrame:
    if isinstance(result, pd.DataFrame):
        return result
    try:
        import pyarrow as pa

        if isinstance(result, pa.Table):
            return result.to_pandas()
    except ImportError:
        pass
    return result.to_pandas()  # ray Dataset


def fetch(result):
    """Engine result as pandas OR Arrow: Ray Datasets come back as ONE
    Arrow table (refs concatenated), so the big-compare path never
    builds a multi-GB pandas frame of Python strings."""
    import pyarrow as pa

    if isinstance(result, (pd.DataFrame, pa.Table)):
        return result
    import ray

    # a lazy dataset's to_arrow_refs() streams the blocks and then runs
    # the plan again for the schema: materialize once, read the blocks
    result = result.materialize()
    tables = ray.get(result.to_arrow_refs())
    # some execution paths (pandas-producing map_groups stages) hand
    # back pandas-backed blocks despite the method name — convert
    tables = [
        pa.Table.from_pandas(t, preserve_index=False)
        if isinstance(t, pd.DataFrame)
        else t
        for t in tables
    ]
    tables = [t for t in tables if t.num_rows]
    if not tables:
        return result.to_pandas()  # empty: keep the schema-bearing path
    return pa.concat_tables(tables, promote_options="default")


def canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for col in df.columns:
        dtype = df[col].dtype
        # pandas extension dtypes (nullable Int64/Float64 from duckdb.df()
        # or a pandas-side groupby) crash np.issubdtype — normalize them to
        # the same numpy dtypes the clean path produces: int64 when no
        # nulls, float64+NaN otherwise (the repo-wide null contract)
        if isinstance(dtype, pd.api.extensions.ExtensionDtype):
            if pd.api.types.is_integer_dtype(dtype):
                target = "int64" if not df[col].isna().any() else "float64"
                df[col] = df[col].astype(target)
            elif pd.api.types.is_float_dtype(dtype):
                df[col] = df[col].astype("float64")
            elif pd.api.types.is_bool_dtype(dtype):
                df[col] = df[col].astype(object).astype(str)
            else:
                df[col] = df[col].astype(str)
            dtype = df[col].dtype
        if dtype == object:
            df[col] = df[col].astype(str)
            # pandas factorizes (so sorts) a string only up to its first
            # NUL: escape NULs, injectively, so "F" and "F\x00x" sort
            # apart the same way on both sides
            if df[col].str.contains("\x00", regex=False).any():
                df[col] = (
                    df[col]
                    .str.replace("\\", "\\\\", regex=False)
                    .str.replace("\x00", "\\0", regex=False)
                )
        elif np.issubdtype(dtype, np.floating):
            df[col] = df[col].round(9)
        elif np.issubdtype(dtype, np.integer):
            df[col] = df[col].astype("int64")
    return df.sort_values(list(df.columns)).reset_index(drop=True)


#: above this row count the pandas sort-and-compare path (several
#: full-frame copies) is replaced by an in-DuckDB order-insensitive
#: compare — COUNT, SUM of per-row hashes and BIT_XOR of a second, salted
#: per-row hash, with the same float-rounding normalization,
#: streamed/spilled by DuckDB instead of materialized
BIG_COMPARE_ROWS = 5_000_000


def big_compare(con, mine_box: list, oracle_sql: str):
    """(status list) for huge results: row count + two order-insensitive
    row-hash aggregates computed inside ONE DuckDB session (hash() is
    stable within a session), with canon()'s float normalization mirrored
    as round(x, 9).  A sum of hashes alone is not multiset equality (two
    differing row sets can share it), so a BIT_XOR of an independently
    salted row hash must agree as well.  ``mine_box`` is a single-element list holding the
    engine result (Arrow table or pandas frame); the caller must drop
    its own reference — the box is EMPTIED after the engine-side
    aggregate so the (possibly object-store-backed) table is freed
    before the oracle side runs, keeping peak memory to ONE side at a
    time (the sf10 media oracle OOMed with both resident)."""
    import gc

    import pyarrow as pa

    mine = mine_box[0]
    mine_t = (
        mine
        if isinstance(mine, pa.Table)
        else pa.Table.from_pandas(mine, preserve_index=False)
    )
    del mine
    con.execute(f"CREATE OR REPLACE TEMP VIEW __oracle AS {oracle_sql}")
    cols = sorted(mine_t.schema.names)

    def agg(view: str) -> tuple:
        desc = {
            r[0]: r[1]
            for r in con.execute(f"DESCRIBE {view}").fetchall()
        }
        parts = []
        for c in cols:
            t = desc.get(c, "")
            if t in ("DOUBLE", "FLOAT", "REAL"):
                parts.append(f'round("{c}", 9)')
            else:
                parts.append(f'"{c}"')
        row = ", ".join(parts)
        return con.execute(
            f"SELECT COUNT(*), "
            f"SUM(CAST(hash({row}) AS HUGEINT)), "
            f"BIT_XOR(hash({row}, 'check_oracles salt')) "
            f"FROM {view}"
        ).fetchone()

    con.register("__mine", mine_t)
    n_a, *h_a = agg("__mine")
    con.unregister("__mine")
    del mine_t
    mine_box.clear()
    gc.collect()
    n_b, *h_b = agg("__oracle")
    status = []
    if n_a != n_b:
        status.append(f"ROWS {n_a} vs {n_b}")
    elif h_a != h_b:
        status.append("VALUES row-hash aggregates differ")
    return status


def main() -> int:
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = set(sys.argv[2:])

    import __ray_entry__ as entrymod

    qs = entrymod.queries()
    unknown = sorted(only - set(qs))
    if unknown:
        print(f"unknown query names: {', '.join(unknown)}")
        return 2

    import ray

    if not ray.is_initialized():
        # modest object store: this harness checks correctness, and at
        # big scale factors DuckDB needs the RAM more than Ray does
        # (the default 24.6 GB reservation starved the sf10 media
        # oracle into hard allocation failure)
        ray.init(address="local", num_cpus=8, include_dashboard=False,
                 ignore_reinit_error=True, log_to_driver=False,
                 object_store_memory=8_000_000_000)

    con = duckdb.connect()
    # Ray's object store pins a large share of RAM in this process, but
    # DuckDB's default memory_limit is ~80% of TOTAL RAM — at big scale
    # factors it hard-fails ("Failed to allocate block") before its own
    # spill logic ever engages.  A conservative explicit limit plus a
    # temp directory makes the big oracles spill instead of dying
    # (observed at the sf10 media oracle).
    con.execute("SET memory_limit='20GB'")
    con.execute("SET temp_directory='/tmp/duckdb_oracle_tmp'")
    for table in TABLES:
        con.execute(
            f"CREATE VIEW {table} AS SELECT * FROM "
            f"read_parquet('{sf_dir}/{table}.parquet')"
        )

    oracles = entrymod.oracle_sql()
    failures = []
    total = 0.0

    for name, fn in qs.items():
        if only and name not in only:
            continue
        t0 = time.time()
        try:
            mine = fetch(fn(sf_dir))
        except Exception as exc:  # noqa: BLE001
            print(f"{name}: RAY ERROR {type(exc).__name__}: {exc}")
            failures.append(name)
            continue
        elapsed = time.time() - t0
        total += elapsed
        n_mine = mine.num_rows if not isinstance(mine, pd.DataFrame) else len(mine)

        if name not in oracles:
            mine = to_pandas(mine)
            print(f"{name}: rows={len(mine)} cols={sorted(mine.columns)} "
                  f"({elapsed:.1f}s) [rows-only]")
            continue

        if n_mine > BIG_COMPARE_ROWS:
            box = [mine]
            del mine
            try:
                status = big_compare(con, box, oracles[name])
            except Exception as exc:  # noqa: BLE001
                print(f"{name}: SQL ERROR {type(exc).__name__}: {exc}")
                failures.append(name)
                continue
            if status:
                print(f"{name}: MISMATCH {'; '.join(status)} "
                      f"({elapsed:.1f}s) [big-compare]")
                failures.append(name)
            else:
                print(f"{name}: OK rows={n_mine} ({elapsed:.1f}s) "
                      f"[big-compare]")
            continue

        mine = to_pandas(mine)
        try:
            oracle = con.execute(oracles[name]).df()
        except Exception as exc:  # noqa: BLE001
            print(f"{name}: SQL ERROR {type(exc).__name__}: {exc}")
            failures.append(name)
            continue

        try:
            a, b = canon(mine), canon(oracle)
        except Exception as exc:  # noqa: BLE001
            print(f"{name}: CANON ERROR {type(exc).__name__}: {exc}")
            failures.append(name)
            continue
        status = []
        if len(a) != len(b):
            status.append(f"ROWS {len(a)} vs {len(b)}")
        if list(a.columns) != list(b.columns):
            status.append(f"COLS {list(a.columns)} vs {list(b.columns)}")
        if not status:
            if not a.equals(b):
                diff = (a != b) & ~(a.isna() & b.isna())
                ndiff = int(diff.any(axis=1).sum())
                status.append(f"VALUES {ndiff} differing rows")
                bad = diff.any(axis=1)
                print(a[bad].head(3))
                print(b[bad].head(3))
        if status:
            print(f"{name}: MISMATCH {'; '.join(status)} ({elapsed:.1f}s)")
            failures.append(name)
        else:
            print(f"{name}: OK rows={len(a)} ({elapsed:.1f}s)")

    print(f"TOTAL {total:.1f}s over the queries run")
    print("FAILURES:", failures or "none")
    ray.shutdown()
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
