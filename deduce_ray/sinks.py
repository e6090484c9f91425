"""Resumable sinks: one unit-commit protocol, two layouts.

A resumable sink writes a dataset as independent *units*, one parquet
file plus one lineage manifest each, so that a restarted run skips the
units a crashed run already finished.  :func:`commit_units` is the one
implementation of that protocol; :func:`write_parquet_resumable` (hash
buckets over an integer id) and
:func:`deduce_ray.rayops.kg.materialize_graph` ((repo, lang, salt) graph
partitions) are thin callers that name each row's unit and write one
unit's rows.

The protocol, stated plainly:

- ``_manifests/`` is scanned once, on the driver.  A manifest that does
  not parse is a torn write from a crashed run: its unit is not
  complete.  Every manifest that parses must record the caller's
  identity fields (routing config, layout version) with the caller's
  values, or resume is refused: rows would re-route into differently-
  named units while the old files survive — duplicated output.
- Completed units are filtered out BEFORE the exchange, so their rows
  never shuffle.  The upstream pipeline still re-executes to regenerate
  the missing rows; that is the honest contract for a deterministic
  pipeline.
- The remaining rows go through ONE sampling-free exchange
  (:func:`deduce_ray.ops.agg.shard_exchange`): each unit's name hashes
  (:func:`deduce_ray.ops.agg.key_shards`, ``crc32(unit) % n_shards``) to
  one of ``n_shards = merge_shards()`` shards, the shards
  fall into ``min(n_shards, CPUs)`` contiguous partitions (one per CPU,
  as ``merge_shards()`` is at least 4 x CPUs), and one task per
  partition sorts its rows by unit and writes the units one after
  another, so the writes spread over every CPU whatever the upstream
  block count.  A partition is held whole in memory, about
  ``1 / min(n_shards, CPUs)`` of the remaining rows: on few CPUs a large
  corpus can overflow a worker's heap even when each unit fits (the
  cost of atomic per-unit commit).
- Each unit's parquet file is renamed into place, THEN its manifest, so
  a manifest never names a missing or partial file.
- ``resume=False`` refuses a non-empty output directory, where output
  would mix with stale files.

The bucketed layout (:func:`write_parquet_resumable`):

- Routing is ``splitmix64(id) % n_buckets`` — deterministic across
  runs, independent of block boundaries or execution order, uniform
  even for sequential ids.  The id column must be integer-typed,
  non-null, and (per the funnel's module-wide contract) unique.
- Size ``n_buckets`` so that ``corpus / n_buckets`` fits a worker's heap
  (at 100 TB you want thousands of buckets, not the CLI's single-node
  default of 64).  A writing task holds about ``corpus / min(n_buckets,
  CPUs)``: the task count grows with the cluster's CPUs, not with
  ``n_buckets``.
- Within a bucket, rows are sorted by ``sort_cols`` before writing so a
  re-run of the same input reproduces the same bytes — manifests carry
  a content hash over the sorted id column to make that checkable.
"""

from __future__ import annotations

import hashlib
import json
import time
from pathlib import Path
from typing import Callable

import numpy as np
import pyarrow as pa

from deduce_ray.ops.agg import key_shards, merge_shards, shard_exchange
from deduce_ray.state.base import atomic_write_json, atomic_write_parquet

MANIFESTS = "_manifests"
# the columns commit_units adds for routing: the unit name and its shard
_UNIT = "__unit"
_SHARD = "__shard"

# Version of the bucketed on-disk layout (file naming + bucket
# derivation).  Recorded in every manifest; resume refuses a mismatch for
# the same reason it refuses a changed n_buckets.
_LAYOUT_VERSION = 1


def completed_units(
    out_dir: str | Path, identity: dict | None = None, sink: str = "sink"
) -> dict[str, dict]:
    """The manifests of the units complete under ``out_dir``, keyed by
    unit name (the manifest's file stem).  With ``identity``, a parsed
    manifest whose value for any of its fields is missing or different
    raises ValueError."""
    mdir = Path(out_dir) / MANIFESTS
    if not mdir.is_dir():
        return {}
    done = {}
    for mf in mdir.glob("*.json"):
        if mf.name.startswith("_run_"):
            continue
        try:
            manifest = json.loads(mf.read_text())
        except json.JSONDecodeError:
            continue  # torn write from a crashed run: unit not complete
        for field, value in (identity or {}).items():
            if manifest.get(field) != value:
                what = field if field == "config" else f"{field} config"
                raise ValueError(
                    f"{sink}: completed unit {mf.stem} was written with "
                    f"{what} {manifest.get(field)!r} but this run has "
                    f"{value!r}; resuming would re-route rows into "
                    "differently-named units while the old files survive "
                    "— clear the output directory or rerun with the "
                    "original settings"
                )
        if manifest.get("complete"):
            done[mf.stem] = manifest
    return done


def commit_units(
    ds,
    out_dir: str | Path,
    unit_of: Callable[[pa.Table], pa.Array],
    make_unit: Callable[[str, pa.Table], tuple[pa.Table, str, dict]],
    identity: dict,
    resume: bool = True,
    sink: str = "sink",
):
    """Write ``ds`` under ``out_dir`` unit by unit, skipping the units an
    earlier run completed (see the module docstring).

    ``unit_of(batch)`` names each row's unit (a string array; the name is
    also the manifest's file stem).  ``make_unit(name, rows)`` gets one
    unit's rows and returns its table, the table's path relative to
    ``out_dir`` and the unit's manifest fields; the manifest also records
    ``duration_s``, ``identity`` and ``complete``.

    Returns ``(written, skipped)``: the materialized dataset with one row
    per unit this run wrote (its manifest without ``identity`` and
    ``complete``), and the manifests of the completed units it skipped.
    """
    import pyarrow.compute as pc

    out_dir = Path(out_dir)
    if not resume and out_dir.exists() and any(out_dir.iterdir()):
        raise ValueError(
            f"{sink}: {out_dir} exists and is not empty and resume is off "
            "— output would mix with stale files"
        )
    (out_dir / MANIFESTS).mkdir(parents=True, exist_ok=True)
    skipped = completed_units(out_dir, identity, sink)
    done = pa.array(sorted(skipped), type=pa.string())
    n_shards = merge_shards()

    def route(batch: pa.Table) -> pa.Table:
        for reserved in (_UNIT, _SHARD):
            if reserved in batch.column_names:
                raise ValueError(
                    f"{sink}: input already has a {reserved} column "
                    "(reserved for routing)"
                )
        batch = batch.append_column(_UNIT, unit_of(batch))
        if len(done):
            batch = batch.filter(
                pc.invert(pc.is_in(batch.column(_UNIT), value_set=done))
            )
        return batch.append_column(_SHARD, key_shards([batch.column(_UNIT)], n_shards))

    def write_units(part: pa.Table) -> pa.Table:
        part = part.sort_by(_UNIT)
        runs = pc.value_counts(part.column(_UNIT))
        runs = runs.take(pc.sort_indices(runs.field("values")))  # the rows' order
        manifests, start = [], 0
        for name, length in zip(
            runs.field("values").to_pylist(), runs.field("counts").to_pylist()
        ):
            t0 = time.time()
            rows = part.slice(start, length).drop_columns([_UNIT])
            start += length
            table, data_path, fields = make_unit(name, rows)
            atomic_write_parquet(table, str(out_dir / data_path))
            manifest = {
                **fields,
                "duration_s": round(time.time() - t0, 3),
                **identity,
                "complete": True,
            }
            atomic_write_json(str(out_dir / MANIFESTS / f"{name}.json"), manifest)
            manifests.append(
                {k: v for k, v in manifest.items() if k not in identity and k != "complete"}
            )
        return pa.Table.from_pylist(manifests)

    written = shard_exchange(
        ds.map_batches(route, batch_format="pyarrow"), _SHARD, n_shards, write_units
    ).materialize()
    return written, skipped


def write_run_manifest(out_dir: str | Path, run_id: str, record: dict) -> None:
    """Record one run's lineage as ``_manifests/_run_<run_id>.json``."""
    atomic_write_json(
        str(Path(out_dir) / MANIFESTS / f"_run_{run_id}.json"),
        {"run_id": run_id, **record},
    )


def _bucket_of(ids: np.ndarray, n_buckets: int) -> np.ndarray:
    """splitmix64 finalizer over the id column — vectorized, stable.

    A bare ``id % n_buckets`` is uniform for this repo's sha-derived
    doc ids but degenerate for user corpora with structured ids (e.g.
    ids stepping by n_buckets); the mix costs three multiplies and
    removes the failure mode entirely.
    """
    x = ids.astype(np.uint64, copy=True)
    with np.errstate(over="ignore"):
        x += np.uint64(0x9E3779B97F4A7C15)
        x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        x = x ^ (x >> np.uint64(31))
    return (x % np.uint64(n_buckets)).astype(np.int64)


def write_parquet_resumable(
    ds,
    out_dir: str | Path,
    id_col: str = "doc_id",
    n_buckets: int = 64,
    sort_cols: tuple[str, ...] | None = None,
    resume: bool = True,
    run_id: str | None = None,
) -> dict:
    """Write ``ds`` as ``part-<bucket>.parquet`` files under ``out_dir``
    with per-bucket completion manifests; returns a summary dict
    ``{"buckets_written", "buckets_skipped", "rows", "rows_total"}``.

    ``resume=True`` (default) skips buckets whose manifest says
    complete — filtered out before the exchange, so their rows never
    shuffle.  ``resume=False`` refuses a non-empty output directory
    outright (the prep CLI's historical all-or-nothing behavior).
    """
    schema = ds.schema()  # ray.data.Schema: parallel .names / .types
    id_type = dict(zip(schema.names, schema.types))[id_col]
    if not (isinstance(id_type, pa.DataType) and pa.types.is_integer(id_type)):
        raise TypeError(
            f"write_parquet_resumable: id column {id_col!r} must be "
            f"integer-typed for stable bucket routing, got {id_type}"
        )
    sort_by = [(c, "ascending") for c in (sort_cols or [id_col])]
    missing = [c for c, _ in sort_by if c not in schema.names]
    if missing:
        raise ValueError(
            f"write_parquet_resumable: sort_cols {missing} not in schema "
            f"{schema.names}"
        )
    config = {"id_col": id_col, "n_buckets": int(n_buckets)}
    names = pa.array([f"part-{b:05d}" for b in range(n_buckets)])

    def unit_of(batch: pa.Table) -> pa.Array:
        ids = batch.column(id_col)
        # null check BEFORE to_numpy: a nullable int column converts to
        # float64-with-NaN, which would silently route to a garbage bucket
        if ids.null_count:
            raise ValueError(
                f"write_parquet_resumable: null id in column {id_col!r}"
            )
        return names.take(_bucket_of(ids.to_numpy(), n_buckets))

    def bucket_unit(name: str, rows: pa.Table) -> tuple[pa.Table, str, dict]:
        rows = rows.sort_by(sort_by)
        ids = np.ascontiguousarray(rows.column(id_col).to_numpy())
        return rows, f"{name}.parquet", {
            "bucket": int(name.removeprefix("part-")),
            "rows": rows.num_rows,
            "ids_sha256": hashlib.sha256(ids.tobytes()).hexdigest(),
        }

    written, skipped = commit_units(
        ds,
        out_dir,
        unit_of,
        bucket_unit,
        {"config": config, "layout": _LAYOUT_VERSION},
        resume=resume,
        sink="write_parquet_resumable",
    )
    units = written.take_all()  # one row per bucket: a bounded pull
    rows = sum(unit["rows"] for unit in units)
    summary = {
        "buckets_written": len(units),
        "buckets_skipped": len(skipped),
        "rows": rows,
        "rows_total": rows + sum(m.get("rows", 0) for m in skipped.values()),
    }
    if run_id is not None:
        write_run_manifest(out_dir, run_id, {"config": config, **summary})
    return summary
