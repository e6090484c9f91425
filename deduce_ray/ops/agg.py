"""Partial-aggregation helper: combiner inside map_batches, then one small
shuffle to merge — the scale-correct shape for high-cardinality inputs with
low-cardinality group keys (pre-aggregate before the all-to-all exchange).

Aggregation spec: {out_col: (in_col, kind)} with kind in
{"sum", "min", "max", "count", "sum_sq"}; "count" ignores in_col.
Merges are exact (sums of partials), so integer aggregates reproduce SQL
bit-for-bit — use integer cents for money columns to avoid float drift.
"""

from __future__ import annotations

import pandas as pd

_PARTIAL_KIND = {"sum": "sum", "min": "min", "max": "max", "count": "sum", "sum_sq": "sum"}


def _cluster_cpus() -> int:
    """The cluster's CPU count, or 32 if Ray is not initialized yet."""
    import ray

    if not ray.is_initialized():
        return 32
    return int(ray.cluster_resources().get("CPU", 32))


def merge_shards(minimum: int = 32, per_cpu: int = 4) -> int:
    """Default shard count for the sharded merge shuffles: 4 shards per
    CPU, at least 32, far below the old fixed 256.  For the remaining
    ``map_groups`` exchanges it is also the dispatch count: one pandas
    call per shard, a fixed ~5-10 ms each, which at 256 shards dominated
    small-corpus merge stages (measured: the flagship dedup merge dropped
    3.4 s -> <1 s at 4 x CPUs).  For :func:`shard_exchange` it is only
    the hash space: that exchange merges in ``min(n_shards, CPUs)``
    tasks.  The shard keys are uniform hashes, so fewer shards cannot
    create skew; the count grows with the CPU count.  Resolved at
    pipeline BUILD time; if Ray is not initialized yet the 32-CPU
    fallback applies (128 shards) — call after ray.init() for an exact
    fit."""
    return max(minimum, per_cpu * _cluster_cpus())


def merge_shards_pow2(minimum: int = 32, per_cpu: int = 4) -> int:
    """merge_shards rounded UP to a power of two, for shard keys computed
    with a bitwise-and mask."""
    n = merge_shards(minimum, per_cpu)
    return 1 << (n - 1).bit_length()


def per_distinct(col, fn, null: int = 0):
    """``fn`` of each value of a pyarrow array as an int64 numpy array,
    called once per distinct value (hash a key column by its distinct
    values, not row by row); a null maps to ``null``."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    enc = pc.dictionary_encode(col)
    values = np.array([fn(v) for v in enc.dictionary.to_pylist()] + [null], dtype=np.int64)
    return values[pc.fill_null(enc.indices, len(values) - 1).to_numpy()]


def shard_exchange(ds, shard_col: str, n_shards: int, merge):
    """Sampling-free exchange: rows tagged with an integer shard in
    ``[0, n_shards)`` meet their shard, and ``merge`` runs once per
    partition, ``P = min(n_shards, cluster CPUs)`` partitions, on a
    pyarrow Table without ``shard_col``.  A partition holds a contiguous
    range of whole shards, so ``merge`` must merge by key, not assume one
    shard per call.

    The shard values are known, so the sort takes analytic boundaries
    ``[i * n_shards // P for i in 1..P-1]``: Ray skips its sampling pass,
    and the exchange has exactly ``P`` output partitions whatever the
    upstream block count (a sampled sort makes one per input block: a
    coalesced input merges in one task).  Each partition costs a sort
    partition and a task, ~4-6 ms per exchange on 4 CPUs, so ``n_shards``
    sets only the hash space and the task count follows the CPUs.  A sort
    reduce returns one block however large, and ``batch_size=None`` hands
    each block to one call, the contract Ray's own ``map_groups`` relies
    on.  An empty partition's block carries no rows and no columns (Ray's
    reduce drops its schema and its map stage passes empty blocks through
    without a call); the result's schema is the merge output's as soon as
    one partition has rows.

    ``merge`` keeps the name Ray gives the operator, ``MapBatches(<name>)``.
    """
    import functools

    parts = max(1, min(n_shards, _cluster_cpus()))
    if parts == 1:
        # boundaries=[] would mean "sample them"
        partitioned = ds.repartition(1)
    else:
        partitioned = ds.sort(
            shard_col, boundaries=[i * n_shards // parts for i in range(1, parts)]
        )

    @functools.wraps(merge)
    def merge_partition(rows):
        return merge(rows.drop_columns([shard_col]))

    return partitioned.map_batches(merge_partition, batch_size=None, batch_format="pyarrow")


def grouped_agg(
    ds,
    keys: list[str],
    aggs: dict[str, tuple[str | None, str]],
    n_shards: int | None = None,
):
    """Dataset -> one row per key combination with named aggregate columns.

    The merge shuffle is keyed on ``hash(keys) % n_shards`` rather than the
    raw keys: Ray's ``map_groups`` invokes the UDF once per group, which at
    high key cardinality means one pandas call per key (measured ~50 s of
    UDF time for 139k customer keys).  Sharding keeps it to <= n_shards
    vectorized pandas merges while every copy of a key still lands in one
    task, so results are exact.
    """
    if n_shards is None:
        n_shards = merge_shards()

    def _restore_key_dtypes(out: pd.DataFrame, ref: pd.DataFrame):
        """pandas groupby degrades an all-null OBJECT key column to
        float64 NaN.  That is wrong twice over: (a) the output should be
        a typed NULL (None), matching SQL's NULL group, and (b)
        hash_pandas_object hashes float64-NaN DIFFERENTLY from
        object-NaN/None, so a null group whose combine block degraded
        could land on a different shard than one that kept object dtype
        — splitting one SQL group into two output rows.  Restore the
        input dtype and represent nulls as real None."""
        for k in keys:
            if ref[k].dtype == object and out[k].dtype != object:
                out[k] = out[k].astype(object)
            if out[k].dtype == object:
                out[k] = out[k].where(out[k].notna(), None)
        return out

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        out = {}
        # dropna=False: SQL GROUP BY keeps null-keyed groups and COUNT(*)
        # counts their rows; the pandas default silently drops them
        grouped = df.groupby(keys, as_index=False, sort=True, dropna=False)
        base = grouped.size().rename(columns={"size": "__n"})
        out = _restore_key_dtypes(base[keys].copy(), df)
        for out_col, (in_col, kind) in aggs.items():
            if kind == "count":
                out[out_col] = base["__n"].astype("int64")
            elif kind == "sum_sq":
                sq = df.assign(__sq=df[in_col] * df[in_col])
                out[out_col] = (
                    sq.groupby(keys, sort=True, dropna=False)["__sq"]
                    .sum(min_count=1)
                    .values
                )
            elif kind == "sum":
                # min_count=1 = SQL SUM semantics: nulls are skipped and
                # an all-null group is NULL, not 0 (pandas' default)
                out[out_col] = grouped[in_col].sum(min_count=1)[in_col].values
            else:
                out[out_col] = getattr(grouped[in_col], kind)()[in_col].values
        # deterministic shard of the key tuple (fixed pandas hash_key)
        out["__shard"] = (
            pd.util.hash_pandas_object(out[keys], index=False) % n_shards
        ).astype("int64")
        return out

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        df = df.drop(columns=["__shard"])
        grouped = df.groupby(keys, as_index=False, sort=True, dropna=False)
        out = _restore_key_dtypes(grouped.size()[keys].copy(), df)
        for out_col, (_, kind) in aggs.items():
            pk = _PARTIAL_KIND[kind]
            if pk == "sum":
                # a partial that is NULL (all-null combine output) must
                # not zero the merged total; an all-NULL set stays NULL
                out[out_col] = grouped[out_col].sum(min_count=1)[out_col].values
            else:
                out[out_col] = getattr(grouped[out_col], pk)()[out_col].values
        return out

    # batch_size here also COALESCES: map_batches concatenates small
    # upstream blocks to reach it, so the sort-based groupby sees tens of
    # blocks, not thousands (3200 blocks x 256 partitions of metadata made
    # the exchange pathologically slow), and the combiner collapses more
    # per call
    # num_cpus=0.9 prevents fusion with an expensive upstream map chain:
    # fused, the coalescing batch_size would gate upstream task granularity
    # at 65536 input rows and cap its parallelism
    partial = ds.map_batches(
        combine, batch_format="pandas", batch_size=65536, num_cpus=0.9
    )
    return partial.groupby("__shard").map_groups(merge, batch_format="pandas")


def approx_distinct(
    ds,
    keys: list[str],
    value_col: str,
    p: int = 12,
    n_shards: int = 64,
):
    """HyperLogLog distinct-count sketch per key group.

    The sketch is the canonical mergeable shape for distinct counts at
    scale: per-batch register arrays (2^p bytes per group, independent of
    cardinality), elementwise-max merges under a sharded groupby, then the
    bias-corrected HLL estimate.  md5-based hashing keeps the result
    deterministic across runs and cluster sizes.  Standard error is about
    1.04/sqrt(2^p) (~1.6% at the default p=12).

    Returns one row per key combination with ``approx_distinct`` (int64).
    """
    import hashlib

    import numpy as np
    import pyarrow as pa

    m = 1 << p

    def sketch_batch(batch: pa.Table) -> pa.Table:
        df = batch.select(keys).to_pandas()
        # values come from Arrow, NOT the pandas frame: an int64 column
        # containing any null widens to float64 under to_pandas, so its
        # non-null values would hash as "123.0" instead of "123" — a
        # different sketch for the same logical data (and a mismatch vs
        # the SQL oracle's CAST(v AS VARCHAR))
        values = batch.column(value_col).to_pylist()
        out_keys: list[tuple] = []
        regs: list[bytes] = []
        for kv, grp in df.groupby(keys, sort=False, dropna=False):
            key_tuple = kv if isinstance(kv, tuple) else (kv,)
            # pandas surfaces a null group key as float NaN even in an
            # object column; convert back to None so the Arrow key
            # column stays its real type (mixing NaN into a string
            # array raises ArrowInvalid)
            key_tuple = tuple(
                None if (x is None or x != x) else x for x in key_tuple
            )
            reg = np.zeros(m, dtype=np.uint8)
            for i in grp.index:
                v = values[i]
                if v is None or v != v:
                    continue  # COUNT(DISTINCT) ignores nulls
                h = int.from_bytes(
                    hashlib.md5(str(v).encode()).digest()[:8], "big"
                )
                idx = h >> (64 - p)
                rest = h & ((1 << (64 - p)) - 1)
                # rank = leading-zero count of the remaining bits + 1
                rank = (64 - p) - rest.bit_length() + 1
                if rank > reg[idx]:
                    reg[idx] = rank
            out_keys.append(key_tuple)
            regs.append(reg.tobytes())
        cols = {
            k: pa.array([t[i] for t in out_keys])
            for i, k in enumerate(keys)
        }
        cols["registers"] = pa.array(regs, type=pa.binary())
        shard = [
            int.from_bytes(
                hashlib.md5("|".join(str(x) for x in t).encode()).digest()[:4],
                "big",
            )
            % n_shards
            for t in out_keys
        ]
        cols["__shard"] = pa.array(shard, type=pa.int64())
        return pa.table(cols)

    def merge_shard(df: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for kv, grp in df.groupby(keys, sort=True, dropna=False):
            key_tuple = kv if isinstance(kv, tuple) else (kv,)
            # pandas groupby represents a null object key as float NaN;
            # emit a real None so the Arrow column stays typed and the
            # output matches SQL's NULL group (not the string 'nan')
            key_tuple = tuple(
                None if (x is None or x != x) else x for x in key_tuple
            )
            merged = np.zeros(m, dtype=np.uint8)
            for blob in grp["registers"]:
                np.maximum(merged, np.frombuffer(blob, dtype=np.uint8), out=merged)
            est = _hll_estimate(merged)
            rows.append(dict(zip(keys, key_tuple), approx_distinct=est))
        return pd.DataFrame(rows, columns=keys + ["approx_distinct"])

    sketched = ds.map_batches(sketch_batch, batch_format="pyarrow")
    return sketched.groupby("__shard").map_groups(
        lambda df: merge_shard(df.drop(columns=["__shard"])),
        batch_format="pandas",
    )


def _hll_estimate(registers) -> int:
    """Bias-corrected HLL cardinality estimate with the small-range
    linear-counting correction (Flajolet et al. 2007)."""
    import numpy as np

    m = len(registers)
    alpha = 0.7213 / (1 + 1.079 / m)
    est = alpha * m * m / np.sum(np.exp2(-registers.astype(np.float64)))
    zeros = int(np.count_nonzero(registers == 0))
    if est <= 2.5 * m and zeros:
        est = m * np.log(m / zeros)
    return int(round(est))
