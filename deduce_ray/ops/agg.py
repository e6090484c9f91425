"""Partial aggregation on the sampling-free exchange: a combiner inside
map_batches, then one :func:`shard_exchange` to merge — the scale-correct
shape for high-cardinality inputs with low-cardinality group keys
(pre-aggregate before the all-to-all exchange).  Combiner and merge are
Arrow ``group_by`` calls, and every exchange shards its key with the one
hash :func:`key_shards`.

Aggregation spec: {out_col: (in_col, kind)} with kind in
{"sum", "min", "max", "count", "sum_sq"}; "count" ignores in_col.
Merges are exact (sums of partials), so integer aggregates reproduce SQL
bit-for-bit — use integer cents for money columns to avoid float drift.
"""

from __future__ import annotations

import zlib

import pyarrow as pa

_PARTIAL_KIND = {"sum": "sum", "min": "min", "max": "max", "count": "sum", "sum_sq": "sum"}


def _cluster_cpus() -> int:
    """The cluster's CPU count, or 32 if Ray is not initialized yet."""
    import ray

    if not ray.is_initialized():
        return 32
    return int(ray.cluster_resources().get("CPU", 32))


def merge_shards(minimum: int = 32, per_cpu: int = 4) -> int:
    """Default shard count for the sharded merge shuffles: 4 shards per
    CPU, at least 32, far below the old fixed 256.  For
    :func:`shard_exchange` it is only the hash space: that exchange
    merges in ``min(n_shards, CPUs)`` tasks.  For the exchanges still on
    ``groupby("__shard").map_groups`` (the near-dup expansion, the
    dedup stores and the canonicalization shuffles) it is also the
    dispatch count: one pandas call per shard, a fixed ~5-10 ms each,
    which at 256 shards dominated
    small-corpus merge stages (measured: the flagship dedup merge dropped
    3.4 s -> <1 s at 4 x CPUs).  The shard keys are uniform hashes, so
    fewer shards cannot create skew; the count grows with the CPU count.  Resolved at
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


def key_shards(cols, n: int) -> pa.Array:
    """Shard in ``[0, n)`` of each row of a key given as its columns: the
    crc32 codes of the columns' string forms, mixed.  A null field maps
    to 2**32, which no crc32 reaches, so a null-typed column and a typed
    one with nulls agree.  One column's shard is ``crc32(value) % n``.
    This is the one key-shard hash: the grouped aggregates, the graph
    exchanges and the sinks' unit routing all shard through it."""
    import numpy as np

    h = np.zeros(len(cols[0]), dtype=np.uint64)
    for col in cols:
        crc = per_distinct(col.cast(pa.string()), lambda v: zlib.crc32(v.encode()), 1 << 32)
        h = h * np.uint64(1_000_003) ^ crc.astype(np.uint64)
    return pa.array((h % np.uint64(n)).astype(np.int64))


def _group(table: pa.Table, keys: list[str], specs: dict) -> pa.Table:
    """One Arrow ``group_by(keys)``: the key columns, then ``out`` for each
    ``out: (in_col, fn)`` of ``specs`` (``in_col`` ``[]`` for
    ``count_all``).  ``sum``/``min``/``max`` skip nulls and leave an
    all-null group NULL (SQL); a null key is one group of its own, and
    keys compare by their bytes, a NUL included."""
    # Arrow names each result "<col>_<fn>" (or "count_all"); outputs
    # that share a spec share its one column
    named = {
        out: "count_all" if fn == "count_all" else f"{col}_{fn}"
        for out, (col, fn) in specs.items()
    }
    unique = {named[out]: spec for out, spec in specs.items()}
    grouped = table.group_by(keys).aggregate(list(unique.values()))
    return pa.table(
        {**{k: grouped.column(k) for k in keys}, **{o: grouped.column(named[o]) for o in specs}}
    )


def grouped_agg(
    ds,
    keys: list[str],
    aggs: dict[str, tuple[str | None, str]],
    n_shards: int | None = None,
):
    """Dataset -> one row per key combination with named aggregate columns.

    Each block is combined with an Arrow ``group_by`` and its partial rows
    tagged with :func:`key_shards` of the key, then one
    :func:`shard_exchange` merges the partials with a second Arrow
    ``group_by`` (counts and sums add, minima and maxima fold).  Every
    copy of a key lands in one merge, so results are exact, and no pandas
    frame is built: a key's type, its nulls and its bytes after a NUL
    survive as they arrived.
    """
    import pyarrow.compute as pc

    if n_shards is None:
        n_shards = merge_shards()

    def combine(batch: pa.Table) -> pa.Table:
        specs = {}
        for out, (col, kind) in aggs.items():
            if kind == "count":
                specs[out] = ([], "count_all")
            elif kind == "sum_sq":
                values = batch.column(col)
                batch = batch.append_column(f"__sq_{out}", pc.multiply(values, values))
                specs[out] = (f"__sq_{out}", "sum")
            else:
                specs[out] = (col, kind)
        partial = _group(batch, keys, specs)
        return partial.append_column("__shard", key_shards(partial.select(keys).columns, n_shards))

    def merge_partials(rows: pa.Table) -> pa.Table:
        return _group(rows, keys, {out: (out, _PARTIAL_KIND[kind]) for out, (_, kind) in aggs.items()})

    partial = ds.map_batches(combine, batch_size=None, batch_format="pyarrow")
    return shard_exchange(partial, "__shard", n_shards, merge_partials)


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
    cardinality), elementwise-max merges on one :func:`shard_exchange`
    keyed by :func:`key_shards`, then the bias-corrected HLL estimate.
    Rows are grouped with Arrow, so null keys form one group and keys
    that differ after a NUL stay apart.  md5-based hashing keeps the
    result deterministic across runs and cluster sizes.  Standard error
    is about 1.04/sqrt(2^p) (~1.6% at the default p=12).

    Returns one row per key combination with ``approx_distinct`` (int64).
    """
    import hashlib

    import numpy as np

    m = 1 << p

    def sketch_batch(batch: pa.Table) -> pa.Table:
        grouped = batch.group_by(keys, use_threads=False).aggregate([(value_col, "list")])
        regs = []
        # str() of the Arrow value (an int64 stays int, never "123.0")
        # is what the SQL oracle's CAST(v AS VARCHAR) hashes
        for values in grouped.column(f"{value_col}_list").to_pylist():
            reg = np.zeros(m, dtype=np.uint8)
            for v in values:
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
            regs.append(reg.tobytes())
        key_cols = grouped.select(keys).columns
        return pa.table(
            {
                **dict(zip(keys, key_cols)),
                "registers": pa.array(regs, type=pa.binary()),
                "__shard": key_shards(key_cols, n_shards),
            }
        )

    def merge_registers(rows: pa.Table) -> pa.Table:
        grouped = rows.group_by(keys, use_threads=False).aggregate([("registers", "list")])
        est = [
            _hll_estimate(np.frombuffer(b"".join(blobs), dtype=np.uint8).reshape(-1, m).max(axis=0))
            for blobs in grouped.column("registers_list").to_pylist()
        ]
        return pa.table(
            {
                **{k: grouped.column(k) for k in keys},
                "approx_distinct": pa.array(est, type=pa.int64()),
            }
        )

    sketched = ds.map_batches(sketch_batch, batch_format="pyarrow")
    return shard_exchange(sketched, "__shard", n_shards, merge_registers)


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
