"""Deduplication over document tables, Ray-Data-first.

Exact dedup hashes each text and merges on the hash shard, emitting
survivors or loser ids.  The three near-dup families (MinHash, SimHash,
embedding) are thin adapters over one banded-pairs core
(:func:`_banded_pairs`): a per-batch payload pass, one band exchange that
yields candidate pairs, a verify on the driver or in a two-exchange join,
and expansion through the exact-dup groups.

Hashing is md5-based and seed-free, so results are deterministic across
processes and cluster sizes.
"""

from __future__ import annotations

import functools
import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

# ---------------------------------------------------------------------------
# exact dedup
# ---------------------------------------------------------------------------


def exact_dedup_groups(ds, text_col: str = "text", id_col: str = "doc_id"):
    """One row per distinct text: its md5 ``content_hash``, the surviving
    (minimum) id as ``keep_id`` and the duplicate count as ``n_dupes``,
    on :func:`deduce_ray.ops.agg.grouped_agg`."""
    from deduce_ray.ops.agg import grouped_agg

    def hash_batch(batch: pa.Table) -> pa.Table:
        texts = batch.column(text_col).to_pylist()
        return pa.table(
            {
                "content_hash": pa.array(
                    [hashlib.md5((t or "").encode()).hexdigest() for t in texts]
                ),
                id_col: batch.column(id_col),
            }
        )

    return grouped_agg(
        ds.map_batches(hash_batch, batch_format="pyarrow"),
        keys=["content_hash"],
        aggs={"keep_id": (id_col, "min"), "n_dupes": (None, "count")},
    )


# ---------------------------------------------------------------------------
# shingles + minhash
# ---------------------------------------------------------------------------


def _stable_hash64(s: str) -> int:
    return int.from_bytes(hashlib.md5(s.encode("utf-8")).digest()[:8], "big")


def _md5_words(texts) -> tuple[np.ndarray, np.ndarray]:
    """The module-wide exact-dedup key: md5(text or "") as two SIGNED
    int64 words (hi, lo).  Every consumer of the 128-bit content-hash
    convention (``dedup_survivors``, the incremental
    :mod:`deduce_ray.state.dedup_store`) must derive it here so the
    within-run and cross-run notions of "duplicate" can never drift."""
    n = len(texts)
    digests = [hashlib.md5((t or "").encode()).digest() for t in texts]
    hi = np.fromiter(
        (int.from_bytes(d[:8], "big", signed=True) for d in digests),
        dtype=np.int64,
        count=n,
    )
    lo = np.fromiter(
        (int.from_bytes(d[8:], "big", signed=True) for d in digests),
        dtype=np.int64,
        count=n,
    )
    return hi, lo


# per-process word -> md5-64 memo: vocabulary is tiny relative to token
# count, so this removes almost every md5 call from the shingle/simhash hot
# loops; bounded so a pathological vocabulary cannot exhaust worker heap
_WORD_HASH_CACHE: dict[str, int] = {}
_WORD_HASH_CACHE_MAX = 1_000_000

_SHINGLE_P = np.uint64(0x9E3779B97F4A7C15)  # odd golden-ratio multiplier


def _word_hashes(words: list[str]) -> np.ndarray:
    cache = _WORD_HASH_CACHE
    if len(cache) > _WORD_HASH_CACHE_MAX:
        cache.clear()
    out = np.empty(len(words), dtype=np.uint64)
    for i, w in enumerate(words):
        h = cache.get(w)
        if h is None:
            h = cache[w] = _stable_hash64(w)
        out[i] = h
    return out


def gram_hash_array(words: list[str], n: int) -> np.ndarray:
    """uint64 hash of each n-gram window of ``words`` (index = start
    position; empty when fewer than ``n`` words).  Word hashes are
    memoized md5; a window hash is the vectorized polynomial combine
    sum_j h[i+j] * P^(n-1-j) mod 2^64 — order-sensitive and
    deterministic, with no per-window digest calls.  The single
    positional core shared by the MinHash shingle stage and substring
    dedup (:mod:`deduce_ray.ops.substring`) so the two families can
    never drift."""
    m = len(words)
    if m < n:
        return np.empty(0, dtype=np.uint64)
    h = _word_hashes(words)
    with np.errstate(over="ignore"):
        acc = h[: m - n + 1].copy()
        for j in range(1, n):
            acc *= _SHINGLE_P
            acc += h[j : m - n + 1 + j]
    return acc


def word_shingles(text: str, k: int = 3) -> np.ndarray:
    """Distinct 64-bit hashes of word k-shingles (sorted uint64 array).

    Windows shorter than ``k`` fall back to one whole-text shingle.
    Words come from the shared explicit-class splitter so the SQL
    oracles match exactly.
    """
    from deduce_ray.ops.textstats import split_words

    words = split_words(text)
    if not words:
        return np.empty(0, dtype=np.uint64)
    return np.unique(gram_hash_array(words, min(k, len(words))))


def _minhash_params(n_perm: int) -> tuple[np.ndarray, np.ndarray]:
    # deterministic a/b parameters derived from md5, no RNG state
    a = np.array(
        [_stable_hash64(f"minhash-a-{i}") | 1 for i in range(n_perm)],
        dtype=np.uint64,
    )
    b = np.array(
        [_stable_hash64(f"minhash-b-{i}") for i in range(n_perm)],
        dtype=np.uint64,
    )
    return a, b


def _vec_matrix(column) -> np.ndarray:
    """Zero-copy-where-possible Arrow list<float> -> (n, dim) float64
    (shared with the ANN ops)."""
    from deduce_ray.ops.similarity import _as_matrix

    return _as_matrix(column)


@functools.lru_cache(maxsize=8)
def _lsh_planes(dim: int, n_planes: int, n_tables: int) -> np.ndarray:
    """(n_tables, dim, n_planes) deterministic hyperplane stack, cached
    per worker process instead of re-drawn per batch; each table's matrix
    comes from the shared seeded factory in ops.similarity."""
    from deduce_ray.ops.similarity import _hyperplanes

    return np.stack(
        [_hyperplanes(dim, n_planes, 1000 + t) for t in range(n_tables)]
    )


# ---------------------------------------------------------------------------
# exact-dup pre-collapse for the LSH families
# ---------------------------------------------------------------------------
#
# Exact duplicates share EVERY band/table bucket, so a mass-duplicated text
# (1M copies of one license header — routine at 100 TB) turns one bucket
# into ~5e11 candidate pairs per band and kills the verify shard.  All
# three LSH ops therefore collapse byte-identical inputs to one
# representative (minimum id) BEFORE bucketing, run LSH on representatives
# only, and expand the verified pairs back through the dup groups at emit
# time.  The expansion is exact, not approximate: members of a group have
# identical signatures/vectors, so every member pair's similarity equals
# the representative pair's, and intra-group pairs sit at the maximum
# (jaccard 1.0 / hamming 0 / cosine 1.0), which always passes the
# threshold.  Only the EMITTED pair list is quadratic in group size — an
# output-size fact shared with any brute-force oracle — so expansion
# falls back to a connectivity-preserving star (rep, member) above
# ``expand_cap`` pairs per group, with the exact dropped count logged.


def collapse_exact_dups(ds, id_col: str, keyer, loser_broadcast_max: int = 50_000_000):
    """Collapse rows with identical 128-bit collapse keys to one
    representative (minimum id) row each.

    ``keyer(batch: pa.Table) -> (hi, lo, skip)`` returns two int64 numpy
    key words per row plus a bool "skip" mask for rows the downstream op
    would discard anyway (shingle-less / word-less / zero-norm) — skipped
    groups still lose their non-representative members (they contribute
    nothing) but emit no expansion edges.

    Returns ``(reps_ds, edges_ds)``: ``reps_ds`` is the input filtered to
    representatives via the shared sorted-chunk anti-join (only
    (hi, lo, id) ints ride the exchange — same shape as dedup_survivors),
    and ``edges_ds`` holds (rep, member) rows for every collapsed member
    of a non-skipped group, or ``None`` when the input had no exact dups
    (the common case: zero extra stages downstream)."""
    from deduce_ray.ops.agg import merge_shards, shard_exchange

    n_shards = merge_shards()

    def hash_rows(batch: pa.Table) -> pa.Table:
        hi, lo, skip = keyer(batch)
        return pa.table(
            {
                id_col: batch.column(id_col),
                "__h_hi": pa.array(hi, type=pa.int64()),
                "__h_lo": pa.array(lo, type=pa.int64()),
                "__skip": pa.array(np.asarray(skip, dtype=bool)),
                "__shard": pa.array(hi % n_shards, type=pa.int64()),
            }
        )

    def emit_edges(rows: pa.Table) -> pa.Table:
        hi, lo, ids = (_int64(rows.column(c)) for c in ("__h_hi", "__h_lo", id_col))
        order = np.lexsort((ids, lo, hi))
        hi, lo, ids = hi[order], lo[order], ids[order]
        skip = rows.column("__skip").to_numpy()[order]
        new_group = np.ones(len(ids), dtype=bool)
        new_group[1:] = (hi[1:] != hi[:-1]) | (lo[1:] != lo[:-1])
        # index of each row's group start (arange is increasing, so the
        # running max of start indices is exactly the current group start)
        rep_idx = np.maximum.accumulate(np.where(new_group, np.arange(len(ids)), 0))
        # duplicate-id rows with identical text (a dataset unioned with
        # itself, planted-id collisions) would otherwise emit a self edge
        # AND put the id on the loser list — _drop_ids then erases the
        # representative row too, silently removing the document from LSH.
        # Masking self-edges keeps both rows in reps_ds, the benign
        # pre-collapse behavior (downstream pair emission dedups ids).
        losers = ~new_group & (ids[rep_idx] != ids)
        return pa.table(
            {
                "rep": ids[rep_idx][losers],
                "member": ids[losers],
                "pair_ok": ~skip[losers],
            }
        )

    # one hashing call per input block, so every CPU hashes a share
    edges = shard_exchange(
        ds.map_batches(hash_rows, batch_format="pyarrow", batch_size=None),
        "__shard", n_shards, emit_edges,
    ).materialize()

    # every member row is a loser id; pull them in bounded sorted chunks
    # (driver peak = one chunk) exactly like dedup_survivors
    flags = {"any_pair_edges": False}

    def observe(b: pa.Table) -> None:
        if not flags["any_pair_edges"] and pc.any(b.column("pair_ok")).as_py():
            flags["any_pair_edges"] = True

    refs = _chunked_id_refs(
        edges, "member", loser_broadcast_max, on_batch=observe
    )
    any_pair_edges = flags["any_pair_edges"]
    if not refs:
        return ds, None

    reps = _drop_ids(ds, refs, id_col)
    if not any_pair_edges:
        return reps, None
    pair_edges = edges.map_batches(
        lambda t: t.filter(t.column("pair_ok")).select(["rep", "member"]),
        batch_format="pyarrow",
    )
    return reps, pair_edges


def _text_collapse_keyer(text_col: str):
    """Collapse key = md5(text); skip rows with no words (the LSH text ops
    discard them: word_shingles()/split_words() are empty for the same
    inputs, so the flag is exact for both minhash and simhash)."""
    from deduce_ray.ops.textstats import split_words

    def keyer(batch: pa.Table):
        texts = batch.column(text_col).to_pylist()
        hi, lo = _md5_words(texts)
        skip = np.fromiter(
            (not split_words(t or "") for t in texts),
            dtype=bool,
            count=len(texts),
        )
        return hi, lo, skip

    return keyer


def _vector_collapse_keyer(vec_col: str):
    """Collapse key = md5 of the float64 vector bytes; skip zero-norm rows
    (their verified cosine is 0 under the shared denom guard, never a
    pair — and collapsing them removes the all-zeros hot bucket)."""

    def keyer(batch: pa.Table):
        mat = _vec_matrix(batch.column(vec_col))
        n = mat.shape[0]
        hi = np.empty(n, dtype=np.int64)
        lo = np.empty(n, dtype=np.int64)
        for i in range(n):
            d = hashlib.md5(mat[i].tobytes()).digest()
            hi[i] = int.from_bytes(d[:8], "big", signed=True)
            lo[i] = int.from_bytes(d[8:], "big", signed=True)
        skip = ~(mat != 0).any(axis=1)
        return hi, lo, skip

    return keyer


def _expand_dup_pairs(
    rep_pairs,
    edges_ds,
    value_col: str,
    intra_value,
    value_dtype: str,
    expand_cap: int | None = None,
):
    """Expand representative-level verified pairs through exact-dup groups.

    Emits (a) intra-group pairs at ``intra_value`` for every collapsed
    group — always above threshold by construction — and (b) each rep
    pair replicated across the member sets of both endpoints (members
    share the rep's signature/vector, so the verified value transfers
    exactly).  Groups whose expansion would exceed ``expand_cap`` pairs
    degrade to a star around the representative (connectivity and
    dup-flagging preserved; exact dropped-pair count logged — an
    output-size cap, not a candidate-generation one).  Off (None) by
    default, matching ``max_bucket``: every output-changing cap is
    opt-in so the oracle-checked configurations stay exact; scale runs
    over mass-duplicated corpora should pass a cap (the stress harness
    uses 8192).

    Safe for the full signed int64 id range: the join stages carry an
    explicit ``is_edge`` discriminator column, and the -1 values in the
    unused member/other slots are plain fills, never tested.

    Two physical plans: a DRIVER fast path when the edge list and the
    intra-pair output are both small (the common corpus: a handful of
    exact dups), replacing the 3-exchange distributed expansion with one
    shuffle-free map_batches against a broadcast edge table (measured:
    ~1-2 s of pure fixed groupby overhead per LSH query at sf0.1 with 8
    edges); and the sharded distributed path for mass-duplicated inputs."""
    import ray.data

    from deduce_ray.ops.agg import merge_shards

    if edges_ds is None:
        return rep_pairs
    n_shards = merge_shards()

    def intra_pairs(df: pd.DataFrame) -> pd.DataFrame:
        import logging

        parts: list[pd.DataFrame] = []
        dropped = 0
        for rep, grp in df.groupby("rep"):
            # unique members excluding the rep: duplicate-id input rows
            # produce repeated (rep, member) edges, which would otherwise
            # expand into self pairs (member, member)
            uniq = np.unique(grp["member"].to_numpy(dtype=np.int64))
            members = np.concatenate(
                [
                    np.asarray([rep], dtype=np.int64),
                    uniq[uniq != rep],
                ]
            )
            m = len(members)
            npairs = m * (m - 1) // 2
            if expand_cap is not None and npairs > expand_cap:
                dropped += npairs - (m - 1)
                ia = np.zeros(m - 1, dtype=np.int64)
                ib = np.arange(1, m, dtype=np.int64)
            else:
                ia, ib = np.triu_indices(m, k=1)
            parts.append(
                pd.DataFrame({"id_a": members[ia], "id_b": members[ib]})
            )
        if dropped:
            logging.getLogger(__name__).warning(
                "_expand_dup_pairs: intra-group expansion capped at "
                "expand_cap=%d; emitted star pairs instead, dropping %d "
                "pair(s) (all at the intra value — connectivity preserved)",
                expand_cap,
                dropped,
            )
        out = pd.concat(parts, ignore_index=True)
        out[value_col] = intra_value
        return out.astype(
            {"id_a": "int64", "id_b": "int64", value_col: value_dtype}
        )

    # ----- driver fast path: small edge set AND bounded intra output.
    # edges_ds is materialized by collapse_exact_dups, so count() is free.
    n_edges = edges_ds.count()
    if n_edges <= 1_000_000:
        import ray

        frames = [
            b.to_pandas()
            for b in edges_ds.iter_batches(batch_format="pyarrow")
            if b.num_rows
        ]
        edges_df = (
            pd.concat(frames, ignore_index=True)
            if frames
            else pd.DataFrame({"rep": [], "member": []})
        ).drop_duplicates()
        edges_df = edges_df[edges_df["rep"] != edges_df["member"]]
        sizes = edges_df.groupby("rep").size() if len(edges_df) else pd.Series(dtype="int64")
        m_plus = sizes + 1
        full = (m_plus * (m_plus - 1)) // 2
        if expand_cap is not None:
            intra_total = int(np.where(full > expand_cap, m_plus - 1, full).sum())
        else:
            intra_total = int(full.sum())
        if intra_total <= 5_000_000:
            intra_df = intra_pairs(edges_df) if len(edges_df) else pd.DataFrame(
                {"id_a": [], "id_b": [], value_col: []}
            )
            intra_tbl = pa.table(
                {
                    "id_a": pa.array(
                        intra_df["id_a"].to_numpy(dtype=np.int64), type=pa.int64()
                    ),
                    "id_b": pa.array(
                        intra_df["id_b"].to_numpy(dtype=np.int64), type=pa.int64()
                    ),
                    value_col: pa.array(
                        intra_df[value_col].to_numpy(dtype=value_dtype)
                    ),
                }
            )
            exp = edges_df
            if expand_cap is not None and len(sizes):
                big = sizes[m_plus > expand_cap]
                if len(big):
                    import logging

                    logging.getLogger(__name__).warning(
                        "_expand_dup_pairs (driver path): cross expansion "
                        "capped at expand_cap=%d members/side for %d "
                        "group(s) (rep-level pairs kept; intra stars keep "
                        "every member connected)",
                        expand_cap,
                        len(big),
                    )
                    exp = exp[~exp["rep"].isin(big.index)]
            exp_ref = ray.put(exp.reset_index(drop=True))

            def expand_batch(df: pd.DataFrame) -> pa.Table:
                e = ray.get(exp_ref)
                cols = list(df.columns)
                out = df
                if len(e) and len(df):
                    a = df.merge(e, left_on="id_a", right_on="rep")
                    if len(a):
                        a["id_a"] = a["member"]
                    s1 = pd.concat([df, a[cols]], ignore_index=True)
                    b = s1.merge(e, left_on="id_b", right_on="rep")
                    if len(b):
                        b["id_b"] = b["member"]
                    out = pd.concat([s1, b[cols]], ignore_index=True)
                # same ordering rule as the distributed finish step:
                # member ids interleave across groups, restore id_a < id_b
                ia = out["id_a"].to_numpy(dtype=np.int64)
                ib = out["id_b"].to_numpy(dtype=np.int64)
                return pa.table(
                    {
                        "id_a": pa.array(np.minimum(ia, ib), type=pa.int64()),
                        "id_b": pa.array(np.maximum(ia, ib), type=pa.int64()),
                        value_col: pa.array(
                            out[value_col].to_numpy(dtype=value_dtype)
                        ),
                    }
                )

            cross_fast = rep_pairs.map_batches(
                expand_batch, batch_format="pandas"
            )
            return cross_fast.union(ray.data.from_arrow(intra_tbl))

    def _add_rep_shard(t: pa.Table) -> pa.Table:
        rep = t.column("rep").to_numpy(zero_copy_only=False).astype(np.int64)
        return t.append_column(
            "__shard", pa.array(rep % n_shards, type=pa.int64())
        )

    edge_shard = edges_ds.map_batches(_add_rep_shard, batch_format="pyarrow")
    # emit ARROW blocks: this dataset is unioned with the arrow-block
    # `cross` below, and a union of pandas + arrow blocks crashes any
    # downstream iter_batches whose batch window spans the type boundary
    # (ray.data DelegatingBlockBuilder asserts one block type per batch)
    intra = edge_shard.groupby("__shard").map_groups(
        lambda df: pa.Table.from_pandas(
            intra_pairs(df.drop(columns=["__shard"])), preserve_index=False
        ),
        batch_format="pandas",
    )

    def _tag_edges(t: pa.Table) -> pa.Table:
        rep = t.column("rep").to_numpy(zero_copy_only=False).astype(np.int64)
        n = t.num_rows
        return pa.table(
            {
                "__shard": pa.array(rep % n_shards, type=pa.int64()),
                "rep": pa.array(rep, type=pa.int64()),
                "member": pc.cast(t.column("member"), pa.int64()),
                "other": pa.array(np.full(n, -1), type=pa.int64()),
                "value": pa.array(np.zeros(n), type=pa.float64()),
                "is_edge": pa.array(np.ones(n, dtype=bool)),
            }
        )

    edge_tagged = edges_ds.map_batches(_tag_edges, batch_format="pyarrow")

    def _tag_pairs(side: str, other: str):
        def tag(t: pa.Table) -> pa.Table:
            rep = (
                t.column(side)
                .to_numpy(zero_copy_only=False)
                .astype(np.int64)
            )
            n = t.num_rows
            return pa.table(
                {
                    "__shard": pa.array(rep % n_shards, type=pa.int64()),
                    "rep": pa.array(rep, type=pa.int64()),
                    "member": pa.array(np.full(n, -1), type=pa.int64()),
                    "other": pc.cast(t.column(other), pa.int64()),
                    "value": pc.cast(t.column(value_col), pa.float64()),
                    "is_edge": pa.array(np.zeros(n, dtype=bool)),
                }
            )

        return tag

    def side_expand(df: pd.DataFrame) -> pd.DataFrame:
        import logging

        # drop_duplicates: duplicate-id input rows yield repeated
        # (rep, member) edges, which would replicate each cross pair
        edges = df[df["is_edge"]][["rep", "member"]].drop_duplicates()
        prs = df[~df["is_edge"]][["rep", "other", "value"]]
        empty = pd.DataFrame(
            {
                "mem": pd.Series(dtype="int64"),
                "other": pd.Series(dtype="int64"),
                "value": pd.Series(dtype="float64"),
            }
        )
        if prs.empty:
            return empty
        base = prs.rename(columns={"rep": "mem"})[["mem", "other", "value"]]
        if edges.empty:
            return base.astype({"mem": "int64", "other": "int64"})
        if expand_cap is not None:
            cnt = edges.groupby("rep").size()
            big = cnt[cnt + 1 > expand_cap]
            if len(big):
                pair_cnt = prs.groupby("rep").size()
                dropped = int(
                    sum(
                        int(c) * int(pair_cnt.get(rep, 0))
                        for rep, c in big.items()
                    )
                )
                if dropped:
                    logging.getLogger(__name__).warning(
                        "_expand_dup_pairs: cross-group expansion capped at "
                        "expand_cap=%d members/side; %d expanded pair(s) "
                        "dropped (rep-level pair kept; intra stars keep "
                        "every member connected)",
                        expand_cap,
                        dropped,
                    )
                edges = edges[~edges["rep"].isin(big.index)]
        j = prs.merge(edges, on="rep")
        j = j[["member", "other", "value"]].rename(columns={"member": "mem"})
        out = pd.concat([base, j], ignore_index=True)
        return out.astype({"mem": "int64", "other": "int64"})

    # side A: replicate each pair across members of id_a's group
    stage_a = (
        edge_tagged.union(
            rep_pairs.map_batches(
                _tag_pairs("id_a", "id_b"), batch_format="pyarrow"
            )
        )
        .groupby("__shard")
        .map_groups(
            lambda df: side_expand(df.drop(columns=["__shard"])),
            batch_format="pandas",
        )
    )

    # side B: same over id_b — rename so the shared tagger applies
    def _stage_a_as_pairs(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "id_a": t.column("mem"),
                "id_b": t.column("other"),
                value_col: t.column("value"),
            }
        )

    stage_b = (
        edge_tagged.union(
            stage_a.map_batches(
                _stage_a_as_pairs, batch_format="pyarrow"
            ).map_batches(_tag_pairs("id_b", "id_a"), batch_format="pyarrow")
        )
        .groupby("__shard")
        .map_groups(
            lambda df: side_expand(df.drop(columns=["__shard"])),
            batch_format="pandas",
        )
    )

    def finish(t: pa.Table) -> pa.Table:
        # stage_b rows are (mem = expanded id_b member, other = expanded
        # id_a member); restore id_a < id_b (member ids can interleave
        # across groups) and the value column's dtype
        a = t.column("other").to_numpy(zero_copy_only=False)
        b = t.column("mem").to_numpy(zero_copy_only=False)
        lo_ = np.minimum(a, b)
        hi_ = np.maximum(a, b)
        val = t.column("value")
        if value_dtype == "int64":
            val = pc.cast(pc.round(val), pa.int64())
        return pa.table(
            {
                "id_a": pa.array(lo_, type=pa.int64()),
                "id_b": pa.array(hi_, type=pa.int64()),
                value_col: val,
            }
        )

    cross = stage_b.map_batches(finish, batch_format="pyarrow")
    return cross.union(intra)


# ---------------------------------------------------------------------------
# the banded-pairs core behind the three LSH families
# ---------------------------------------------------------------------------

_PAIR_MUL = np.uint64(0x9E3779B97F4A7C15)
_VERIFY_CHUNK = 65536  # pairs per vectorized verify step
_CANDIDATE_WARN = 5_000_000


def _array(col) -> pa.Array:
    return col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col


def _int64(col) -> np.ndarray:
    return col.to_numpy(zero_copy_only=False).astype(np.int64, copy=False)


def _first_rows(keys: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """``(order, first)``: a stable sort over ``keys`` (most significant
    last, as for ``np.lexsort``) and the mask of each run's first row."""
    order = np.lexsort(keys)
    first = np.zeros(len(order), dtype=bool)
    first[:1] = True
    for k in keys:
        k = k[order]
        first[1:] |= k[1:] != k[:-1]
    return order, first


def _bucket_pairs(bucket: np.ndarray, ids: np.ndarray, max_bucket: int | None):
    """Distinct ``(id_a < id_b)`` pairs of ids sharing a bucket, plus the
    ``max_bucket`` cap's ``(capped buckets, dropped pairs)``.

    Numpy over (bucket, id) rows: distinct rows sorted by (bucket, id),
    then each bucket's ``triu`` as one repeat/arange expansion (each
    member pairs with the members after it).  A bucket above
    ``max_bucket`` keeps its ``max_bucket`` smallest ids."""
    order, first = _first_rows([ids, bucket])
    sel = order[first]
    bucket, ids = bucket[sel], ids[sel]
    n = len(ids)
    starts = np.flatnonzero(np.r_[True, bucket[1:] != bucket[:-1]]) if n else np.empty(0, dtype=np.int64)
    sizes = np.diff(np.r_[starts, n])
    kept = sizes
    capped = dropped = 0
    if max_bucket is not None:
        hot = (sizes > max_bucket) & (sizes > 1)
        capped = int(hot.sum())
        s, m = sizes[hot], max_bucket
        dropped = int((s * (s - 1) - m * (m - 1)).sum() // 2)
        kept = np.minimum(sizes, max_bucket)
    rank = np.arange(n) - np.repeat(starts, sizes)
    after = np.maximum(np.repeat(kept, sizes) - rank - 1, 0)
    ia = np.repeat(np.arange(n), after)
    ib = ia + 1 + np.arange(len(ia)) - np.repeat(np.cumsum(after) - after, after)
    a, b = ids[ia], ids[ib]
    order, first = _first_rows([b, a])
    return a[order[first]], b[order[first]], capped, dropped


def _pull(ds) -> pa.Table | None:
    """The dataset's non-empty blocks as one table on the driver, or
    None when it has no rows."""
    parts = [b for b in ds.iter_batches(batch_format="pyarrow", batch_size=None) if b.num_rows]
    return pa.concat_tables(parts) if parts else None


def _banded_pairs(
    ds,
    id_col: str,
    keyer,
    payload,
    band,
    decode,
    similarity,
    keep,
    *,
    value_col: str,
    value_dtype: str,
    intra_value,
    expand_cap: int | None,
    max_bucket: int | None,
    driver_verify_max: int,
    broadcast_candidate_ids_max: int,
    name: str,
):
    """Near-duplicate pairs ``(id_a < id_b, value_col)``: the one pipeline
    behind :func:`minhash_lsh_pairs`, :func:`simhash_pairs` and
    :func:`embedding_neardup_pairs`.  The adapter supplies the family:
    ``keyer`` (the exact-dup collapse key, None for no collapse),
    ``payload(batch)`` -> rows ``(id, payload, band inputs)``,
    ``band(batch)`` -> int64 ``(bucket, id)`` band rows,
    ``decode(payload array)`` into what ``similarity(decoded, ia, ib)``
    scores per position pair, and ``keep(values)``, the verify rule on
    UNROUNDED values (float values are stored rounded to 6 places).

    1. Exact duplicates collapse to one representative
       (:func:`collapse_exact_dups`); the payload table is materialized.
    2. Candidates: ``(shard, bucket, id)`` band rows, 20 bytes whatever
       the payload, go through one ``shard_exchange``, and a numpy merge
       emits each partition's distinct pairs (:func:`_bucket_pairs`).
       ``max_bucket`` (off by default, so the oracle-checked runs stay
       exact) keeps a larger bucket's smallest ids; the exact dropped-pair
       count is logged on the driver.  No candidates: the typed empty
       result, with no payload fetch.
    3. Driver verify: up to ``broadcast_candidate_ids_max`` candidate
       rows are pulled, deduplicated (one pair can meet in buckets of
       different shards) and their ids broadcast; up to
       ``driver_verify_max`` touched ids, only those payloads are pulled
       and verified on the driver.
    4. Verify join, above either bound: one exchange on the id attaches
       each payload to its pair sides, one on the pair meets both sides,
       drops duplicate pairs and verifies.  The legs carry an explicit
       int8 ``kind`` (0 payload, 1 side a, 2 side b), so every signed
       int64 id is a plain id.  A payload crosses the wire once per pair
       side, never once per band.
    5. Pairs expand through the exact-dup groups (:func:`_expand_dup_pairs`).
    """
    import logging

    import ray
    import ray.data

    from deduce_ray.ops.agg import merge_shards, shard_exchange

    log = logging.getLogger(__name__)
    n_shards = merge_shards()
    value_type = pa.from_numpy_dtype(np.dtype(value_dtype))
    dup_edges = None
    if keyer is not None:
        ds, dup_edges = collapse_exact_dups(ds, id_col, keyer)
    table = ds.map_batches(payload, batch_format="pyarrow").materialize()

    def band_rows(batch: pa.Table) -> pa.Table:
        bucket, ids = band(batch) if batch.num_rows else (np.empty(0, np.int64),) * 2
        return pa.table({"shard": np.mod(bucket, n_shards), "bucket": bucket, "id": ids})

    def candidate_pairs(rows: pa.Table) -> pa.Table:
        a, b, capped, dropped = _bucket_pairs(
            _int64(rows.column("bucket")), _int64(rows.column("id")), max_bucket
        )
        kind = np.zeros(len(a), dtype=np.int8)
        if capped:  # one stats row: (capped buckets, dropped pairs)
            a, b, kind = np.r_[a, capped], np.r_[b, dropped], np.r_[kind, np.int8(1)]
        return pa.table({"id_a": a, "id_b": b, "kind": kind})

    cand = shard_exchange(
        table.map_batches(band_rows, batch_format="pyarrow"), "shard", n_shards, candidate_pairs
    ).materialize()

    def verified(a, b, decoded, ia, ib) -> pa.Table:
        # _VERIFY_CHUNK pairs per step: gathering every pair's payloads at
        # once holds two (pairs, payload) copies (~60 GB at 5M x 768 dims)
        values = np.concatenate(
            [np.empty(0, dtype=value_dtype)]
            + [
                similarity(decoded, ia[lo : lo + _VERIFY_CHUNK], ib[lo : lo + _VERIFY_CHUNK])
                for lo in range(0, len(ia), _VERIFY_CHUNK)
            ]
        )
        mask = keep(values)
        if value_dtype == "float64":
            values = np.round(values, 6)
        return pa.table(
            {"id_a": a[mask], "id_b": b[mask], value_col: pa.array(values[mask], type=value_type)}
        )

    def finish(rep_pairs):
        return _expand_dup_pairs(rep_pairs, dup_edges, value_col, intra_value, value_dtype, expand_cap)

    def of_kind(t: pa.Table, kind: int) -> pa.Table:
        return t.filter(pc.equal(t.column("kind"), kind))

    # the candidates come to the driver when few; the stats rows always do
    n_rows = cand.count()
    pulled = n_rows <= broadcast_candidate_ids_max
    rows = _pull(cand if pulled else cand.map_batches(lambda t: of_kind(t, 1), batch_format="pyarrow"))
    stats = of_kind(rows, 1) if rows else None
    if stats:
        log.warning(
            "%s: capped %d bucket(s) at max_bucket=%d, dropping %d "
            "candidate pair(s) (recall cap, not an error)",
            name,
            pc.sum(stats.column("id_a")).as_py(),
            max_bucket,
            pc.sum(stats.column("id_b")).as_py(),
        )
    n_cand = n_rows - (stats.num_rows if stats else 0)
    if n_cand == 0:
        none = np.empty(0, dtype=np.int64)
        return finish(ray.data.from_arrow(verified(none, none, None, none, none)))
    if n_cand > _CANDIDATE_WARN:
        # rejected candidates grow Theta(n^2) when a short phrase sits in
        # most documents and narrow bands concentrate its band values,
        # even with every bucket below max_bucket (scripts/stress_funnel.py)
        log.warning(
            "%s: %d candidate pairs; if verify rejects most, the corpus "
            "likely shares a short phrase across most documents; consider "
            "wider bands (bands=16 -> 4 rows/band), max_bucket, or "
            "strip_dup_spans",
            name,
            n_cand,
        )

    touched_ref, on_driver, route = None, False, "in a join that ships every payload"
    if pulled:
        pairs = of_kind(rows, 0)
        a, b = _int64(pairs.column("id_a")), _int64(pairs.column("id_b"))
        order, first = _first_rows([b, a])
        a, b = a[order[first]], b[order[first]]
        n_cand, touched = len(a), np.unique(np.r_[a, b])
        touched_ref = ray.put(pa.array(touched, type=pa.int64()))
        on_driver = len(touched) <= driver_verify_max
        route = ("on the driver over %d touched ids" if on_driver
                 else "in a join that ships only the %d touched payloads") % len(touched)
    log.info("%s: %d candidate pairs, verified %s", name, n_cand, route)

    def touched_only(batch: pa.Table) -> pa.Table:
        if touched_ref is None:
            return batch
        return batch.filter(pc.is_in(batch.column("id"), value_set=ray.get(touched_ref)))

    if on_driver:
        got = _pull(table.map_batches(touched_only, batch_format="pyarrow"))
        # a duplicated id keeps its first payload row
        ids = _int64(got.column("id"))
        order, first = _first_rows([ids])
        uniq = ids[order[first]]
        decoded = decode(_array(got.column("payload").take(order[first])))
        rep = verified(a, b, decoded, np.searchsorted(uniq, a), np.searchsorted(uniq, b))
        return finish(ray.data.from_arrow(rep))

    payload_type = table.schema().base_schema.field("payload").type

    def join_rows(join_id, a, b, kind, payload_col) -> pa.Table:
        return pa.table(
            {"shard": np.mod(join_id, n_shards), "join_id": join_id, "id_a": a, "id_b": b,
             "kind": kind, "payload": payload_col}
        )

    def requests(batch: pa.Table) -> pa.Table:
        batch = of_kind(batch, 0)
        a, b = _int64(batch.column("id_a")), _int64(batch.column("id_b"))
        kind = np.repeat(np.array([1, 2], dtype=np.int8), len(a))
        return join_rows(np.r_[a, b], np.r_[a, a], np.r_[b, b], kind, pa.nulls(len(kind), payload_type))

    def payload_rows(batch: pa.Table) -> pa.Table:
        batch = touched_only(batch)
        ids = _int64(batch.column("id"))
        fill = np.full(len(ids), -1, dtype=np.int64)
        return join_rows(ids, fill, fill, np.zeros(len(ids), dtype=np.int8), batch.column("payload"))

    def attach_payloads(rows: pa.Table) -> pa.Table:
        have, reqs = of_kind(rows, 0), rows.filter(pc.not_equal(rows.column("kind"), 0))
        hid = _int64(have.column("join_id"))
        order, first = _first_rows([hid])
        uniq, src = hid[order[first]], order[first]
        rid = _int64(reqs.column("join_id"))
        pos = np.minimum(np.searchsorted(uniq, rid), max(len(uniq) - 1, 0))
        found = uniq[pos] == rid if len(uniq) else np.zeros(len(rid), dtype=bool)
        reqs, pos = reqs.filter(found), pos[found]
        a, b = _int64(reqs.column("id_a")), _int64(reqs.column("id_b"))
        pair = (a.astype(np.uint64) * _PAIR_MUL ^ b.astype(np.uint64)) % np.uint64(n_shards)
        return pa.table(
            {"shard": pair.astype(np.int64), "id_a": a, "id_b": b, "kind": reqs.column("kind"),
             "payload": have.column("payload").take(src[pos])}
        )

    def verify_pairs(rows: pa.Table) -> pa.Table:
        a, b = _int64(rows.column("id_a")), _int64(rows.column("id_b"))
        kind = rows.column("kind").to_numpy(zero_copy_only=False)
        order, first = _first_rows([kind, b, a])
        order = order[first]
        a, b, kind = a[order], b[order], kind[order]
        # one row per (pair, side) now: side a sits right before side b
        both = np.flatnonzero(
            (kind[:-1] == 1) & (kind[1:] == 2) & (a[:-1] == a[1:]) & (b[:-1] == b[1:])
        )
        n = len(both)
        sides = np.r_[order[both], order[both + 1]]
        decoded = decode(_array(rows.column("payload").take(sides))) if n else None
        return verified(a[both], b[both], decoded, np.arange(n), np.arange(n, 2 * n))

    tagged = cand.map_batches(requests, batch_format="pyarrow").union(
        table.map_batches(payload_rows, batch_format="pyarrow")
    )
    joined = shard_exchange(tagged, "shard", n_shards, attach_payloads)
    return finish(shard_exchange(joined, "shard", n_shards, verify_pairs))


_BAND_P1 = np.uint64(0x9E3779B97F4A7C15)
_BAND_P2 = np.uint64(0xC2B2AE3D27D4EB4F)


def _minhash_sig_matrix(texts, ids_in, k, n_perm, a, b):
    """(kept_ids, sig_rows, shingle arrays) for the docs with at least
    one word.

    Batched signatures (ROADMAP #6): ONE affine transform + per-doc
    segmented min per chunk of docs, instead of an (n_perm x n_shingles)
    product per document; chunks bound the intermediate at ~64 MB.
    Shingle-less (empty/whitespace-only) docs are dropped: they all share
    the zero signature, so emitting them would put every such doc in one
    bucket (O(m^2) verify, all "jaccard 1.0") — they are exact duplicates
    of each other and belong to exact_dedup."""
    sh_list: list[np.ndarray] = []
    kept: list[int] = []
    for i, t in zip(ids_in, texts):
        sh = word_shingles(t or "", k)
        if sh.size == 0:
            continue
        sh_list.append(sh)
        kept.append(i)
    n_docs = len(kept)
    sig_rows = np.empty((n_docs, n_perm), dtype=np.uint64)
    max_chunk_shingles = max(1, 8_000_000 // n_perm)
    start = 0
    while start < n_docs:
        end, total = start, 0
        while end < n_docs and (
            end == start or total + sh_list[end].size <= max_chunk_shingles
        ):
            total += sh_list[end].size
            end += 1
        chunk = sh_list[start:end]
        lens = np.fromiter(
            (s.size for s in chunk), dtype=np.int64, count=len(chunk)
        )
        offsets = np.zeros(len(chunk), dtype=np.int64)
        np.cumsum(lens[:-1], out=offsets[1:])
        allsh = np.concatenate(chunk)
        with np.errstate(over="ignore"):
            prod = a[:, None] * allsh[None, :] + b[:, None]
        sig_rows[start:end] = np.minimum.reduceat(prod, offsets, axis=1).T
        start = end
    return np.asarray(kept, dtype=np.int64), sig_rows, sh_list


def _minhash_band_buckets(sig_rows, bands, rows_per_band):
    """(bands, n_docs) int64 bucket keys: polynomial combine of each
    band's signature rows with the band index mixed in — int64 keys
    (faster groupby than hex strings), and equal band slices still map to
    equal buckets so LSH recall is unchanged; a cross-band collision only
    ADDS a candidate that verification removes (~2^-64 per pair)."""
    n_docs = sig_rows.shape[0]
    bucket_rows = np.empty((bands, n_docs), dtype=np.uint64)
    with np.errstate(over="ignore"):
        for band in range(bands):
            seg = sig_rows[:, band * rows_per_band : (band + 1) * rows_per_band]
            acc = seg[:, 0].copy()
            for j in range(1, rows_per_band):
                acc *= _BAND_P1
                acc += seg[:, j]
            acc += np.uint64(band) * _BAND_P1
            acc *= _BAND_P2
            bucket_rows[band] = acc
    return bucket_rows


def minhash_lsh_pairs(
    ds,
    text_col: str = "text",
    id_col: str = "doc_id",
    k: int = 3,
    n_perm: int = 64,
    bands: int = 32,
    threshold: float = 0.6,
    verify: str = "signature",
    collapse_exact: bool = True,
    expand_cap: int | None = None,
    max_bucket: int | None = None,
    broadcast_candidate_ids_max: int = 5_000_000,
    driver_verify_max: int = 100_000,
):
    """MinHash+LSH near-duplicate pairs ``(id_a < id_b, jaccard)`` over
    word ``k``-shingles, on :func:`_banded_pairs`.

    ``n_perm`` permutation minima form ``bands`` bands.  The default 32x2
    puts the S-curve knee near J~0.2, so candidate recall at J>=0.5 is
    effectively 1 and the verify removes the extras.  With 2 rows per
    band, a short phrase in a constant fraction of ALL documents (a
    3-word footer below strip_dup_spans' window) concentrates band
    values: buckets grow Theta(n) and rejected candidates Theta(n^2) (5M
    at 96k short docs; ~24 GB of object spill at 700k,
    scripts/stress_funnel.py).  ``max_bucket`` bounds that above the cap;
    below it, prefer more rows per band (``bands=16`` -> r=4 moves the
    knee to J~0.45).  Shingle-less documents are skipped: they share the
    zero signature and belong to exact dedup.

    ``verify="signature"`` (default, the scale path) carries the
    8*n_perm-byte signature and keeps signature agreement
    |sig_a == sig_b| / n_perm >= ``threshold``, an unbiased Jaccard
    estimate with resolution 1/n_perm.  ``verify="exact"`` (validation at
    small sf) carries the O(doc length) shingle list and keeps exact
    Jaccard.

    ``collapse_exact`` (default on) collapses byte-identical texts before
    banding, so 1M copies of a license header form no O(m^2) bucket;
    their pairs expand back at jaccard 1.0.  ``expand_cap`` bounds the
    emitted pairs per dup group (star fallback, logged).  Both
    output-changing caps, ``expand_cap`` and ``max_bucket``, are off by
    default so the oracle-checked configurations stay exact; runs over
    mass-duplicated corpora should set ``expand_cap`` (the stress harness
    uses 8192).
    """
    if verify not in ("signature", "exact"):
        raise ValueError(f"unknown verify mode {verify!r}")
    if bands <= 0 or n_perm % bands != 0:
        # silently banding with n_perm//bands rows would drop trailing
        # permutations and change the documented S-curve; fail fast on the
        # driver instead of deep inside a Ray task
        raise ValueError(
            f"bands ({bands}) must evenly divide n_perm ({n_perm})"
        )
    rows_per_band = n_perm // bands
    a, b = _minhash_params(n_perm)
    exact = verify == "exact"

    def payload(batch: pa.Table) -> pa.Table:
        ids, sigs, shingles = _minhash_sig_matrix(
            batch.column(text_col).to_pylist(), batch.column(id_col).to_pylist(), k, n_perm, a, b
        )
        # a variable list (not fixed-size): the verify join's request rows
        # carry null payloads, and fixed-size nulls allocate their values
        sig = pa.ListArray.from_arrays(
            pa.array(np.arange(0, sigs.size + 1, n_perm), type=pa.int32()), sigs.ravel()
        )
        if not exact:
            return pa.table({"id": ids, "payload": sig})
        ends = np.cumsum([0] + [s.size for s in shingles])
        flat = np.concatenate(shingles) if shingles else np.empty(0, dtype=np.uint64)
        shingle_lists = pa.ListArray.from_arrays(pa.array(ends, type=pa.int32()), flat)
        return pa.table({"id": ids, "sig": sig, "payload": shingle_lists})

    def sig_rows(col) -> np.ndarray:
        return _array(col).flatten().to_numpy(zero_copy_only=False).reshape(-1, n_perm)

    def band(batch: pa.Table):
        buckets = _minhash_band_buckets(sig_rows(batch.column("sig" if exact else "payload")), bands, rows_per_band)
        return buckets.reshape(-1).view(np.int64), np.tile(_int64(batch.column("id")), bands)

    def shingle_sets(col) -> list[set]:
        ends = np.cumsum(pc.list_value_length(col).to_numpy())
        flat = col.flatten().to_numpy(zero_copy_only=False)
        return [set(s.tolist()) for s in np.split(flat, ends[:-1])]

    def jaccard(sets, ia, ib):
        inter = np.fromiter((len(sets[i] & sets[j]) for i, j in zip(ia, ib)), np.int64, len(ia))
        union = np.fromiter((len(sets[i]) + len(sets[j]) for i, j in zip(ia, ib)), np.int64, len(ia)) - inter
        return inter / union

    def agreement(sigs, ia, ib):
        return (sigs[ia] == sigs[ib]).mean(axis=1)

    return _banded_pairs(
        ds, id_col, _text_collapse_keyer(text_col) if collapse_exact else None,
        payload, band, shingle_sets if exact else sig_rows, jaccard if exact else agreement,
        lambda sims: sims >= threshold,
        value_col="jaccard", value_dtype="float64", intra_value=1.0,
        expand_cap=expand_cap, max_bucket=max_bucket, driver_verify_max=driver_verify_max,
        broadcast_candidate_ids_max=broadcast_candidate_ids_max, name="minhash_lsh_pairs",
    )


# ---------------------------------------------------------------------------
# connected components over near-dup pairs
# ---------------------------------------------------------------------------


def neardup_clusters(
    pairs_ds,
    nodes_ds=None,
    rounds: int = 16,
    driver_threshold: int = 1_000_000,
):
    """Cluster near-duplicate pairs into components.

    Safe for the full signed int64 id range on BOTH paths: the
    distributed rounds discriminate witness-marker rows by ``w != 0``
    (edges always carry w = 0; every marker's w is positive), so a real
    node id of -1 is just another node.

    The upstream LSH pipeline is executed ONCE: ``pairs_ds`` is materialized
    before the size check, so the count and the subsequent passes read the
    cached blocks instead of re-running the shuffle.

    When the pair set is small (<= driver_threshold rows), collapse it with
    a driver-side union-find — near-dup pair sets are tiny relative to the
    corpus, and each distributed round costs shuffles.  Otherwise run
    alternating LARGE-STAR / SMALL-STAR rounds (Kiveris et al., "Connected
    Components in MapReduce and Beyond"): each star op is ONE node-sharded
    groupby that rewires every node's neighbours toward its neighbourhood
    minimum, so a round costs 2 groupbys + 1 materialize (round 2's
    min-label + pointer-jumping loop cost 3 groupbys + 2 materializes per
    round).  Convergence is detected by an edge-set witness pair — two
    INDEPENDENT bounded per-edge hash sums (plus edge count) over the
    deduplicated edges, computed inside the large-star tasks and compared
    exactly on the driver: equal consecutive witness pairs mean the edge
    set is stable (a false stop needs a simultaneous collision in both
    families, ~2^-120), at which point every node neighbours its
    component minimum.  If the ``rounds`` budget is exhausted first a
    warning is logged and the current labels are returned.

    pairs_ds: rows with id_a/id_b.  nodes_ds: optional rows with doc_id for
    singleton nodes.  Returns int64 (doc_id, cluster_id) Arrow blocks on
    both paths, with cluster_id = min doc id in the component.
    """
    import ray.data

    pairs_ds = pairs_ds.materialize()

    if driver_threshold and pairs_ds.count() <= driver_threshold:
        # pull the id columns columnar: take_all()'s per-row dicts cost
        # ~1 ms/row on pandas blocks (85 s for 100k pairs vs <1 s)
        got = _pull(pairs_ds.select_columns(["id_a", "id_b"]))
        pair_a = _int64(got.column("id_a")) if got else np.empty(0, dtype=np.int64)
        pair_b = _int64(got.column("id_b")) if got else np.empty(0, dtype=np.int64)
        parent: dict[int, int] = {}

        def find(x: int) -> int:
            root = x
            while parent.setdefault(root, root) != root:
                root = parent[root]
            while parent[x] != root:
                parent[x], x = root, parent[x]
            return root

        for ia, ib in zip(pair_a.tolist(), pair_b.tolist()):
            ra, rb = find(ia), find(ib)
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
        if nodes_ds is not None:
            for bt in nodes_ds.select_columns(["doc_id"]).iter_batches(
                batch_format="pyarrow"
            ):
                for node in bt.column("doc_id").to_numpy(
                    zero_copy_only=False
                ).tolist():
                    find(int(node))
        nodes = np.fromiter(sorted(parent), dtype=np.int64, count=len(parent))
        roots = np.fromiter(
            (find(int(x)) for x in nodes), dtype=np.int64, count=len(nodes)
        )
        return ray.data.from_arrow(pa.table({"doc_id": nodes, "cluster_id": roots}))

    from deduce_ray.ops.agg import merge_shards, shard_exchange

    n_shards = merge_shards()
    # witness terms: per-edge 28-bit hashes keep each global int64 sum
    # exact up to ~2^35 edges; count is folded in with a small prime.  TWO
    # independent hash families ride each marker row (w and v columns) and
    # both sums must repeat for convergence — a false stop needs a
    # simultaneous collision in both (~2^-120), vs ~2^-60 for one family
    _WMASK = (1 << 28) - 1
    _WCOUNT_P = 40503
    _WCOUNT_P2 = 65371
    _WMUL = np.uint64(0x9E3779B97F4A7C15)
    _WMUL2 = np.uint64(0xC2B2AE3D27D4EB4F)

    def to_edges(batch: pa.Table) -> pa.Table:
        a = np.asarray(batch.column("id_a").to_pylist(), dtype=np.int64)
        b = np.asarray(batch.column("id_b").to_pylist(), dtype=np.int64)
        u = np.concatenate([a, b])
        v = np.concatenate([b, a])
        keep = u != v
        u, v = u[keep], v[keep]
        return pa.table(
            {
                "shard": pa.array(u % n_shards, type=pa.int64()),
                "u": pa.array(u, type=pa.int64()),
                "v": pa.array(v, type=pa.int64()),
                "w": pa.array(np.zeros(len(u), dtype=np.int64)),
            }
        )

    edges = pairs_ds.map_batches(to_edges, batch_format="pyarrow")

    def _node_mins(df: pd.DataFrame):
        """Per-u (u, m) with m = min(u, min N(u)) — canonical inside a
        shard task because all of u's edges share u's shard."""
        g = df.groupby("u")["v"].min()
        uu = g.index.to_numpy(dtype=np.int64)
        m = np.minimum(g.to_numpy(dtype=np.int64), uu)
        return pd.DataFrame({"u": uu, "m": m})

    def _emit(out: pd.DataFrame, markers: pd.DataFrame | None) -> pd.DataFrame:
        out = out[out["u"] != out["v"]]
        sym = pd.concat(
            [out, out.rename(columns={"u": "v", "v": "u"})], ignore_index=True
        ).drop_duplicates()
        sym = sym.astype({"u": "int64", "v": "int64"})
        sym["shard"] = (sym["u"] % n_shards).astype("int64")
        sym["w"] = 0
        sym = sym[["shard", "u", "v", "w"]]
        if markers is not None and len(markers):
            sym = pd.concat([sym, markers], ignore_index=True)
        return sym

    def large_star(df: pd.DataFrame) -> pd.DataFrame:
        # drop markers from the previous round; dedupe this shard's edges
        df = df[df["w"] == 0][["u", "v"]].drop_duplicates()
        if df.empty:
            return pd.DataFrame(columns=["shard", "u", "v", "w"]).astype(
                {"shard": "int64", "u": "int64", "v": "int64", "w": "int64"}
            )
        # witnesses over the DEDUPED input: describe the edge set entering
        # this round; emitted as one marker row (u = -1, v = witness2,
        # w = witness1) that the small-star task passes through for the
        # driver's per-round comparison
        uu = df["u"].to_numpy().astype(np.uint64)
        vv = df["v"].to_numpy().astype(np.uint64)
        h1 = ((uu * _WMUL) ^ vv) & np.uint64(_WMASK)
        h2 = ((vv * _WMUL2) ^ uu) & np.uint64(_WMASK)
        w1 = int(h1.sum(dtype=np.uint64)) + len(df) * _WCOUNT_P
        w2 = int(h2.sum(dtype=np.uint64)) + len(df) * _WCOUNT_P2
        markers = pd.DataFrame(
            [{"shard": 0, "u": -1, "v": w2, "w": w1}]
        ).astype({"shard": "int64", "u": "int64", "v": "int64", "w": "int64"})
        mins = _node_mins(df)
        j = df.merge(mins, on="u")
        sel = j[j["v"] > j["u"]]
        out = sel[["v", "m"]].rename(columns={"v": "u", "m": "v"})
        return _emit(out, markers)

    def small_star(df: pd.DataFrame) -> pd.DataFrame:
        markers = df[df["w"] != 0][["shard", "u", "v", "w"]]
        df = df[df["w"] == 0][["u", "v"]].drop_duplicates()
        if df.empty:
            return markers.reset_index(drop=True)
        mins = _node_mins(df)
        j = df.merge(mins, on="u")
        sel = j[j["v"] < j["u"]]
        out = pd.concat(
            [
                sel[["v", "m"]].rename(columns={"v": "u", "m": "v"}),
                mins.rename(columns={"u": "u", "m": "v"}),
            ],
            ignore_index=True,
        )
        return _emit(out, markers)

    def _witness_of(ds) -> tuple[int, int]:
        # marker rows are one per non-empty shard (<= n_shards); exact
        # Python-int sums of both families on the driver.  Discriminate
        # by w != 0 (edges always carry w = 0; a marker's w is >=
        # _WCOUNT_P > 0 since every marker summarizes >= 1 edge) — NOT
        # by u == -1, which a real node id can legitimately equal now
        # that negative ids are supported end-to-end; -1 in a marker's
        # u is a plain fill value
        rows = ds.map_batches(
            lambda t: t.filter(pc.not_equal(t.column("w"), 0)).select(
                ["v", "w"]
            ),
            batch_format="pyarrow",
        ).take_all()
        return (
            sum(r["w"] for r in rows),
            sum(r["v"] for r in rows),
        )

    prev_witness = None
    converged = False
    for _ in range(rounds):
        edges = (
            edges.groupby("shard")
            .map_groups(large_star, batch_format="pandas")
            .groupby("shard")
            .map_groups(small_star, batch_format="pandas")
            .materialize()
        )
        witness = _witness_of(edges)
        if prev_witness is not None and witness == prev_witness:
            converged = True
            break
        prev_witness = witness

    if not converged:
        import logging

        logging.getLogger(__name__).warning(
            "neardup_clusters: round budget (%d) exhausted before the "
            "star edge set stabilized; components wider than resolved may "
            "be split",
            rounds,
        )

    def _self_rows(ids: np.ndarray) -> pd.DataFrame:
        # pandas blocks: the star-round edges are pandas (map_groups
        # output) and the downstream groupby requires one block type
        return pd.DataFrame(
            {
                "shard": ids % n_shards,
                "u": ids,
                "v": ids,
                "w": np.zeros(len(ids), dtype=np.int64),
            }
        ).astype({"shard": "int64", "u": "int64", "v": "int64", "w": "int64"})

    # degenerate id_a == id_b pair rows name a node but carry no edge;
    # to_edges drops them from the star rounds, so re-inject them at
    # label time as singletons (matching the driver union-find path)
    def selfies(df: pd.DataFrame) -> pd.DataFrame:
        a = df["id_a"].to_numpy(dtype=np.int64)
        b = df["id_b"].to_numpy(dtype=np.int64)
        return _self_rows(a[a == b])

    label_input = edges.union(
        pairs_ds.map_batches(selfies, batch_format="pandas")
    )
    if nodes_ds is not None:

        def to_self(df: pd.DataFrame) -> pd.DataFrame:
            return _self_rows(df["doc_id"].to_numpy(dtype=np.int64))

        label_input = label_input.union(
            nodes_ds.map_batches(to_self, batch_format="pandas")
        )

    def cluster_labels(rows: pa.Table) -> pa.Table:
        # per node u: min(u, min N(u)), the star rounds' component minimum
        edges = rows.filter(pc.equal(rows.column("w"), 0))
        u, v = _int64(edges.column("u")), _int64(edges.column("v"))
        order = np.argsort(u, kind="stable")
        u, v = u[order], v[order]
        starts = np.flatnonzero(np.r_[True, u[1:] != u[:-1]]) if len(u) else np.empty(0, dtype=np.int64)
        nodes = u[starts]
        low = np.minimum.reduceat(v, starts) if len(u) else nodes
        return pa.table({"doc_id": nodes, "cluster_id": np.minimum(nodes, low)})

    # Arrow blocks out (the star rounds are pandas): unions with Arrow
    # datasets then sort and batch without a block-type clash
    return shard_exchange(label_input, "shard", n_shards, cluster_labels)


# ---------------------------------------------------------------------------
# simhash
# ---------------------------------------------------------------------------


def _simhash_from_words(words: list[str]) -> int:
    h = _word_hashes(words).astype(">u8")
    bits = np.unpackbits(h.view(np.uint8).reshape(len(words), 8), axis=1)
    acc = bits.sum(axis=0, dtype=np.int64) * 2 - len(words)
    return int(np.packbits((acc > 0).astype(np.uint8)).view(">u8")[0])


def simhash64(text: str) -> int:
    """64-bit simhash over memoized word hashes: unpack every word's bits
    in one batched op; bit b of the result is set iff more than half the
    words have bit b set (acc = 2*popcount_col - n > 0)."""
    from deduce_ray.ops.textstats import split_words

    words = split_words(text)
    if not words:
        return int(np.packbits(np.zeros(64, dtype=np.uint8)).view(">u8")[0])
    return _simhash_from_words(words)


def sig_band_rows(
    sigs: np.ndarray, n_shards: int
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized 4x16-bit band decomposition of 64-bit signatures — THE
    single source of the recall-critical banding arithmetic (pigeonhole:
    Hamming <= 3 pairs agree exactly on >= 1 band).  Returns band-major
    ``(shard, bucket)`` int64 arrays of length ``4 * len(sigs)``; pair
    them with ``np.tile(ids, 4)`` / ``np.tile(sigs, 4)``."""
    s = np.asarray(sigs, dtype=np.uint64)
    bands = np.arange(4, dtype=np.uint64)
    chunks = (s[None, :] >> (bands[:, None] * np.uint64(16))) & np.uint64(0xFFFF)
    bucket = (bands[:, None] * np.uint64(65536) + chunks).astype(np.int64)
    return (bucket % n_shards).ravel(), bucket.ravel()


def _simhash_rows(ids, texts) -> tuple[np.ndarray, np.ndarray]:
    """(id, simhash) of the documents with words: word-less documents all
    hash to 0 and would form one bogus hamming-0 mega-bucket."""
    from deduce_ray.ops.textstats import split_words

    kept_ids, kept_sigs = [], []
    for i, t in zip(ids, texts):
        words = split_words(t or "")
        if words:
            kept_ids.append(i)
            kept_sigs.append(_simhash_from_words(words))
    return np.asarray(kept_ids, dtype=np.int64), np.asarray(kept_sigs, dtype=np.uint64)


def simhash_band_rows(
    ids, texts, n_shards: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(shard, bucket, id, sig) row arrays for the SimHash band
    decomposition (:func:`sig_band_rows`) of the incremental SimHash
    store (:mod:`deduce_ray.state.simhash_store`); it shares
    :func:`_simhash_rows` and :func:`sig_band_rows` with
    :func:`simhash_pairs`, so the two can never drift."""
    ids_arr, sigs_arr = _simhash_rows(ids, texts)
    shard, bucket = sig_band_rows(sigs_arr, n_shards)
    return shard, bucket, np.tile(ids_arr, 4), np.tile(sigs_arr, 4)


# touched ids up to which simhash_pairs verifies on the driver (its
# payload is one 8-byte word per document)
_SIMHASH_DRIVER_VERIFY_MAX = 100_000


def simhash_pairs(
    ds,
    text_col: str = "text",
    id_col: str = "doc_id",
    max_hamming: int = 3,
    collapse_exact: bool = True,
    expand_cap: int | None = None,
    max_bucket: int | None = None,
):
    """SimHash near-dup pairs ``(id_a < id_b, hamming)`` on
    :func:`_banded_pairs`: the payload is the 64-bit SimHash, its 4x16-bit
    bands (:func:`sig_band_rows`) guarantee recall for Hamming distance
    <= 3 (pigeonhole), and the verify keeps Hamming <= ``max_hamming``.
    ``collapse_exact`` / ``expand_cap`` / ``max_bucket`` mirror
    :func:`minhash_lsh_pairs` (collapsed identical texts expand back at
    hamming 0)."""

    def payload(batch: pa.Table) -> pa.Table:
        ids, sigs = _simhash_rows(batch.column(id_col).to_pylist(), batch.column(text_col).to_pylist())
        return pa.table({"id": ids, "payload": pa.array(sigs, type=pa.uint64())})

    def band(batch: pa.Table):
        # one shard: the core shards the buckets itself
        _, bucket = sig_band_rows(_array(batch.column("payload")).to_numpy(), 1)
        return bucket, np.tile(_int64(batch.column("id")), 4)

    def hamming(sigs, ia, ib):
        x = sigs[ia] ^ sigs[ib]
        return np.unpackbits(x.view(np.uint8).reshape(-1, 8), axis=1).sum(axis=1).astype(np.int64)

    return _banded_pairs(
        ds, id_col, _text_collapse_keyer(text_col) if collapse_exact else None,
        payload, band, lambda col: col.to_numpy(zero_copy_only=False), hamming,
        lambda dist: dist <= max_hamming,
        value_col="hamming", value_dtype="int64", intra_value=0,
        expand_cap=expand_cap, max_bucket=max_bucket,
        driver_verify_max=_SIMHASH_DRIVER_VERIFY_MAX,
        broadcast_candidate_ids_max=5_000_000, name="simhash_pairs",
    )


# ---------------------------------------------------------------------------
# embedding near-dup
# ---------------------------------------------------------------------------


def lsh_cosine_recall(cosine: float, n_planes: int, n_tables: int) -> float:
    """Expected probability that a true pair at the given cosine collides in
    at least one of ``n_tables`` sign-hash tables of ``n_planes`` planes:
    1 - (1 - p^k)^T with p = 1 - acos(c)/pi."""
    import math

    p = 1.0 - math.acos(max(-1.0, min(1.0, cosine))) / math.pi
    return 1.0 - (1.0 - p**n_planes) ** n_tables


def plant_embedding_neardups(
    ds_embeddings,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    every: int = 10,
    id_offset: int = 10_000_000,
    scale: float = 1.5,
):
    """Deterministically augment an embedding table with planted
    near-duplicates: every ``every``-th vector gains a positively scaled
    copy (cosine exactly 1.0) under ``id + id_offset``.  Positive scaling
    preserves every hyperplane sign bit, so LSH recall on the planted
    pairs is exactly 1 regardless of table count — which is what makes the
    op value-checkable against a brute-force SQL oracle."""

    def augment(batch: pa.Table) -> pa.Table:
        from deduce_ray.ops.similarity import drop_invalid_vector_rows

        # NULL id/vector rows can't host a planted copy and would crash
        # the int casts below; drop them here (the downstream neardup op
        # applies the same SQL-null contract to un-augmented rows)
        batch = drop_invalid_vector_rows(batch, id_col, vec_col)
        ids = batch.column(id_col).to_pylist()
        vecs = batch.column(vec_col).to_pylist()
        add_ids, add_vecs = [], []
        for i, v in zip(ids, vecs):
            if i % every == 0:
                add_ids.append(i + id_offset)
                add_vecs.append([float(x) * scale for x in v])
        planted = pa.table(
            {
                id_col: pa.array(add_ids, type=pa.int64()),
                vec_col: pa.array(
                    add_vecs, type=pa.list_(pa.float64())
                ),
            }
        )
        base = pa.table(
            {
                id_col: pa.array([int(x) for x in ids], type=pa.int64()),
                vec_col: pa.array(
                    [[float(x) for x in v] for v in vecs],
                    type=pa.list_(pa.float64()),
                ),
            }
        )
        return pa.concat_tables([base, planted])

    return ds_embeddings.map_batches(augment, batch_format="pyarrow")


def plant_text_dups(
    ds,
    id_col: str = "doc_id",
    text_col: str = "text",
    every: int = 10,
    id_offset: int = 100_000_000,
):
    """Deterministically augment a document table with planted exact
    duplicates: every ``every``-th doc gains a byte-identical copy under
    ``id + id_offset``.  Identical texts share every minhash/simhash
    signature (jaccard exactly 1.0, hamming 0), so LSH recall on the
    planted pairs is exactly 1 in ANY banding — and, with
    ``collapse_exact`` on, the planted pair is produced by the exact-dup
    collapse/expand path, making that machinery value-checkable against
    a trivial SQL oracle (the text-table analogue of
    :func:`plant_embedding_neardups`)."""

    def augment(batch: pa.Table) -> pa.Table:
        ids_np = (
            batch.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        )
        copies = batch.filter(pa.array(ids_np % every == 0))
        planted = pa.table(
            {
                id_col: pc.add(
                    pc.cast(copies.column(id_col), pa.int64()), id_offset
                ),
                text_col: copies.column(text_col),
            }
        )
        base = pa.table(
            {
                id_col: pc.cast(batch.column(id_col), pa.int64()),
                text_col: batch.column(text_col),
            }
        )
        return pa.concat_tables([base, planted])

    return ds.map_batches(augment, batch_format="pyarrow")


def embedding_neardup_pairs(
    ds_embeddings,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    threshold: float = 0.97,
    n_planes: int = 12,
    n_tables: int = 8,
    broadcast_candidate_ids_max: int = 5_000_000,
    driver_verify_max: int = 20_000,
    collapse_exact: bool = True,
    expand_cap: int | None = None,
    max_bucket: int | None = None,
):
    """Cosine near-duplicate pairs ``(id_a < id_b, cosine)`` on
    :func:`_banded_pairs`: the payload is the float64 vector, each of
    ``n_tables`` random-hyperplane tables buckets by its ``n_planes``
    sign bits, and the verify keeps cosine >= ``threshold`` (a zero-norm
    side scores 0).

    One k-plane table finds a pair at cosine c with probability only p^k
    (p = 1 - acos(c)/pi), ~0.38 at c=0.97 for k=12; ``n_tables`` tables
    raise it to 1-(1-p^k)^T (:func:`lsh_cosine_recall`, ~0.978 at c=0.97
    with the defaults, logged).  Scaled copies (cosine exactly 1.0) share
    every sign bit, so their recall is 1.

    ``collapse_exact`` / ``expand_cap`` / ``max_bucket`` mirror
    :func:`minhash_lsh_pairs`: byte-identical vectors collapse before
    banding and expand back at cosine 1.0; zero-norm duplicates are
    dropped, as the verify never pairs them.  Rows with a NULL id or NULL
    vector are dropped at entry per the SQL-null contract
    (drop_invalid_vector_rows, logged).
    """
    from deduce_ray.ops.similarity import drop_invalid_vector_rows

    def payload(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "id": pc.cast(batch.column(id_col), pa.int64()),
                "payload": pc.cast(batch.column(vec_col), pa.list_(pa.float64())),
            }
        )

    def band(batch: pa.Table):
        vecs = _vec_matrix(batch.column("payload"))
        planes = _lsh_planes(vecs.shape[1], n_planes, n_tables)
        weights = 1 << np.arange(n_planes)
        codes = [((vecs @ planes[t]) > 0) @ weights + t * (1 << n_planes) for t in range(n_tables)]
        return np.concatenate(codes).astype(np.int64), np.tile(_int64(batch.column("id")), n_tables)

    def decode(col):
        mat = _vec_matrix(col)
        return mat, np.linalg.norm(mat, axis=1)

    def cosine(decoded, ia, ib):
        mat, norms = decoded
        denom = norms[ia] * norms[ib]
        denom[denom == 0] = 1.0
        return (mat[ia] * mat[ib]).sum(axis=1) / denom

    recall = lsh_cosine_recall(threshold, n_planes, n_tables)
    return _banded_pairs(
        # SQL-null contract at the op boundary, ahead of the collapse keyer
        ds_embeddings.map_batches(
            lambda b: drop_invalid_vector_rows(b, id_col, vec_col), batch_format="pyarrow"
        ),
        id_col, _vector_collapse_keyer(vec_col) if collapse_exact else None,
        payload, band, decode, cosine, lambda cos: cos >= threshold,
        value_col="cosine", value_dtype="float64", intra_value=1.0,
        expand_cap=expand_cap, max_bucket=max_bucket, driver_verify_max=driver_verify_max,
        broadcast_candidate_ids_max=broadcast_candidate_ids_max,
        name=f"embedding_neardup_pairs (LSH recall {recall:.3f} expected at cosine "
        f"{threshold:.3f}, n_planes={n_planes}, n_tables={n_tables})",
    )


def dedup_survivors(
    ds,
    text_col: str = "text",
    id_col: str = "doc_id",
    loser_broadcast_max: int = 50_000_000,
):
    """Exact-dedup as a corpus FILTER: return the full surviving rows (the
    minimum-id document of every distinct text), not just group stats.

    Scale shape — LOSER anti-join, not a full-row shuffle: only
    (hash_hi, hash_lo, id) int rows ride the dedup exchange; each shard
    emits the ids that LOSE (every id except the minimum of a duplicated
    hash).  The loser set is the corpus's duplicate rows — at realistic
    dup rates a small fraction of the input — so it ships in sorted
    chunks of at most ``loser_broadcast_max`` ids via ray.put (zero-copy
    numpy reads on the workers; the driver holds one chunk at a time)
    and the corpus streams through a vectorized searchsorted anti-join
    with NO full-row shuffle at all (measured, 2M-row 10%-dup stress:
    60.5 s full-row shuffle -> 4.4 s; 99.75%-dup adversarial: 18.8 s,
    ahead of the 23.6 s shuffle).  The loser pipeline itself runs
    entirely in Arrow — pandas would widen int64 ids to float64 in any
    group containing a null, rounding ids above 2^53.

    Preconditions: ``id_col`` values are UNIQUE and non-null (the
    module-wide doc-id contract) — with duplicate ids, "the minimum-id
    row" is ill-defined and an id that wins one text group while losing
    another would be dropped entirely.  The input dataset is consumed
    twice (hash pass + filter pass); hand this a re-readable source (a
    read_parquet pipeline), not an already-consumed iterator.
    """
    from deduce_ray.ops.agg import merge_shards, shard_exchange

    n_shards = merge_shards()

    def hash_ids_only(batch: pa.Table) -> pa.Table:
        # the dedup key rides the shuffle as TWO int64s (the full 128-bit
        # md5), not the 32-char hex string — half the exchange bytes and
        # int sorts instead of string sorts in the loser merge
        hi, lo = _md5_words(batch.column(text_col).to_pylist())
        return pa.table(
            {
                id_col: batch.column(id_col),
                "__h_hi": pa.array(hi),
                "__h_lo": pa.array(lo),
                # np.mod follows the divisor's sign: non-negative here
                "__shard": pa.array(np.mod(hi, n_shards)),
            }
        )

    def emit_losers(tbl: pa.Table) -> pa.Table:
        # Arrow-native all-but-first per (h_hi, h_lo): sort, then a row is
        # a loser iff it shares both hash words with its predecessor
        n = tbl.num_rows
        if n <= 1:
            return tbl.select([id_col]).slice(0, 0)
        tbl = tbl.sort_by(
            [
                ("__h_hi", "ascending"),
                ("__h_lo", "ascending"),
                (id_col, "ascending"),
            ]
        )
        hi = tbl.column("__h_hi").combine_chunks()
        lo = tbl.column("__h_lo").combine_chunks()
        same = pc.and_(
            pc.equal(hi.slice(1), hi.slice(0, n - 1)),
            pc.equal(lo.slice(1), lo.slice(0, n - 1)),
        )
        if isinstance(same, pa.ChunkedArray):
            same = same.combine_chunks()
        mask = pa.concat_arrays([pa.array([False]), same])
        return tbl.select([id_col]).filter(mask)

    # one hashing call per input block, so every CPU hashes a share
    losers = shard_exchange(
        ds.map_batches(hash_ids_only, batch_format="pyarrow", batch_size=None),
        "__shard", n_shards, emit_losers,
    ).materialize()

    # pull loser ids in bounded chunks (driver peak = one chunk), sort
    # each, ray.put each — the worker-side filter checks every chunk
    refs = _chunked_id_refs(losers, id_col, loser_broadcast_max)
    if not refs:
        return ds

    return _drop_ids(ds, refs, id_col)


def _chunked_id_refs(ds, col: str, chunk_rows: int, on_batch=None) -> list:
    """Pull one int64 id column into bounded SORTED numpy chunks via
    ray.put (driver peak = one chunk plus the buffer being built) — the
    shared broadcast shape behind every loser/blocklist anti-join.
    ``on_batch`` optionally observes each non-empty pyarrow batch so a
    caller can derive flags in the same pass instead of re-reading."""
    import ray

    chunk_rows = max(int(chunk_rows), 1_000_000)
    refs, buf, buffered = [], [], 0
    for b in ds.iter_batches(batch_format="pyarrow"):
        if not b.num_rows:
            continue
        if on_batch is not None:
            on_batch(b)
        buf.append(b.column(col).to_numpy(zero_copy_only=False))
        buffered += b.num_rows
        if buffered >= chunk_rows:
            refs.append(ray.put(np.sort(np.concatenate(buf))))
            buf, buffered = [], 0
    if buf:
        refs.append(ray.put(np.sort(np.concatenate(buf))))
    return refs


def _drop_ids(ds, sorted_id_refs, id_col: str):
    """Streaming anti-join: drop rows whose id is in any of the ray.put
    SORTED numpy id arrays.  Membership is searchsorted per chunk —
    ``pc.is_in`` would rebuild its value-set hash index once PER BATCH,
    an O(ids) cost each call that dominated at multi-million-id sets;
    the sorted arrays are zero-copy plasma reads on the workers."""
    import ray

    def drop_blocked(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        keep = np.ones(len(ids), dtype=bool)
        for ref in sorted_id_refs:
            blocked = ray.get(ref)
            if not len(blocked):
                continue
            pos = np.minimum(np.searchsorted(blocked, ids), len(blocked) - 1)
            keep &= blocked[pos] != ids
        return batch.filter(pa.array(keep))

    return ds.map_batches(drop_blocked, batch_format="pyarrow")


def anti_join_blocklist(ds, blocked_ids, id_col: str = "doc_id"):
    """Broadcast ANTI join: drop rows whose id is in the (small) blocklist
    — suppression/opt-out filtering.  The blocklist ships once via ray.put
    as a sorted numpy array; each batch filters via the shared
    searchsorted anti-join (:func:`_drop_ids`), which avoids pc.is_in's
    per-batch value-set rebuild for large lists."""
    import ray

    blocked_ref = ray.put(
        np.asarray(sorted(set(blocked_ids)), dtype=np.int64)
    )
    return _drop_ids(ds, [blocked_ref], id_col)
