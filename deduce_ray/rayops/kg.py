"""Triple-graph pipeline: dedup/canonicalize, skew-aware shuffle, and
checkpointed, resumable graph materialization partitioned by (repo, lang).

Scale notes (north_rule):
  - Local combiner first: per-batch dedup/aggregation inside map_batches
    shrinks the all-to-all shuffle before any groupby, and the combiner
    stages carry large batch_size values that COALESCE small upstream
    blocks ahead of each sort-based exchange.
  - Merge shuffles run on UNIFORM hash keys (doc-id bucket for the graph
    key, (pred, obj_norm) hash for entity counts) so the 30%-hot monorepo
    cannot straggle them; (repo, lang) is the OUTPUT partitioning key,
    applied at the sink with hot-key salting.
  - The graph path's exchanges (dedup, the hot-key count, the sink's
    unit writes) and the analytics tail's (co-occurrence, the edge sum
    behind the incremental store, the components name join) use
    :func:`deduce_ray.ops.agg.shard_exchange`: integer shards take a
    sort with analytic boundaries, so there is no sampling pass, the
    partition count is ``min(n_shards, CPUs)`` rather than the
    (coalesced, often single) upstream block count, and each partition
    merges in one Arrow call.  The graph merge is Arrow ``group_by``
    throughout; no pandas frame is built between annotate and the
    parquet files.
  - Materialization writes one parquet file + one manifest per partition;
    a manifest is written only after its data file, so a re-run can skip
    complete partitions (resume) and re-do partial ones idempotently.
"""

from __future__ import annotations

import hashlib
import zlib
from pathlib import Path

import numpy as np
import pyarrow as pa

from deduce_ray.ops.agg import per_distinct
from deduce_ray.sinks import commit_units, completed_units, write_run_manifest

_GRAPH_KEY = ["repo", "lang", "doc_id", "pred", "obj", "entity_id"]


def _doc_bucket(d, n: int) -> int:
    """Uniform bucket from a doc id: full-string hex fast path (the
    md5-hex ids this pipeline emits; ``% n`` takes the LOW hex chars, so
    even hex ids with a constant prefix spread), crc32 fallback for
    arbitrary string ids, 0 for null — callers must not crash on non-hex
    or null ids (nulls are preserved through dedup by design).  A
    PREFIX-only hex parse would collapse id schemes like
    '2024-08-17-<seq>' (constant hex-parseable first chars) into one
    bucket, defeating the uniform merge shuffle and hot-key salting."""
    if isinstance(d, str) and d:
        try:
            return int(d, 16) % n
        except ValueError:
            return zlib.crc32(d.encode()) % n
    return 0


def _dedup_batch(batch: pa.Table) -> pa.Table:
    """Local combiner: collapse duplicate triples within a batch, counting
    mentions and keeping the first span as provenance."""
    if batch.num_rows == 0:
        return pa.table(
            {
                **{k: pa.array([], type=pa.string()) for k in _GRAPH_KEY},
                "n_mentions": pa.array([], type=pa.int64()),
                "first_start_char": pa.array([], type=pa.int32()),
            }
        )
    grouped = batch.group_by(_GRAPH_KEY).aggregate(
        [([], "count_all"), ("start_char", "min")]
    )
    # count_all (row count), not ("start_char", "count"): a count aggregate
    # skips nulls, undercounting mentions with null spans.  Columns selected
    # BY NAME — positional rename assumes keys-first aggregate output, which
    # is a pyarrow implementation detail.  Spans are int32 whatever the
    # input's integer width, and an all-null key column arrives null-typed:
    # every graph unit of a run then writes one schema.
    return pa.table(
        {
            **{k: _string_if_null(grouped.column(k)) for k in _GRAPH_KEY},
            "n_mentions": grouped.column("count_all"),
            "first_start_char": grouped.column("start_char_min").cast(pa.int32()),
        }
    )


def _string_if_null(col):
    return col.cast(pa.string()) if pa.types.is_null(col.type) else col


def _merge_graph_rows(rows: pa.Table) -> pa.Table:
    """Merge combiner outputs: sum the mentions and keep the earliest span
    per graph key.  Arrow's group_by keeps null keys as their own groups,
    as the combiner does."""
    merged = rows.group_by(_GRAPH_KEY).aggregate(
        [("n_mentions", "sum"), ("first_start_char", "min")]
    )
    return pa.table(
        {
            **{k: merged.column(k) for k in _GRAPH_KEY},
            "n_mentions": merged.column("n_mentions_sum"),
            "first_start_char": merged.column("first_start_char_min"),
        }
    )


def dedup_triples(triples_ds, by_doc_first: bool = False, n_buckets: int | None = None):
    """Flat mention rows -> deduplicated graph rows.

    Per-batch combiner (no shuffle) then ONE merge exchange keyed on a
    UNIFORM doc_id-hash bucket: the graph key contains doc_id, so every
    copy of a graph row shares its bucket and the merge is exact — and
    because sha256 prefixes spread evenly, a 30%-hot monorepo cannot
    straggle the exchange the way a (repo, lang) merge key would.
    Alignment of the OUTPUT by (repo, lang) is the sink's concern
    (:func:`materialize_graph`, which also salts hot partitions).

    ``by_doc_first`` is retained for API compatibility; the uniform-bucket
    merge is now always the single dedup exchange, so both modes share it.
    """
    from deduce_ray.ops.agg import merge_shards, shard_exchange

    del by_doc_first
    if n_buckets is None:
        # cpus-aware bucket count (see ops.agg.merge_shards); the hash is
        # uniform, so fewer buckets cannot create skew
        n_buckets = merge_shards()
    combined = triples_ds.map_batches(_dedup_batch, batch_format="pyarrow")

    def merge_and_bucket(batch: pa.Table) -> pa.Table:
        out = _merge_graph_rows(batch)
        # _doc_bucket, not a bare int(d[:4], 16): ids may be null, and
        # are not guaranteed hex for external callers
        return out.append_column("doc_bucket", _doc_buckets(out.column("doc_id"), n_buckets))

    # batch_size coalesces the many small combiner outputs into few blocks
    # before the exchange (thousands of blocks x n_buckets pieces of
    # shuffle metadata is pathological) and gives the bucket-combiner a
    # second chance to collapse replicas that lived in different blocks.
    # num_cpus=0.9 deliberately differs from the default so Ray does NOT
    # fuse this coalescing pass with the upstream annotate chain — fused,
    # the large batch_size would gate upstream task granularity at 32768
    # input rows and serialize the expensive annotate stage (measured:
    # kg_graph 4.5 s -> 9.5 s with the chain collapsed to one task).
    # 32768 balances the two regimes: the 2M-doc stress still collapses
    # 3200 tiny combiner blocks to ~140, while a small corpus gets several
    # coalescer tasks instead of one barrier-like task
    coalesced = combined.map_batches(
        merge_and_bucket, batch_format="pyarrow", batch_size=32768, num_cpus=0.9
    )
    return shard_exchange(coalesced, "doc_bucket", n_buckets, _merge_graph_rows)


def canonical_entities(triples_ds):
    """Cross-document canonical entity table: groupby (pred, obj) with
    mention/document counts — the global side of entity linking."""
    import pyarrow.compute as pc

    def combine(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table(
                {
                    "pred": pa.array([], type=pa.string()),
                    "obj_norm": pa.array([], type=pa.string()),
                    "n_mentions": pa.array([], type=pa.int64()),
                }
            )
        # cast first: an all-null block arrives with a null-typed obj
        # column, for which utf8_lower has no kernel
        batch = batch.append_column(
            "obj_norm",
            pc.utf8_lower(pc.cast(batch.column("obj"), pa.string())),
        )
        grouped = batch.group_by(["pred", "obj_norm"]).aggregate(
            [([], "count_all")]
        )
        return pa.table(
            {
                "pred": grouped.column("pred"),
                "obj_norm": grouped.column("obj_norm"),
                "n_mentions": grouped.column("count_all"),
            }
        )

    combined = triples_ds.map_batches(combine, batch_format="pyarrow")

    # merge shuffle keyed on hash(pred, obj_norm), not bare pred: the
    # dedup key is (pred, obj_norm), so sharding on its hash is exact and
    # the hottest predicate cannot serialize behind one group task
    from deduce_ray.ops.agg import merge_shards

    n_shards = merge_shards()

    def add_shard(df):
        import pandas as pd

        df = df.copy()
        df["__shard"] = (
            pd.util.hash_pandas_object(df[["pred", "obj_norm"]], index=False)
            % n_shards
        ).astype("int64")
        return df

    def merge(df):
        return df.drop(columns=["__shard"]).groupby(
            ["pred", "obj_norm"], as_index=False, dropna=False
        ).agg(n_mentions=("n_mentions", "sum"))

    return (
        combined.map_batches(
            add_shard, batch_format="pandas", batch_size=32768,
            num_cpus=0.9,  # break fusion with the annotate chain
        )
        .groupby("__shard")
        .map_groups(merge, batch_format="pandas")
    )


_EDGE_KEY = ["pred_a", "obj_a", "pred_b", "obj_b"]


def _one_array(col) -> pa.Array:
    return col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col


def _doc_buckets(doc_ids, n: int) -> pa.Array:
    """:func:`_doc_bucket` of each id."""
    return pa.array(per_distinct(doc_ids, lambda d: _doc_bucket(d, n)))


def _edge_shards(edges: pa.Table, n: int) -> pa.Array:
    """Shard of each edge key in ``[0, n)``: the crc32 codes of its four
    fields, mixed."""
    h = np.zeros(edges.num_rows, dtype=np.uint64)
    for col in _EDGE_KEY:
        # null maps to 2**32, which no crc32 reaches
        crc = per_distinct(
            edges.column(col).cast(pa.string()), lambda v: zlib.crc32(v.encode()), 1 << 32
        )
        h = h * np.uint64(1_000_003) ^ crc.astype(np.uint64)
    return pa.array((h % np.uint64(n)).astype(np.int64))


def _cooccurrence_pairs(
    mentions: pa.Table, max_mentions_per_doc: int | None = None
) -> pa.Table:
    """(doc_id, pred, obj) mention rows holding whole documents -> their
    partial edge counts (pred_a, obj_a, pred_b, obj_b, n_docs).

    A self-join on ``doc_id`` (null ids join nothing) of the distinct
    mentions, kept where the pair is ordered by (pred, obj); a null
    comparison is false, as in the oracle's SQL."""
    import logging

    import pyarrow.compute as pc

    mentions = mentions.group_by(["doc_id", "pred", "obj"]).aggregate([])
    if max_mentions_per_doc is not None and mentions.num_rows:
        sizes = mentions.group_by("doc_id").aggregate([([], "count_all")])
        over = sizes.filter(pc.greater(sizes.column("count_all"), max_mentions_per_doc))
        if over.num_rows:
            logging.getLogger(__name__).warning(
                "cooccurrence_edges: skipped %d document(s) exceeding "
                "max_mentions_per_doc=%d (largest had %d mentions)",
                over.num_rows,
                max_mentions_per_doc,
                pc.max(over.column("count_all")).as_py(),
            )
            skipped = _one_array(over.column("doc_id"))
            mentions = mentions.filter(
                pc.invert(pc.is_in(mentions.column("doc_id"), value_set=skipped))
            )
    pairs = mentions.join(mentions, keys="doc_id", left_suffix="_a", right_suffix="_b")
    ordered = pc.or_kleene(
        pc.less(pairs.column("pred_a"), pairs.column("pred_b")),
        pc.and_kleene(
            pc.equal(pairs.column("pred_a"), pairs.column("pred_b")),
            pc.less(pairs.column("obj_a"), pairs.column("obj_b")),
        ),
    )
    edges = pairs.filter(ordered).group_by(_EDGE_KEY).aggregate([([], "count_all")])
    return pa.table(
        {**{k: edges.column(k) for k in _EDGE_KEY}, "n_docs": edges.column("count_all")}
    )


def sum_edges(edges_ds, n_shards: int | None = None):
    """Edge rows (pred_a, obj_a, pred_b, obj_b, n_docs) -> one row per
    edge key with ``n_docs`` summed: one sampling-free exchange on a
    crc32 edge shard, merged with an Arrow ``group_by``.  Null key fields
    form their own groups."""
    from deduce_ray.ops.agg import merge_shards, shard_exchange

    if n_shards is None:
        n_shards = merge_shards()

    def tag_edges(batch: pa.Table) -> pa.Table:
        return batch.append_column("__shard", _edge_shards(batch, n_shards))

    def sum_edge_counts(rows: pa.Table) -> pa.Table:
        summed = rows.group_by(_EDGE_KEY).aggregate([("n_docs", "sum")])
        return pa.table(
            {**{k: summed.column(k) for k in _EDGE_KEY}, "n_docs": summed.column("n_docs_sum")}
        )

    tagged = edges_ds.map_batches(tag_edges, batch_size=None, batch_format="pyarrow")
    return shard_exchange(tagged, "__shard", n_shards, sum_edge_counts)


def cooccurrence_edges(
    triples_ds,
    n_buckets: int | None = None,
    max_mentions_per_doc: int | None = None,
):
    """Entity co-occurrence edges — the standard KG edge-construction
    step: two distinct (pred, obj) mentions appearing in the SAME document
    form an undirected edge, weighted by the number of distinct documents
    in which they co-occur.

    Scale shape: per-batch distinct combine -> ONE doc-hash exchange
    (every mention of a document shares its bucket, so within-partition
    pair generation is exact and the pair count per doc is bounded by its
    own mention count squared — no cross-document blowup) -> per-partition
    partial edge counts (Arrow self-join + group_by) -> one edge-hash
    exchange summing the partials (:func:`sum_edges`).  Both exchanges
    are :func:`deduce_ray.ops.agg.shard_exchange`.  Columns: pred_a,
    obj_a, pred_b, obj_b (pair ordered by (pred, obj)), n_docs.

    ``max_mentions_per_doc``: opt-in scale guard (output-changing caps
    are OFF by default, the oracle-checked configuration stays exact) —
    a pathological document with m distinct mentions contributes
    m*(m-1)/2 pairs, so a 100k-mention doc would emit ~5e9 rows from one
    merge task.  When set, documents EXCEEDING the cap are skipped
    whole (not truncated: dropping an arbitrary mention subset would
    bias edge weights unpredictably) and the skip count is logged."""
    import pyarrow.compute as pc

    from deduce_ray.ops.agg import merge_shards, shard_exchange

    if n_buckets is None:
        n_buckets = merge_shards()

    def project(batch: pa.Table) -> pa.Table:
        t = batch.select(["doc_id", "pred", "obj"])
        # drop null-doc rows: SQL NULL joins nothing (the oracle's
        # self-join semantics); kept, every null-doc mention corpus-wide
        # would land in bucket 0 (an uncappable single-partition load)
        t = t.filter(pc.is_valid(t.column("doc_id")))
        t = pa.table({k: _string_if_null(t.column(k)) for k in t.column_names})
        # per-batch distinct: repeated mentions of the same entity in one
        # doc must count the document once
        grouped = t.group_by(["doc_id", "pred", "obj"]).aggregate([])
        return grouped.append_column(
            "doc_bucket", _doc_buckets(grouped.column("doc_id"), n_buckets)
        )

    def doc_pairs(mentions: pa.Table) -> pa.Table:
        return _cooccurrence_pairs(mentions, max_mentions_per_doc)

    mentions = triples_ds.map_batches(
        project, batch_format="pyarrow", batch_size=32768, num_cpus=0.9
    )
    return sum_edges(shard_exchange(mentions, "doc_bucket", n_buckets, doc_pairs), n_buckets)


def _form_node_id(pred: str | None, obj_norm: str | None) -> int:
    """Deterministic positive int64 id for a (pred, surface form) node.
    Null fields are tagged distinctly from any string (a bare f-string
    would render None as the literal 'None', colliding with that form),
    and each string part is LENGTH-PREFIXED so the encoding is injective
    even when field content contains the tag/joiner bytes (a plain
    delimiter join would conflate pred='a\\x00\\x02b', obj='c' with
    pred='a', obj='b\\x00\\x02c')."""
    parts = []
    for s in (pred, obj_norm):
        if s is None:
            parts.append(b"\x01")
        else:
            raw = s.encode()
            parts.append(len(raw).to_bytes(8, "big") + b"\x02" + raw)
    digest = hashlib.md5(b"".join(parts)).digest()
    return int.from_bytes(digest[:8], "big") & 0x7FFF_FFFF_FFFF_FFFF


def _node_ids(pred: pa.Array, obj: pa.Array) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_form_node_id` of each (pred, obj) row, hashed once per
    distinct pair, and the row index of each distinct pair's first
    occurrence."""
    import pyarrow.compute as pc

    words, codes = [], []
    for col in (pred, obj):
        enc = pc.dictionary_encode(col)
        words.append(enc.dictionary.to_pylist() + [None])  # null is the last word
        codes.append(pc.fill_null(enc.indices, len(words[-1]) - 1).to_numpy().astype(np.int64))
    n_obj = len(words[1])
    distinct, first, inverse = np.unique(
        codes[0] * n_obj + codes[1], return_index=True, return_inverse=True
    )
    ids = np.fromiter(
        (_form_node_id(words[0][c // n_obj], words[1][c % n_obj]) for c in distinct.tolist()),
        dtype=np.int64,
        count=len(distinct),
    )
    return ids[inverse], first


# above this many forms in one (pred, length) block, block_edges switches
# from the O(m^2) scan to deletion-neighborhood candidate blocking
_SUBBLOCK_THRESHOLD = 512


def _dl1_block_pairs(
    homes: list[str], guests: list[str]
) -> tuple[list[tuple[str, str]], int]:
    """DL<=1 pairs via deletion-neighborhood blocking (FastSS-style), for
    one (pred, length) block: ``homes`` are distinct same-length forms
    (length L), ``guests`` distinct forms one char SHORTER (length L-1 —
    ``emit_blocks`` sends a form of length n to block n as home and block
    n+1 as guest).

    Completeness: equal-length strings at DL 1 (substitution, or adjacent
    transposition) share a single-deletion variant; a home/guest pair at
    DL 1 (one deletion) means the guest IS a deletion variant of the
    home.  So one pass over home deletion variants covers both shapes:
    each variant buckets homes for the home/home candidates AND probes
    the guest set directly.  Every candidate is then verified with the
    exact predicate.  Returns (edges, n_comparisons) — the comparison
    count is the bound the sub-blocker exists to enforce (vs m*(m-1)/2
    for the full scan).
    """
    from collections import defaultdict

    from deduce_ray.matching import within_edit_distance_one

    guest_index = {g: gi for gi, g in enumerate(guests)}
    gcand: set[tuple[int, int]] = set()
    del_buckets: dict[str, list[int]] = defaultdict(list)
    for i, h in enumerate(homes):
        seen: set[str] = set()
        for k in range(len(h)):
            d = h[:k] + h[k + 1 :]
            if d not in seen:
                seen.add(d)
                del_buckets[d].append(i)
                gi = guest_index.get(d)
                if gi is not None:
                    gcand.add((i, gi))

    cand: set[tuple[int, int]] = set()
    for idxs in del_buckets.values():
        for a in range(len(idxs)):
            for b in range(a + 1, len(idxs)):
                cand.add((idxs[a], idxs[b]))

    edges: list[tuple[str, str]] = []
    n_comparisons = 0
    for i, j in cand:
        n_comparisons += 1
        if within_edit_distance_one(homes[i], homes[j]):
            edges.append((homes[i], homes[j]))
    for hi, gi in gcand:
        n_comparisons += 1
        if within_edit_distance_one(homes[hi], guests[gi]):
            edges.append((homes[hi], guests[gi]))
    return edges, n_comparisons


def canonicalize_entities(triples_ds, cluster_rounds: int = 8):
    """Cross-document entity canonicalization: per predicate, cluster
    mention surface forms whose lowercase texts are within
    Damerau-Levenshtein distance 1 (the same fuzzy rule the reference's
    per-document linker uses, applied graph-wide), and pick the most
    frequent form as the canonical label.

    Scale shape (a DL<=1 pair differs by at most one in length, so length
    is an EXACT blocking key):

    1. count forms — :func:`canonical_entities` (combiner + one shuffle);
    2. shuffle on ``(pred, length-block)``, NOT bare ``pred``: each form is
       sent to its own length block and, as a guest, to the next one, so a
       block task compares only same-length pairs plus (len, len+1) pairs
       — parallelism scales with predicates x distinct lengths instead of
       capping at the predicate count, and no task ever holds a whole
       predicate's vocabulary;
    3. DL<=1 edges feed :func:`deduce_ray.ops.dedup.neardup_clusters`
       (driver union-find for small edge sets, pointer-jumping label
       propagation at scale);
    4. one sharded groupby on the cluster id picks the canonical form
       (max mentions, ties to the lexicographically smallest) and labels
       every member.

    Within a block the pair check is O(m^2) over that length's vocabulary
    up to ``_SUBBLOCK_THRESHOLD`` forms; above it, deletion-neighborhood
    blocking (:func:`_dl1_block_pairs`) bounds per-task comparisons so a
    multi-million-form (pred, length) vocabulary stays tractable.
    Returns (pred, obj_norm, canonical, n_mentions).
    """
    import pandas as pd

    from deduce_ray.ops.dedup import neardup_clusters

    counted = canonical_entities(triples_ds).materialize()

    def emit_blocks(batch: pa.Table) -> pa.Table:
        preds = batch.column("pred").to_pylist()
        forms = batch.column("obj_norm").to_pylist()
        counts = batch.column("n_mentions").to_pylist()
        out = {"pred": [], "block": [], "is_home": [], "obj_norm": [], "n_mentions": []}
        for p, f, n in zip(preds, forms, counts):
            if f is None:
                # null forms never edge to anything (the DL predicate is
                # undefined on null); they keep their own node id through
                # tag_forms and come out as singleton clusters
                continue
            length = len(f)
            for block, home in ((length, True), (length + 1, False)):
                out["pred"].append(p)
                out["block"].append(block)
                out["is_home"].append(home)
                out["obj_norm"].append(f)
                out["n_mentions"].append(n)
        return pa.table(
            {
                "pred": pa.array(out["pred"]),
                "block": pa.array(out["block"], type=pa.int32()),
                "is_home": pa.array(out["is_home"], type=pa.bool_()),
                "obj_norm": pa.array(out["obj_norm"]),
                "n_mentions": pa.array(out["n_mentions"], type=pa.int64()),
            }
        )

    def block_edges(df: pd.DataFrame) -> pd.DataFrame:
        """Emit DL<=1 edges: home x home (same length) and home x guest
        (adjacent length).  Each unordered pair lands in exactly one block."""
        from deduce_ray.matching import within_edit_distance_one

        pred = df["pred"].iloc[0]
        homes = df[df["is_home"]]["obj_norm"].drop_duplicates().tolist()
        guests = df[~df["is_home"]]["obj_norm"].drop_duplicates().tolist()
        if len(homes) + len(guests) > _SUBBLOCK_THRESHOLD:
            # mega-block: deletion-neighborhood candidate blocking bounds
            # the comparison count (the O(m^2) scan below would not)
            edges, _ = _dl1_block_pairs(homes, guests)
        else:
            edges = []
            for i in range(len(homes)):
                for j in range(i + 1, len(homes)):
                    if within_edit_distance_one(homes[i], homes[j]):
                        edges.append((homes[i], homes[j]))
                for g in guests:
                    if within_edit_distance_one(homes[i], g):
                        edges.append((homes[i], g))
        return pd.DataFrame(
            {
                "id_a": [_form_node_id(pred, a) for a, _ in edges],
                "id_b": [_form_node_id(pred, b) for _, b in edges],
            },
            dtype="int64",
        )

    edges = (
        counted.map_batches(emit_blocks, batch_format="pyarrow")
        .groupby(["pred", "block"])
        .map_groups(block_edges, batch_format="pandas")
    )
    labels = neardup_clusters(edges, rounds=cluster_rounds)

    # attach cluster ids to forms (forms without an edge keep their own
    # node id), then pick canonicals inside a sharded cluster groupby
    # (cpus-aware pow2 count — map_groups dispatches one pandas call per
    # shard, a fixed cost that dominated at the old fixed 1024)
    from deduce_ray.ops.agg import merge_shards_pow2

    n_shards = merge_shards_pow2()

    def tag_forms(batch: pa.Table) -> pa.Table:
        preds = batch.column("pred").to_pylist()
        forms = batch.column("obj_norm").to_pylist()
        node = [_form_node_id(p, f) for p, f in zip(preds, forms)]
        return pa.table(
            {
                "node": pa.array(node, type=pa.int64()),
                "pred": batch.column("pred"),
                "obj_norm": batch.column("obj_norm"),
                "n_mentions": batch.column("n_mentions"),
                # sentinel -1, NOT null: Ray's arrow->pandas conversion
                # widens int64-with-nulls to float64, which would round the
                # 63-bit cluster/node ids (53-bit mantissa)
                "cluster": pa.array([-1] * batch.num_rows, type=pa.int64()),
            }
        )

    def tag_labels(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        return pa.table(
            {
                "node": batch.column("doc_id"),
                "pred": pa.nulls(n, type=pa.string()),
                "obj_norm": pa.nulls(n, type=pa.string()),
                "n_mentions": pa.array([-1] * n, type=pa.int64()),
                "cluster": batch.column("cluster_id"),
            }
        )

    def add_node_shard(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        shard = pc.cast(
            pc.bit_wise_and(batch.column("node"), n_shards - 1), pa.int64()
        )
        return batch.append_column("node_shard", shard)

    tagged = (
        counted.map_batches(tag_forms, batch_format="pyarrow")
        .union(labels.map_batches(tag_labels, batch_format="pyarrow"))
        .map_batches(add_node_shard, batch_format="pyarrow")
    )

    # sharded + vectorized label attach (one pandas merge per shard, not
    # one map_groups UDF call per distinct surface form)
    def resolve_shard(df: pd.DataFrame) -> pd.DataFrame:
        label_rows = (
            df[df["cluster"] >= 0]
            .groupby("node", as_index=False)
            .agg(cluster=("cluster", "min"))
        )
        # form rows carry n_mentions >= 0, label rows the -1 sentinel —
        # selecting on obj_norm.notna() would silently drop null-form
        # rows (which are legitimate singleton entities)
        forms = df[df["n_mentions"] >= 0][
            ["node", "pred", "obj_norm", "n_mentions"]
        ]
        # INNER merge + explicit miss set: a left merge would widen the
        # cluster column to float64 on any unlabeled form and round the ids
        inner = forms.merge(label_rows, on="node")
        miss = forms[~forms["node"].isin(label_rows["node"])].copy()
        miss["cluster"] = miss["node"]
        out = pd.concat([inner, miss], ignore_index=True)
        out["cluster"] = out["cluster"].astype("int64")
        out["cluster_shard"] = (out["cluster"] % n_shards).astype("int64")
        return out[["pred", "obj_norm", "n_mentions", "cluster", "cluster_shard"]]

    clustered = tagged.groupby("node_shard").map_groups(
        lambda df: resolve_shard(df.drop(columns=["node_shard"])),
        batch_format="pandas",
    )

    def pick_canonical(df: pd.DataFrame) -> pd.DataFrame:
        """Vectorized: one global sort + drop_duplicates picks each
        cluster's canonical (max mentions, ties to the lexicographically
        smallest form), one merge labels the members — no per-cluster
        pandas loop (a shard can hold hundreds of thousands of singleton
        clusters)."""
        if df.empty:
            return pd.DataFrame(
                {
                    "pred": pd.Series(dtype="object"),
                    "obj_norm": pd.Series(dtype="object"),
                    "canonical": pd.Series(dtype="object"),
                    "n_mentions": pd.Series(dtype="int64"),
                }
            )
        best = (
            df.sort_values(
                ["cluster", "n_mentions", "obj_norm"],
                ascending=[True, False, True],
            )
            .drop_duplicates("cluster")[["cluster", "obj_norm"]]
            .rename(columns={"obj_norm": "canonical"})
        )
        out = df.merge(best, on="cluster")
        return out[["pred", "obj_norm", "canonical", "n_mentions"]]

    return clustered.groupby("cluster_shard").map_groups(
        pick_canonical, batch_format="pandas"
    )


# ---------------------------------------------------------------------------
# checkpointed materialization
# ---------------------------------------------------------------------------


def detect_hot_keys(
    triples_ds,
    hot_fraction: float = 0.1,
) -> set[str]:
    """Order-independent pre-scan for skewed repos: EXACT per-repo row
    shares from one streaming pass over the pruned ``repo`` column, with
    only per-batch partial counts (distinct repos per block, not rows)
    leaving each task.  Returns repos above ``hot_fraction``.

    Round-2's version sampled the first blocks via ``limit()``, which
    missed a hot repo clustered late in file order.  Counting exactly is
    both unbiased and cheaper than a hash-sampled pass: the rows stream
    through either way, so a per-row md5 coin-flip would only add work on
    top of the same I/O.  The pass reads a single string column and does
    no shuffle beyond one repo-hash-sharded merge of the per-block
    partial counts, so the driver pulls at most ONE row per distinct
    repo (round-4 fix: previously the driver frame was distinct-repos x
    blocks, a large pull at 100 TB with millions of repos); at 100-TB
    scale run it over the raw repo table (column-pruned parquet read)
    rather than the annotated triples.
    """
    from deduce_ray.ops.agg import merge_shards, shard_exchange

    n_shards = merge_shards()

    def partial_counts(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        # normalize BEFORE counting: materialize_graph's normalize_keys
        # merges null and '' repos into one sink partition, so their
        # volumes must be summed before the hot-fraction test —
        # thresholded separately, a 6%-null + 6%-'' corpus would escape
        # salting of its 12% partition
        repo = pc.fill_null(pc.cast(batch.column("repo"), pa.string()), "")
        ones = pa.table(
            {
                "repo": repo,
                "__one": pa.array(np.ones(batch.num_rows, dtype=np.int64)),
            }
        )
        counts = ones.group_by(["repo"]).aggregate([("__one", "sum")])
        repos = counts.column("repo").to_pylist()
        shard = np.fromiter(
            (
                int.from_bytes(hashlib.md5(r.encode()).digest()[:4], "big")
                % n_shards
                for r in repos
            ),
            dtype=np.int64,
            count=len(repos),
        )
        return pa.table(
            {
                "repo": counts.column("repo"),
                "n": pc.cast(counts.column("__one_sum"), pa.int64()),
                "__shard": pa.array(shard, type=pa.int64()),
            }
        )

    def merge_partials(partials: pa.Table) -> pa.Table:
        summed = partials.group_by("repo").aggregate([("n", "sum")])
        return pa.table({"repo": summed.column("repo"), "n": summed.column("n_sum")})

    partials = triples_ds.select_columns(["repo"]).map_batches(
        partial_counts, batch_format="pyarrow"
    )
    merged = shard_exchange(partials, "__shard", n_shards, merge_partials)
    repo_parts: list[list] = []
    n_parts: list[np.ndarray] = []
    for bt in merged.iter_batches(batch_format="pyarrow"):
        if bt.num_rows:
            repo_parts.append(bt.column("repo").to_pylist())
            n_parts.append(bt.column("n").to_numpy(zero_copy_only=False))
    if not repo_parts:
        return set()
    counts_np = np.concatenate(n_parts)
    grand = int(counts_np.sum())
    if grand == 0:
        return set()
    cutoff = hot_fraction * grand
    return {
        r
        for repos, ns in zip(repo_parts, n_parts)
        for r, n in zip(repos, ns)
        if n >= cutoff
    }


# '%' first: it is the escape character
_SLUG_ESCAPES = (("%", "%25"), ("/", "%2F"), ("_", "%5F"))

# version of the on-disk unit layout: slug escape format + salt/bucket
# derivation.  Recorded in every unit manifest; resume refuses a mismatch
# the same way it refuses a changed salting config (rows would re-route
# into differently-named units while the old part files survive —
# duplicated graph rows).  v1 = pre-escape slugs + hex-prefix buckets.
_LAYOUT_VERSION = 2


def _slugs(*cols) -> pa.ChunkedArray:
    """Injective filename-safe names: each field has '%', '/' and '_'
    escaped, so the '__' joiner can never be produced by field content —
    without this, repo 'org/x' and repo 'org__x' would collide on one
    slug and silently overwrite each other's parquet + manifest."""
    import pyarrow.compute as pc

    escaped = []
    for col in cols:
        col = pc.cast(col, pa.string())
        for raw, esc in _SLUG_ESCAPES:
            col = pc.replace_substring(col, raw, esc)
        escaped.append(col)
    return pc.binary_join_element_wise(*escaped, "__")


def _partition_slug(repo: str, lang: str) -> str:
    """The directory name of the (repo, lang) partition."""
    return _slugs(pa.array([repo]), pa.array([lang]))[0].as_py()


def completed_partitions(out_dir: str | Path) -> set[str]:
    """Names of the graph units complete under ``out_dir``."""
    return set(completed_units(out_dir))


def _graph_unit(name: str, rows: pa.Table) -> tuple[pa.Table, str, dict]:
    """One (repo, lang, salt) unit: the final merge of its graph rows,
    sorted so a re-run reproduces the same file (entity_id breaks ties, so
    the order never depends on group_by's output order)."""
    import pyarrow.compute as pc

    partition, salt = name.rsplit("__", 1)
    graph = _merge_graph_rows(rows).sort_by(
        [(c, "ascending") for c in ("doc_id", "first_start_char", "pred", "obj", "entity_id")]
    )

    def text(col: str):
        # null doc_id/pred/obj are preserved through dedup by design; they
        # hash as ''
        return pc.fill_null(graph.column(col).cast(pa.string()), "")

    lines = pc.binary_join_element_wise(text("doc_id"), text("pred"), text("obj"), "|")
    fields = {
        "partition": name,
        "repo": graph.column("repo")[0].as_py(),
        "lang": graph.column("lang")[0].as_py(),
        "salt": int(salt),
        "rows": graph.num_rows,
        "docs": pc.count_distinct(graph.column("doc_id"), mode="only_valid").as_py(),
        "mentions": pc.sum(graph.column("n_mentions")).as_py(),
        "triples_sha256": hashlib.sha256(
            "\n".join(lines.to_pylist()).encode()
        ).hexdigest(),
    }
    return graph, f"{partition}/part-{salt}.parquet", fields


def materialize_graph(
    triples_ds,
    out_dir: str | Path,
    resume: bool = True,
    hot_keys: set[str] | None = None,
    n_salts: int = 8,
    run_id: str | None = None,
):
    """Write the deduplicated triple graph partitioned by (repo, lang), one
    parquet file + one lineage manifest per (partition, salt) unit,
    through the shared unit committer (:func:`deduce_ray.sinks.commit_units`).
    Returns the metrics dataset (one row per unit written).

    Skew: a hot partition (e.g. a monorepo holding 30% of the corpus)
    would serialize behind one group task.  Repos named in ``hot_keys``
    (from a cheap pre-scan of per-repo volumes, or domain knowledge) are
    salted with ``doc_id-hash % n_salts`` so their group work and output
    fan out across ``n_salts`` units (``part-<salt>.parquet`` files under
    the partition directory); cold partitions keep a single unit.  Dedup
    stays exact under salting because the salt derives from doc_id, which
    is part of the graph key.

    Resume: units listed complete in ``_manifests/`` are filtered out
    *before* the shuffle, so a restarted run neither recomputes nor
    rewrites them; ``resume=False`` refuses a non-empty ``out_dir``.
    With ``run_id``, a ``_manifests/_run_<id>.json`` summary records the
    run-level lineage.  Unit manifests record the salting config
    (hot_keys, n_salts) and the unit layout; resuming with a DIFFERENT
    one is refused, because rows would be re-routed into new units while
    the old part files survive — duplicated graph rows in the output
    directory.
    """
    salting = {
        "hot_keys": sorted(hot_keys or ()),
        "n_salts": int(n_salts),
    }
    hot = frozenset(hot_keys or ())

    def normalize_keys(batch: pa.Table) -> pa.Table:
        # partition keys must be non-null strings for unit naming and
        # resume filtering: nulls (preserved through dedup by design) are
        # normalized to '' — they write to a '____<lang>' partition rather
        # than crashing the sink or being silently dropped on resume
        import pyarrow.compute as pc

        for col in ("repo", "lang"):
            idx = batch.schema.get_field_index(col)
            # cast first: an all-null block arrives with a null-typed
            # column, which fill_null cannot coerce to string by itself
            batch = batch.set_column(
                idx,
                col,
                pc.fill_null(pc.cast(batch.column(col), pa.string()), ""),
            )
        return batch

    combined = triples_ds.map_batches(
        normalize_keys, batch_format="pyarrow"
    ).map_batches(_dedup_batch, batch_format="pyarrow")
    # coalesce + second-level combine before the unit exchange (see
    # dedup_triples: thousands of tiny blocks make the exchange's metadata
    # pathological)
    combined = combined.map_batches(
        _merge_graph_rows, batch_format="pyarrow", batch_size=32768,
        num_cpus=0.9,  # break fusion with the annotate chain (see dedup_triples)
    )

    def unit_of(batch: pa.Table) -> pa.ChunkedArray:
        salts = np.zeros(batch.num_rows, dtype=np.int32)
        if hot:
            # only rows in hot repos pay the per-row bucket hash; the
            # common case (no declared hot repos) has no per-row Python loop
            repos = batch.column("repo").to_pylist()
            doc_ids = batch.column("doc_id").to_pylist()
            for i, (r, d) in enumerate(zip(repos, doc_ids)):
                if r in hot:
                    salts[i] = _doc_bucket(d, n_salts)
        return _slugs(batch.column("repo"), batch.column("lang"), pa.array(salts))

    written, skipped = commit_units(
        combined,
        out_dir,
        unit_of,
        _graph_unit,
        {"salting": salting, "layout": _LAYOUT_VERSION},
        resume=resume,
        sink="materialize_graph",
    )
    if run_id is not None:
        units = written.take_all()
        write_run_manifest(out_dir, run_id, {
            "salting": salting,
            "units_written": len(units),
            "rows": sum(unit["rows"] for unit in units),
            "docs": sum(unit["docs"] for unit in units),
            "resumed_units_skipped": len(skipped),
        })
    return written


def pagerank(
    edges_ds,
    damping: float = 0.85,
    n_iter: int = 5,
    n_shards: int | None = None,
    src_cols: tuple[str, str] = ("pred_a", "obj_a"),
    dst_cols: tuple[str, str] = ("pred_b", "obj_b"),
    driver_max_arcs: int = 2_000_000,
    weight_col: str | None = None,
):
    """PageRank over the (undirected) entity co-occurrence graph — the
    KG-analytics step that ranks entities by graph centrality once the
    graph is constructed (reference scope ends at extraction; this is a
    target-tier addition, like the dedup/ANN families).

    Semantics (mirrored exactly by the DuckDB oracle,
    :func:`deduce_ray.oracles.kg_pagerank_sqlpreds_sql`): each
    undirected edge contributes both directed arcs, unweighted; the
    node set is every entity with at least one edge;
    ``rank_0(v) = 1/N`` and

        rank_t(v) = (1 - damping)/N
                    + damping * sum_{u -> v} rank_{t-1}(u) / outdeg(u)

    for a FIXED ``n_iter`` iterations (fixed, so the oracle can unroll
    the recurrence).  The symmetrized graph has no dangling nodes
    (every node's reverse arcs give it out-neighbors), so no dangling
    mass term exists and the rank mass stays exactly 1.0.  The final
    score is rounded to 6 decimals (the repo's float-output
    convention); iteration arithmetic stays full-precision float64.

    Scale shape: the directed arc list and the out-degree table are
    sharded ONCE by a src-hash (``zlib.crc32``) and MATERIALIZED;
    every round is two narrow exchanges — (1) the (node, rank) table
    rides a tagged union into the arc shards, where one vectorized
    pandas merge turns ranks into per-arc contributions, pre-summed
    per destination within the shard; (2) the partials merge under a
    dst-hash shard groupby, which also yields next round's rank rows
    already carrying their shard key.  Per-round payload is
    O(nodes + arcs) rows of (strings, float64) — never the corpus; the
    driver holds only the scalar N.  Rounds materialize (like the
    large-star/small-star clustering rounds) so the lazy plan does not
    re-execute the whole history each iteration.  Partitioning
    assumption: arcs of one src share its shard, so within-shard
    merges are globally exact; same for dst in the sum stage.

    ``driver_max_arcs``: graphs whose directed arc count fits the bound
    take a DRIVER fast path (pull the arc list once, factorize nodes,
    run the identical recurrence as vectorized bincount scatter-adds) —
    Ray's fixed per-exchange latency otherwise dominates small graphs
    (measured at sf0.1: 10 exchanges ≈ 7.7 s for a 6-node graph, vs
    <0.1 s driver).  0 forces the distributed rounds (how the registry
    query runs, so the SCALE path is the one value-checked vs DuckDB —
    the same convention as ann_topk_ivf's exhaustive probing); both
    paths are equality-tested on the same graph in TestPageRank.

    ``weight_col``: optional per-edge POSITIVE weight (e.g. the
    co-occurrence ``n_docs``) — contributions become
    ``rank(u) * w(u,v) / wdeg(u)`` with ``wdeg`` the weighted
    out-degree.  None (default) is the unweighted recurrence above —
    implemented as weight 1.0 everywhere, so summing weights IS the
    arc count and the unweighted arithmetic (and its DuckDB oracle)
    is bit-identical to before the parameter existed.
    """
    import pandas as pd
    import ray.data

    from deduce_ray.ops.agg import merge_shards

    if n_shards is None:
        n_shards = merge_shards()
    d = float(damping)

    _SCHEMA = {
        "shard": pa.int64(),
        "pred": pa.string(),
        "obj": pa.string(),
        "dpred": pa.string(),
        "dobj": pa.string(),
        "val": pa.float64(),
        "tag": pa.int8(),
    }

    def _empty() -> pa.Table:
        return pa.table(
            {k: pa.array([], type=t) for k, t in _SCHEMA.items()}
        )

    def _shards_of(pred, obj) -> list[int]:
        # per-row crc32 measured FASTEST for this key shape (20.9 ms /
        # 131k rows vs 39 ms pd.factorize-then-hash and 167 ms
        # np.unique-then-hash — crc32 is ~160 ns/key, cheaper than any
        # vectorized string factorization that would amortize it)
        return [
            zlib.crc32(f"{p}\x1f{o}".encode()) % n_shards
            for p, o in zip(pred, obj)
        ]

    def to_arcs(batch: pa.Table) -> pa.Table:
        """Both directed arcs per undirected edge, tagged 0."""
        if not batch.num_rows:
            return _empty()
        sp = batch.column(src_cols[0]).to_numpy(zero_copy_only=False)
        so = batch.column(src_cols[1]).to_numpy(zero_copy_only=False)
        dp = batch.column(dst_cols[0]).to_numpy(zero_copy_only=False)
        do = batch.column(dst_cols[1]).to_numpy(zero_copy_only=False)
        n = len(sp)
        ap = np.concatenate([sp, dp])
        ao = np.concatenate([so, do])
        if weight_col is None:
            w = np.ones(2 * n)
        else:
            w1 = batch.column(weight_col).to_numpy(
                zero_copy_only=False
            ).astype(np.float64)
            w = np.concatenate([w1, w1])  # both arcs carry the edge weight
        return pa.table(
            {
                "shard": pa.array(_shards_of(ap, ao), type=pa.int64()),
                "pred": pa.array(ap, type=pa.string()),
                "obj": pa.array(ao, type=pa.string()),
                "dpred": pa.array(np.concatenate([dp, sp]), type=pa.string()),
                "dobj": pa.array(np.concatenate([do, so]), type=pa.string()),
                "val": pa.array(w, type=pa.float64()),
                "tag": pa.array(np.zeros(2 * n, dtype=np.int8)),
            }
        )

    arcs = edges_ds.map_batches(
        to_arcs, batch_format="pyarrow", num_cpus=0.9
    ).materialize()

    def _empty_result():
        return ray.data.from_arrow(
            pa.table(
                {
                    "pred": pa.array([], type=pa.string()),
                    "obj": pa.array([], type=pa.string()),
                    "score": pa.array([], type=pa.float64()),
                }
            )
        )

    if driver_max_arcs and arcs.count() <= driver_max_arcs:
        # bounded driver fast path: identical recurrence, vectorized
        # scatter-adds over factorized node ids
        sp_, so_, dp_, do_, w_ = [], [], [], [], []
        for b in arcs.iter_batches(batch_format="pyarrow"):
            sp_.append(b.column("pred").to_numpy(zero_copy_only=False))
            so_.append(b.column("obj").to_numpy(zero_copy_only=False))
            dp_.append(b.column("dpred").to_numpy(zero_copy_only=False))
            do_.append(b.column("dobj").to_numpy(zero_copy_only=False))
            w_.append(b.column("val").to_numpy(zero_copy_only=False))
        if not sp_:
            return _empty_result()
        # factorize on (pred, obj) TUPLES — node identity must never go
        # through a joined string (a separator byte inside corpus-derived
        # obj values would mangle or merge nodes); src and dst factorize
        # against one shared vocabulary in a single pass
        n_arcs = sum(len(x) for x in sp_)
        keys = list(
            zip(
                np.concatenate(sp_ + dp_).tolist(),
                np.concatenate(so_ + do_).tolist(),
            )
        )
        key_arr = np.empty(len(keys), dtype=object)  # keep tuples 1-D
        key_arr[:] = keys
        codes, uniq = pd.factorize(key_arr)
        src_idx = codes[:n_arcs]
        dst_idx = codes[n_arcs:]
        n = len(uniq)
        w = np.concatenate(w_)
        deg_v = np.bincount(src_idx, weights=w, minlength=n)
        r = np.full(n, 1.0 / n)
        for _ in range(int(n_iter)):
            r = (1.0 - d) / n + d * np.bincount(
                dst_idx, weights=r[src_idx] / deg_v[src_idx] * w, minlength=n
            )
        preds, objs = zip(*uniq)
        return ray.data.from_arrow(
            pa.table(
                {
                    "pred": pa.array(list(preds), type=pa.string()),
                    "obj": pa.array(list(objs), type=pa.string()),
                    "score": pa.array(np.round(r, 6), type=pa.float64()),
                }
            )
        )

    def local_deg(batch: pa.Table) -> pa.Table:
        # per-batch combiner for the (weighted) out-degree — unweighted
        # arcs carry val 1.0, so the sum IS the arc count, exactly
        g = batch.group_by(["shard", "pred", "obj"]).aggregate(
            [("val", "sum")]
        )
        return g.rename_columns(["shard", "pred", "obj", "cnt"])

    def merge_deg(df: pd.DataFrame) -> pa.Table:
        g = (
            df.groupby(["pred", "obj"], sort=False)
            .agg(shard=("shard", "first"), cnt=("cnt", "sum"))
            .reset_index()
        )
        return pa.table(
            {
                "shard": pa.array(g["shard"], type=pa.int64()),
                "pred": pa.array(g["pred"], type=pa.string()),
                "obj": pa.array(g["obj"], type=pa.string()),
                "dpred": pa.array([None] * len(g), type=pa.string()),
                "dobj": pa.array([None] * len(g), type=pa.string()),
                "val": pa.array(
                    g["cnt"].to_numpy(dtype=np.float64), type=pa.float64()
                ),
                "tag": pa.array(np.ones(len(g), dtype=np.int8)),
            }
        )

    deg = (
        arcs.map_batches(local_deg, batch_format="pyarrow")
        .groupby("shard")
        .map_groups(merge_deg, batch_format="pandas")
        .materialize()
    )
    n_nodes = deg.count()
    if not n_nodes:
        return _empty_result()
    base = (1.0 - d) / n_nodes

    def init_ranks(batch: pa.Table) -> pa.Table:
        return batch.set_column(
            batch.schema.get_field_index("val"),
            "val",
            pa.array(np.full(batch.num_rows, 1.0 / n_nodes)),
        ).set_column(
            batch.schema.get_field_index("tag"),
            "tag",
            pa.array(np.full(batch.num_rows, 2, dtype=np.int8)),
        )

    ranks = deg.map_batches(init_ranks, batch_format="pyarrow")

    def contrib(df: pd.DataFrame) -> pa.Table:
        """One src-shard: rank/deg per node (vectorized merge), then
        per-arc contributions pre-summed by destination."""
        out_empty = pa.table(
            {
                "shard": pa.array([], type=pa.int64()),
                "pred": pa.array([], type=pa.string()),
                "obj": pa.array([], type=pa.string()),
                "val": pa.array([], type=pa.float64()),
            }
        )
        key = ["pred", "obj"]
        dg = df[df["tag"] == 1]
        rk = df[df["tag"] == 2]
        ed = df[df["tag"] == 0]
        if ed.empty or rk.empty:
            return out_empty
        rd = rk[key + ["val"]].merge(
            dg[key + ["val"]], on=key, suffixes=("_r", "_d")
        )
        rd["c"] = rd["val_r"] / rd["val_d"]
        # per-arc contribution scales by the arc weight (val; 1.0 when
        # unweighted — an exact float no-op, keeping the unweighted
        # arithmetic bit-identical to the oracle)
        m = ed[key + ["dpred", "dobj", "val"]].merge(rd[key + ["c"]], on=key)
        m["c"] = m["c"] * m["val"]
        part = (
            m.groupby(["dpred", "dobj"], sort=False)["c"].sum().reset_index()
        )
        return pa.table(
            {
                "shard": pa.array(
                    _shards_of(part["dpred"], part["dobj"]), type=pa.int64()
                ),
                "pred": pa.array(part["dpred"], type=pa.string()),
                "obj": pa.array(part["dobj"], type=pa.string()),
                "val": pa.array(part["c"], type=pa.float64()),
            }
        )

    def new_ranks(df: pd.DataFrame) -> pa.Table:
        """One dst-shard: total in-contribution -> next rank rows,
        already union-ready (full schema, tag 2, own shard key)."""
        g = (
            df.groupby(["pred", "obj"], sort=False)
            .agg(shard=("shard", "first"), val=("val", "sum"))
            .reset_index()
        )
        return pa.table(
            {
                "shard": pa.array(g["shard"], type=pa.int64()),
                "pred": pa.array(g["pred"], type=pa.string()),
                "obj": pa.array(g["obj"], type=pa.string()),
                "dpred": pa.array([None] * len(g), type=pa.string()),
                "dobj": pa.array([None] * len(g), type=pa.string()),
                "val": pa.array(
                    base + d * g["val"].to_numpy(dtype=np.float64),
                    type=pa.float64(),
                ),
                "tag": pa.array(np.full(len(g), 2, dtype=np.int8)),
            }
        )

    for _ in range(int(n_iter)):
        ranks = (
            arcs.union(deg, ranks)
            .groupby("shard")
            .map_groups(contrib, batch_format="pandas")
            .groupby("shard")
            .map_groups(new_ranks, batch_format="pandas")
            .materialize()
        )

    def finish(batch: pa.Table) -> pa.Table:
        v = batch.column("val").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "pred": batch.column("pred"),
                "obj": batch.column("obj"),
                "score": pa.array(np.round(v, 6), type=pa.float64()),
            }
        )

    return ranks.map_batches(finish, batch_format="pyarrow")


def graph_components(
    edges_ds,
    src_cols: tuple[str, str] = ("pred_a", "obj_a"),
    dst_cols: tuple[str, str] = ("pred_b", "obj_b"),
    n_shards: int | None = None,
    rounds: int = 16,
    driver_threshold: int = 1_000_000,
):
    """Connected components of the entity co-occurrence graph — which
    entities are transitively linked by shared documents (the KG
    companion to :func:`pagerank`; same edge input, e.g.
    :func:`cooccurrence_edges` output).

    Returns one row per node: ``(pred, obj, component_id)`` where
    ``component_id`` is an opaque int64, equal for nodes in the same
    component (the minimum injective form-node id of the component).

    Scale shape: nodes map to the injective 63-bit
    :func:`_form_node_id` ids (length-prefixed encoding — separator
    bytes in corpus-derived strings cannot merge nodes), the integer
    pair list runs through the PROVEN component machinery
    (:func:`deduce_ray.ops.dedup.neardup_clusters`: bounded driver
    union-find fast path, large-star/small-star rounds with an edge-set
    witness above the threshold), and the string identity joins back
    via ONE node-hash sharded merge of the (id, pred, obj) vocabulary
    against the labels — never a driver pull of either side.
    """
    import pyarrow.compute as pc

    from deduce_ray.ops.agg import merge_shards, shard_exchange
    from deduce_ray.ops.dedup import neardup_clusters

    if n_shards is None:
        n_shards = merge_shards()

    def endpoints(batch: pa.Table) -> tuple[pa.Array, pa.Array]:
        # every edge's source, then every edge's destination
        return tuple(
            pa.concat_arrays(
                [_one_array(batch.column(c)).cast(pa.string()) for c in (s, d)]
            )
            for s, d in zip(src_cols, dst_cols)
        )

    def to_pairs(batch: pa.Table) -> pa.Table:
        ids, _ = _node_ids(*endpoints(batch))
        n = batch.num_rows
        return pa.table({"id_a": ids[:n], "id_b": ids[n:]})

    def vocab_rows(batch: pa.Table) -> pa.Table:
        # per-batch-distinct (id, pred, obj) rows; exact dedup happens
        # in the sharded join below (all rows of an id share its shard)
        pred, obj = endpoints(batch)
        ids, first = _node_ids(pred, obj)
        node = ids[first]
        return pa.table(
            {
                "node_id": node,
                "pred": pred.take(first),
                "obj": obj.take(first),
                "shard": node % n_shards,
                "component_id": pa.nulls(len(node), pa.int64()),
                "tag": np.zeros(len(node), dtype=np.int8),
            }
        )

    edges_ds = edges_ds.materialize()
    pairs = edges_ds.map_batches(to_pairs, batch_format="pyarrow")
    labels = neardup_clusters(
        pairs, rounds=rounds, driver_threshold=driver_threshold
    )

    def label_rows(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "node_id": pa.array(ids, type=pa.int64()),
                "pred": pa.array([None] * len(ids), type=pa.string()),
                "obj": pa.array([None] * len(ids), type=pa.string()),
                "shard": pa.array(
                    (ids.astype(np.uint64) % n_shards).astype(np.int64)
                ),
                "component_id": batch.column("cluster_id"),
                "tag": np.ones(len(ids), dtype=np.int8),
            }
        )

    vocab = edges_ds.map_batches(vocab_rows, batch_format="pyarrow")
    lab = labels.map_batches(label_rows, batch_format="pyarrow")

    def join_names(rows: pa.Table) -> pa.Table:
        is_name = pc.equal(rows.column("tag"), 0)
        names = (
            rows.filter(is_name)
            .group_by(["node_id", "pred", "obj"])
            .aggregate([])
        )
        comps = rows.filter(pc.invert(is_name)).select(["node_id", "component_id"])
        joined = names.join(comps, keys="node_id")
        return pa.table(
            {
                "pred": joined.column("pred"),
                "obj": joined.column("obj"),
                "component_id": joined.column("component_id").cast(pa.int64()),
            }
        )

    return shard_exchange(vocab.union(lab), "shard", n_shards, join_names)


def label_propagation(
    edges_ds,
    n_iter: int = 5,
    n_shards: int | None = None,
    src_cols: tuple[str, str] = ("pred_a", "obj_a"),
    dst_cols: tuple[str, str] = ("pred_b", "obj_b"),
    driver_max_arcs: int = 2_000_000,
):
    """Synchronous label propagation over the (undirected) entity
    co-occurrence graph — community detection, the third member of the
    KG-analytics family (pagerank: centrality; graph_components:
    reachability; this: density).

    DETERMINISTIC semantics (so an unrolled SQL oracle can reproduce it
    — see tests/test_ray_pipeline.py's DuckDB parity test): every node
    starts labelled with itself; each round, every node simultaneously
    adopts the most frequent label among its neighbours, ties broken by
    the lexicographically smallest (pred, obj) label; a FIXED ``n_iter``
    rounds (synchronous LPA can oscillate on bipartite structures, so
    the contract is "labels after k rounds", not a fixpoint).  The
    symmetrized graph gives every node >= 1 neighbour.

    Scale shape mirrors :func:`pagerank`: arcs sharded ONCE by src-hash
    and materialized; each round is two narrow exchanges — labels ride
    a tagged union into the arc shards (vectorized pandas merge turns
    them into per-arc votes, pre-counted per (dst, label) inside the
    shard), then the partial counts merge under a dst-hash shard
    groupby whose argmax/min-tie-break output IS next round's label
    table.  Per-round payload is O(arcs) narrow string rows.
    ``driver_max_arcs``: same bounded fast path convention as pagerank
    (identical recurrence vectorized on the driver; 0 forces the
    distributed rounds; equality-tested on the same graph).
    """
    import pandas as pd
    import ray.data

    from deduce_ray.ops.agg import merge_shards

    if n_shards is None:
        n_shards = merge_shards()

    def _shards_of(pred, obj) -> list[int]:
        return [
            zlib.crc32(f"{p}\x1f{o}".encode()) % n_shards
            for p, o in zip(pred, obj)
        ]

    # shared tagged schema: arcs tag 0 (pred/obj = src, dpred/dobj = dst),
    # labels tag 2 (pred/obj = node, lpred/lobj = its current label)
    def _empty() -> pa.Table:
        return pa.table(
            {
                "shard": pa.array([], type=pa.int64()),
                "pred": pa.array([], type=pa.string()),
                "obj": pa.array([], type=pa.string()),
                "dpred": pa.array([], type=pa.string()),
                "dobj": pa.array([], type=pa.string()),
                "lpred": pa.array([], type=pa.string()),
                "lobj": pa.array([], type=pa.string()),
                "n": pa.array([], type=pa.int64()),
                "tag": pa.array([], type=pa.int8()),
            }
        )

    def to_arcs(batch: pa.Table) -> pa.Table:
        if not batch.num_rows:
            return _empty()
        sp = batch.column(src_cols[0]).to_numpy(zero_copy_only=False)
        so = batch.column(src_cols[1]).to_numpy(zero_copy_only=False)
        dp = batch.column(dst_cols[0]).to_numpy(zero_copy_only=False)
        do = batch.column(dst_cols[1]).to_numpy(zero_copy_only=False)
        m = len(sp)
        ap = np.concatenate([sp, dp])
        ao = np.concatenate([so, do])
        nulls = pa.array([None] * (2 * m), type=pa.string())
        return pa.table(
            {
                "shard": pa.array(_shards_of(ap, ao), type=pa.int64()),
                "pred": pa.array(ap, type=pa.string()),
                "obj": pa.array(ao, type=pa.string()),
                "dpred": pa.array(np.concatenate([dp, sp]), type=pa.string()),
                "dobj": pa.array(np.concatenate([do, so]), type=pa.string()),
                "lpred": nulls,
                "lobj": nulls,
                "n": pa.array(np.zeros(2 * m, dtype=np.int64)),
                "tag": pa.array(np.zeros(2 * m, dtype=np.int8)),
            }
        )

    arcs = edges_ds.map_batches(
        to_arcs, batch_format="pyarrow", num_cpus=0.9
    ).materialize()

    def _result(df: pd.DataFrame):
        out = pa.table(
            {
                "pred": pa.array(df["pred"], type=pa.string()),
                "obj": pa.array(df["obj"], type=pa.string()),
                "label_pred": pa.array(df["lpred"], type=pa.string()),
                "label_obj": pa.array(df["lobj"], type=pa.string()),
            }
        )
        return ray.data.from_arrow(out)

    if driver_max_arcs and arcs.count() <= driver_max_arcs:
        # bounded driver fast path: identical synchronous recurrence
        parts = {c: [] for c in ("pred", "obj", "dpred", "dobj")}
        for b in arcs.iter_batches(batch_format="pyarrow"):
            for c in parts:
                parts[c].append(b.column(c).to_numpy(zero_copy_only=False))
        if not parts["pred"]:
            return _result(
                pd.DataFrame(columns=["pred", "obj", "lpred", "lobj"])
            )
        keys = list(
            zip(
                np.concatenate(parts["pred"] + parts["dpred"]).tolist(),
                np.concatenate(parts["obj"] + parts["dobj"]).tolist(),
            )
        )
        n_arcs = len(keys) // 2
        key_arr = np.empty(len(keys), dtype=object)
        key_arr[:] = keys
        codes, uniq = pd.factorize(key_arr)
        src_idx, dst_idx = codes[:n_arcs], codes[n_arcs:]
        # label code order must be LEXICOGRAPHIC on the (pred, obj)
        # TUPLE for min-tie-breaks (true tuple sort, not a joined string
        # — matching the distributed path's two-column sort exactly)
        order = sorted(range(len(uniq)), key=lambda i: uniq[i])
        rank_of = np.empty(len(uniq), dtype=np.int64)
        rank_of[np.asarray(order)] = np.arange(len(uniq))
        labels = rank_of.copy()  # node's own rank-coded label
        for _ in range(int(n_iter)):
            df = pd.DataFrame(
                {"dst": dst_idx, "lab": labels[src_idx]}
            )
            counts = (
                df.groupby(["dst", "lab"], sort=False)
                .size()
                .reset_index(name="c")
                .sort_values(
                    ["dst", "c", "lab"], ascending=[True, False, True]
                )
                .drop_duplicates("dst")
            )
            new = labels.copy()
            new[counts["dst"].to_numpy()] = counts["lab"].to_numpy()
            labels = new
        inv = np.empty(len(uniq), dtype=np.int64)
        inv[rank_of] = np.arange(len(uniq))
        lab_nodes = [uniq[inv[r]] for r in labels]
        return _result(
            pd.DataFrame(
                {
                    "pred": [k[0] for k in uniq],
                    "obj": [k[1] for k in uniq],
                    "lpred": [k[0] for k in lab_nodes],
                    "lobj": [k[1] for k in lab_nodes],
                }
            )
        )

    def init_labels(batch: pa.Table) -> pa.Table:
        # distinct src nodes of the shard's arcs -> self-labelled rows
        t = batch.group_by(["shard", "pred", "obj"]).aggregate([])
        m = t.num_rows
        return pa.table(
            {
                "shard": t.column("shard"),
                "pred": t.column("pred"),
                "obj": t.column("obj"),
                "dpred": pa.array([None] * m, type=pa.string()),
                "dobj": pa.array([None] * m, type=pa.string()),
                "lpred": t.column("pred"),
                "lobj": t.column("obj"),
                "n": pa.array(np.zeros(m, dtype=np.int64)),
                "tag": pa.array(np.full(m, 2, dtype=np.int8)),
            }
        )

    def dedup_labels(df: pd.DataFrame) -> pa.Table:
        # Arrow output: the union with the Arrow arc blocks must keep
        # ONE block type (a mixed union breaks the sort's boundary
        # sampling with a pandas-vs-arrow assertion); explicit schema —
        # the all-None dpred/dobj columns would otherwise infer as the
        # Arrow null type instead of string
        return pa.Table.from_pandas(
            df.drop_duplicates(["pred", "obj"]),
            schema=_empty().schema,
            preserve_index=False,
        )

    labels = (
        arcs.map_batches(init_labels, batch_format="pyarrow")
        .groupby("shard")
        .map_groups(dedup_labels, batch_format="pandas")
        .materialize()
    )

    def votes(df: pd.DataFrame) -> pa.Table:
        out_empty = pa.table(
            {
                "shard": pa.array([], type=pa.int64()),
                "dpred": pa.array([], type=pa.string()),
                "dobj": pa.array([], type=pa.string()),
                "lpred": pa.array([], type=pa.string()),
                "lobj": pa.array([], type=pa.string()),
                "n": pa.array([], type=pa.int64()),
            }
        )
        key = ["pred", "obj"]
        lab = df[df["tag"] == 2]
        ed = df[df["tag"] == 0]
        if ed.empty or lab.empty:
            return out_empty
        m = ed[key + ["dpred", "dobj"]].merge(
            lab[key + ["lpred", "lobj"]], on=key
        )
        part = (
            m.groupby(["dpred", "dobj", "lpred", "lobj"], sort=False)
            .size()
            .reset_index(name="n")
        )
        return pa.table(
            {
                "shard": pa.array(
                    _shards_of(part["dpred"], part["dobj"]), type=pa.int64()
                ),
                "dpred": pa.array(part["dpred"], type=pa.string()),
                "dobj": pa.array(part["dobj"], type=pa.string()),
                "lpred": pa.array(part["lpred"], type=pa.string()),
                "lobj": pa.array(part["lobj"], type=pa.string()),
                "n": pa.array(part["n"].to_numpy(dtype=np.int64)),
            }
        )

    def adopt(df: pd.DataFrame) -> pa.Table:
        g = (
            df.groupby(["dpred", "dobj", "lpred", "lobj"], sort=False)
            .agg(shard=("shard", "first"), n=("n", "sum"))
            .reset_index()
            .sort_values(
                ["dpred", "dobj", "n", "lpred", "lobj"],
                ascending=[True, True, False, True, True],
            )
            .drop_duplicates(["dpred", "dobj"])
        )
        m = len(g)
        return pa.table(
            {
                "shard": pa.array(g["shard"], type=pa.int64()),
                "pred": pa.array(g["dpred"], type=pa.string()),
                "obj": pa.array(g["dobj"], type=pa.string()),
                "dpred": pa.array([None] * m, type=pa.string()),
                "dobj": pa.array([None] * m, type=pa.string()),
                "lpred": pa.array(g["lpred"], type=pa.string()),
                "lobj": pa.array(g["lobj"], type=pa.string()),
                "n": pa.array(np.zeros(m, dtype=np.int64)),
                "tag": pa.array(np.full(m, 2, dtype=np.int8)),
            }
        )

    for _ in range(int(n_iter)):
        labels = (
            arcs.union(labels)
            .groupby("shard")
            .map_groups(votes, batch_format="pandas")
            .groupby("shard")
            .map_groups(adopt, batch_format="pandas")
            .materialize()
        )

    def finish(batch: pa.Table) -> pa.Table:
        return batch.select(["pred", "obj", "lpred", "lobj"]).rename_columns(
            ["pred", "obj", "label_pred", "label_obj"]
        )

    return labels.map_batches(finish, batch_format="pyarrow")
