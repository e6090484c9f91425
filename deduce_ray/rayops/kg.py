"""Triple-graph pipeline: dedup/canonicalize, skew-aware shuffle, and
checkpointed, resumable graph materialization partitioned by (repo, lang).

Scale notes (north_rule):
  - Local combiner first: per-batch dedup/aggregation inside map_batches
    shrinks the all-to-all shuffle before any groupby, and the combiner
    stages carry large batch_size values that COALESCE small upstream
    blocks ahead of each sort-based exchange.
  - Merge shuffles run on UNIFORM hash keys (doc-id bucket for the graph
    key, :func:`deduce_ray.ops.agg.key_shards` of (pred, obj_norm) for
    entity counts and of the edge key for edge sums) so the 30%-hot
    monorepo cannot straggle them; (repo, lang) is the OUTPUT
    partitioning key, applied at the sink with hot-key salting.
  - The graph path's exchanges (dedup, the hot-key count, the sink's
    unit writes) and the analytics tail's (entity counts and edge sums,
    both :func:`deduce_ray.ops.agg.grouped_agg`, the co-occurrence doc
    exchange, the distributed PageRank and label propagation rounds, the
    components name join) use
    :func:`deduce_ray.ops.agg.shard_exchange`: integer shards take a
    sort with analytic boundaries, so there is no sampling pass, the
    partition count is ``min(n_shards, CPUs)`` rather than the
    (coalesced, often single) upstream block count, and each partition
    merges in one Arrow call.  The graph merge is Arrow ``group_by``
    throughout; no pandas frame is built between annotate and the
    parquet files.
  - Graph analytics number the (pred, obj) nodes through one exact
    Arrow dictionary (:func:`_node_codes`) and run numpy over int32
    arcs: on the driver for bounded graphs, in per-partition merges
    otherwise.  Entity canonicalization numbers its forms the same way
    and exchanges only its (pred, length-block) rows.
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

from deduce_ray.ops.agg import key_shards, per_distinct
from deduce_ray.ops.dedup import _component_roots
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
    """Cross-document canonical entity table: (pred, obj_norm) with its
    mention count — the global side of entity linking.  ``obj_norm`` is
    the lowercased object; the count is :func:`deduce_ray.ops.agg.grouped_agg`'s
    (an Arrow combine, one sampling-free exchange on the (pred, obj_norm)
    key shard, so the hottest predicate cannot serialize one merge)."""
    import pyarrow.compute as pc

    from deduce_ray.ops.agg import grouped_agg

    def normalize(batch: pa.Table) -> pa.Table:
        # cast first: an all-null block arrives with a null-typed obj
        # column, for which utf8_lower has no kernel
        obj_norm = pc.utf8_lower(pc.cast(batch.column("obj"), pa.string()))
        return pa.table({"pred": batch.column("pred"), "obj_norm": obj_norm})

    return grouped_agg(
        triples_ds.map_batches(normalize, batch_size=None, batch_format="pyarrow"),
        keys=["pred", "obj_norm"],
        aggs={"n_mentions": (None, "count")},
    )


_EDGE_KEY = ["pred_a", "obj_a", "pred_b", "obj_b"]


def _one_array(col) -> pa.Array:
    return col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col


def _doc_buckets(doc_ids, n: int) -> pa.Array:
    """:func:`_doc_bucket` of each id."""
    return pa.array(per_distinct(doc_ids, lambda d: _doc_bucket(d, n)))


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
    edge key with ``n_docs`` summed, by
    :func:`deduce_ray.ops.agg.grouped_agg`.  Null key fields form their
    own groups."""
    from deduce_ray.ops.agg import grouped_agg

    return grouped_agg(edges_ds, _EDGE_KEY, {"n_docs": ("n_docs", "sum")}, n_shards)


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


def _cat(*cols) -> pa.Array:
    """String columns (arrays or chunked) concatenated into one array."""
    return pa.concat_arrays([_one_array(c).cast(pa.string()) for c in cols])


def _node_codes(pred, obj) -> tuple[np.ndarray, pa.Table]:
    """Dense int32 node code of each (pred, obj) row, and the node table
    (pred, obj) holding one row per code.

    Codes number the distinct pairs in lexicographic (pred, obj) order,
    null after every string.  Each column is dictionary-encoded, its
    dictionary ranked by Arrow's byte order (Python's ``str`` order), and
    a pair's code is the rank of ``pred_rank * n_obj + obj_rank``.  Arrow
    hashes and compares whole strings, so no separator or NUL byte can
    fold two nodes into one."""
    import pyarrow.compute as pc

    words, ranks = [], []
    for col in (pred, obj):
        enc = pc.dictionary_encode(_cat(col))
        order = pc.sort_indices(enc.dictionary)
        n_words = len(order)
        rank = np.empty(n_words + 1, dtype=np.int64)
        rank[order.to_numpy()] = np.arange(n_words)
        rank[n_words] = n_words  # null is the last word
        words.append(pa.concat_arrays([enc.dictionary.take(order), pa.nulls(1, pa.string())]))
        ranks.append(rank[pc.fill_null(enc.indices, n_words).to_numpy()])
    n_obj = len(words[1])
    keys, codes = np.unique(ranks[0] * n_obj + ranks[1], return_inverse=True)
    nodes = pa.table({"pred": words[0].take(keys // n_obj), "obj": words[1].take(keys % n_obj)})
    return codes.astype(np.int32), nodes


def _form_node_ids(nodes: pa.Table) -> np.ndarray:
    """:func:`_form_node_id` of each row of a (pred, obj) node table."""
    return np.fromiter(
        (
            _form_node_id(p, o)
            for p, o in zip(nodes.column("pred").to_pylist(), nodes.column("obj").to_pylist())
        ),
        dtype=np.int64,
        count=nodes.num_rows,
    )


def _node_ids(pred: pa.Array, obj: pa.Array) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_form_node_id` of each (pred, obj) row, hashed once per
    distinct pair, and the row index of each distinct pair's first
    occurrence."""
    codes, nodes = _node_codes(pred, obj)
    _, first = np.unique(codes, return_index=True)
    return _form_node_ids(nodes)[codes], first


def _dl1_block_pairs(
    homes: list[str], guests: list[str]
) -> tuple[list[tuple[str, str]], int]:
    """DL<=1 pairs via deletion-neighborhood blocking (FastSS-style), for
    one (pred, length) block: ``homes`` are distinct same-length forms
    (length L), ``guests`` distinct forms one char SHORTER (length L-1 —
    :func:`canonicalize_entities` sends a form of length n to block n as
    home and block n+1 as guest).

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


_CANONICAL_SCHEMA = pa.schema(
    [("pred", pa.string()), ("obj_norm", pa.string()), ("canonical", pa.string()),
     ("n_mentions", pa.int64())]
)


def canonicalize_entities(triples_ds):
    """Cross-document entity canonicalization: per predicate, cluster
    mention surface forms whose lowercase texts are within
    Damerau-Levenshtein distance 1 (the same fuzzy rule the reference's
    per-document linker uses, applied graph-wide), and pick the most
    frequent form as the canonical label, ties to the lexicographically
    smallest.  Returns (pred, obj_norm, canonical, n_mentions).

    1. :func:`canonical_entities` counts the forms; the distinct forms
       come to the driver once and :func:`_node_codes` numbers them.
       Codes follow (pred, obj_norm) byte order, so within a predicate
       the smallest form is the smallest code.
    2. A DL<=1 pair differs by at most one in length, so length is an
       exact blocking key: each form is sent to its own length block as a
       home and to the next one as a guest, and one
       :func:`deduce_ray.ops.agg.shard_exchange` on the (pred, block) key
       meets every block in one merge, which runs
       :func:`_dl1_block_pairs` on it and returns int32 code pairs.
    3. :func:`_component_roots` labels the components on the driver, and
       one lexsort picks each component's canonical.

    A null predicate is a predicate of its own; a null form never edges
    to anything (the DL predicate is undefined on null) and stays a
    singleton with a null canonical.  The driver holds O(distinct forms)
    arrays.
    """
    import pyarrow.compute as pc
    import ray

    from deduce_ray.ops.agg import merge_shards, shard_exchange
    from deduce_ray.ops.dedup import _pull

    forms = _pull(canonical_entities(triples_ds))
    if forms is None:
        return ray.data.from_arrow(_CANONICAL_SCHEMA.empty_table())
    codes, nodes = _node_codes(forms.column("pred"), forms.column("obj_norm"))
    n = nodes.num_rows
    mentions = np.empty(n, dtype=np.int64)
    mentions[codes] = forms.column("n_mentions").to_numpy()

    code = np.flatnonzero(pc.is_valid(nodes.column("obj")).to_numpy())
    pred, obj = (_one_array(nodes.column(c)).take(code) for c in ("pred", "obj"))
    length = pc.utf8_length(obj).to_numpy().astype(np.int64)
    n_shards = merge_shards()
    rows = pa.table(
        {
            "pred": pa.concat_arrays([pred, pred]),
            "block": np.concatenate([length, length + 1]),
            "is_home": np.repeat([True, False], len(code)),
            "code": np.concatenate([code, code]).astype(np.int32),
            "obj": pa.concat_arrays([obj, obj]),
        }
    )
    rows = rows.append_column("shard", key_shards([rows["pred"], rows["block"]], n_shards))

    def block_pairs(rows: pa.Table) -> pa.Table:
        blocks = rows.group_by(["pred", "block"], use_threads=False).aggregate(
            [("obj", "list"), ("code", "list"), ("is_home", "list")]
        )
        a, b = [], []
        for objs, obj_codes, home in zip(
            blocks["obj_list"].to_pylist(),
            blocks["code_list"].to_pylist(),
            blocks["is_home_list"].to_pylist(),
        ):
            if len(objs) < 2:
                continue
            code_of = dict(zip(objs, obj_codes))
            homes = [f for f, h in zip(objs, home) if h]
            guests = [f for f, h in zip(objs, home) if not h]
            for x, y in _dl1_block_pairs(homes, guests)[0]:
                a.append(code_of[x])
                b.append(code_of[y])
        return pa.table({"a": pa.array(a, pa.int32()), "b": pa.array(b, pa.int32())})

    pairs = _pull(shard_exchange(ray.data.from_arrow(rows), "shard", n_shards, block_pairs))
    if pairs is None:
        root = np.arange(n)
    else:
        root = _component_roots(pairs["a"].to_numpy(), pairs["b"].to_numpy(), n)
    # each component's canonical: the most mentions, then the smallest code
    order = np.lexsort((np.arange(n), -mentions, root))
    lead = order[np.r_[True, root[order][1:] != root[order][:-1]]]
    best = np.empty(n, dtype=np.int64)
    best[root[lead]] = lead
    return ray.data.from_arrow(
        pa.table(
            {
                "pred": nodes.column("pred"),
                "obj_norm": nodes.column("obj"),
                "canonical": nodes.column("obj").take(best[root]),
                "n_mentions": mentions,
            },
            schema=_CANONICAL_SCHEMA,
        )
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


def _endpoints(edges: pa.Table, src_cols, dst_cols) -> tuple[pa.Array, pa.Array]:
    """(pred, obj) of every edge's source, then of every edge's
    destination."""
    return tuple(_cat(edges.column(s), edges.column(d)) for s, d in zip(src_cols, dst_cols))


def _edge_weights(edges: pa.Table, weight_col: str | None) -> np.ndarray:
    """Each edge's float64 weight, 1.0 without ``weight_col``."""
    if weight_col is None:
        return np.ones(edges.num_rows)
    return edges.column(weight_col).cast(pa.float64()).to_numpy()


def _driver_arcs(edges_ds, src_cols, dst_cols, weight_col=None):
    """A materialized edge dataset pulled to the driver once, as both
    directed arcs of every edge over node codes: ``(src, dst, w, nodes)``
    with :func:`_node_codes`' node table."""
    import ray

    cols = [*src_cols, *dst_cols] + ([weight_col] if weight_col else [])
    # an empty exchange partition is a zero-column block
    blocks = [b.select(cols) for b in ray.get(edges_ds.to_arrow_refs()) if b.num_rows]
    edges = pa.concat_tables(blocks, promote_options="permissive")
    codes, nodes = _node_codes(*_endpoints(edges, src_cols, dst_cols))
    m = edges.num_rows
    w = _edge_weights(edges, weight_col)
    return codes, np.concatenate([codes[m:], codes[:m]]), np.concatenate([w, w]), nodes


def _plurality(dst: np.ndarray, lab: np.ndarray, n: int, votes=None):
    """Label votes ``(dst, lab)`` over codes in ``[0, n)``, each worth one
    vote or its ``votes`` entry -> each destination and the label with the
    most votes for it, ties to the smallest label code."""
    keys, inverse = np.unique(dst.astype(np.int64) * n + lab, return_inverse=True)
    total = np.bincount(inverse, weights=votes)
    d, lab = keys // n, keys % n
    order = np.lexsort((lab, -total, d))
    d, lab = d[order], lab[order]
    first = np.r_[True, d[1:] != d[:-1]]
    return d[first], lab[first]


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
    node set is every (pred, obj) entity with at least one edge, a null
    field being a value of its own; ``rank_0(v) = 1/N`` and

        rank_t(v) = (1 - damping)/N
                    + damping * sum_{u -> v} rank_{t-1}(u) / outdeg(u)

    for a FIXED ``n_iter`` iterations (fixed, so the oracle can unroll
    the recurrence).  The symmetrized graph has no dangling nodes
    (every node's reverse arcs give it out-neighbors), so no dangling
    mass term exists and the rank mass stays exactly 1.0.  The final
    score is rounded to 6 decimals (the repo's float-output
    convention); iteration arithmetic stays full-precision float64.

    Node identity: every path numbers the nodes through
    :func:`_node_codes`, an exact Arrow dictionary over (pred, obj), and
    runs the recurrence on int32 arc codes.

    ``driver_max_arcs``: graphs whose directed arc count fits the bound
    take the DRIVER path: the materialized edge columns are pulled once,
    coded, and the recurrence runs as numpy ``bincount`` scatter-adds —
    Ray's fixed per-exchange latency otherwise dominates small graphs
    (measured at sf0.1: 10 exchanges ≈ 7.7 s for a 6-node graph, vs
    <0.1 s driver).  0 forces the distributed rounds (how the registry
    query runs, so the SCALE path is the one value-checked vs DuckDB —
    the same convention as ann_topk_ivf's exhaustive probing); both
    paths are equality-tested on the same graphs in TestPageRank.

    Distributed shape: the directed arcs are sharded ONCE by a crc32
    source shard and MATERIALIZED; one exchange collects each shard's
    distinct nodes (their count is N); every round is then two
    :func:`deduce_ray.ops.agg.shard_exchange` passes — (1) the rank rows
    meet the arcs of their shard, where one numpy merge codes the
    partition's nodes, derives the out-degrees from the arcs (all arcs of
    a source share its shard) and pre-sums the contributions per
    destination; (2) the partials meet under a destination shard, whose
    merge sums them into next round's rank rows, already carrying their
    shard.  Per-round payload is O(nodes + arcs) narrow rows — never the
    corpus; the driver holds only the scalar N.  Rounds materialize so
    the lazy plan does not re-execute the whole history each iteration.

    ``weight_col``: optional per-edge POSITIVE weight (e.g. the
    co-occurrence ``n_docs``) — contributions become
    ``rank(u) * w(u,v) / wdeg(u)`` with ``wdeg`` the weighted
    out-degree.  None (default) is the unweighted recurrence above —
    implemented as weight 1.0 everywhere, so summing weights IS the
    arc count and the unweighted arithmetic (and its DuckDB oracle)
    is bit-identical to before the parameter existed.
    """
    import ray.data

    from deduce_ray.ops.agg import merge_shards, shard_exchange

    if n_shards is None:
        n_shards = merge_shards()
    d = float(damping)
    edges_ds = edges_ds.materialize()
    n_edges = edges_ds.count()
    if not n_edges:
        return ray.data.from_arrow(
            pa.schema([("pred", pa.string()), ("obj", pa.string()), ("score", pa.float64())])
            .empty_table()
        )

    if driver_max_arcs and 2 * n_edges <= driver_max_arcs:
        src, dst, w, nodes = _driver_arcs(edges_ds, src_cols, dst_cols, weight_col)
        n = nodes.num_rows
        deg = np.bincount(src, weights=w, minlength=n)
        r = np.full(n, 1.0 / n)
        for _ in range(int(n_iter)):
            r = (1.0 - d) / n + d * np.bincount(
                dst, weights=r[src] / deg[src] * w, minlength=n
            )
        return ray.data.from_arrow(nodes.append_column("score", pa.array(np.round(r, 6))))

    # one tagged schema: arcs tag 0 (pred/obj = source, dpred/dobj =
    # destination, val = weight); rank rows tag 1 (pred/obj = node)
    def rank_rows(nodes: pa.Table, val: np.ndarray) -> pa.Table:
        none = pa.nulls(nodes.num_rows, pa.string())
        return pa.table(
            {
                "shard": key_shards(nodes.columns, n_shards),
                "pred": nodes.column("pred"),
                "obj": nodes.column("obj"),
                "dpred": none,
                "dobj": none,
                "val": pa.array(val, type=pa.float64()),
                "tag": np.ones(nodes.num_rows, dtype=np.int8),
            }
        )

    def to_arcs(batch: pa.Table) -> pa.Table:
        """Both directed arcs per undirected edge, each carrying the edge
        weight."""
        pred, obj = _endpoints(batch, src_cols, dst_cols)
        m = batch.num_rows
        back = np.r_[m : 2 * m, 0:m]  # each arc's reverse
        w = _edge_weights(batch, weight_col)
        return pa.table(
            {
                "shard": key_shards([pred, obj], n_shards),
                "pred": pred,
                "obj": obj,
                "dpred": pred.take(back),
                "dobj": obj.take(back),
                "val": np.concatenate([w, w]),
                "tag": np.zeros(2 * m, dtype=np.int8),
            }
        )

    arcs = edges_ds.map_batches(
        to_arcs, batch_format="pyarrow", num_cpus=0.9
    ).materialize()

    def source_nodes(rows: pa.Table) -> pa.Table:
        _, nodes = _node_codes(rows.column("pred"), rows.column("obj"))
        return rank_rows(nodes, np.zeros(nodes.num_rows))

    nodes_ds = shard_exchange(arcs, "shard", n_shards, source_nodes).materialize()
    n_nodes = nodes_ds.count()
    base = (1.0 - d) / n_nodes

    def init_ranks(batch: pa.Table) -> pa.Table:
        return batch.set_column(
            batch.schema.get_field_index("val"),
            "val",
            pa.array(np.full(batch.num_rows, 1.0 / n_nodes)),
        )

    ranks = nodes_ds.map_batches(init_ranks, batch_format="pyarrow")

    def contrib(rows: pa.Table) -> pa.Table:
        """Source shards: each node's out-degree from its arcs, then every
        arc's contribution, pre-summed per destination."""
        codes, nodes = _node_codes(rows.column("pred"), rows.column("obj"))
        n = nodes.num_rows
        is_arc = rows.column("tag").to_numpy() == 0
        val = rows.column("val").to_numpy()
        rank = np.zeros(n)
        rank[codes[~is_arc]] = val[~is_arc]
        src, w = codes[is_arc], val[is_arc]
        deg = np.bincount(src, weights=w, minlength=n)
        arc_rows = rows.filter(pa.array(is_arc))
        dst, dst_nodes = _node_codes(arc_rows.column("dpred"), arc_rows.column("dobj"))
        return rank_rows(
            dst_nodes,
            np.bincount(dst, weights=rank[src] / deg[src] * w, minlength=dst_nodes.num_rows),
        )

    def new_ranks(rows: pa.Table) -> pa.Table:
        """Destination shards: total in-contribution -> next rank rows."""
        codes, nodes = _node_codes(rows.column("pred"), rows.column("obj"))
        total = np.bincount(
            codes, weights=rows.column("val").to_numpy(), minlength=nodes.num_rows
        )
        return rank_rows(nodes, base + d * total)

    for _ in range(int(n_iter)):
        partials = shard_exchange(arcs.union(ranks), "shard", n_shards, contrib)
        ranks = shard_exchange(partials, "shard", n_shards, new_ranks).materialize()

    def finish(batch: pa.Table) -> pa.Table:
        v = batch.column("val").to_numpy()
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
    component: the minimum injective form-node id
    (:func:`_form_node_id`, length-prefixed, so separator bytes in
    corpus-derived strings cannot merge nodes) of the component.

    Graphs of at most ``driver_threshold`` edges take the DRIVER path:
    the materialized edge columns are pulled once and coded through
    :func:`_node_codes`, :func:`deduce_ray.ops.dedup._component_roots`
    (the components kernel shared with ``neardup_clusters`` and
    :func:`canonicalize_entities`) labels each node with its component's
    smallest code, and ``np.minimum.at`` takes each component's smallest
    form-node id.

    Above it, the nodes map to their form-node ids, the integer pair
    list runs through :func:`deduce_ray.ops.dedup.neardup_clusters`'
    distributed tier (numpy large-star/small-star rounds on
    ``shard_exchange`` with an edge-set witness), and the string identity
    joins back via ONE node-hash sharded merge of the (id, pred, obj)
    vocabulary against the labels — never a driver pull of either side.
    """
    import pyarrow.compute as pc
    import ray.data

    from deduce_ray.ops.agg import merge_shards, shard_exchange
    from deduce_ray.ops.dedup import neardup_clusters

    if n_shards is None:
        n_shards = merge_shards()

    edges_ds = edges_ds.materialize()
    n_edges = edges_ds.count()
    if not n_edges:
        return ray.data.from_arrow(
            pa.schema(
                [("pred", pa.string()), ("obj", pa.string()), ("component_id", pa.int64())]
            ).empty_table()
        )

    if driver_threshold and n_edges <= driver_threshold:
        src, dst, _, nodes = _driver_arcs(edges_ds, src_cols, dst_cols)
        root = _component_roots(src, dst, nodes.num_rows)
        least = np.full(nodes.num_rows, np.iinfo(np.int64).max)
        np.minimum.at(least, root, _form_node_ids(nodes))
        return ray.data.from_arrow(nodes.append_column("component_id", pa.array(least[root])))

    def to_pairs(batch: pa.Table) -> pa.Table:
        ids, _ = _node_ids(*_endpoints(batch, src_cols, dst_cols))
        n = batch.num_rows
        return pa.table({"id_a": ids[:n], "id_b": ids[n:]})

    def vocab_rows(batch: pa.Table) -> pa.Table:
        # per-batch-distinct (id, pred, obj) rows; exact dedup happens
        # in the sharded join below (all rows of an id share its shard)
        pred, obj = _endpoints(batch, src_cols, dst_cols)
        ids, first = _node_ids(pred, obj)
        node = ids[first]
        return pa.table(
            {
                "node_id": node,
                "pred": pred.take(first),
                "obj": obj.take(first),
                "shard": node % n_shards,
                "component_id": np.zeros(len(node), dtype=np.int64),
                "tag": np.zeros(len(node), dtype=np.int8),
            }
        )

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
            .select(["node_id", "pred", "obj"])
            .group_by(["node_id", "pred", "obj"])
            .aggregate([])
        )
        comps = rows.filter(pc.invert(is_name)).select(["node_id", "component_id"])
        return names.join(comps, keys="node_id").select(["pred", "obj", "component_id"])

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
    the lexicographically smallest (pred, obj) label, a null field
    sorting after every string (DuckDB's default ``NULLS LAST``); a
    FIXED ``n_iter`` rounds (synchronous LPA can oscillate on bipartite
    structures, so the contract is "labels after k rounds", not a
    fixpoint).  The symmetrized graph gives every node >= 1 neighbour.

    Node identity and the tie-break both come from :func:`_node_codes`:
    its codes follow that (pred, obj) order, so the smallest label is
    the smallest code.  ``driver_max_arcs``: the same bounded driver
    path as pagerank (the edge columns pulled once, every round one
    numpy vote count over ``dst * N + label`` keys); 0 forces the
    distributed rounds, equality-tested against it on the same graphs.

    Distributed shape mirrors :func:`pagerank`: arcs sharded ONCE by
    source and materialized, one exchange for the self-labelled nodes,
    then per round two :func:`deduce_ray.ops.agg.shard_exchange`
    passes — labels meet the arcs of their shard, whose numpy merge
    turns them into per-arc votes pre-counted per (destination, label);
    the partial counts meet under a destination shard, whose merge
    picks each destination's winner, which IS next round's label table.
    Per-round payload is O(arcs) narrow string rows.
    """
    import ray.data

    from deduce_ray.ops.agg import merge_shards, shard_exchange

    if n_shards is None:
        n_shards = merge_shards()

    def result(pred, obj, label_pred, label_obj):
        return pa.table(
            {"pred": pred, "obj": obj, "label_pred": label_pred, "label_obj": label_obj}
        )

    edges_ds = edges_ds.materialize()
    n_edges = edges_ds.count()
    if not n_edges:
        none = pa.array([], type=pa.string())
        return ray.data.from_arrow(result(none, none, none, none))

    if driver_max_arcs and 2 * n_edges <= driver_max_arcs:
        src, dst, _, nodes = _driver_arcs(edges_ds, src_cols, dst_cols)
        labels = np.arange(nodes.num_rows)
        for _ in range(int(n_iter)):
            won, label = _plurality(dst, labels[src], nodes.num_rows)
            labels[won] = label
        return ray.data.from_arrow(
            result(*nodes.columns, *nodes.take(labels).columns)
        )

    # one tagged schema: arcs tag 0 (pred/obj = source, dpred/dobj =
    # destination); label rows tag 1 (pred/obj = node, lpred/lobj = its
    # label, n = the votes behind it)
    def label_rows(nodes: pa.Table, labels: pa.Table, votes=None) -> pa.Table:
        m = nodes.num_rows
        none = pa.nulls(m, pa.string())
        return pa.table(
            {
                "shard": key_shards(nodes.columns, n_shards),
                "pred": nodes.column("pred"),
                "obj": nodes.column("obj"),
                "dpred": none,
                "dobj": none,
                "lpred": labels.column("pred"),
                "lobj": labels.column("obj"),
                "n": np.zeros(m, dtype=np.int64) if votes is None else votes,
                "tag": np.ones(m, dtype=np.int8),
            }
        )

    def to_arcs(batch: pa.Table) -> pa.Table:
        pred, obj = _endpoints(batch, src_cols, dst_cols)
        m = 2 * batch.num_rows
        back = np.r_[m // 2 : m, 0 : m // 2]  # each arc's reverse
        none = pa.nulls(m, pa.string())
        return pa.table(
            {
                "shard": key_shards([pred, obj], n_shards),
                "pred": pred,
                "obj": obj,
                "dpred": pred.take(back),
                "dobj": obj.take(back),
                "lpred": none,
                "lobj": none,
                "n": np.zeros(m, dtype=np.int64),
                "tag": np.zeros(m, dtype=np.int8),
            }
        )

    arcs = edges_ds.map_batches(
        to_arcs, batch_format="pyarrow", num_cpus=0.9
    ).materialize()

    def self_labels(rows: pa.Table) -> pa.Table:
        _, nodes = _node_codes(rows.column("pred"), rows.column("obj"))
        return label_rows(nodes, nodes)

    labels = shard_exchange(arcs, "shard", n_shards, self_labels).materialize()

    def votes(rows: pa.Table) -> pa.Table:
        """Source shards: each arc votes its source's label for its
        destination, counted per (destination, label)."""
        codes, nodes = _node_codes(rows.column("pred"), rows.column("obj"))
        is_arc = rows.column("tag").to_numpy() == 0
        label_row = np.full(nodes.num_rows, -1)
        label_row[codes[~is_arc]] = np.flatnonzero(~is_arc)
        arc_at = np.flatnonzero(is_arc)
        row = label_row[codes[arc_at]]
        arc_at, row = arc_at[row >= 0], row[row >= 0]
        k = len(arc_at)
        pair, pair_nodes = _node_codes(
            _cat(rows.column("dpred").take(arc_at), rows.column("lpred").take(row)),
            _cat(rows.column("dobj").take(arc_at), rows.column("lobj").take(row)),
        )
        n = pair_nodes.num_rows
        keys, count = np.unique(pair[:k].astype(np.int64) * n + pair[k:], return_counts=True)
        return label_rows(pair_nodes.take(keys // n), pair_nodes.take(keys % n), count)

    def adopt(rows: pa.Table) -> pa.Table:
        """Destination shards: each destination's most-voted label."""
        k = rows.num_rows
        pair, pair_nodes = _node_codes(
            _cat(rows.column("pred"), rows.column("lpred")),
            _cat(rows.column("obj"), rows.column("lobj")),
        )
        won, label = _plurality(
            pair[:k], pair[k:], pair_nodes.num_rows, rows.column("n").to_numpy()
        )
        return label_rows(pair_nodes.take(won), pair_nodes.take(label))

    for _ in range(int(n_iter)):
        partials = shard_exchange(arcs.union(labels), "shard", n_shards, votes)
        labels = shard_exchange(partials, "shard", n_shards, adopt).materialize()

    def finish(batch: pa.Table) -> pa.Table:
        return result(*(batch.column(c) for c in ("pred", "obj", "lpred", "lobj")))

    return labels.map_batches(finish, batch_format="pyarrow")
