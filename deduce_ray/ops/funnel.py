"""The canonical LLM training-data preparation funnel, composed from this
engine's operators as ONE streaming pipeline:

    corpus -> language filter -> quality filter -> exact dedup
           -> substring strip (optional) -> MinHash near-dup removal
           -> surviving rows

Substring stripping runs BEFORE the MinHash pass on purpose: shared
boilerplate (license headers, navigation chrome) that is large enough
to collide LSH band buckets but below the Jaccard threshold creates
quadratic candidate blowup in the verify stage (measured: 20k docs
sharing a 40-word header among 100k docs runs for >10 minutes);
stripping the duplicated spans first removes the shared mass, so the
buckets reflect the documents' real bodies.  ``max_bucket`` (off by
default, like every output-changing cap in this repo) is the residual
safety net for boilerplate the strip cannot see (shared runs shorter
than the n-gram window); the prep CLI enables it at 4096 as its
disclosed production default.

Every stage is the already-oracled primitive (textstats heuristics,
dedup_survivors' loser anti-join, minhash_lsh_pairs + neardup_clusters);
this module only supplies the glue, filter predicates, and the near-dup
loser selection.  The EXPENSIVE language/quality predicate runs exactly
once: its failing ids broadcast as bounded sorted chunks (the same
ray.put shape as the dedup losers) and every pass applies only the
cheap searchsorted anti-join.  With the default ``checkpoint=True`` the
filtered/survivor sets are materialized into the (spill-backed) object
store between the multi-consume stages — at beyond-RAM corpus sizes
that is object-store spill, not heap; ``checkpoint=False`` keeps every
stage a lazy re-execution instead.

Cluster-loser semantics: the MinHash and the semantic stage both end in
:func:`_cluster_loser_refs`.  With ``neardup_keep="min_id"`` the minimum
doc id of every near-dup cluster survives (``neardup_clusters`` labels
components by their min id, so a loser is simply a row whose id differs
from its cluster id); with ``"longest"`` the member with the most
characters does, ties to the smaller id, picked in one exchange keyed by
cluster.  No pandas frame is built.
"""

from __future__ import annotations

import pyarrow as pa


def _failing_ids_fn(
    text_col: str,
    id_col: str,
    langs: tuple[str, ...] | None,
    min_chars: int,
    max_digit_ppm: int | None,
    max_dup_line_ppm: int | None = None,
    max_top_2gram_ppm: int | None = None,
    max_dup_5gram_ppm: int | None = None,
):
    from deduce_ray.ops.textstats import (
        _DIGIT_RE,
        _gram_ppms,
        predict_lang,
        repetition_signals,
        split_words,
    )

    rep_all = all(
        v is not None
        for v in (max_dup_line_ppm, max_top_2gram_ppm, max_dup_5gram_ppm)
    )

    def rep_fails(t: str) -> bool:
        # compute only the enabled signals: the gram Counters dominate
        # this pass's per-doc cost, so a line-cap-only run must not pay
        # for 2-gram AND 5-gram counting it will discard
        if rep_all:
            _, dl, _, t2, d5 = repetition_signals(t)
            return (
                dl > max_dup_line_ppm
                or t2 > max_top_2gram_ppm
                or d5 > max_dup_5gram_ppm
            )
        if max_dup_line_ppm is not None:
            lines = [ln for ln in t.split("\n") if ln]
            if lines:
                dl = ((len(lines) - len(set(lines))) * 1_000_000) // len(
                    lines
                )
                if dl > max_dup_line_ppm:
                    return True
        if max_top_2gram_ppm is not None or max_dup_5gram_ppm is not None:
            ws = split_words(t)
            if (
                max_top_2gram_ppm is not None
                and _gram_ppms(ws, 2)[0] > max_top_2gram_ppm
            ):
                return True
            if (
                max_dup_5gram_ppm is not None
                and _gram_ppms(ws, 5)[1] > max_dup_5gram_ppm
            ):
                return True
        return False

    rep_on = any(
        v is not None
        for v in (max_dup_line_ppm, max_top_2gram_ppm, max_dup_5gram_ppm)
    )

    def failing(batch: pa.Table) -> pa.Table:
        texts = batch.column(text_col).to_pylist()
        mask = []
        for t in texts:
            t = t or ""
            n = len(t)
            if n < min_chars:
                mask.append(True)
                continue
            # n == 0 passes a min_chars <= 0 gate; treat its digit ratio
            # as 0 (the same guard textstats.quality_batch applies)
            if max_digit_ppm is not None and n:
                d = len(_DIGIT_RE.findall(t))
                if (d * 1_000_000) // n > max_digit_ppm:
                    mask.append(True)
                    continue
            if langs is not None and predict_lang(t) not in langs:
                mask.append(True)
                continue
            if rep_on and rep_fails(t):
                mask.append(True)
                continue
            mask.append(False)
        return pa.table(
            {id_col: batch.column(id_col).filter(pa.array(mask, type=pa.bool_()))}
        )

    return failing


def _cluster_loser_refs(survivors, labels, text_col: str, id_col: str,
                        keep: str, loser_broadcast_max: int):
    """ray.put sorted-id chunk refs of every near-dup cluster member
    except its representative, for the MinHash and the semantic stage
    alike.  ``labels`` are :func:`neardup_clusters` rows
    ``(doc_id, cluster_id)``, bounded by the near-duplicate mass, never
    the corpus.

    ``keep="min_id"`` keeps the component minimum: a loser is a row whose
    id differs from its cluster id, a row-local test however the labels
    are split into blocks.  ``keep="longest"`` keeps the member with the
    most characters, ties to the smaller id (the CCNet/RefinedWeb-style
    quality heuristic: boilerplate-trimmed copies and truncated mirrors
    lose to the fullest text).  The labels broadcast as sorted chunks,
    one corpus pass tags every member with its cluster and length, and
    one :func:`deduce_ray.ops.agg.shard_exchange` keyed by cluster picks
    each winner with ``np.lexsort((doc_id, -n_chars, cluster_id))``."""
    import numpy as np
    import pyarrow.compute as pc
    import ray

    from deduce_ray.ops.agg import merge_shards, shard_exchange
    from deduce_ray.ops.dedup import _chunked_id_refs, _int64, _probe

    if keep == "min_id":
        losers = labels.map_batches(
            lambda b: b.filter(pc.not_equal(b.column("doc_id"), b.column("cluster_id"))).select(["doc_id"]),
            batch_format="pyarrow",
        )
        return _chunked_id_refs(losers, "doc_id", loser_broadcast_max)

    # (doc_id, cluster_id) chunks in doc_id order: the driver holds one
    label_refs = _chunked_id_refs(labels, "doc_id", loser_broadcast_max, payload="cluster_id")
    if not label_refs:
        return []
    n_shards = merge_shards()

    def members(batch: pa.Table) -> pa.Table:
        ids = _int64(batch.column(id_col))
        cluster = np.zeros(len(ids), dtype=np.int64)
        found = np.zeros(len(ids), dtype=bool)
        for ref in label_refs:
            doc, clu = ray.get(ref)
            pos, hit = _probe(doc, ids)
            cluster[hit], found = clu[pos[hit]], found | hit
        # an all-null block's column is null-typed, which utf8_length rejects
        n_chars = pc.fill_null(pc.utf8_length(batch.column(text_col).cast(pa.string())), 0).to_numpy()
        return pa.table(
            {
                "shard": np.mod(cluster[found], n_shards),
                "cluster_id": cluster[found],
                "doc_id": ids[found],
                "n_chars": n_chars[found].astype(np.int64),
            }
        )

    def pick_losers(rows: pa.Table) -> pa.Table:
        cluster, doc, n_chars = (_int64(rows.column(c)) for c in ("cluster_id", "doc_id", "n_chars"))
        order = np.lexsort((doc, -n_chars, cluster))
        cluster = cluster[order]
        loser = np.zeros(len(order), dtype=bool)
        loser[1:] = cluster[1:] == cluster[:-1]
        return pa.table({"doc_id": doc[order][loser]})

    tagged = survivors.map_batches(members, batch_format="pyarrow")
    losers = shard_exchange(tagged, "shard", n_shards, pick_losers)
    return _chunked_id_refs(losers, "doc_id", loser_broadcast_max)


def prep_corpus(
    ds,
    text_col: str = "text",
    id_col: str = "doc_id",
    langs: tuple[str, ...] | None = None,
    min_chars: int = 1,
    max_digit_ppm: int | None = None,
    max_dup_line_ppm: int | None = None,
    max_top_2gram_ppm: int | None = None,
    max_dup_5gram_ppm: int | None = None,
    minhash_threshold: float | None = 0.7,
    neardup_keep: str = "min_id",
    strip_dup_ngrams: int | None = None,
    max_bucket: int | None = None,
    minhash_bands: int | None = None,
    max_ppl: float | None = None,
    lm_min_count: int = 1,
    semantic_threshold: float | None = None,
    embed_dim: int = 32,
    checkpoint: bool = True,
    loser_broadcast_max: int = 50_000_000,
):
    """Run the funnel; returns the surviving corpus Dataset.

    ``checkpoint`` (default on) materializes the survivor set into the
    object store after the exact-dedup and strip stages.  The funnel's
    later passes each re-execute their input pipeline; without a
    checkpoint that means re-reading and re-filtering the raw corpus
    ~6x (measured on a 1M-doc boilerplate corpus: 253 s lazy vs 89 s
    checkpointed).  Materialized blocks spill to disk under memory
    pressure, so this holds at corpus sizes beyond RAM; pass False to
    trade recompute for zero object-store footprint.

    ``langs=None`` / ``max_digit_ppm=None`` / ``minhash_threshold=None``
    disable the corresponding stage.  ``strip_dup_ngrams`` (e.g. 13)
    enables substring-level dedup between the exact and near-dup passes:
    word spans shared verbatim by >= 2 exact-dedup survivors are
    stripped from all of them BEFORE MinHash (see the module docstring
    for why the order matters).  ``max_bucket`` caps LSH bucket
    membership in the near-dup pass (logged drops) — like every
    output-changing cap in this repo it is OFF by default so results
    stay exact; boilerplate-heavy corpora should set it (the prep CLI
    defaults to 4096, disclosed in its --help) or enable
    ``strip_dup_ngrams``, which removes the shared mass before LSH.
    ``minhash_bands`` overrides the LSH banding (None keeps the library
    default 32x2): corpora where a short phrase appears in nearly every
    document should use fewer/wider bands (e.g. 16 -> r=4) — with r=2
    the ubiquitous-phrase band buckets grow Theta(n) and the rejected
    candidates Theta(n^2) (measured; see minhash_lsh_pairs and
    scripts/stress_funnel.py).

    ``neardup_keep`` picks each near-dup cluster's survivor:
    ``"min_id"`` (default) or ``"longest"`` (max characters, ties to
    the smaller id — keep the fullest copy, the quality-aware
    convention; see _cluster_loser_refs).

    ``max_dup_line_ppm`` / ``max_top_2gram_ppm`` / ``max_dup_5gram_ppm``
    enable the Gopher-style repetition filters inside the SAME single
    expensive predicate pass as the language/digit gates (one streaming
    read, failing ids broadcast once): documents whose duplicate-line
    fraction, heaviest-2-gram mass, or duplicated-5-gram mass exceeds
    the ppm threshold are dropped (textstats.repetition_signals — the
    exact contract the oracled ``doc_repetition`` query value-checks).

    ``semantic_threshold`` enables the semantic near-dup stage between
    the MinHash pass and the LM filter: the corpus is embedded by the
    actor-pool hashing encoder (ops/embed.py, ``embed_dim`` components)
    and cosine near-duplicate clusters above the threshold keep only
    their representative (``neardup_keep`` applies here too) — catching word-reordered/paraphrase-shaped
    duplicates that shingle space misses.

    ``max_ppl`` enables the CCNet-style LM quality filter as the LAST
    stage: a bigram model self-trains on the deduplicated survivors
    (training before dedup would let duplicate mass bias the counts)
    and documents whose perplexity exceeds the threshold are dropped.
    Documents with < 2 words have no perplexity and always survive this
    stage (no evidence either way).  ``lm_min_count`` prunes the model's
    bigram tail at scale (ops/lm.py — pruning keeps results
    deterministic but is output-changing, so it is 1/off by default).

    The input must satisfy the module-wide doc-id contract (unique,
    non-null, non-negative int64 ids) and be re-readable (it is consumed
    by multiple passes, like
    :func:`deduce_ray.ops.dedup.dedup_survivors`).
    """
    from deduce_ray.ops.dedup import (
        _chunked_id_refs,
        _drop_ids,
        dedup_survivors,
        minhash_lsh_pairs,
        neardup_clusters,
    )

    if neardup_keep not in ("min_id", "longest"):
        raise ValueError(f"keep must be 'min_id' or 'longest', got {neardup_keep!r}")
    rep_caps = (max_dup_line_ppm, max_top_2gram_ppm, max_dup_5gram_ppm)
    if (
        langs is not None
        or min_chars > 1
        or max_digit_ppm is not None
        or any(v is not None for v in rep_caps)
    ):
        fail_ds = ds.map_batches(
            _failing_ids_fn(
                text_col, id_col, langs, min_chars, max_digit_ppm, *rep_caps
            ),
            batch_format="pyarrow",
        )
        refs = _chunked_id_refs(fail_ds, id_col, loser_broadcast_max)
        filtered = _drop_ids(ds, refs, id_col) if refs else ds
        if checkpoint:
            # dedup_survivors consumes its input twice; without this the
            # raw read + filter re-executes for each pass
            filtered = filtered.materialize()
    else:
        filtered = ds
    survivors = dedup_survivors(
        filtered,
        text_col=text_col,
        id_col=id_col,
        loser_broadcast_max=loser_broadcast_max,
    )
    if checkpoint and (strip_dup_ngrams or minhash_threshold is not None):
        survivors = survivors.materialize()
    if strip_dup_ngrams:
        from deduce_ray.ops.substring import strip_dup_spans

        survivors = strip_dup_spans(
            survivors,
            n=strip_dup_ngrams,
            text_col=text_col,
            id_col=id_col,
            chunk_rows=loser_broadcast_max,
        )
        if checkpoint and minhash_threshold is not None:
            survivors = survivors.materialize()
    if minhash_threshold is None:
        out = survivors
    else:
        # near-dup pass runs over the exact-dedup (and, when enabled,
        # substring-stripped) SURVIVORS: collapse already removed
        # byte-identical copies and the strip removed shared boilerplate,
        # so LSH buckets reflect each document's real body
        kwargs = {} if minhash_bands is None else {"bands": minhash_bands}
        pairs = minhash_lsh_pairs(
            survivors, text_col=text_col, id_col=id_col,
            threshold=minhash_threshold, max_bucket=max_bucket, **kwargs,
        )
        refs = _cluster_loser_refs(
            survivors, neardup_clusters(pairs), text_col, id_col,
            neardup_keep, loser_broadcast_max,
        )
        out = _drop_ids(survivors, refs, id_col) if refs else survivors
    if semantic_threshold is not None:
        out = _semantic_loser_filter(
            out, text_col, id_col, float(semantic_threshold),
            embed_dim, loser_broadcast_max, checkpoint, neardup_keep,
        )
    if max_ppl is None:
        return out
    return _lm_ppl_filter(
        out, text_col, id_col, float(max_ppl), lm_min_count,
        loser_broadcast_max, checkpoint,
    )


def _semantic_loser_filter(out, text_col, id_col, threshold, dim,
                           loser_broadcast_max, checkpoint, keep):
    """Semantic near-dup stage: embed the surviving corpus (actor-pool
    inference, ops/embed.py), find cosine near-duplicate clusters via
    hyperplane LSH, keep each cluster's representative
    (:func:`_cluster_loser_refs`).  Runs AFTER the MinHash pass:
    shingle-level near-dups are already gone, so this catches only
    reorderings/paraphrases the n-gram space missed (the bag-of-words
    hashing encoder maps word-permuted documents to the SAME vector —
    cosine exactly 1.0, LSH recall 1).  The survivor set is consumed
    twice (embed + final anti-join), so it checkpoints first."""
    from deduce_ray.ops.dedup import (
        _drop_ids,
        embedding_neardup_pairs,
        neardup_clusters,
    )
    from deduce_ray.ops.embed import embed_documents

    if checkpoint:
        out = out.materialize()
    emb = embed_documents(out, text_col=text_col, id_col=id_col, dim=dim)
    pairs = embedding_neardup_pairs(
        emb, id_col=id_col, vec_col="embedding", threshold=threshold
    )
    refs = _cluster_loser_refs(
        out, neardup_clusters(pairs), text_col, id_col, keep, loser_broadcast_max
    )
    return _drop_ids(out, refs, id_col) if refs else out


def _lm_ppl_filter(out, text_col, id_col, max_ppl, lm_min_count,
                   loser_broadcast_max, checkpoint):
    """Drop documents whose self-trained bigram perplexity exceeds
    ``max_ppl`` (see :mod:`deduce_ray.ops.lm`).  The survivor set is
    consumed three times here (model train, scoring, final anti-join),
    so it is checkpointed first."""
    import pyarrow.compute as pc

    from deduce_ray.ops.dedup import _chunked_id_refs, _drop_ids
    from deduce_ray.ops.lm import lm_perplexity

    if checkpoint:
        out = out.materialize()
    scored = lm_perplexity(
        out, text_col=text_col, id_col=id_col, min_count=lm_min_count
    )

    def high_ppl_ids(batch: pa.Table) -> pa.Table:
        bad = batch.filter(pc.greater(batch.column("ppl"), max_ppl))
        return bad.select(["doc_id"]).rename_columns([id_col])

    bad_ids = scored.map_batches(high_ppl_ids, batch_format="pyarrow")
    refs = _chunked_id_refs(bad_ids, id_col, loser_broadcast_max)
    return _drop_ids(out, refs, id_col) if refs else out
