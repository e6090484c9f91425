"""N-gram language-model quality scoring (CCNet-style perplexity filter).

The third classic text-quality leg next to the stopword language id and
the heuristic ratio scores (ops/textstats.py): train a bigram count model
over a (reference) corpus, then score every document by the average
add-one-smoothed bigram log-probability — low-probability documents are
gibberish / boilerplate / wrong-register text that heuristic ratios miss
(Wenzek et al. 2020 "CCNet" filter by LM perplexity; Rae et al. 2021 use
the same signal in Gopher's pipeline).

Semantics (mirrored exactly by :func:`deduce_ray.oracles.lm_perplexity_sql`
and the DuckDB parity test):

    words(d)           = WORD_RE tokens of the document (the repo's shared
                         whitespace word class, ops/textstats.py)
    V                  = count(DISTINCT word) over the TRAIN corpus
    c(w1, w2)          = train-corpus count of the adjacent pair
    ctx(w1)            = sum over w2 of c(w1, w2)   (w1's occurrences as a
                         bigram LEFT context; derived from the pair table)
    P(w2 | w1)         = (c(w1, w2) + 1) / (ctx(w1) + V)     (add-one)
    avg_logprob(d)     = mean over d's adjacent pairs of ln P(w2 | w1)
    ppl(d)             = exp(-avg_logprob(d))

Documents with fewer than two words produce NO row (they have no bigram
— the same JOIN semantics the SQL oracle gets for free).  Outputs round
to 4 (avg_logprob) / 2 (ppl) decimals: ``ln`` differs by <= 1 ulp between
numpy and DuckDB's libm, so a 1e-15-scale absolute wobble meets a 5e-5
rounding boundary — per-doc flip probability ~1e-11, negligible even at
cluster scale (the repo's float-oracle convention, cf. pagerank's
round-6).

Scale shape: training is the vocabulary-build pattern (top_terms) — a
per-batch counting COMBINER collapses each block to its distinct pairs,
one sampling-free exchange on w1's key shard merges counts in Arrow (a
shard owns every row of its w1, so ctx sums are complete per shard),
``min_count`` prunes the pair tail at the merge.  The compiled model is
a driver-bounded broadcast (``ray.put`` once, per-worker cache keyed on
the ref) — the same small-side-broadcast shape as the lexicon and the
ANN query matrix; at 100 TB set ``min_count`` so the pruned model fits worker
heap (pruning lowers c and ctx together, biasing scores conservatively
toward the unseen-pair floor; documented, opt-in).  Scoring is one
embarrassingly-parallel ``map_batches`` pass.
"""

from __future__ import annotations

import logging
import math

import numpy as np
import pyarrow as pa

from deduce_ray.ops.textstats import split_words

logger = logging.getLogger(__name__)

_KIND_UNIGRAM = 1
_KIND_BIGRAM = 2


def train_bigram_counts(ds, text_col: str = "text", n_shards: int | None = None,
                        min_count: int = 1):
    """Corpus -> merged count rows ``(kind, w1, w2, n)``.

    kind 1 rows are unigram counts (``w2 == ""`` sentinel — WORD_RE can
    never produce an empty word) and exist so the model knows the exact
    vocabulary size V; kind 2 rows are adjacent-pair counts.  Both kinds
    of one ``w1`` share a :func:`deduce_ray.ops.agg.key_shards` shard, so
    each :func:`deduce_ray.ops.agg.shard_exchange` merge (an Arrow
    ``group_by``, which keeps words that differ only after a NUL apart)
    is complete and exact.  ``min_count`` prunes BIGRAM rows below the
    threshold at the merge (unigrams always survive — pruning vocabulary
    would silently change V and every probability).
    """
    import pyarrow.compute as pc

    from deduce_ray.ops.agg import key_shards, merge_shards, shard_exchange

    if n_shards is None:
        n_shards = merge_shards()
    if min_count < 1:
        raise ValueError(f"min_count must be >= 1, got {min_count}")

    def count_batch(batch: pa.Table) -> pa.Table:
        texts = batch.column(text_col).to_pylist()
        uni: dict[str, int] = {}
        bi: dict[tuple[str, str], int] = {}
        for t in texts:
            ws = split_words(t or "")
            for w in ws:
                uni[w] = uni.get(w, 0) + 1
            for pair in zip(ws, ws[1:]):
                bi[pair] = bi.get(pair, 0) + 1
        w1s = pa.array(list(uni) + [p[0] for p in bi], type=pa.string())
        return pa.table(
            {
                "kind": pa.array(
                    [_KIND_UNIGRAM] * len(uni) + [_KIND_BIGRAM] * len(bi), type=pa.int8()
                ),
                "w1": w1s,
                "w2": pa.array([""] * len(uni) + [p[1] for p in bi], type=pa.string()),
                "n": pa.array(list(uni.values()) + list(bi.values()), type=pa.int64()),
                "shard": key_shards([w1s], n_shards),
            }
        )

    def merge(rows: pa.Table) -> pa.Table:
        merged = rows.group_by(["kind", "w1", "w2"]).aggregate([("n", "sum")])
        merged = pa.table(
            {"kind": merged["kind"], "w1": merged["w1"], "w2": merged["w2"], "n": merged["n_sum"]}
        )
        if min_count > 1:
            keep = pc.or_(
                pc.equal(merged["kind"], _KIND_UNIGRAM), pc.greater_equal(merged["n"], min_count)
            )
            merged = merged.filter(keep)
        return merged

    return shard_exchange(
        ds.map_batches(count_batch, batch_format="pyarrow"), "shard", n_shards, merge
    )


def build_model(counts_ds, driver_max_rows: int = 10_000_000) -> dict:
    """Merged count rows -> the broadcastable model dict
    ``{"bi": {(w1, w2): n}, "ctx": {w1: sum_n}, "vocab": V}``.

    This is a BOUNDED driver materialization (the model IS the small
    side of the broadcast join; it must fit one heap by definition) —
    refuse loudly past ``driver_max_rows`` instead of silently paging:
    the fix at scale is a larger ``min_count``, not a bigger driver.
    """
    bi: dict[tuple[str, str], int] = {}
    vocab = 0
    rows = 0
    for b in counts_ds.iter_batches(batch_format="pyarrow"):
        rows += b.num_rows
        if rows > driver_max_rows:
            raise ValueError(
                f"model exceeds driver_max_rows={driver_max_rows}; "
                "raise min_count (train_bigram_counts) to prune the pair "
                "tail, or raise the bound explicitly"
            )
        kinds = b.column("kind").to_numpy(zero_copy_only=False)
        w1s = b.column("w1").to_pylist()
        w2s = b.column("w2").to_pylist()
        ns = b.column("n").to_numpy(zero_copy_only=False)
        for k, w1, w2, n in zip(kinds, w1s, w2s, ns):
            if k == _KIND_UNIGRAM:
                vocab += 1
            else:
                bi[(w1, w2)] = bi.get((w1, w2), 0) + int(n)
    ctx: dict[str, int] = {}
    for (w1, _w2), n in bi.items():
        ctx[w1] = ctx.get(w1, 0) + n
    return {"bi": bi, "ctx": ctx, "vocab": vocab}


# per-worker-process model cache: the scoring tasks receive an ObjectRef
# and materialize the dict once per worker, not once per batch (the same
# pattern as the annotate stage's lexicon cache).  Capacity 2 PER FAMILY
# (current + previous job's object) with oldest-first eviction: the
# sizing guidance is "one model fits worker heap", so holding many
# heap-sized dicts would defeat it.  Families ("lm", "vocab", ...) get
# independent caches so a worker interleaving an LM model with TF-IDF
# vocabularies does not evict on every alternation and silently degrade
# to one ray.get per batch.
_MODEL_CACHE: dict[str, dict[str, dict]] = {}


def _resolve_model(model, family: str = "lm") -> dict:
    import ray

    if isinstance(model, ray.ObjectRef):
        cache = _MODEL_CACHE.setdefault(family, {})
        key = model.hex()
        cached = cache.get(key)
        if cached is None:
            while len(cache) >= 2:
                evicted = next(iter(cache))
                cache.pop(evicted)
                logger.debug(
                    "model cache [%s]: evicting %s to admit %s "
                    "(capacity 2; thrash here means >2 live broadcast "
                    "objects in this family)",
                    family, evicted[:12], key[:12],
                )
            cached = cache[key] = ray.get(model)
        return cached
    return model


def score_bigram_logprob(ds, model, text_col: str = "text",
                         id_col: str = "doc_id"):
    """Score every document against a trained model: one streaming
    ``map_batches`` pass, no shuffle.  ``model`` is the dict from
    :func:`build_model` or a ``ray.put`` ObjectRef of it (broadcast once).
    Documents with < 2 words emit no row."""

    def score_batch(batch: pa.Table) -> pa.Table:
        m = _resolve_model(model)
        bi, ctx, vocab = m["bi"], m["ctx"], m["vocab"]
        texts = batch.column(text_col).to_pylist()
        ids = batch.column(id_col)
        out_ids, out_n, out_avg, out_ppl = [], [], [], []
        log = math.log
        for i, t in enumerate(texts):
            ws = split_words(t or "")
            if len(ws) < 2:
                continue
            if vocab == 0:
                # P(w2|w1) = (c+1)/(ctx+V) with V=0 and ctx=0 would be a
                # ZeroDivisionError deep inside a Ray task; say what the
                # actual problem is instead
                raise ValueError(
                    "LM model has an empty vocabulary (trained on an "
                    "empty or all-null corpus) but the corpus being "
                    "scored has multi-word documents"
                )
            total = 0.0
            n_pairs = len(ws) - 1
            for pair in zip(ws, ws[1:]):
                total += log(
                    (bi.get(pair, 0) + 1) / (ctx.get(pair[0], 0) + vocab)
                )
            avg = total / n_pairs
            out_ids.append(ids[i].as_py())
            out_n.append(n_pairs)
            out_avg.append(round(avg, 4))
            out_ppl.append(round(math.exp(-avg), 2))
        return pa.table(
            {
                "doc_id": pa.array(out_ids, type=ids.type),
                "n_bigrams": pa.array(out_n, type=pa.int64()),
                "avg_logprob": pa.array(np.asarray(out_avg, dtype=np.float64)),
                "ppl": pa.array(np.asarray(out_ppl, dtype=np.float64)),
            }
        )

    return ds.map_batches(score_batch, batch_format="pyarrow")


def lm_perplexity(ds, text_col: str = "text", id_col: str = "doc_id",
                  min_count: int = 1, n_shards: int | None = None,
                  driver_max_rows: int = 10_000_000):
    """Self-perplexity over one corpus: train the bigram model on ``ds``
    and score the same ``ds`` against it (the shape the DuckDB parity
    check verifies end-to-end; a production filter would train on a
    held-out reference corpus and pass the model to
    :func:`score_bigram_logprob` directly)."""
    import ray

    counts = train_bigram_counts(
        ds, text_col=text_col, n_shards=n_shards, min_count=min_count
    )
    model_ref = ray.put(build_model(counts, driver_max_rows=driver_max_rows))
    return score_bigram_logprob(ds, model_ref, text_col=text_col, id_col=id_col)
