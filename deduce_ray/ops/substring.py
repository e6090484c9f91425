"""Cross-document duplicated-substring detection (Lee et al. 2021,
"Deduplicating Training Data Makes Language Models Better",
arXiv:2107.06499): find the word spans of every document that also occur
verbatim in at least ``min_docs - 1`` OTHER documents, as merged maximal
intervals.  This is substring-level dedup — finer than the whole-doc
(exact) and near-doc (MinHash/SimHash) families in
:mod:`deduce_ray.ops.dedup` — and the standard tool for stripping
boilerplate (license headers, navigation chrome, templated intros) from
a training corpus.

Match semantics are word-sequence equality over the module-wide word
class (:data:`deduce_ray.ops.textstats.WORD_RE`): a window of ``n``
consecutive words is *duplicated* iff the same ``n`` words (joined by
single spaces) appear in >= ``min_docs`` distinct documents.  Duplicated
window positions are merged per document into maximal contiguous
intervals (windows whose starts are <= ``n`` apart chain together).
This is exactly reproducible in SQL, so the ``dup_spans`` query has a
full DuckDB oracle.

Scale shape (the published distributed approximation — suffix arrays do
not distribute; n-gram fingerprints do), two sampling-free exchanges
(:func:`deduce_ray.ops.agg.shard_exchange`):

- a ``map_batches`` pass over each input block emits
  ``(gram_hash, doc_id, pos)`` — 24 bytes per word position, constant
  width, no strings on the wire — tagged with a shard of the gram hash;
- the gram exchange brings every row of a gram hash into one merge,
  which decides each gram exactly: a hash sort, a run-length count that
  drops grams occurring fewer than ``min_docs`` times, then a
  (run, doc) lexsort of the rest counts distinct documents per gram (no
  per-gram Python, no pandas);
- the surviving hit positions (usually a small fraction of the corpus)
  ride a second, doc-sharded exchange whose merge chains them into
  intervals by index arithmetic over a (doc, pos) sort.

The exchange payload is ~32 B x total corpus word count — the honest,
linear cost of substring dedup; nothing is quadratic and no merge holds
more than its partition of the grams in memory.

Gram identity is a 64-bit polynomial combine of memoized md5 word
hashes (:func:`deduce_ray.ops.dedup._word_hashes`); a collision would
need two distinct word sequences in the corpus to share a 64-bit hash
(~(corpus grams)^2 / 2^64 — negligible, and the repo-wide convention
for md5-64 identities).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa


# single positional rolling-hash core, shared with the MinHash shingle
# stage so the gram identity can never drift between the two families
from deduce_ray.ops.dedup import gram_hash_array  # noqa: F401  (re-export)


def _dense_runs(h: np.ndarray) -> np.ndarray:
    """Dense run ids over a SORTED hash array."""
    run_id = np.zeros(len(h), dtype=np.int64)
    if len(h) > 1:
        run_id[1:] = np.cumsum(h[1:] != h[:-1])
    return run_id


def _ndocs_per_run(run_id: np.ndarray, docs: np.ndarray) -> np.ndarray:
    """Distinct-doc count of each row's run, for an ascending ``run_id``:
    one lexsort groups (run, doc) pairs, a first-occurrence mask marks
    each distinct pair once, and a bincount over the marked runs counts
    them."""
    order = np.lexsort((docs, run_id))
    r2 = run_id[order]
    d2 = docs[order]
    first = np.ones(len(r2), dtype=bool)
    if len(r2) > 1:
        first[1:] = (r2[1:] != r2[:-1]) | (d2[1:] != d2[:-1])
    counts = np.bincount(
        r2[first], minlength=int(run_id[-1]) + 1 if len(run_id) else 0
    )
    return counts[run_id]


def _empty_spans_ds(id_col: str):
    import ray.data

    return ray.data.from_arrow(
        pa.table(
            {
                id_col: pa.array([], type=pa.int64()),
                "start_word": pa.array([], type=pa.int64()),
                "end_word": pa.array([], type=pa.int64()),
            }
        )
    )


def duplicated_ngram_spans(
    ds,
    n: int = 13,
    text_col: str = "text",
    id_col: str = "doc_id",
    min_docs: int = 2,
    n_shards: int | None = None,
):
    """Dataset of ``(doc_id, start_word, end_word)`` — one row per
    maximal duplicated span per document, where a span is the union of
    ``n``-word windows shared (verbatim) by >= ``min_docs`` distinct
    documents.  ``end_word`` is exclusive; positions index the
    document's word sequence.  All three columns are int64, also when no
    gram reaches ``min_docs``.

    The span set is computed eagerly inside this call (the result is
    materialized, so its consumers never re-run the gram exchange).
    ``n_shards`` is the hash space of both exchanges (default
    :func:`deduce_ray.ops.agg.merge_shards`)."""
    from deduce_ray.ops.agg import merge_shards, shard_exchange
    from deduce_ray.ops.textstats import split_words

    if n_shards is None:
        n_shards = merge_shards()

    def emit_grams(batch: pa.Table) -> pa.Table:
        texts = batch.column(text_col).to_pylist()
        grams = [gram_hash_array(split_words(t or ""), n) for t in texts]
        lens = np.array([len(g) for g in grams], dtype=np.int64)
        h = np.concatenate([np.empty(0, np.uint64), *grams])
        ids = np.asarray(batch.column(id_col).to_pylist(), dtype=np.int64)
        # a window's position is its row index minus its document's first
        first = np.repeat(np.cumsum(lens) - lens, lens)
        return pa.table(
            {
                "gram_hash": h.view(np.int64),
                id_col: np.repeat(ids, lens),
                "pos": np.arange(len(h), dtype=np.int64) - first,
                "__shard": (h % np.uint64(n_shards)).astype(np.int64),
            }
        )

    def decide_grams(rows: pa.Table) -> pa.Table:
        # every row of a gram hash is in this partition, so each verdict
        # is final; only grams occurring >= min_docs times can span
        # >= min_docs documents, so only those rows pay the (run, doc)
        # lexsort of the distinct-doc count
        h = rows.column("gram_hash").to_numpy()
        docs = rows.column(id_col).to_numpy()
        pos = rows.column("pos").to_numpy()
        order = np.argsort(h)
        run_id = _dense_runs(h[order])
        frequent = np.bincount(run_id)[run_id] >= min_docs
        cand = order[frequent]
        hit = cand[_ndocs_per_run(run_id[frequent], docs[cand]) >= min_docs]
        return pa.table(
            {
                id_col: docs[hit],
                "pos": pos[hit],
                "__shard": docs[hit] % n_shards,
            }
        )

    def merge_intervals(rows: pa.Table) -> pa.Table:
        # (doc, pos) rows are unique: the emitter produces each document
        # position once and the gram verdict keeps or drops it once
        doc = rows.column(id_col).to_numpy()
        pos = rows.column("pos").to_numpy()
        order = np.lexsort((pos, doc))
        doc, pos = doc[order], pos[order]
        brk = np.ones(len(doc), dtype=bool)
        if len(doc) > 1:
            same_doc = doc[1:] == doc[:-1]
            chained = (pos[1:] - pos[:-1]) <= n
            brk[1:] = ~(same_doc & chained)
        # each interval is a contiguous slice of the sorted rows: its
        # start is the break row, its end the row before the next break
        idx = np.nonzero(brk)[0]
        last = np.append(idx[1:] - 1, len(pos) - 1)
        return pa.table(
            {
                id_col: doc[idx],
                "start_word": pos[idx],
                "end_word": pos[last] + n,
            }
        )

    # one call per input block, so every CPU hashes a share of the corpus
    grams = ds.map_batches(emit_grams, batch_format="pyarrow", batch_size=None)
    hits = shard_exchange(grams, "__shard", n_shards, decide_grams)
    spans = shard_exchange(hits, "__shard", n_shards, merge_intervals).materialize()
    if not spans.count():
        # an exchange whose partitions are all empty carries no schema
        return _empty_spans_ds(id_col)
    return spans


def strip_dup_spans(
    ds,
    n: int = 13,
    text_col: str = "text",
    id_col: str = "doc_id",
    min_docs: int = 2,
    spans=None,
    chunk_rows: int = 50_000_000,
):
    """Rewrite the corpus with duplicated spans REMOVED — the cleaning
    step of substring dedup (Lee et al. 2021 strip the repeated
    substring from all but one occurrence; this removes it from every
    document, the symmetric variant that needs no global occurrence
    ordering).  Returns the input rows with ``text_col`` rewritten.

    A document containing duplicated spans is rebuilt as its surviving
    words joined by single spaces (word-level semantics, matching the
    detector); documents with no duplicated span keep their original
    text byte-for-byte.  All other columns pass through unchanged, so
    the op composes inside a wider pipeline (the prep funnel).

    Scale shape: the corpus STREAMS (one map_batches, no full-row
    shuffle); the span side — output of
    :func:`duplicated_ngram_spans`, one row per maximal duplicated
    interval — ships in sorted numpy chunks of at most ``chunk_rows``
    rows via ``ray.put`` (driver holds one chunk at a time, workers
    zero-copy them from plasma), the same bounded broadcast shape as
    the dedup loser anti-join.  At pathological boilerplate rates the
    span count approaches the document count, the identical bound class
    as ``dedup_survivors``' loser set.

    Pass ``spans`` to reuse an already-computed span dataset; ``ds``
    must be re-readable when spans are derived here (detection pass +
    rewrite pass).
    """
    import ray

    from deduce_ray.ops.textstats import split_words

    if spans is None:
        spans = duplicated_ngram_spans(
            ds, n=n, text_col=text_col, id_col=id_col, min_docs=min_docs
        )

    # respect the caller's chunk size (tests exercise the multi-chunk
    # merge path with tiny chunks); the 50M default bounds driver peak
    chunk_rows = max(int(chunk_rows), 1)
    refs, bufs, buffered = [], [], 0

    def _flush():
        nonlocal bufs, buffered
        if not bufs:
            return
        doc = np.concatenate([b[0] for b in bufs])
        start = np.concatenate([b[1] for b in bufs])
        end = np.concatenate([b[2] for b in bufs])
        order = np.lexsort((start, doc))
        refs.append(ray.put((doc[order], start[order], end[order])))
        bufs, buffered = [], 0

    for b in spans.iter_batches(batch_format="pyarrow"):
        if not b.num_rows:
            continue
        bufs.append(
            (
                b.column(id_col).to_numpy(zero_copy_only=False),
                b.column("start_word").to_numpy(zero_copy_only=False),
                b.column("end_word").to_numpy(zero_copy_only=False),
            )
        )
        buffered += b.num_rows
        if buffered >= chunk_rows:
            _flush()
    _flush()

    def rewrite(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        intervals: dict[int, list[tuple[int, int]]] = {}
        for ref in refs:
            doc, start, end = ray.get(ref)
            lo = np.searchsorted(doc, ids, side="left")
            hi = np.searchsorted(doc, ids, side="right")
            for i in np.nonzero(hi > lo)[0]:
                intervals.setdefault(int(ids[i]), []).extend(
                    zip(
                        start[lo[i] : hi[i]].tolist(),
                        end[lo[i] : hi[i]].tolist(),
                    )
                )
        if not intervals:
            return batch
        texts = batch.column(text_col).to_pylist()
        out = []
        for i, t in zip(ids.tolist(), texts):
            spans_i = intervals.get(i)
            if not spans_i:
                out.append(t)
                continue
            words = split_words(t or "")
            keep = np.ones(len(words), dtype=bool)
            for s, e in spans_i:
                keep[s:e] = False
            out.append(" ".join(w for w, k in zip(words, keep) if k))
        # replace the text column in place: every other column passes
        # through untouched
        idx = batch.schema.get_field_index(text_col)
        return batch.set_column(
            idx, text_col, pa.array(out, type=pa.string())
        )

    return ds.map_batches(rewrite, batch_format="pyarrow", num_cpus=0.9)
