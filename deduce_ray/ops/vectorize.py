"""TF-IDF document vectorization: the model-free text -> vector bridge
into the similarity-search family (ops/similarity.py consumes the dense
form exactly like the embeddings table).

Semantics (mirrored exactly by :func:`deduce_ray.oracles.tfidf_sql`):

    terms(d)   = ASCII-case-folded WORD_RE tokens (top_terms' convention;
                 see textstats.ascii_fold for why not str.lower())
    df(t)      = number of documents containing t
    N          = total document count (null/empty texts included)
    vocab      = top ``vocab_size`` terms by (df DESC, term ASC)
    idf(t)     = ln((N + 1) / (df(t) + 1)) + 1          (smoothed)
    w(d, t)    = count(t in d) * idf(t), L2-normalized over d's vocab
                 terms, rounded to 6 decimals (the repo's float-oracle
                 convention: ln/sqrt agree with DuckDB's libm to <= 1
                 ulp, so a rounding-boundary flip is ~1e-11 per value)

Documents with no vocabulary term emit nothing (no direction — the
same no-evidence convention as the LM scorer).

Scale shape: the document-frequency pass is the vocabulary-build
pattern (per-batch distinct-term combiner -> one md5(term) shard
exchange where each shard owns every row of its terms -> per-shard
top-k -> tiny driver merge of <= n_shards * k candidates).  N rides the
same exchange as a sentinel row (term "" — WORD_RE can never produce
it), so the corpus is read ONCE for the vocabulary.  The vocabulary
broadcasts via ``ray.put`` (idx + idf per term, bounded by vocab_size)
and scoring is one embarrassingly-parallel ``map_batches`` pass.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np
import pyarrow as pa

from deduce_ray.ops.textstats import ascii_fold, resolve_fold, split_words

_N_SENTINEL = ""  # WORD_RE tokens are non-empty, so "" cannot collide


def build_tfidf_vocab(
    ds,
    text_col: str = "text",
    vocab_size: int = 128,
    n_shards: int | None = None,
    casefold: str = "ascii",
) -> dict:
    """Corpus -> ``{"terms": {term: (idx, idf)}, "n_docs": N}``.

    idx is the term's dense-vector position, assigned in (df DESC,
    term ASC) order — deterministic across runs and cluster sizes.
    """
    import pyarrow.compute as pc

    from deduce_ray.ops.agg import key_shards, merge_shards, shard_exchange

    fold = resolve_fold(casefold)
    if vocab_size < 1:
        raise ValueError(f"vocab_size must be >= 1, got {vocab_size}")
    if n_shards is None:
        n_shards = merge_shards()

    def df_batch(batch: pa.Table) -> pa.Table:
        df: Counter = Counter()
        for t in batch.column(text_col).to_pylist():
            df.update(set(split_words(fold(t or ""))))
        # the sentinel row carries this batch's document count so N
        # needs no second corpus pass; it shards like any term
        df[_N_SENTINEL] = batch.num_rows
        terms = pa.array(list(df), type=pa.string())
        return pa.table(
            {
                "term": terms,
                "df": pa.array(list(df.values()), type=pa.int64()),
                "shard": key_shards([terms], n_shards),
            }
        )

    def shard_top(rows: pa.Table) -> pa.Table:
        merged = rows.group_by("term").aggregate([("df", "sum")])
        merged = pa.table({"term": merged["term"], "df": merged["df_sum"]})
        is_n = pc.equal(merged["term"], _N_SENTINEL)
        top = merged.filter(pc.invert(is_n)).sort_by([("df", "descending"), ("term", "ascending")])
        return pa.concat_tables([merged.filter(is_n), top.slice(0, vocab_size)])

    candidates = shard_exchange(
        ds.map_batches(df_batch, batch_format="pyarrow"), "shard", n_shards, shard_top
    )
    rows = candidates.take_all()  # bounded: <= partitions * (vocab_size + 1)
    n_docs = sum(r["df"] for r in rows if r["term"] == _N_SENTINEL)
    top = sorted(
        ((r["term"], r["df"]) for r in rows if r["term"] != _N_SENTINEL),
        key=lambda x: (-x[1], x[0]),
    )[:vocab_size]
    terms = {
        t: (i, math.log((n_docs + 1) / (df + 1)) + 1.0)
        for i, (t, df) in enumerate(top)
    }
    return {"terms": terms, "n_docs": n_docs}


def tfidf_terms(
    ds,
    text_col: str = "text",
    id_col: str = "doc_id",
    vocab_size: int = 128,
    vocab: dict | None = None,
    n_shards: int | None = None,
    casefold: str = "ascii",
):
    """Long-format TF-IDF: one ``(doc_id, term, weight)`` row per
    (document, vocabulary term) occurrence — the SQL-comparable form.
    Pass a prebuilt ``vocab`` (or a ``ray.put`` ObjectRef of one) to
    reuse it across calls."""
    import ray

    from deduce_ray.ops.lm import _resolve_model

    fold = resolve_fold(casefold)
    if vocab is None:
        vocab = build_tfidf_vocab(
            ds, text_col=text_col, vocab_size=vocab_size,
            n_shards=n_shards, casefold=casefold,
        )
    vocab_ref = vocab if isinstance(vocab, ray.ObjectRef) else ray.put(vocab)

    def score(batch: pa.Table) -> pa.Table:
        terms = _resolve_model(vocab_ref, family="vocab")["terms"]
        ids = batch.column(id_col)
        texts = batch.column(text_col).to_pylist()
        out_ids, out_terms, out_w = [], [], []
        for i, t in enumerate(texts):
            cnt = Counter(
                w for w in split_words(fold(t or "")) if w in terms
            )
            if not cnt:
                continue
            items = sorted(cnt.items())
            ws = np.array(
                [c * terms[w][1] for w, c in items], dtype=np.float64
            )
            ws /= math.sqrt(float(ws @ ws))
            doc_id = ids[i].as_py()
            for (w, _c), x in zip(items, np.round(ws, 6)):
                out_ids.append(doc_id)
                out_terms.append(w)
                out_w.append(x)
        return pa.table(
            {
                id_col: pa.array(out_ids, type=ids.type),
                "term": pa.array(out_terms, type=pa.string()),
                "weight": pa.array(out_w, type=pa.float64()),
            }
        )

    return ds.map_batches(score, batch_format="pyarrow")


def tfidf_dense(
    ds,
    text_col: str = "text",
    id_col: str = "doc_id",
    vocab_size: int = 128,
    vocab: dict | None = None,
    n_shards: int | None = None,
    casefold: str = "ascii",
):
    """Dense TF-IDF vectors: ``(doc_id, embedding: list<float>)`` rows in
    the embeddings-table shape, directly consumable by the ANN ops
    (cosine over L2-normalized TF-IDF = the classic sparse-text
    similarity).  Zero-vocab-term documents emit nothing, like
    :func:`tfidf_terms` (a zero vector has no cosine direction)."""
    import ray

    from deduce_ray.ops.lm import _resolve_model

    fold = resolve_fold(casefold)
    if vocab is None:
        vocab = build_tfidf_vocab(
            ds, text_col=text_col, vocab_size=vocab_size,
            n_shards=n_shards, casefold=casefold,
        )
    vocab_ref = vocab if isinstance(vocab, ray.ObjectRef) else ray.put(vocab)

    def score(batch: pa.Table) -> pa.Table:
        terms = _resolve_model(vocab_ref, family="vocab")["terms"]
        d = len(terms)
        ids = batch.column(id_col)
        texts = batch.column(text_col).to_pylist()
        out_ids, out_vecs = [], []
        for i, t in enumerate(texts):
            cnt = Counter(
                w for w in split_words(fold(t or "")) if w in terms
            )
            if not cnt:
                continue
            vec = np.zeros(d, dtype=np.float64)
            for w, c in cnt.items():
                idx, idf = terms[w]
                vec[idx] = c * idf
            vec /= math.sqrt(float(vec @ vec))
            out_ids.append(ids[i].as_py())
            out_vecs.append(np.round(vec, 6).astype(np.float32).tolist())
        return pa.table(
            {
                id_col: pa.array(out_ids, type=ids.type),
                "embedding": pa.array(out_vecs, type=pa.list_(pa.float32())),
            }
        )

    return ds.map_batches(score, batch_format="pyarrow")
