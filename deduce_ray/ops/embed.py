"""Model-based document embeddings: the text -> dense-vector inference
stage that bridges raw content into the similarity / semantic-dedup
family (ops/similarity.py and ops/dedup.embedding_neardup_pairs consume
the output exactly like the driver ``embeddings`` table).

The stage is an ACTOR-POOL ``map_batches`` — the encoder is constructed
once per actor in ``__init__`` (the model-load slot), batches flow
through ``__call__``.  That is the standard shape for a GPU/transformer
encoder; this container has no model runtime, so the default encoder is
the signed feature-hashing model (the "hashing trick", Weinberger et
al. 2009 — public knowledge), which is deterministic, seed-free, and
SQL-expressible, making ``doc_embed`` fully value-checkable:

    words(d)  = ASCII-case-folded WORD_RE tokens (the tfidf convention)
    h64(w)    = big-endian first 8 bytes of md5(w)   (the repo-wide
                hash convention, = ('0x' || substr(md5(w),1,16))::UBIGINT)
    dim(w)    = h64(w) % dim
    sign(w)   = +1 if h64(w) < 2^63 else -1          (top bit)
    v[j](d)   = sum over occurrences of words w with dim(w) = j of sign(w)
    e(d)      = v / ||v||_2                          (L2-normalized)

Documents whose vector has zero norm (no words, or exact sign
cancellation) emit nothing — no direction, no embedding (the same
no-evidence convention as tfidf/LM).

A real model slot (``model="onnx"``) is gated behind an import-try: the
Ray plumbing (actor pool, batch size, output schema) is identical; only
the per-batch encode differs.

Scale shape: one embarrassingly-parallel actor-pool pass, no shuffle.
Actor state holds the encoder plus a bounded word -> (dim, sign) memo
(hash work runs once per distinct word per actor — Zipf makes this the
dominant case).  Output is (id, list<float32>) — 4*dim bytes/doc, so
even dim=512 at 100 TB exchanges only the narrow embedding table.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa

from deduce_ray.ops.textstats import ascii_fold, split_words

_MEMO_CAP = 1_000_000


class HashingEncoder:
    """Callable-class stage for ``map_batches(..., concurrency=N)``.

    ``__init__`` runs once per actor: it "loads" the model (for the
    hashing model that is just fixing dim and allocating the memo; an
    ONNX/transformer slot would read weights here) — per-batch work in
    ``__call__`` never re-initializes.
    """

    def __init__(
        self,
        dim: int = 32,
        text_col: str = "text",
        id_col: str = "doc_id",
        model: str = "hashing",
    ) -> None:
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        if model == "onnx":
            try:
                import onnxruntime  # noqa: F401
            except ImportError as e:
                raise NotImplementedError(
                    "model='onnx' requires onnxruntime, which this "
                    "environment does not provide; use model='hashing'"
                ) from e
            raise NotImplementedError(
                "onnx encoder slot is plumbing-complete but has no "
                "bundled model; use model='hashing'"
            )
        if model != "hashing":
            raise ValueError(f"unknown embedding model {model!r}")
        self.dim = dim
        self.text_col = text_col
        self.id_col = id_col
        # word -> (dim index, sign); lives for the actor's lifetime
        self._memo: dict[str, tuple[int, float]] = {}

    def _slot(self, word: str) -> tuple[int, float]:
        cached = self._memo.get(word)
        if cached is None:
            if len(self._memo) > _MEMO_CAP:
                self._memo.clear()
            h64 = int.from_bytes(
                hashlib.md5(word.encode()).digest()[:8], "big"
            )
            cached = (h64 % self.dim, 1.0 if h64 < 1 << 63 else -1.0)
            self._memo[word] = cached
        return cached

    def encode(self, text: str | None) -> np.ndarray | None:
        """One document -> unit vector (float64 internally), or None
        when the vector has no direction."""
        if not text:
            return None
        v = np.zeros(self.dim, dtype=np.float64)
        slot = self._slot
        for w in split_words(ascii_fold(text)):
            j, s = slot(w)
            v[j] += s
        nrm = float(np.sqrt(np.dot(v, v)))
        if nrm == 0.0:
            return None
        return v / nrm

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch.column(self.id_col)
        texts = batch.column(self.text_col).to_pylist()
        out_ids, out_vecs = [], []
        for i, t in enumerate(texts):
            e = self.encode(t)
            if e is None:
                continue
            out_ids.append(ids[i].as_py())
            out_vecs.append(e.astype(np.float32))
        return pa.table(
            {
                self.id_col: pa.array(
                    out_ids, type=batch.schema.field(self.id_col).type
                ),
                "embedding": pa.array(
                    [v.tolist() for v in out_vecs],
                    type=pa.list_(pa.float32()),
                ),
            }
        )


def embed_documents(
    ds,
    text_col: str = "text",
    id_col: str = "doc_id",
    dim: int = 32,
    model: str = "hashing",
    concurrency: int | None = None,
    batch_size: int = 1024,
):
    """Corpus -> (id, embedding list<float32>) Dataset via the actor
    pool.  ``concurrency=None`` sizes the pool to the cluster's CPUs
    (Ray requires an explicit pool size for callable classes); pass an
    int to pin the actor count for heavyweight models."""
    import ray

    if concurrency is None:
        concurrency = max(1, int(ray.cluster_resources().get("CPU", 4)))
    kwargs: dict = {
        "batch_format": "pyarrow",
        "batch_size": batch_size,
        "concurrency": concurrency,
    }
    return ds.map_batches(
        HashingEncoder,
        fn_constructor_kwargs={
            "dim": dim, "text_col": text_col, "id_col": id_col,
            "model": model,
        },
        **kwargs,
    )


def embed_terms(
    ds,
    text_col: str = "text",
    id_col: str = "doc_id",
    dim: int = 32,
):
    """Long-format view for value-checking: one row per NONZERO
    embedding component, weight rounded to 6 decimals (the repo's
    float-oracle convention)."""

    def expand(batch: pa.Table) -> pa.Table:
        enc = HashingEncoder(dim=dim, text_col=text_col, id_col=id_col)
        ids = batch.column(id_col)
        texts = batch.column(text_col).to_pylist()
        out_ids, out_dims, out_w = [], [], []
        for i, t in enumerate(texts):
            e = enc.encode(t)
            if e is None:
                continue
            doc = ids[i].as_py()
            for j in np.flatnonzero(e):
                out_ids.append(doc)
                out_dims.append(int(j))
                out_w.append(round(float(e[j]), 6))
        return pa.table(
            {
                id_col: pa.array(out_ids, type=pa.int64()),
                "dim_idx": pa.array(out_dims, type=pa.int64()),
                "weight": pa.array(out_w, type=pa.float64()),
            }
        )

    return ds.map_batches(expand, batch_format="pyarrow")


def sign_sql(h64: str) -> str:
    """DuckDB mirror of the engine's slot sign (``h64 < 1 << 63``).  The
    bound is a UBIGINT literal: ``2 ** 63`` is DOUBLE in DuckDB, and the
    comparison then rounds ``h64`` to the nearest double, so the top 512
    values below 2**63 read as -1.0."""
    return f"CASE WHEN {h64} < 9223372036854775808::UBIGINT THEN 1.0 ELSE -1.0 END"


def embed_sql(dim: int = 32) -> str:
    """DuckDB mirror of :func:`embed_terms` — recomputes every weight
    from md5, value-checking the whole encode path."""
    from deduce_ray.oracles import SQL_ASCII_LOWER, WORD_CLASS_SQL

    return f"""
        WITH w AS (
          SELECT doc_id,
                 unnest(list_transform(
                   regexp_extract_all(coalesce(text, ''),
                                      '{WORD_CLASS_SQL}'),
                   x -> {SQL_ASCII_LOWER.format('x')})) AS word
          FROM documents
        ),
        slot AS (
          SELECT doc_id,
                 CAST(('0x' || substr(md5(word), 1, 16)) AS UBIGINT)
                   AS h64
          FROM w
        ),
        comp AS (
          SELECT doc_id,
                 CAST(h64 % {int(dim)} AS BIGINT) AS dim_idx,
                 sum({sign_sql('h64')}) AS v
          FROM slot GROUP BY doc_id, dim_idx
        ),
        nrm AS (
          SELECT doc_id, sqrt(sum(v * v)) AS l2 FROM comp
          GROUP BY doc_id
        )
        SELECT comp.doc_id, comp.dim_idx, round(comp.v / nrm.l2, 6) AS weight
        FROM comp JOIN nrm USING (doc_id)
        WHERE comp.v != 0 AND nrm.l2 > 0
    """
