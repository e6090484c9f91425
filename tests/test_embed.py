"""Model-based embedding stage (ops/embed.py): encoder determinism and
DuckDB parity, the actor-pool Ray path, the similarity-family bridge,
and the semantic-dedup funnel stage (word-permuted duplicates embed
identically, so the stage catches what shingle space misses)."""

from __future__ import annotations

import os
import sys

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def test_encoder_contract():
    from deduce_ray.ops.embed import HashingEncoder

    enc = HashingEncoder(dim=16)
    v = enc.encode("alpha beta beta gamma")
    assert v is not None and v.shape == (16,)
    assert abs(float(np.linalg.norm(v)) - 1.0) < 1e-12
    # bag-of-words: word order does not change the vector
    p = enc.encode("beta gamma alpha beta")
    assert np.allclose(v, p)
    # case folds (tfidf convention)
    assert np.allclose(v, enc.encode("ALPHA beta BETA gamma"))
    # no-direction inputs emit nothing
    assert enc.encode("") is None
    assert enc.encode(None) is None
    # determinism across instances (no seed, md5-derived)
    assert np.allclose(v, HashingEncoder(dim=16).encode("alpha beta beta gamma"))


def test_encoder_rejects_bad_config():
    import pytest

    from deduce_ray.ops.embed import HashingEncoder

    with pytest.raises(ValueError):
        HashingEncoder(dim=0)
    with pytest.raises(ValueError):
        HashingEncoder(model="word2vec")
    with pytest.raises(NotImplementedError):
        HashingEncoder(model="onnx")  # no runtime in this container


def test_embed_documents_actor_pool(ray_session, tmp_path):
    """The Ray path (explicit actor pool) equals the driver-side
    encoder, and null/empty texts drop."""
    import ray.data

    from deduce_ray.ops.embed import HashingEncoder, embed_documents

    t = pa.table(
        {
            "doc_id": pa.array([1, 2, 3, 4], type=pa.int64()),
            "text": ["aa bb cc", "cc bb aa", None, ""],
        }
    )
    out = embed_documents(
        ray.data.from_arrow(t), dim=8, concurrency=2, batch_size=2
    ).to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert list(out["doc_id"]) == [1, 2]
    enc = HashingEncoder(dim=8)
    want = enc.encode("aa bb cc").astype(np.float32)
    assert np.allclose(np.asarray(out["embedding"][0]), want)
    # permutation -> identical vector
    assert np.allclose(np.asarray(out["embedding"][1]), want)


def test_embed_terms_duckdb_parity(ray_session, tmp_path):
    """Long-format weights vs the md5-recomputing SQL oracle on a mixed
    corpus (unicode, nulls, repetition)."""
    import duckdb
    import pandas as pd
    import ray.data

    from deduce_ray.ops.embed import embed_sql, embed_terms

    t = pa.table(
        {
            "doc_id": pa.array([10, 20, 30, 40, 50], type=pa.int64()),
            "text": [
                "Sign CANCEL sign cancel sign",
                "İstanbul café naïve emoji \U0001f600",
                None,
                "x " * 500,
                "one",
            ],
        }
    )
    path = str(tmp_path / "documents.parquet")
    pq.write_table(t, path)
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM read_parquet('{path}')"
    )
    want = (
        con.execute(embed_sql(dim=32))
        .df()
        .sort_values(["doc_id", "dim_idx"])
        .reset_index(drop=True)
    )
    mine = (
        embed_terms(ray.data.from_arrow(t), dim=32)
        .to_pandas()
        .sort_values(["doc_id", "dim_idx"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(mine, want, check_dtype=False)
    assert set(mine["doc_id"]) == {10, 20, 40, 50}


def test_embed_bridges_into_ann(ray_session):
    """embed_documents output feeds knn_topk like the embeddings table:
    a word-permuted pair scores cosine 1.0 as each other's top hit."""
    import ray.data

    from deduce_ray.ops.embed import HashingEncoder, embed_documents
    from deduce_ray.ops.similarity import brute_force_topk

    t = pa.table(
        {
            "doc_id": pa.array([0, 1, 2], type=pa.int64()),
            "text": [
                "red green blue",
                "blue red green",
                "entirely different words here",
            ],
        }
    )
    emb = embed_documents(ray.data.from_arrow(t), dim=16)
    enc = HashingEncoder(dim=16)
    queries = np.stack([enc.encode("red green blue")])
    out = brute_force_topk(
        emb, queries, k=2, id_col="doc_id", vec_col="embedding"
    ).to_pandas().sort_values("rank")
    # docs 0 and 1 embed identically -> both score 1.0, tie-broken by id
    assert list(out["doc_id"]) == [0, 1]
    assert np.allclose(out["score"], 1.0)


def test_vectorize_cli_hashing_encoder(tmp_path):
    """vectorize --encoder hashing (subprocess: the CLI owns its Ray
    session) writes an embeddings-shaped parquet that ann --build
    accepts; --vocab-in is refused (tfidf-only artifact)."""
    import json
    import subprocess

    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    out = subprocess.run(
        [sys.executable, "-m", "deduce_ray", "vectorize",
         "--input", "/root/testdata/sf0.001/documents.parquet",
         "--output", str(tmp_path / "vecs"),
         "--encoder", "hashing", "--embed-dim", "32", "--num-cpus", "2"],
        cwd=repo, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr[-2000:]
    info = json.loads(
        [ln for ln in out.stdout.splitlines() if ln.startswith("{")][-1]
    )
    assert info["encoder"] == "hashing" and info["n_vectors"] == 500
    t = pq.read_table(str(tmp_path / "vecs"))
    assert set(t.schema.names) == {"vec_id", "embedding"}

    bad = subprocess.run(
        [sys.executable, "-m", "deduce_ray", "vectorize",
         "--input", "/root/testdata/sf0.001/documents.parquet",
         "--output", str(tmp_path / "vecs2"),
         "--encoder", "hashing", "--vocab-in", "/dev/null",
         "--num-cpus", "2"],
        cwd=repo, capture_output=True, text=True, timeout=300,
    )
    assert bad.returncode != 0
    assert "tfidf encoder only" in bad.stderr


def test_semantic_funnel_stage(ray_session):
    """prep_corpus(semantic_threshold=...) drops a word-PERMUTED
    duplicate the MinHash stage misses, keeps the distinct doc, and
    keeps the cluster minimum."""
    import ray.data

    from deduce_ray.ops.funnel import prep_corpus

    base = "alpha beta gamma delta epsilon zeta eta theta " * 4
    words = base.split()
    permuted = " ".join(reversed(words))
    t = pa.table(
        {
            "doc_id": pa.array([100, 200, 300], type=pa.int64()),
            "text": [base.strip(), permuted, "unrelated content entirely"],
        }
    )
    ds = ray.data.from_arrow(t)
    # minhash at 0.9: reversed word order shares few 3-gram shingles,
    # so the pair SURVIVES the n-gram stage...
    out = prep_corpus(
        ds, minhash_threshold=0.9, checkpoint=False
    ).to_pandas()
    assert sorted(out["doc_id"]) == [100, 200, 300]
    # ...and the semantic stage catches it (identical bag-of-words ->
    # cosine exactly 1.0), keeping the minimum id
    out2 = prep_corpus(
        ds,
        minhash_threshold=0.9,
        semantic_threshold=0.95,
        embed_dim=16,
        checkpoint=False,
    ).to_pandas()
    assert sorted(out2["doc_id"]) == [100, 300]


def test_neardup_keep_longest(ray_session):
    """prep_corpus(neardup_keep='longest') keeps each near-dup
    cluster's fullest member (ties to the smaller id), not the minimum
    id; default behavior unchanged."""
    import ray.data

    from deduce_ray.ops.funnel import prep_corpus

    base = "alpha beta gamma delta epsilon zeta eta theta " * 6
    longer = base + "iota kappa"
    t = pa.table(
        {
            "doc_id": pa.array([10, 20, 30], type=pa.int64()),
            "text": [base.strip(), longer.strip(), "unrelated words here"],
        }
    )
    ds = ray.data.from_arrow(t)
    # default: the minimum id survives its cluster
    out_min = prep_corpus(
        ds, minhash_threshold=0.5, checkpoint=False
    ).to_pandas()
    assert sorted(out_min["doc_id"]) == [10, 30]
    # longest: doc 20 (strictly more characters) survives instead
    out_long = prep_corpus(
        ds, minhash_threshold=0.5, neardup_keep="longest", checkpoint=False
    ).to_pandas()
    assert sorted(out_long["doc_id"]) == [20, 30]
    # equal lengths tie to the smaller id: byte-identical copies
    t2 = pa.table(
        {
            "doc_id": pa.array([7, 5], type=pa.int64()),
            "text": [base.strip(), base.strip()],
        }
    )
    out_tie = prep_corpus(
        ray.data.from_arrow(t2),
        minhash_threshold=0.5,
        neardup_keep="longest",
        checkpoint=False,
    ).to_pandas()
    assert sorted(out_tie["doc_id"]) == [5]
    import pytest

    with pytest.raises(ValueError, match="keep must be"):
        prep_corpus(
            ds, minhash_threshold=0.5, neardup_keep="shortest",
            checkpoint=False,
        ).to_pandas()


def test_semantic_stage_keep_longest(ray_session):
    """neardup_keep applies to the semantic stage too: a word-permuted
    LONGER duplicate survives over the smaller-id original."""
    import ray.data

    from deduce_ray.ops.funnel import prep_corpus

    words = ("alpha beta gamma delta epsilon zeta eta theta " * 4).split()
    base = " ".join(words)
    permuted_longer = " ".join(reversed(words)) + "  "  # same bag, more chars
    t = pa.table(
        {
            "doc_id": pa.array([100, 200, 300], type=pa.int64()),
            "text": [base, permuted_longer, "unrelated content entirely"],
        }
    )
    ds = ray.data.from_arrow(t)
    out = prep_corpus(
        ds,
        minhash_threshold=0.9,
        semantic_threshold=0.95,
        embed_dim=16,
        neardup_keep="longest",
        checkpoint=False,
    ).to_pandas()
    assert sorted(out["doc_id"]) == [200, 300]


def _prep_ids(rows, null_ids=(), **kw) -> list:
    """Survivor ids of ``prep_corpus`` over ``rows`` in four blocks, plus
    one block of ``null_ids`` whose text column is null-typed (an
    all-null block arrives with that type)."""
    import ray.data

    from deduce_ray.ops.funnel import prep_corpus

    t = pa.table(
        {
            "doc_id": pa.array([r[0] for r in rows], type=pa.int64()),
            "text": pa.array([r[1] for r in rows], type=pa.string()),
        }
    )
    ds = ray.data.from_arrow(t).repartition(4)
    if null_ids:
        nulls = pa.table({"doc_id": pa.array(null_ids, type=pa.int64()), "text": pa.nulls(len(null_ids))})
        ds = ds.union(ray.data.from_arrow(nulls))
    return sorted(prep_corpus(ds, **kw).to_pandas()["doc_id"])


def test_keep_longest_minhash_blocks_nulls_ties(ray_session):
    """neardup_keep='longest' on the MinHash stage over clusters spread
    across input blocks, beside null and empty texts (also in a
    null-typed block): the fullest member survives, a tie between the
    longest members goes to the smaller id, and the word-less rows pass
    through."""
    base = "alpha beta gamma delta epsilon zeta eta theta iota kappa " * 5
    other = "one two three four five six seven eight nine ten " * 5
    rows = [
        (10, base.strip()),
        (20, base + "lambda"),
        (30, base + "lambda mu"),  # the longest
        (41, other.strip()),
        (52, other + "tan"),
        (47, other + "red"),  # ties 52, smaller id
        (60, None),
        (61, ""),  # exact dup of the null text: 60 survives it
        (70, "completely unrelated words live here"),
    ]
    assert _prep_ids(rows, minhash_threshold=0.5) == [10, 41, 60, 70]
    assert _prep_ids(rows, minhash_threshold=0.5, neardup_keep="longest") == [30, 47, 60, 70]
    # a null-typed block: 5 survives the null and empty texts it duplicates
    got = _prep_ids(rows, null_ids=(5, 65), minhash_threshold=0.5, neardup_keep="longest")
    assert got == [5, 30, 47, 70]


def test_keep_longest_semantic_blocks_nulls_ties(ray_session):
    """The same rule on the semantic stage: word-permuted copies (one
    bag of words, so cosine 1.0) that MinHash does not pair."""
    words = ("alpha beta gamma delta epsilon zeta eta theta " * 4).split()
    w2 = ("one two three four five six seven eight nine ten " * 3).split()
    rows = [
        (100, " ".join(words)),
        (200, " ".join(reversed(words)) + "  "),  # the longest
        (310, " ".join(w2)),
        (330, " ".join(reversed(w2)) + "  "),
        (320, " ".join(sorted(w2)) + "  "),  # ties 330, smaller id
        (500, None),
        (501, ""),
        (600, "completely unrelated words live here"),
    ]
    kw = {"minhash_threshold": 0.9, "semantic_threshold": 0.95, "embed_dim": 64}
    assert _prep_ids(rows, minhash_threshold=0.9) == sorted(r[0] for r in rows if r[0] != 501)
    assert _prep_ids(rows, **kw) == [100, 310, 500, 600]
    assert _prep_ids(rows, neardup_keep="longest", **kw) == [200, 320, 500, 600]
    assert _prep_ids(rows, null_ids=(7, 507), neardup_keep="longest", **kw) == [7, 200, 320, 600]


def test_sign_sql_boundary_literals():
    """The oracle's slot sign matches the engine's ``h64 < 1 << 63`` at
    the top of the positive half, where a DOUBLE bound rounds ``h64`` up
    to 2**63 and flips the sign."""
    import duckdb

    from deduce_ray.ops.embed import sign_sql

    for h64 in (2**63 - 1, 2**63, 2**63 - 512, 2**63 - 513, 0, 2**64 - 1):
        got = duckdb.sql(
            f"SELECT {sign_sql('h')} FROM (SELECT {h64}::UBIGINT AS h)"
        ).fetchone()[0]
        assert float(got) == (1.0 if h64 < 1 << 63 else -1.0), h64
