"""Cross-document duplicated n-gram span detection
(deduce_ray/ops/substring.py).  Semantics under test: word-sequence
equality per the module-wide WORD_RE, >= min_docs distinct documents,
chained windows (starts <= n apart) merged into maximal intervals,
end_word exclusive."""

from __future__ import annotations

import os
import sys

import pandas as pd
import ray

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from deduce_ray.ops.substring import duplicated_ngram_spans, gram_hash_array


def _spans(docs, n=13, min_docs=2):
    ds = ray.data.from_items([{"doc_id": i, "text": t} for i, t in docs])
    df = duplicated_ngram_spans(ds, n=n, min_docs=min_docs).to_pandas()
    if df.empty:  # to_pandas of a zero-row dataset has no columns
        return pd.DataFrame(
            columns=["doc_id", "start_word", "end_word"], dtype="int64"
        )
    return (
        df.sort_values(["doc_id", "start_word"])
        .reset_index(drop=True)
        .astype("int64")
    )


class TestDupSpans:
    def test_shared_gram_with_offset_and_chaining(self, ray_session):
        shared = " ".join(f"w{i}" for i in range(16))  # 16 words > n=13
        docs = [
            (1, shared + " X Y Z"),
            (2, "PRE " + shared + " POST"),
            (3, "nothing in common with anybody here at all q r s t u v"),
        ]
        out = _spans(docs)
        # doc 1: windows 0..3 chain -> [0, 16); doc 2: offset by 1
        expected = pd.DataFrame(
            {
                "doc_id": [1, 2],
                "start_word": [0, 1],
                "end_word": [16, 17],
            }
        )
        pd.testing.assert_frame_equal(out, expected)

    def test_within_doc_repeat_not_flagged(self, ray_session):
        block = " ".join(f"r{i}" for i in range(13))
        docs = [(1, block + " mid " + block), (2, "totally different words")]
        assert _spans(docs).empty

    def test_null_and_short_texts(self, ray_session):
        docs = [(1, None), (2, "short"), (3, ""), (4, "a b c")]
        assert _spans(docs).empty

    def test_two_separate_islands(self, ray_session):
        a = " ".join(f"a{i}" for i in range(13))
        b = " ".join(f"b{i}" for i in range(13))
        gap = " ".join(f"g{i}" for i in range(20))
        docs = [(1, a + " " + gap + " " + b), (2, a), (3, b)]
        out = _spans(docs)
        doc1 = out[out.doc_id == 1].reset_index(drop=True)
        # two islands in doc 1: a at words [0,13), b at [33,46)
        # (a is 13 words, the gap 20, so b starts at word 33)
        assert len(doc1) == 2
        assert doc1.start_word.tolist() == [0, 33]
        assert doc1.end_word.tolist() == [13, 46]

    def test_min_docs_three(self, ray_session):
        g = " ".join(f"m{i}" for i in range(13))
        docs = [(1, g), (2, g), (3, "unrelated " * 13)]
        assert _spans(docs, min_docs=3).empty
        out = _spans(docs + [(4, g)], min_docs=3)
        assert sorted(out.doc_id.tolist()) == [1, 2, 4]

    def test_many_blocks_multi_partition_exchange(self, ray_session):
        """Many input blocks (one gram-emitting call each) feed a
        64-shard hash space merged in one partition per CPU, so a gram's
        rows arrive from several blocks and each merge holds many shards.
        Verified against a brute-force pandas oracle over every shared
        n-gram."""
        import numpy as np

        from deduce_ray.ops.textstats import split_words

        rng = np.random.default_rng(7)
        vocab = [f"v{i}" for i in range(30)]
        shared_a = " ".join(f"s{i}" for i in range(9))
        shared_b = " ".join(f"t{i}" for i in range(6))
        docs = []
        for i in range(40):
            body = " ".join(rng.choice(vocab, size=25))
            if i % 3 == 0:
                body = shared_a + " " + body
            if i % 4 == 0:
                body = body + " " + shared_b
            docs.append((i, body))

        n = 5
        ds = ray.data.from_items(
            [{"doc_id": i, "text": t} for i, t in docs]
        ).repartition(16)
        got = duplicated_ngram_spans(ds, n=n, min_docs=2, n_shards=64)
        got = (
            got.to_pandas()
            .sort_values(["doc_id", "start_word"])
            .reset_index(drop=True)
            .astype("int64")
        )

        # brute-force oracle: every n-gram -> set of docs; merge hits
        gram_docs: dict[tuple, set] = {}
        words_by_doc = {}
        for i, t in docs:
            w = split_words(t)
            words_by_doc[i] = w
            for p in range(len(w) - n + 1):
                gram_docs.setdefault(tuple(w[p : p + n]), set()).add(i)
        rows = []
        for i, w in words_by_doc.items():
            hits = [
                p
                for p in range(len(w) - n + 1)
                if len(gram_docs[tuple(w[p : p + n])]) >= 2
            ]
            start = prev = None
            for p in hits:
                if start is None:
                    start = prev = p
                elif p - prev <= n:
                    prev = p
                else:
                    rows.append((i, start, prev + n))
                    start = prev = p
            if start is not None:
                rows.append((i, start, prev + n))
        want = (
            pd.DataFrame(rows, columns=["doc_id", "start_word", "end_word"])
            .sort_values(["doc_id", "start_word"])
            .reset_index(drop=True)
            .astype("int64")
        )
        pd.testing.assert_frame_equal(got, want)

    def test_all_unique_corpus_keeps_the_span_schema(self, ray_session):
        docs = [(i, " ".join(f"d{i}w{j}" for j in range(20))) for i in range(6)]
        ds = ray.data.from_items([{"doc_id": i, "text": t} for i, t in docs])
        spans = duplicated_ngram_spans(ds, n=13)
        assert spans.count() == 0
        schema = spans.schema()
        assert schema.names == ["doc_id", "start_word", "end_word"]
        assert [str(t) for t in schema.types] == ["int64"] * 3

    def test_gram_hash_positional(self):
        words = [f"w{i}" for i in range(10)]
        h = gram_hash_array(words, 4)
        assert len(h) == 7
        # shifted window of identical words hashes identically
        assert h[2] == gram_hash_array(words[2:6], 4)[0]
        # order sensitivity
        assert (
            gram_hash_array(["a", "b", "c", "d"], 4)[0]
            != gram_hash_array(["d", "c", "b", "a"], 4)[0]
        )
        assert len(gram_hash_array(["a", "b"], 4)) == 0


class TestStripDupSpans:
    def test_strip_and_passthrough(self, ray_session):
        shared = " ".join(f"w{i}" for i in range(13))
        docs = [
            (1, shared + " keep1 keep2"),
            (2, "lead " + shared),
            (3, "untouched   text\twith original whitespace kept intact ok"),
        ]
        ds = ray.data.from_items([{"doc_id": i, "text": t} for i, t in docs])
        from deduce_ray.ops.substring import strip_dup_spans

        out = (
            strip_dup_spans(ds, n=13)
            .to_pandas()
            .set_index("doc_id")["text"]
            .to_dict()
        )
        assert out[1] == "keep1 keep2"
        assert out[2] == "lead"
        # no duplicated span: original text preserved byte-for-byte
        assert out[3] == docs[2][1]

    def test_strip_with_precomputed_spans(self, ray_session):
        from deduce_ray.ops.substring import (
            duplicated_ngram_spans,
            strip_dup_spans,
        )

        g = " ".join(f"x{i}" for i in range(13))
        docs = [(1, g), (2, g + " tail")]
        ds = ray.data.from_items([{"doc_id": i, "text": t} for i, t in docs])
        spans = duplicated_ngram_spans(ds, n=13)
        out = (
            strip_dup_spans(ds, n=13, spans=spans)
            .to_pandas()
            .set_index("doc_id")["text"]
            .to_dict()
        )
        assert out[1] == ""
        assert out[2] == "tail"

    def test_strip_multi_chunk_broadcast(self, ray_session):
        # tiny chunk_rows forces one span per broadcast chunk, so the
        # rewrite must merge intervals for one document ACROSS chunks
        from deduce_ray.ops.substring import strip_dup_spans

        a = " ".join(f"a{i}" for i in range(13))
        b = " ".join(f"b{i}" for i in range(13))
        gap = " ".join(f"g{i}" for i in range(20))
        docs = [(1, a + " " + gap + " " + b), (2, a), (3, b)]
        ds = ray.data.from_items([{"doc_id": i, "text": t} for i, t in docs])
        out = (
            strip_dup_spans(ds, n=13, chunk_rows=1)
            .to_pandas()
            .set_index("doc_id")["text"]
            .to_dict()
        )
        assert out[1] == gap
        assert out[2] == "" and out[3] == ""

    def test_strip_preserves_other_columns(self, ray_session):
        from deduce_ray.ops.substring import strip_dup_spans

        g = " ".join(f"p{i}" for i in range(13))
        ds = ray.data.from_items(
            [
                {"doc_id": 1, "text": g, "lang": "en", "n": 7},
                {"doc_id": 2, "text": g + " tail", "lang": "de", "n": 8},
                {"doc_id": 3, "text": "nothing shared here at all", "lang": "fr", "n": 9},
            ]
        )
        df = strip_dup_spans(ds, n=13).to_pandas().sort_values("doc_id")
        assert list(df.columns) == ["doc_id", "text", "lang", "n"]
        assert df["lang"].tolist() == ["en", "de", "fr"]
        assert df["n"].tolist() == [7, 8, 9]
        assert df["text"].tolist() == ["", "tail", "nothing shared here at all"]
