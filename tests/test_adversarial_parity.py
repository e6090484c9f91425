"""Degenerate-input DuckDB parity: adversarial corpora the synthetic
testdata never produces (zero-norm vectors, null texts) run through the
REGISTERED queries against their REGISTERED oracles — pinning the
contracts fixed in round 4: zero vectors score cosine 0.0 (DuckDB 1.0's
list_cosine_similarity returns -1.0 for them, not NaN), and null text
keys as the empty string in the exact-dedup family (the engine's
md5(text or '') contract)."""

from __future__ import annotations

import os
import sys

import pyarrow as pa
import pyarrow.parquet as pq
import ray

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _canon(df):
    import numpy as np

    df = df[sorted(df.columns)]
    # normalize null-likes: the engine emits NaN in object columns where
    # DuckDB's .df() emits None — pandas' assert_frame_equal warns today
    # and will raise on a future major version
    df = df.where(df.notna(), other=np.nan)
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def _run(qname, sf_dir, con):
    import pandas as pd

    import __ray_entry__ as entrymod

    mine = _canon(entrymod.queries()[qname](sf_dir).to_pandas())
    want = _canon(con.execute(entrymod.oracle_sql()[qname]).df())
    pd.testing.assert_frame_equal(mine, want, check_dtype=False)
    return len(mine)


class TestDegenerateVectors:
    def test_ann_family_zero_and_extreme_vectors(self, ray_session, tmp_path):
        import duckdb

        vecs = [
            [1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0],
            [0.5, 0.5, 0.5, 0.5], [-1.0, -1.0, 0.0, 0.0],
            [1e-30, 0.0, 0.0, 0.0],      # queries are vec_id < 5
            [0.0, 0.0, 0.0, 0.0],        # zero vector -> cosine 0.0
            [1e30, 1e30, 0.0, 0.0], [-0.5, 0.5, -0.5, 0.5],
            [1.0, 0.0, 0.0, 0.0],        # exact duplicate of query 0
            [1e-30, 1e-30, 1e-30, 1e-30],
        ]
        pq.write_table(
            pa.table(
                {
                    "vec_id": pa.array(range(len(vecs)), type=pa.int64()),
                    "embedding": pa.array(vecs, type=pa.list_(pa.float32())),
                }
            ),
            str(tmp_path / "embeddings.parquet"),
        )
        con = duckdb.connect()
        con.execute(
            f"CREATE VIEW embeddings AS SELECT * FROM "
            f"read_parquet('{tmp_path}/embeddings.parquet')"
        )
        for q in ("ann_topk", "ann_topk_lsh", "ann_topk_ivf"):
            assert _run(q, str(tmp_path), con) == 50


class TestNullInjectedRelational:
    def test_relational_family_with_nulls(self, ray_session, tmp_path):
        """Every relational + sketch query stays oracle-exact when the
        TPC-H-ish tables carry null keys, null measures, null
        timestamps, dangling foreign keys, and malformed JSON — the
        row shapes 100 TB of real data WILL contain (pinned after a
        sweep found 9 of 14 queries crashed or diverged on them)."""
        import datetime as dt
        import glob
        import shutil

        import duckdb
        import pandas as pd

        src = "/root/testdata/sf0.001"
        for p in glob.glob(f"{src}/*.parquet"):
            shutil.copy(p, tmp_path)

        def extend(name, rows):
            path = str(tmp_path / f"{name}.parquet")
            t = pq.read_table(path)
            extra = pa.table(
                {
                    f.name: pa.array(
                        [r.get(f.name) for r in rows], type=f.type
                    )
                    for f in t.schema
                }
            )
            pq.write_table(pa.concat_tables([t, extra]), path)

        TS = dt.datetime(2024, 1, 1)
        extend("lineitem", [
            dict(l_orderkey=999001, l_partkey=1, l_suppkey=1,
                 l_linenumber=1, l_quantity=None, l_extendedprice=None,
                 l_discount=None, l_tax=None, l_returnflag=None,
                 l_linestatus=None, l_shipdate=None),
            dict(l_orderkey=999002, l_partkey=None, l_suppkey=None,
                 l_linenumber=2, l_quantity=0.0, l_extendedprice=0.0,
                 l_discount=0.0, l_tax=0.0, l_returnflag="Z",
                 l_linestatus="Z", l_shipdate=TS),
            # valid shipdate + all-NULL measures: its ('Q','Q') group
            # must report NULL sums (SQL), not 0 / INT64_MIN
            dict(l_orderkey=999003, l_partkey=2, l_suppkey=2,
                 l_linenumber=3, l_quantity=None, l_extendedprice=None,
                 l_discount=None, l_tax=None, l_returnflag="Q",
                 l_linestatus="Q", l_shipdate=TS),
        ])
        extend("orders", [
            dict(o_orderkey=999101, o_custkey=None, o_orderstatus=None,
                 o_totalprice=None, o_orderdate=None,
                 o_orderpriority=None),
            dict(o_orderkey=999102, o_custkey=999999, o_orderstatus="X",
                 o_totalprice=1e15, o_orderdate=TS,
                 o_orderpriority="9-ZZZ"),  # dangling custkey
        ])
        extend("customer", [
            dict(c_custkey=999201, c_name=None, c_nationkey=None,
                 c_acctbal=None, c_mktsegment=None),
            # null KEY: must not become a phantom INT64_MIN join key
            dict(c_custkey=None, c_name="nullkey", c_nationkey=1,
                 c_acctbal=1.0, c_mktsegment="X"),
        ])
        extend("events", [
            dict(event_id=999301, ts=None, user_id=None, event_type=None,
                 value=None, props=None),
            dict(event_id=999302, ts=TS, user_id=424242,
                 event_type="weird", value=-1e12,
                 props="not json at all"),
            dict(event_id=999303, ts=TS, user_id=424242,
                 event_type="weird", value=3.5, props='{"k":null}'),
            # in-window NULL value (SUM skips, COUNT counts) + a JSON
            # int beyond int64 (both sides: the -1 fallback bucket)
            dict(event_id=999304, ts=TS, user_id=7, event_type="weird",
                 value=None, props='{"k": 99999999999999999999}'),
            # leading-zero integer: INVALID JSON per the grammar, so the
            # fast-path regex must NOT accept it as 7 — both sides map
            # it to the -1 fallback bucket (round-5 advice pin)
            dict(event_id=999305, ts=TS, user_id=7, event_type="weird",
                 value=2.0, props='{"k": 007}'),
            dict(event_id=999306, ts=TS, user_id=7, event_type="weird",
                 value=2.0, props='{"k": -007}'),
        ])
        extend("part", [
            dict(p_partkey=999401, p_name=None, p_brand=None,
                 p_type=None, p_size=None, p_retailprice=None),
            # null part KEY: index_in must not match a null l_partkey
            dict(p_partkey=None, p_name="nullkey", p_brand="PHANTOM",
                 p_type="t", p_size=1, p_retailprice=1.0),
        ])
        extend("supplier", [dict(s_suppkey=999501, s_name=None,
                                 s_nationkey=None, s_acctbal=None)])
        extend("nation", [dict(n_nationkey=9996, n_name=None,
                               n_regionkey=None)])
        extend("region", [
            dict(r_regionkey=9997, r_name=None),
            # null region KEY: a null n_regionkey must not join to it
            dict(r_regionkey=None, r_name="NULLREGION"),
        ])

        con = duckdb.connect()
        for t in ("region nation customer supplier part orders lineitem "
                  "events documents embeddings").split():
            con.execute(
                f"CREATE VIEW {t} AS SELECT * FROM "
                f"read_parquet('{tmp_path}/{t}.parquet')"
            )
        for q in (
            "pricing_summary", "top_customers", "events_by_type",
            "events_hourly", "events_sliding", "user_sessions",
            "events_props_stats", "brand_volume", "bucketed_join_revenue",
            "region_customers", "click_attribution",
            "events_value_quantiles", "campaign_attribution",
            "events_user_sketch",
        ):
            assert _run(q, str(tmp_path), con) > 0, q


class TestNullUnicodeKG:
    def test_kg_family_null_and_unicode_docs(self, ray_session, tmp_path):
        """The KG query family stays oracle-exact over null texts,
        unicode/emoji, boundary-hugging mentions, and a doc that IS its
        mention (pinned after a sweep found null text crashed the
        repo-table decoration engine-side and NULLed the whole content
        SQL-side).  The corpus respects the oracle's two documented
        preconditions (oracles.py module docstring): no two matches
        share a boundary character, and no two same-pred mentions of
        one doc within edit distance 1."""
        import duckdb

        texts = [
            None, "",
            "İstanbul bsn 111222333 end",
            "datum 01-02-2019 en id 12345678",
            "unicode 🎉 postbus Postbus 123 🎉",
            "dubbele datum 01-02-2019 en verder 05-06-2021 hier",
            "grens 1234AB tail",
            "02-03-2020",  # the document IS the mention
            "a" * 5,
        ]
        pq.write_table(
            pa.table(
                {
                    "doc_id": pa.array(
                        range(1, len(texts) + 1), type=pa.int64()
                    ),
                    "text": pa.array(texts, type=pa.string()),
                    "lang": pa.array(["nl"] * len(texts)),
                    "source": pa.array(["adv"] * len(texts)),
                    "n_chars": pa.array(
                        [len(t or "") for t in texts], type=pa.int64()
                    ),
                }
            ),
            str(tmp_path / "documents.parquet"),
        )
        con = duckdb.connect()
        con.execute(
            f"CREATE VIEW documents AS SELECT * FROM "
            f"read_parquet('{tmp_path}/documents.parquet')"
        )
        for q in (
            "kg_bsn", "kg_postal", "kg_emails", "kg_urls",
            "kg_triples_sqlpreds", "kg_graph_sqlpreds",
            "kg_entities_sqlpreds", "kg_entities_canonical_sqlpreds",
            "kg_cooccurrence_sqlpreds", "kg_redacted_sqlpreds",
        ):
            assert _run(q, str(tmp_path), con) > 0, q


class TestNullTextDedup:
    def test_null_keys_as_empty(self, ray_session, tmp_path):
        import duckdb

        texts = [None, "", "same", "same", "other"]
        pq.write_table(
            pa.table(
                {
                    "doc_id": pa.array(
                        range(1, len(texts) + 1), type=pa.int64()
                    ),
                    "text": pa.array(texts, type=pa.string()),
                    "lang": pa.array(["en"] * len(texts)),
                    "source": pa.array(["adv"] * len(texts)),
                    "n_chars": pa.array(
                        [len(t or "") for t in texts], type=pa.int64()
                    ),
                }
            ),
            str(tmp_path / "documents.parquet"),
        )
        con = duckdb.connect()
        con.execute(
            f"CREATE VIEW documents AS SELECT * FROM "
            f"read_parquet('{tmp_path}/documents.parquet')"
        )
        # null and "" share one group of 2; "same" groups; 3 groups total
        assert _run("exact_dedup", str(tmp_path), con) == 3
        assert _run("dedup_survivors", str(tmp_path), con) == 3


class TestNulTwinText:
    """Words that differ only after a NUL byte (WORD_RE splits on
    whitespace only, so a word may hold one) stay apart in the text-op
    merges, also when one shard holds both twins."""

    @staticmethod
    def _docs():
        return ray.data.from_items(
            [{"doc_id": 1, "text": "ab ab ab"}, {"doc_id": 2, "text": "ab\x009 ab\x009"}]
        )

    def test_top_terms(self, ray_session):
        from deduce_ray.ops.textstats import top_terms

        got = [(r["term"], r["n"]) for r in top_terms(self._docs(), n_shards=1).take_all()]
        assert got == [("ab", 3), ("ab\x009", 2)]

    def test_tfidf_vocab(self, ray_session):
        from deduce_ray.ops.vectorize import build_tfidf_vocab

        vocab = build_tfidf_vocab(self._docs(), n_shards=1)
        assert vocab["n_docs"] == 2
        assert list(vocab["terms"]) == ["ab", "ab\x009"]

    def test_bigram_counts(self, ray_session):
        from deduce_ray.ops.lm import train_bigram_counts

        rows = train_bigram_counts(self._docs(), n_shards=1).take_all()
        got = sorted((r["kind"], r["w1"], r["w2"], r["n"]) for r in rows)
        assert got == [
            (1, "ab", "", 3),
            (1, "ab\x009", "", 2),
            (2, "ab", "ab", 2),
            (2, "ab\x009", "ab\x009", 1),
        ]
