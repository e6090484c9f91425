"""Pins for the bugs found by the systematized adversarial-sf sweep
(scripts/make_adversarial_sf.py -> scripts/check_oracles.py, round 4):

1. negative int64 ids through the LSH verify joins — the old code tagged
   signature/vector rows with negative id_a and refused negative input
   ids, but hash-derived doc ids are signed int64 (half are negative);
   the joins now carry an explicit ``kind`` column.
2. NULL id / NULL embedding rows crash every ANN and embedding-neardup
   path at the np.stack — now dropped per the SQL-null contract
   (drop_invalid_vector_rows), mirrored by ``IS NOT NULL`` in oracles.
3. grouped_agg null-keyed and NUL-twin groups: its old pandas combine
   degraded an all-null object key column to float64 NaN (a float NaN in
   a string column, and a hash that split one SQL NULL group across
   merge shards), and pandas hashes and groups a string only up to its
   first NUL, so "b" and "b\x00x" folded into one group.  The combine
   and merge are Arrow group_by calls now: a null key is one typed NULL
   group, and keys compare by all their bytes — pinned for every agg
   kind, a null-typed key block, and the other string-keyed aggregates
   (canonical_entities, approx_distinct, events_value_quantiles).
4. the integer-cents money contract: values with |v*100| beyond int64
   raise an actionable error instead of pyarrow's bare truncation
   message (DuckDB's CAST AS BIGINT refuses the same rows).
5. bucketed_join_revenue misclassified a fact row whose measure is NULL
   as a dimension row (the discriminator was measure-nullability) and
   dropped the NULL-key group (pandas dropna default) — explicit side
   column + dropna=False + min_count=1 now.
6. Python %% floors, SQL %% truncates: negative doc_ids picked a
   different decoration snippet/repo (and vanished from the media
   oracle's dims) until the SQL mirrors switched to floored modulo.
"""

from __future__ import annotations

import os
import sys

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _pairs_df(ds) -> pd.DataFrame:
    df = ds.to_pandas()
    return df.sort_values(list(df.columns)).reset_index(drop=True)


class TestNegativeIds:
    """Bijection equivalence: shifting all ids by a constant must shift
    the output ids by the same constant and change nothing else — run
    with a shift that makes half the ids negative."""

    TEXTS = [
        "the quick brown fox jumps over the lazy dog again and again",
        "the quick brown fox jumps over the lazy dog again and again",
        "a completely different document about ray data pipelines",
        "another unrelated text concerning arrow record batches here",
        "the quick brown fox jumps over the lazy dog again and AGAIN",
        "arrow record batches and object store spilling mechanics",
    ]

    def _run(self, ids, signature_mode, force_join):
        import ray.data

        from deduce_ray.ops.dedup import minhash_lsh_pairs

        ds = ray.data.from_arrow(
            pa.table(
                {
                    "doc_id": pa.array(ids, type=pa.int64()),
                    "text": pa.array(self.TEXTS),
                }
            )
        )
        kwargs = {}
        if force_join:
            # exercise the sharded verify-join fallback (the kind-column
            # path), not just the bounded driver fast path
            kwargs = {"driver_verify_max": 0}
        return minhash_lsh_pairs(
            ds,
            id_col="doc_id",
            text_col="text",
            threshold=0.5,
            verify="signature" if signature_mode else "exact",
            **kwargs,
        )

    @pytest.mark.parametrize(
        "signature_mode,force_join",
        [(False, False), (True, False), (True, True)],
    )
    def test_minhash_negative_id_bijection(
        self, ray_session, signature_mode, force_join
    ):
        base = [10, 11, 12, 13, 14, 15]
        shift = -13  # ids become [-3..2]: half negative, including -1
        a = _pairs_df(self._run(base, signature_mode, force_join))
        b = _pairs_df(
            self._run([i + shift for i in base], signature_mode, force_join)
        )
        assert len(a) > 0, "fixture must produce at least one pair"
        shifted = a.copy()
        shifted["id_a"] = shifted["id_a"] + shift
        shifted["id_b"] = shifted["id_b"] + shift
        # shifting can swap which endpoint is smaller only if order is
        # preserved under constant shift — it is; re-sort rows
        shifted = shifted.sort_values(list(shifted.columns)).reset_index(
            drop=True
        )
        pd.testing.assert_frame_equal(shifted, b)

    def test_embedding_negative_id_bijection(self, ray_session):
        import ray.data

        from deduce_ray.ops.dedup import embedding_neardup_pairs

        rng = np.random.default_rng(7)
        vecs = rng.standard_normal((8, 16))
        vecs[5] = vecs[0] * 2.0  # planted cosine-1.0 pair

        def run(ids, force_join=False):
            ds = ray.data.from_arrow(
                pa.table(
                    {
                        "vec_id": pa.array(ids, type=pa.int64()),
                        "embedding": pa.array(
                            [list(map(float, v)) for v in vecs],
                            type=pa.list_(pa.float64()),
                        ),
                    }
                )
            )
            kwargs = {"driver_verify_max": 0} if force_join else {}
            return _pairs_df(
                embedding_neardup_pairs(
                    ds, threshold=0.97, n_tables=4, **kwargs
                )
            )

        base = list(range(8))
        shift = -5
        a = run(base)
        b = run([i + shift for i in base])
        b_join = run([i + shift for i in base], force_join=True)
        pd.testing.assert_frame_equal(b, b_join)
        assert len(a) > 0
        shifted = a.copy()
        shifted["id_a"] += shift
        shifted["id_b"] += shift
        shifted = shifted.sort_values(list(shifted.columns)).reset_index(
            drop=True
        )
        pd.testing.assert_frame_equal(shifted, b)


class TestNegativeIdClusters:
    def test_distributed_star_path_with_minus_one_node(self, ray_session):
        """A real node id of -1 must not be mistaken for the witness
        marker (markers are now discriminated by w != 0): distributed
        star rounds and the driver union-find must agree."""
        import ray.data

        from deduce_ray.ops.dedup import neardup_clusters

        pairs = pa.table(
            {
                "id_a": pa.array([-1, -1, 5, -7], type=pa.int64()),
                "id_b": pa.array([3, 5, 9, -3], type=pa.int64()),
                "jaccard": pa.array([1.0, 1.0, 1.0, 1.0]),
            }
        )

        def run(driver_threshold):
            out = neardup_clusters(
                ray.data.from_arrow(pairs), driver_threshold=driver_threshold
            ).to_pandas()
            return out.sort_values(["cluster_id", "doc_id"]).reset_index(
                drop=True
            )

        driver = run(1_000_000)
        distributed = run(0)
        pd.testing.assert_frame_equal(driver, distributed)
        # {-1,3,5,9} and {-7,-3}, keyed by component minimum
        got = {
            cid: set(g["doc_id"])
            for cid, g in distributed.groupby("cluster_id")
        }
        assert got == {-7: {-7, -3}, -1: {-1, 3, 5, 9}}


class TestNullVectorRows:
    def test_drop_invalid_vector_rows(self):
        from deduce_ray.ops.similarity import drop_invalid_vector_rows

        batch = pa.table(
            {
                "vec_id": pa.array([1, None, 3, 4], type=pa.int64()),
                "embedding": pa.array(
                    [[1.0, 0.0], [0.5, 0.5], None, [0.0, 1.0]],
                    type=pa.list_(pa.float64()),
                ),
            }
        )
        out = drop_invalid_vector_rows(batch, "vec_id", "embedding")
        assert out.column("vec_id").to_pylist() == [1, 4]

    def test_ann_ignores_null_rows(self, ray_session):
        import ray.data

        from deduce_ray.ops.similarity import brute_force_topk

        vecs = np.eye(4)
        clean = pa.table(
            {
                "vec_id": pa.array(list(range(4)), type=pa.int64()),
                "embedding": pa.array(
                    [list(map(float, v)) for v in vecs],
                    type=pa.list_(pa.float64()),
                ),
            }
        )
        dirty = pa.table(
            {
                "vec_id": pa.array([0, 1, 2, 3, None, 9], type=pa.int64()),
                "embedding": pa.array(
                    [list(map(float, v)) for v in vecs]
                    + [[9.0, 9.0, 9.0, 9.0], None],
                    type=pa.list_(pa.float64()),
                ),
            }
        )
        q = np.asarray([[1.0, 0.0, 0.0, 0.0]])
        a = _pairs_df(
            brute_force_topk(ray.data.from_arrow(clean), q, k=4)
        )
        b = _pairs_df(
            brute_force_topk(ray.data.from_arrow(dirty), q, k=4)
        )
        pd.testing.assert_frame_equal(a, b)

    def test_embedding_neardup_ignores_null_rows(self, ray_session):
        import ray.data

        from deduce_ray.ops.dedup import embedding_neardup_pairs

        rng = np.random.default_rng(3)
        vecs = rng.standard_normal((6, 8))
        vecs[4] = vecs[1] * 3.0

        def table(ids, vec_lists):
            return ray.data.from_arrow(
                pa.table(
                    {
                        "vec_id": pa.array(ids, type=pa.int64()),
                        "embedding": pa.array(
                            vec_lists, type=pa.list_(pa.float64())
                        ),
                    }
                )
            )

        clean_vecs = [list(map(float, v)) for v in vecs]
        a = _pairs_df(
            embedding_neardup_pairs(
                table(list(range(6)), clean_vecs), threshold=0.97, n_tables=4
            )
        )
        b = _pairs_df(
            embedding_neardup_pairs(
                table(
                    list(range(6)) + [None, 99],
                    clean_vecs + [[1.0] * 8, None],
                ),
                threshold=0.97,
                n_tables=4,
            )
        )
        pd.testing.assert_frame_equal(a, b)


class TestShapeBreakerContracts:
    """Tier-2 probes (make_adversarial_sf --shape-breakers): ragged
    vector widths raise an actionable contract error; NULL elements
    inside a list become NaN components and propagate per IEEE."""

    def test_ragged_widths_raise_actionable(self):
        from deduce_ray.ops.similarity import _as_matrix

        col = pa.array(
            [[1.0, 2.0], [1.0, 2.0, 3.0]], type=pa.list_(pa.float64())
        )
        with pytest.raises(ValueError, match="fixed-dimension"):
            _as_matrix(col)

    def test_null_element_becomes_nan_and_ranks_last(self, ray_session):
        import ray.data

        from deduce_ray.ops.similarity import brute_force_topk

        tbl = pa.table(
            {
                "vec_id": pa.array([0, 1, 2], type=pa.int64()),
                "embedding": pa.array(
                    [[1.0, 0.0], [0.9, None], [0.0, 1.0]],
                    type=pa.list_(pa.float64()),
                ),
            }
        )
        out = (
            brute_force_topk(
                ray.data.from_arrow(tbl), np.asarray([[1.0, 0.0]]), k=3
            )
            .to_pandas()
            .sort_values("rank")
        )
        # the NaN-component row scores NaN and sorts last
        assert out["vec_id"].tolist() == [0, 2, 1]
        assert np.isnan(out["score"].iloc[-1])


class TestGroupedAggNullKeys:
    def test_null_string_key_single_none_row(self, ray_session):
        import ray.data

        from deduce_ray.ops.agg import grouped_agg

        # many null-key rows spread over blocks: some combine tasks see
        # ONLY null keys (the degraded-dtype shard-split shape)
        tbl = pa.table(
            {
                "k": pa.array(
                    ["a", "b"] + [None] * 40, type=pa.string()
                ),
                "v": pa.array(
                    [1.0, 2.0] + [float(i) for i in range(40)],
                    type=pa.float64(),
                ),
            }
        )
        ds = ray.data.from_arrow(tbl).repartition(8)
        out = grouped_agg(
            ds, keys=["k"], aggs={"n": (None, "count"), "s": ("v", "sum")}
        ).to_pandas()
        nulls = out[out["k"].isna()]
        assert len(nulls) == 1, f"null group split/dropped: {out}"
        assert int(nulls["n"].iloc[0]) == 40
        # the key must be a real None (typed NULL), not float NaN
        assert nulls["k"].iloc[0] is None

    def test_all_null_measure_group_sums_to_null(self, ray_session):
        import ray.data

        from deduce_ray.ops.agg import grouped_agg

        tbl = pa.table(
            {
                "k": pa.array(["a", "a", "b"], type=pa.string()),
                "v": pa.array([None, None, 5.0], type=pa.float64()),
            }
        )
        out = (
            grouped_agg(
                ray.data.from_arrow(tbl), keys=["k"], aggs={"s": ("v", "sum")}
            )
            .to_pandas()
            .set_index("k")
        )
        assert pd.isna(out.loc["a", "s"])
        assert out.loc["b", "s"] == 5.0


    AGGS = {
        "n": (None, "count"),
        "s": ("v", "sum"),
        "lo": ("v", "min"),
        "hi": ("v", "max"),
        "sq": ("v", "sum_sq"),
    }

    @staticmethod
    def _reference(keys, values):
        """Pure-Python GROUP BY with SQL semantics for every agg kind."""
        groups: dict = {}
        for k, v in zip(keys, values):
            groups.setdefault(k, []).append(v)
        out = {}
        for k, vs in groups.items():
            seen = [v for v in vs if v is not None]
            out[k] = {
                "n": len(vs),
                "s": sum(seen) if seen else None,
                "lo": min(seen) if seen else None,
                "hi": max(seen) if seen else None,
                "sq": sum(v * v for v in seen) if seen else None,
            }
        return out

    def _grouped(self, ds):
        from deduce_ray.ops.agg import grouped_agg

        rows = grouped_agg(ds, keys=["k"], aggs=self.AGGS).take_all()
        got = {r["k"]: {c: r[c] for c in self.AGGS} for r in rows}
        assert len(got) == len(rows), f"a key came out twice: {rows}"
        return got

    @pytest.mark.parametrize("with_null", [False, True])
    def test_nul_twin_keys_every_kind(self, ray_session, with_null):
        """"b" and "b\x00x" are two groups, in a null-free block (where
        pandas folded them), alone or beside a block of null keys.  The
        first block outgrows a 65,536-row batch, so no batching can put a
        null into every batch of it."""
        import ray.data

        reps = 12_000
        blocks = [(["b", "b\x00x", "b", "a", "b\x00x", "b\x00y"] * reps, [1, 2, 3, 4, None, -5] * reps)]
        if with_null:
            blocks.append(([None, "b", None], [6, 7, None]))
        tables = [
            pa.table({"k": pa.array(k, type=pa.string()), "v": pa.array(v, type=pa.int64())})
            for k, v in blocks
        ]
        got = self._grouped(ray.data.from_arrow(tables))
        assert got == self._reference(
            [k for ks, _ in blocks for k in ks], [v for _, vs in blocks for v in vs]
        )

    def test_null_typed_key_block(self, ray_session):
        """A block whose key column arrives null-typed (a pandas upstream
        whose block held only null keys) joins the typed NULL group."""
        import ray.data

        keys, values = ["b", "b\x00x", "b"] * 25_000, [1, 2, 3] * 25_000
        typed = pa.table(
            {"k": pa.array(keys, type=pa.string()), "v": pa.array(values, type=pa.int64())}
        )
        untyped = pa.table(
            {"k": pa.nulls(2), "v": pa.array([4, None], type=pa.int64())}
        )
        assert untyped.schema.field("k").type == pa.null()
        got = self._grouped(ray.data.from_arrow([typed, untyped]))
        assert got == self._reference(keys + [None, None], values + [4, None])


class TestNulTwinKeys:
    """The other string-keyed aggregates keep NUL twins apart too."""

    def test_canonical_entities(self, ray_session):
        import ray.data

        from deduce_ray.rayops.kg import canonical_entities

        preds = ["persoon", "persoon", "persoon", "persoon", "locatie", None]
        objs = ["Jan", "jan\x00X", "JAN", None, "jan\x00x", "Jan"]
        tbl = pa.table({"pred": pa.array(preds), "obj": pa.array(objs)})
        want: dict = {}
        for p, o in zip(preds, objs):
            key = (p, None if o is None else o.lower())
            want[key] = want.get(key, 0) + 1
        rows = canonical_entities(ray.data.from_arrow(tbl)).take_all()
        got = {(r["pred"], r["obj_norm"]): r["n_mentions"] for r in rows}
        assert len(got) == len(rows) and got == want

    def test_approx_distinct(self, ray_session):
        import ray.data

        from deduce_ray.ops.agg import approx_distinct

        rows = [{"g": "a", "v": i} for i in range(5)]
        rows += [{"g": "a\x00x", "v": i} for i in range(3)]
        got = approx_distinct(
            ray.data.from_items(rows), keys=["g"], value_col="v"
        ).take_all()
        # small distinct counts are exact under the linear-counting range
        assert {r["g"]: r["approx_distinct"] for r in got} == {"a": 5, "a\x00x": 3}

    def test_events_value_quantiles(self, ray_session, tmp_path):
        import duckdb
        import pyarrow.parquet as pq

        from deduce_ray.ops.relational import (
            events_value_quantiles,
            events_value_quantiles_sql,
        )

        types = ["view", "view\x00x", "view", "view\x00x", "view", "click", None, "click"]
        values = [1.0, 50.0, 2.0, 60.0, None, 3.0, 4.0, 5.0]
        pq.write_table(
            pa.table({"event_type": pa.array(types), "value": pa.array(values)}),
            str(tmp_path / "events.parquet"),
        )
        con = duckdb.connect()
        con.execute(
            f"CREATE VIEW events AS SELECT * FROM read_parquet('{tmp_path}/events.parquet')"
        )
        want = {r[0]: (r[1], r[2]) for r in con.execute(events_value_quantiles_sql()).fetchall()}
        assert len(want) == 4  # DuckDB keeps the twins apart
        rows = events_value_quantiles(str(tmp_path)).take_all()
        got = {r["event_type"]: (r["p50"], r["p95"]) for r in rows}
        assert len(got) == len(rows) and got == want


class TestMoneyContract:
    def test_cents_overflow_is_actionable(self):
        from deduce_ray.ops.relational import _cents

        col = pa.chunked_array([pa.array([1e18], type=pa.float64())])
        with pytest.raises(ValueError, match="integer-cents"):
            _cents(col)

    def test_duckdb_refuses_the_same_rows(self):
        import duckdb

        with pytest.raises(duckdb.ConversionException):
            duckdb.sql(
                "SELECT CAST(round(1e18 * 100) AS BIGINT)"
            ).fetchall()

    def test_cents_in_range_and_null(self):
        from deduce_ray.ops.relational import _cents

        col = pa.chunked_array(
            [pa.array([9e13, None, -9e13, 0.005], type=pa.float64())]
        )
        out = _cents(col).to_pylist()
        assert out == [9000000000000000, None, -9000000000000000, 1]


class TestNullDocIdContract:
    def test_decoration_refuses_null_doc_id(self):
        from deduce_ray.corpus import decorate_batch

        batch = pa.table(
            {
                "doc_id": pa.array([1, None], type=pa.int64()),
                "text": pa.array(["a", "b"]),
                "lang": pa.array(["en", "en"]),
            }
        )
        with pytest.raises(ValueError, match="null doc_id"):
            decorate_batch(batch)


class TestFlooredModuloSQL:
    def test_decoration_matches_python_for_negative_ids(self):
        import duckdb

        from deduce_ray.corpus import (
            content_for,
            repo_for_doc_id,
            sql_content_expr,
            sql_repo_expr,
        )

        con = duckdb.connect()
        for doc_id in [-1, -12, -100, -37, 0, 5, -99999]:
            got_content, got_repo = con.execute(
                f"SELECT {sql_content_expr('t', 'i')}, "
                f"{sql_repo_expr('i')} FROM "
                f"(SELECT 'xx' AS t, CAST({doc_id} AS BIGINT) AS i)"
            ).fetchone()
            assert got_content == content_for(doc_id, "xx"), doc_id
            assert got_repo == repo_for_doc_id(doc_id), doc_id


class TestBucketedJoinNullSafety:
    def test_null_measure_fact_still_joins(self, ray_session, tmp_path):
        import duckdb

        import pyarrow.parquet as pq

        from deduce_ray.ops.relational import (
            bucketed_join_revenue,
            bucketed_join_revenue_sql,
        )

        orders = pa.table(
            {
                "o_orderkey": pa.array([1, 2, 3], type=pa.int64()),
                "o_custkey": pa.array([1, 1, 2], type=pa.int64()),
                "o_orderstatus": pa.array(["F", "O", "F"]),
                "o_totalprice": pa.array([1.0, 2.0, 3.0]),
                "o_orderdate": pa.array([0, 0, 0], type=pa.timestamp("us")),
                "o_orderpriority": pa.array(["1-URGENT", None, "2-HIGH"]),
            }
        )
        lineitem = pa.table(
            {
                "l_orderkey": pa.array([1, 2, 2, 3, None], type=pa.int64()),
                "l_extendedprice": pa.array([10.0, None, 4.0, 6.0, 8.0]),
                "l_discount": pa.array([0.0, 0.1, None, 0.25, 0.0]),
            }
        )
        pq.write_table(orders, str(tmp_path / "orders.parquet"))
        pq.write_table(lineitem, str(tmp_path / "lineitem.parquet"))

        mine = bucketed_join_revenue(str(tmp_path)).to_pandas()
        mine = mine.sort_values("o_orderpriority", na_position="last")

        con = duckdb.connect()
        for t in ["orders", "lineitem"]:
            con.execute(
                f"CREATE VIEW {t} AS SELECT * FROM "
                f"read_parquet('{tmp_path}/{t}.parquet')"
            )
        want = con.execute(bucketed_join_revenue_sql()).df()
        want = want.sort_values("o_orderpriority", na_position="last")

        a = mine.reset_index(drop=True)
        b = want.reset_index(drop=True)
        pd.testing.assert_frame_equal(a, b, check_dtype=False)
        # the NULL-priority group must exist and carry the null-measure
        # fact rows (2 items under order 2)
        nulls = a[a["o_orderpriority"].isna()]
        assert len(nulls) == 1
        assert int(nulls["n_items"].iloc[0]) == 2
