"""The shared banded-pairs core behind minhash_lsh_pairs, simhash_pairs
and embedding_neardup_pairs: the max_bucket recall cap, cross-shard pair
dedup on both verify paths, and the block type of neardup_clusters."""

import logging

import numpy as np
import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

WORDS = "alpha beta gamma delta epsilon zeta eta theta iota kappa"
OTHER = "lorem ipsum dolor sit amet consectetur adipiscing elit sed do"


def _spaced(words: str, variant: int) -> str:
    """The same words with a different whitespace layout: equal shingles,
    equal SimHash, different bytes (so the exact-dup collapse keeps each
    variant as its own representative)."""
    w = words.split()
    if variant == 0:
        return " ".join(w)
    if variant == 1:
        return " " + " ".join(w)
    return " ".join(w[:variant]) + "  " + " ".join(w[variant:])


def _hot_text_rows():
    # ids 3, 5, 7, 9 share one signature; 20 and 21 share another
    rows = [
        {"doc_id": i, "text": _spaced(WORDS, v)}
        for i, v in ((7, 0), (3, 1), (9, 2), (5, 3))
    ]
    rows += [
        {"doc_id": 20, "text": _spaced(OTHER, 0)},
        {"doc_id": 21, "text": _spaced(OTHER, 1)},
    ]
    return rows


def _rows(ds, value_col):
    return sorted((r["id_a"], r["id_b"], r[value_col]) for r in ds.take_all())


def _cap_warnings(caplog):
    return [
        r.getMessage()
        for r in caplog.records
        if r.name == "deduce_ray.ops.dedup" and "max_bucket=" in r.getMessage()
    ]


class TestMaxBucketCap:
    """A bucket above ``max_bucket`` keeps its smallest ids and the dropped
    candidate-pair count is logged."""

    @pytest.mark.parametrize("verify", ["signature", "exact"])
    def test_minhash_cap(self, ray_session, caplog, verify):
        import ray.data

        from deduce_ray.ops.dedup import minhash_lsh_pairs

        with caplog.at_level(logging.WARNING, logger="deduce_ray.ops.dedup"):
            out = minhash_lsh_pairs(
                ray.data.from_items(_hot_text_rows()),
                threshold=0.5,
                bands=1,
                max_bucket=3,
                verify=verify,
            )
            rows = _rows(out, "jaccard")
        # one band: the hot bucket {3, 5, 7, 9} keeps 3, 5 and 7
        assert rows == [(3, 5, 1.0), (3, 7, 1.0), (5, 7, 1.0), (20, 21, 1.0)]
        msgs = _cap_warnings(caplog)
        assert len(msgs) == 1, msgs
        assert "capped 1 bucket(s) at max_bucket=3" in msgs[0]
        assert "dropping 3 candidate pair(s)" in msgs[0]

    def test_simhash_cap(self, ray_session, caplog):
        import ray.data

        from deduce_ray.ops.dedup import simhash_pairs

        with caplog.at_level(logging.WARNING, logger="deduce_ray.ops.dedup"):
            out = simhash_pairs(
                ray.data.from_items(_hot_text_rows()), max_bucket=3
            )
            rows = _rows(out, "hamming")
        assert rows == [(3, 5, 0), (3, 7, 0), (5, 7, 0), (20, 21, 0)]
        msgs = _cap_warnings(caplog)
        assert len(msgs) == 1, msgs
        # equal words -> equal SimHash -> all four 16-bit bands are hot
        assert "capped 4 bucket(s) at max_bucket=3" in msgs[0]
        assert "dropping 12 candidate pair(s)" in msgs[0]

    def test_embedding_cap(self, ray_session, caplog):
        import ray.data

        from deduce_ray.ops.dedup import embedding_neardup_pairs

        rng = np.random.default_rng(11)
        v, w = rng.standard_normal(16), rng.standard_normal(16)
        # positive scalings share every sign bit, so one table puts
        # 3, 5, 7 and 9 in one bucket and 20, 21 in another
        rows = [
            {"vec_id": i, "embedding": [float(x) for x in v * s]}
            for i, s in ((7, 1.0), (3, 2.0), (9, 3.0), (5, 4.0))
        ]
        rows += [
            {"vec_id": 20, "embedding": [float(x) for x in w]},
            {"vec_id": 21, "embedding": [float(x) for x in w * 5.0]},
        ]
        with caplog.at_level(logging.WARNING, logger="deduce_ray.ops.dedup"):
            out = embedding_neardup_pairs(
                ray.data.from_items(rows),
                threshold=0.95,
                n_tables=1,
                max_bucket=3,
            )
            got = _rows(out, "cosine")
        assert got == [(3, 5, 1.0), (3, 7, 1.0), (5, 7, 1.0), (20, 21, 1.0)]
        msgs = _cap_warnings(caplog)
        assert len(msgs) == 1, msgs
        assert "capped 1 bucket(s) at max_bucket=3" in msgs[0]
        assert "dropping 3 candidate pair(s)" in msgs[0]


class TestCrossShardPairsOnce:
    """Equal signatures share every band, and the bands' buckets fall in
    different shards: each pair must still come out once, and the driver
    verify and the verify join must return equal rows."""

    def _text_rows(self):
        rows = _hot_text_rows()
        rows.append({"doc_id": -4, "text": "unrelated words only here " * 3})
        return rows

    @staticmethod
    def _check(driver, joined):
        pairs = [(a, b) for a, b, _ in driver]
        assert len(pairs) == len(set(pairs)) > 0
        assert driver == joined

    @pytest.mark.parametrize("verify", ["signature", "exact"])
    def test_minhash(self, ray_session, verify):
        import ray.data

        from deduce_ray.ops.dedup import minhash_lsh_pairs

        def run(**kw):
            return _rows(
                minhash_lsh_pairs(
                    ray.data.from_items(self._text_rows()),
                    threshold=0.5,
                    verify=verify,
                    **kw,
                ),
                "jaccard",
            )

        driver = run()
        self._check(driver, run(driver_verify_max=0))
        assert [(a, b) for a, b, _ in driver] == [
            (3, 5), (3, 7), (3, 9), (5, 7), (5, 9), (7, 9), (20, 21)
        ]

    def test_simhash(self, ray_session, monkeypatch):
        import ray.data

        from deduce_ray.ops import dedup

        def run():
            return _rows(
                dedup.simhash_pairs(ray.data.from_items(self._text_rows())),
                "hamming",
            )

        driver = run()
        monkeypatch.setattr(dedup, "_SIMHASH_DRIVER_VERIFY_MAX", 0)
        self._check(driver, run())
        assert (3, 9, 0) in driver and (20, 21, 0) in driver

    def test_embedding(self, ray_session):
        import ray.data

        from deduce_ray.ops.dedup import embedding_neardup_pairs

        rng = np.random.default_rng(5)
        rows = []
        for g in range(4):
            v = rng.standard_normal(16)
            for c in range(3):
                rows.append(
                    {
                        "vec_id": 100 * g - 150 + c,
                        "embedding": [float(x) for x in v * (1.0 + c)],
                    }
                )

        def run(**kw):
            return _rows(
                embedding_neardup_pairs(
                    ray.data.from_items(rows), threshold=0.95, **kw
                ),
                "cosine",
            )

        driver = run()
        self._check(driver, run(driver_verify_max=0))
        assert len(driver) >= 12  # every scaled group's three pairs


def _brute_expansion(rep_pairs, edges, intra_value, expand_cap):
    """Every pair _expand_dup_pairs must emit, from first principles: a
    group's clique (its star when the clique exceeds ``expand_cap``
    pairs), and each rep pair over both endpoints' groups (a group of
    more than ``expand_cap`` ids does not expand)."""
    import itertools

    groups: dict = {}
    for rep, member in edges:
        if rep != member:
            groups.setdefault(rep, set()).add(member)
    out = set()
    for rep, members in groups.items():
        ids = sorted({rep} | members)
        if expand_cap is not None and len(ids) * (len(ids) - 1) // 2 > expand_cap:
            out |= {(min(rep, m), max(rep, m), intra_value) for m in members}
        else:
            out |= {(a, b, intra_value) for a, b in itertools.combinations(ids, 2)}

    def side(x):
        members = groups.get(x, set())
        if expand_cap is not None and len(members) + 1 > expand_cap:
            return [x]
        return [x, *members]

    for a, b, v in rep_pairs:
        out |= {(min(x, y), max(x, y), v) for x in side(a) for y in side(b)}
    return out


@pytest.mark.parametrize("placement", ["driver", "distributed_edges", "distributed_intra"])
@pytest.mark.parametrize("expand_cap", [None, 5, 21])
@pytest.mark.parametrize(
    "value_col, value_dtype, intra_value, rep_values",
    [("jaccard", "float64", 1.0, [0.75, 0.5, 0.625, 0.875]), ("hamming", "int64", 0, [3, 1, 2, 0])],
)
def test_expand_dup_pairs_placements(
    ray_session, monkeypatch, caplog, placement, expand_cap, value_col, value_dtype, intra_value, rep_values
):
    """Both placements of the exact-dup expansion, forced through their
    tier limits, equal a brute-force expansion, with and without
    ``expand_cap``, over groups with duplicate-id rows (repeated and self
    edges) and signed ids.  The capped run logs the exact dropped-pair
    total once, the same on every placement.  A cap no group reaches
    (21: the largest clique's pair count) logs nothing and, on the driver
    placement, leaves the output lazy."""
    import ray.data
    from ray.data.dataset import MaterializedDataset

    from deduce_ray.ops import dedup

    if placement == "distributed_edges":
        monkeypatch.setattr(dedup, "_EXPAND_DRIVER_EDGES", 0)
    elif placement == "distributed_intra":
        monkeypatch.setattr(dedup, "_EXPAND_DRIVER_INTRA", 0)
    big = 1 << 62
    # six members: its 21-pair clique and its 7 ids both pass the cap;
    # three members: a 6-pair star, but the cross pairs expand
    groups = {
        -(1 << 63): [-50, -9, 4, 17, big, big + 3],
        -8: [-2, 11, 12],
        5: [6, 40],
        big + 10: [big + 11],
    }
    edges = [(rep, m) for rep, members in groups.items() for m in members]
    edges += [(-8, 11), (5, 40), (5, 5), (big + 10, big + 11)]  # duplicate-id rows
    rep_pairs = [
        (-(1 << 63), -8, rep_values[0]),
        (-8, 5, rep_values[1]),
        (5, 1000, rep_values[2]),
        (2000, 3000, rep_values[3]),
    ]
    rep_pairs.append((1000, big + 10, rep_values[0]))
    value_type = pa.from_numpy_dtype(np.dtype(value_dtype))
    edges_ds = ray.data.from_arrow(
        pa.table({"rep": pa.array([e[0] for e in edges], pa.int64()), "member": pa.array([e[1] for e in edges], pa.int64())})
    ).repartition(3).materialize()
    pairs_ds = ray.data.from_arrow(
        pa.table(
            {
                "id_a": pa.array([p[0] for p in rep_pairs], pa.int64()),
                "id_b": pa.array([p[1] for p in rep_pairs], pa.int64()),
                value_col: pa.array([p[2] for p in rep_pairs], value_type),
            }
        )
    ).repartition(2)
    with caplog.at_level(logging.WARNING, logger="deduce_ray.ops.dedup"):
        out = dedup._expand_dup_pairs(pairs_ds, edges_ds, value_col, intra_value, value_dtype, expand_cap)
        table = dedup._pull(out)
    assert table.column_names == ["id_a", "id_b", value_col]
    assert table.schema.field(value_col).type == value_type
    got = sorted(zip(*(table.column(c).to_pylist() for c in table.column_names)))
    want = _brute_expansion(rep_pairs, edges, intra_value, expand_cap)
    assert got == sorted(want)
    logged = [r.getMessage() for r in caplog.records if "expand_cap=" in r.getMessage()]
    dropped = len(_brute_expansion(rep_pairs, edges, intra_value, None)) - len(want)
    assert (dropped > 0) == (expand_cap == 5)
    if dropped:
        assert logged == [
            f"_expand_dup_pairs: expand_cap={expand_cap} dropped {dropped} expanded pair(s) "
            "(larger groups emit a star and skip the cross expansion; connectivity preserved)"
        ]
    else:
        assert logged == []
        if placement == "driver":
            assert not isinstance(out, MaterializedDataset)


@pytest.mark.parametrize("driver_threshold", [0, 1_000_000])
def test_neardup_clusters_arrow_blocks_union_sort(ray_session, driver_threshold):
    """neardup_clusters emits int64 Arrow blocks on both paths, so a union
    with an Arrow dataset sorts, and ids above 2**53 come back exact."""
    import ray.data

    from deduce_ray.ops.dedup import neardup_clusters

    big = 2**60
    pairs = ray.data.from_arrow(
        pa.table(
            {
                "id_a": pa.array([big + 1, big + 3], type=pa.int64()),
                "id_b": pa.array([big + 3, 2**61 + 7], type=pa.int64()),
            }
        )
    )
    labels = neardup_clusters(pairs, driver_threshold=driver_threshold)
    other = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([2**62 + 5], type=pa.int64()),
                "cluster_id": pa.array([2**62 + 5], type=pa.int64()),
            }
        )
    )
    rows = labels.union(other).sort("doc_id").take_all()
    assert [(r["doc_id"], r["cluster_id"]) for r in rows] == [
        (big + 1, big + 1),
        (big + 3, big + 1),
        (2**61 + 7, big + 1),
        (2**62 + 5, 2**62 + 5),
    ]


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=-3, max_value=3),
            st.sampled_from([-(2**63), -1, 0, 5, 2**53 + 1, 2**63 - 1]),
        ),
        max_size=40,
    ),
    st.one_of(st.none(), st.integers(min_value=0, max_value=4)),
)
def test_bucket_pairs_matches_brute_force(rows, max_bucket):
    """The candidate merge against a pure-Python reference: distinct
    pairs of distinct ids per bucket, a capped bucket keeping its
    smallest ids, the exact dropped count, and 64-bit ids kept exact."""
    from deduce_ray.ops.dedup import _bucket_pairs

    members: dict[int, set[int]] = {}
    for bucket, doc in rows:
        members.setdefault(bucket, set()).add(doc)
    want, capped, dropped = set(), 0, 0
    for ids in members.values():
        ids = sorted(ids)
        if max_bucket is not None and len(ids) > max(max_bucket, 1):
            capped += 1
            dropped += (len(ids) * (len(ids) - 1) - max_bucket * (max_bucket - 1)) // 2
            ids = ids[:max_bucket]
        want |= {(a, b) for i, a in enumerate(ids) for b in ids[i + 1 :]}
    a, b, got_capped, got_dropped = _bucket_pairs(
        np.array([r[0] for r in rows], dtype=np.int64),
        np.array([r[1] for r in rows], dtype=np.int64),
        max_bucket,
    )
    got = list(zip(a.tolist(), b.tolist()))
    assert len(got) == len(set(got))
    assert set(got) == want
    assert (got_capped, got_dropped) == (capped, dropped)
