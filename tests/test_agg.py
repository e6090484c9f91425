"""The sampling-free shard exchange (deduce_ray/ops/agg.py)."""

import pyarrow as pa

from deduce_ray.ops.agg import shard_exchange


def _rows(keys, n_shards):
    return [{"key": k, "shard": k % n_shards, "v": k * 10} for k in keys]


def _cpus() -> int:
    import ray

    return int(ray.cluster_resources()["CPU"])


def _summarizer(n_shards=8):
    # built inside a function so that Ray ships it by value: workers
    # cannot import this test module
    def summarize(shard: pa.Table) -> pa.Table:
        """One row per merge call: the shards it saw and its row count."""
        shards = sorted({k % n_shards for k in shard.column("key").to_pylist()})
        return pa.table(
            {
                "shards": pa.array([shards], type=pa.list_(pa.int64())),
                "rows": pa.array([shard.num_rows], type=pa.int64()),
                "columns": pa.array([shard.column_names], type=pa.list_(pa.string())),
            }
        )

    return summarize


SUMMARY = pa.schema(
    [
        ("shards", pa.list_(pa.int64())),
        ("rows", pa.int64()),
        ("columns", pa.list_(pa.string())),
    ]
)


def _calls(ds) -> list[dict]:
    return sorted(ds.take_all(), key=lambda r: r["shards"])


class TestShardExchange:
    def test_one_call_per_cpu_over_contiguous_shard_ranges(self, ray_session):
        import ray

        cpus = _cpus()
        n_shards = 2 * cpus + 1  # not a multiple of the partition count
        ds = ray.data.from_items(
            _rows(range(40 * n_shards), n_shards), override_num_blocks=200
        )
        assert ds.materialize().num_blocks() >= 200
        out = shard_exchange(ds, "shard", n_shards, _summarizer(n_shards))
        calls = _calls(out)
        # min(n_shards, CPUs) calls, each over a whole, contiguous range of
        # shards; every shard lands in exactly one call
        assert len(calls) == cpus
        ranges = [c["shards"] for c in calls]
        assert all(r == list(range(r[0], r[-1] + 1)) for r in ranges)
        assert sum(ranges, []) == list(range(n_shards))
        assert [c["rows"] for c in calls] == [40 * len(r) for r in ranges]
        # the shard column is dropped before the merge
        assert all(c["columns"] == ["key", "v"] for c in calls)
        assert out.schema().base_schema == SUMMARY

    def test_fewer_shards_than_cpus_is_one_call_per_shard(self, ray_session):
        import ray

        n_shards = _cpus() - 1
        assert n_shards > 1
        ds = ray.data.from_items(
            _rows(range(30 * n_shards), n_shards), override_num_blocks=20
        )
        calls = _calls(shard_exchange(ds, "shard", n_shards, _summarizer(n_shards)))
        assert [c["shards"] for c in calls] == [[s] for s in range(n_shards)]
        assert [c["rows"] for c in calls] == [30] * n_shards

    def test_one_shard(self, ray_session):
        import ray

        ds = ray.data.from_items(
            [{"key": k, "shard": 0, "v": k} for k in range(300)],
            override_num_blocks=30,
        )
        out = shard_exchange(ds, "shard", 1, _summarizer())
        calls = out.take_all()
        assert len(calls) == 1 and calls[0]["rows"] == 300
        assert out.schema().base_schema == SUMMARY

    def test_empty_shards_leave_the_result_typed(self, ray_session):
        import ray

        # rows in shards 1 and 5 only: six of eight shards are empty
        ds = ray.data.from_items(_rows([1, 5, 9, 13, 21], 8), override_num_blocks=5)
        out = shard_exchange(ds, "shard", 8, _summarizer()).materialize()
        assert [c["shards"] for c in _calls(out)] == [[1], [5]]
        assert [c["rows"] for c in _calls(out)] == [2, 3]
        assert out.schema().base_schema == SUMMARY
        assert list(out.to_pandas().columns) == SUMMARY.names

    def test_empty_input(self, ray_session):
        import ray

        empty = pa.table(
            {
                "key": pa.array([], pa.int64()),
                "shard": pa.array([], pa.int64()),
                "v": pa.array([], pa.int64()),
            }
        )
        for n_shards in (1, 8):
            out = shard_exchange(ray.data.from_arrow(empty), "shard", n_shards, _summarizer())
            # no shard has rows, so merge never runs and nothing is emitted
            assert out.count() == 0
            assert out.take_all() == []

    def test_shard_larger_than_target_block_size_is_one_batch(self, ray_session):
        import ray
        from ray.data import DataContext

        ctx = DataContext.get_current()
        saved = ctx.target_max_block_size
        ctx.target_max_block_size = 64 * 1024
        try:
            # shard 3 holds ~1.6 MB of int64 rows, 25x the block limit
            n = 100_000
            hot = pa.table(
                {
                    "key": pa.array(range(3, 8 * n, 8), pa.int64()),
                    "shard": pa.array([3] * n, pa.int64()),
                    "v": pa.array(range(n), pa.int64()),
                }
            )
            cold = pa.table(
                {
                    "key": pa.array([0, 1, 2], pa.int64()),
                    "shard": pa.array([0, 1, 2], pa.int64()),
                    "v": pa.array([0, 0, 0], pa.int64()),
                }
            )
            ds = ray.data.from_arrow([hot, cold])
            calls = _calls(shard_exchange(ds, "shard", 8, _summarizer()))
        finally:
            ctx.target_max_block_size = saved
        # the partition holding shard 3 arrives whole, in one call
        (hot_call,) = [c for c in calls if 3 in c["shards"]]
        assert hot_call["rows"] == n + len(hot_call["shards"]) - 1
        assert sum((c["shards"] for c in calls), []) == [0, 1, 2, 3]
