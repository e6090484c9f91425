"""Scale stress for the two resumable sinks.

Bucketed leg: replicate sf0.1 documents to millions of rows, write
through write_parquet_resumable, crash-simulate (drop a third of the
manifests), resume, and verify the resumed output is row-exact vs the
expected id multiset.  Checks at scale: (1) the resume pass actually
skips the completed buckets' write work, (2) the driver pull stays one
row per bucket, (3) total rows conserve exactly across crash + resume.

Graph leg (no lexicon): synthetic mention rows in ``graph_blocks``
blocks, a third of them in one hot repo, go through detect_hot_keys
(whose exchange sees every block) and materialize_graph with the hot repo
salted; a third of the unit manifests are dropped, the run resumes, and
the units on disk must equal the expected graph row for row, as must
dedup_triples over the same rows.

Usage: python scripts/stress_sink.py [replicate] [cpus] [n_buckets] [graph_blocks]
Defaults: 16 replicas of sf0.1 documents (~1.28M rows), 16 CPUs, 64
buckets, 2000 graph blocks of 50 mention rows.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def main() -> int:
    replicate = int(sys.argv[1]) if len(sys.argv) > 1 else 16
    cpus = int(sys.argv[2]) if len(sys.argv) > 2 else 16
    n_buckets = int(sys.argv[3]) if len(sys.argv) > 3 else 64
    graph_blocks = int(sys.argv[4]) if len(sys.argv) > 4 else 2000

    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=cpus, include_dashboard=False,
                 log_to_driver=False)
    from deduce_ray.raytune import tune_data_context

    tune_data_context()

    import pyarrow as pa
    import pyarrow.parquet as pq

    from deduce_ray.sinks import write_parquet_resumable

    sf_dir = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
    base = pq.read_table(f"{sf_dir}/documents.parquet", columns=["text"])
    n_base = base.num_rows
    n_rows = n_base * replicate
    print(f"rows: {n_rows} ({n_base} x {replicate}), buckets: {n_buckets}")

    def replicate_block(batch: pa.Table) -> pa.Table:
        # batch carries a replica index; ids are globally unique by
        # construction: replica * n_base + row
        import numpy as np

        r = batch.column("replica")[0].as_py()
        ids = np.arange(n_base, dtype=np.int64) + r * n_base
        return pa.table(
            {"doc_id": pa.array(ids), "text": base.column("text")}
        )

    def build_ds():
        return ray.data.from_arrow(
            pa.table({"replica": pa.array(range(replicate))})
        ).repartition(replicate).map_batches(
            replicate_block, batch_format="pyarrow", batch_size=None
        )

    work = tempfile.mkdtemp(prefix="stress_sink_")
    out = Path(work) / "out"
    try:
        t0 = time.time()
        s1 = write_parquet_resumable(
            build_ds(), out, n_buckets=n_buckets, run_id="full"
        )
        t_full = time.time() - t0
        assert s1["rows"] == n_rows, s1
        print(
            f"full write: {t_full:.1f}s ({n_rows / t_full:,.0f} rows/s), "
            f"{s1['buckets_written']} buckets"
        )

        # crash simulation: drop a third of the bucket manifests + files
        manifests = sorted((out / "_manifests").glob("part-*.json"))
        dropped = manifests[::3]
        for mf in dropped:
            b = json.loads(mf.read_text())["bucket"]
            mf.unlink()
            (out / f"part-{b:05d}.parquet").unlink()
        print(f"crash-sim: dropped {len(dropped)}/{len(manifests)} buckets")

        t0 = time.time()
        s2 = write_parquet_resumable(
            build_ds(), out, n_buckets=n_buckets, run_id="resume"
        )
        t_resume = time.time() - t0
        assert s2["buckets_skipped"] == len(manifests) - len(dropped), s2
        assert s2["rows_total"] == n_rows, s2
        print(
            f"resume: {t_resume:.1f}s, rewrote {s2['buckets_written']} "
            f"buckets, skipped {s2['buckets_skipped']}"
        )

        # row-exact conservation: sum of per-file rows == n_rows and the
        # per-bucket manifests' id hashes are all present
        total = sum(
            pq.ParquetFile(p).metadata.num_rows
            for p in out.glob("part-*.parquet")
        )
        assert total == n_rows, (total, n_rows)
        done = len(list((out / "_manifests").glob("part-*.json")))
        assert done == s1["buckets_written"], (done, s1)
        print(f"conservation: {total} rows across {done} buckets — exact")
        graph_leg(Path(work) / "graph", graph_blocks)
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        ray.shutdown()


GRAPH_ROWS_PER_BLOCK = 50
HOT_REPO = "org/hot"


def mention_block(b: int):
    """Block ``b`` of the synthetic mention rows: doc ids recur across
    blocks, so graph rows merge across blocks; every 3rd row is in the
    hot repo; some doc ids, objects and spans are null."""
    import pyarrow as pa

    rows = range(b * GRAPH_ROWS_PER_BLOCK, (b + 1) * GRAPH_ROWS_PER_BLOCK)
    docs = [(r * 7919) % 5003 for r in rows]
    return pa.table(
        {
            "doc_id": [None if r % 211 == 0 else f"{d:08x}" for r, d in zip(rows, docs)],
            "repo": [HOT_REPO if r % 3 == 0 else f"org/r{d % 40:02d}" for r, d in zip(rows, docs)],
            "path": ["p"] * len(rows),
            "commit": ["c"] * len(rows),
            "lang": ["nl" if d % 5 else "en" for d in docs],
            "pred": [("id", "name", "date")[r % 3] for r in rows],
            "obj": [None if r % 307 == 0 else f"o{d % 17}" for r, d in zip(rows, docs)],
            "start_char": pa.array(
                [None if r % 101 == 0 else (r * 31) % 2000 for r in rows], pa.int32()
            ),
            "end_char": pa.array([(r * 31) % 2000 + 5 for r in rows], pa.int32()),
            "entity_id": [f"E{d % 3}" for d in docs],
        }
    )


def graph_leg(out: Path, n_blocks: int) -> None:
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray

    from deduce_ray.rayops.kg import dedup_triples, detect_hot_keys, materialize_graph

    def build_ds():
        def gen(batch: pa.Table) -> pa.Table:
            return pa.concat_tables([mention_block(b) for b in batch.column("id").to_pylist()])

        return ray.data.range(n_blocks, override_num_blocks=n_blocks).map_batches(
            gen, batch_format="pyarrow", batch_size=None
        )

    mentions = pa.concat_tables([mention_block(b) for b in range(n_blocks)])
    key = ["repo", "lang", "doc_id", "pred", "obj", "entity_id"]
    expected = mentions.group_by(key).aggregate(
        [([], "count_all"), ("start_char", "min")]
    ).rename_columns(key + ["n_mentions", "first_start_char"])
    order = [(c, "ascending") for c in key]

    def same_graph(table: pa.Table) -> bool:
        cols = key + ["n_mentions", "first_start_char"]
        return table.select(cols).sort_by(order).equals(expected.select(cols).sort_by(order))

    print(f"graph: {mentions.num_rows} mention rows in {n_blocks} blocks, "
          f"{expected.num_rows} graph rows")
    t0 = time.time()
    hot = detect_hot_keys(build_ds())
    t_hot = time.time() - t0
    assert hot == {HOT_REPO}, hot
    t0 = time.time()
    first = materialize_graph(build_ds(), out, hot_keys=hot, run_id="full").to_pandas()
    t_full = time.time() - t0
    print(f"graph hot-key scan: {t_hot:.1f}s; full write: {t_full:.1f}s, {len(first)} units "
          f"({int((first['repo'] == HOT_REPO).sum())} of them the salted hot repo)")

    manifests = sorted(p for p in (out / "_manifests").glob("*.json") if not p.name.startswith("_run_"))
    dropped = manifests[::3]
    for mf in dropped:
        unit = json.loads(mf.read_text())
        mf.unlink()
        partition = unit["partition"].rsplit("__", 1)[0]
        (out / partition / f"part-{unit['salt']}.parquet").unlink()
    print(f"graph crash-sim: dropped {len(dropped)}/{len(manifests)} units")

    t0 = time.time()
    again = materialize_graph(build_ds(), out, hot_keys=hot, run_id="resume").to_pandas()
    t_resume = time.time() - t0
    run = json.loads((out / "_manifests" / "_run_resume.json").read_text())
    assert len(again) == len(dropped), (len(again), len(dropped))
    assert run["resumed_units_skipped"] == len(manifests) - len(dropped), run
    print(f"graph resume: {t_resume:.1f}s, rewrote {len(again)} units, "
          f"skipped {run['resumed_units_skipped']}")

    units = pa.concat_tables(
        [pq.read_table(p) for p in sorted(out.glob("*/part-*.parquet"))],
        promote_options="permissive",
    )
    assert same_graph(units.cast(expected.select(units.column_names).schema)), "graph units differ"
    t0 = time.time()
    deduped = pa.Table.from_pandas(dedup_triples(build_ds()).to_pandas(), preserve_index=False)
    t_dedup = time.time() - t0
    assert same_graph(deduped.cast(expected.select(deduped.column_names).schema)), "dedup differs"
    print(f"graph conservation: {units.num_rows} rows across "
          f"{len(list(out.glob('*/part-*.parquet')))} units — exact; "
          f"dedup_triples {t_dedup:.1f}s — exact")


if __name__ == "__main__":
    raise SystemExit(main())
