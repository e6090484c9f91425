"""Resumable bucketed parquet sink (deduce_ray/sinks.py)."""

import json

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from deduce_ray.sinks import _bucket_of, write_parquet_resumable


def _corpus(n=200, start=0):
    ids = np.arange(start, start + n, dtype=np.int64)
    return pa.table(
        {
            "doc_id": ids,
            "text": [f"document number {i} body" for i in ids],
        }
    )


def _read_all(out_dir):
    import glob

    parts = sorted(glob.glob(f"{out_dir}/part-*.parquet"))
    return pa.concat_tables([pq.read_table(p) for p in parts])


class TestBucketRouting:
    def test_deterministic_and_uniform(self):
        ids = np.arange(100_000, dtype=np.int64)
        b1 = _bucket_of(ids, 64)
        b2 = _bucket_of(ids.copy(), 64)
        assert (b1 == b2).all()
        counts = np.bincount(b1, minlength=64)
        # splitmix64 over 100k ids: every bucket within 20% of uniform
        assert counts.min() > 100_000 / 64 * 0.8
        assert counts.max() < 100_000 / 64 * 1.2

    def test_structured_ids_still_uniform(self):
        # ids stepping by the bucket count: bare modulo would collapse
        # everything into one bucket
        ids = np.arange(0, 64 * 10_000, 64, dtype=np.int64)
        counts = np.bincount(_bucket_of(ids, 64), minlength=64)
        assert counts.min() > 0
        assert counts.max() < len(ids) * 0.05

    def test_input_not_mutated(self):
        ids = np.arange(100, dtype=np.int64)
        orig = ids.copy()
        _bucket_of(ids, 8)
        assert (ids == orig).all()


class TestWriteResumable:
    def test_roundtrip_all_rows(self, ray_session, tmp_path):
        import ray

        tbl = _corpus(500)
        summary = write_parquet_resumable(
            ray.data.from_arrow(tbl), tmp_path, n_buckets=16
        )
        assert summary["buckets_skipped"] == 0
        assert summary["rows"] == 500
        assert summary["rows_total"] == 500
        out = _read_all(tmp_path).sort_by("doc_id")
        assert out.column("doc_id").to_pylist() == list(range(500))
        assert out.column("text").to_pylist() == tbl.column("text").to_pylist()
        # one manifest per written bucket, each complete with a content hash
        manifests = list((tmp_path / "_manifests").glob("part-*.json"))
        assert len(manifests) == summary["buckets_written"]
        m = json.loads(manifests[0].read_text())
        assert m["complete"] and len(m["ids_sha256"]) == 64

    def test_resume_skips_completed_buckets(self, ray_session, tmp_path):
        import ray

        tbl = _corpus(400)
        write_parquet_resumable(ray.data.from_arrow(tbl), tmp_path, n_buckets=8)

        # simulate a crashed earlier run: delete half the manifests AND
        # their data files, then corrupt a surviving data file's mtime
        # sentinel to prove resume does not rewrite it
        manifests = sorted((tmp_path / "_manifests").glob("part-*.json"))
        kept = manifests[: len(manifests) // 2]
        for mf in manifests[len(manifests) // 2 :]:
            bucket = json.loads(mf.read_text())["bucket"]
            mf.unlink()
            (tmp_path / f"part-{bucket:05d}.parquet").unlink()
        sentinels = {}
        for mf in kept:
            bucket = json.loads(mf.read_text())["bucket"]
            p = tmp_path / f"part-{bucket:05d}.parquet"
            sentinels[p] = p.stat().st_mtime_ns

        summary = write_parquet_resumable(
            ray.data.from_arrow(tbl), tmp_path, n_buckets=8, run_id="r2"
        )
        assert summary["buckets_skipped"] == len(kept)
        assert summary["rows_total"] == 400
        for p, mtime in sentinels.items():
            assert p.stat().st_mtime_ns == mtime, "completed bucket rewritten"
        out = _read_all(tmp_path).sort_by("doc_id")
        assert out.column("doc_id").to_pylist() == list(range(400))
        run = json.loads(
            (tmp_path / "_manifests" / "_run_r2.json").read_text()
        )
        assert run["rows_total"] == 400

    def test_resume_refuses_changed_config(self, ray_session, tmp_path):
        import ray

        write_parquet_resumable(
            ray.data.from_arrow(_corpus(50)), tmp_path, n_buckets=8
        )
        with pytest.raises(ValueError, match="re-route"):
            write_parquet_resumable(
                ray.data.from_arrow(_corpus(50)), tmp_path, n_buckets=16
            )

    def test_no_resume_refuses_nonempty_dir(self, ray_session, tmp_path):
        import ray

        (tmp_path / "stale.txt").write_text("x")
        with pytest.raises(ValueError, match="not empty"):
            write_parquet_resumable(
                ray.data.from_arrow(_corpus(10)),
                tmp_path,
                resume=False,
            )

    def test_torn_manifest_is_not_complete(self, ray_session, tmp_path):
        import ray

        write_parquet_resumable(
            ray.data.from_arrow(_corpus(100)), tmp_path, n_buckets=4
        )
        mf = sorted((tmp_path / "_manifests").glob("part-*.json"))[0]
        mf.write_text('{"bucket": 0, "rows":')  # torn write
        summary = write_parquet_resumable(
            ray.data.from_arrow(_corpus(100)), tmp_path, n_buckets=4
        )
        # the torn bucket was rewritten; the other three skipped
        assert summary["buckets_skipped"] == 3
        assert _read_all(tmp_path).num_rows == 100

    def test_null_id_raises(self, ray_session, tmp_path):
        import ray

        tbl = pa.table(
            {
                "doc_id": pa.array([1, None, 3], type=pa.int64()),
                "text": ["a", "b", "c"],
            }
        )
        with pytest.raises(Exception, match="null id"):
            write_parquet_resumable(
                ray.data.from_arrow(tbl), tmp_path, n_buckets=2
            )

    def test_non_integer_id_refused(self, ray_session, tmp_path):
        import ray

        tbl = pa.table({"doc_id": ["a", "b"], "text": ["x", "y"]})
        with pytest.raises(TypeError, match="integer-typed"):
            write_parquet_resumable(
                ray.data.from_arrow(tbl), tmp_path, n_buckets=2
            )

    def test_sort_cols_deterministic_bytes(self, ray_session, tmp_path):
        import hashlib

        import ray

        # chunk-shaped rows: composite (doc_id, chunk_id) identity,
        # bucketed by doc_id so a document's chunks stay together
        tbl = pa.table(
            {
                "doc_id": pa.array([2, 1, 2, 1, 3, 3], type=pa.int64()),
                "chunk_id": pa.array([1, 0, 0, 1, 0, 1], type=pa.int64()),
                "text": ["c", "a", "b", "d", "e", "f"],
            }
        )
        d1, d2 = tmp_path / "a", tmp_path / "b"
        for d in (d1, d2):
            write_parquet_resumable(
                ray.data.from_arrow(tbl),
                d,
                id_col="doc_id",
                sort_cols=("doc_id", "chunk_id"),
                n_buckets=2,
            )

        def digest(d):
            return [
                hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(d.glob("part-*.parquet"))
            ]

        assert digest(d1) == digest(d2)
        out = _read_all(d1)
        # within each file, rows are (doc_id, chunk_id)-sorted
        df = out.to_pandas()
        assert len(df) == 6


class TestPrepResumeIntegration:
    def test_funnel_through_resumable_sink(self, ray_session, tmp_path):
        """prep --resume semantics end-to-end: funnel output written
        bucketed, a simulated crash (half the manifests gone) resumed,
        total output equal to a single-shot run."""
        import ray

        from deduce_ray.ops.funnel import prep_corpus

        texts = [
            " ".join(f"woord{i}w{j}" for j in range(40)) for i in range(60)
        ]
        rows = [
            {"doc_id": i, "text": texts[i % 60]} for i in range(120)
        ]  # every text duplicated once -> 60 survivors

        def run(out_dir):
            out = prep_corpus(
                ray.data.from_items(rows),
                min_chars=10,
                minhash_threshold=None,
            )
            return write_parquet_resumable(
                out, out_dir, n_buckets=8, run_id="t"
            )

        d = tmp_path / "out"
        run(d)
        full = _read_all(d).sort_by("doc_id")
        assert full.num_rows == 60

        # crash simulation: drop half the manifests + their data files
        manifests = sorted((d / "_manifests").glob("part-*.json"))
        for mf in manifests[::2]:
            bucket = json.loads(mf.read_text())["bucket"]
            mf.unlink()
            (d / f"part-{bucket:05d}.parquet").unlink()

        summary = run(d)
        assert summary["buckets_skipped"] == len(manifests) - len(
            manifests[::2]
        )
        resumed = _read_all(d).sort_by("doc_id")
        assert resumed.equals(full)


def _triples(repos=("org/a", "org/b"), n=40):
    """Mention rows shaped like extract_triples output, no lexicon needed."""
    return [
        {
            "doc_id": f"{i:08x}", "repo": repos[i % len(repos)], "path": "p",
            "commit": "c", "lang": "nl", "pred": "id", "obj": f"o{i % 7}",
            "start_char": i, "end_char": i + 2, "entity_id": "ID-1",
        }
        for i in range(n)
    ]


def _graph_rows(out_dir):
    return sum(pq.read_table(p).num_rows for p in out_dir.glob("*/part-*.parquet"))


class TestGraphSinkProtocol:
    """materialize_graph goes through the same unit committer as the
    bucketed sink: the same refusal, torn-manifest and run-manifest
    behaviour."""

    def test_no_resume_refuses_nonempty_dir(self, ray_session, tmp_path):
        import ray

        from deduce_ray.rayops.kg import materialize_graph

        materialize_graph(ray.data.from_items(_triples()), tmp_path)
        # a second run over repo a alone would otherwise leave org/b's
        # units from the first run in place
        with pytest.raises(ValueError, match="not empty"):
            materialize_graph(
                ray.data.from_items(_triples(repos=("org/a",))),
                tmp_path,
                resume=False,
            )
        assert {p.parent.name for p in tmp_path.glob("*/part-*.parquet")} == {
            "org%2Fa__nl", "org%2Fb__nl",
        }

    def test_torn_manifest_is_not_complete(self, ray_session, tmp_path):
        import ray

        from deduce_ray.rayops.kg import completed_partitions, materialize_graph

        first = materialize_graph(
            ray.data.from_items(_triples()), tmp_path, hot_keys={"org/a"}, n_salts=4
        ).to_pandas()
        rows = _graph_rows(tmp_path)
        mf = sorted((tmp_path / "_manifests").glob("*.json"))[0]
        mf.write_text('{"partition": "' + mf.stem + '", "rows":')  # torn write
        assert mf.stem not in completed_partitions(tmp_path)

        again = materialize_graph(
            ray.data.from_items(_triples()), tmp_path, hot_keys={"org/a"}, n_salts=4
        ).to_pandas()
        # the torn unit was rewritten; every other unit skipped
        assert list(again["partition"]) == [mf.stem]
        assert json.loads(mf.read_text())["complete"]
        assert len(completed_partitions(tmp_path)) == len(first)
        assert _graph_rows(tmp_path) == rows

    def test_run_manifest_records_totals(self, ray_session, tmp_path):
        import ray

        from deduce_ray.rayops.kg import materialize_graph

        metrics = materialize_graph(
            ray.data.from_items(_triples()), tmp_path, run_id="r1"
        ).to_pandas()
        run = json.loads((tmp_path / "_manifests" / "_run_r1.json").read_text())
        assert run == {
            "run_id": "r1",
            "salting": {"hot_keys": [], "n_salts": 8},
            "units_written": len(metrics),
            "rows": int(metrics["rows"].sum()),
            "docs": int(metrics["docs"].sum()),
            "resumed_units_skipped": 0,
        }
        assert run["units_written"] == 2 and run["rows"] == _graph_rows(tmp_path)

        materialize_graph(ray.data.from_items(_triples()), tmp_path, run_id="r2")
        run2 = json.loads((tmp_path / "_manifests" / "_run_r2.json").read_text())
        assert run2["units_written"] == 0 and run2["resumed_units_skipped"] == 2


class TestUnitExchange:
    """The committer's exchange spreads the unit writes over shards."""

    def test_forty_units_over_many_blocks(self, ray_session, tmp_path):
        import ray

        from deduce_ray.sinks import commit_units

        n = 4000
        tbl = pa.table(
            {
                "unit": [f"u{i % 40:02d}" for i in range(n)],
                "v": pa.array(range(n), pa.int64()),
            }
        )

        def unit_of(batch):
            return batch.column("unit")

        def make_unit(name, rows):
            return rows.sort_by("v"), f"{name}.parquet", {"rows": rows.num_rows}

        written, skipped = commit_units(
            ray.data.from_arrow(tbl).repartition(100),
            tmp_path,
            unit_of,
            make_unit,
            {"layout": 0},
        )
        assert skipped == {}
        manifests = sorted(p.stem for p in (tmp_path / "_manifests").glob("*.json"))
        files = sorted(p.stem for p in tmp_path.glob("*.parquet"))
        assert manifests == files == [f"u{i:02d}" for i in range(40)]
        units = written.take_all()
        assert len(units) == 40 and sum(u["rows"] for u in units) == n
        assert sum(pq.read_table(tmp_path / f"{u}.parquet").num_rows for u in files) == n
        # more than one task wrote: the units spread over several blocks
        filled = [b for b in written.iter_batches(batch_size=None, batch_format="pyarrow") if b.num_rows]
        assert len(filled) > 1


def _contract_triples():
    """Graph edge cases: null and '' repos (one sink partition), repos
    that need slug escapes, null doc_id, pred, obj and span."""
    repos = [None, "", "org__b", "x%y_z"]
    return [
        {
            "doc_id": None if i == 5 else f"{i % 3:08x}",
            "repo": repos[i % 4], "path": "p", "commit": "c",
            "lang": "nl", "pred": None if i == 6 else "id",
            "obj": None if i == 7 else f"o{i % 5}",
            "start_char": None if i % 4 == 1 else i, "end_char": i + 2,
            "entity_id": "ID-1",
        }
        for i in range(16)
    ]


class TestGraphSinkContract:
    def test_unit_names_and_manifests_are_pinned(self, ray_session, tmp_path):
        """Unit names and manifest fields are the on-disk contract that
        resume reads: these literals were written by the earlier
        (pandas-merge, map_groups) sink, so a directory it wrote resumes."""
        import ray

        from deduce_ray.rayops.kg import materialize_graph

        materialize_graph(
            ray.data.from_items(_contract_triples()),
            tmp_path,
            hot_keys={"x%y_z"},
            n_salts=2,
        ).to_pandas()
        keep = ("triples_sha256", "rows", "docs", "mentions", "repo", "lang", "salt")
        got = {
            mf.stem: {k: json.loads(mf.read_text())[k] for k in keep}
            for mf in (tmp_path / "_manifests").glob("*.json")
        }
        assert got == {
            "__nl__0": {
                "triples_sha256": "12c4716f7624ca8ab149ee935f36bf629421083a5c02de7b26f03ca89bd28a15",
                "rows": 8, "docs": 3, "mentions": 8, "repo": "", "lang": "nl", "salt": 0,
            },
            "org%5F%5Fb__nl__0": {
                "triples_sha256": "a071850bb05cfb34eafa09462123be3f4bbe870beaefc6feab583a52087c29cf",
                "rows": 4, "docs": 3, "mentions": 4, "repo": "org__b", "lang": "nl", "salt": 0,
            },
            "x%25y%5Fz__nl__0": {
                "triples_sha256": "097c30a1bc553eab92682a7a2d2e1bec059982969114e4f6ce8eaea98d66613f",
                "rows": 3, "docs": 2, "mentions": 3, "repo": "x%y_z", "lang": "nl", "salt": 0,
            },
            "x%25y%5Fz__nl__1": {
                "triples_sha256": "2b1a3526928bb6b3f82fc81edb1867a6c4be2351fe948e6ece6a8a881615ab41",
                "rows": 1, "docs": 1, "mentions": 1, "repo": "x%y_z", "lang": "nl", "salt": 1,
            },
        }

    def test_units_share_one_schema(self, ray_session, tmp_path):
        """A unit with a null span writes first_start_char as int32, like
        every other unit, so the directory reads as one dataset."""
        import pyarrow.dataset as pds
        import ray

        from deduce_ray.rayops.kg import materialize_graph

        def mentions(repo, n, null_span):
            return pa.table(
                {
                    "doc_id": [f"{repo}{i:07x}" for i in range(n)],
                    "repo": [repo] * n, "path": ["p"] * n, "commit": ["c"] * n,
                    "lang": ["nl"] * n, "pred": ["id"] * n,
                    "obj": [f"o{i}" for i in range(n)],
                    "start_char": pa.array(
                        [None if null_span and i == 0 else i for i in range(n)], pa.int32()
                    ),
                    "end_char": pa.array(range(2, n + 2), pa.int32()),
                    "entity_id": ["ID-1"] * n,
                }
            )

        # one coalescer batch (32768 rows) holds repo a with its null span,
        # the next holds repo b
        ds = ray.data.from_arrow([mentions("a", 32768, True), mentions("b", 10, False)])
        materialize_graph(ds, tmp_path).to_pandas()
        files = sorted(tmp_path.glob("*/part-*.parquet"))
        assert len(files) == 2
        for f in files:
            assert pq.read_schema(f).field("first_start_char").type == pa.int32(), f
        table = pds.dataset([str(f) for f in files], format="parquet").to_table()
        assert table.num_rows == 32778
        assert table.column("first_start_char").null_count == 1
