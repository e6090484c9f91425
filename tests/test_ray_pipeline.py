"""Ray Data integration tests: annotate stage, graph materialization with
resume, dedup/similarity ops.  One shared local Ray session (conftest)."""

import hashlib

import numpy as np
import pyarrow as pa
import pytest

SF_DIR = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def lexicon_ref(ray_session):
    from deduce_ray.rayops.annotate import broadcast_lexicon

    return broadcast_lexicon()


def _repo_ds():
    import ray.data

    from deduce_ray.corpus import read_repo_table

    return read_repo_table(SF_DIR)


class TestAnnotateStage:
    def test_broadcast_lexicon_memoized(self, ray_session):
        # one ObjectRef per (path, cache_dir) per Ray session: workers key
        # their engine caches on the ref, so a second ref for the same
        # lexicon makes every worker re-fetch + re-unpickle 77 MB inside
        # whichever stage touches it first
        from deduce_ray.rayops.annotate import broadcast_lexicon

        assert broadcast_lexicon() is broadcast_lexicon()

    def test_triples_schema_and_invariant(self, ray_session, lexicon_ref):
        from deduce_ray.corpus import content_for
        from deduce_ray.rayops.annotate import TRIPLE_SCHEMA, extract_triples

        triples = extract_triples(_repo_ds(), lexicon_ref=lexicon_ref).take_all()
        assert triples, "expected mentions from the snippet-decorated corpus"
        assert set(triples[0].keys()) == set(TRIPLE_SCHEMA.names)

        # per-row invariant: doc_id is sha256 of the reconstructed content
        import pyarrow.parquet as pq

        docs = pq.read_table(
            f"{SF_DIR}/documents.parquet", columns=["doc_id", "text"]
        )
        sha_by_content = {
            hashlib.sha256(content_for(d, t).encode()).hexdigest()
            for d, t in zip(
                docs.column("doc_id").to_pylist(), docs.column("text").to_pylist()
            )
        }
        assert {row["doc_id"] for row in triples} <= sha_by_content

    def test_deterministic_across_runs(self, ray_session, lexicon_ref):
        from deduce_ray.rayops.annotate import extract_triples

        def run():
            rows = extract_triples(_repo_ds(), lexicon_ref=lexicon_ref).take_all()
            return sorted(
                (r["doc_id"], r["pred"], r["start_char"], r["obj"]) for r in rows
            )

        assert run() == run()

    def test_enabled_mask(self, ray_session, lexicon_ref):
        from deduce_ray.rayops.annotate import extract_triples

        rows = extract_triples(
            _repo_ds(),
            lexicon_ref=lexicon_ref,
            enabled={"email_addresses", "email"},
        ).take_all()
        assert rows and all(r["pred"] == "emailadres" for r in rows)

    def test_actor_pool_mode_matches_tasks(self, ray_session, lexicon_ref):
        from deduce_ray.rayops.annotate import extract_triples

        def key(rows):
            return sorted(
                (r["doc_id"], r["pred"], r["start_char"], r["obj"]) for r in rows
            )

        tasks = extract_triples(_repo_ds(), lexicon_ref=lexicon_ref).take_all()
        actors = extract_triples(
            _repo_ds(), lexicon_ref=lexicon_ref, mode="actors", concurrency=2
        ).take_all()
        assert key(tasks) == key(actors)


class TestGraphMaterialize:
    def test_write_and_resume(self, ray_session, lexicon_ref, tmp_path):
        from deduce_ray.rayops.annotate import extract_triples
        from deduce_ray.rayops.kg import completed_partitions, materialize_graph

        out = tmp_path / "graph"
        triples = extract_triples(_repo_ds(), lexicon_ref=lexicon_ref)
        metrics = materialize_graph(triples, out).to_pandas()
        assert len(metrics) > 0
        assert (out / "_manifests").exists()
        assert len(completed_partitions(out)) == len(metrics)

        # resume: identical second run writes nothing new
        triples2 = extract_triples(_repo_ds(), lexicon_ref=lexicon_ref)
        metrics2 = materialize_graph(triples2, out).to_pandas()
        assert len(metrics2) == 0

        # partition files exist and are readable
        import pyarrow.parquet as pq

        from deduce_ray.rayops.kg import _partition_slug

        row = metrics.iloc[0]
        part_dir = out / _partition_slug(row["repo"], row["lang"])
        part = pq.read_table(part_dir / f"part-{row['salt']}.parquet")
        assert part.num_rows == row["rows"]

    def test_materialize_null_partition_keys(self, ray_session, tmp_path):
        """Triples with null repo/lang write to a ''-keyed partition
        instead of crashing slug construction or being dropped on resume."""
        import ray.data

        from deduce_ray.rayops.kg import materialize_graph

        rows = [
            {
                "doc_id": "d1", "repo": None, "path": "p", "commit": "c",
                "lang": None, "pred": "id", "obj": "1234567",
                "start_char": 0, "end_char": 7, "entity_id": "ID-1",
            },
            {
                "doc_id": "d2", "repo": "org/r", "path": "p", "commit": "c",
                "lang": "nl", "pred": "id", "obj": "7654321",
                "start_char": 0, "end_char": 7, "entity_id": "ID-1",
            },
        ]
        out = tmp_path / "nullkeys"
        metrics = materialize_graph(
            ray.data.from_items(rows), out
        ).to_pandas()
        assert len(metrics) == 2
        assert set(metrics["repo"]) == {"", "org/r"}

        # resume skips both completed units (incl. the ''-keyed one)
        metrics2 = materialize_graph(ray.data.from_items(rows), out).to_pandas()
        assert len(metrics2) == 0

    def test_materialize_slug_injective(self, ray_session, tmp_path):
        """Repos 'org/x' and 'org__x' used to collide on one slug (the
        '/'->'__' replacement) and silently overwrite each other's parquet
        and manifest; the escaped slug keeps them distinct."""
        import ray.data

        from deduce_ray.rayops.kg import materialize_graph

        def row(i, repo):
            return {
                "doc_id": f"{i:08x}", "repo": repo, "path": "p",
                "commit": "c", "lang": "nl", "pred": "id",
                "obj": f"obj-{i}", "start_char": 0, "end_char": 5,
                "entity_id": "ID-1",
            }

        rows = [row(1, "org/x"), row(2, "org__x")]
        out = tmp_path / "sluggy"
        metrics = materialize_graph(ray.data.from_items(rows), out).to_pandas()
        assert len(metrics) == 2
        import pyarrow.parquet as pq

        total = sum(
            pq.read_table(f).num_rows for f in out.glob("*/part-*.parquet")
        )
        assert total == 2  # both partitions' rows survive on disk

    def test_materialize_null_and_nonhex_doc_ids(self, ray_session, tmp_path):
        """Null and non-hex doc_ids flow through dedup + a salted sink:
        the doc-bucket/salt derivation must not assume md5-hex ids (pandas
        groupby(dropna=False) also re-materializes null keys as truthy
        NaN, which the old 'if d' guard missed)."""
        import ray.data

        from deduce_ray.rayops.kg import dedup_triples, materialize_graph

        rows = [
            {
                "doc_id": d, "repo": "org/hot", "path": "p", "commit": "c",
                "lang": "nl", "pred": "id", "obj": f"o{i}",
                "start_char": 0, "end_char": 2, "entity_id": "ID-1",
            }
            for i, d in enumerate([None, "doc-1", "not hex!", "abcd1234"])
        ]
        graph = dedup_triples(ray.data.from_items(rows)).to_pandas()
        assert len(graph) == 4  # the null-id row survives the merge
        assert int(graph["n_mentions"].sum()) == 4

        out = tmp_path / "nonhex"
        metrics = materialize_graph(
            ray.data.from_items(rows), out, hot_keys={"org/hot"}, n_salts=4
        ).to_pandas()
        assert int(metrics["rows"].sum()) == 4

    def test_detect_hot_keys_null_repo(self, ray_session):
        """A dominant null-repo group is reported as '' (matching the
        sink's normalized key) rather than float NaN, so sorted(hot_keys)
        and the salting filter both work."""
        import ray.data

        from deduce_ray.rayops.kg import detect_hot_keys

        rows = [{"repo": None, "doc_id": f"{i:08x}"} for i in range(60)] + [
            {"repo": f"org/r{i}", "doc_id": f"{i:08x}"} for i in range(40)
        ]
        hot = detect_hot_keys(ray.data.from_items(rows), hot_fraction=0.5)
        assert hot == {""}
        assert sorted(hot) == [""]

    def test_detect_hot_keys(self, ray_session, lexicon_ref):
        from deduce_ray.rayops.annotate import extract_triples
        from deduce_ray.rayops.kg import detect_hot_keys

        triples = extract_triples(_repo_ds(), lexicon_ref=lexicon_ref)
        hot = detect_hot_keys(triples, hot_fraction=0.1)
        # the synthetic corpus routes ~30% of docs to org/monorepo
        assert "org/monorepo" in hot
        assert all(r == "org/monorepo" or not r.startswith("org/repo-") for r in hot)

    def test_detect_hot_keys_late_in_file_order(self, ray_session):
        """Round-2 regression: a hot repo concentrated in the LAST blocks
        must still be detected (the old limit()-prefix sample missed it)."""
        import ray.data

        from deduce_ray.rayops.kg import detect_hot_keys

        cold = [
            {"repo": f"org/cold-{i % 50:03d}", "doc_id": f"{i:08x}"}
            for i in range(5000)
        ]
        late_hot = [
            {"repo": "org/late-monorepo", "doc_id": f"h{i:07x}"}
            for i in range(3000)
        ]
        # cold rows first, hot repo entirely at the tail, many small blocks
        ds = ray.data.from_items(cold + late_hot).repartition(40)
        hot = detect_hot_keys(ds, hot_fraction=0.2)
        assert hot == {"org/late-monorepo"}

    def test_hot_key_salting(self, ray_session, lexicon_ref, tmp_path):
        from deduce_ray.rayops.annotate import extract_triples
        from deduce_ray.rayops.kg import materialize_graph

        out = tmp_path / "salted"
        triples = extract_triples(_repo_ds(), lexicon_ref=lexicon_ref)
        metrics = materialize_graph(
            triples, out, hot_keys={"org/monorepo"}, n_salts=4, run_id="r1"
        ).to_pandas()

        mono = metrics[metrics["repo"] == "org/monorepo"]
        cold = metrics[metrics["repo"] != "org/monorepo"]
        assert mono["salt"].nunique() > 1, "hot repo should fan out over salts"
        assert set(cold["salt"]) == {0}
        assert (out / "_manifests" / "_run_r1.json").exists()

        # salted rows reassemble to the same graph as the unsalted write
        import pyarrow.parquet as pq

        plain_out = tmp_path / "plain"
        triples2 = extract_triples(_repo_ds(), lexicon_ref=lexicon_ref)
        materialize_graph(triples2, plain_out).to_pandas()

        def all_rows(root):
            frames = []
            for f in sorted(root.glob("*/part-*.parquet")):
                frames.append(pq.read_table(f).to_pandas())
            import pandas as pd

            df = pd.concat(frames, ignore_index=True).drop(columns=[], errors="ignore")
            return df.sort_values(["doc_id", "pred", "obj", "first_start_char"]).reset_index(drop=True)

        a, b = all_rows(out), all_rows(plain_out)
        assert a.equals(b)

        # resuming with a different salting config is refused (old part
        # files would otherwise survive alongside re-routed new units)
        import pytest

        triples3 = extract_triples(_repo_ds(), lexicon_ref=lexicon_ref)
        with pytest.raises(ValueError, match="salting config"):
            materialize_graph(
                triples3, out, hot_keys={"org/monorepo"}, n_salts=2
            )

    def test_layout_version_resume_refused(self, ray_session, tmp_path):
        """An output dir written under an older unit layout (different slug
        escaping / salt derivation) must refuse resume: its unit names can
        never match the current drop_done filter, so resuming would
        silently duplicate every row under new unit names."""
        import json

        import pytest
        import ray.data

        from deduce_ray.rayops.kg import materialize_graph

        out = tmp_path / "old_layout"
        (out / "_manifests").mkdir(parents=True)
        # a v1-era manifest: complete unit, no 'layout' field
        with open(out / "_manifests" / "org__x__nl__0.json", "w") as fh:
            json.dump(
                {
                    "partition": "org__x__nl__0",
                    "salting": {"hot_keys": [], "n_salts": 8},
                    "complete": True,
                },
                fh,
            )
        rows = [
            {
                "repo": "org/x", "lang": "nl", "doc_id": "ab12",
                "pred": "email", "obj": "a@b.nl", "entity_id": "e1",
                "start_char": 0,
            }
        ]
        with pytest.raises(ValueError, match="layout"):
            materialize_graph(ray.data.from_items(rows), out)

    def test_doc_bucket_spreads_constant_prefix_ids(self):
        """Id schemes with a constant hex-parseable PREFIX (dates,
        zero-padded sequences) must still spread across buckets — the old
        int(d[:4], 16) fast path collapsed them all into one bucket,
        defeating the uniform merge shuffle and hot-key salting."""
        from deduce_ray.rayops.kg import _doc_bucket

        for ids in (
            [f"2024{i:08d}" for i in range(1000)],        # fully hex-parseable
            [f"2024-08-17-{i:06d}" for i in range(1000)], # crc32 fallback
            [f"{i:032x}" for i in range(1000)],           # digest-style
        ):
            buckets = {_doc_bucket(d, 256) for d in ids}
            # the old prefix parse put ALL of these in one bucket; decimal
            # suffixes reach exactly 100 of 256 residues, the others all 256
            assert len(buckets) >= 100, ids[0]
        assert _doc_bucket(None, 256) == 0
        assert _doc_bucket("", 256) == 0
        # deterministic across calls
        assert _doc_bucket("deadbeef", 256) == _doc_bucket("deadbeef", 256)

    def test_form_node_id_injective(self):
        """Length-prefixed encoding: content containing the tag/joiner
        bytes must not conflate distinct (pred, form) nodes, and None is
        distinct from the literal 'None'."""
        from deduce_ray.rayops.kg import _form_node_id

        assert _form_node_id("a\x00\x02b", "c") != _form_node_id("a", "b\x00\x02c")
        assert _form_node_id(None, "x") != _form_node_id("None", "x")
        assert _form_node_id("x", None) != _form_node_id("x", "None")
        assert _form_node_id("p", "q") == _form_node_id("p", "q")

    def test_detect_hot_keys_null_and_empty_merge(self, ray_session):
        """Null and '' repos sink into ONE '____<lang>' partition, so
        their volumes must be summed BEFORE the hot-fraction threshold."""
        import ray.data

        from deduce_ray.rayops.kg import detect_hot_keys

        rows = (
            [{"repo": None, "doc_id": f"{i:08x}"} for i in range(30)]
            + [{"repo": "", "doc_id": f"a{i:07x}"} for i in range(30)]
            + [
                {"repo": f"org/cold-{i % 44:02d}", "doc_id": f"b{i:07x}"}
                for i in range(440)
            ]
        )
        # null 6% + '' 6% = 12% >= 10%; separately each is under threshold
        hot = detect_hot_keys(ray.data.from_items(rows), hot_fraction=0.1)
        assert hot == {""}


class TestDedupOps:
    def test_exact_dedup(self, ray_session):
        import ray.data

        from deduce_ray.ops.dedup import exact_dedup_groups

        ds = ray.data.from_items(
            [
                {"doc_id": 1, "text": "aaa bbb"},
                {"doc_id": 2, "text": "aaa bbb"},
                {"doc_id": 3, "text": "ccc"},
            ]
        )
        rows = {r["keep_id"]: r["n_dupes"] for r in exact_dedup_groups(ds).take_all()}
        assert rows == {1: 2, 3: 1}

    def test_minhash_finds_near_duplicates(self, ray_session):
        import ray.data

        from deduce_ray.ops.dedup import minhash_lsh_pairs

        base = "the quick brown fox jumps over the lazy dog again and again " * 5
        ds = ray.data.from_items(
            [
                {"doc_id": 1, "text": base},
                {"doc_id": 2, "text": base.replace("lazy", "sleepy")},
                {"doc_id": 3, "text": "completely different words entirely " * 8},
            ]
        )
        pairs = minhash_lsh_pairs(ds, threshold=0.5).take_all()
        assert {(p["id_a"], p["id_b"]) for p in pairs} == {(1, 2)}
        assert pairs[0]["jaccard"] > 0.5

    def test_minhash_no_pairs_returns_empty(self, ray_session):
        """Regression: the bounded driver-side pair dedup crashed with a
        KeyError on a zero-candidate corpus (empty dataset -> zero-column
        DataFrame -> drop_duplicates on missing columns)."""
        import ray.data

        from deduce_ray.ops.dedup import minhash_lsh_pairs, simhash_pairs

        ds = ray.data.from_items(
            [
                {"doc_id": 1, "text": "alpha beta gamma delta " * 10},
                {"doc_id": 2, "text": "epsilon zeta eta theta " * 10},
            ]
        )
        assert minhash_lsh_pairs(ds, threshold=0.5).take_all() == []
        assert simhash_pairs(ds, max_hamming=3).take_all() == []

    def test_simhash_pairs(self, ray_session):
        import ray.data

        from deduce_ray.ops.dedup import simhash_pairs

        base = " ".join(f"word{i}" for i in range(60))
        ds = ray.data.from_items(
            [
                {"doc_id": 1, "text": base},
                {"doc_id": 2, "text": base + " extra"},
                {"doc_id": 3, "text": " ".join(f"other{i}" for i in range(60))},
            ]
        )
        pairs = simhash_pairs(ds, max_hamming=8).take_all()
        assert (1, 2) in {(p["id_a"], p["id_b"]) for p in pairs}
        assert (1, 3) not in {(p["id_a"], p["id_b"]) for p in pairs}

    def test_embedding_neardup(self, ray_session):
        import ray.data

        rng = np.random.default_rng(0)
        v = rng.standard_normal(16)
        rows = [
            {"vec_id": 1, "embedding": list(v)},
            {"vec_id": 2, "embedding": list(v + rng.standard_normal(16) * 0.01)},
            {"vec_id": 3, "embedding": list(rng.standard_normal(16))},
        ]
        from deduce_ray.ops.dedup import embedding_neardup_pairs

        pairs = embedding_neardup_pairs(
            ray.data.from_items(rows), threshold=0.95
        ).take_all()
        assert {(p["id_a"], p["id_b"]) for p in pairs} == {(1, 2)}

    def test_embedding_neardup_join_path_matches_fast_path(self, ray_session):
        """driver_verify_max=0 forces the distributed verify join; it must
        report exactly the fast path's pairs and cosines."""
        import ray.data

        from deduce_ray.ops.dedup import embedding_neardup_pairs

        rng = np.random.default_rng(3)
        rows = []
        for i in range(40):
            v = rng.standard_normal(16)
            rows.append({"vec_id": i, "embedding": list(v)})
            if i % 5 == 0:
                rows.append(
                    {"vec_id": 1000 + i, "embedding": list(v * 2.0)}
                )

        def run(**kw):
            return sorted(
                (p["id_a"], p["id_b"], p["cosine"])
                for p in embedding_neardup_pairs(
                    ray.data.from_items(rows), threshold=0.95, **kw
                ).take_all()
            )

        fast = run()
        joined = run(driver_verify_max=0)
        assert fast == joined
        assert len(fast) >= 8  # the planted scaled copies were found

    def test_minhash_verify_modes_agree(self, ray_session):
        """Signature-agreement (fixed-width shuffle) and exact-Jaccard
        verification report the same pair set away from the threshold."""
        import ray.data

        from deduce_ray.ops.dedup import minhash_lsh_pairs

        base = "alpha beta gamma delta epsilon zeta eta theta iota kappa " * 6
        ds = ray.data.from_items(
            [
                {"doc_id": 1, "text": base},
                {"doc_id": 2, "text": base.replace("zeta", "zed")},
                {"doc_id": 3, "text": base},
                {"doc_id": 4, "text": "nothing in common with the others " * 9},
            ]
        )
        sig = minhash_lsh_pairs(ds, threshold=0.5, verify="signature").take_all()
        exact = minhash_lsh_pairs(ds, threshold=0.5, verify="exact").take_all()
        sig_pairs = {(p["id_a"], p["id_b"]) for p in sig}
        exact_pairs = {(p["id_a"], p["id_b"]) for p in exact}
        assert sig_pairs == exact_pairs == {(1, 2), (1, 3), (2, 3)}
        # identical docs agree on every component -> estimate exactly 1.0
        sig_13 = next(p["jaccard"] for p in sig if (p["id_a"], p["id_b"]) == (1, 3))
        assert sig_13 == 1.0

    def test_expanded_pairs_blocks_are_homogeneous(self, ray_session):
        """Regression: _expand_dup_pairs returned cross.union(intra) with
        ARROW blocks on one side and PANDAS blocks on the other; any
        downstream iter_batches whose batch window spanned the type
        boundary hit ray.data's one-block-type-per-batch assertion (seen
        as a minhash_clusters crash at sf0.1).  Exact-dup groups force a
        non-empty intra side; many input blocks force small output blocks
        so a batch window spans both sides."""
        import numpy as np
        import ray.data

        from deduce_ray.ops.dedup import minhash_lsh_pairs, neardup_clusters

        rng = np.random.default_rng(7)
        words = ["alpha", "beta", "gamma", "delta", "eps", "zeta", "eta"]
        items = [
            {"doc_id": i, "text": " ".join(rng.choice(words, size=25))}
            for i in range(200)
        ]
        # exact-dup groups -> intra (collapsed-group) pairs exist
        items += [
            {"doc_id": 10_000 + g * 10 + c, "text": items[g]["text"]}
            for g in range(10)
            for c in range(3)
        ]
        ds = ray.data.from_items(items).repartition(16)
        pairs = minhash_lsh_pairs(ds, threshold=0.5)
        # one batch spanning every block exercises the delegating builder
        batches = list(pairs.iter_batches(batch_size=1 << 20, batch_format="pyarrow"))
        n_pairs = sum(b.num_rows for b in batches)
        assert n_pairs >= 10 * 6  # 4-member groups -> 6 intra pairs each
        labels = {
            r["doc_id"]: r["cluster_id"] for r in neardup_clusters(pairs).take_all()
        }
        for g in range(10):
            assert labels[10_000 + g * 10] == labels[g]

    def test_expand_cap_degrades_to_star(self, ray_session):
        """A collapsed exact-dup group whose full expansion exceeds
        expand_cap degrades to a star around the representative: every
        copy still appears in >=1 pair (dup-flagging preserved) and the
        whole group still forms ONE cluster (connectivity preserved),
        with the dropped-pair count logged rather than silent."""
        import ray.data

        from deduce_ray.ops.dedup import minhash_lsh_pairs, neardup_clusters

        boiler = "identical boilerplate text repeated verbatim " * 4
        n_copies = 30  # full expansion = 435 pairs > cap
        items = [{"doc_id": i, "text": boiler} for i in range(n_copies)]
        items += [
            {"doc_id": 100 + i, "text": f"unique filler {i} alpha beta gamma"}
            for i in range(20)
        ]
        ds = ray.data.from_items(items)
        pairs = minhash_lsh_pairs(ds, threshold=0.5, expand_cap=50)
        rows = pairs.take_all()
        copy_pairs = [
            (r["id_a"], r["id_b"])
            for r in rows
            if r["id_a"] < n_copies and r["id_b"] < n_copies
        ]
        # star, not clique: m-1 pairs instead of m(m-1)/2
        assert len(copy_pairs) == n_copies - 1
        flagged = {i for p in copy_pairs for i in p}
        assert flagged == set(range(n_copies))
        # every surviving pair sits at the intra value (jaccard 1.0)
        for r in rows:
            if (r["id_a"], r["id_b"]) in copy_pairs:
                assert r["jaccard"] == 1.0
        labels = {
            r["doc_id"]: r["cluster_id"]
            for r in neardup_clusters(pairs).take_all()
        }
        assert len({labels[i] for i in range(n_copies)}) == 1

    def test_expand_defaults_exact_clique(self, ray_session):
        """Output-changing caps are OFF by default: a dup group big enough
        to exceed the old expand_cap=8192 default (150 copies -> 11175
        pairs) must emit the FULL clique under default arguments, exactly
        like the brute-force DuckDB oracles expect."""
        import ray.data

        from deduce_ray.ops.dedup import minhash_lsh_pairs

        n_copies = 150
        items = [
            {"doc_id": i, "text": "identical boilerplate text " * 4}
            for i in range(n_copies)
        ]
        items += [
            {"doc_id": 1000 + i, "text": f"unique filler {i} alpha beta"}
            for i in range(5)
        ]
        pairs = minhash_lsh_pairs(ray.data.from_items(items), threshold=0.5)
        copy_pairs = [
            r
            for r in pairs.take_all()
            if r["id_a"] < n_copies and r["id_b"] < n_copies
        ]
        assert len(copy_pairs) == n_copies * (n_copies - 1) // 2

    def test_duplicate_id_rows_survive_collapse(self, ray_session):
        """Duplicate doc_id rows with identical text (a corpus unioned
        with itself) must not erase the document from LSH or emit self
        pairs: collapse masks self edges, keeping the benign pre-collapse
        behavior."""
        import ray.data

        from deduce_ray.ops.dedup import minhash_lsh_pairs

        items = [
            {"doc_id": 1, "text": "alpha beta gamma delta epsilon " * 3},
            {"doc_id": 2, "text": "alpha beta gamma delta epsilon " * 3},
            {"doc_id": 3, "text": "totally different words entirely here"},
        ]
        doubled = ray.data.from_items(items + items)  # every id twice
        rows = minhash_lsh_pairs(doubled, threshold=0.5).take_all()
        pairs = {(r["id_a"], r["id_b"]) for r in rows}
        assert (1, 2) in pairs, "near-dup pair lost after id duplication"
        assert all(a != b for a, b in pairs), f"self pairs emitted: {pairs}"

    def test_signature_mode_accepts_negative_ids(self, ray_session):
        """Negative ids are fully supported (hash-derived doc ids are
        signed int64): the verify join discriminates its legs with an
        explicit ``kind`` column, not a negative-id_a sentinel.  The
        bijection equivalence is pinned in test_adversarial_sf."""
        import ray.data

        from deduce_ray.ops.dedup import minhash_lsh_pairs

        ds = ray.data.from_items(
            [
                {"doc_id": -1, "text": "alpha beta gamma delta"},
                {"doc_id": 2, "text": "alpha beta gamma delta"},
            ]
        )
        out = minhash_lsh_pairs(
            ds, threshold=0.5, verify="signature", collapse_exact=False
        ).to_pandas()
        assert out["id_a"].tolist() == [-1]
        assert out["id_b"].tolist() == [2]
        assert out["jaccard"].tolist() == [1.0]

    def test_minhash_skips_empty_docs(self, ray_session):
        """Shingle-less docs share the zero signature; they must not pair
        with each other in either verify mode (they are exact_dedup's
        concern, and a corpus with many empties would otherwise form one
        O(m^2) bucket)."""
        import ray.data

        from deduce_ray.ops.dedup import minhash_lsh_pairs

        base = "gamma delta epsilon zeta eta theta " * 8
        ds = ray.data.from_items(
            [
                {"doc_id": 1, "text": ""},
                {"doc_id": 2, "text": "   "},
                {"doc_id": 3, "text": base},
                {"doc_id": 4, "text": base},
            ]
        )
        for mode in ("signature", "exact"):
            pairs = {
                (p["id_a"], p["id_b"])
                for p in minhash_lsh_pairs(ds, threshold=0.5, verify=mode).take_all()
            }
            assert pairs == {(3, 4)}, (mode, pairs)

    def test_planted_embedding_neardups(self, ray_session):
        """Planted scaled copies are found with recall 1 (all sign bits
        shared) and report cosine exactly 1.0."""
        import ray.data

        from deduce_ray.ops.dedup import (
            embedding_neardup_pairs,
            plant_embedding_neardups,
        )

        rng = np.random.default_rng(7)
        rows = [
            {"vec_id": i, "embedding": [float(x) for x in rng.standard_normal(16)]}
            for i in range(30)
        ]
        planted = plant_embedding_neardups(
            ray.data.from_items(rows), every=10, id_offset=1000
        )
        pairs = embedding_neardup_pairs(planted, threshold=0.95).take_all()
        got = {(p["id_a"], p["id_b"]) for p in pairs}
        assert {(0, 1000), (10, 1010), (20, 1020)} <= got
        assert all(p["cosine"] == 1.0 for p in pairs if p["id_b"] >= 1000)

    def test_lsh_cosine_recall_formula(self):
        from deduce_ray.ops.dedup import lsh_cosine_recall

        assert lsh_cosine_recall(1.0, 12, 1) == 1.0
        one_table = lsh_cosine_recall(0.97, 12, 1)
        assert 0.3 < one_table < 0.5
        assert lsh_cosine_recall(0.97, 12, 8) > 0.95


class TestSimilarity:
    def test_brute_force_self_is_top1(self, ray_session):
        import ray.data

        from deduce_ray.ops.similarity import brute_force_topk

        rng = np.random.default_rng(1)
        mat = rng.standard_normal((50, 8))
        ds = ray.data.from_items(
            [{"vec_id": i, "embedding": list(mat[i])} for i in range(50)]
        )
        out = brute_force_topk(ds, queries=mat[:3], k=5).take_all()
        top1 = {r["query_id"]: r["vec_id"] for r in out if r["rank"] == 1}
        assert top1 == {0: 0, 1: 1, 2: 2}

    def test_lsh_recall_against_brute_force(self, ray_session):
        import ray.data

        from deduce_ray.ops.similarity import brute_force_topk, lsh_bucketed_topk

        rng = np.random.default_rng(2)
        mat = rng.standard_normal((200, 16))
        items = [{"vec_id": i, "embedding": list(mat[i])} for i in range(200)]
        exact = brute_force_topk(
            ray.data.from_items(items), queries=mat[:3], k=10
        ).take_all()
        approx = lsh_bucketed_topk(
            ray.data.from_items(items), queries=mat[:3], k=10, n_planes=6
        ).take_all()
        exact_ids = {(r["query_id"], r["vec_id"]) for r in exact}
        approx_ids = {(r["query_id"], r["vec_id"]) for r in approx}
        recall = len(exact_ids & approx_ids) / len(exact_ids)
        assert recall >= 0.3  # approximate path trades recall for scan cost
        # self-match always survives (query bucket contains its own vector)
        assert {(q, q) for q in range(3)} <= approx_ids

    def test_ivf_recall_against_brute_force(self, ray_session):
        import ray.data

        from deduce_ray.ops.similarity import brute_force_topk, ivf_topk

        rng = np.random.default_rng(3)
        mat = rng.standard_normal((300, 16))
        items = [{"vec_id": i, "embedding": list(mat[i])} for i in range(300)]
        exact = brute_force_topk(
            ray.data.from_items(items), queries=mat[:3], k=10
        ).take_all()
        approx = ivf_topk(
            ray.data.from_items(items), queries=mat[:3], k=10,
            n_lists=8, n_probe=3,
        ).take_all()
        exact_ids = {(r["query_id"], r["vec_id"]) for r in exact}
        approx_ids = {(r["query_id"], r["vec_id"]) for r in approx}
        recall = len(exact_ids & approx_ids) / len(exact_ids)
        assert recall >= 0.4
        # the query vector itself lives in a probed list -> rank-1 self-match
        top1 = {r["query_id"]: r["vec_id"] for r in approx if r["rank"] == 1}
        assert top1 == {0: 0, 1: 1, 2: 2}

    def test_ivf_exhaustive_probe_equals_brute_force(self, ray_session):
        """Mode equivalence: with n_probe == n_lists every list is scanned,
        so the IVF machinery (quantizer assignment, list pruning, local
        top-k, global merge) must reproduce brute force EXACTLY — rows,
        scores, and ranks.  This is the same honesty pattern as minhash's
        signature/exact mode-equivalence test: the approximate path differs
        from the value-checked exact path only by its pruning knob."""
        import ray.data

        from deduce_ray.ops.similarity import brute_force_topk, ivf_topk

        rng = np.random.default_rng(17)
        mat = rng.standard_normal((250, 12))
        items = [{"vec_id": i, "embedding": list(mat[i])} for i in range(250)]
        exact = brute_force_topk(
            ray.data.from_items(items), queries=mat[:4], k=10
        ).take_all()
        full = ivf_topk(
            ray.data.from_items(items), queries=mat[:4], k=10,
            n_lists=8, n_probe=8,
        ).take_all()
        key = lambda r: (r["query_id"], r["rank"])  # noqa: E731
        exact_rows = {key(r): (r["vec_id"], r["score"]) for r in exact}
        full_rows = {key(r): (r["vec_id"], r["score"]) for r in full}
        assert full_rows == exact_rows

    def test_lsh_exhaustive_probe_equals_brute_force(self, ray_session):
        """Mode equivalence: with n_planes=1 the probe set {base, base^1}
        covers both buckets, so the LSH machinery must reproduce brute
        force EXACTLY."""
        import ray.data

        from deduce_ray.ops.similarity import brute_force_topk, lsh_bucketed_topk

        rng = np.random.default_rng(18)
        mat = rng.standard_normal((250, 12))
        items = [{"vec_id": i, "embedding": list(mat[i])} for i in range(250)]
        exact = brute_force_topk(
            ray.data.from_items(items), queries=mat[:4], k=10
        ).take_all()
        full = lsh_bucketed_topk(
            ray.data.from_items(items), queries=mat[:4], k=10, n_planes=1
        ).take_all()
        key = lambda r: (r["query_id"], r["rank"])  # noqa: E731
        exact_rows = {key(r): (r["vec_id"], r["score"]) for r in exact}
        full_rows = {key(r): (r["vec_id"], r["score"]) for r in full}
        assert full_rows == exact_rows
        # exhaustive=True probes all 2^8 buckets at the production plane
        # count — the stronger equivalence the driver oracle relies on
        # (__ray_entry__._q_ann_topk_lsh)
        allb = lsh_bucketed_topk(
            ray.data.from_items(items), queries=mat[:4], k=10, exhaustive=True
        ).take_all()
        assert {key(r): (r["vec_id"], r["score"]) for r in allb} == exact_rows

    def test_ivf_partitioned_index(self, ray_session, tmp_path):
        """The disk-partitioned IVF path: build writes one hive directory
        per list plus a centroid table; search's partition filter prunes
        the read to the probed lists only; exhaustive probing reproduces
        brute force exactly (same quantizer determinism contract as the
        in-batch variant)."""
        import ray.data

        from deduce_ray.ops.similarity import (
            brute_force_topk,
            ivf_build,
            ivf_search,
        )

        rng = np.random.default_rng(23)
        mat = rng.standard_normal((300, 12))
        items = [{"vec_id": i, "embedding": list(mat[i])} for i in range(300)]
        idx = str(tmp_path / "ivf_index")
        ivf_build(ray.data.from_items(items), idx, n_lists=8, train_size=300)

        # hive layout: one directory per non-empty list + centroids
        dirs = sorted(p.name for p in (tmp_path / "ivf_index" / "lists").iterdir())
        assert all(d.startswith("list_id=") for d in dirs)
        assert 1 < len(dirs) <= 8

        exact = brute_force_topk(
            ray.data.from_items(items), queries=mat[:4], k=10
        ).take_all()
        full = ivf_search(idx, queries=mat[:4], k=10, n_probe=8).take_all()
        key = lambda r: (r["query_id"], r["rank"])  # noqa: E731
        assert {key(r): (r["vec_id"], r["score"]) for r in full} == {
            key(r): (r["vec_id"], r["score"]) for r in exact
        }

        # probing fewer lists scans strictly less and keeps self-matches
        narrow = ivf_search(idx, queries=mat[:4], k=10, n_probe=2).take_all()
        top1 = {r["query_id"]: r["vec_id"] for r in narrow if r["rank"] == 1}
        assert top1 == {0: 0, 1: 1, 2: 2, 3: 3}

    def test_hll_approx_distinct(self, ray_session):
        """HLL sketch within ~5% of exact distinct counts, deterministic."""
        import ray.data

        from deduce_ray.ops.agg import approx_distinct

        rng = np.random.default_rng(9)
        rows = [
            {"g": ["a", "b"][i % 2], "v": int(rng.integers(0, 3000))}
            for i in range(20000)
        ]
        exact = {
            g: len({r["v"] for r in rows if r["g"] == g}) for g in ("a", "b")
        }
        got = {
            r["g"]: r["approx_distinct"]
            for r in approx_distinct(
                ray.data.from_items(rows), keys=["g"], value_col="v"
            ).take_all()
        }
        for g in ("a", "b"):
            assert abs(got[g] - exact[g]) / exact[g] < 0.05, (g, got[g], exact[g])
        # determinism: second run produces identical estimates
        again = {
            r["g"]: r["approx_distinct"]
            for r in approx_distinct(
                ray.data.from_items(rows), keys=["g"], value_col="v"
            ).take_all()
        }
        assert got == again

    def test_hll_null_semantics(self, ray_session):
        """Null values are ignored (COUNT(DISTINCT) semantics); null-keyed
        groups survive like SQL GROUP BY."""
        import ray.data

        from deduce_ray.ops.agg import approx_distinct

        rows = [
            {"g": "a", "v": 1},
            {"g": "a", "v": 2},
            {"g": "a", "v": None},
            {"g": None, "v": 7},
        ]
        got = {
            r["g"]: r["approx_distinct"]
            for r in approx_distinct(
                ray.data.from_items(rows), keys=["g"], value_col="v"
            ).take_all()
        }
        assert got["a"] == 2  # null value not counted
        # null-keyed group survives (appears as None or NaN depending on
        # the pandas->arrow round trip)
        null_keys = [k for k in got if k is None or k != k]
        assert len(null_keys) == 1 and got[null_keys[0]] == 1

    def test_hll_nulls_do_not_change_int_hashing(self, ray_session):
        """An int64 value column containing ANY null used to widen to
        float64 under to_pandas, hashing survivors as '123.0' instead of
        '123' — a different sketch for the same logical data.  The
        estimate over ints-with-nulls must equal the estimate over the
        same ints without nulls (and thereby the SQL oracle's
        CAST(v AS VARCHAR))."""
        import ray.data

        from deduce_ray.ops.agg import approx_distinct

        ints = [{"g": "a", "v": i % 500} for i in range(2000)]
        with_nulls = ints + [{"g": "a", "v": None}] * 100

        def est(rows):
            return approx_distinct(
                ray.data.from_items(rows), keys=["g"], value_col="v"
            ).take_all()[0]["approx_distinct"]

        assert est(ints) == est(with_nulls)

    def test_click_attribution_inner_semantics(self, ray_session):
        """Clicks with no prior view are dropped (inner as-of join)."""
        import pandas as pd
        import ray.data

        from deduce_ray.ops.relational import click_attribution

        # build a miniature events parquet in tmp via the real reader path
        import tempfile, os
        d = tempfile.mkdtemp()
        ts = pd.to_datetime(
            ["2024-01-01 00:00", "2024-01-01 01:00", "2024-01-01 02:00",
             "2024-01-01 00:30"]
        )
        df = pd.DataFrame(
            {
                "event_id": [1, 2, 3, 4],
                "ts": ts,
                "user_id": [7, 7, 7, 9],
                "event_type": ["view", "click", "click", "click"],
            }
        )
        df.to_parquet(os.path.join(d, "events.parquet"), index=False)
        out = click_attribution(d).take_all()
        got = {(r["event_id"], r["view_ts"]) for r in out}
        # user 7's clicks both attach to the 00:00 view; user 9 has none
        assert {e for e, _ in got} == {2, 3}
        assert all(v == ts[0] for _, v in got)

    def test_click_attribution_null_users_never_match(self, ray_session):
        """SQL equality never matches NULL; pandas merge_asof by= would
        pair NaN with NaN, so null-user rows must be dropped up front."""
        import os
        import tempfile

        import pandas as pd

        from deduce_ray.ops.relational import click_attribution

        d = tempfile.mkdtemp()
        ts = pd.to_datetime(
            ["2024-01-01 00:00", "2024-01-01 01:00",
             "2024-01-01 00:10", "2024-01-01 01:30"]
        )
        df = pd.DataFrame(
            {
                "event_id": [1, 2, 3, 4],
                "ts": ts,
                "user_id": pd.array([None, None, 7, 7], dtype="Int64"),
                "event_type": ["view", "click", "view", "click"],
            }
        )
        df.to_parquet(os.path.join(d, "events.parquet"), index=False)
        out = click_attribution(d).take_all()
        # only user 7's click survives; the null-user click matches nothing
        assert {r["event_id"] for r in out} == {4}

    def test_kmeans_deterministic(self):
        from deduce_ray.ops.similarity import kmeans_centroids

        rng = np.random.default_rng(4)
        mat = rng.standard_normal((100, 8))
        a = kmeans_centroids(mat, 5)
        b = kmeans_centroids(mat, 5)
        assert np.array_equal(a, b)
        assert a.shape == (5, 8)
        assert np.allclose(np.linalg.norm(a, axis=1), 1.0)


class TestMultimodal:
    def test_feature_oracle_matches_extractor(self):
        """The DuckDB oracle recomputes the floor-micro features from the
        sha256 seed with NO codec in the loop; the extractor runs the
        real encode -> decode path.  Bitwise equality across both is the
        end-to-end proof (no Ray needed: call the stage directly)."""
        import duckdb

        from deduce_ray import oracles
        from deduce_ray.ops.multimodal import (
            MediaFeatureExtractor,
            synthesize_media_batch,
        )

        ids = list(range(40))  # covers every (i%3, i%8, i%5) mix
        media = synthesize_media_batch(
            pa.table({"doc_id": pa.array(ids, type=pa.int64())})
        )
        mine = (
            MediaFeatureExtractor(exploded=True)(media)
            .to_pandas()
            .sort_values(["media_id", "dim"])
            .reset_index(drop=True)
        )
        con = duckdb.connect()
        con.execute(
            "CREATE VIEW documents AS SELECT unnest(range(40)) AS doc_id"
        )
        want = (
            con.execute(oracles.media_features_sql())
            .df()
            .sort_values(["media_id", "dim"])
            .reset_index(drop=True)
        )
        assert len(mine) == 40 * 32
        assert list(mine["value"]) == list(want["value"])
        assert list(mine["kind"]) == list(want["kind"])

    def test_feature_extraction_plumbing(self, ray_session):
        import ray.data

        from deduce_ray.ops.multimodal import (
            extract_media_features,
            synthesize_media_batch,
        )

        media = ray.data.range(20).map_batches(
            lambda b: synthesize_media_batch(
                pa.table({"doc_id": pa.array(b["id"], type=pa.int64())})
            ),
            batch_format="pyarrow",
        )
        feats = extract_media_features(media, fake_decoder=True, concurrency=2).take_all()
        assert len(feats) == 20
        assert all(len(r["feature"]) == 32 for r in feats)

    def test_compressed_codecs_are_stubbed(self):
        """Unknown magic bytes (unsupported compressed formats) raise;
        PPM/PNG/WAV/baseline-JPEG decode for real (JPEG via the in-repo
        T.81 codec since round 5 — a garbled JPEG body now raises from
        the PARSER, not a not-implemented stub)."""
        from deduce_ray.ops.multimodal import decode_audio, decode_image

        with pytest.raises(ValueError):
            decode_image(b"\xff\xd8\xff\xe0...jpeg...", 4, 4)
        with pytest.raises(NotImplementedError):
            decode_image(b"GIF89a...", 4, 4)
        with pytest.raises(NotImplementedError):
            decode_audio(b"ID3...")

    def test_png_roundtrip_all_filters(self):
        """Byte-level PNG round-trip through the stdlib-zlib codec for
        every scanline filter type (0 none, 1 sub, 2 up, 3 average,
        4 paeth)."""
        from deduce_ray.ops.multimodal import decode_png, encode_png

        rng = np.random.default_rng(11)
        pixels = rng.integers(0, 256, size=(9, 7, 3), dtype=np.uint8)
        for ft in range(5):
            payload = encode_png(pixels, filter_type=ft)
            assert payload.startswith(b"\x89PNG\r\n\x1a\n")
            assert np.array_equal(decode_png(payload), pixels), ft

    def test_png_decode_image_matches_ppm(self):
        """decode_image yields identical grayscale for the same pixels in
        either container — the corpus-mixing invariant."""
        from deduce_ray.ops.multimodal import (
            decode_image,
            encode_png,
            encode_ppm,
        )

        rng = np.random.default_rng(12)
        pixels = rng.integers(0, 256, size=(16, 32, 3), dtype=np.uint8)
        g_ppm = decode_image(encode_ppm(pixels), 32, 16)
        g_png = decode_image(encode_png(pixels, filter_type=4), 32, 16)
        assert np.array_equal(g_ppm, g_png)

    def test_png_crc_rejected(self):
        from deduce_ray.ops.multimodal import decode_png, encode_png

        payload = bytearray(
            encode_png(np.zeros((3, 3, 3), dtype=np.uint8))
        )
        payload[40] ^= 0xFF  # corrupt one IDAT byte, CRC must catch it
        with pytest.raises(ValueError):
            decode_png(bytes(payload))

    def test_ppm_roundtrip(self):
        from deduce_ray.ops.multimodal import decode_ppm, encode_ppm

        rng = np.random.default_rng(3)
        pixels = rng.integers(0, 256, size=(9, 7, 3), dtype=np.uint8)
        assert np.array_equal(decode_ppm(encode_ppm(pixels)), pixels)

    def test_ppm_header_comments(self):
        """Netpbm '#' comment lines between header tokens are spec-valid
        and must parse (GIMP and friends emit them)."""
        from deduce_ray.ops.multimodal import decode_ppm

        pixels = np.arange(4 * 3 * 3, dtype=np.uint8).reshape(4, 3, 3)
        payload = (
            b"P6\n# made by a common tool\n3 4\n# another note\n255\n"
            + pixels.tobytes()
        )
        assert np.array_equal(decode_ppm(payload), pixels)

    def test_feature_extractor_tiny_media(self):
        """Valid media smaller than FEATURE_DIM (a 2x2 image, a short
        clip) must pool without crashing."""
        from deduce_ray.ops.multimodal import (
            MediaFeatureExtractor,
            encode_ppm,
            encode_wav,
        )

        tiny_img = encode_ppm(np.full((2, 2, 3), 7, dtype=np.uint8))
        tiny_wav = encode_wav(np.arange(5, dtype=np.int16))
        batch = pa.table(
            {
                "media_id": pa.array([1, 2], type=pa.int64()),
                "kind": pa.array(["image", "audio"]),
                "mime": pa.array(["image/x-portable-pixmap", "audio/wav"]),
                "width": pa.array([2, 0], type=pa.int32()),
                "height": pa.array([2, 0], type=pa.int32()),
                "payload": pa.array([tiny_img, tiny_wav], type=pa.binary()),
            }
        )
        out = MediaFeatureExtractor()(batch)
        assert out.num_rows == 2
        assert all(
            len(f) == MediaFeatureExtractor.FEATURE_DIM
            for f in out.column("feature").to_pylist()
        )

    def test_ppm_roundtrip_whitespace_leading_raster(self):
        """Raster bytes that ARE whitespace (0x0a/0x20/...) right after the
        header's single separator must not be eaten by the header parse."""
        from deduce_ray.ops.multimodal import decode_ppm, encode_ppm

        for ws in (0x09, 0x0A, 0x0D, 0x20):
            pixels = np.full((4, 5, 3), ws, dtype=np.uint8)
            assert np.array_equal(decode_ppm(encode_ppm(pixels)), pixels)

    def test_wav_roundtrip(self):
        from deduce_ray.ops.multimodal import decode_wav, encode_wav

        rng = np.random.default_rng(5)
        samples = rng.integers(-32768, 32768, size=1001, dtype=np.int16)
        assert np.array_equal(decode_wav(encode_wav(samples)), samples)

    def test_real_decode_feature_extraction(self, ray_session):
        """End-to-end REAL decode: synthesized P6/WAV payloads through the
        byte-level parsers, and the image features match a direct
        decode-and-pool computed outside Ray."""
        import ray.data

        from deduce_ray.ops.multimodal import (
            MediaFeatureExtractor,
            decode_image,
            extract_media_features,
            synthesize_media_batch,
        )

        media_tbl = synthesize_media_batch(
            pa.table({"doc_id": pa.array(list(range(12)), type=pa.int64())})
        )
        media = ray.data.from_arrow(media_tbl)
        # the corpus mixes PPM and PNG containers for the same seeded
        # pixels, so this exercises both parsers including DEFLATE
        assert {r["mime"] for r in media_tbl.to_pylist()} >= {
            "image/png",
            "image/x-portable-pixmap",
        }
        feats = {
            r["media_id"]: r["feature"]
            for r in extract_media_features(media, fake_decoder=False).take_all()
        }
        assert len(feats) == 12
        dim = MediaFeatureExtractor.FEATURE_DIM
        for row in media_tbl.to_pylist():
            if row["kind"] != "image":
                continue
            # integer-exact contract: floor-micro of the r+g+b bin sums
            # (decode_image's float grayscale must agree with it to ~1 µ)
            from deduce_ray.ops.multimodal import decode_image_rgbsum

            ints = decode_image_rgbsum(row["payload"])
            q = len(ints) // dim
            sums = ints[: q * dim].reshape(dim, q).sum(axis=1, dtype=np.int64)
            want = ((sums * 1_000_000) // (765 * q)).astype(np.float64) / 1e6
            got = np.asarray(feats[row["media_id"]], dtype=np.float64)
            assert np.allclose(got, want, atol=1e-6), row["media_id"]
            gray = decode_image(row["payload"], row["width"], row["height"])
            flat = gray.ravel()
            pooled = flat[: q * dim].reshape(dim, q).mean(axis=1)
            assert np.allclose(got, pooled, atol=2e-6)

    def test_resize_images_plumbing(self, ray_session):
        import ray.data

        from deduce_ray.ops.multimodal import resize_images, synthesize_media_batch

        media = ray.data.range(15).map_batches(
            lambda b: synthesize_media_batch(
                pa.table({"doc_id": pa.array(b["id"], type=pa.int64())})
            ),
            batch_format="pyarrow",
        )
        out = resize_images(media, target=8, fake_decoder=True).take_all()
        assert len(out) == 15
        for r in out:
            if r["kind"] == "image":
                assert len(r["pixels"]) == 64
            else:
                assert r["pixels"] is None

    def test_tensor_extension_cast_disabled(self, ray_session):
        """Regression: Ray Data auto-casts a batch of equal-length
        non-null lists to the TensorArray extension; a later null-bearing
        block then fails to unify ("Tried to cast column pixels ...").
        Batch composition under limit()+actor pools is timing-dependent,
        so the failure was intermittent — the engine disables the cast
        globally (deduce_ray/raytune.py) and this test pins both the
        setting and the mixed-composition round trip."""
        import ray.data

        import deduce_ray.ops  # noqa: F401 — applies tune_data_context
        from deduce_ray.ops.multimodal import resize_images, synthesize_media_batch

        assert (
            ray.data.DataContext.get_current().enable_tensor_extension_casting
            is False
        )

        # ids 1,4,7,... are all images (i % 3 == 1): the first batch is
        # uniform equal-length lists (the tensor-cast trigger), the second
        # holds audio rows whose pixels are null
        ids = [1, 4, 7, 10, 13, 16] + [0, 3, 2, 5]
        media = ray.data.from_arrow(
            pa.table({"doc_id": pa.array(ids, type=pa.int64())})
        ).map_batches(synthesize_media_batch, batch_format="pyarrow")
        df = resize_images(
            media, target=8, fake_decoder=True, batch_size=6
        ).to_pandas()
        assert len(df) == len(ids)
        n_img = sum(1 for i in ids if i % 3 != 0)
        assert df["pixels"].notna().sum() == n_img

    def test_frame_sampler_plumbing(self, ray_session):
        import ray.data

        from deduce_ray.ops.multimodal import sample_frames, synthesize_video_batch

        videos = ray.data.range(10).map_batches(
            lambda b: synthesize_video_batch(
                pa.table({"doc_id": pa.array(b["id"], type=pa.int64())})
            ),
            batch_format="pyarrow",
        )
        frames = sample_frames(videos, stride=4, fake_decoder=False).take_all()
        # id i has 8 + (i % 5) * 4 frames, sampled every 4th
        import math

        expected = sum(math.ceil((8 + (i % 5) * 4) / 4) for i in range(10))
        assert len(frames) == expected
        assert all(len(r["frame_feature"]) == 16 for r in frames)
        assert all(r["frame_idx"] % 4 == 0 for r in frames)
        # fake path still works for compressed-codec stand-ins
        fake = sample_frames(videos, stride=4, fake_decoder=True).take_all()
        assert len(fake) == expected

    def test_y4m_round_trip_and_frame_features(self):
        """Real Y4M byte-level parsing: encode -> decode round-trips the
        luma exactly; features are true 4x4 block means; chroma-carrying
        colorspaces are skipped correctly; truncation raises."""
        import pyarrow as pa

        from deduce_ray.ops.multimodal import (
            FrameSampler,
            _grid_means,
            decode_y4m,
            encode_y4m,
        )

        rng = np.random.default_rng(21)
        frames = rng.integers(0, 256, size=(5, 12, 20), dtype=np.uint8)
        payload = encode_y4m(frames)
        assert np.array_equal(decode_y4m(payload), frames)

        # hand-built C420 stream (luma + flat chroma planes) parses too
        w, h = 8, 6
        luma = rng.integers(0, 256, size=(2, h, w), dtype=np.uint8)
        chroma = bytes([128]) * (2 * (w // 2) * (h // 2))
        c420 = b"YUV4MPEG2 W8 H6 F25:1 C420jpeg\n" + b"".join(
            b"FRAME\n" + f.tobytes() + chroma for f in luma
        )
        assert np.array_equal(decode_y4m(c420), luma)

        with pytest.raises(ValueError):
            decode_y4m(payload[:-1])  # truncated raster

        out = FrameSampler(stride=2)(
            pa.table(
                {
                    "media_id": pa.array([7], type=pa.int64()),
                    "kind": pa.array(["video"]),
                    "payload": pa.array([payload], type=pa.binary()),
                    "n_frames": pa.array([5], type=pa.int32()),
                }
            )
        )
        assert out.column("frame_idx").to_pylist() == [0, 2, 4]
        feat0 = np.asarray(out.column("frame_feature").to_pylist()[0])
        assert np.allclose(feat0, np.round(_grid_means(frames[0], 4), 6))

        # frames smaller than the feature grid: clamped overlapping blocks,
        # finite values (the reduceat boundaries would divide by zero)
        tiny = rng.integers(0, 256, size=(2, 2, 3), dtype=np.uint8)
        out2 = FrameSampler(stride=1)(
            pa.table(
                {
                    "media_id": pa.array([8], type=pa.int64()),
                    "kind": pa.array(["video"]),
                    "payload": pa.array([encode_y4m(tiny)], type=pa.binary()),
                    "n_frames": pa.array([2], type=pa.int32()),
                }
            )
        )
        feats = np.asarray(out2.column("frame_feature").to_pylist())
        assert feats.shape == (2, 16)
        assert np.isfinite(feats).all()
        assert (feats >= 0).all() and (feats <= 1).all()


class TestGroupedAgg:
    def test_matches_pandas(self, ray_session):
        import pandas as pd
        import ray.data

        from deduce_ray.ops.agg import grouped_agg

        rng = np.random.default_rng(3)
        df = pd.DataFrame(
            {
                "k": rng.choice(["a", "b", "c"], 500),
                "v": rng.integers(0, 100, 500),
            }
        )
        out = (
            grouped_agg(
                ray.data.from_pandas(df),
                keys=["k"],
                aggs={
                    "total": ("v", "sum"),
                    "lo": ("v", "min"),
                    "hi": ("v", "max"),
                    "n": (None, "count"),
                },
            )
            .to_pandas()
            .sort_values("k")
            .reset_index(drop=True)
        )
        want = (
            df.groupby("k", as_index=False)
            .agg(total=("v", "sum"), lo=("v", "min"), hi=("v", "max"), n=("v", "count"))
            .sort_values("k")
            .reset_index(drop=True)
        )
        for col in ["total", "lo", "hi", "n"]:
            assert list(out[col]) == list(want[col]), col


class TestPatientMetadataColumn:
    def test_patient_column_enables_patient_annotator(self, ray_session, lexicon_ref):
        import ray.data

        from deduce_ray.rayops.annotate import extract_triples

        rows = [
            {
                "repo": "org/r",
                "path": "a.txt",
                "commit": "0" * 40,
                "lang": "nl",
                "content": "De patient Jan Jansen is gezien.",
                "patient": {
                    "first_names": ["Jan"],
                    "initials": None,
                    "surname": "Jansen",
                },
            },
            {
                "repo": "org/r",
                "path": "b.txt",
                "commit": "1" * 40,
                "lang": "nl",
                "content": "De patient Jan Jansen is gezien.",
                "patient": None,
            },
        ]
        got = extract_triples(
            ray.data.from_items(rows), lexicon_ref=lexicon_ref
        ).take_all()
        by_commit = {}
        for r in got:
            by_commit.setdefault(r["commit"], []).append(r)
        with_meta = [r for r in by_commit["0" * 40] if r["obj"] == "Jan Jansen"]
        assert with_meta and with_meta[0]["pred"] == "patient"
        without_meta = [r for r in by_commit["1" * 40] if r["obj"] == "Jan Jansen"]
        assert without_meta and without_meta[0]["pred"] == "persoon"


class TestUserConfigExtension:
    def test_custom_regexp_annotator_via_config(self, engine):
        from deduce_ray.engine import DeduceEngine

        custom = DeduceEngine(
            lexicon=(engine.lookup_structs, engine.tokenizer),
            config={
                "annotators": {
                    "kenteken": {
                        "type": "regexp",
                        "group": "identifiers",
                        "args": {
                            "regexp_pattern": "[A-Z]{2}-[0-9]{3}-[A-Z]",
                            "tag": "kenteken",
                        },
                    }
                }
            },
        )
        doc = custom.deidentify(
            "Auto met kenteken AB-123-C gezien.",
            enabled={"identifiers", "kenteken"},
        )
        assert {(a.text, a.tag) for a in doc.annotations} == {
            ("AB-123-C", "kenteken")
        }

    def test_annotator_type_import_path(self, engine, tmp_path):
        """Config ``type: "module.Class"`` loads a user-defined annotator
        class dynamically, injecting ds/tokenizer extras when the
        constructor asks for them (reference deduce.py:172-182,
        tutorial.md:163-236)."""
        import sys
        import textwrap

        from deduce_ray.engine import DeduceEngine

        (tmp_path / "my_annotators.py").write_text(
            textwrap.dedent(
                """
                from deduce_ray.annotators import RegexpAnnotator

                class RoomAnnotator(RegexpAnnotator):
                    # ds has no default: construction succeeds only if the
                    # engine injects the lookup collection
                    def __init__(self, ds, **kwargs):
                        assert ds is not None
                        super().__init__(**kwargs)
                """
            )
        )
        sys.path.insert(0, str(tmp_path))
        try:
            custom = DeduceEngine(
                lexicon=(engine.lookup_structs, engine.tokenizer),
                config={
                    "annotators": {
                        "kamer": {
                            "type": "my_annotators.RoomAnnotator",
                            "group": "identifiers",
                            "args": {
                                "regexp_pattern": "kamer [0-9]+",
                                "tag": "kamer",
                            },
                        }
                    }
                },
            )
            doc = custom.deidentify(
                "Patient ligt op kamer 3.", enabled={"identifiers", "kamer"}
            )
            assert {(a.text, a.tag) for a in doc.annotations} == {
                ("kamer 3", "kamer")
            }
        finally:
            sys.path.remove(str(tmp_path))
            sys.modules.pop("my_annotators", None)

    def test_annotator_type_bad_import_path(self, engine):
        import pytest

        from deduce_ray.engine import DeduceEngine

        with pytest.raises(ValueError, match="cannot load annotator class"):
            DeduceEngine(
                lexicon=(engine.lookup_structs, engine.tokenizer),
                config={
                    "annotators": {
                        "nope": {
                            "type": "no.such.module.Cls",
                            "group": "identifiers",
                            "args": {},
                        }
                    }
                },
            )

    def test_disabled_mask(self, engine):
        text = "bsn 111222333 en nummer 1234567."
        full = engine.deidentify(text, enabled={"identifiers", "bsn", "identifier"})
        assert {a.tag for a in full.annotations} == {"bsn", "id"}
        masked = engine.deidentify(text, disabled={"bsn"})
        assert "bsn" not in {a.tag for a in masked.annotations}


class TestClustersAndJoins:
    def test_neardup_clusters_union_find(self, ray_session):
        import ray.data

        from deduce_ray.ops.dedup import neardup_clusters

        pairs = ray.data.from_items(
            [
                {"id_a": 1, "id_b": 2},
                {"id_a": 2, "id_b": 3},
                {"id_a": 7, "id_b": 9},
            ]
        )
        got = {
            r["doc_id"]: r["cluster_id"] for r in neardup_clusters(pairs).take_all()
        }
        assert got == {1: 1, 2: 1, 3: 1, 7: 7, 9: 7}

    def test_neardup_clusters_distributed_matches(self, ray_session):
        import ray.data

        from deduce_ray.ops.dedup import neardup_clusters

        rows = [
            {"id_a": 1, "id_b": 2},
            {"id_a": 2, "id_b": 3},
            {"id_a": 3, "id_b": 4},
            {"id_a": 10, "id_b": 11},
            # degenerate self-pair: names a node, carries no edge — must
            # survive BOTH paths as a singleton
            {"id_a": 20, "id_b": 20},
        ]
        fast = {
            r["doc_id"]: r["cluster_id"]
            for r in neardup_clusters(ray.data.from_items(rows)).take_all()
        }
        dist = {
            r["doc_id"]: r["cluster_id"]
            for r in neardup_clusters(
                ray.data.from_items(rows), driver_threshold=0
            ).take_all()
        }
        assert (
            fast
            == dist
            == {1: 1, 2: 1, 3: 1, 4: 1, 10: 10, 11: 10, 20: 20}
        )

    def test_neardup_clusters_distributed_63bit_ids(self, ray_session):
        """md5-derived node ids exceed float64's 53-bit mantissa; the
        distributed path must propagate them exactly (a float64 detour
        anywhere in the star rounds would silently round such ids)."""
        import ray.data

        from deduce_ray.ops.dedup import neardup_clusters

        base = (1 << 62) + 12345678901234567  # far beyond 2^53
        rows = [
            {"id_a": base, "id_b": base + 1},
            {"id_a": base + 1, "id_b": base + 2},
            {"id_a": base + 10, "id_b": base + 11},
        ]
        got = {
            r["doc_id"]: r["cluster_id"]
            for r in neardup_clusters(
                ray.data.from_items(rows), driver_threshold=0, rounds=4
            ).take_all()
        }
        assert got == {
            base: base,
            base + 1: base,
            base + 2: base,
            base + 10: base + 10,
            base + 11: base + 10,
        }

    def test_neardup_clusters_distributed_long_chain(self, ray_session):
        """Pointer jumping resolves a chain longer than the round budget:
        one-hop-per-round propagation would need 11 rounds for this
        diameter-11 chain, so converging within 5 proves the label-of-label
        jump is doing the O(log d) contraction."""
        import ray.data

        from deduce_ray.ops.dedup import neardup_clusters

        rows = [{"id_a": i, "id_b": i + 1} for i in range(11)]
        got = {
            r["doc_id"]: r["cluster_id"]
            for r in neardup_clusters(
                ray.data.from_items(rows), driver_threshold=0, rounds=5
            ).take_all()
        }
        assert got == {i: 0 for i in range(12)}

    def test_neardup_clusters_match_union_find(self, ray_session):
        """Both placements against a union-find over 20 seeded graphs:
        chains inside the round budget, stars, cliques and forests, on
        negative, small and > 2**62 ids, with self-pairs, repeated pairs
        and both orientations.  The driver tier's rows come out sorted
        by id."""
        import itertools

        import numpy as np
        import pyarrow as pa
        import ray.data

        from deduce_ray.ops.dedup import neardup_clusters

        rng = np.random.default_rng(17)
        pool = np.r_[
            np.arange(-30, 30),
            (1 << 62) + 7 + np.arange(30),
            -(1 << 63) + np.arange(5),
            (1 << 63) - 1 - np.arange(5),
        ]

        def graph(kind: str, k: int) -> list:
            v = [int(x) for x in rng.choice(pool, size=k, replace=False)]
            if kind == "chain":
                pairs = list(zip(v[:-1], v[1:]))
            elif kind == "star":
                pairs = [(v[0], x) for x in v[1:]]
            elif kind == "clique":
                pairs = list(itertools.combinations(v, 2))
            else:  # a forest: random trees, some links cut
                pairs = [
                    (v[int(rng.integers(0, i))], v[i])
                    for i in range(1, k)
                    if rng.random() > 0.25
                ]
            pairs += [(x, x) for x in rng.choice(v, size=2)]
            pairs += [pairs[int(i)] for i in rng.integers(0, len(pairs), size=3)]
            return [(b, a) if rng.random() < 0.5 else (a, b) for a, b in pairs]

        def union_find(pairs) -> dict:
            parent: dict = {}

            def find(x):
                parent.setdefault(x, x)
                while parent[x] != x:
                    x = parent[x]
                return x

            for a, b in pairs:
                ra, rb = find(a), find(b)
                if ra != rb:
                    parent[max(ra, rb)] = min(ra, rb)
            return {x: find(x) for x in parent}

        kinds = ["chain", "star", "clique", "forest"] * 5
        for n, kind in enumerate(kinds):
            pairs = graph(kind, int(rng.integers(2, 24 if kind != "clique" else 9)))
            want = union_find(pairs)

            def run(**kw) -> list:
                a, b = zip(*pairs)
                ds = ray.data.from_arrow(
                    pa.table({"id_a": pa.array(a, pa.int64()), "id_b": pa.array(b, pa.int64())})
                ).repartition(3)
                return [(r["doc_id"], r["cluster_id"]) for r in neardup_clusters(ds, **kw).take_all()]

            driver = run()
            assert [d for d, _ in driver] == sorted(want), (n, kind)
            assert dict(driver) == want, (n, kind)
            assert dict(run(driver_threshold=0)) == want, (n, kind)

    def test_bucketed_join_matches_duckdb(self, ray_session):
        import duckdb

        from deduce_ray.ops.relational import (
            bucketed_join_revenue,
            bucketed_join_revenue_sql,
        )

        sf = "/root/testdata/sf0.001"
        mine = bucketed_join_revenue(sf).to_pandas()
        con = duckdb.connect()
        for t in ("orders", "lineitem"):
            con.execute(
                f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf}/{t}.parquet')"
            )
        oracle = con.execute(bucketed_join_revenue_sql()).df()
        assert list(mine["revenue"]) == list(oracle["revenue"])
        assert list(mine["n_items"]) == list(oracle["n_items"])

    def test_bucketed_join_rejects_bad_bucket_counts(self, ray_session):
        import pytest

        from deduce_ray.ops.relational import bucketed_join_revenue

        for bad in (0, -4, 3, 48):
            with pytest.raises(ValueError, match="power of two"):
                bucketed_join_revenue("/root/testdata/sf0.001", n_buckets=bad)

    def test_user_sessions_matches_duckdb(self, ray_session):
        import duckdb

        from deduce_ray.ops.relational import user_sessions, user_sessions_sql

        sf = "/root/testdata/sf0.001"
        mine = user_sessions(sf).to_pandas()
        con = duckdb.connect()
        con.execute(
            f"CREATE VIEW events AS SELECT * FROM read_parquet('{sf}/events.parquet')"
        )
        oracle = con.execute(user_sessions_sql()).df()
        assert list(mine["n_sessions"]) == list(oracle["n_sessions"])
        assert list(mine["n_events"]) == list(oracle["n_events"])

    def test_user_sessions_null_users(self, ray_session, tmp_path):
        """Null user_ids must form ONE group (SQL GROUP BY semantics),
        not one session per row, and must not crash the int cast."""
        import duckdb
        import pandas as pd
        import pyarrow as pa
        import pyarrow.parquet as pq

        from deduce_ray.ops.relational import user_sessions, user_sessions_sql

        base = pd.Timestamp("2024-01-01 00:00:00")
        rows = []
        eid = 0
        # deliberately ASYMMETRIC stats so a group swap is detectable:
        # user 7 -> two sessions / three events; nulls -> ONE session of
        # two events
        for uid, offsets in [(7, [0, 5, 50]), (None, [0, 10])]:
            for m in offsets:
                rows.append(
                    {"event_id": eid, "user_id": uid,
                     "ts": base + pd.Timedelta(minutes=m),
                     "event_type": "x", "props": "{}"}
                )
                eid += 1
        df = pd.DataFrame(rows)
        df["user_id"] = df["user_id"].astype("Int64")
        pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                       str(tmp_path / "events.parquet"))

        mine = user_sessions(str(tmp_path)).to_pandas()
        con = duckdb.connect()
        con.execute(
            "CREATE VIEW events AS SELECT * FROM "
            f"read_parquet('{tmp_path}/events.parquet')"
        )
        oracle = con.execute(user_sessions_sql()).df()
        assert len(mine) == 2 and len(oracle) == 2

        # compare keyed by user: the null group's place in the order is
        # pandas' NaN-last, not a property of the sessions
        def by_user(df):
            return {
                (None if pd.isna(r["user_id"]) else int(r["user_id"])):
                    (int(r["n_sessions"]), int(r["n_events"]))
                for _, r in df.iterrows()
            }

        got, want = by_user(mine), by_user(oracle)
        assert got == want
        assert got[7] == (2, 3) and got[None] == (1, 2)

    def test_grouped_results_in_order_by_order(self, ray_session):
        """A grouped result spans several merge partitions, yet its rows
        come back in the SQL ORDER BY order, not sorted per partition."""
        import os

        import duckdb
        import pandas as pd

        from deduce_ray.ops import relational as rel

        sf = os.path.join(os.path.dirname(SF_DIR), "sf0.01")
        if not os.path.isdir(sf):
            pytest.skip("sf0.01 test data absent")
        con = duckdb.connect()
        for t in ("lineitem", "part", "events", "customer", "nation", "region"):
            con.execute(
                f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf}/{t}.parquet')"
            )
        order_by = {
            "pricing_summary": ["l_returnflag", "l_linestatus"],
            "events_by_type": ["event_type"],
            "events_hourly": ["event_type", "hour_epoch"],
            "brand_volume": ["p_brand"],
            "user_sessions": ["user_id"],
            "events_props_stats": ["k_bucket"],
            "region_customers": ["r_name"],
        }

        def key_rows(df, cols):
            return [
                tuple(None if pd.isna(v) else v for v in row)
                for row in df[cols].itertuples(index=False)
            ]

        for name, cols in order_by.items():
            mine = getattr(rel, name)(sf).to_pandas()
            want = con.execute(getattr(rel, f"{name}_sql")()).df()
            assert key_rows(mine, cols) == key_rows(want, cols), name


class TestRuntimeTailoring:
    def test_add_processor_and_remove(self, engine):
        from deduce_ray.annotators import RegexpAnnotator
        from deduce_ray.engine import DeduceEngine

        eng = DeduceEngine(lexicon=(engine.lookup_structs, engine.tokenizer))
        eng.add_processor(
            "kenteken",
            RegexpAnnotator(regexp_pattern="[A-Z]{2}-[0-9]{3}-[A-Z]", tag="kenteken"),
            group="custom",
        )
        doc = eng.deidentify("kenteken AB-123-C gezien")
        assert ("AB-123-C", "kenteken") in {(a.text, a.tag) for a in doc.annotations}
        # custom group must sit before post_processing so it gets redacted
        assert "[KENTEKEN-1]" in doc.deidentified_text

        eng.remove_processor("dates")
        assert "dates" not in eng.processor_groups
        doc2 = eng.deidentify("op 10-11-2021 gezien")
        assert not any(a.tag == "datum" for a in doc2.annotations)

    def test_lookup_trie_overlay(self, engine):
        from deduce_ray.engine import DeduceEngine

        eng = DeduceEngine(lexicon=_private_lexicon(engine, "placename"))
        before = eng.deidentify("gezien in Fictiedorpje vandaag")
        assert not any(a.text == "Fictiedorpje" for a in before.annotations)

        eng.lookup_structs["placename"].add_item(["Fictiedorpje"])
        after = eng.deidentify("gezien in Fictiedorpje vandaag")
        assert ("Fictiedorpje", "locatie") in {
            (a.text, a.tag) for a in after.annotations
        }
        assert not engine.lookup_structs["placename"].find_spans(["Fictiedorpje"])

    def test_lookup_set_tailoring(self, engine):
        from deduce_ray.engine import DeduceEngine

        eng = DeduceEngine(lexicon=_private_lexicon(engine, "whitelist"))
        eng.lookup_structs["whitelist"].add_items_from_iterable(["Fictiewoord"])
        assert "fictiewoord" in eng.lookup_structs["whitelist"]
        assert "fictiewoord" not in engine.lookup_structs["whitelist"]


def _private_lexicon(engine, *names):
    """The session engine's lexicon with ``names`` replaced by private
    copies, so that tailoring them leaves the session-scoped ``engine``
    (and every later test using it) untouched."""
    import copy

    from deduce_ray.structures import DsCollection

    engine.lookup_structs.resolve()
    structs = DsCollection(engine.lookup_structs)
    for name in names:
        structs[name] = copy.deepcopy(structs[name])
    return structs, engine.tokenizer


class TestDedupModes:
    def test_by_doc_first_matches_baseline(self, ray_session, lexicon_ref):
        from deduce_ray.rayops.annotate import extract_triples
        from deduce_ray.rayops.kg import dedup_triples

        def rows(flag):
            ds = dedup_triples(
                extract_triples(_repo_ds(), lexicon_ref=lexicon_ref),
                by_doc_first=flag,
            )
            return sorted(
                (r["doc_id"], r["pred"], r["obj"], r["n_mentions"])
                for r in ds.take_all()
            )

        assert rows(False) == rows(True)


class TestPrepFunnel:
    def test_full_funnel(self, ray_session):
        import ray.data

        from deduce_ray.ops.funnel import prep_corpus

        base = (
            "the quick brown fox jumps over the lazy dog and it is a fine "
            "day for that in the sun "
        )
        rows = [
            {"doc_id": 1, "text": base + "alpha"},
            {"doc_id": 2, "text": base + "alpha"},  # exact dup of 1
            # near-dup of 1 (high jaccard, not byte-identical)
            {"doc_id": 3, "text": base + "alpha beta"},
            {"doc_id": 4, "text": "tiny"},  # fails min_chars
            {"doc_id": 5, "text": "12345678901234567890 " * 5},  # digits
            {"doc_id": 6, "text": "一二三四五六七八九十 " * 8},  # zh
            {
                "doc_id": 7,
                "text": "it was the best of times and it was the worst of "
                "times for a tale about two cities in that old story",
            },
        ]
        out = prep_corpus(
            ray.data.from_items(rows),
            langs=("en",),
            min_chars=20,
            max_digit_ppm=500_000,
            minhash_threshold=0.6,
        )
        ids = sorted(r["doc_id"] for r in out.take_all())
        # 2 drops as exact dup, 3 as near-dup (min id 1 survives),
        # 4/5/6 fail the filters, 1 and 7 survive
        assert ids == [1, 7]

    def test_stages_disable(self, ray_session):
        import ray.data

        from deduce_ray.ops.funnel import prep_corpus

        rows = [
            {"doc_id": 1, "text": "x"},
            {"doc_id": 2, "text": "x"},
        ]
        out = prep_corpus(
            ray.data.from_items(rows), minhash_threshold=None
        )
        assert sorted(r["doc_id"] for r in out.take_all()) == [1]

    def test_repetition_filters(self, ray_session):
        # the Gopher-style caps ride the same single predicate pass as
        # the language/digit gates: doc 2 (every line duplicated), doc 3
        # ("a a ..." top-2-gram mass 100%), and doc 4 (repeated 5-gram
        # block) each trip exactly one cap; doc 1 passes all three
        import ray.data

        from deduce_ray.ops.funnel import prep_corpus

        rows = [
            {"doc_id": 1, "text": "one two\nthree four five six seven"},
            {"doc_id": 2, "text": "same line\nsame line\nsame line"},
            {"doc_id": 3, "text": "a a a a a a a a"},
            # three repeats of the 5-word block: every 5-gram is a
            # rotation occurring >= 2 times -> dup_5gram_ppm = 1e6,
            # while the top 2-gram holds only 9/42 of 2-gram mass
            {"doc_id": 4, "text": "v w x y z v w x y z v w x y z"},
        ]
        out = prep_corpus(
            ray.data.from_items(rows),
            minhash_threshold=None,
            max_dup_line_ppm=500_000,
            max_top_2gram_ppm=900_000,
            max_dup_5gram_ppm=500_000,
        )
        assert sorted(r["doc_id"] for r in out.take_all()) == [1]
        # each cap alone drops only its own doc — these exercise the
        # selective single-cap branches (only the enabled signals are
        # computed), which must agree with the all-caps path
        for kwargs, expect in [
            (dict(max_dup_line_ppm=500_000), [1, 3, 4]),
            (dict(max_top_2gram_ppm=900_000), [1, 2, 4]),
            (dict(max_dup_5gram_ppm=500_000), [1, 2]),  # 3 also all-dup
            (dict(max_top_2gram_ppm=900_000, max_dup_5gram_ppm=500_000),
             [1, 2]),
        ]:
            out2 = prep_corpus(
                ray.data.from_items(rows), minhash_threshold=None, **kwargs
            )
            got = sorted(r["doc_id"] for r in out2.take_all())
            assert got == expect, (kwargs, got)

    def test_minhash_bands_override(self, ray_session):
        # bands=16 (r=4, the ubiquitous-short-phrase mitigation) must
        # still catch high-Jaccard near-dups: docs 1/2 differ by one
        # trailing word over 40 (shingle J ~ 0.85 -> per-band match
        # p^4 ~ 0.52, 16 bands -> detection is deterministic for these
        # fixed texts); doc 3 is unrelated and must survive
        import ray.data

        from deduce_ray.ops.funnel import prep_corpus

        base = " ".join(f"w{j}" for j in range(40))
        rows = [
            {"doc_id": 1, "text": base + " tail"},
            {"doc_id": 2, "text": base + " othertail"},
            {"doc_id": 3, "text": " ".join(f"z{j}" for j in range(40))},
        ]
        out = prep_corpus(
            ray.data.from_items(rows),
            minhash_threshold=0.7,
            minhash_bands=16,
        )
        assert sorted(r["doc_id"] for r in out.take_all()) == [1, 3]

    def test_lm_ppl_filter_stage(self, ray_session):
        # max_ppl adds the CCNet-style LM stage LAST: the bigram model
        # self-trains on the deduplicated survivors, so the gibberish doc
        # (all-unique words -> every pair at the add-one floor,
        # ppl = (1+V)/2) scores far above the repetitive-pattern docs
        # (ppl < 2); docs with < 2 words have no perplexity and survive
        import ray.data

        from deduce_ray.ops.funnel import prep_corpus

        rows = [
            {"doc_id": 1, "text": "a b " * 10},
            {"doc_id": 2, "text": "a b " * 10 + "c"},
            {"doc_id": 3, "text": " ".join(f"g{i}" for i in range(13))},
            {"doc_id": 4, "text": "solo"},
        ]
        out = prep_corpus(
            ray.data.from_items(rows),
            minhash_threshold=None,
            max_ppl=5.0,
        )
        assert sorted(r["doc_id"] for r in out.take_all()) == [1, 2, 4]
        # control: without max_ppl the gibberish doc survives
        out2 = prep_corpus(
            ray.data.from_items(rows), minhash_threshold=None
        )
        assert sorted(r["doc_id"] for r in out2.take_all()) == [1, 2, 3, 4]

    def test_strip_runs_before_neardup(self, ray_session):
        # docs share a 13-word header but have DISTINCT bodies: with the
        # strip stage on, the header is removed before MinHash, so the
        # docs are not near-duplicates of each other and all survive —
        # with their bodies intact and the header gone
        import ray.data

        from deduce_ray.ops.funnel import prep_corpus

        # 26-word header + 6-word distinct body: 3-shingle jaccard
        # = 24 shared / 36 union ~ 0.67 > 0.6 without the strip
        header = " ".join(f"hdr{i}" for i in range(26))
        rows = [
            {"doc_id": i, "text": header + " " + " ".join(f"b{i}x{j}" for j in range(6))}
            for i in range(1, 5)
        ]
        out = prep_corpus(
            ray.data.from_items(rows),
            minhash_threshold=0.6,
            strip_dup_ngrams=13,
        )
        got = {r["doc_id"]: r["text"] for r in out.take_all()}
        assert sorted(got) == [1, 2, 3, 4]
        for i, t in got.items():
            assert t == " ".join(f"b{i}x{j}" for j in range(6))
        # control: WITHOUT the strip the shared header dominates the
        # signatures (jaccard ~0.68 > 0.6) and only the min id survives
        out2 = prep_corpus(
            ray.data.from_items(rows), minhash_threshold=0.6
        )
        assert sorted(r["doc_id"] for r in out2.take_all()) == [1]


class TestPageRank:
    @staticmethod
    def _numpy_pagerank(edges, d=0.85, n_iter=5):
        """Dense power iteration over the symmetrized arc list — the
        independent oracle for the distributed op."""
        nodes = sorted({e[0] for e in edges} | {e[1] for e in edges})
        idx = {v: i for i, v in enumerate(nodes)}
        n = len(nodes)
        arcs = [(idx[a], idx[b]) for a, b in edges] + [
            (idx[b], idx[a]) for a, b in edges
        ]
        deg = np.zeros(n)
        for s, _ in arcs:
            deg[s] += 1
        r = np.full(n, 1.0 / n)
        for _ in range(n_iter):
            nxt = np.full(n, (1.0 - d) / n)
            for s, t in arcs:
                nxt[t] += d * r[s] / deg[s]
            r = nxt
        return {nodes[i]: r[i] for i in range(n)}

    def test_matches_power_iteration(self, ray_session):
        """60-node random graph, many shards: the sharded message-passing
        rounds must equal dense numpy power iteration to float64
        precision (well inside the 6-decimal output rounding)."""
        import ray.data

        from deduce_ray.rayops.kg import pagerank

        rng = np.random.default_rng(42)
        edges = set()
        while len(edges) < 150:
            a, b = rng.integers(0, 60, size=2)
            if a != b:
                edges.add((min(a, b), max(a, b)))
        edge_rows = [
            {
                "pred_a": "p",
                "obj_a": f"e{a}",
                "pred_b": "p",
                "obj_b": f"e{b}",
                "n_docs": 1,
            }
            for a, b in sorted(edges)
        ]
        ds = ray.data.from_items(edge_rows).repartition(8)
        # driver_max_arcs=0 forces the distributed message-passing
        # rounds — the scale path under test here
        got = {
            (r["pred"], r["obj"]): r["score"]
            for r in pagerank(ds, driver_max_arcs=0).take_all()
        }
        want = self._numpy_pagerank(
            [((f"e{a}"), (f"e{b}")) for a, b in edges]
        )
        assert len(got) == len(want)
        for node, w in want.items():
            assert abs(got[("p", node)] - round(w, 6)) <= 1e-6, node
        # rank mass is conserved (no dangling nodes in the symmetrized
        # graph): sums to 1 up to the output rounding
        assert abs(sum(got.values()) - 1.0) < 1e-4
        # the bounded driver fast path computes the identical recurrence
        fast = {
            (r["pred"], r["obj"]): r["score"]
            for r in pagerank(ds).take_all()
        }
        assert fast == got

    def test_weighted_matches_power_iteration(self, ray_session):
        """weight_col: contributions scale by the edge weight and
        degrees become weighted — checked against dense numpy on a
        small weighted graph, on BOTH paths."""
        import ray.data

        from deduce_ray.rayops.kg import pagerank

        edges = [("a", "b", 3.0), ("b", "c", 1.0), ("a", "c", 2.0),
                 ("c", "d", 5.0)]
        rows = [
            {"pred_a": "p", "obj_a": x, "pred_b": "p", "obj_b": y,
             "n_docs": w}
            for x, y, w in edges
        ]
        nodes = sorted({x for e in edges for x in e[:2]})
        idx = {v: i for i, v in enumerate(nodes)}
        n = len(nodes)
        arcs = [(idx[a], idx[b], w) for a, b, w in edges] + [
            (idx[b], idx[a], w) for a, b, w in edges
        ]
        wdeg = np.zeros(n)
        for s, _, w in arcs:
            wdeg[s] += w
        r = np.full(n, 1.0 / n)
        for _ in range(5):
            nxt = np.full(n, 0.15 / n)
            for s, t, w in arcs:
                nxt[t] += 0.85 * r[s] * w / wdeg[s]
            r = nxt
        want = {("p", nodes[i]): round(r[i], 6) for i in range(n)}

        ds = ray.data.from_items(rows)
        for kwargs in ({"driver_max_arcs": 0}, {}):
            got = {
                (row["pred"], row["obj"]): row["score"]
                for row in pagerank(
                    ds, weight_col="n_docs", **kwargs
                ).take_all()
            }
            assert set(got) == set(want)
            for k in want:
                assert abs(got[k] - want[k]) <= 1e-6, (k, kwargs)

    def test_separator_bytes_in_node_strings(self, ray_session):
        """Node identity must never route through a joined string:
        corpus-derived obj values can contain any byte, including the
        \\x1f 'separator' — both paths must keep (pred, obj) intact and
        agree (regression: the driver path once split a concatenated
        key, mangling such nodes)."""
        import ray.data

        from deduce_ray.rayops.kg import pagerank

        rows = [
            {"pred_a": "p", "obj_a": "a\x1fb", "pred_b": "q", "obj_b": "c"},
            {"pred_a": "p\x1fx", "obj_a": "y", "pred_b": "q", "obj_b": "c"},
            # colliding concatenations: ('a\x1fb', 'c') vs ('a', 'b\x1fc')
            {"pred_a": "a\x1fb", "obj_a": "c", "pred_b": "q", "obj_b": "c"},
            {"pred_a": "a", "obj_a": "b\x1fc", "pred_b": "q", "obj_b": "c"},
        ]
        ds = ray.data.from_items(rows)
        dist = {
            (r["pred"], r["obj"]): r["score"]
            for r in pagerank(ds, driver_max_arcs=0).take_all()
        }
        fast = {
            (r["pred"], r["obj"]): r["score"]
            for r in pagerank(ds).take_all()
        }
        assert set(dist) == {
            ("p", "a\x1fb"), ("p\x1fx", "y"), ("q", "c"),
            ("a\x1fb", "c"), ("a", "b\x1fc"),
        }
        assert fast == dist

    def test_path_graph_ordering_and_empty(self, ray_session):
        """On a path a-b-c the middle node ranks strictly highest; an
        empty edge set returns an empty, well-typed dataset."""
        import ray.data

        from deduce_ray.rayops.kg import pagerank

        rows = [
            {"pred_a": "p", "obj_a": "a", "pred_b": "p", "obj_b": "b"},
            {"pred_a": "p", "obj_a": "b", "pred_b": "p", "obj_b": "c"},
        ]
        got = {
            r["obj"]: r["score"]
            for r in pagerank(ray.data.from_items(rows)).take_all()
        }
        assert got["b"] > got["a"] == got["c"]

        empty = pagerank(
            ray.data.from_items(rows).filter(lambda r: False)
        )
        assert empty.count() == 0
        assert set(empty.schema().names) == {"pred", "obj", "score"}


class TestLabelPropagation:
    @staticmethod
    def _brute_lpa(edges, n_iter=5):
        """Synchronous LPA with min-label tie-breaks, dense python."""
        adj: dict = {}
        for a, b in edges:
            adj.setdefault(a, []).append(b)
            adj.setdefault(b, []).append(a)
        labels = {v: v for v in adj}
        for _ in range(n_iter):
            new = {}
            for v, nbrs in adj.items():
                counts: dict = {}
                for u in nbrs:
                    counts[labels[u]] = counts.get(labels[u], 0) + 1
                best = max(counts.values())
                new[v] = min(l for l, c in counts.items() if c == best)
            labels = new
        return labels

    def test_matches_brute_force_both_paths(self, ray_session):
        import ray.data

        from deduce_ray.rayops.kg import label_propagation

        rng = np.random.default_rng(9)
        edges = set()
        while len(edges) < 60:
            a, b = rng.integers(0, 35, size=2)
            if a != b:
                edges.add((min(a, b), max(a, b)))
        rows = [
            {"pred_a": "p", "obj_a": f"e{a:02d}", "pred_b": "p",
             "obj_b": f"e{b:02d}"}
            for a, b in sorted(edges)
        ]
        want = self._brute_lpa(
            [(("p", f"e{a:02d}"), ("p", f"e{b:02d}")) for a, b in edges]
        )
        ds = ray.data.from_items(rows).repartition(7)
        for kwargs in ({"driver_max_arcs": 0}, {}):
            got = {
                (r["pred"], r["obj"]): (r["label_pred"], r["label_obj"])
                for r in label_propagation(ds, **kwargs).take_all()
            }
            assert got == want, kwargs

    def test_matches_duckdb_unrolled(self, ray_session):
        """The deterministic recurrence reproduced independently in SQL:
        per round, each node adopts the most frequent neighbour label,
        ties to the smallest (pred, obj) — unrolled CTE chain.  A null
        field sorts after every string, DuckDB's default NULLS LAST:
        in round 1, n6 hears n5 and (p, NULL) once each and adopts n5's
        label."""
        import duckdb
        import pandas as pd
        import ray.data

        from deduce_ray.rayops.kg import label_propagation

        edges = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (2, 3), (5, 6)]
        rows = [
            {"pred_a": "p", "obj_a": f"n{a}", "pred_b": "p", "obj_b": f"n{b}"}
            for a, b in edges
        ]
        rows.append({"pred_a": "p", "obj_a": "n6", "pred_b": "p", "obj_b": None})
        n_iter = 4
        got = (
            label_propagation(
                ray.data.from_items(rows), n_iter=n_iter, driver_max_arcs=0
            )
            .to_pandas()
            .sort_values(["pred", "obj"])
            .reset_index(drop=True)
        )
        driver = (
            label_propagation(ray.data.from_items(rows), n_iter=n_iter)
            .to_pandas()
            .sort_values(["pred", "obj"])
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(driver, got)
        con = duckdb.connect()
        con.register("und", pd.DataFrame(rows))
        rounds = []
        for t in range(1, n_iter + 1):
            rounds.append(f"""
            l{t} AS (
              SELECT dp AS pred, dob AS obj, lpred AS label_pred,
                     lobj AS label_obj
              FROM (
                SELECT e.dp, e.dob, l.label_pred AS lpred,
                       l.label_obj AS lobj,
                       row_number() OVER (
                         PARTITION BY e.dp, e.dob
                         ORDER BY COUNT(*) DESC, l.label_pred, l.label_obj
                       ) AS rn
                FROM e JOIN l{t - 1} l
                  ON l.pred IS NOT DISTINCT FROM e.sp
                 AND l.obj IS NOT DISTINCT FROM e.so
                GROUP BY e.dp, e.dob, l.label_pred, l.label_obj
              ) WHERE rn = 1
            )""")
        want = con.execute(f"""
            WITH e AS (
              SELECT pred_a AS sp, obj_a AS so, pred_b AS dp, obj_b AS dob
              FROM und
              UNION ALL
              SELECT pred_b, obj_b, pred_a, obj_a FROM und
            ),
            l0 AS (
              SELECT DISTINCT sp AS pred, so AS obj,
                     sp AS label_pred, so AS label_obj
              FROM e
            ),
            {",".join(rounds)}
            SELECT pred, obj, label_pred, label_obj FROM l{n_iter}
            ORDER BY pred, obj
        """).df().reset_index(drop=True)
        pd.testing.assert_frame_equal(got, want)


class TestGraphComponents:
    def test_components_match_bfs(self, ray_session):
        """Transitive entity components over a random edge set equal a
        brute-force BFS; string identity survives the id round-trip."""
        import ray.data

        from deduce_ray.rayops.kg import graph_components

        rng = np.random.default_rng(5)
        edges = set()
        while len(edges) < 40:
            a, b = rng.integers(0, 30, size=2)
            if a != b:
                edges.add((min(a, b), max(a, b)))
        rows = [
            {"pred_a": "p", "obj_a": f"e{a}", "pred_b": "p", "obj_b": f"e{b}"}
            for a, b in sorted(edges)
        ]
        got = {
            (r["pred"], r["obj"]): r["component_id"]
            for r in graph_components(
                ray.data.from_items(rows).repartition(6)
            ).take_all()
        }
        # brute-force components
        adj: dict[int, set] = {}
        for a, b in edges:
            adj.setdefault(a, set()).add(b)
            adj.setdefault(b, set()).add(a)
        seen: dict[int, int] = {}
        for start in adj:
            if start in seen:
                continue
            comp, stack = [], [start]
            while stack:
                v = stack.pop()
                if v in seen:
                    continue
                seen[v] = start
                comp.append(v)
                stack.extend(adj[v])
            for v in comp:
                seen[v] = min(comp)
        assert len(got) == len(adj)
        # same partition: two nodes share a component id iff BFS agrees
        for a in adj:
            for b in adj:
                same_got = got[("p", f"e{a}")] == got[("p", f"e{b}")]
                assert same_got == (seen[a] == seen[b]), (a, b)

    def test_separator_and_collision_safety(self, ray_session):
        """Length-prefixed form-node ids keep look-alike nodes distinct
        (pred='a\\x1fb',obj='c' vs pred='a',obj='b\\x1fc')."""
        import ray.data

        from deduce_ray.rayops.kg import graph_components

        rows = [
            {"pred_a": "a\x1fb", "obj_a": "c", "pred_b": "x", "obj_b": "y"},
            {"pred_a": "a", "obj_a": "b\x1fc", "pred_b": "u", "obj_b": "v"},
        ]
        got = {
            (r["pred"], r["obj"]): r["component_id"]
            for r in graph_components(ray.data.from_items(rows)).take_all()
        }
        assert len(got) == 4
        assert got[("a\x1fb", "c")] == got[("x", "y")]
        assert got[("a", "b\x1fc")] == got[("u", "v")]
        assert got[("a\x1fb", "c")] != got[("a", "b\x1fc")]

    def test_component_id_is_min_node_id(self, ray_session):
        """Over many blocks, with null, empty and control-character fields:
        the components equal a brute-force union-find, and each
        component_id is exactly its smallest form-node id (an id above
        2**53 survives without float rounding)."""
        import random

        import ray.data

        from deduce_ray.rayops.kg import _form_node_id, graph_components

        rng = random.Random(3)
        nodes = [
            ("p", "x"), ("p", "a\x1fb"), ("p\x1f", "ab"), ("q", "b\x00"),
            (None, "x"), ("p", None), (None, None), ("p", ""), ("", "p"),
        ] + [("p", f"e{i}") for i in range(30)]
        rows = []
        for _ in range(60):
            (pa_, oa), (pb, ob) = rng.sample(nodes, 2)
            rows.append({"pred_a": pa_, "obj_a": oa, "pred_b": pb, "obj_b": ob})
        got = {
            (r["pred"], r["obj"]): r["component_id"]
            for r in graph_components(
                ray.data.from_items(rows, override_num_blocks=9)
            ).take_all()
        }
        parent = {}

        def find(v):
            while parent.setdefault(v, v) != v:
                v = parent[v]
            return v

        for r in rows:
            a, b = find((r["pred_a"], r["obj_a"])), find((r["pred_b"], r["obj_b"]))
            parent[a] = b
        members: dict = {}
        for v in list(parent):
            members.setdefault(find(v), []).append(v)
        want = {
            v: min(_form_node_id(*m) for m in group)
            for group in members.values()
            for v in group
        }
        assert got == want
        assert max(want.values()) > 2**53

    def test_node_ids_hash_each_distinct_pair(self):
        from deduce_ray.rayops.kg import _form_node_id, _node_ids

        pred = pa.array(["p", "p", None, "p", None, "", "p"])
        obj = pa.array(["x", "x", "x", None, None, "", "x\x00"])
        ids, first = _node_ids(pred, obj)
        want = [_form_node_id(p, o) for p, o in zip(pred.to_pylist(), obj.to_pylist())]
        assert ids.tolist() == want
        assert sorted(first.tolist()) == [0, 2, 3, 4, 5, 6]


class TestGraphNodeIdentity:
    """PageRank, label propagation and components on both paths over one
    fixture whose node fields hold null, "", a NUL byte ("k" beside
    "k\\x00x", which a hash that stops at NUL folds together) and the
    \\x1f byte.  The expected values are literals, computed with a
    pure-Python reference (dicts keyed by (pred, obj) tuples, null
    ordered after every string)."""

    NODES = [
        (None, "x"), ("p", None), (None, None), ("p", ""), ("", "p"),
        ("p", "k"), ("p", "k\x00x"), ("p", "a\x1fb"), ("p\x1fa", "b"), ("q", "z"),
    ]
    EDGES = [
        (0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (5, 6), (6, 7), (5, 7),
        (7, 8), (3, 9), (4, 9),
    ]

    def _edges(self):
        import ray.data

        rows = [
            {
                "pred_a": self.NODES[a][0], "obj_a": self.NODES[a][1],
                "pred_b": self.NODES[b][0], "obj_b": self.NODES[b][1],
            }
            for a, b in self.EDGES
        ]
        return ray.data.from_items(rows, override_num_blocks=3)

    def test_pagerank(self, ray_session):
        from deduce_ray.rayops.kg import pagerank

        want = {
            (None, "x"): 0.087591, ("p", None): 0.087591,
            (None, None): 0.124819, ("p", ""): 0.124819, ("", "p"): 0.087591,
            ("p", "k"): 0.096927, ("p", "k\x00x"): 0.096927,
            ("p", "a\x1fb"): 0.152006, ("p\x1fa", "b"): 0.05414,
            ("q", "z"): 0.087591,
        }
        for kwargs in ({"driver_max_arcs": 0}, {}):
            got = {
                (r["pred"], r["obj"]): r["score"]
                for r in pagerank(self._edges(), **kwargs).take_all()
            }
            assert got == want, kwargs

    def test_label_propagation(self, ray_session):
        from deduce_ray.rayops.kg import label_propagation

        # one round: ties break to the smallest label, null last — e.g.
        # (None, "x") hears (p, None) and (None, None) once each
        one_round = {
            (None, "x"): ("p", None), ("p", None): (None, "x"),
            (None, None): ("p", ""), ("p", ""): ("", "p"), ("", "p"): ("p", ""),
            ("p", "k"): ("p", "a\x1fb"), ("p", "k\x00x"): ("p", "a\x1fb"),
            ("p", "a\x1fb"): ("p", "k"), ("p\x1fa", "b"): ("p", "a\x1fb"),
            ("q", "z"): ("", "p"),
        }
        left, right = self.NODES[:5] + [("q", "z")], self.NODES[5:9]
        five_rounds = {
            **{v: ("", "p") for v in left},
            **{v: ("p", "a\x1fb") for v in right},
        }
        for n_iter, want in ((1, one_round), (5, five_rounds)):
            for kwargs in ({"driver_max_arcs": 0}, {}):
                got = {
                    (r["pred"], r["obj"]): (r["label_pred"], r["label_obj"])
                    for r in label_propagation(
                        self._edges(), n_iter=n_iter, **kwargs
                    ).take_all()
                }
                assert got == want, (n_iter, kwargs)

    def test_components(self, ray_session):
        from deduce_ray.rayops.kg import _form_node_id, graph_components

        left, right = self.NODES[:5] + [("q", "z")], self.NODES[5:9]
        assert min(_form_node_id(*v) for v in left) == 785938025651048445
        assert min(_form_node_id(*v) for v in right) == 1497816276947310355
        want = {
            **{v: 785938025651048445 for v in left},
            **{v: 1497816276947310355 for v in right},
        }
        for kwargs in ({"driver_threshold": 0}, {}):
            got = {
                (r["pred"], r["obj"]): r["component_id"]
                for r in graph_components(self._edges(), **kwargs).take_all()
            }
            assert got == want, kwargs


class TestCooccurrence:
    def test_edges_and_weights(self, ray_session):
        import ray.data

        from deduce_ray.rayops.kg import cooccurrence_edges

        rows = [
            # doc A: x,y co-occur; y mentioned twice (must count doc once)
            {"doc_id": "a1", "pred": "p", "obj": "x"},
            {"doc_id": "a1", "pred": "p", "obj": "y"},
            {"doc_id": "a1", "pred": "p", "obj": "y"},
            # doc B: x,y again and z
            {"doc_id": "b2", "pred": "p", "obj": "x"},
            {"doc_id": "b2", "pred": "p", "obj": "y"},
            {"doc_id": "b2", "pred": "q", "obj": "z"},
            # doc C: single mention -> no edges
            {"doc_id": "c3", "pred": "p", "obj": "x"},
        ]
        edges = {
            (r["pred_a"], r["obj_a"], r["pred_b"], r["obj_b"]): r["n_docs"]
            for r in cooccurrence_edges(ray.data.from_items(rows)).take_all()
        }
        assert edges == {
            ("p", "x", "p", "y"): 2,
            ("p", "x", "q", "z"): 1,
            ("p", "y", "q", "z"): 1,
        }

    def test_null_doc_id_rows_join_nothing(self, ray_session):
        # SQL NULL joins nothing in the oracle's self-join; pandas merge
        # would match None == None and cross-pair unrelated mentions
        import ray.data

        from deduce_ray.rayops.kg import cooccurrence_edges

        rows = [
            {"doc_id": None, "pred": "p", "obj": "x"},
            {"doc_id": None, "pred": "p", "obj": "y"},
            {"doc_id": "d1", "pred": "p", "obj": "x"},
            {"doc_id": "d1", "pred": "p", "obj": "y"},
        ]
        out = cooccurrence_edges(ray.data.from_items(rows)).take_all()
        assert [(r["pred_a"], r["obj_a"], r["pred_b"], r["obj_b"], r["n_docs"]) for r in out] == [
            ("p", "x", "p", "y", 1)
        ]

    def test_max_mentions_per_doc_skips_whole_doc(self, ray_session):
        import ray.data

        from deduce_ray.rayops.kg import cooccurrence_edges

        rows = [
            # doc A: 4 mentions -> over the cap of 3, skipped whole
            *(
                {"doc_id": "a1", "pred": "p", "obj": f"m{i}"}
                for i in range(4)
            ),
            # doc B: 2 mentions -> under the cap
            {"doc_id": "b2", "pred": "p", "obj": "m0"},
            {"doc_id": "b2", "pred": "p", "obj": "m1"},
        ]
        edges = {
            (r["pred_a"], r["obj_a"], r["pred_b"], r["obj_b"]): r["n_docs"]
            for r in cooccurrence_edges(
                ray.data.from_items(rows), max_mentions_per_doc=3
            ).take_all()
        }
        assert edges == {("p", "m0", "p", "m1"): 1}

    def test_matches_reference_over_many_blocks(self, ray_session):
        """Documents spread over every input block, null doc ids, repeated
        mentions and separator/NUL bytes in obj: the edges equal a
        pure-Python self-join, with and without a cap."""
        import random

        import ray.data

        from deduce_ray.rayops.kg import cooccurrence_edges

        rng = random.Random(7)
        objs = ["x", "y", "a\x1fb", "a", "b\x00", "b", "", None]
        docs = [f"{i:x}" for i in range(40)] + ["doc-7", "doc-8", None]
        per_doc = [
            [{"doc_id": d, "pred": rng.choice("pq"), "obj": rng.choice(objs)} for _ in range(2 + 2 * i % 37)]
            for i, d in enumerate(docs)
        ]
        # round-robin over the documents: each spans several input blocks
        rows = [r for k in range(37) for mentions in per_doc for r in mentions[k : k + 1]]
        ds = ray.data.from_items(rows, override_num_blocks=24)
        full = _reference_edges(rows)
        assert any(k[1] == "a\x1fb" or k[3] == "b\x00" for k in full)
        assert {} != _reference_edges(rows, 9) != full
        for cap in (None, 9):
            got = {
                (r["pred_a"], r["obj_a"], r["pred_b"], r["obj_b"]): r["n_docs"]
                for r in cooccurrence_edges(ds, max_mentions_per_doc=cap).take_all()
            }
            assert got == _reference_edges(rows, cap)

    def test_separator_bytes_stay_distinct(self, ray_session):
        import ray.data

        from deduce_ray.rayops.kg import cooccurrence_edges

        rows = [
            {"doc_id": "d1", "pred": "p", "obj": "a\x1fb"},
            {"doc_id": "d1", "pred": "p", "obj": "a"},
            {"doc_id": "d1", "pred": "p", "obj": "b\x00"},
            {"doc_id": "d2", "pred": "p", "obj": "a"},
            {"doc_id": "d2", "pred": "p", "obj": "b\x00"},
            {"doc_id": "d2", "pred": "p", "obj": "b\x00"},
        ]
        edges = {
            (r["pred_a"], r["obj_a"], r["pred_b"], r["obj_b"]): r["n_docs"]
            for r in cooccurrence_edges(
                ray.data.from_items(rows, override_num_blocks=6)
            ).take_all()
        }
        assert edges == {
            ("p", "a", "p", "a\x1fb"): 1,
            ("p", "a", "p", "b\x00"): 2,
            ("p", "a\x1fb", "p", "b\x00"): 1,
        }

    def test_cap_skip_is_logged(self, caplog):
        from deduce_ray.rayops.kg import _cooccurrence_pairs

        mentions = pa.table(
            {
                "doc_id": ["a1"] * 5 + ["b2"] * 3 + ["c3"] * 4,
                "pred": ["p"] * 12,
                # a1 repeats m0: 4 distinct mentions, like c3
                "obj": ["m0", "m0", "m1", "m2", "m3", "m0", "m1", "m2", "m0", "m1", "m2", "m9"],
            }
        )
        with caplog.at_level("WARNING", logger="deduce_ray.rayops.kg"):
            out = _cooccurrence_pairs(mentions, max_mentions_per_doc=3)
        assert sorted(out.to_pylist(), key=lambda r: (r["obj_a"], r["obj_b"])) == [
            {"pred_a": "p", "obj_a": "m0", "pred_b": "p", "obj_b": "m1", "n_docs": 1},
            {"pred_a": "p", "obj_a": "m0", "pred_b": "p", "obj_b": "m2", "n_docs": 1},
            {"pred_a": "p", "obj_a": "m1", "pred_b": "p", "obj_b": "m2", "n_docs": 1},
        ]
        assert [r.getMessage() for r in caplog.records] == [
            "cooccurrence_edges: skipped 2 document(s) exceeding "
            "max_mentions_per_doc=3 (largest had 4 mentions)"
        ]

    def test_store_merged_edges_equal_from_scratch(self, ray_session, tmp_path):
        import random

        import ray.data

        from deduce_ray.rayops.kg import cooccurrence_edges
        from deduce_ray.state.kg_store import KGStore

        rng = random.Random(5)
        rows = [
            {"doc_id": f"d{rng.randrange(90)}", "pred": rng.choice("pq"), "obj": f"e{rng.randrange(25)}"}
            for _ in range(900)
        ]
        store = KGStore(str(tmp_path / "store"))
        for label in range(3):
            batch = [r for r in rows if int(r["doc_id"][1:]) % 3 == label]
            store.ingest_edges(
                f"b{label}",
                cooccurrence_edges(ray.data.from_items(batch, override_num_blocks=4)),
            )

        def as_dict(ds):
            return {
                (r["pred_a"], r["obj_a"], r["pred_b"], r["obj_b"]): r["n_docs"]
                for r in ds.take_all()
            }

        merged = as_dict(store.merged_edges())
        assert merged == as_dict(cooccurrence_edges(ray.data.from_items(rows)))
        assert merged == _reference_edges(rows)
        assert max(merged.values()) > 1


def _reference_edges(rows, cap=None) -> dict:
    """Co-occurrence edges by brute force: per non-null document, every
    ordered pair of its distinct (pred, obj) mentions; a null compares
    false, as in SQL."""
    def lt(a, b):
        return a is not None and b is not None and a < b

    docs: dict = {}
    for r in rows:
        if r["doc_id"] is not None:
            docs.setdefault(r["doc_id"], set()).add((r["pred"], r["obj"]))
    edges: dict = {}
    for mentions in docs.values():
        if cap is not None and len(mentions) > cap:
            continue
        for pa_, oa in mentions:
            for pb, ob in mentions:
                if lt(pa_, pb) or (pa_ is not None and pa_ == pb and lt(oa, ob)):
                    edges[(pa_, oa, pb, ob)] = edges.get((pa_, oa, pb, ob), 0) + 1
    return edges


class TestEntityCanonicalization:
    def test_fuzzy_cross_doc_merge(self, ray_session):
        import ray.data

        from deduce_ray.rayops.kg import canonicalize_entities

        rows = []
        for i, (obj, n) in enumerate(
            [("Ommen", 3), ("Emmen", 1), ("Utrecht", 2), ("Rotterdam", 1)]
        ):
            for j in range(n):
                rows.append(
                    {
                        "doc_id": f"d{i}_{j}",
                        "repo": "org/r",
                        "path": "p",
                        "commit": "c",
                        "lang": "nl",
                        "pred": "locatie",
                        "obj": obj,
                        "start_char": 0,
                        "end_char": len(obj),
                        "entity_id": "LOCATIE-1",
                    }
                )
        out = canonicalize_entities(ray.data.from_items(rows)).to_pandas()
        by_form = dict(zip(out["obj_norm"], out["canonical"]))
        # Ommen (more frequent) absorbs Emmen; Utrecht/Rotterdam stand alone
        assert by_form["emmen"] == "ommen"
        assert by_form["ommen"] == "ommen"
        assert by_form["utrecht"] == "utrecht"
        assert by_form["rotterdam"] == "rotterdam"

    def test_null_obj_is_singleton_entity(self, ray_session):
        """A null obj flows through canonicalization as its own singleton
        cluster (the DL predicate is undefined on null) instead of
        crashing block_edges or being silently dropped in resolve."""
        import ray.data

        from deduce_ray.rayops.kg import canonicalize_entities

        def row(i, obj):
            return {
                "doc_id": f"d{i}", "repo": "org/r", "path": "p",
                "commit": "c", "lang": "nl", "pred": "locatie", "obj": obj,
                "start_char": 0, "end_char": 5, "entity_id": "LOCATIE-1",
            }

        rows = [row(0, None), row(1, "Ommen"), row(2, "Emmen"), row(3, None)]
        out = canonicalize_entities(ray.data.from_items(rows)).to_pandas()
        null_rows = out[out["obj_norm"].isna()]
        assert len(null_rows) == 1
        assert int(null_rows["n_mentions"].iloc[0]) == 2  # count_all, not count(obj)
        assert null_rows["canonical"].isna().all()
        by_form = dict(zip(out["obj_norm"], out["canonical"]))
        assert by_form["emmen"] == "ommen" or by_form["ommen"] == "emmen"

    def test_adjacent_length_blocks_merge(self, ray_session):
        """Forms of adjacent lengths live in different home blocks; the
        guest duplication must still merge them — including a transitive
        chain spanning three lengths (two distinct block pairs)."""
        import ray.data

        from deduce_ray.rayops.kg import canonicalize_entities

        rows = []
        for i, (obj, n) in enumerate(
            [("haarlem", 4), ("haarlm", 1), ("haarlemm", 2), ("delft", 1)]
        ):
            for j in range(n):
                rows.append(
                    {
                        "doc_id": f"d{i}_{j}",
                        "repo": "org/r",
                        "path": "p",
                        "commit": "c",
                        "lang": "nl",
                        "pred": "locatie",
                        "obj": obj,
                        "start_char": 0,
                        "end_char": len(obj),
                        "entity_id": "LOCATIE-1",
                    }
                )
        out = canonicalize_entities(ray.data.from_items(rows)).to_pandas()
        by_form = dict(zip(out["obj_norm"], out["canonical"]))
        # haarlm (6) - haarlem (7) - haarlemm (8): one transitive cluster,
        # canonical = most frequent member
        assert by_form["haarlm"] == "haarlem"
        assert by_form["haarlem"] == "haarlem"
        assert by_form["haarlemm"] == "haarlem"
        assert by_form["delft"] == "delft"

    def test_subblocker_matches_brute_force(self):
        """Deletion-neighborhood blocking finds exactly the brute-force
        DL<=1 edge set on a mixed random + planted-near-dup vocabulary."""
        import random

        from deduce_ray.matching import within_edit_distance_one
        from deduce_ray.rayops.kg import _dl1_block_pairs

        rng = random.Random(7)
        alphabet = "abcdefgh"
        homes = set()
        while len(homes) < 400:
            homes.add("".join(rng.choice(alphabet) for _ in range(8)))
        homes = sorted(homes)
        # plant near-dups: substitutions of existing homes (same length)
        for h in homes[:60]:
            v = list(h)
            v[rng.randrange(8)] = rng.choice(alphabet)
            cand = "".join(v)
            if cand not in homes:
                homes.append(cand)
        # production shape: guests are one char SHORTER than homes
        guests = set()
        while len(guests) < 100:
            guests.add("".join(rng.choice(alphabet) for _ in range(7)))
        # plant single-deletions of homes
        for h in homes[:40]:
            k = rng.randrange(8)
            guests.add(h[:k] + h[k + 1 :])
        guests = sorted(guests)

        got, n_comp = _dl1_block_pairs(homes, guests)
        want = []
        for i in range(len(homes)):
            for j in range(i + 1, len(homes)):
                if within_edit_distance_one(homes[i], homes[j]):
                    want.append((homes[i], homes[j]))
            for g in guests:
                if within_edit_distance_one(homes[i], g):
                    want.append((homes[i], g))
        canon = lambda es: sorted(tuple(sorted(e)) for e in es)
        assert canon(got) == canon(want)
        assert len(want) > 20  # the planted pairs actually exercised it
        # and the blocking did its job: way under the m^2 scan
        assert n_comp < len(homes) ** 2 // 8

    def test_subblocker_bounded_comparisons_10k(self):
        """A 10k-form single-length vocabulary stays tractable: the
        comparison count is bounded by bucket collisions, not m^2/2."""
        import random

        from deduce_ray.rayops.kg import _dl1_block_pairs

        rng = random.Random(11)
        forms = set()
        while len(forms) < 10_000:
            forms.add(
                "".join(rng.choice("abcdefghijklmnop") for _ in range(12))
            )
        edges, n_comp = _dl1_block_pairs(sorted(forms), [])
        assert n_comp < 500_000  # vs ~50M for the full scan
        assert edges == [] or len(edges) < 50  # random 16^12 space: none

    def test_canonicalize_matches_brute_force(self, ray_session):
        """canonicalize_entities equals a pure-Python reference on a
        seeded random vocabulary over two predicates: every pair checked
        with within_edit_distance_one, union-find closure, then the
        canonical pick (most mentions, ties to the smallest form)."""
        import random

        import ray.data

        from deduce_ray.matching import within_edit_distance_one
        from deduce_ray.rayops.kg import canonicalize_entities

        rng = random.Random(5)
        counts: dict = {}
        while len(counts) < 300:
            pred = rng.choice(["locatie", "persoon"])
            form = "".join(rng.choice("abcd") for _ in range(rng.randint(1, 5)))
            counts[(pred, form)] = rng.randint(1, 4)
        rows = [
            _canon_row(f"d{i}_{j}", pred, form)
            for i, ((pred, form), n) in enumerate(counts.items())
            for j in range(n)
        ]

        parent = {key: key for key in counts}

        def find(key):
            while parent[key] != key:
                parent[key] = parent[parent[key]]
                key = parent[key]
            return key

        keys = sorted(counts)
        for i, x in enumerate(keys):
            for y in keys[i + 1 :]:
                if x[0] == y[0] and within_edit_distance_one(x[1], y[1]):
                    parent[find(x)] = find(y)
        best: dict = {}
        for key in keys:
            root = find(key)
            if root not in best or counts[key] > counts[best[root]]:
                best[root] = key  # keys ascend, so ties keep the smallest
        want = sorted(
            (pred, form, best[find((pred, form))][1], counts[(pred, form)])
            for pred, form in keys
        )

        out = canonicalize_entities(ray.data.from_items(rows)).to_pandas()
        got = sorted(
            zip(out["pred"], out["obj_norm"], out["canonical"], out["n_mentions"])
        )
        assert got == want
        assert sum(1 for row in want if row[1] != row[2]) > 50

    def test_edge_forms(self, ray_session):
        """Pinned edge cases: the empty form chains to NUL-suffixed forms
        at DL<=1, a NUL twin two edits away stays apart, a mention tie goes
        to the smaller form, and a null form stays a null singleton."""
        import ray.data

        from deduce_ray.rayops.kg import canonicalize_entities

        forms = [("", 1), ("a", 1), ("ab", 1), ("ab\x00", 1), ("jan", 2),
                 ("jan\x00x", 2), ("piet", 1), ("pieta", 1), (None, 1)]
        rows = [
            _canon_row(f"d{i}_{j}", "locatie", form)
            for i, (form, n) in enumerate(forms)
            for j in range(n)
        ]
        out = canonicalize_entities(ray.data.from_items(rows)).to_pandas()
        assert len(out) == len(forms)
        got = {
            row.obj_norm: (row.canonical, row.n_mentions)
            for row in out.itertuples()
            if row.obj_norm is not None
        }
        assert got == {
            "": ("", 1),
            "a": ("", 1),
            "ab": ("", 1),
            "ab\x00": ("", 1),
            "jan": ("jan", 2),
            "jan\x00x": ("jan\x00x", 2),
            "piet": ("piet", 1),
            "pieta": ("piet", 1),
        }
        null_rows = out[out["obj_norm"].isna()]
        assert len(null_rows) == 1 and null_rows["canonical"].isna().all()

    def test_null_pred_is_a_predicate(self, ray_session):
        """A null predicate clusters its forms like any other predicate
        and never merges with a named one."""
        import ray.data

        from deduce_ray.rayops.kg import canonicalize_entities

        rows = [
            _canon_row("d0", None, "Ommen"),
            _canon_row("d1", None, "Ommen"),
            _canon_row("d2", None, "Emmen"),
            _canon_row("d3", "locatie", "Emmen"),
        ]
        out = canonicalize_entities(ray.data.from_items(rows)).to_pandas()
        got = sorted(
            (row.pred, row.obj_norm, row.canonical, row.n_mentions)
            for row in out.itertuples()
            if row.pred is None
        )
        assert got == [(None, "emmen", "ommen", 1), (None, "ommen", "ommen", 2)]
        named = out[out["pred"] == "locatie"]
        assert named["canonical"].tolist() == ["emmen"]


def _canon_row(doc_id, pred, obj):
    return {
        "doc_id": doc_id, "repo": "org/r", "path": "p", "commit": "c",
        "lang": "nl", "pred": pred, "obj": obj, "start_char": 0,
        "end_char": len(obj or ""), "entity_id": "X",
    }


class TestTimeBudgetStage:
    def test_stage_emits_flag_row(self, ray_session, lexicon_ref):
        """A budget-breached document keeps its rows and gains a
        pred="_budget_exhausted" flag row (second straggler guard next to
        _truncated)."""
        import ray.data

        from deduce_ray.rayops.annotate import extract_triples

        rows = [
            {
                "repo": "org/r",
                "path": "p",
                "commit": "c",
                "lang": "nl",
                "content": "Jansen " * 2500,
            }
        ]
        out = extract_triples(
            ray.data.from_items(rows),
            lexicon_ref=lexicon_ref,
            time_budget_s=0.5,
        ).take_all()
        assert any(r["pred"] == "_budget_exhausted" for r in out)


class TestCorpusReport:
    def test_report_counts_and_langs(self, ray_session):
        import ray.data

        from deduce_ray.ops.textstats import corpus_report

        rows = [
            {"doc_id": 1, "text": "the cat is in the hat for it"},
            {"doc_id": 2, "text": "the cat is in the hat for it"},  # dup
            {"doc_id": 3, "text": "de kat is niet met de hond op pad"},
            {"doc_id": 4, "text": ""},
            {"doc_id": 5, "text": "digits 123 456"},
        ]
        rep = corpus_report(ray.data.from_items(rows))
        assert rep["docs"] == 5
        assert rep["empty_docs"] == 1
        assert rep["words"] == 8 + 8 + 9 + 0 + 3
        assert rep["langs"]["en"] == 2
        assert rep["langs"]["nl"] == 1
        assert rep["langs"][""] == 1  # the empty doc
        # 4 distinct non-... texts: HLL at this cardinality is exact
        assert rep["approx_distinct_texts"] == 4
        assert rep["approx_exact_dup_pct"] == 20.0
