"""The three workloads: inputs, the timed job, its checks and the traced
per-layer breakdown.  Every job goes through the program's public entry
points; the traced breakdown times each stage as a call to its public
function over the previous stage's materialized output."""

from __future__ import annotations

import shutil
import time
from pathlib import Path

from perfbench import checks, gen
from perfbench.measure import raydata_stats

ENGINE_SAMPLE = 300  # documents in the Ray-free engine breakdown


def _mtimes(pattern_root: Path, pattern: str) -> list[float]:
    return [p.stat().st_mtime for p in pattern_root.glob(pattern)]


def _dir_mb(root: Path, pattern: str) -> float:
    return sum(p.stat().st_size for p in root.glob(pattern)) / 2**20


class Workload:
    name = ""
    mask = None  # enabled stages of the annotate engine; None = all
    needs_lexicon = True
    default_docs = 0

    def __init__(self, work: Path, lexicon_dir: Path | None, seed: int, n_docs: int | None) -> None:
        self.work = work
        if lexicon_dir is not None:
            self.tree, self.cache = lexicon_dir / "tree", lexicon_dir / "cache"
        self.seed = seed
        self.n_docs = n_docs or self.default_docs
        self.inputs = work / "inputs"
        self.ref = None
        self.layer: dict[str, float] = {}

    # -- set-up ------------------------------------------------------------

    def broadcast(self) -> None:
        """The lexicon broadcast for the enabled stages (part of set-up)."""
        from deduce_ray.rayops.annotate import broadcast_lexicon, lexicon_ref_for

        t0 = time.perf_counter()
        base = broadcast_lexicon(self.tree, cache_dir=self.cache)
        lexicon_ref_for(base, enabled=self.mask)
        self.layer["lexicon.broadcast_s"] = time.perf_counter() - t0
        self.ref = base

    def warm(self) -> None:
        """Run the annotate stage over a few fixed notes, one block per
        CPU, so every worker holds the engine before the first timed job."""
        import pyarrow.parquet as pq
        import ray.data

        from deduce_ray.rayops.annotate import extract_triples

        n_cpus = int(ray.cluster_resources()["CPU"])
        warm = self.work / "warm"
        gen.kg_extract_inputs(warm, gen.load_vocab(self.tree), seed=-1, n_docs=4 * n_cpus)
        table = pq.read_table(warm / "docs.parquet")
        ds = ray.data.from_arrow([table.slice(i, 4) for i in range(0, table.num_rows, 4)])
        extract_triples(ds, lexicon_ref=self.ref, enabled=self.mask).materialize()
        shutil.rmtree(warm)

    def setup(self) -> None:
        self.broadcast()
        self.warm()

    # -- per workload ------------------------------------------------------

    def make_inputs(self) -> None:
        raise NotImplementedError

    def prepare(self) -> None:
        """Untimed work before the first round."""

    def round(self, out: Path) -> tuple[float, float]:
        """Run the job once into ``out``; (wall seconds, first output s)."""
        raise NotImplementedError

    def check(self, out: Path) -> list[str]:
        raise NotImplementedError

    def trace(self, tracer, out: Path) -> dict[str, float]:
        raise NotImplementedError

    # -- shared pieces -----------------------------------------------------

    def engine_breakdown(self, tracer, contents: list[str], patients: list | None = None) -> dict[str, float]:
        """Ray-free, in-process engine timings over a fixed sample: the
        tokenizer, each annotator and processor in dispatch order, and the
        linker.  Also checks that the walk reproduces ``deidentify``."""
        from deduce_ray.config import default_config
        from deduce_ray.document import Document
        from deduce_ray.engine import DeduceEngine
        from deduce_ray.lexicon import Lexicon
        from deduce_ray.linker import assign_entity_ids
        from deduce_ray.person import Person

        lexicon = Lexicon(self.tree, cache_dir=self.cache)
        lexicon.resolve()
        sample = contents[:ENGINE_SAMPLE]
        patients = (patients or [None] * len(contents))[:ENGINE_SAMPLE]
        metas = [
            {"patient": Person(first_names=p["first_names"], initials=p["initials"], surname=p["surname"])}
            if p else None
            for p in patients
        ]
        disabled = None if self.mask is not None else {"redactor"}
        with tracer.span("engine.init") as sp:
            engine = DeduceEngine(lexicon=(lexicon, lexicon.tokenizer))
            engine.deidentify(sample[0], metadata=metas[0], enabled=self.mask, disabled=disabled)
        out = {"engine.init_s": sp.elapsed}
        # the dispatch plan the engine built above, walked in group order
        plan = []
        for group, members in engine.processor_groups.items():
            for name, proc in members:
                runs = (
                    name != "redactor"
                    if self.mask is None
                    else group in self.mask and name in self.mask
                )
                if runs:
                    plan.append((name, proc, hasattr(proc, "annotate")))
        busy = {f"annotators.{n}.busy_s": 0.0 for n in default_config()["annotators"]}
        for n in PROCESSORS:
            busy[f"processors.{n}.busy_s"] = 0.0
        tok_s = link_s = 0.0
        mismatches = 0
        perf = time.perf_counter
        with tracer.span("engine.sample"):
            for text, meta in zip(sample, metas):
                doc = Document(text, tokenizer=engine.tokenizer, metadata=meta)
                t0 = perf()
                doc.get_tokens()
                tok_s += perf() - t0
                for name, proc, is_annotator in plan:
                    t0 = perf()
                    if is_annotator:
                        new = proc.annotate(doc)
                        if new:
                            doc.annotations.update(new)
                        key = f"annotators.{name}.busy_s"
                    else:
                        doc.annotations = proc.process_annotations(doc.annotations, doc.text)
                        key = f"processors.{name}.busy_s"
                    busy[key] = busy.get(key, 0.0) + perf() - t0
                t0 = perf()
                assign_entity_ids(doc.annotations)
                link_s += perf() - t0
                ref = engine.deidentify(text, metadata=meta, enabled=self.mask, disabled=disabled)
                if set(ref.annotations) != set(doc.annotations):
                    mismatches += 1
        total = tok_s + link_s + sum(busy.values())
        out.update(busy)
        out["tokenizer.busy_s"] = tok_s
        out["linker.busy_s"] = link_s
        out["engine.docs_per_s"] = len(sample) / total
        self.engine_mismatches = mismatches
        return out


PROCESSORS = (
    "person_annotation_converter",
    "remove_street_tags",
    "clean_street_tags",
    "overlap_resolver",
    "merge_adjacent_annotations",
)


class KgExtract(Workload):
    name = "kg_extract"
    default_docs = 5000

    def make_inputs(self) -> None:
        vocab = gen.load_vocab(self.tree)
        self.truth = gen.kg_extract_inputs(self.inputs, vocab, self.seed, self.n_docs)

    def round(self, out: Path) -> tuple[float, float]:
        from deduce_ray.corpus import read_parquet_sliced
        from deduce_ray.rayops.annotate import extract_triples
        from deduce_ray.rayops.kg import detect_hot_keys, materialize_graph

        t0 = time.time()
        ds = read_parquet_sliced(self.inputs / "docs.parquet")
        hot = detect_hot_keys(ds)
        triples = extract_triples(ds, lexicon_ref=self.ref)
        materialize_graph(triples, out, hot_keys=hot).to_pandas()
        wall = time.time() - t0
        first = min(_mtimes(out / "_manifests", "[!_]*.json")) - t0
        self.hot = hot
        return wall, first

    def check(self, out: Path) -> list[str]:
        errors = checks.check_graph(checks.read_graph_units(out), self.truth)
        if gen.HOT_REPO not in self.hot:
            errors.append(f"the {gen.HOT_REPO} repo was not detected as hot: {sorted(self.hot)}")
        return errors

    def trace(self, tracer, out: Path) -> dict[str, float]:
        import pyarrow.parquet as pq

        from deduce_ray.corpus import read_parquet_sliced
        from deduce_ray.rayops.annotate import extract_triples
        from deduce_ray.rayops.kg import dedup_triples, detect_hot_keys, materialize_graph

        m: dict[str, float] = {}
        seen: set = set()
        with tracer.span("job"):
            with tracer.span("sources.read") as sp:
                ds = read_parquet_sliced(self.inputs / "docs.parquet").materialize()
            m["sources.read_s"] = sp.elapsed
            raydata_stats(ds, m, seen)
            with tracer.span("rayops.kg.detect_hot_keys") as hot_sp:
                hot = detect_hot_keys(ds)
            m["rayops.kg.hot_keys_s"] = hot_sp.elapsed
            with tracer.span("rayops.annotate") as sp:
                triples = extract_triples(ds, lexicon_ref=self.ref).materialize()
            m["rayops.annotate.busy_s"] = sp.elapsed
            m["rayops.annotate.rows_out"] = triples.count()
            raydata_stats(triples, m, seen)
            with tracer.span("rayops.kg.sink") as sink_sp:
                metrics = materialize_graph(triples, out, hot_keys=hot)
                metrics.to_pandas()
            m["rayops.kg.sink_s"] = sink_sp.elapsed
            raydata_stats(metrics, m, seen)
        staged = sum(m[k] for k in (
            "sources.read_s", "rayops.kg.hot_keys_s", "rayops.annotate.busy_s", "rayops.kg.sink_s",
        ))
        self.traced_docs_per_s = self.n_docs / staged
        m["rayops.kg.units"] = len(list(out.glob("*/part-*.parquet")))
        m["rayops.kg.output_mb"] = _dir_mb(out, "*/part-*.parquet")
        with tracer.span("rayops.kg.dedup") as sp:
            graph = dedup_triples(triples).materialize()
        m["rayops.kg.dedup_s"] = sp.elapsed
        m["rayops.kg.graph_rows"] = graph.count()
        raydata_stats(graph, m, seen)
        table = pq.read_table(self.inputs / "docs.parquet", columns=["content", "patient"])
        m.update(self.engine_breakdown(
            tracer, table.column("content").to_pylist(), table.column("patient").to_pylist()
        ))
        return m


class KgAnalyze(Workload):
    name = "kg_analyze"
    default_docs = 4000

    def __init__(self, *a, **kw) -> None:
        super().__init__(*a, **kw)
        from deduce_ray.oracles import SQLPRED_ENABLED

        self.mask = set(SQLPRED_ENABLED)

    def make_inputs(self) -> None:
        vocab = gen.load_vocab(self.tree)
        self.truth = gen.kg_analyze_inputs(self.inputs, vocab, self.seed, self.n_docs)
        self.want_edges = checks.expected_edges(self.truth)

    def prepare(self) -> None:
        """The store every round starts from: batch 1's edges, ingested
        once.  Batch 1's triples are checked on the way."""
        from deduce_ray.corpus import read_parquet_sliced
        from deduce_ray.rayops.annotate import extract_triples
        from deduce_ray.rayops.kg import cooccurrence_edges
        from deduce_ray.state.kg_store import KGStore

        ds = read_parquet_sliced(self.inputs / "batch1.parquet")
        triples = extract_triples(ds, lexicon_ref=self.ref, enabled=self.mask).materialize()
        self.prepare_errors = checks.check_triples(_to_arrow(triples), self.truth["batch1"])
        self.base_store = self.work / "store_base"
        KGStore(str(self.base_store)).ingest_edges("batch1", cooccurrence_edges(triples))

    def round(self, out: Path) -> tuple[float, float]:
        from deduce_ray.corpus import read_parquet_sliced
        from deduce_ray.rayops.annotate import extract_triples
        from deduce_ray.rayops.kg import cooccurrence_edges, graph_components, pagerank
        from deduce_ray.state.kg_store import KGStore

        shutil.copytree(self.base_store, out)
        t0 = time.time()
        ds = read_parquet_sliced(self.inputs / "batch2.parquet")
        triples = extract_triples(ds, lexicon_ref=self.ref, enabled=self.mask)
        store = KGStore(str(out))
        store.ingest_edges("batch2", cooccurrence_edges(triples))
        merged = store.merged_edges().materialize()
        ranks = pagerank(merged).to_pandas()
        comps = graph_components(merged).to_pandas()
        wall = time.time() - t0
        first = (out / "_ingests" / "batch2.json").stat().st_mtime - t0
        self.result = (merged.to_pandas(), ranks, comps)
        return wall, first

    def check(self, out: Path) -> list[str]:
        from deduce_ray.corpus import read_parquet_sliced
        from deduce_ray.rayops.annotate import extract_triples

        merged, ranks, comps = self.result
        errors = list(self.prepare_errors)
        errors += checks.check_analytics(
            list(merged[["pred_a", "obj_a", "pred_b", "obj_b", "n_docs"]].itertuples(index=False, name=None)),
            list(ranks[["pred", "obj", "score"]].itertuples(index=False, name=None)),
            list(comps[["pred", "obj", "component_id"]].itertuples(index=False, name=None)),
            self.want_edges,
        )
        ds = read_parquet_sliced(self.inputs / "batch2.parquet")
        triples = extract_triples(ds, lexicon_ref=self.ref, enabled=self.mask)
        errors += checks.check_triples(_to_arrow(triples), self.truth["batch2"])
        return errors

    def trace(self, tracer, out: Path) -> dict[str, float]:
        from deduce_ray.corpus import read_parquet_sliced
        from deduce_ray.rayops.annotate import extract_triples
        from deduce_ray.rayops.kg import cooccurrence_edges, graph_components, pagerank
        from deduce_ray.state.kg_store import KGStore

        m: dict[str, float] = {}
        seen: set = set()
        shutil.copytree(self.base_store, out)
        with tracer.span("job"):
            with tracer.span("sources.read") as sp:
                ds = read_parquet_sliced(self.inputs / "batch2.parquet").materialize()
            m["sources.read_s"] = sp.elapsed
            raydata_stats(ds, m, seen)
            with tracer.span("rayops.annotate") as sp:
                triples = extract_triples(ds, lexicon_ref=self.ref, enabled=self.mask).materialize()
            m["rayops.annotate.busy_s"] = sp.elapsed
            m["rayops.annotate.rows_out"] = triples.count()
            raydata_stats(triples, m, seen)
            with tracer.span("rayops.kg.cooccurrence") as sp:
                edges = cooccurrence_edges(triples).materialize()
            m["rayops.kg.cooccurrence_s"] = sp.elapsed
            m["rayops.kg.edges"] = edges.count()
            raydata_stats(edges, m, seen)
            store = KGStore(str(out))
            with tracer.span("state.kg_store.ingest") as sp:
                store.ingest_edges("batch2", edges)
            m["state.kg_store.ingest_s"] = sp.elapsed
            with tracer.span("state.kg_store.merge") as sp:
                merged = store.merged_edges().materialize()
            m["state.kg_store.merge_s"] = sp.elapsed
            raydata_stats(merged, m, seen)
            with tracer.span("rayops.kg.pagerank") as sp:
                ranks = pagerank(merged).materialize()
            m["rayops.kg.pagerank_s"] = sp.elapsed
            raydata_stats(ranks, m, seen)
            with tracer.span("rayops.kg.components") as sp:
                comps = graph_components(merged).materialize()
            m["rayops.kg.components_s"] = sp.elapsed
            raydata_stats(comps, m, seen)
        staged = sum(
            m[k] for k in (
                "sources.read_s", "rayops.annotate.busy_s", "rayops.kg.cooccurrence_s",
                "state.kg_store.ingest_s", "state.kg_store.merge_s",
                "rayops.kg.pagerank_s", "rayops.kg.components_s",
            )
        )
        self.traced_docs_per_s = self.n_docs / staged
        m.update(self.engine_breakdown(tracer, self.truth["batch2"]["contents"]))
        return m


def _to_arrow(ds):
    import pyarrow as pa

    return pa.concat_tables(list(ds.iter_batches(batch_format="pyarrow", batch_size=None)))


class PrepFunnel(Workload):
    name = "prep_funnel"
    needs_lexicon = False
    default_docs = 8000
    MINHASH_THRESHOLD = 0.5
    N_BUCKETS = 16

    def setup(self) -> None:
        """No lexicon and no engine: set-up starts a worker with a
        one-row job, so the first timed job does not pay for it."""
        import ray.data

        ray.data.range(1).map_batches(lambda b: b).materialize()

    def make_inputs(self) -> None:
        from perfbench.lexgen import filler_vocabulary

        vocab = {"filler": filler_vocabulary(self.seed)}
        self.truth = gen.prep_funnel_inputs(self.inputs, vocab, self.seed, self.n_docs)

    def _read(self):
        import pyarrow as pa
        import pyarrow.compute as pc

        from deduce_ray.sources import read_jsonl_corpus

        def add_id(batch):
            return batch.append_column("doc_id", pc.cast(batch.column("path"), pa.int64()))

        return read_jsonl_corpus(self.inputs / "corpus.jsonl").map_batches(add_id, batch_format="pyarrow")

    def _funnel_args(self) -> dict:
        return dict(
            text_col="content",
            min_chars=gen.MIN_CHARS,
            strip_dup_ngrams=gen.STRIP_N,
            minhash_threshold=self.MINHASH_THRESHOLD,
        )

    def round(self, out: Path) -> tuple[float, float]:
        from deduce_ray.ops.funnel import prep_corpus
        from deduce_ray.sinks import write_parquet_resumable

        t0 = time.time()
        survivors = prep_corpus(self._read(), **self._funnel_args())
        write_parquet_resumable(survivors, out, n_buckets=self.N_BUCKETS)
        wall = time.time() - t0
        first = min(_mtimes(out / "_manifests", "part-*.json")) - t0
        return wall, first

    def check(self, out: Path) -> list[str]:
        return checks.check_survivors(checks.read_survivors(out), self.truth)

    def trace(self, tracer, out: Path) -> dict[str, float]:
        import deduce_ray.ops.dedup as dedup
        from deduce_ray.ops.funnel import prep_corpus
        from deduce_ray.ops.substring import strip_dup_spans
        from deduce_ray.sinks import write_parquet_resumable

        m: dict[str, float] = {}
        seen: set = set()
        args = self._funnel_args()

        class _Stop(Exception):
            pass

        filtered = {}

        def stop_at_exact(ds, *a, **kw):
            filtered["ds"] = ds
            raise _Stop

        with tracer.span("job"):
            with tracer.span("sources.read") as sp:
                ds = self._read().materialize()
            m["sources.read_s"] = sp.elapsed
            raydata_stats(ds, m, seen)
            # the funnel's length filter has no public function of its
            # own: run prep_corpus up to its exact-dedup call, which takes
            # the filtered (checkpointed) corpus
            original = dedup.dedup_survivors
            dedup.dedup_survivors = stop_at_exact
            try:
                with tracer.span("ops.funnel.filter") as sp:
                    try:
                        prep_corpus(ds, **{**args, "minhash_threshold": None, "strip_dup_ngrams": None})
                    except _Stop:
                        pass
            finally:
                dedup.dedup_survivors = original
            m["ops.funnel.filter_s"] = sp.elapsed
            with tracer.span("ops.dedup.exact") as sp:
                exact = dedup.dedup_survivors(filtered["ds"], text_col="content").materialize()
            m["ops.dedup.exact_s"] = sp.elapsed
            raydata_stats(exact, m, seen)
            with tracer.span("ops.substring.strip") as sp:
                stripped = strip_dup_spans(exact, n=gen.STRIP_N, text_col="content").materialize()
            m["ops.substring.strip_s"] = sp.elapsed
            raydata_stats(stripped, m, seen)
            with tracer.span("ops.dedup.minhash") as sp:
                pairs = dedup.minhash_lsh_pairs(
                    stripped, text_col="content", threshold=self.MINHASH_THRESHOLD
                ).materialize()
                labels = dedup.neardup_clusters(pairs).to_pandas()
            m["ops.dedup.minhash_s"] = sp.elapsed
            raydata_stats(pairs, m, seen)
            losers = set(labels.loc[labels["doc_id"] != labels["cluster_id"], "doc_id"].tolist())
            survivors = stripped.filter(lambda r: r["doc_id"] not in losers)
            with tracer.span("sinks.write") as sp:
                write_parquet_resumable(survivors, out, n_buckets=self.N_BUCKETS)
            m["sinks.write_s"] = sp.elapsed
        staged = sum(m[k] for k in (
            "sources.read_s", "ops.funnel.filter_s", "ops.dedup.exact_s",
            "ops.substring.strip_s", "ops.dedup.minhash_s", "sinks.write_s",
        ))
        self.traced_docs_per_s = self.n_docs / staged
        m["sinks.output_mb"] = _dir_mb(out, "part-*.parquet")
        m["ops.dedup.minhash_pairs"] = pairs.count()
        # every candidate pair the LSH bands produce: verification off
        m["ops.dedup.minhash_candidates"] = dedup.minhash_lsh_pairs(
            stripped, text_col="content", threshold=0.0
        ).count()
        return m


WORKLOADS = {w.name: w for w in (KgExtract, KgAnalyze, PrepFunnel)}
