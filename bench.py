#!/usr/bin/env python
"""Benchmark harness.

Default: runs the headline pipelines over $GRAFT_SF_DIR (default
/root/testdata/sf0.1) with ray.init(address="local",
num_cpus=$RAY_GRAFT_CPUS or 32) and prints ONE JSON line:

    {"metric": "bench_suite_sec", "value": <total>, "unit": "sec",
     "queries": {...}, "sf": ..., "num_cpus": N, "kg_docs_per_sec": ...}

--scaling: runs the headline KG-annotate pipeline twice in FRESH processes
(num_cpus=8 then num_cpus=32) on the identical input and reports both
throughputs plus the scaling efficiency (sandbox stand-in for the N vs 4N
node criterion); also records the result in BASELINE.md.

The headline corpus is the sf documents table decorated into the repo
schema and replicated KG_REPLICATE times (distinct paths) so the annotate
stage is compute-bound rather than startup-bound.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

DEFAULT_SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
DEFAULT_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
KG_REPLICATE = int(os.environ.get("KG_REPLICATE", "64"))


def _cpu_ticks() -> dict | None:
    """Aggregate /proc/stat ticks — used to report hypervisor steal over
    the measured window, so a noisy co-tenant period is visible in the
    recorded JSON instead of silently inflating wall-times."""
    try:
        with open("/proc/stat") as f:
            parts = f.readline().split()
        user, nice, system, idle, iowait, irq, softirq, steal = (
            int(x) for x in parts[1:9]
        )
    except (OSError, ValueError, IndexError):
        return None
    return {
        "busy": user + nice + system + irq + softirq,
        "idle": idle + iowait,
        "steal": steal,
    }


def _cpu_window(t0: dict | None, t1: dict | None) -> dict:
    if not t0 or not t1:
        return {}
    total = sum(t1[k] - t0[k] for k in t0)
    if total <= 0:
        return {}
    return {
        "steal_pct": round(100.0 * (t1["steal"] - t0["steal"]) / total, 1),
        "busy_pct": round(100.0 * (t1["busy"] - t0["busy"]) / total, 1),
    }


def _sf_of(sf_dir: str) -> float:
    name = Path(sf_dir).name
    try:
        return float(name.removeprefix("sf"))
    except ValueError:
        return -1.0


def _replicated_repo_table(sf_dir: str, replicate: int, rows_per_block: int = 625):
    """repo table with each document replicated under distinct paths.

    The sf documents table is ONE tiny parquet file (~2 MB); at real scale
    the input is thousands of files and ``read_parquet`` produces blocks
    naturally.  Here blocks are shaped driver-side with ``from_arrow`` —
    a Repartition operator would add an all-to-all exchange for nothing
    (measured: pre-split blocks run the annotate stage at ~97% of the
    multiprocessing ideal; repartition+explode peaked at ~40%).
    """
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq
    import ray.data

    from deduce_ray.corpus import decorate_batch

    full = decorate_batch(
        pq.read_table(
            f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "lang"]
        )
    )
    n = full.num_rows
    blocks = []
    for r in range(replicate):
        replica = full
        if r > 0:
            replica = replica.set_column(
                replica.schema.get_field_index("path"),
                "path",
                pc.binary_join_element_wise(
                    replica.column("path"), pa.array([str(r)] * n), "#"
                ),
            )
        for i in range(0, n, rows_per_block):
            blocks.append(replica.slice(i, rows_per_block))
    return ray.data.from_arrow(blocks)


def _replicated_documents_salted(
    sf_dir: str, replicate: int, rows_per_block: int = 625
):
    """documents table replicated with per-replica WORD salting (every
    word prefixed ``r<i>x``), so replicas share no n-grams: the dup_spans
    scaling job then measures the real workload shape (each replica's
    internal duplicate structure) instead of a degenerate corpus where
    every document duplicates every replica of itself.  Salting is one
    C-level regex substitution per replica, applied driver-side once —
    the timed pipeline consumes pre-built blocks."""
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data

    full = pq.read_table(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    n = full.num_rows
    texts = pd.Series(full.column("text").to_pandas()).fillna("")
    ids = full.column("doc_id").to_numpy(zero_copy_only=False)
    blocks = []
    for r in range(replicate):
        salted = texts.str.replace(
            r"(\S+)", rf"r{r}x\1", regex=True
        )
        replica = pa.table(
            {
                "doc_id": pa.array(ids + r * 100_000_000, type=pa.int64()),
                "text": pa.Array.from_pandas(salted, type=pa.string()),
            }
        )
        for i in range(0, n, rows_per_block):
            blocks.append(replica.slice(i, rows_per_block))
    return ray.data.from_arrow(blocks)


def dup_spans_headline(sf_dir: str, num_cpus: int, replicate: int) -> dict:
    """Substring-dedup scaling job: the (gram_hash, doc, pos) exchange and
    the doc-sharded interval exchange over a word-salted replicated
    corpus — scaling evidence for the constant-width all-to-all half of
    the dedup family (kg_graph_e2e covers the (repo,lang) merge; this
    covers a corpus-wide hash exchange whose payload is ~32 B x corpus
    words)."""
    import pyarrow.parquet as pq

    from deduce_ray.ops.substring import duplicated_ngram_spans

    n_docs = (
        pq.ParquetFile(f"{sf_dir}/documents.parquet").metadata.num_rows
        * replicate
    )
    docs = _replicated_documents_salted(sf_dir, replicate)
    # warm pass on one replica so worker spawn is outside the timing
    duplicated_ngram_spans(
        _replicated_documents_salted(sf_dir, 1), n=13
    ).count()
    t0 = time.time()
    n_spans = duplicated_ngram_spans(docs, n=13).count()
    elapsed = time.time() - t0
    return {
        "docs": n_docs,
        "spans": n_spans,
        "sec": round(elapsed, 3),
        "docs_per_sec": round(n_docs / elapsed, 1),
    }


def _warm_pool(num_cpus: int) -> None:
    """Spawn the FULL Ray worker pool (and its numpy/pandas/deduce_ray
    imports) with one trivial wide stage before any timed query.

    Worker processes are created lazily: the first shuffle-heavy query to
    fan out across all CPUs pays ~5 s of process spawn + imports that
    belongs to session startup, not to whichever query happens to run
    first (measured: minhash_pairs 7 s on a cold pool, ~2 s warm, same
    code).  At real scale the pool lives for the whole job, so
    steady-state is the honest number; the warm-up itself is excluded
    from every recorded timing."""
    import time as _time

    import ray.data

    def hold(batch):
        # import exactly what the suite's hot UDFs use, so first-touch
        # import cost lands here instead of inside a measurement
        import numpy  # noqa: F401
        import pandas  # noqa: F401

        from deduce_ray.ops import dedup, relational, similarity  # noqa: F401

        _time.sleep(0.25)
        return batch

    n = max(4, num_cpus * 2)
    ray.data.range(n, override_num_blocks=n).map_batches(
        hold, batch_size=1
    ).count()


def kg_headline(sf_dir: str, num_cpus: int, replicate: int) -> dict:
    """The flagship stage: annotate actor pool over the replicated corpus."""
    import ray

    from deduce_ray.rayops.annotate import broadcast_lexicon, extract_triples

    import pyarrow.parquet as pq

    lexicon_ref = broadcast_lexicon()
    n_docs = (
        pq.ParquetFile(f"{sf_dir}/documents.parquet").metadata.num_rows * replicate
    )

    # warm the worker pool + per-worker engines so the measurement reflects
    # steady-state throughput, not process spawn.  batch_size=128 (not the
    # measured run's 2048): the sf0.1 corpus is ~5k docs, and 2048-row
    # warm-up tasks touch only ~3 of the 32 workers — the other 29 then
    # fetch + unpickle the lexicon INSIDE the timed run (1.2 s each).
    extract_triples(
        _replicated_repo_table(sf_dir, 1),
        lexicon_ref=lexicon_ref,
        batch_size=128,
    ).count()

    repeats = int(os.environ.get("KG_BENCH_REPEATS", "1"))
    best = None
    n_triples = 0
    for _ in range(max(1, repeats)):
        repo = _replicated_repo_table(sf_dir, replicate)
        triples = extract_triples(repo, lexicon_ref=lexicon_ref, batch_size=2048)
        t0 = time.time()
        n_triples = triples.count()
        elapsed = time.time() - t0
        best = elapsed if best is None else min(best, elapsed)
    return {
        "docs": n_docs,
        "triples": n_triples,
        "sec": round(best, 3),
        "docs_per_sec": round(n_docs / best, 1),
    }


def kg_graph_headline(sf_dir: str, num_cpus: int, replicate: int) -> dict:
    """End-to-end graph job: annotate -> per-batch combiner -> (repo,lang)
    merge shuffle -> partitioned parquet sink.  This is the scaling
    evidence for the SHUFFLE half of the engine — kg_headline covers the
    embarrassingly-parallel map stage; this covers dedup_triples'
    exchange and materialize_graph's grouped sink."""
    import shutil
    import tempfile

    import pyarrow.parquet as pq

    from deduce_ray.rayops.annotate import broadcast_lexicon, extract_triples
    from deduce_ray.rayops.kg import materialize_graph

    lexicon_ref = broadcast_lexicon()
    n_docs = (
        pq.ParquetFile(f"{sf_dir}/documents.parquet").metadata.num_rows * replicate
    )

    # warm worker pool + engines (same rationale and batch size as
    # kg_headline: small tasks so every worker builds its engine here)
    extract_triples(
        _replicated_repo_table(sf_dir, 1),
        lexicon_ref=lexicon_ref,
        batch_size=128,
    ).count()

    out_dir = tempfile.mkdtemp(prefix="bench_graph_")
    try:
        repo = _replicated_repo_table(sf_dir, replicate)
        triples = extract_triples(repo, lexicon_ref=lexicon_ref, batch_size=2048)
        t0 = time.time()
        metrics = materialize_graph(triples, out_dir, resume=False)
        n_units = metrics.count()
        elapsed = time.time() - t0
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    return {
        "docs": n_docs,
        "units": n_units,
        "sec": round(elapsed, 3),
        "docs_per_sec": round(n_docs / elapsed, 1),
    }


def run_suite(sf_dir: str, num_cpus: int) -> dict:
    import __ray_entry__ as entry

    from deduce_ray.rayops.kg import dedup_triples

    timings: dict[str, float] = {}
    extras: dict = {}

    _warm_pool(num_cpus)

    def timed(name, fn):
        import gc

        t0 = time.time()
        result = fn()
        # force execution for lazy datasets
        if hasattr(result, "count"):
            extras[f"{name}_rows"] = result.count()
        else:
            extras[f"{name}_rows"] = len(result)
        timings[name] = round(time.time() - t0, 3)
        # drop the dataset reference and collect BEFORE the next query so
        # its materialized blocks leave the object store (otherwise later
        # shuffle-heavy queries inherit avoidable store pressure)
        del result
        gc.collect()

    head = kg_headline(sf_dir, num_cpus, KG_REPLICATE)
    timings["kg_annotate"] = head["sec"]
    extras["kg_docs"] = head["docs"]
    extras["kg_docs_per_sec"] = head["docs_per_sec"]

    queries = entry.queries()
    # kg_graph and kg_entities were retired from the 50-query registry
    # (corpus_mix / decontaminate took their slots) but stay bench lines
    # for cross-round comparison — call the implementations directly
    timed("kg_graph", lambda: entry._q_kg_graph(sf_dir))
    timed("kg_entities", lambda: entry._q_kg_entities(sf_dir))
    def _pagerank_default():
        # the registered query forces the distributed rounds (so the
        # scale path is the one value-checked vs DuckDB); bench times
        # the DEFAULT configuration — bounded driver fast path for
        # small graphs, distributed rounds above driver_max_arcs —
        # i.e. what a user gets
        from deduce_ray.oracles import SQLPRED_ENABLED
        from deduce_ray.rayops.kg import cooccurrence_edges, pagerank

        return pagerank(
            cooccurrence_edges(
                entry._triples(sf_dir, enabled=set(SQLPRED_ENABLED))
            )
        )

    # added in round 4 session 6: KG analytics over the sqlpreds
    # co-occurrence graph (extraction + edge construction + PageRank)
    timed("kg_pagerank", _pagerank_default)
    timed("pricing_summary", lambda: queries["pricing_summary"](sf_dir))
    timed("top_customers", lambda: queries["top_customers"](sf_dir))
    timed("exact_dedup", lambda: queries["exact_dedup"](sf_dir))

    def _minhash_unplanted():
        # the registered minhash_pairs query now augments the corpus with
        # planted duplicates for its DuckDB oracle; bench keeps timing the
        # PLAIN scale-path op (identical invocation to earlier rounds) so
        # per-round numbers stay comparable
        from deduce_ray.corpus import read_parquet_sliced
        from deduce_ray.ops.dedup import minhash_lsh_pairs

        return minhash_lsh_pairs(
            read_parquet_sliced(
                f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
            ),
            threshold=0.5,
        )

    timed("minhash_pairs", _minhash_unplanted)
    # added this round: substring-level dedup (cross-doc duplicated
    # 13-gram spans) — new suite line, so bench_suite_sec grows by its
    # cost relative to earlier rounds (per-query lines stay comparable)
    timed("dup_spans", lambda: queries["dup_spans"](sf_dir))
    timed("simhash_pairs", lambda: queries["simhash_pairs"](sf_dir))
    timed("minhash_clusters", lambda: queries["minhash_clusters"](sf_dir))
    timed("embedding_neardup", lambda: queries["embedding_neardup"](sf_dir))
    timed("brand_volume", lambda: queries["brand_volume"](sf_dir))
    timed("ann_topk", lambda: queries["ann_topk"](sf_dir))
    timed("doc_quality", lambda: queries["doc_quality"](sf_dir))
    timed("doc_token_counts", lambda: queries["doc_token_counts"](sf_dir))

    return {"timings": timings, "extras": extras}


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--sf-dir", default=DEFAULT_SF_DIR)
    parser.add_argument("--cpus", type=int, default=DEFAULT_CPUS)
    parser.add_argument("--kg-only", action="store_true")
    parser.add_argument("--graph-only", action="store_true")
    parser.add_argument("--dupspans-only", action="store_true")
    parser.add_argument("--scaling", action="store_true")
    parser.add_argument(
        "--scaling-job",
        choices=("annotate", "graph", "dupspans"),
        default="annotate",
        help="which headline the --scaling pair measures: the "
        "embarrassingly-parallel annotate stage, the end-to-end graph "
        "job (annotate -> combiner -> (repo,lang) merge shuffle -> "
        "partitioned sink) whose exchange is the skeptics' question, or "
        "the substring-dedup job (corpus-wide constant-width gram "
        "exchange + two sharded groupbys)",
    )
    args = parser.parse_args()

    if args.scaling:
        run_scaling(args)
        return

    import ray

    from deduce_ray.raytune import tune_data_context

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=args.cpus,
            include_dashboard=False,
            log_to_driver=False,
        )
    tune_data_context()

    if args.kg_only or args.graph_only or args.dupspans_only:
        if args.dupspans_only:
            headline = dup_spans_headline
        elif args.graph_only:
            headline = kg_graph_headline
        else:
            headline = kg_headline
        _warm_pool(args.cpus)
        ticks0 = _cpu_ticks()
        result = headline(args.sf_dir, args.cpus, KG_REPLICATE)
        window = _cpu_window(ticks0, _cpu_ticks())
        print(json.dumps({**result, "num_cpus": args.cpus, **window}))
        ray.shutdown()
        return

    ticks0 = _cpu_ticks()
    suite = run_suite(args.sf_dir, args.cpus)
    window = _cpu_window(ticks0, _cpu_ticks())
    # this host is co-tenant contended (same code measures 46 s at 2%
    # steal and 91 s at 24%): if the hypervisor stole a material share of
    # the window, re-run ONCE and keep the cleaner measurement — both
    # steal values are disclosed in the JSON so the retry is auditable
    retry_at = float(os.environ.get("BENCH_STEAL_RETRY_PCT", "8"))
    if window.get("steal_pct", 0.0) > retry_at:
        ticks1 = _cpu_ticks()
        suite2 = run_suite(args.sf_dir, args.cpus)
        window2 = _cpu_window(ticks1, _cpu_ticks())
        if window2.get("steal_pct", 100.0) < window["steal_pct"]:
            window2["retried_from_steal_pct"] = window["steal_pct"]
            suite, window = suite2, window2
        else:
            window["retry_steal_pct"] = window2.get("steal_pct")
    total = round(sum(suite["timings"].values()), 3)
    print(
        json.dumps(
            {
                "metric": "bench_suite_sec",
                "value": total,
                "unit": "sec",
                "queries": suite["timings"],
                "sf": _sf_of(args.sf_dir),
                "num_cpus": args.cpus,
                "kg_docs_per_sec": suite["extras"]["kg_docs_per_sec"],
                "kg_docs": suite["extras"]["kg_docs"],
                **window,
            }
        )
    )
    ray.shutdown()


SCALE_CPUS = tuple(
    int(x) for x in os.environ.get("SCALE_CPUS", "6,24").split(",")
)


def run_scaling(args) -> None:
    """Same job, same input, fresh processes at N and 4N CPUs.

    Default pair is 6 -> 24 because this sandbox advertises 32 logical CPUs
    but sustains ~24 hardware threads (measured with a multiprocessing
    burn); 8 -> 32 would measure the hardware ceiling, not the engine's
    scaling.  Override with SCALE_CPUS=8,32.
    """
    # larger corpus than the default suite so fixed startup cost doesn't
    # dilute the high-parallelism run.  The sandbox shares hardware with
    # co-tenants and throughput swings +-30% over minutes, so the two
    # levels are run ALTERNATELY in fresh processes and the best time per
    # level is kept — temporal noise then degrades both levels together
    # instead of biasing the ratio.
    job = getattr(args, "scaling_job", "annotate")
    if "KG_REPLICATE" not in os.environ:
        # the graph job runs the full annotate + shuffle + sink chain, so
        # a smaller corpus reaches the same wall-time per leg; the
        # dupspans exchange is cheaper per doc, so it replicates more
        os.environ["KG_REPLICATE"] = {
            "annotate": "160",
            "graph": "64",
            "dupspans": "192",
        }[job]
    trials = int(os.environ.get("SCALE_TRIALS", "2"))

    def one_run(cpus: int) -> dict:
        proc = subprocess.run(
            [
                sys.executable,
                __file__,
                {
                    "annotate": "--kg-only",
                    "graph": "--graph-only",
                    "dupspans": "--dupspans-only",
                }[job],
                "--sf-dir",
                args.sf_dir,
                "--cpus",
                str(cpus),
            ],
            capture_output=True,
            text=True,
            check=False,
            env={**os.environ, "RAY_GRAFT_CPUS": str(cpus)},
        )
        line = [ln for ln in proc.stdout.splitlines() if ln.startswith("{")][-1]
        return json.loads(line)

    results = {}
    for _ in range(trials):
        for cpus in SCALE_CPUS:
            run = one_run(cpus)
            best = results.get(cpus)
            if best is None or run["sec"] < best["sec"]:
                results[cpus] = run

    lo, hi = SCALE_CPUS
    tput_lo = results[lo]["docs_per_sec"]
    tput_hi = results[hi]["docs_per_sec"]
    efficiency = round(tput_hi / ((hi / lo) * tput_lo), 3)
    stage = {
        "annotate": "kg_annotate",
        "graph": "kg_graph_e2e",
        "dupspans": "dup_spans",
    }[job]
    out = {
        "metric": f"{stage}_scaling_efficiency",
        "value": efficiency,
        "unit": "ratio",
        "queries": {
            f"{stage}_{lo}cpu_sec": results[lo]["sec"],
            f"{stage}_{hi}cpu_sec": results[hi]["sec"],
        },
        "sf": _sf_of(args.sf_dir),
        "num_cpus": hi,
        "docs": results[hi]["docs"],
        f"docs_per_sec_{lo}cpu": tput_lo,
        f"docs_per_sec_{hi}cpu": tput_hi,
        f"steal_pct_{lo}cpu": results[lo].get("steal_pct"),
        f"steal_pct_{hi}cpu": results[hi].get("steal_pct"),
    }
    print(json.dumps(out))

    baseline = Path(__file__).parent / "BASELINE.md"
    if baseline.exists():
        # APPEND one disclosure line under a per-job marker — never
        # replace the section: the multi-run table with per-leg steal is
        # the honest scaling evidence and must survive later runs
        text = baseline.read_text()
        marker = f"<!-- scaling-runs:{stage} -->"
        line = (
            f"- {stage}: {lo}cpu {tput_lo} docs/s "
            f"(steal {results[lo].get('steal_pct')}%) vs {hi}cpu "
            f"{tput_hi} docs/s (steal {results[hi].get('steal_pct')}%), "
            f"{results[hi]['docs']} docs -> efficiency **{efficiency}**\n"
        )
        if marker in text:
            head, _, rest = text.partition(marker)
            text = head + marker + "\n" + line + rest.lstrip("\n")
        else:
            text = (
                text.rstrip("\n")
                + f"\n\n## Measured scaling, {stage} (appended runs)\n\n"
                + marker
                + "\n"
                + line
            )
        baseline.write_text(text)


if __name__ == "__main__":
    main()
