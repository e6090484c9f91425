#!/usr/bin/env python3
"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload kg_extract --seed 1 --seconds 20 --trace 0

Run it from the repository root.  It generates the inputs from the seed,
runs the job through the program's public entry points in whole rounds
until ``--seconds`` have passed, checks the outputs against the planted
ground truth, and prints one JSON object as the last line of stdout:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Generated files (the synthetic lookup tree and its
compiled cache, inputs, outputs, Ray's session directory, span files)
live under ``.bench_build/perfbench`` in the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_build" / "perfbench"
LEXICON_SEED = 7  # the lookup tree is fixed; the inputs follow --seed
OBJECT_STORE_MB = 400
AF_UNIX_MAX = 107

END_TO_END = {
    "docs_per_s": "docs/s",
    "setup_s": "s",
    "first_output_s": "s",
    "peak_rss_mb": "MB",
}


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric, (name, unit), in BENCHMARK.json order."""
    sys.path.insert(0, str(ROOT))
    from deduce_ray.config import default_config

    from perfbench.measure import OPERATOR_FIELDS, OPERATOR_KINDS
    from perfbench.workloads import PROCESSORS

    names = [
        ("lexicon.broadcast_s", "s"), ("lexicon.broadcast_mb", "MB"),
        ("engine.init_s", "s"), ("engine.docs_per_s", "docs/s"),
        ("tokenizer.busy_s", "s"),
    ]
    names += [(f"annotators.{n}.busy_s", "s") for n in default_config()["annotators"]]
    names += [(f"processors.{n}.busy_s", "s") for n in PROCESSORS]
    names += [
        ("linker.busy_s", "s"), ("sources.read_s", "s"),
        ("rayops.annotate.busy_s", "s"), ("rayops.annotate.rows_out", "rows"),
        ("rayops.kg.hot_keys_s", "s"), ("rayops.kg.dedup_s", "s"), ("rayops.kg.graph_rows", "rows"),
        ("rayops.kg.sink_s", "s"), ("rayops.kg.units", "files"), ("rayops.kg.output_mb", "MB"),
        ("rayops.kg.cooccurrence_s", "s"), ("rayops.kg.edges", "rows"),
        ("state.kg_store.ingest_s", "s"), ("state.kg_store.merge_s", "s"),
        ("rayops.kg.pagerank_s", "s"), ("rayops.kg.components_s", "s"),
        ("ops.funnel.filter_s", "s"), ("ops.dedup.exact_s", "s"),
        ("ops.substring.strip_s", "s"), ("ops.dedup.minhash_s", "s"),
        ("ops.dedup.minhash_candidates", "pairs"), ("ops.dedup.minhash_pairs", "pairs"),
        ("sinks.write_s", "s"), ("sinks.output_mb", "MB"),
    ]
    units = {"wall_s": "s", "cpu_s": "s", "rows_out": "rows", "bytes_out": "bytes"}
    names += [
        (f"raydata.{kind}.{field}", units[field])
        for kind in OPERATOR_KINDS for field in OPERATOR_FIELDS
    ]
    names += [("raydata.spilled_mb", "MB"), ("trace.overhead_pct", "%"), ("host.steal_pct", "%")]
    return names


def boottime() -> float:
    return time.clock_gettime(time.CLOCK_BOOTTIME)


def process_start_boottime() -> float:
    """This process's start on :func:`boottime`'s clock, from /proc
    (clock-tick resolution, no offset from the epoch)."""
    with open("/proc/self/stat") as fh:
        start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
    return start_ticks / os.sysconf("SC_CLK_TCK")


def ensure_lexicon(scale: float) -> Path:
    """Generate and compile the synthetic lookup tree once per checkout,
    in a child process so its memory never counts toward a run."""
    import hashlib

    # keyed on the generator's source, so an edited generator rebuilds
    source = hashlib.sha256((ROOT / "perfbench" / "lexgen.py").read_bytes()).hexdigest()[:12]
    lexdir = WORK / f"lexicon-{source}-s{LEXICON_SEED}-x{scale:g}"
    if (lexdir / "ready").exists():
        # the program's cache key (its version, cache format, the tree's
        # fingerprint) can change under an unchanged generator: load the
        # artifact the program would load, recompiling it when stale
        subprocess.run(
            [sys.executable, "-c",
             "import sys; from deduce_ray.lexicon import load_or_build_lexicon; "
             "load_or_build_lexicon(sys.argv[1], cache_dir=sys.argv[2])",
             str(lexdir / "tree"), str(lexdir / "cache")],
            cwd=ROOT, check=True, stdout=sys.stderr,
        )
        return lexdir
    tmp = lexdir.with_name(lexdir.name + f".tmp{os.getpid()}")
    shutil.rmtree(tmp, ignore_errors=True)
    subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "lexgen.py"), str(tmp / "tree"),
         "--seed", str(LEXICON_SEED), "--scale", str(scale), "--compile", str(tmp / "cache")],
        cwd=ROOT, check=True, stdout=sys.stderr,
    )
    (tmp / "ready").touch()
    shutil.rmtree(lexdir, ignore_errors=True)
    os.replace(tmp, lexdir)
    return lexdir


def start_ray() -> None:
    import ray

    kwargs = dict(
        # the CPUs this process may use (nproc can report fewer: it
        # honours OMP_NUM_THREADS)
        num_cpus=len(os.sched_getaffinity(0)),
        include_dashboard=False,
        log_to_driver=False,
        object_store_memory=OBJECT_STORE_MB * 2**20,
    )
    # Ray's session directory (sockets, logs, spill files) stays in the
    # checkout unless the path is too long for a unix socket
    temp = WORK / "ray"
    socket = temp / "session_2026-01-01_00-00-00_000000_0000000" / "sockets" / "plasma_store"
    if len(str(socket)) <= AF_UNIX_MAX:
        temp.mkdir(parents=True, exist_ok=True)
        kwargs["_temp_dir"] = str(temp)
    ray.init(address="local", **kwargs)


def main() -> int:
    proc_start = process_start_boottime()
    ap = argparse.ArgumentParser(description="deduce_ray benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--docs", type=int, default=None, help="documents per job (default: the workload's)")
    ap.add_argument("--lexicon-scale", type=float, default=1.0, help="lookup list sizes relative to the reference's")
    args = ap.parse_args()

    os.environ["RAY_USAGE_STATS_ENABLED"] = "0"  # never report to a remote host
    os.environ.setdefault("RAY_DATA_DISABLE_PROGRESS_BARS", "1")
    os.chdir(ROOT)  # Ray workers import deduce_ray from the driver's directory
    sys.path.insert(0, str(ROOT))
    import deduce_ray  # noqa: F401  (fails fast outside a checkout)

    from perfbench.measure import PeakSampler, Tracer, cpu_ticks, wait_children_gone
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    cls = WORKLOADS[args.workload]

    excluded = 0.0  # one-time lexicon generation + compile: not set-up
    lexdir = None
    if cls.needs_lexicon:
        t0 = boottime()
        lexdir = ensure_lexicon(args.lexicon_scale)
        excluded = boottime() - t0

    run_dir = WORK / "runs" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    wl = cls(run_dir, lexdir, args.seed, args.docs)

    import ray

    try:
        from deduce_ray.raytune import tune_data_context

        start_ray()
        tune_data_context()
        wl.setup()
        setup_s = boottime() - proc_start - excluded

        wl.make_inputs()
        wl.prepare()

        walls, firsts = [], []
        steal0, ticks0 = cpu_ticks()
        t_begin = time.monotonic()
        with PeakSampler() as sampler:
            while True:
                out = run_dir / f"out{len(walls)}"
                wall, first = wl.round(out)
                walls.append(wall)
                firsts.append(first)
                if time.monotonic() - t_begin >= args.seconds:
                    break
                shutil.rmtree(out)
        steal1, ticks1 = cpu_ticks()
        steal_pct = 100.0 * (steal1 - steal0) / max(1, ticks1 - ticks0)
        errors = wl.check(out)

        # the fastest round: the host's speed drifts over stretches of
        # 10-20 s (steal bursts among them), and the fastest round is the
        # one the drift touched least
        docs_per_s = wl.n_docs / min(walls)
        if args.trace:
            tracer = Tracer()
            layer = dict.fromkeys((n for n, _ in per_layer_names()), 0.0)
            layer.update(wl.layer)
            layer.update(wl.trace(tracer, run_dir / "traced"))
            layer["host.steal_pct"] = steal_pct
            if cls.needs_lexicon:
                layer["lexicon.broadcast_mb"] = broadcast_mb(wl)
            if getattr(wl, "engine_mismatches", 0):
                errors.append(f"the engine walk differs from deidentify on {wl.engine_mismatches} documents")
            layer["trace.overhead_pct"] = 100.0 * (docs_per_s / wl.traced_docs_per_s - 1.0)
            tracer.write(WORK / "traces" / f"{args.workload}-{args.seed}.json")
            metrics = {n: {"value": layer[n], "unit": u} for n, u in per_layer_names()}
        else:
            values = {
                "docs_per_s": docs_per_s,
                "setup_s": setup_s,
                "first_output_s": min(firsts),
                "peak_rss_mb": sampler.peak,
            }
            metrics = {n: {"value": values[n], "unit": u} for n, u in END_TO_END.items()}
    finally:
        ray.shutdown()
    left = wait_children_gone()
    if left:
        print(f"processes still running after shutdown: {left}", file=sys.stderr)
        errors.append("Ray processes outlived the run")
    shutil.rmtree(run_dir, ignore_errors=True)
    for session in (WORK / "ray").glob(f"session_*_{os.getpid()}"):
        shutil.rmtree(session, ignore_errors=True)

    for e in errors:
        print(f"CHECK FAILED: {e}", file=sys.stderr)
    print(
        f"{args.workload} seed={args.seed}: {len(walls)} rounds of {wl.n_docs} docs, "
        f"walls {[round(w, 3) for w in walls]}, steal {steal_pct:.2f}%, "
        f"pss samples {sampler.samples}",
        file=sys.stderr,
    )
    print(json.dumps({
        "correct": not errors,
        "attempted": len(walls) * wl.n_docs,
        "failed": 0,
        "metrics": metrics,
    }))
    return 0


def broadcast_mb(wl) -> float:
    """Pickled size of the lexicon subset the enabled stages receive."""
    import pickle

    import ray

    from deduce_ray.rayops.annotate import lexicon_ref_for

    return len(pickle.dumps(ray.get(lexicon_ref_for(wl.ref, enabled=wl.mask)), protocol=5)) / 2**20


if __name__ == "__main__":
    sys.exit(main())
