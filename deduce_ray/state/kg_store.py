"""Incremental KG state: persist each ingest's co-occurrence edge
aggregate so a new corpus batch updates the graph WITHOUT re-annotating
the world — the cross-run counterpart of
:func:`deduce_ray.rayops.kg.cooccurrence_edges` (the annotate pass is
the dominant cost at scale; edges are its tiny additive summary).

Additivity contract: co-occurrence ``n_docs`` counts documents, so edge
tables from DISJOINT document batches sum to exactly the union-corpus
edge table.  The caller owns disjointness (the incremental dedup stores
are the standard upstream: state/dedup_store.py drops already-ingested
docs).  Ingesting the same documents twice double-counts, like any
additive aggregate.

Layout (the repo's state-store conventions — commit manifests make
crashed ingests invisible, re-running a committed label is refused):

    store_dir/
      _meta.json                 {"version": 1}
      _ingests/<label>.json      commit manifest per completed ingest
      edges/<label>/*.parquet    that ingest's aggregated edge table
                                 (pred_a, obj_a, pred_b, obj_b, n_docs)

Scale shape: an ingest writes ONLY its own batch's aggregated edges
(bounded by distinct co-occurring pairs, not by corpus size); reading
merges committed edge tables with one edge-key groupby-sum — a narrow
5-column exchange, never the corpora.  PageRank / components / LPA then
run over the merged edges exactly as in the from-scratch path, so
batch-N results equal a from-scratch run over the union corpus
(pinned by tests/test_kg_store.py and the analyze --state-dir CLI
test).

Reference anchor: the reference engine has no cross-run state
(/root/reference/deduce/deduce.py, one text per call); this module is
target-tier training-pipeline surface like state/dedup_store.py.
"""

from __future__ import annotations

import json
import os

from deduce_ray.state.base import atomic_write_json


class KGStore:
    def __init__(self, store_dir: str) -> None:
        self.store_dir = store_dir
        meta_path = os.path.join(store_dir, "_meta.json")
        if os.path.exists(meta_path):
            with open(meta_path, encoding="utf-8") as f:
                meta = json.load(f)
            if meta.get("version") != 1:
                raise ValueError(
                    f"unsupported kg store version {meta.get('version')!r}"
                )
        else:
            os.makedirs(os.path.join(store_dir, "_ingests"), exist_ok=True)
            os.makedirs(os.path.join(store_dir, "edges"), exist_ok=True)
            atomic_write_json(meta_path, {"version": 1})

    # -- manifests ---------------------------------------------------------

    def committed_labels(self) -> list[str]:
        d = os.path.join(self.store_dir, "_ingests")
        return sorted(
            name[: -len(".json")]
            for name in os.listdir(d)
            if name.endswith(".json")
        )

    def _manifest_path(self, label: str) -> str:
        if not label or "/" in label or label.startswith("."):
            raise ValueError(f"bad ingest label {label!r}")
        return os.path.join(self.store_dir, "_ingests", f"{label}.json")

    # -- write -------------------------------------------------------------

    def ingest_edges(self, label: str, edges_ds) -> dict:
        """Persist one batch's aggregated edge table under ``label`` and
        commit.  A crashed run leaves only an uncommitted ``edges/<label>/``
        directory, which every reader ignores; re-running the same
        uncommitted label overwrites it deterministically.  Re-ingesting
        a COMMITTED label is refused (resume-refusal convention)."""
        if os.path.exists(self._manifest_path(label)):
            raise ValueError(
                f"ingest label {label!r} is already committed; "
                f"each batch needs a fresh label"
            )
        edge_dir = os.path.join(self.store_dir, "edges", label)
        if os.path.exists(edge_dir):
            # uncommitted leftover from a crash: rebuild deterministically
            import shutil

            shutil.rmtree(edge_dir)
        edges_ds.write_parquet(edge_dir)
        import pyarrow.dataset as pads

        files = [
            os.path.join(edge_dir, f)
            for f in os.listdir(edge_dir)
            if f.endswith(".parquet")
        ]
        # an edge-free batch (e.g. every doc yields < 2 mentions) may
        # write zero files; its manifest still commits so the label is
        # spent and later merges skip it
        n_edges = pads.dataset(files).count_rows() if files else 0
        manifest = {"label": label, "n_edges": int(n_edges)}
        atomic_write_json(self._manifest_path(label), manifest)
        return manifest

    # -- read --------------------------------------------------------------

    def merged_edges(self):
        """One edge table over every COMMITTED ingest: read the per-label
        parquet, merge-sum ``n_docs`` on the edge key (the narrow edge-sum
        exchange that :func:`deduce_ray.rayops.kg.cooccurrence_edges`
        ends with).  Returns None when the store has no committed
        ingests."""
        import ray.data

        from deduce_ray.rayops.kg import sum_edges

        labels = self.committed_labels()
        if not labels:
            return None
        # expand to concrete files: ray.data.read_parquet accepts one
        # directory fine but not a LIST of directories
        paths = sorted(
            os.path.join(d, name)
            for label in labels
            for d in [os.path.join(self.store_dir, "edges", label)]
            if os.path.isdir(d)
            for name in os.listdir(d)
            if name.endswith(".parquet")
        )
        if not paths:
            # every committed ingest was edge-free: an empty dataset
            # with the edge schema keeps downstream analytics total
            import pyarrow as pa

            return ray.data.from_arrow(
                pa.table(
                    {
                        "pred_a": pa.array([], type=pa.string()),
                        "obj_a": pa.array([], type=pa.string()),
                        "pred_b": pa.array([], type=pa.string()),
                        "obj_b": pa.array([], type=pa.string()),
                        "n_docs": pa.array([], type=pa.int64()),
                    }
                )
            )
        ds = ray.data.read_parquet(paths)
        if len(labels) == 1:
            # single ingest: its table is already aggregated
            return ds
        return sum_edges(ds)
