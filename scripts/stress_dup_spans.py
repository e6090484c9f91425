"""Adversarial stress for substring dedup: mass-duplicated boilerplate.

The pathological input for any LSH/all-pairs design — N documents
sharing one verbatim header — is LINEAR here by construction: a hot
gram contributes one (hash, doc, pos) row per occurrence, each hash
partition decides its grams with one sort, and span emission is one row
per document.  This script proves it: 1M docs, 200k of which share a
40-word license header (plus unique bodies), a ~63M-row gram exchange,
must yield exactly one (doc, 0, 40) span per header document.  It
prints the wall time and the driver's peak RSS.

Run: python scripts/stress_dup_spans.py [n_docs] [n_dup] [num_cpus]
"""

from __future__ import annotations

import os
import resource
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def main() -> None:
    n_docs = int(sys.argv[1]) if len(sys.argv) > 1 else 1_000_000
    n_dup = int(sys.argv[2]) if len(sys.argv) > 2 else 200_000
    num_cpus = int(sys.argv[3]) if len(sys.argv) > 3 else 32

    import numpy as np
    import pyarrow as pa
    import ray

    from deduce_ray.raytune import tune_data_context

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=num_cpus, include_dashboard=False)
    tune_data_context()

    header = " ".join(f"license{i} term{i}" for i in range(20))  # 40 words

    def make_docs(batch: pa.Table) -> pa.Table:
        ids = batch.column("id").to_numpy()
        texts = []
        for i in ids:
            body = " ".join(f"u{i}w{j}" for j in range(30))
            if i < n_dup:
                texts.append(header + " " + body)
            else:
                texts.append(body)
        return pa.table({"doc_id": pa.array(ids, type=pa.int64()),
                         "text": pa.array(texts, type=pa.string())})

    from deduce_ray.ops.substring import duplicated_ngram_spans

    docs = ray.data.range(n_docs).map_batches(
        make_docs, batch_format="pyarrow", batch_size=32_768
    )
    t0 = time.time()
    spans = duplicated_ngram_spans(docs, n=13)
    n_spans = spans.count()
    dt = time.time() - t0
    # exact: one span per header-carrying document, covering exactly the
    # 40 header words (every window that reaches a body word is unique)
    seen = np.zeros(n_dup, dtype=bool)
    for b in spans.iter_batches(batch_format="pyarrow"):
        doc = b.column("doc_id").to_numpy()
        assert ((doc >= 0) & (doc < n_dup)).all(), "span outside the header docs"
        assert (b.column("start_word").to_numpy() == 0).all(), "span start != 0"
        assert (b.column("end_word").to_numpy() == 40).all(), "span end != 40"
        seen[doc] = True
    assert n_spans == n_dup and seen.all(), f"expected {n_dup} span rows, got {n_spans}"
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(
        f"dup_spans stress: {n_docs} docs ({n_dup} sharing a 40-word "
        f"header) -> {n_spans} exact spans in {dt:.1f}s "
        f"({n_docs / dt:.0f} docs/s), driver peak RSS {peak_mb:.0f} MB"
    )
    ray.shutdown()


if __name__ == "__main__":
    main()
