"""Planted-cluster stress for cross-document entity canonicalization
(deduce_ray.rayops.kg.canonicalize_entities).

Plants N clusters, one per random 12-letter base word, spread over four
predicates: the base with 3 mentions (one of them capitalized, so the
lowercasing is exercised), a one-letter substitution and a one-letter
deletion with 1 mention each.  Both variants are within
Damerau-Levenshtein distance 1 of their base, and random bases are
almost surely far apart, so the exact answer is known: every form's
canonical is its base.  The script checks that for all 3N forms, with
their mention counts, and prints the wall time and the driver's peak
RSS (the driver holds O(distinct forms) arrays).

Run: python scripts/stress_canonicalize.py [n_clusters] [num_cpus]
Defaults: 100_000 clusters (300k forms, 500k mentions), 4 CPUs.
"""

from __future__ import annotations

import os
import resource
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

PREDS = ["locatie", "persoon", "instelling", "ziekenhuis"]


def plant(n: int, seed: int = 17):
    """(pred, obj) mention columns and the expected {(pred, form): (base,
    n_mentions)}."""
    import numpy as np

    rng = np.random.default_rng(seed)
    letters = rng.integers(0, 26, size=(n, 12), dtype=np.uint8)
    sub = letters.copy()
    pos = rng.integers(0, 12, size=n)
    rows = np.arange(n)
    sub[rows, pos] = (sub[rows, pos] + rng.integers(1, 26, size=n, dtype=np.uint8)) % 26
    cut = rng.integers(0, 12, size=n)

    def words(codes) -> list[str]:
        return ["".join(chr(97 + c) for c in w) for w in codes.tolist()]

    bases, subs = words(letters), words(sub)
    dels = [b[:k] + b[k + 1 :] for b, k in zip(bases, cut.tolist())]
    want: dict = {}
    pred_col, obj_col = [], []
    for i, (base, s, d) in enumerate(zip(bases, subs, dels)):
        pred = PREDS[i % len(PREDS)]
        for form, mentions in ((base, 3), (s, 1), (d, 1)):
            if (pred, form) in want:
                raise SystemExit(f"planted forms collide at {pred}/{form}; pick another seed")
            want[(pred, form)] = (base, mentions)
        pred_col += [pred] * 5
        obj_col += [base, base, base.capitalize(), s, d]
    return pred_col, obj_col, want


def main() -> int:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 100_000
    num_cpus = int(sys.argv[2]) if len(sys.argv) > 2 else 4

    import pyarrow as pa
    import ray
    import ray.data

    pred_col, obj_col, want = plant(n)
    table = pa.table({"pred": pred_col, "obj": obj_col})
    del pred_col, obj_col
    ray.init(address="local", num_cpus=num_cpus, include_dashboard=False, log_to_driver=False)
    from deduce_ray.raytune import tune_data_context

    tune_data_context()
    from deduce_ray.rayops.kg import canonicalize_entities

    ds = ray.data.from_arrow([table.slice(i, 65536) for i in range(0, table.num_rows, 65536)])
    t0 = time.time()
    # pull columnar: take_all() builds a dict per row, ~1 ms each on a
    # pandas block, which would dwarf the operator on 300k rows
    out = canonicalize_entities(ds).materialize()
    rows = pa.concat_tables(
        [b for b in ray.get(out.to_arrow_refs()) if b.num_rows], promote_options="permissive"
    )
    dt = time.time() - t0
    cols = (rows.column(c).to_pylist() for c in ("pred", "obj_norm", "canonical", "n_mentions"))
    got = {(p, f): (c, n) for p, f, c, n in zip(*cols)}
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    wrong = [key for key, value in want.items() if got.get(key) != value]
    extra = len(got.keys() - want.keys())
    print(
        f"{n} clusters, {len(want)} forms, {table.num_rows} mentions: "
        f"{dt:.1f} s, driver peak RSS {peak_mb:.0f} MB"
    )
    if wrong or extra:
        print(f"FAIL: {len(wrong)} forms with a wrong canonical or count, {extra} unexpected forms")
        for key in wrong[:5]:
            print(f"  {key}: got {got.get(key)}, want {want[key]}")
        return 1
    print("OK: every form's canonical is its planted base")
    return 0


if __name__ == "__main__":
    sys.exit(main())
