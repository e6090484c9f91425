"""Build a full adversarial scale-factor directory for the oracle sweep.

The adversarial-hardening campaign (SURVEY 8.15) ran per-family sweeps by
hand-building tmp tables inside tests.  This script systematizes the
technique: it takes the deterministic sf0.001 base (valid FK structure,
real text distribution) and appends *tier-1* pathological rows to every
table — values the synthetic testdata never produces but real corpora do:

  - NULLs in every nullable position (keys, measures, timestamps, text,
    JSON, embeddings, labels)
  - unicode hazards (Turkish dotted/dotless I, Greek final sigma, sharp s,
    emoji, combining marks, CRLF, vertical tab, NUL, BOM)
  - numeric extremes (9e13 money — within the integer-cents contract;
    the contract BOUNDARY itself is a pinned expect-raise test —
    negative quantities, discount > 1, far-future and pre-epoch
    timestamps)
  - duplicate primary keys and dangling foreign keys
  - degenerate embeddings (zero vector, +-1e20 components, -0.0)
  - exact-duplicate texts, whitespace-only and 4-space-token documents,
    one long repeated-phrase document, a negative doc_id
  - NUL-twin group keys: a key and the same key plus ``"\\x00x"``
    (``"R"`` / ``"R\\x00x"``) in the string columns the grouped queries
    key on (``l_returnflag``/``l_linestatus``, ``event_type``, ``p_brand``
    via lineitem, ``r_name`` via customer).  They are PREPENDED, so they
    land in a null-free first block: a merge that hashes a string only up
    to its first NUL folds the twins into one group

Everything stays *within schema AND contract* (tier 1): list lengths
match the base embedding dim, ids unique per table where an op requires
it.  Shape/contract-breaking rows (wrong-dim vectors, NULL list
elements, duplicate doc_ids for the pair-emitting dedup ops) are tier
2, opt-in via --shape-breakers, because they are contract probes rather
than silent-divergence hunts.

Usage: python scripts/make_adversarial_sf.py [out_dir] [--shape-breakers]
           [--base /root/testdata/sf0.01]
Then:  python scripts/check_oracles.py <out_dir>

Deterministic: no RNG at all — every injected row is a literal.
"""

from __future__ import annotations

import os
import sys

import pyarrow as pa
import pyarrow.parquet as pq

BASE = "/root/testdata/sf0.001"

# unicode specials shared across text columns
U_TURKISH = "İstanbul ıssız TITLE"         # İ lower→i̇ (len grows), ı upper→I
U_SIGMA = "Οδυσσεύς ΟΔΥΣΣΕΥΣ"              # final sigma vs capital
U_SHARP = "Straße STRASSE"                  # ß upper→SS
U_EMOJI = "good \U0001F600 text \U0001F680 rocket"
U_COMBINING = "café naïve résumé"
U_CTRL = "before\x00after\x0bvtab\x0cff"
U_BOM = "﻿bom-prefixed text"
# suffix that makes a key's NUL twin: equal to the key up to the NUL
NUL_TWIN = "\x00x"


def _append(table: pa.Table, rows: list[dict]) -> pa.Table:
    """Append literal rows to ``table`` keeping its exact schema."""
    cols = {name: [r.get(name) for r in rows] for name in table.column_names}
    extra = pa.table(
        {n: pa.array(cols[n], type=table.schema.field(n).type)
         for n in table.column_names}
    )
    return pa.concat_tables([table, extra])


def _prepend(table: pa.Table, rows: list[dict]) -> pa.Table:
    """Put literal rows in FRONT of ``table`` keeping its exact schema."""
    return pa.concat_tables([_append(table.slice(0, 0), rows), table])


def build(out_dir: str, shape_breakers: bool = False, base: str = BASE) -> None:
    os.makedirs(out_dir, exist_ok=True)
    t = {
        name: pq.read_table(f"{base}/{name}.parquet")
        for name in ["region", "nation", "customer", "supplier", "part",
                     "orders", "lineitem", "events", "documents",
                     "embeddings"]
    }

    t["region"] = _append(t["region"], [
        {"r_regionkey": 900, "r_name": None},
        {"r_regionkey": 901, "r_name": U_TURKISH},
    ])

    t["nation"] = _append(t["nation"], [
        {"n_nationkey": 900, "n_name": None, "n_regionkey": 0},
        {"n_nationkey": 901, "n_name": U_SHARP, "n_regionkey": 999},  # dangling
        {"n_nationkey": 902, "n_name": "NULLLAND", "n_regionkey": None},
    ])

    t["customer"] = _append(t["customer"], [
        {"c_custkey": 90001, "c_name": None, "c_nationkey": 0,
         "c_acctbal": 1.5, "c_mktsegment": "BUILDING"},
        {"c_custkey": 90002, "c_name": U_EMOJI, "c_nationkey": None,
         "c_acctbal": None, "c_mktsegment": None},
        {"c_custkey": 90003, "c_name": "Dangling Nation", "c_nationkey": 998,
         "c_acctbal": -1e9, "c_mktsegment": "AUTOMOBILE"},
        # duplicate primary key (same key as base row 1, different attrs)
        {"c_custkey": 1, "c_name": "Duplicate Key", "c_nationkey": 1,
         "c_acctbal": 0.0, "c_mktsegment": "MACHINERY"},
        {"c_custkey": None, "c_name": "Null Key", "c_nationkey": 2,
         "c_acctbal": 10.0, "c_mktsegment": "HOUSEHOLD"},
    ])

    t["supplier"] = _append(t["supplier"], [
        {"s_suppkey": 90001, "s_name": None, "s_nationkey": None,
         "s_acctbal": None},
        {"s_suppkey": 90002, "s_name": U_COMBINING, "s_nationkey": 997,
         "s_acctbal": 9e13},
    ])

    t["part"] = _append(t["part"], [
        {"p_partkey": 90001, "p_name": None, "p_brand": None, "p_type": None,
         "p_size": None, "p_retailprice": None},
        {"p_partkey": 90002, "p_name": U_SIGMA, "p_brand": "Brand#99",
         "p_type": "ECONOMY İ PLATED", "p_size": -5, "p_retailprice": 9e13},
        {"p_partkey": 90003, "p_name": "zero price", "p_brand": "Brand#98",
         "p_type": "STANDARD", "p_size": 0, "p_retailprice": 0.0},
    ])

    t["orders"] = _append(t["orders"], [
        {"o_orderkey": 900001, "o_custkey": None, "o_orderstatus": None,
         "o_totalprice": None, "o_orderdate": None, "o_orderpriority": None},
        {"o_orderkey": 900002, "o_custkey": 99999,  # dangling customer
         "o_orderstatus": "F", "o_totalprice": 9e13,
         "o_orderdate": 253402214400000000,  # 9999-12-31 (us)
         "o_orderpriority": "1-URGENT"},
        {"o_orderkey": 900003, "o_custkey": 1, "o_orderstatus": "O",
         "o_totalprice": -5.0,
         "o_orderdate": -2208988800000000,  # 1900-01-01 (us)
         "o_orderpriority": "5-LOW"},
        # duplicate orderkey
        {"o_orderkey": 900003, "o_custkey": 2, "o_orderstatus": "P",
         "o_totalprice": 3.25, "o_orderdate": 0,  # 1970-01-01
         "o_orderpriority": "3-MEDIUM"},
    ])

    t["lineitem"] = _append(t["lineitem"], [
        {"l_orderkey": 900001, "l_partkey": None, "l_suppkey": None,
         "l_linenumber": 1, "l_quantity": None, "l_extendedprice": None,
         "l_discount": None, "l_tax": None, "l_returnflag": None,
         "l_linestatus": None, "l_shipdate": None},
        {"l_orderkey": 900002, "l_partkey": 90002, "l_suppkey": 90002,
         "l_linenumber": 1, "l_quantity": -3.0, "l_extendedprice": 9e13,
         "l_discount": 1.5, "l_tax": -0.1, "l_returnflag": "R",
         "l_linestatus": "F", "l_shipdate": 253402214400000000},
        {"l_orderkey": 999999,  # dangling order
         "l_partkey": 99999, "l_suppkey": 99999, "l_linenumber": 1,
         "l_quantity": 0.0, "l_extendedprice": 0.0, "l_discount": 0.0,
         "l_tax": 0.0, "l_returnflag": "N", "l_linestatus": "O",
         "l_shipdate": -2208988800000000},
        {"l_orderkey": 900003, "l_partkey": 1, "l_suppkey": 1,
         "l_linenumber": None, "l_quantity": 1.0, "l_extendedprice": 2.5,
         "l_discount": 0.0, "l_tax": 0.0, "l_returnflag": "A",
         "l_linestatus": "F", "l_shipdate": 0},
    ])

    t["events"] = _append(t["events"], [
        {"event_id": 900001, "ts": None, "user_id": None, "event_type": None,
         "value": None, "props": None},
        {"event_id": 900002, "ts": 253402214400000000, "user_id": 7,
         "event_type": "click", "value": 9e13,
         "props": '{"k": "' + U_EMOJI + '", "nested": {"deep": [1, 2, 3]}}'},
        {"event_id": 900003, "ts": 0, "user_id": 7, "event_type": "view",
         "value": -1e9, "props": '{"quoted": "a \\"b\\" c", "neg": -12}'},
        # duplicate event_id, same user/ts as above (tie in any ordering)
        {"event_id": 900003, "ts": 0, "user_id": 7, "event_type": "view",
         "value": -1e9, "props": "not json at all"},
        {"event_id": 900004, "ts": 1, "user_id": 7, "event_type": U_TURKISH,
         "value": 0.0, "props": "{}"},
        # leading-zero integer = INVALID JSON: must land in the -1
        # bucket on both sides, not fast-path to 7 (round-5 advice pin)
        {"event_id": 900005, "ts": 2, "user_id": 7, "event_type": "view",
         "value": 1.0, "props": '{"k": 007}'},
    ])

    # NUL twins: each key beside its base twin, in the first (null-free)
    # block of the table the grouped query reads
    t["region"] = _append(t["region"], [
        {"r_regionkey": 902, "r_name": "ASIA" + NUL_TWIN},
    ])
    t["nation"] = _append(t["nation"], [
        {"n_nationkey": 903, "n_name": "NUL TWIN", "n_regionkey": 902},
    ])
    t["customer"] = _prepend(t["customer"], [
        {"c_custkey": 90004, "c_name": "Twin Region", "c_nationkey": 903,
         "c_acctbal": 7.0, "c_mktsegment": "BUILDING"},
    ])
    t["part"] = _append(t["part"], [
        {"p_partkey": 90004, "p_name": "twin brand", "p_brand":
         "Brand#13" + NUL_TWIN, "p_type": "STANDARD", "p_size": 1,
         "p_retailprice": 5.0},
    ])
    twin_item = {"l_orderkey": 201, "l_partkey": 101, "l_suppkey": 9,
                 "l_quantity": 2.0, "l_extendedprice": 10.0,
                 "l_discount": 0.0, "l_tax": 0.0,
                 "l_shipdate": 883612800000000}  # 1998-01-01 (us)
    t["lineitem"] = _prepend(t["lineitem"], [
        {**twin_item, "l_linenumber": 90, "l_returnflag": "R" + NUL_TWIN,
         "l_linestatus": "F"},
        {**twin_item, "l_linenumber": 91, "l_returnflag": "R",
         "l_linestatus": "F" + NUL_TWIN},
        {**twin_item, "l_linenumber": 92, "l_partkey": 90004,
         "l_returnflag": "A", "l_linestatus": "O"},
    ])
    t["events"] = _prepend(t["events"], [
        {"event_id": 900006, "ts": 1704067200000000, "user_id": 3,
         "event_type": "view" + NUL_TWIN, "value": 12.5, "props": "{}"},
        {"event_id": 900007, "ts": 1704070800000000, "user_id": 4,
         "event_type": "view" + NUL_TWIN, "value": 99.0, "props": "{}"},
        {"event_id": 900008, "ts": 1704067200000000, "user_id": 3,
         "event_type": "click" + NUL_TWIN, "value": 1.25, "props": "{}"},
    ])

    long_doc = ("lorem ipsum dolor sit amet " * 200).strip()  # 5.4k chars
    t["documents"] = _append(t["documents"], [
        {"doc_id": 900001, "text": None, "lang": None, "source": None,
         "n_chars": None},
        {"doc_id": 900002, "text": "", "lang": "en", "source": "adv",
         "n_chars": 0},
        {"doc_id": 900003, "text": "   \t\n  ", "lang": "en", "source": "adv",
         "n_chars": 7},
        {"doc_id": 900004, "text": "word     four-space    gap", "lang": "en",
         "source": "adv", "n_chars": 26},
        {"doc_id": 900005, "text": U_TURKISH + " " + U_SIGMA + " " + U_SHARP,
         "lang": "tr", "source": "adv", "n_chars": 40},
        {"doc_id": 900006, "text": U_EMOJI + "\r\n" + U_COMBINING + "\r\n"
         + U_CTRL, "lang": "en", "source": "adv", "n_chars": 80},
        {"doc_id": 900007, "text": U_BOM, "lang": "en", "source": "adv",
         "n_chars": 18},
        {"doc_id": 900008, "text": "x", "lang": "en", "source": "adv",
         "n_chars": 1},
        # three exact duplicates (dedup family must collapse them together)
        {"doc_id": 900009, "text": "identical adversarial duplicate text",
         "lang": "en", "source": "adv", "n_chars": 36},
        {"doc_id": 900010, "text": "identical adversarial duplicate text",
         "lang": "en", "source": "adv", "n_chars": 36},
        {"doc_id": 900011, "text": "identical adversarial duplicate text",
         "lang": "en", "source": "adv", "n_chars": 36},
        {"doc_id": 900012, "text": long_doc, "lang": "en", "source": "adv",
         "n_chars": len(long_doc)},
        {"doc_id": -1, "text": "negative doc id", "lang": "en",
         "source": "adv", "n_chars": 15},
        {"doc_id": 900013, "text": "patient Jan Jansen visited Utrecht "
         "on 01-02-2020, BSN 111222333, call 06-12345678",
         "lang": "nl", "source": "adv", "n_chars": 80},
    ])

    dim = len(t["embeddings"].column("embedding")[0])
    t["embeddings"] = _append(t["embeddings"], [
        {"vec_id": 900001, "embedding": [0.0] * dim, "label": 0},       # zero
        {"vec_id": 900002, "embedding": [1e20] * dim, "label": None},   # huge
        {"vec_id": 900003, "embedding": [-0.0] * dim, "label": 1},      # -0.0
        {"vec_id": 900004, "embedding": None, "label": 2},              # NULL
        {"vec_id": 900005,
         "embedding": [1e-30] * (dim - 1) + [1.0], "label": 3},         # tiny
        # duplicate vec_id, identical vector (exact cosine-1 pair)
        {"vec_id": 900006, "embedding": [0.5] * dim, "label": 4},
        {"vec_id": 900006, "embedding": [0.5] * dim, "label": 4},
        {"vec_id": None, "embedding": [0.25] * dim, "label": 5},        # null key
    ])

    if shape_breakers:
        emb = t["embeddings"]
        t["embeddings"] = _append(emb, [
            {"vec_id": 910001, "embedding": [1.0] * (dim // 2), "label": 9},
            {"vec_id": 910002, "embedding": [1.0, None] + [0.0] * (dim - 2),
             "label": 9},
            {"vec_id": 910003, "embedding": [], "label": 9},
        ])
        # duplicate doc_id with DIFFERENT text: pair-emitting dedup ops
        # define their output over unique ids (documented precondition —
        # _banded_pairs verifies with the first payload row per id, so
        # behavior under id collisions is order-dependent); KG ops handle it (physical
        # row keys).  Tier 2 because it is a contract probe.
        t["documents"] = _append(t["documents"], [
            {"doc_id": 900009, "text": "same id different text entirely "
             "here", "lang": "en", "source": "adv", "n_chars": 36},
        ])

    for name, table in t.items():
        pq.write_table(table, f"{out_dir}/{name}.parquet")
    print(f"wrote {out_dir}: " + ", ".join(
        f"{n}={t[n].num_rows}" for n in t))


if __name__ == "__main__":
    argv = sys.argv[1:]
    base = BASE
    if "--base" in argv:
        i = argv.index("--base")
        base = argv[i + 1]
        argv = argv[:i] + argv[i + 2:]
    args = [a for a in argv if not a.startswith("--")]
    out = args[0] if args else "/tmp/adversarial_sf"
    build(out, shape_breakers="--shape-breakers" in argv, base=base)
