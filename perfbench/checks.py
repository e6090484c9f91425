"""Output checks, each computed apart from the program: hashes with
hashlib, expected edges with a DuckDB self-join, components with a
union-find, survivors from the generator's ground truth.  Every check
returns a list of error strings (empty when the output is right)."""

from __future__ import annotations

import hashlib
from collections import defaultdict
from pathlib import Path

import pyarrow as pa
import pyarrow.parquet as pq

GRAPH_KEY = ["repo", "lang", "doc_id", "pred", "obj", "entity_id"]
MAX_ERRORS = 10


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# kg_extract
# ---------------------------------------------------------------------------


def read_graph_units(out_dir: Path) -> list[tuple[str, pa.Table]]:
    """(partition directory name, table) for every committed graph unit."""
    units = []
    for part in sorted(Path(out_dir).glob("*/part-*.parquet")):
        units.append((part.parent.name, pq.read_table(part)))
    return units


def check_graph(units: list[tuple[str, pa.Table]], truth: dict) -> list[str]:
    errors: list[str] = []
    contents = truth["contents"]
    by_hash = {sha256(c): i for i, c in enumerate(contents)}
    rows_by_doc: dict[int, list[dict]] = defaultdict(list)
    keys = set()
    n_rows = 0
    for slug, table in units:
        for row in table.to_pylist():
            n_rows += 1
            if f"{row['repo']}__{row['lang']}" != slug:
                errors.append(f"unit {slug} holds a row of ({row['repo']}, {row['lang']})")
            key = tuple(row[k] for k in GRAPH_KEY)
            if key in keys:
                errors.append(f"graph key repeated: {key}")
            keys.add(key)
            i = by_hash.get(row["doc_id"])
            if i is None:
                errors.append(f"doc_id {row['doc_id']} is no input document's sha256")
                continue
            start, obj = row["first_start_char"], row["obj"]
            if contents[i][start : start + len(obj)] != obj:
                errors.append(f"doc {i}: obj {obj!r} is not the content at {start}")
            if (row["repo"], row["lang"]) != (truth["repos"][i], truth["langs"][i]):
                errors.append(f"doc {i}: row has repo/lang {row['repo']}/{row['lang']}")
            rows_by_doc[i].append(row)
            if len(errors) > MAX_ERRORS:
                return errors
    if n_rows == 0:
        return ["the graph is empty"]
    for i, mentions in enumerate(truth["mentions"]):
        rows = rows_by_doc.get(i, [])
        for row in rows:
            start, end = row["first_start_char"], row["first_start_char"] + len(row["obj"])
            if not any(s < end and start < e for s, e, _, _ in mentions):
                errors.append(f"doc {i}: row {row['pred']} {row['obj']!r} lies wholly in filler")
        for s, e, tag, text in mentions:
            if not _covered(contents[i], rows, s, e, tag):
                errors.append(f"doc {i}: planted {tag} {text!r} at {s} has no covering row")
        if len(errors) > MAX_ERRORS:
            break
    return errors


def _covered(content: str, rows: list[dict], s: int, e: int, tag: str) -> bool:
    """Some row of ``tag`` whose text occurs in ``content`` over [s, e);
    a graph row keeps only its first span, so every occurrence counts."""
    for row in rows:
        if row["pred"] != tag:
            continue
        obj = row["obj"]
        pos = content.find(obj)
        while pos != -1 and pos <= s:
            if pos + len(obj) >= e:
                return True
            pos = content.find(obj, pos + 1)
    return False


# ---------------------------------------------------------------------------
# kg_analyze
# ---------------------------------------------------------------------------


def check_triples(triples: pa.Table, batch_truth: dict) -> list[str]:
    """The mask's triples are exactly the planted mentions."""
    want = set()
    for content, mentions in zip(batch_truth["contents"], batch_truth["mentions"]):
        doc = sha256(content)
        for s, e, tag, text in mentions:
            want.add((doc, tag, text, s, e))
    got = set(
        zip(
            triples.column("doc_id").to_pylist(),
            triples.column("pred").to_pylist(),
            triples.column("obj").to_pylist(),
            triples.column("start_char").to_pylist(),
            triples.column("end_char").to_pylist(),
        )
    )
    errors = [f"missing triple {t}" for t in sorted(want - got)[:MAX_ERRORS]]
    errors += [f"unplanted triple {t}" for t in sorted(got - want)[:MAX_ERRORS]]
    if triples.num_rows != len(got):
        errors.append(f"{triples.num_rows - len(got)} repeated triple rows")
    return errors


def expected_edges(truth: dict) -> list[tuple]:
    """Co-occurrence edges over both batches' planted mentions, by a
    DuckDB self-join: (pred_a, obj_a, pred_b, obj_b, n_docs), sorted."""
    import duckdb

    docs, preds, objs = [], [], []
    for batch in truth.values():
        for content, mentions in zip(batch["contents"], batch["mentions"]):
            doc = sha256(content)
            for _, _, tag, text in mentions:
                docs.append(doc)
                preds.append(tag)
                objs.append(text)
    mentions = pa.table({"doc": docs, "pred": preds, "obj": objs})
    con = duckdb.connect()
    try:
        con.register("mentions", mentions)
        return con.execute(
            """
            WITH m AS (SELECT DISTINCT doc, pred, obj FROM mentions)
            SELECT a.pred, a.obj, b.pred, b.obj, count(*) AS n_docs
            FROM m a JOIN m b ON a.doc = b.doc
             AND (a.pred < b.pred OR (a.pred = b.pred AND a.obj < b.obj))
            GROUP BY ALL ORDER BY ALL
            """
        ).fetchall()
    finally:
        con.close()


def _components(edges: list[tuple]) -> int:
    parent: dict = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for pa_, oa, pb, ob, _ in edges:
        ra, rb = find((pa_, oa)), find((pb, ob))
        if ra != rb:
            parent[ra] = rb
    return len({find(x) for x in list(parent)})


def check_analytics(merged: list[tuple], ranks: list[tuple], components: list[tuple], want: list[tuple]) -> list[str]:
    """``merged``: (pred_a, obj_a, pred_b, obj_b, n_docs) rows;
    ``ranks``: (pred, obj, score); ``components``: (pred, obj, component_id)."""
    errors: list[str] = []
    got = sorted(merged)
    if got != want:
        missing = sorted(set(want) - set(got))[:3]
        extra = sorted(set(got) - set(want))[:3]
        errors.append(
            f"merged edges differ from the DuckDB self-join ({len(got)} vs "
            f"{len(want)} rows; missing {missing}, unexpected {extra})"
        )
    nodes = {(p, o) for e in want for p, o in ((e[0], e[1]), (e[2], e[3]))}
    rank_nodes = [(p, o) for p, o, _ in ranks]
    if set(rank_nodes) != nodes or len(rank_nodes) != len(nodes):
        errors.append(f"PageRank node set ({len(rank_nodes)} rows) is not the {len(nodes)} edge endpoints")
    total = sum(s for _, _, s in ranks)
    # scores are rounded to 6 decimals: at most 5e-7 off each
    if abs(total - 1.0) > 5e-7 * max(1, len(ranks)) + 1e-9:
        errors.append(f"PageRank scores sum to {total!r}")
    comp_nodes = [(p, o) for p, o, _ in components]
    if set(comp_nodes) != nodes or len(comp_nodes) != len(nodes):
        errors.append(f"component node set ({len(comp_nodes)} rows) is not the {len(nodes)} edge endpoints")
    n_comp = len({c for _, _, c in components})
    if n_comp != _components(want):
        errors.append(f"{n_comp} components, union-find over the expected edges gives {_components(want)}")
    return errors


# ---------------------------------------------------------------------------
# prep_funnel
# ---------------------------------------------------------------------------


def read_survivors(out_dir: Path) -> dict[int, str]:
    survivors: dict[int, str] = {}
    for part in sorted(Path(out_dir).glob("part-*.parquet")):
        t = pq.read_table(part, columns=["doc_id", "content"])
        for i, text in zip(t.column("doc_id").to_pylist(), t.column("content").to_pylist()):
            if i in survivors:
                return {-1: f"doc {i} written twice"}
            survivors[i] = text
    return survivors


def check_survivors(survivors: dict[int, str], truth: dict) -> list[str]:
    if -1 in survivors:
        return [survivors[-1]]
    errors: list[str] = []
    for i in truth["unique"]:
        if i not in survivors:
            errors.append(f"unique doc {i} dropped")
    for group in truth["exact_groups"]:
        kept = [i for i in group if i in survivors]
        if len(kept) != 1:
            errors.append(f"exact-duplicate group {group}: {len(kept)} survivors")
    for cluster in truth["near_clusters"]:
        kept = [i for i in cluster if i in survivors]
        if len(kept) > 1:
            errors.append(f"near-duplicate cluster {cluster}: {len(kept)} survivors")
    for i in truth["short"]:
        if i in survivors:
            errors.append(f"short doc {i} survived the length filter")
    for i, text in survivors.items():
        if any(span in text for span in truth["boilerplate"]):
            errors.append(f"survivor {i} still holds a boilerplate span")
        # the strip removes whole spans and rejoins words by single spaces;
        # the generator planted each span with distinct neighbours, so the
        # expected text is the input minus exactly its span
        if text != truth["expected"].get(i):
            errors.append(f"survivor {i}: text is not its input minus whole spans")
        if len(errors) > MAX_ERRORS:
            break
    return errors
