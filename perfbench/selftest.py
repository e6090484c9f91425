"""Tests of the benchmark itself: each workload end to end at a tiny size,
one negative control per correctness check, the lexicon's disjointness,
and the clean exit of every process a run starts.

    python3 -m pytest perfbench/selftest.py -q

(The file name keeps it out of the repository's own test collection.)
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import pyarrow as pa
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import checks, gen, lexgen  # noqa: E402

TINY = ["--docs", "200", "--lexicon-scale", "0.02", "--seconds", "1"]


@pytest.fixture(scope="module")
def vocab(tmp_path_factory):
    tree = tmp_path_factory.mktemp("lexicon")
    return lexgen.generate_tree(tree, seed=3, scale=0.02)


# ---------------------------------------------------------------------------
# lexicon
# ---------------------------------------------------------------------------


def test_lists_disjoint_from_each_other_and_filler(tmp_path):
    lexgen.generate_tree(tmp_path, seed=5, scale=0.02)
    owner: dict[str, str] = {}
    for items in (tmp_path / "src").glob("*/lst_*/items.txt"):
        name = items.parent.name
        for item in items.read_text(encoding="utf-8").split("\n"):
            for word in item.replace("(", " ").replace(")", " ").split():
                key = word.casefold()
                assert owner.setdefault(key, name) == name, (word, name, owner[key])
    filler = json.loads((tmp_path / "vocab.json").read_text())["filler"]
    for word in filler:
        assert word.casefold() not in owner, word
        assert word.isalpha() and word == word.lower()
    assert not set(filler) & lexgen.RESERVED


# ---------------------------------------------------------------------------
# negative controls: each check passes on a right output and fails on a
# deliberately corrupted one
# ---------------------------------------------------------------------------


def _graph_units(truth: dict) -> list[tuple[str, pa.Table]]:
    by_unit = defaultdict(list)
    for i, mentions in enumerate(truth["mentions"]):
        repo, lang = truth["repos"][i], truth["langs"][i]
        for n, (s, _, tag, text) in enumerate(mentions):
            by_unit[f"{repo}__{lang}"].append({
                "repo": repo, "lang": lang, "doc_id": checks.sha256(truth["contents"][i]),
                "pred": tag, "obj": text, "entity_id": f"{tag}-{n}",
                "n_mentions": 1, "first_start_char": s,
            })
    return [(slug, pa.Table.from_pylist(rows)) for slug, rows in sorted(by_unit.items())]


def _edit(units, unit_index, row_index, **changes):
    slug, table = units[unit_index]
    rows = table.to_pylist()
    if changes:
        rows[row_index].update(changes)
    else:
        del rows[row_index]
    return units[:unit_index] + [(slug, pa.Table.from_pylist(rows))] + units[unit_index + 1:]


def test_graph_check_negative_controls(tmp_path, vocab):
    truth = gen.kg_extract_inputs(tmp_path, vocab, seed=1, n_docs=60)
    units = _graph_units(truth)
    assert checks.check_graph(units, truth) == []
    row = units[0][1].to_pylist()[0]
    assert checks.check_graph(_edit(units, 0, 0), truth)  # a graph row dropped
    assert checks.check_graph(_edit(units, 0, 0, first_start_char=row["first_start_char"] + 1), truth)
    assert checks.check_graph(_edit(units, 0, 0, lang="xx"), truth)  # row in another's unit
    assert checks.check_graph(_edit(units, 0, 0, pred="datum" if row["pred"] != "datum" else "url"), truth)
    slug, table = units[0]
    twice = units[:1] + [(slug, pa.concat_tables([table, table.slice(0, 1)]))] + units[1:]
    assert checks.check_graph(twice[1:], truth)  # graph key repeated
    # a row wholly in filler: the first word of the note
    i = next(i for i, r in enumerate(truth["repos"]) if f"{r}__{truth['langs'][i]}" == slug)
    word = truth["contents"][i].split(" ", 1)[0]
    filler_row = dict(row, doc_id=checks.sha256(truth["contents"][i]), obj=word, first_start_char=0, pred="persoon")
    extra = [(slug, pa.Table.from_pylist(table.to_pylist() + [filler_row]))] + units[1:]
    assert checks.check_graph(extra, truth)


def _triples(batch: dict) -> pa.Table:
    rows = [
        {"doc_id": checks.sha256(c), "pred": tag, "obj": text, "start_char": s, "end_char": e}
        for c, ms in zip(batch["contents"], batch["mentions"])
        for s, e, tag, text in ms
    ]
    return pa.Table.from_pylist(rows)


def _analytics(want):
    nodes = sorted({(p, o) for e in want for p, o in ((e[0], e[1]), (e[2], e[3]))})
    parent = {n: n for n in nodes}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for pa_, oa, pb, ob, _ in want:
        parent[find((pa_, oa))] = find((pb, ob))
    ranks = [(p, o, 1.0 / len(nodes)) for p, o in nodes]
    comps = [(p, o, hash(find((p, o)))) for p, o in nodes]
    return ranks, comps


def test_analyze_checks_negative_controls(tmp_path, vocab):
    truth = gen.kg_analyze_inputs(tmp_path, vocab, seed=1, n_docs=40, pool_size=60)
    triples = _triples(truth["batch2"])
    assert checks.check_triples(triples, truth["batch2"]) == []
    rows = triples.to_pylist()
    rows[0]["start_char"] += 1  # a span shifted by one
    assert checks.check_triples(pa.Table.from_pylist(rows), truth["batch2"])
    assert checks.check_triples(triples.slice(1), truth["batch2"])

    want = checks.expected_edges(truth)
    ranks, comps = _analytics(want)
    assert checks.check_analytics(want, ranks, comps, want) == []
    changed = [want[0][:4] + (want[0][4] + 1,)] + want[1:]  # one edge's n_docs
    assert checks.check_analytics(changed, ranks, comps, want)
    assert checks.check_analytics(want[1:], ranks, comps, want)
    assert checks.check_analytics(want, [(p, o, s * 1.01) for p, o, s in ranks], comps, want)
    assert checks.check_analytics(want, ranks[1:], comps, want)
    p, o, _ = comps[-1]
    split = comps[:-1] + [(p, o, -1)]  # one node cut off into its own component
    assert checks.check_analytics(want, ranks, split, want)


def test_survivor_check_negative_controls(tmp_path):
    vocab = {"filler": lexgen.filler_vocabulary(1)}
    truth = gen.prep_funnel_inputs(tmp_path, vocab, seed=1, n_docs=400)
    kept = truth["unique"] + [g[0] for g in truth["exact_groups"]] + [c[0] for c in truth["near_clusters"]]
    right = {i: truth["expected"][i] for i in kept}
    assert checks.check_survivors(right, truth) == []
    group = truth["exact_groups"][0]
    assert checks.check_survivors({**right, group[1]: truth["expected"][group[1]]}, truth)
    cluster = truth["near_clusters"][0]
    assert checks.check_survivors({**right, cluster[1]: truth["expected"][cluster[1]]}, truth)
    assert checks.check_survivors({k: v for k, v in right.items() if k != truth["unique"][0]}, truth)
    short = truth["short"][0]
    assert checks.check_survivors({**right, short: truth["expected"][short]}, truth)
    stripped = next(i for i in truth["unique"] if truth["expected"][i] != truth["contents"][i])
    assert checks.check_survivors({**right, stripped: truth["contents"][stripped]}, truth)  # span kept
    words = right[stripped].split(" ")
    assert checks.check_survivors({**right, stripped: " ".join(words[1:])}, truth)  # a word too many


def test_near_duplicates_share_no_strip_window():
    rng = random.Random(0)
    base = [f"w{i}" for i in range(70)]
    grams = lambda ws: {tuple(ws[i:i + gen.STRIP_N]) for i in range(len(ws) - gen.STRIP_N + 1)}  # noqa: E731
    variants = [base] + [gen._stutter(base, off) for off in rng.sample(range(1, gen.STUTTER_PERIOD), 3)]
    for a in range(len(variants)):
        for b in range(a + 1, len(variants)):
            assert not grams(variants[a]) & grams(variants[b])


# ---------------------------------------------------------------------------
# end to end
# ---------------------------------------------------------------------------


def _live_in_session(sid: int) -> list[int]:
    """Processes of session ``sid`` that are running (not zombies)."""
    left = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[3]) == sid and fields[0] != "Z":
            left.append(int(entry))
    return left


@pytest.mark.parametrize("workload", ["kg_extract", "kg_analyze", "prep_funnel"])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_workload_runs_correct_and_leaves_no_process(workload, trace):
    proc = subprocess.Popen(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "4", "--trace", trace, *TINY],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    out, err = proc.communicate(timeout=300)
    assert proc.returncode == 0, err[-3000:]
    result = json.loads(out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, err[-3000:]
    assert result["attempted"] >= 200 and result["failed"] == 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer" if trace == "1" else "end_to_end"]]
    assert list(result["metrics"]) == names
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert _live_in_session(proc.pid) == []


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "kg_extract", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert not proc.stdout.strip()
