"""Seeded inputs with planted ground truth for the three workloads.

Each generator writes the files the program reads and returns the ground
truth the checks compare against.  The program sees only the files.
Filler text is digit-free, lowercase and drawn from the lexicon
generator's filler vocabulary, which matches no lookup list and no word
a default annotator keys on, so every annotation the engine can make
comes from a planted mention.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import pyarrow as pa
import pyarrow.parquet as pq

# (repo, share of documents): one hot repo holding 30% of the corpus
# makes materialize_graph salt its partition
HOT_REPO = "hospital-monorepo"
HOT_SHARE = 0.3
N_COLD_REPOS = 12
LANGS = ("nl", "en")
PATIENT_SHARE = 0.3


def _bsn(rng: random.Random) -> str:
    """A 9-digit number passing the mod-11 check (elfproef)."""
    weights = (9, 8, 7, 6, 5, 4, 3, 2)
    while True:
        head = [rng.randint(1, 9)] + [rng.randint(0, 9) for _ in range(7)]
        check = sum(d * w for d, w in zip(head, weights)) % 11
        if check < 10:
            return "".join(map(str, head)) + str(check)


def _identifier(rng: random.Random) -> str:
    # 8 digits: never a bsn (9) and too short for a phone number
    return str(rng.randint(10_000_000, 99_999_999))


def _postal(rng: random.Random) -> str:
    letters = "ABCDEFHJKLNPRSTVWXZ"  # no G/I/M/E pair endings the regexp rejects
    return f"{rng.randint(1000, 9999)} {rng.choice(letters)}{rng.choice(letters)}"


_MONTHS = ["januari", "februari", "maart", "april", "juni", "juli",
           "augustus", "september", "oktober", "november", "december"]


def _date(rng: random.Random, style: int) -> str:
    d, m, y = rng.randint(1, 28), rng.randint(1, 12), rng.randint(1950, 2024)
    if style == 0:
        return f"{d:02d}-{m:02d}-{y}"
    if style == 1:
        return f"{d} {rng.choice(_MONTHS)} {y}"
    if style == 2:
        return f"{y}-{m:02d}-{d:02d}"
    return f"{y} {rng.choice(_MONTHS)} {d}"


class _Vocab:
    def __init__(self, vocab: dict) -> None:
        self.filler = vocab["filler"]
        self.lists = vocab["lists"]
        self.places = [p for p in self.lists["placename"] if "(" not in p]

    def pick(self, rng: random.Random, name: str) -> str:
        return rng.choice(self.lists[name])


def load_vocab(lexicon_dir: Path) -> dict:
    with open(Path(lexicon_dir) / "vocab.json", encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# kg_extract: notes with planted PHI of every category the pipeline tags
# ---------------------------------------------------------------------------


def _phi(rng: random.Random, v: _Vocab, kind: str) -> tuple[str, str]:
    """(mention text, expected tag after the full pipeline)."""
    if kind == "name":
        return f"{v.pick(rng, 'first_name')} {v.pick(rng, 'surname')}", "persoon"
    if kind == "initial_name":
        return f"{rng.choice(v.lists['initial'][:26])}. {v.pick(rng, 'surname')}", "persoon"
    if kind == "prefix_name":
        return f"{v.pick(rng, 'prefix')} {v.pick(rng, 'surname')}", "persoon"
    if kind == "interfix_name":
        interfix = rng.choice([i for i in v.lists["interfix"] if " " not in i])
        return f"{v.pick(rng, 'first_name')} {interfix} {v.pick(rng, 'interfix_surname')}", "persoon"
    if kind == "street":
        return f"{v.pick(rng, 'street')} {rng.randint(1, 299)}", "locatie"
    if kind == "place":
        return rng.choice(v.places), "locatie"
    if kind == "postal":
        return _postal(rng), "locatie"
    if kind == "postbus":
        return f"Postbus {rng.randint(1, 9999)}", "locatie"
    if kind == "hospital":
        return v.pick(rng, "hospital"), "ziekenhuis"
    if kind == "institution":
        return v.pick(rng, "healthcare_institution"), "zorginstelling"
    if kind == "date":
        return _date(rng, rng.randrange(4)), "datum"
    if kind == "age":
        # the age annotator tags the number; " jaar" is the context it needs
        return str(rng.randint(18, 95)), "leeftijd"
    if kind == "bsn":
        return _bsn(rng), "bsn"
    if kind == "id":
        return _identifier(rng), "id"
    if kind == "phone":
        return f"06-{rng.randint(10_000_000, 99_999_999)}", "telefoonnummer"
    if kind == "email":
        return f"{rng.choice(v.filler)}@{rng.choice(v.filler)}.nl", "emailadres"
    if kind == "url":
        return f"www.{rng.choice(v.filler)}.nl", "url"
    raise ValueError(kind)


PHI_KINDS = (
    "name", "initial_name", "prefix_name", "interfix_name", "street", "place",
    "postal", "postbus", "hospital", "institution", "date", "age", "bsn",
    "id", "phone", "email", "url",
)
NON_NAME_KINDS = PHI_KINDS[4:]


class _Note:
    """Text assembled piecewise, recording the span of each planted part."""

    def __init__(self) -> None:
        self.parts: list[str] = []
        self.length = 0
        self.mentions: list[tuple[int, int, str, str]] = []

    def add(self, s: str) -> None:
        self.parts.append(s)
        self.length += len(s)

    def plant(self, text: str, tag: str) -> None:
        self.mentions.append((self.length, self.length + len(text), tag, text))
        self.add(text)

    def filler(self, rng: random.Random, v: _Vocab, n: int) -> None:
        self.add(" ".join(rng.choice(v.filler) for _ in range(n)))

    @property
    def text(self) -> str:
        return "".join(self.parts)


def kg_extract_inputs(out: Path, vocab: dict, seed: int, n_docs: int) -> dict:
    """``out/docs.parquet``: repo table (repo, path, commit, lang, content,
    patient) of ~300-character notes.  Ground truth: every planted
    mention's (row, start, end, tag, text)."""
    rng = random.Random(seed * 1_000_003 + 11)
    v = _Vocab(vocab)
    cold = [f"clinic-{i:02d}" for i in range(N_COLD_REPOS)]
    rows: dict[str, list] = {k: [] for k in ("repo", "path", "commit", "lang", "content", "patient")}
    truth: list[list] = []
    seen: set[str] = set()
    while len(rows["content"]) < n_docs:
        note = _Note()
        patient = None
        if rng.random() < PATIENT_SHARE:
            first, sur = v.pick(rng, "first_name"), v.pick(rng, "surname")
            patient = {"first_names": [first], "initials": first[0], "surname": sur}
        note.filler(rng, v, rng.randint(2, 4))
        if patient is None:
            kinds = rng.sample(PHI_KINDS, rng.randint(3, 5))
        else:
            # another person's name next to the patient's could share the
            # patient's initial and be tagged patient, so name kinds stay out
            kinds = ["patient"] + rng.sample(NON_NAME_KINDS, rng.randint(2, 4))
        for kind in kinds:
            note.add(", ")
            if kind == "patient":
                note.plant(f"{patient['first_names'][0]} {patient['surname']}", "patient")
            else:
                note.plant(*_phi(rng, v, kind))
            if kind == "age":
                note.add(" jaar")
            note.add(", ")
            note.filler(rng, v, rng.randint(3, 6))
        note.add(".")
        text = note.text
        if text in seen:
            continue
        seen.add(text)
        i = len(rows["content"])
        rows["repo"].append(HOT_REPO if rng.random() < HOT_SHARE else rng.choice(cold))
        rows["path"].append(f"notes/{seed}/{i:07d}.txt")
        rows["commit"].append(f"{rng.getrandbits(40):010x}")
        rows["lang"].append(rng.choice(LANGS))
        rows["content"].append(text)
        rows["patient"].append(patient)
        truth.append(note.mentions)
    patient_type = pa.struct(
        [("first_names", pa.list_(pa.string())), ("initials", pa.string()), ("surname", pa.string())]
    )
    table = pa.table(
        {
            **{k: pa.array(rows[k], type=pa.string()) for k in ("repo", "path", "commit", "lang", "content")},
            "patient": pa.array(rows["patient"], type=patient_type),
        }
    )
    out.mkdir(parents=True, exist_ok=True)
    pq.write_table(table, out / "docs.parquet")
    return {"contents": rows["content"], "repos": rows["repo"], "langs": rows["lang"], "mentions": truth}


# ---------------------------------------------------------------------------
# kg_analyze: short, mention-dense notes over a Zipf-skewed entity pool of
# mentions the SQL-predicate mask decides
# ---------------------------------------------------------------------------

SQL_KINDS = ("date", "bsn", "id", "postal", "postbus")


def _entity_pool(rng: random.Random, v: _Vocab, size: int) -> list[tuple[str, str]]:
    pool: dict[str, str] = {}
    while len(pool) < size:
        text, tag = _phi(rng, v, rng.choice(SQL_KINDS))
        pool.setdefault(text, tag)
    return [(tag, text) for text, tag in pool.items()]


def kg_analyze_inputs(out: Path, vocab: dict, seed: int, n_docs: int, pool_size: int = 3000) -> dict:
    """``out/batch1.parquet`` and ``out/batch2.parquet``: two disjoint
    batches of short notes, 3-6 distinct entities each, entities drawn
    with Zipf(1.1) weights.  Ground truth per batch: each document's
    planted (tag, text, start, end)."""
    rng = random.Random(seed * 1_000_003 + 22)
    v = _Vocab(vocab)
    pool = _entity_pool(rng, v, pool_size)
    weights = [1.0 / (r + 1) ** 1.1 for r in range(len(pool))]
    seen: set[str] = set()
    truth = {}
    out.mkdir(parents=True, exist_ok=True)
    for batch in ("batch1", "batch2"):
        contents, mentions = [], []
        while len(contents) < n_docs:
            k = rng.randint(3, 6)
            picked: dict[tuple[str, str], None] = {}
            while len(picked) < k:
                picked[pool[rng.choices(range(len(pool)), weights)[0]]] = None
            note = _Note()
            note.filler(rng, v, 2)
            for tag, text in picked:
                note.add(" ")
                note.plant(text, tag)
                note.add(" ")
                note.filler(rng, v, 2)
            note.add(".")
            text = note.text
            if text in seen:
                continue
            seen.add(text)
            contents.append(text)
            mentions.append(note.mentions)
        n = len(contents)
        table = pa.table(
            {
                "repo": pa.array([f"ward-{i % 7}" for i in range(n)]),
                "path": pa.array([f"{batch}/{i:07d}.txt" for i in range(n)]),
                "commit": pa.array([""] * n),
                "lang": pa.array(["nl"] * n),
                "content": pa.array(contents),
            }
        )
        pq.write_table(table, out / f"{batch}.parquet")
        truth[batch] = {"contents": contents, "mentions": mentions}
    return truth


# ---------------------------------------------------------------------------
# prep_funnel: a JSONL corpus with planted short documents, exact
# duplicates, near duplicates and shared boilerplate spans
# ---------------------------------------------------------------------------

STRIP_N = 13  # prep_corpus(strip_dup_ngrams=...) window, in words
MIN_CHARS = 60  # prep_corpus(min_chars=...)
N_BOILERPLATE = 8
BOILERPLATE_SHARE = 0.3
# a near duplicate repeats one word in every STUTTER_PERIOD: each 13-word
# window then differs from its base (so the strip leaves both whole) while
# ~80% of the 3-word shingles are shared (so MinHash pairs them)
STUTTER_PERIOD = 11


def _stutter(words: list[str], offset: int) -> list[str]:
    out = []
    for i, w in enumerate(words):
        out.append(w)
        if 1 <= i <= len(words) - 2 and i % STUTTER_PERIOD == offset:
            out.append(w)
    return out


def prep_funnel_inputs(out: Path, vocab: dict, seed: int, n_docs: int) -> dict:
    """``out/corpus.jsonl`` (repo, path = integer doc id, commit, lang,
    content).  Each draw adds a unique document (55% of draws; 30% of
    them carry one of eight boilerplate spans), an exact-duplicate group
    of 2-4 (20%), a near-duplicate cluster of 2-3 (20%) or a document
    shorter than MIN_CHARS (5%).  Ground truth: ids per category, the
    boilerplate spans, and each document's expected text after the
    strip."""
    rng = random.Random(seed * 1_000_003 + 33)
    filler = vocab["filler"]
    spans = [
        [rng.choice(filler) for _ in range(rng.randint(20, 30))]
        for _ in range(N_BOILERPLATE)
    ]
    # each span occurrence gets distinct neighbours, so no 13-word window
    # extends a span into filler and the strip removes exactly the span
    neighbours = [set() for _ in spans]
    carriers: list[list[int]] = [[] for _ in spans]

    def body(lo: int = 40, hi: int = 80) -> list[str]:
        return [rng.choice(filler) for _ in range(rng.randint(lo, hi))]

    docs: list[tuple[str, str]] = []  # (content, expected survivor text)
    unique, exact, near, short = [], [], [], []
    seen: set[str] = set()

    def add(text: str, expected: str | None = None) -> int | None:
        if text in seen:
            return None
        seen.add(text)
        docs.append((text, text if expected is None else expected))
        return len(docs) - 1

    while len(docs) < n_docs:
        r = rng.random()
        if r < 0.55:
            words = body()
            expected, k = None, None
            if rng.random() < BOILERPLATE_SHARE:
                k = rng.randrange(N_BOILERPLATE)
                at = rng.randint(1, len(words) - 1)
                pair = (words[at - 1], words[at])
                if pair[0] in neighbours[k] or pair[1] in neighbours[k]:
                    continue
                neighbours[k].update(pair)
                expected = " ".join(words)
                words = words[:at] + spans[k] + words[at:]
            i = add(" ".join(words), expected)
            if i is not None:
                unique.append(i)
                if k is not None:
                    carriers[k].append(i)
        elif r < 0.75:
            text = " ".join(body())
            if text in seen:
                continue
            ids = [add(text)]
            for _ in range(rng.randint(1, 3)):
                docs.append((text, text))
                ids.append(len(docs) - 1)
            exact.append(ids)
        elif r < 0.95:
            base = body(50, 80)
            if any(a == b for a, b in zip(base, base[1:])):
                continue  # a natural repeat would match a stutter
            members = [add(" ".join(base))]
            for off in rng.sample(range(1, STUTTER_PERIOD), rng.randint(1, 2)):
                members.append(add(" ".join(_stutter(base, off))))
            if None in members:
                continue
            near.append(members)
        else:
            i = add(" ".join(body(1, 2))[: MIN_CHARS - 10])
            if i is not None:
                short.append(i)
    # a span planted once is shared by no other document: the strip keeps it
    for k, docs_with_span in enumerate(carriers):
        if len(docs_with_span) == 1:
            i = docs_with_span[0]
            docs[i] = (docs[i][0], docs[i][0])
    # ids are shuffled so no category sits in one id range
    perm = list(range(len(docs)))
    rng.shuffle(perm)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "corpus.jsonl", "w", encoding="utf-8") as fh:
        for i, (text, _) in enumerate(docs):
            fh.write(json.dumps({
                "repo": "web-crawl", "path": str(perm[i]), "commit": "",
                "lang": "nl", "content": text,
            }) + "\n")
    remap = lambda ids: [perm[i] for i in ids]  # noqa: E731
    return {
        "n_docs": len(docs),
        "contents": {perm[i]: d[0] for i, d in enumerate(docs)},
        "expected": {perm[i]: d[1] for i, d in enumerate(docs)},
        "unique": remap(unique),
        "exact_groups": [remap(g) for g in exact],
        "near_clusters": [remap(c) for c in near],
        "short": remap(short),
        "boilerplate": [" ".join(s) for s, c in zip(spans, carriers) if len(c) > 1],
    }
