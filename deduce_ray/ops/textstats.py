"""Text analysis over document tables: token counting, quality scoring,
language identification, fingerprinting.  All stages are stateless
``map_batches`` transforms, vectorized where the kernel allows; outputs are
designed so DuckDB can reproduce them exactly (integer counts, md5 hashes,
ratios derived from integer counts with identical division on both sides).
"""

from __future__ import annotations

import hashlib
import re
from collections import Counter

import pyarrow as pa
import pyarrow.compute as pc

# ASCII word semantics on purpose: matches RE2 (\w is ASCII there), so the
# DuckDB oracle reproduces counts exactly, CJK text included.
_WORDISH_RE = re.compile(r"[A-Za-z0-9_]+|[^A-Za-z0-9_ \t\n\r\f\v]")

# Word splitter shared by every text op AND mirrored exactly by the DuckDB
# oracles (deduce_ray.oracles.WORD_CLASS_SQL).  An explicit ASCII class
# rather than str.split(): Python splits on extra Unicode whitespace
# (\x0b is covered here, but \x85/\xa0/\x1c-\x1f are not) which RE2
# cannot express identically — both sides must agree on one definition.
WORD_RE = re.compile(r"[^ \t\n\r\f\v]+")


def split_words(text: str) -> list[str]:
    return WORD_RE.findall(text)


# ASCII-only case fold, exactly mirrored in SQL by oracles.sql_ascii_lower
# (translate A-Z -> a-z).  Deliberately NOT str.lower(): Python and
# DuckDB's ICU lower() disagree on locale-special characters (Turkish
# dotted I lowers to 'i' + combining dot in Python but plain 'i' in
# DuckDB; Greek final sigma differs likewise), which silently breaks
# value-exact parity for any op that compares lowered strings — found by
# an adversarial-unicode parity probe.  Same precedent as _WORDISH_RE's
# "ASCII word semantics on purpose".
_ASCII_LOWER = str.maketrans(
    "ABCDEFGHIJKLMNOPQRSTUVWXYZ", "abcdefghijklmnopqrstuvwxyz"
)


def ascii_fold(s: str) -> str:
    return s.translate(_ASCII_LOWER)


class _SimpleLowerTable(dict):
    """Codepoint -> SIMPLE Unicode lowercase (the per-codepoint mapping
    DuckDB's built-in lower() applies), built lazily and cached per
    process.  Python's str.lower() is the FULL mapping, which differs in
    exactly three documented places: U+0130 (Turkish dotted I, full
    'i'+combining-dot vs simple 'i'), context-dependent final sigma
    (full maps trailing capital sigma to U+03C2, simple always U+03C3
    — handled here because per-codepoint lowering is context-free),
    and U+2C2F (gained a lowercase in a Unicode version newer than the
    ICU data DuckDB bundles, so it stays unmapped to match the oracle;
    verified by an 11,915-codepoint sweep against DuckDB 1.0)."""

    def __missing__(self, cp: int) -> str:
        if cp == 0x0130:
            r = "i"
        elif cp == 0x2C2F:
            r = "Ⱟ"
        else:
            r = chr(cp).lower()
        self[cp] = r
        return r


_SIMPLE_LOWER = _SimpleLowerTable()


def unicode_fold(s: str) -> str:
    """Full-Unicode case fold matching DuckDB's lower() codepoint for
    codepoint — the opt-in ``casefold="unicode"`` contract for
    top_terms / langid / tfidf.  ASCII stays byte-identical to
    ascii_fold, so the two modes agree on ASCII corpora."""
    return s.translate(_SIMPLE_LOWER)


def resolve_fold(casefold: str):
    """``casefold`` knob -> fold function ("ascii" is the default
    repo-wide contract; "unicode" is the ICU-parity mode)."""
    if casefold == "ascii":
        return ascii_fold
    if casefold == "unicode":
        return unicode_fold
    raise ValueError(
        f"casefold must be 'ascii' or 'unicode', got {casefold!r}"
    )


_ALPHA_RE = re.compile(r"[A-Za-z]")
_DIGIT_RE = re.compile(r"[0-9]")

# tiny per-language stopword profiles for the n-gram/stopword heuristic
_LANG_PROFILES = {
    "en": {"the", "a", "of", "and", "to", "is", "in", "that", "it", "for"},
    "de": {"der", "die", "das", "und", "ist", "nicht", "ein", "mit", "zu", "ich"},
    "fr": {"le", "la", "les", "et", "est", "un", "une", "des", "que", "pour"},
    "es": {"el", "la", "los", "las", "es", "un", "una", "que", "para", "por"},
    "nl": {"de", "het", "een", "en", "is", "van", "dat", "niet", "met", "op"},
}


def token_count_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Whitespace tokens + a BPE-ish regex token count per document."""
    texts = batch.column(text_col).to_pylist()
    ws = [len(split_words(t)) if t else 0 for t in texts]
    bpe = [len(_WORDISH_RE.findall(t)) if t else 0 for t in texts]
    # null text counts as empty (n_chars=0) so the row is self-consistent
    # with its 0 token counts — the oracles coalesce(text, '') to match
    n_chars = [len(t) if t else 0 for t in texts]
    return pa.table(
        {
            "doc_id": batch.column("doc_id"),
            "n_chars": pa.array(n_chars, type=pa.int64()),
            "n_ws_tokens": pa.array(ws, type=pa.int64()),
            "n_re_tokens": pa.array(bpe, type=pa.int64()),
        }
    )


def quality_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Quality signals: alpha/digit counts and parts-per-million ratios.
    Ratios are integer floor divisions (SQL-reproducible, no float
    rounding ambiguity)."""
    texts = batch.column(text_col).to_pylist()
    rows = {
        "n_chars": [],
        "n_alpha": [],
        "n_digit": [],
        "n_ws_tokens": [],
        "alpha_ppm": [],
        "digit_ppm": [],
    }
    for t in texts:
        t = t or ""
        n = len(t)
        a = len(_ALPHA_RE.findall(t))
        d = len(_DIGIT_RE.findall(t))
        rows["n_chars"].append(n)
        rows["n_alpha"].append(a)
        rows["n_digit"].append(d)
        rows["n_ws_tokens"].append(len(split_words(t)))
        rows["alpha_ppm"].append((a * 1_000_000) // n if n else 0)
        rows["digit_ppm"].append((d * 1_000_000) // n if n else 0)
    return pa.table(
        {
            # pass the id column through unchanged (string doc_id tables
            # must not be force-cast to int64)
            "doc_id": batch.column("doc_id"),
            "n_chars": pa.array(rows["n_chars"], type=pa.int64()),
            "n_alpha": pa.array(rows["n_alpha"], type=pa.int64()),
            "n_digit": pa.array(rows["n_digit"], type=pa.int64()),
            "n_ws_tokens": pa.array(rows["n_ws_tokens"], type=pa.int64()),
            "alpha_ppm": pa.array(rows["alpha_ppm"], type=pa.int64()),
            "digit_ppm": pa.array(rows["digit_ppm"], type=pa.int64()),
        }
    )


def _gram_ppms(ws: list[str], n: int) -> tuple[int, int]:
    """(top-gram mass ppm, duplicated-gram mass ppm) over the word
    n-grams of ``ws`` — 0s below n words (no evidence)."""
    if len(ws) < n:
        return 0, 0
    cnt = Counter(" ".join(ws[i : i + n]) for i in range(len(ws) - n + 1))
    top = dup = total = 0
    for g, c in cnt.items():
        mass = c * len(g)
        total += mass
        if mass > top:
            top = mass
        if c >= 2:
            dup += mass
    return (top * 1_000_000) // total, (dup * 1_000_000) // total


def repetition_signals(t: str) -> tuple[int, int, int, int, int]:
    """One document's repetition signals: (n_lines, dup_line_ppm,
    dup_line_char_ppm, top_2gram_ppm, dup_5gram_ppm) — the per-doc core
    shared by :func:`repetition_batch` and the prep funnel's filter
    pass (see repetition_batch for the exact contract)."""
    lines = [ln for ln in t.split("\n") if ln]
    lc = Counter(lines)
    n_lines = len(lines)
    line_chars = sum(len(ln) for ln in lines)
    dup_chars = sum((c - 1) * len(ln) for ln, c in lc.items())
    ws = split_words(t)
    top2, _ = _gram_ppms(ws, 2)
    _, dup5 = _gram_ppms(ws, 5)
    return (
        n_lines,
        ((n_lines - len(lc)) * 1_000_000) // n_lines if n_lines else 0,
        (dup_chars * 1_000_000) // line_chars if line_chars else 0,
        top2,
        dup5,
    )


def repetition_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Gopher-style repetition signals (Rae et al. 2021 §A1.1): the
    third classic quality-filter family next to the heuristic ratios
    (:func:`quality_batch`) and the LM perplexity score (ops/lm.py) —
    mass-duplicated lines and n-grams mark boilerplate/template text
    that both of the others can miss.

    Deterministic integer contract (every ratio a floor-division ppm so
    the DuckDB oracle reproduces values exactly, the repo convention):

    - lines = the '\\n'-separated non-empty segments of the text;
      ``dup_line_ppm`` = occurrences beyond each line's first, per
      million lines; ``dup_line_char_ppm`` = the characters of those
      beyond-first occurrences, per million line characters.
    - grams(n) = the word n-grams (shared WORD_RE words joined by one
      space); each gram occurrence weighs its joined character length.
      ``top_2gram_ppm`` = the heaviest 2-gram's total mass per million
      of all 2-gram mass (c(g) * len(g), maxed over g — a max over
      products needs no tie-break); ``dup_5gram_ppm`` = the mass of
      5-grams occurring >= 2 times per million of all 5-gram mass.
      Docs with < n words (or no lines) report 0 — no evidence.
    """
    texts = batch.column(text_col).to_pylist()
    cols: dict[str, list[int]] = {
        "n_lines": [],
        "dup_line_ppm": [],
        "dup_line_char_ppm": [],
        "top_2gram_ppm": [],
        "dup_5gram_ppm": [],
    }
    for t in texts:
        for k, v in zip(cols, repetition_signals(t or "")):
            cols[k].append(v)
    return pa.table(
        {
            "doc_id": batch.column("doc_id"),
            **{k: pa.array(v, type=pa.int64()) for k, v in cols.items()},
        }
    )


def shingle_fingerprint(text: str, k: int = 5) -> int:
    """Winnowing-style fingerprint: min 64-bit hash over word k-shingles
    (deterministic; used by near-dup and provenance ops)."""
    words = split_words(text)
    if len(words) < k:
        shingles = [" ".join(words)] if words else [""]
    else:
        shingles = [" ".join(words[i : i + k]) for i in range(len(words) - k + 1)]
    return min(
        int.from_bytes(hashlib.md5(s.encode("utf-8")).digest()[:8], "big")
        for s in shingles
    )


def predict_lang(text: str, casefold: str = "ascii") -> str:
    """Stopword/charset heuristic language id (deterministic).
    ``casefold="unicode"`` folds words with the ICU-parity mapping
    (the stopword profiles are ASCII, so this only changes which
    non-ASCII-cased words can MATCH them, e.g. fullwidth letters)."""
    fold = resolve_fold(casefold)
    for ch in text[:400]:
        if "一" <= ch <= "鿿":
            return "zh"
    words = set(fold(w) for w in split_words(text)[:200])
    best_lang, best_score = "unknown", 0
    for lang in sorted(_LANG_PROFILES):
        score = len(words & _LANG_PROFILES[lang])
        if score > best_score:
            best_lang, best_score = lang, score
    return best_lang


def langid_batch(
    batch: pa.Table, text_col: str = "text", casefold: str = "ascii"
) -> pa.Table:
    texts = batch.column(text_col).to_pylist()
    return pa.table(
        {
            "doc_id": batch.column("doc_id"),
            "predicted_lang": pa.array(
                [predict_lang(t or "", casefold=casefold) for t in texts]
            ),
        }
    )


def top_terms(ds, k: int = 100, n_shards: int | None = None,
              text_col: str = "text", casefold: str = "ascii"):
    """Corpus-wide term-frequency top-k — the classic vocabulary build.

    Scale shape: per-batch counting collapses each block to its distinct
    terms (the combiner), one :func:`deduce_ray.ops.agg.shard_exchange`
    on the term's :func:`deduce_ray.ops.agg.key_shards` merges counts
    with an Arrow ``group_by`` (a partition owns every copy of its terms,
    so its counts are complete and its top-k is a valid candidate set),
    then one task sorts the <= partitions * k candidates with Arrow into
    the exact global top-k (ties broken by term ascending).  Terms are
    compared by their bytes, so two terms that differ only after a NUL
    stay apart.
    """
    from deduce_ray.ops.agg import key_shards, merge_shards, shard_exchange

    if n_shards is None:
        n_shards = merge_shards()

    fold = resolve_fold(casefold)

    def count_batch(batch: pa.Table) -> pa.Table:
        counts: Counter = Counter()
        for t in batch.column(text_col).to_pylist():
            counts.update(split_words(fold(t or "")))
        terms = pa.array(list(counts), type=pa.string())
        return pa.table(
            {
                "term": terms,
                "n": pa.array(list(counts.values()), type=pa.int64()),
                "shard": key_shards([terms], n_shards),
            }
        )

    def top(rows: pa.Table) -> pa.Table:
        return rows.sort_by([("n", "descending"), ("term", "ascending")]).slice(0, k)

    def merge_counts(rows: pa.Table) -> pa.Table:
        merged = rows.group_by("term").aggregate([("n", "sum")])
        return top(pa.table({"term": merged["term"], "n": merged["n_sum"]}))

    merged = shard_exchange(
        ds.map_batches(count_batch, batch_format="pyarrow"), "shard", n_shards, merge_counts
    )
    return merged.repartition(1).map_batches(top, batch_size=None, batch_format="pyarrow")


def doc_sample(ds, threshold_hex: str = "1a", id_col: str = "doc_id"):
    """Deterministic hash sampling: keep rows whose md5(doc_id) hex digest
    is lexicographically below ``threshold_hex`` (2 hex chars ~ fraction
    int(threshold_hex, 16)/256).  Reproducible across cluster sizes and
    runs — the property a training-data sampling stage needs — and exactly
    reproducible in SQL (md5(CAST(id AS VARCHAR)) < threshold)."""
    import pyarrow as pa

    def keep(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_pylist()
        mask = pa.array(
            [
                hashlib.md5(str(i).encode()).hexdigest()[:len(threshold_hex)]
                < threshold_hex
                for i in ids
            ]
        )
        return batch.filter(mask)

    return ds.map_batches(keep, batch_format="pyarrow")


def corpus_report(ds, text_col: str = "text", p: int = 12) -> dict:
    """Streaming corpus statistics in ONE pass, no shuffle: a single
    map_batches emits per-(block, language) partial rows carrying
    docs/words/chars/digits/empty counts AND a per-language HyperLogLog
    register blob (2^p bytes); the driver max-merges the registers and
    sums the counts — pull is O(blocks x languages), the corpus is
    never re-read and never materializes.  Distinct-text estimates use
    the same md5-64 sketch convention as
    :func:`deduce_ray.ops.agg.approx_distinct` (null texts skipped,
    empty string is a value)."""
    import numpy as np

    from deduce_ray.ops.agg import _hll_estimate

    m = 1 << p

    def partial(batch: pa.Table) -> pa.Table:
        texts = batch.column(text_col).to_pylist()
        rows: dict[str, list[int]] = {}
        regs: dict[str, np.ndarray] = {}
        for raw_t in texts:
            t = raw_t or ""
            lang = predict_lang(t) if t else ""
            r = rows.get(lang)
            if r is None:
                r = rows[lang] = [0, 0, 0, 0, 0]
                regs[lang] = np.zeros(m, dtype=np.uint8)
            r[0] += 1
            r[1] += len(split_words(t))
            r[2] += len(t)
            r[3] += len(_DIGIT_RE.findall(t))
            r[4] += 0 if t else 1
            if raw_t is not None:  # COUNT(DISTINCT) skips nulls only
                h = int.from_bytes(
                    hashlib.md5(str(raw_t).encode()).digest()[:8], "big"
                )
                idx = h >> (64 - p)
                rest = h & ((1 << (64 - p)) - 1)
                rank = (64 - p) - rest.bit_length() + 1
                if rank > regs[lang][idx]:
                    regs[lang][idx] = rank
        langs = sorted(rows)
        cols = list(zip(*(rows[k] for k in langs))) or [[]] * 5
        return pa.table(
            {
                "lang": pa.array(langs, type=pa.string()),
                "docs": pa.array(cols[0], type=pa.int64()),
                "words": pa.array(cols[1], type=pa.int64()),
                "chars": pa.array(cols[2], type=pa.int64()),
                "digit_chars": pa.array(cols[3], type=pa.int64()),
                "empty_docs": pa.array(cols[4], type=pa.int64()),
                "registers": pa.array(
                    [regs[k].tobytes() for k in langs], type=pa.binary()
                ),
            }
        )

    frame = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    if len(frame):
        per_lang = frame.groupby("lang", sort=True).agg(
            docs=("docs", "sum"),
            words=("words", "sum"),
            chars=("chars", "sum"),
            digit_chars=("digit_chars", "sum"),
            empty_docs=("empty_docs", "sum"),
        )
    else:
        per_lang = frame.set_index("lang") if "lang" in frame else frame
    totals = per_lang.sum()
    docs = int(totals["docs"]) if len(per_lang) else 0

    merged = np.zeros(m, dtype=np.uint8)
    for blob in frame["registers"] if len(frame) else ():
        np.maximum(merged, np.frombuffer(blob, dtype=np.uint8), out=merged)
    distinct = _hll_estimate(merged) if docs else 0

    return {
        "docs": docs,
        "empty_docs": int(totals["empty_docs"]) if docs else 0,
        "words": int(totals["words"]) if docs else 0,
        "chars": int(totals["chars"]) if docs else 0,
        "words_per_doc": round(totals["words"] / docs, 2) if docs else 0.0,
        "digit_ppm": (
            int(totals["digit_chars"] * 1_000_000 // totals["chars"])
            if docs and totals["chars"]
            else 0
        ),
        "approx_distinct_texts": distinct,
        # HLL standard error ~1.6% at p=12: tiny negative rates are
        # estimator noise, clamp to 0
        "approx_exact_dup_pct": (
            round(max(0.0, 100.0 * (1 - distinct / docs)), 2) if docs else 0.0
        ),
        "langs": {
            str(lang): int(row["docs"]) for lang, row in per_lang.iterrows()
        },
    }
