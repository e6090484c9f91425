"""DuckDB oracle SQL for the SQL-decidable annotator predicates.

The flagship KG queries (kg_triples / kg_graph / kg_entities) run the full
rule engine, most of which (lexicon tries, context fixpoints, fuzzy patient
matching) is not expressible in SQL.  The *regex* predicates are:

  - datum   — the 4 date regexps (reference base_config.json:437-474)
  - bsn     — 9-digit runs passing the mod-11 elfproef
              (reference annotator.py:617-629)
  - id      — ``\\d{7,}`` (base_config.json:497-504)
  - locatie — postbus (:410-418) and postal_code (:401-409)

This module rebuilds those predicates in DuckDB's RE2 dialect so the driver
can value-check the Ray pipeline end-to-end (extract -> link -> dedup ->
graph groupby) against an independent engine:

  - Python-`regex` lookarounds ``(?<!\\d)`` / ``(?!\\d)`` become consuming
    boundary groups ``(^|[^0-9])`` / ``([^0-9]|$)`` — equivalent unless two
    matches share a boundary character, which cannot happen for the
    synthetic corpus (digit-bearing spans are isolated).
  - The ``(?P=sep)`` separator backreference (RE2 has none) is expanded to
    an explicit alternation over the 4 separators.
  - The bsn elfproef is an arithmetic WHERE clause over substrings of
    maximal digit runs (a maximal run of length exactly 9 is precisely
    ``(?<!\\d)\\d{9}(?!\\d)``).
  - Per-doc entity ids (linker.py ``TAG-n`` numbering in end_char order)
    become a window ``row_number()`` over the mention position; the
    DL<=1 reuse rule never fires within this predicate set on the corpus
    (no two same-pred mentions of one doc are within edit distance 1),
    which the side-by-side hash check itself enforces.
"""

from __future__ import annotations

from deduce_ray.corpus import sql_content_expr, sql_repo_expr

#: enabled-set for the engine run these oracles mirror
SQLPRED_ENABLED = frozenset(
    {
        "dates", "date_dmy_1", "date_dmy_2", "date_ymd_1", "date_ymd_2",
        "identifiers", "bsn", "identifier",
        "locations", "postbus", "postal_code",
        # cross-annotator overlap resolution (bsn priority-100 vs id) and
        # adjacent-merge run in post_processing; without them the 9-digit
        # elfproef runs would be double-reported as both bsn and id
        "post_processing", "overlap_resolver", "merge_adjacent_annotations",
    }
)

_DAY = "([1-9]|0[1-9]|[12][0-9]|3[01])"
_MON = "([1-9]|0[1-9]|1[012])"
_YR = r"((19|20|''|`)?\d{2})"
_YR4 = r"((19|20|''|`)\d{2})"
_MONTHS = (
    "(januari|jan|februari|feb|maart|mrt|april|apr|mei|juni|jun|juli|jul|"
    "augustus|aug|september|sep|sept|oktober|okt|november|nov|december|dec)"
)
_SEPS = ["-", "/", r"\.", " "]

_DATE_PAT = "|".join(
    ["|".join(f"{_DAY}{s}{_MON}{s}{_YR}" for s in _SEPS)]
    + [f"{_DAY}[-/\\. ]{{0,2}}{_MONTHS}[-/\\. ]{_YR}"]
    + ["|".join(f"{_YR4}{s}{_MON}{s}{_DAY}" for s in _SEPS)]
    + [f"{_YR4}[-/\\. ]{{0,2}}{_MONTHS}[-/\\. ]{_DAY}"]
)

_ELFPROEF = (
    "("
    + "+".join(
        f"(10-{i})*TRY_CAST(substring(d,{i},1) AS INT)" for i in range(1, 9)
    )
    + "-TRY_CAST(substring(d,9,1) AS INT)) % 11 = 0"
)

_POSTBUS_PAT = r"[Pp]ostbus[ \t\n][0-9]{1,5}(\.[0-9]{2,4})?"
_POSTAL_PAT = r"(\d{4}([A-Za-z]{2}| [A-Z]{2}))([^A-Za-z0-9_]|$)"


def _mentions_cte(source: str = "documents") -> str:
    """CTE chain ending in ``mentions(doc_id, repo, lang, content, pred, obj)``.

    ``source``: the (doc_id, text, lang) relation to decorate — the
    ``documents`` view by default; planted-augmentation oracles pass a
    UNION CTE instead (e.g. kg_pagerank's synthetic co-occurrence docs).
    """
    content = sql_content_expr()
    repo = sql_repo_expr()
    # MATERIALIZED: rk = row_number() OVER () has no ORDER BY, and this
    # CTE is referenced from several UNION branches.  DuckDB 1.0 inlines
    # plain CTEs, so each branch would evaluate its own window over an
    # unordered parallel scan — content-per-rk could then disagree across
    # branches (the 'locatie' numbering joins postbus + postal on rk).
    # Materializing computes rk exactly once.
    return f"""
        docs AS MATERIALIZED (
          SELECT lower(sha256({content})) AS doc_id,
                 row_number() OVER () AS rk,
                 {repo} AS repo, lang,
                 {content} AS content
          FROM {source}
        ),
        date_m AS (
          SELECT doc_id, rk, repo, lang, content, 'datum' AS pred,
                 unnest(regexp_extract_all(content,
                        '(?i)(^|[^0-9])(({_DATE_PAT}))([^0-9]|$)', 2)) AS obj
          FROM docs
        ),
        digit_runs AS (
          SELECT doc_id, rk, repo, lang, content,
                 unnest(regexp_extract_all(content, '[0-9]+')) AS d
          FROM docs
        ),
        bsn_m AS (
          SELECT doc_id, rk, repo, lang, content, 'bsn' AS pred, d AS obj
          FROM digit_runs WHERE length(d) = 9 AND {_ELFPROEF}
        ),
        id_m AS (
          SELECT doc_id, rk, repo, lang, content, 'id' AS pred, d AS obj
          FROM digit_runs
          WHERE length(d) >= 7 AND NOT (length(d) = 9 AND {_ELFPROEF})
        ),
        postbus_m AS (
          SELECT doc_id, rk, repo, lang, content, 'locatie' AS pred,
                 unnest(regexp_extract_all(content, '{_POSTBUS_PAT}')) AS obj
          FROM docs
        ),
        postal_m AS (
          SELECT doc_id, rk, repo, lang, content, 'locatie' AS pred, obj
          FROM (
            SELECT doc_id, rk, repo, lang, content,
                   unnest(regexp_extract_all(content, '{_POSTAL_PAT}', 1)) AS obj
            FROM docs
          ) WHERE substring(obj, length(obj) - 1, 2) NOT IN ('mg','MG','gr','ie')
        ),
        mentions AS (
          SELECT * FROM date_m
          UNION ALL SELECT * FROM bsn_m
          UNION ALL SELECT * FROM id_m
          UNION ALL SELECT * FROM postbus_m
          UNION ALL SELECT * FROM postal_m
        ),
        linked AS (
          -- partition by the physical row (rk), NOT the content-derived
          -- doc_id: two document rows with byte-identical content share
          -- a doc_id, but the engine links entities per ROW — a
          -- doc_id-partitioned window would number the duplicate row's
          -- mention ID-2 where the engine (correctly) repeats ID-1
          -- (found by the sf0.1 sweep: duplicated decorated contents)
          SELECT doc_id, repo, lang, pred, obj,
                 upper(pred) || '-' || CAST(row_number() OVER (
                   PARTITION BY rk, pred
                   ORDER BY strpos(content, obj) + length(obj)
                 ) AS VARCHAR) AS entity_id,
                 strpos(content, obj) - 1 AS start_char
          FROM mentions
        )
    """


def kg_dates_sql() -> str:
    content = sql_content_expr()
    return f"""
        WITH docs AS (
          SELECT lower(sha256({content})) AS doc_id, {content} AS content
          FROM documents
        )
        SELECT doc_id,
               unnest(regexp_extract_all(content,
                      '(?i)(^|[^0-9])(({_DATE_PAT}))([^0-9]|$)', 2)) AS obj
        FROM docs
    """


def kg_bsn_sql() -> str:
    content = sql_content_expr()
    return f"""
        WITH docs AS (
          SELECT lower(sha256({content})) AS doc_id, {content} AS content
          FROM documents
        ),
        runs AS (
          SELECT doc_id, unnest(regexp_extract_all(content, '[0-9]+')) AS d
          FROM docs
        )
        SELECT doc_id, d AS obj FROM runs
        WHERE length(d) = 9 AND {_ELFPROEF}
    """


def kg_postal_sql() -> str:
    content = sql_content_expr()
    return f"""
        WITH docs AS (
          SELECT lower(sha256({content})) AS doc_id, {content} AS content
          FROM documents
        ),
        cand AS (
          SELECT doc_id,
                 unnest(regexp_extract_all(content, '{_POSTAL_PAT}', 1)) AS obj
          FROM docs
        )
        SELECT doc_id, obj FROM cand
        WHERE substring(obj, length(obj) - 1, 2) NOT IN ('mg','MG','gr','ie')
    """


def kg_triples_sqlpreds_sql() -> str:
    return f"""
        WITH {_mentions_cte()}
        SELECT doc_id, pred, obj, entity_id FROM linked
    """


def kg_cooccurrence_sqlpreds_sql() -> str:
    """Entity co-occurrence edges over the SQL-decidable predicate set:
    distinct (pred, obj) mention pairs within a document, counted across
    documents — ordered pair key, one row per undirected edge."""
    return f"""
        WITH {_mentions_cte()},
        m AS (SELECT DISTINCT doc_id, pred, obj FROM linked)
        SELECT a.pred AS pred_a, a.obj AS obj_a,
               b.pred AS pred_b, b.obj AS obj_b,
               CAST(COUNT(*) AS BIGINT) AS n_docs
        FROM m a JOIN m b ON a.doc_id = b.doc_id
          AND (a.pred < b.pred OR (a.pred = b.pred AND a.obj < b.obj))
        GROUP BY pred_a, obj_a, pred_b, obj_b
    """


def kg_graph_sqlpreds_sql() -> str:
    return f"""
        WITH {_mentions_cte()}
        SELECT repo, lang, doc_id, pred, obj, entity_id,
               COUNT(*) AS n_mentions,
               MIN(start_char) AS first_start_char
        FROM linked
        GROUP BY repo, lang, doc_id, pred, obj, entity_id
    """


def kg_redacted_sqlpreds_sql() -> str:
    """Redacted-text rendering over the SQL-decidable predicate set: each
    mention is replaced by ``[ENTITY-ID]`` via a recursive CTE that applies
    one replacement per step in start_char order (mentions are disjoint
    after overlap resolution, and every mention string occurs exactly once
    in its document, so string replace equals span splice).  Mirrors the
    reference redactor (redactor.py:5-64) restricted to these tags."""
    return f"""
        WITH RECURSIVE {_mentions_cte()},
        ranked AS (
          SELECT doc_id, obj, entity_id,
                 row_number() OVER (PARTITION BY doc_id ORDER BY start_char)
                   AS rk
          FROM linked
        ),
        counts AS (SELECT doc_id, COUNT(*) AS n FROM ranked GROUP BY doc_id),
        base AS (
          SELECT d.doc_id, d.content, coalesce(c.n, 0) AS n
          FROM docs d LEFT JOIN counts c USING (doc_id)
        ),
        red(doc_id, text, k, n) AS (
          SELECT doc_id, content, 0, n FROM base
          UNION ALL
          SELECT r.doc_id,
                 replace(r.text, m.obj, '[' || m.entity_id || ']'),
                 r.k + 1, r.n
          FROM red r JOIN ranked m ON m.doc_id = r.doc_id AND m.rk = r.k + 1
          WHERE r.k < r.n
        )
        SELECT doc_id, text AS obj FROM red WHERE k = n
    """


# ---------------------------------------------------------------------------
# text-analysis / dedup oracles over the documents table
# ---------------------------------------------------------------------------

#: must mirror deduce_ray.ops.textstats.WORD_RE exactly
WORD_CLASS_SQL = r"[^ \t\n\r\f\x0b]+"

#: ASCII-only case fold — must mirror textstats.ascii_fold exactly
#: (lower() would use ICU locale-special mappings Python lacks)
SQL_ASCII_LOWER = (
    "translate({}, 'ABCDEFGHIJKLMNOPQRSTUVWXYZ',"
    " 'abcdefghijklmnopqrstuvwxyz')"
)

#: ICU-parity fold for the opt-in casefold="unicode" mode — DuckDB's
#: built-in lower() IS the contract (textstats.unicode_fold mirrors its
#: per-codepoint simple mapping exactly; see the 11,915-codepoint sweep
#: note there)
SQL_UNICODE_LOWER = "lower({})"


def sql_fold(casefold: str) -> str:
    if casefold == "ascii":
        return SQL_ASCII_LOWER
    if casefold == "unicode":
        return SQL_UNICODE_LOWER
    raise ValueError(f"casefold must be 'ascii' or 'unicode', got {casefold!r}")
_WORDS = f"regexp_extract_all(coalesce(text, ''), '{WORD_CLASS_SQL}')"

# must mirror deduce_ray.ops.textstats._LANG_PROFILES exactly
_LANG_PROFILES_SQL = {
    "en": ["the", "a", "of", "and", "to", "is", "in", "that", "it", "for"],
    "de": ["der", "die", "das", "und", "ist", "nicht", "ein", "mit", "zu", "ich"],
    "fr": ["le", "la", "les", "et", "est", "un", "une", "des", "que", "pour"],
    "es": ["el", "la", "los", "las", "es", "un", "una", "que", "para", "por"],
    "nl": ["de", "het", "een", "en", "is", "van", "dat", "niet", "met", "op"],
}


def doc_langid_sql() -> str:
    """Stopword-profile language id + per-language doc counts.  The Python
    heuristic scans langs in sorted order keeping the first strictly-better
    score, i.e. the winner is the lexicographically-smallest language
    attaining the max score (unknown when the max is 0, zh on any CJK char
    in the first 400 chars)."""
    langs = sorted(_LANG_PROFILES_SQL)
    score_cols = ", ".join(
        "len(list_intersect(ws, ["
        + ", ".join(f"'{w}'" for w in _LANG_PROFILES_SQL[lang])
        + f"])) AS s_{lang}"
        for lang in langs
    )
    mx = "greatest(" + ", ".join(f"s_{lang}" for lang in langs) + ")"
    pick = " ".join(f"WHEN s_{lang} = {mx} THEN '{lang}'" for lang in langs)
    return f"""
        WITH w AS (
          SELECT doc_id,
                 list_distinct(list_transform(({_WORDS})[1:200],
                               x -> {SQL_ASCII_LOWER.format('x')})) AS ws,
                 regexp_matches(substring(coalesce(text, ''), 1, 400), '[一-鿿]') AS zh
          FROM documents
        ),
        scores AS (SELECT doc_id, zh, {score_cols} FROM w),
        pick AS (
          SELECT doc_id,
                 CASE WHEN zh THEN 'zh'
                      WHEN {mx} = 0 THEN 'unknown'
                      {pick}
                 END AS predicted_lang
          FROM scores
        )
        SELECT predicted_lang, COUNT(*) AS n_docs
        FROM pick GROUP BY predicted_lang
    """


def shingle_fingerprint_sql(k: int = 5) -> str:
    """Winnowing fingerprint: min md5-derived 64-bit hash over word
    k-shingles.  The engine emits the hash as fixed-width lowercase hex, so
    the lexicographic MIN over hex prefixes equals the numeric min — no hex
    parsing needed."""
    return f"""
        WITH w AS (SELECT doc_id, {_WORDS} AS words FROM documents)
        SELECT doc_id,
          CASE WHEN len(words) = 0 THEN substring(md5(''), 1, 16)
               WHEN len(words) < {k} THEN
                 substring(md5(array_to_string(words, ' ')), 1, 16)
               ELSE list_min([
                 substring(md5(array_to_string(words[i:i+{k - 1}], ' ')), 1, 16)
                 FOR i IN range(1, len(words) - {k - 2})])
          END AS shingle_fp
        FROM w
    """


def _jaccard_pairs_cte(k: int = 3, threshold: float = 0.5) -> str:
    """CTE chain ending in ``pairs(id_a, id_b, jaccard)`` — brute-force
    exact word-k-shingle Jaccard over all document pairs.  The engine's
    shingle sets are md5-64bit hashes of the same shingle strings, so the
    set cardinalities (and hence Jaccard) are identical."""
    return f"""
        w AS (SELECT doc_id, {_WORDS} AS words FROM documents),
        sh AS (
          SELECT doc_id, unnest(
            CASE WHEN len(words) = 0 THEN []
                 WHEN len(words) < {k} THEN [array_to_string(words, ' ')]
                 ELSE [array_to_string(words[i:i+{k - 1}], ' ')
                       FOR i IN range(1, len(words) - {k - 2})] END) AS shingle
          FROM w
        ),
        d AS (SELECT DISTINCT doc_id, shingle FROM sh),
        sizes AS (SELECT doc_id, COUNT(*) AS n FROM d GROUP BY doc_id),
        inter AS (
          SELECT a.doc_id AS id_a, b.doc_id AS id_b, COUNT(*) AS i
          FROM d a JOIN d b ON a.shingle = b.shingle AND a.doc_id < b.doc_id
          GROUP BY a.doc_id, b.doc_id
        ),
        pairs AS (
          SELECT id_a, id_b,
                 round(CAST(i AS DOUBLE) / (sa.n + sb.n - i), 6) AS jaccard
          FROM inter
          JOIN sizes sa ON sa.doc_id = id_a
          JOIN sizes sb ON sb.doc_id = id_b
          WHERE CAST(i AS DOUBLE) / (sa.n + sb.n - i) >= {threshold}
        )
    """


def jaccard_pairs_sql(k: int = 3, threshold: float = 0.5) -> str:
    return f"""
        WITH {_jaccard_pairs_cte(k, threshold)}
        SELECT id_a, id_b, jaccard FROM pairs
    """


def simhash_pairs_sql(max_hamming: int = 3) -> str:
    """Brute-force simhash near-dup oracle: rebuild the engine's 64-bit
    simhash (deduce_ray.ops.dedup.simhash64) entirely in SQL, then compare
    ALL document pairs on Hamming distance.

    Exactness argument: the engine's word hash is the big-endian first 8
    bytes of md5(word) — identical to ``CAST('0x' || substr(md5(w),1,16) AS
    UBIGINT)`` — and bit i of the simhash is set iff 2*count(words with bit
    i set) > n_words (strict, matching ``acc > 0`` in _simhash_from_words).
    The engine's 4x16-bit band bucketing has guaranteed recall for Hamming
    <= 3 (pigeonhole: <= 3 differing bits leave one band intact), so its
    pair set equals this all-pairs scan exactly.  Word-less documents are
    skipped by the engine and produce no rows here either."""
    return f"""
        WITH w AS (
          SELECT doc_id,
                 unnest(regexp_extract_all(coalesce(text,''),
                        '{WORD_CLASS_SQL}')) AS word
          FROM documents
        ),
        h AS (
          SELECT doc_id,
                 CAST(('0x' || substr(md5(word),1,16)) AS UBIGINT) AS h64
          FROM w
        ),
        counts AS (SELECT doc_id, COUNT(*) AS n FROM h GROUP BY doc_id),
        bits AS (
          SELECT h.doc_id, b.i,
                 SUM(CASE WHEN (h.h64 >> b.i) & 1::UBIGINT = 1
                          THEN 1 ELSE 0 END) AS set_cnt
          FROM h CROSS JOIN (SELECT unnest(generate_series(0, 63)) AS i) b
          GROUP BY h.doc_id, b.i
        ),
        sim AS (
          SELECT bits.doc_id,
                 bit_or(CASE WHEN 2 * set_cnt > counts.n
                             THEN (1::UBIGINT << bits.i)
                             ELSE 0::UBIGINT END) AS simhash
          FROM bits JOIN counts USING (doc_id)
          GROUP BY bits.doc_id
        )
        SELECT a.doc_id AS id_a, b.doc_id AS id_b,
               CAST(bit_count(xor(a.simhash, b.simhash)) AS BIGINT) AS hamming
        FROM sim a JOIN sim b ON a.doc_id < b.doc_id
        WHERE bit_count(xor(a.simhash, b.simhash)) <= {max_hamming}
    """


def neardup_clusters_sql(k: int = 3, threshold: float = 0.5) -> str:
    """Connected components over the exact-Jaccard pair graph via a
    recursive transitive closure (tractable because near-dup components are
    tiny); cluster_id = min doc id reachable."""
    return f"""
        WITH RECURSIVE {_jaccard_pairs_cte(k, threshold)},
        edges AS (
          SELECT id_a AS a, id_b AS b FROM pairs
          UNION SELECT id_b, id_a FROM pairs
          UNION SELECT id_a, id_a FROM pairs
          UNION SELECT id_b, id_b FROM pairs
        ),
        reach(a, b) AS (
          SELECT a, b FROM edges
          UNION
          SELECT r.a, e.b FROM reach r JOIN edges e ON r.b = e.a
        )
        SELECT a AS doc_id, MIN(b) AS cluster_id FROM reach GROUP BY a
    """


def kg_entities_sqlpreds_sql() -> str:
    return f"""
        WITH {_mentions_cte()}
        SELECT pred, lower(obj) AS obj_norm, COUNT(*) AS n_mentions
        FROM linked
        GROUP BY pred, lower(obj)
    """


def kg_entities_canonical_sqlpreds_sql() -> str:
    """Cross-document entity canonicalization oracle: per predicate,
    cluster surface forms within Damerau-Levenshtein distance 1 via a
    recursive transitive closure, then pick each cluster's canonical
    (max mentions, ties to the lexicographically smallest form) — the
    independent replica of rayops.kg.canonicalize_entities' form codes ->
    length-block exchange -> DL1 code pairs -> driver components ->
    canonical pick.

    DuckDB's ``damerau_levenshtein`` is the unrestricted metric and the
    engine's ``within_edit_distance_one`` is OSA; at a bound of 1 the two
    coincide (a single transposition is one edit in both)."""
    return f"""
        WITH RECURSIVE {_mentions_cte()},
        counted AS (
          SELECT pred, lower(obj) AS obj_norm, COUNT(*) AS n_mentions
          FROM linked
          GROUP BY pred, lower(obj)
        ),
        e AS (
          SELECT a.pred, a.obj_norm AS fa, b.obj_norm AS fb
          FROM counted a JOIN counted b
            ON a.pred = b.pred AND a.obj_norm < b.obj_norm
          WHERE abs(length(a.obj_norm) - length(b.obj_norm)) <= 1
            AND damerau_levenshtein(a.obj_norm, b.obj_norm) <= 1
        ),
        sym AS (
          SELECT pred, fa AS a, fb AS b FROM e
          UNION SELECT pred, fb, fa FROM e
          UNION SELECT pred, obj_norm, obj_norm FROM counted
        ),
        reach(pred, a, b) AS (
          SELECT pred, a, b FROM sym
          UNION
          SELECT r.pred, r.a, s.b
          FROM reach r JOIN sym s ON r.pred = s.pred AND r.b = s.a
        ),
        clusters AS (
          SELECT pred, a AS obj_norm, MIN(b) AS cluster
          FROM reach GROUP BY pred, a
        ),
        labeled AS (
          SELECT c.pred, c.obj_norm, c.cluster, f.n_mentions
          FROM clusters c
          JOIN counted f ON c.pred = f.pred AND c.obj_norm = f.obj_norm
        ),
        best AS (
          SELECT pred, cluster, obj_norm AS canonical FROM (
            SELECT pred, cluster, obj_norm,
                   row_number() OVER (
                     PARTITION BY pred, cluster
                     ORDER BY n_mentions DESC, obj_norm
                   ) AS rn
            FROM labeled
          ) WHERE rn = 1
        )
        SELECT l.pred, l.obj_norm, b.canonical, l.n_mentions
        FROM labeled l
        JOIN best b ON l.pred = b.pred AND l.cluster = b.cluster
    """


def minhash_planted_pairs_sql(
    every: int = 10, id_offset: int = 100_000_000
) -> str:
    """Oracle for the planted-pair view of SIGNATURE-mode minhash: a
    planted copy is byte-identical to its original, so the two share
    every permutation minimum — signature agreement is exactly
    64/64 = 1.0 >= any threshold and LSH bucket recall is exactly 1 in
    every banding.  The expected planted pair set is therefore just
    "every ``every``-th doc that has at least one word" (word-less docs
    are dropped by the signature stage and skipped by the collapse
    keyer, identically)."""
    return f"""
        SELECT doc_id AS id_a,
               doc_id + {id_offset} AS id_b,
               1.0 AS jaccard
        FROM documents
        WHERE doc_id % {every} = 0
          AND len(regexp_extract_all(coalesce(text, ''),
                  '{WORD_CLASS_SQL}')) > 0
    """


def dup_spans_sql(n: int = 13, min_docs: int = 2) -> str:
    """Oracle for cross-document duplicated n-gram spans
    (:func:`deduce_ray.ops.substring.duplicated_ngram_spans`): unnest
    every n-word window, keep windows whose exact word sequence occurs
    in >= ``min_docs`` distinct documents, and merge chained windows
    (starts <= n apart) into maximal intervals with the classic
    gaps-and-islands window pattern."""
    return f"""
        WITH words AS (
          SELECT doc_id,
                 regexp_extract_all(coalesce(text, ''),
                                    '{WORD_CLASS_SQL}') AS w
          FROM documents
        ),
        grams AS (
          SELECT doc_id, pos, array_to_string(w[pos+1:pos+{n}], ' ') AS g
          FROM (SELECT doc_id, w, unnest(range(len(w)-{n}+1)) AS pos
                FROM words WHERE len(w) >= {n})
        ),
        dup AS (
          SELECT g FROM grams GROUP BY g
          HAVING count(DISTINCT doc_id) >= {min_docs}
        ),
        hits AS (SELECT doc_id, pos FROM grams JOIN dup USING (g)),
        islands AS (
          SELECT doc_id, pos,
                 CASE WHEN pos - lag(pos) OVER (PARTITION BY doc_id
                                                ORDER BY pos) <= {n}
                      THEN 0 ELSE 1 END AS brk
          FROM hits
        ),
        grp AS (
          SELECT doc_id, pos,
                 sum(brk) OVER (PARTITION BY doc_id ORDER BY pos) AS gid
          FROM islands
        )
        SELECT doc_id, min(pos) AS start_word, max(pos) + {n} AS end_word
        FROM grp GROUP BY doc_id, gid
    """


def hll_distinct_sql(
    table: str = "events",
    key: str = "event_type",
    value_col: str = "user_id",
    p: int = 12,
) -> str:
    """Reproduce the HyperLogLog sketch of
    :func:`deduce_ray.ops.agg.approx_distinct` EXACTLY in SQL — not an
    exact-distinct comparison but the same estimator, bit for bit:

    - hash = big-endian first 8 bytes of md5(str(value)), which DuckDB
      yields as ``('0x' || substring(md5(v), 1, 16))::UBIGINT``;
    - bucket = top ``p`` bits; rank = (64-p) - bit_length(rest) + 1,
      with bit_length taken EXACTLY as length(bin(rest)) — a
      floor(log2()) formulation is off by one for rest values just
      below a power of two above 2^49 (float rounding), which would
      break the bit-for-bit claim on ~19 of the 2^52 rest values;
    - registers = max rank per bucket; empty buckets contribute
      2^0 = 1 to the harmonic sum and count as zeros;
    - key groups whose values are ALL NULL survive (SQL GROUP BY
      semantics, matching the op) with an all-zero register array,
      estimating 0 through the linear-counting branch;
    - bias-corrected estimate with the small-range linear-counting
      correction (Flajolet et al. 2007), rounded to BIGINT.

    Python rounds half-to-even and SQL half-away-from-zero: a mismatch
    needs the float estimate to land on an exact .5 — negligible.
    """
    m = 1 << p
    rest_bits = 64 - p
    return f"""
        WITH all_keys AS (
          SELECT DISTINCT {key} FROM {table}
        ),
        vals AS (
          SELECT {key},
                 ('0x' || substring(md5(CAST({value_col} AS VARCHAR)),
                                    1, 16))::UBIGINT AS h
          FROM {table}
          WHERE {value_col} IS NOT NULL
        ),
        buckets AS (
          SELECT {key},
                 CAST(h >> {rest_bits} AS BIGINT) AS idx,
                 CAST(h & ((1::UBIGINT << {rest_bits}) - 1) AS BIGINT)
                   AS rest
          FROM vals
        ),
        ranks AS (
          SELECT {key}, idx,
                 MAX(CASE WHEN rest = 0 THEN {rest_bits + 1}
                          ELSE {rest_bits + 1} - length(bin(rest))
                     END) AS rnk
          FROM buckets GROUP BY {key}, idx
        ),
        est AS (
          SELECT k.{key},
                 (0.7213 / (1 + 1.079/{m})) * {m}.0 * {m}.0 /
                   (coalesce(SUM(power(2.0, -r.rnk)), 0)
                    + ({m} - COUNT(r.idx))) AS raw,
                 {m} - COUNT(r.idx) AS zeros
          FROM all_keys k LEFT JOIN ranks r
            ON r.{key} IS NOT DISTINCT FROM k.{key}
          GROUP BY k.{key}
        )
        SELECT {key},
               CAST(round(CASE WHEN raw <= 2.5*{m} AND zeros > 0
                               THEN {m}.0 * ln({m}.0 / zeros) ELSE raw END)
                    AS BIGINT) AS approx_distinct
        FROM est
    """


def media_features_sql(dim: int = 32) -> str:
    """DuckDB reproduction of the media feature pipeline — computed from
    the SEED, not the payload.

    The synthesized corpus (ops.multimodal.synthesize_media_batch)
    derives every payload's signal bytes by tiling
    ``sha256('media:' || doc_id)``, then REALLY encodes them (PNG with
    zlib DEFLATE + paeth filtering, P6 PPM, PCM WAV).  The Ray query
    runs seed -> encode -> decode -> integer-exact pooling
    (MediaFeatureExtractor's floor-micro contract); this oracle runs
    seed -> pooling directly, so a value match proves the codec
    round-trip AND the feature math end-to-end.  DuckDB's sha256()
    matches hashlib byte for byte.

    Shapes mirrored from the synthesizer: doc_id % 3 == 0 -> WAV audio
    (2048 int16 LE samples from a 4096-byte tile, full scale 32768);
    else an image, w = 16 + (i%8)*16, h = 16 + (i%5)*16, pixel j's
    r+g+b = 3 consecutive tiled bytes (full scale 765).  Floored
    modulo for w/h mirrors Python % on negative doc_ids.

    CLOSED-FORM pooling (round-5 rewrite; the original per-pixel
    UNNEST was 5.1B rows at sf10 and OOMed DuckDB): every feature bin
    covers a CONSECUTIVE window of the 32-byte-periodic tiled stream —
    image bin d is bytes [3qd, 3q(d+1)) with q = w*h/{dim}, audio bin d
    is bytes [128d, 128(d+1)) = exactly 4 digest cycles — so bin sums
    are (full cycles) * (digest total) + a cyclic prefix-sum window.
    One row per (doc, dim), no per-pixel rows at any scale.
    """
    return f"""
        WITH dims AS (
          SELECT doc_id AS i,
                 CASE WHEN doc_id % 3 = 0 THEN 'audio' ELSE 'image' END AS kind,
                 16 + ((doc_id % 8 + 8) % 8) * 16 AS w,
                 16 + ((doc_id % 5 + 5) % 5) * 16 AS h,
                 sha256('media:' || CAST(doc_id AS VARCHAR)) AS hx
          FROM documents
        ),
        digest AS (  -- bs: the 32 digest bytes (1-indexed list) per doc
          SELECT i, list(('0x' || substr(hx, 2*k + 1, 2))::BIGINT ORDER BY k) AS bs
          FROM dims, generate_series(0, 31) AS g(k)
          GROUP BY i, hx
        ),
        pre AS (  -- ps[k+1] = sum of the first k bytes (cyclic prefix;
                  -- coalesce: DuckDB sums an empty slice to NULL, and
                  -- ps[1] must be 0) + the per-cycle signed-int16 sum
          SELECT i, bs,
                 list_transform(generate_series(0, 32),
                                k -> coalesce(
                                  list_aggregate(bs[1:k], 'sum'), 0)) AS ps,
                 list_aggregate(list_transform(generate_series(0, 31),
                   k -> CASE WHEN k % 2 = 0 THEN bs[k + 1]
                             WHEN bs[k + 1] >= 128
                             THEN 256 * bs[k + 1] - 65536
                             ELSE 256 * bs[k + 1] END), 'sum') AS s_cycle
          FROM digest
        ),
        img AS (  -- image bin d: bytes [3qd, 3q(d+1)) of the tiled stream
          SELECT d.i, t.d AS dim,
                 (3 * (d.w * d.h // {dim}) // 32) * p.ps[33]
                 + CASE WHEN (3 * (d.w * d.h // {dim}) * t.d) % 32
                             + (3 * (d.w * d.h // {dim})) % 32 <= 32
                        THEN p.ps[(3 * (d.w * d.h // {dim}) * t.d) % 32
                                  + (3 * (d.w * d.h // {dim})) % 32 + 1]
                             - p.ps[(3 * (d.w * d.h // {dim}) * t.d) % 32 + 1]
                        ELSE p.ps[33]
                             - p.ps[(3 * (d.w * d.h // {dim}) * t.d) % 32 + 1]
                             + p.ps[(3 * (d.w * d.h // {dim}) * t.d) % 32
                                    + (3 * (d.w * d.h // {dim})) % 32 - 31]
                   END AS s,
                 765 * (d.w * d.h // {dim}) AS denom
          FROM dims d
          JOIN pre p USING (i),
               UNNEST(generate_series(0, {dim - 1})) AS t(d)
          WHERE d.kind = 'image'
        ),
        aud AS (  -- audio bin: exactly 4 digest cycles of signed LE int16
          -- (2048 samples / {dim} bins = 64 samples = 128 bytes = 4x32);
          -- lo bytes sit at even cycle offsets, hi at odd
          SELECT d.i, t.d AS dim,
                 4 * p.s_cycle AS s,
                 32768 * (2048 // {dim}) AS denom
          FROM dims d
          JOIN pre p USING (i),
               UNNEST(generate_series(0, {dim - 1})) AS t(d)
          WHERE d.kind = 'audio'
        ),
        pooled AS (
          SELECT * FROM img UNION ALL SELECT * FROM aud
        )
        SELECT p.i AS media_id, d.kind,
               CAST(p.dim AS INT) AS dim,
               FLOOR(p.s * 1000000.0 / p.denom) / 1e6 AS value
        FROM pooled p JOIN dims d ON d.i = p.i
    """


def media_features_jpeg_sql(dim: int = 32, id_offset: int = 0) -> str:
    """DuckDB reproduction of the JPEG media feature pipeline —
    computed from the SEED, not the payload.

    synthesize_media_jpeg_batch derives 8x8 BLOCK-CONSTANT grayscale
    images from ``sha256('media:' || doc_id)`` (block b's luma = digest
    byte b % 32) and really encodes them as baseline JPEG at quality
    100 (ops/jpeg.py).  Block-constant pixels survive that pipeline
    bit-exactly (single integer DC coefficient, quantizer step 1), so
    this oracle recomputes the floor-micro features straight from the
    seed: gray pixel v contributes r+g+b = 3v (the gray-PNG
    convention), pooled over ``q = w*h/dim`` flat pixels per dim.

    Pixels are aggregated in GROUPS OF 8: w and h are multiples of 16,
    so q is a multiple of 8 and every run of 8 flat pixels lies in one
    row inside one 8x8 block — an 8x smaller UNNEST than per-pixel.
    Floored modulo for w/h mirrors Python % on negative doc_ids.
    """
    return f"""
        WITH dims AS (
          SELECT doc_id AS i,
                 16 + ((doc_id % 8 + 8) % 8) * 16 AS w,
                 16 + ((doc_id % 5 + 5) % 5) * 16 AS h,
                 sha256('media:' || CAST(doc_id AS VARCHAR)) AS hx
          FROM documents
        ),
        digest AS (
          SELECT i, list(('0x' || substr(hx, 2*k + 1, 2))::BIGINT ORDER BY k) AS bs
          FROM dims, generate_series(0, 31) AS g(k)
          GROUP BY i, hx
        ),
        grp AS (  -- bin d covers 8-pixel groups [d*w*h/{dim * 8},
                  -- (d+1)*w*h/{dim * 8}); each group is one row of one
                  -- 8x8 block, so its 8 pixels share one digest byte.
                  -- The whole bin folds into ONE list expression per
                  -- (doc, dim) row — no per-pixel/per-group unnest, so
                  -- the oracle stays 32 rows/doc at every scale
          SELECT d.i, t.d AS dim,
                 24 * list_aggregate(list_transform(
                       generate_series(
                         (d.w * d.h // {dim * 8}) * t.d,
                         (d.w * d.h // {dim * 8}) * (t.d + 1) - 1),
                       g -> bs[((((8*g) // d.w) // 8) * (d.w // 8)
                                + ((8*g) % d.w) // 8) % 32 + 1]),
                     'sum') AS s,
                 765 * (d.w * d.h // {dim}) AS denom
          FROM dims d
          JOIN digest USING (i),
               UNNEST(generate_series(0, {dim - 1})) AS t(d)
        )
        SELECT grp.i + {int(id_offset)} AS media_id, 'image' AS kind,
               CAST(grp.dim AS INT) AS dim,
               FLOOR(grp.s * 1000000.0 / grp.denom) / 1e6 AS value
        FROM grp
    """


def media_features_combined_sql(dim: int = 32) -> str:
    """One oracle for the combined media corpus: the PPM/PNG/WAV rows
    (media_features_sql) plus the JPEG rows at their media_id offset —
    matching __ray_entry__._q_media_features' union of the two
    synthesizers, so ONE registered query value-checks every codec."""
    from deduce_ray.ops.multimodal import JPEG_MEDIA_OFFSET

    # each side is a full WITH...SELECT: wrap as subqueries to union
    return (
        f"SELECT * FROM ({media_features_sql(dim)}) UNION ALL "
        f"SELECT * FROM ("
        f"{media_features_jpeg_sql(dim, id_offset=JPEG_MEDIA_OFFSET)})"
    )


#: planted co-occurrence corpus for the pagerank oracle — mirrored
#: byte-for-byte by __ray_entry__._planted_repo_table
PAGERANK_PLANT_K = 13
PAGERANK_PLANT_M = 52
PAGERANK_PLANT_BASE_DOC = 10_000_000
PAGERANK_PLANT_BASE_ENT = 90_000_000


def pagerank_planted_docs_sql() -> str:
    """(doc_id, text, lang) rows of the planted co-occurrence corpus:
    52 synthetic docs, each mentioning three of 13 planted 8-digit
    ``id`` entities (a = j%13, b = (3j+1)%13, c = (7j+2)%13) — an
    IRREGULAR multi-degree graph, so the oracle checks genuinely
    non-uniform PageRank scores (the natural sqlpreds graph at small
    sf decomposes into per-doc cliques whose fixpoint is uniform — a
    weak check).  8-digit runs hit the ``id`` predicate and can never
    collide with the 9-digit bsn elfproef class."""
    k, ent = PAGERANK_PLANT_K, PAGERANK_PLANT_BASE_ENT
    return f"""
        SELECT {PAGERANK_PLANT_BASE_DOC} + j AS doc_id,
               'planted ' || CAST({ent} + (j % {k}) AS VARCHAR)
                 || ' en ' || CAST({ent} + ((3*j + 1) % {k}) AS VARCHAR)
                 || ' en ' || CAST({ent} + ((7*j + 2) % {k}) AS VARCHAR)
                 AS text,
               'en' AS lang
        FROM UNNEST(generate_series(0, {PAGERANK_PLANT_M - 1})) AS t(j)
    """


def kg_pagerank_sqlpreds_sql(
    damping: float = 0.85, n_iter: int = 5
) -> str:
    """PageRank over the sqlpreds co-occurrence graph AUGMENTED with the
    planted irregular corpus (pagerank_planted_docs_sql), the recurrence
    UNROLLED (fixed n_iter, so plain CTE chaining suffices — no
    recursive CTE needed): arcs are both directions of the distinct
    within-doc mention pairs, rank_0 = 1/N over nodes with >= 1 edge,
    planted ids separated by filler words (adjacent same-tag mentions
    would otherwise be MERGED by the engine's merge_adjacent pass),
    rank_t = (1-d)/N + d * SUM(rank_{t-1}(src)/outdeg(src)) over
    in-arcs.  The symmetrized graph has no dangling nodes, so the
    recurrence needs no dangling-mass term; the final score rounds to
    6 decimals like every float output (iteration arithmetic is
    float64 on both sides, and the summation-order difference is
    ~1e-15 relative — far below the rounding grain)."""
    d = float(damping)
    iters = []
    for t in range(1, int(n_iter) + 1):
        iters.append(f"""
        r{t} AS (
          SELECT e.dp AS p, e.dob AS o,
                 {1.0 - d}/nn.n + {d} * SUM(r{t - 1}.r / deg.dg) AS r
          FROM e
          JOIN r{t - 1} ON r{t - 1}.p = e.sp AND r{t - 1}.o = e.so
          JOIN deg ON deg.sp = e.sp AND deg.so = e.so, nn
          GROUP BY e.dp, e.dob, nn.n
        )""")
    return f"""
        WITH synth AS ({pagerank_planted_docs_sql()}),
        docs_src AS (
          SELECT doc_id, text, lang FROM documents
          UNION ALL SELECT doc_id, text, lang FROM synth
        ),
        {_mentions_cte(source="docs_src")},
        m AS (SELECT DISTINCT doc_id, pred, obj FROM linked),
        und AS (
          SELECT a.pred AS pa_, a.obj AS oa_, b.pred AS pb_, b.obj AS ob_
          FROM m a JOIN m b ON a.doc_id = b.doc_id
            AND (a.pred < b.pred OR (a.pred = b.pred AND a.obj < b.obj))
          GROUP BY 1, 2, 3, 4
        ),
        e AS (
          SELECT pa_ AS sp, oa_ AS so, pb_ AS dp, ob_ AS dob FROM und
          UNION ALL
          SELECT pb_, ob_, pa_, oa_ FROM und
        ),
        deg AS (
          SELECT sp, so, CAST(COUNT(*) AS DOUBLE) AS dg
          FROM e GROUP BY sp, so
        ),
        nn AS (SELECT CAST(COUNT(*) AS DOUBLE) AS n FROM deg),
        r0 AS (SELECT sp AS p, so AS o, 1.0 / nn.n AS r FROM deg, nn),
        {",".join(iters)}
        SELECT p AS pred, o AS obj, ROUND(r, 6) AS score
        FROM r{int(n_iter)}
    """


def lm_perplexity_sql() -> str:
    """DuckDB mirror of :func:`deduce_ray.ops.lm.lm_perplexity` at
    ``min_count=1`` (self-perplexity: the bigram model is trained on the
    same documents table it scores).  Must track ops/lm.py exactly:
    words = WORD_CLASS_SQL tokens, V = count(DISTINCT word) corpus-wide,
    ctx(w1) = sum of pair counts with left word w1, add-one smoothing,
    natural log, avg rounded to 4 / exp(-avg) rounded to 2, docs with
    < 2 words absent (no bigram -> no row, the JOIN gives it for free)."""
    return f"""
        WITH words AS (
          SELECT doc_id,
                 regexp_extract_all(coalesce(text, ''),
                                    '{WORD_CLASS_SQL}') AS w
          FROM documents
        ),
        toks AS (SELECT unnest(w) AS tok FROM words),
        v AS (SELECT count(DISTINCT tok) AS vocab FROM toks),
        bi AS (
          SELECT doc_id, w[pos + 1] AS w1, w[pos + 2] AS w2
          FROM (SELECT doc_id, w, unnest(range(len(w) - 1)) AS pos
                FROM words WHERE len(w) >= 2)
        ),
        counts AS (
          SELECT w1, w2, count(*)::BIGINT AS n FROM bi GROUP BY 1, 2
        ),
        ctx AS (SELECT w1, sum(n)::BIGINT AS n1 FROM counts GROUP BY 1),
        scored AS (
          SELECT bi.doc_id,
                 ln((c.n + 1)::DOUBLE
                    / (x.n1 + (SELECT vocab FROM v))) AS lp
          FROM bi
          JOIN counts c USING (w1, w2)
          JOIN ctx x USING (w1)
        )
        SELECT doc_id,
               count(*)::BIGINT AS n_bigrams,
               round(avg(lp), 4) AS avg_logprob,
               round(exp(-avg(lp)), 2) AS ppl
        FROM scored
        GROUP BY doc_id
    """


def tfidf_sql(vocab_size: int = 128, casefold: str = "ascii") -> str:
    """DuckDB mirror of :func:`deduce_ray.ops.vectorize.tfidf_terms`.
    Must track it exactly: ASCII-case-folded WORD_CLASS_SQL terms, N = count of
    ALL document rows, vocab = top-k by (df DESC, term ASC), smoothed
    idf ln((N+1)/(df+1)) + 1, per-doc L2 norm over vocab terms only,
    weight rounded to 6 (ln/sqrt match numpy's libm to <= 1 ulp)."""
    return f"""
        WITH w AS (
          SELECT doc_id,
                 unnest(list_transform(
                   regexp_extract_all(coalesce(text, ''),
                                      '{WORD_CLASS_SQL}'),
                   x -> {sql_fold(casefold).format('x')})) AS term
          FROM documents
        ),
        tc AS (
          SELECT doc_id, term, count(*)::BIGINT AS c
          FROM w GROUP BY doc_id, term
        ),
        n AS (SELECT count(*)::BIGINT AS n_docs FROM documents),
        vocab AS (
          SELECT term,
                 ln(((SELECT n_docs FROM n) + 1)::DOUBLE / (df + 1)) + 1
                   AS idf
          FROM (SELECT term, count(*)::BIGINT AS df FROM tc GROUP BY term)
          ORDER BY df DESC, term ASC LIMIT {int(vocab_size)}
        ),
        weights AS (
          SELECT tc.doc_id, tc.term, tc.c * v.idf AS wt
          FROM tc JOIN vocab v USING (term)
        ),
        nrm AS (
          SELECT doc_id, sqrt(sum(wt * wt)) AS l2 FROM weights
          GROUP BY doc_id
        )
        SELECT weights.doc_id, weights.term,
               round(weights.wt / nrm.l2, 6) AS weight
        FROM weights JOIN nrm USING (doc_id)
    """


def repetition_sql() -> str:
    """DuckDB mirror of
    :func:`deduce_ray.ops.textstats.repetition_batch` (Gopher-style
    repetition signals).  Must track it exactly: lines = non-empty
    chr(10)-separated segments, grams = WORD_CLASS_SQL words joined by
    one space, every ratio an integer floor-division ppm, docs with no
    lines / < n words report 0."""

    def gram_stats(n: int, alias: str, agg: str) -> str:
        # per-doc gram mass stats for word n-grams (slice w[i:i+n-1] is
        # inclusive, the decontaminate oracle's convention)
        return f"""
        {alias}_g AS (
          SELECT doc_id, array_to_string(w[i:i+{n - 1}], ' ') AS g
          FROM words, UNNEST(generate_series(1, len(w) - {n - 1})) AS t(i)
          WHERE len(w) >= {n}
        ),
        {alias} AS (
          SELECT doc_id, ({agg})::BIGINT AS mass,
                 sum(c * len)::BIGINT AS total
          FROM (SELECT doc_id, g, count(*)::BIGINT AS c,
                       length(g)::BIGINT AS len
                FROM {alias}_g GROUP BY doc_id, g)
          GROUP BY doc_id
        )"""

    return f"""
        WITH lines AS (
          SELECT doc_id, l, length(l)::BIGINT AS len
          FROM (SELECT doc_id,
                       unnest(string_split(coalesce(text, ''), chr(10))) AS l
                FROM documents)
          WHERE length(l) > 0
        ),
        line_stats AS (
          SELECT doc_id,
                 count(*)::BIGINT AS n_lines,
                 (count(*) - count(DISTINCT l))::BIGINT AS n_dup,
                 sum(len)::BIGINT AS line_chars
          FROM lines GROUP BY doc_id
        ),
        line_dup AS (
          SELECT doc_id, sum((c - 1) * len)::BIGINT AS dup_chars
          FROM (SELECT doc_id, l, count(*)::BIGINT AS c, len
                FROM lines GROUP BY doc_id, l, len)
          GROUP BY doc_id
        ),
        words AS (
          SELECT doc_id,
                 regexp_extract_all(coalesce(text, ''),
                                    '{WORD_CLASS_SQL}') AS w
          FROM documents
        ),
        {gram_stats(2, "g2", "max(c * len)")},
        {gram_stats(5, "g5", "sum(CASE WHEN c >= 2 THEN c * len ELSE 0 END)")}
        SELECT d.doc_id,
               coalesce(ls.n_lines, 0) AS n_lines,
               coalesce((ls.n_dup * 1000000) // ls.n_lines, 0)
                 AS dup_line_ppm,
               coalesce((ld.dup_chars * 1000000) // ls.line_chars, 0)
                 AS dup_line_char_ppm,
               coalesce((g2.mass * 1000000) // g2.total, 0) AS top_2gram_ppm,
               coalesce((g5.mass * 1000000) // g5.total, 0) AS dup_5gram_ppm
        FROM documents d
        LEFT JOIN line_stats ls USING (doc_id)
        LEFT JOIN line_dup ld USING (doc_id)
        LEFT JOIN g2 USING (doc_id)
        LEFT JOIN g5 USING (doc_id)
    """
