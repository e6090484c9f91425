"""Property-based tests over core primitives (hypothesis)."""

import re

from hypothesis import given, settings
from hypothesis import strategies as st

from deduce_ray.annotation import Annotation, AnnotationSet
from deduce_ray.matching import within_edit_distance_one
from deduce_ray.processors import OverlapResolver
from deduce_ray.tokenizer import TOKEN_RE, WordTokenizer


def dl_distance(a: str, b: str) -> int:
    """Reference O(n*m) Damerau-Levenshtein (restricted)."""
    la, lb = len(a), len(b)
    dist = [[0] * (lb + 1) for _ in range(la + 1)]
    for i in range(la + 1):
        dist[i][0] = i
    for j in range(lb + 1):
        dist[0][j] = j
    for i in range(1, la + 1):
        for j in range(1, lb + 1):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            dist[i][j] = min(
                dist[i - 1][j] + 1, dist[i][j - 1] + 1, dist[i - 1][j - 1] + cost
            )
            if (
                i > 1
                and j > 1
                and a[i - 1] == b[j - 2]
                and a[i - 2] == b[j - 1]
            ):
                dist[i][j] = min(dist[i][j], dist[i - 2][j - 2] + 1)
    return dist[la][lb]


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet="abcde", max_size=8), st.text(alphabet="abcde", max_size=8))
def test_edit_distance_one_matches_dp(a, b):
    assert within_edit_distance_one(a, b) == (dl_distance(a, b) <= 1)


@settings(max_examples=100, deadline=None)
@given(st.text(max_size=200))
def test_tokenizer_spans_are_consistent(text):
    tokens = WordTokenizer().tokenize(text)
    prev_end = -1
    for tok in tokens:
        # span maps back to the source text and tokens never overlap
        assert text[tok.start_char : tok.end_char] == tok.text
        assert tok.start_char >= prev_end
        prev_end = tok.end_char
        # 1-3 space runs are never tokens
        assert not re.fullmatch(r" {1,3}", tok.text)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=40),
            st.integers(min_value=1, max_value=12),
            st.sampled_from(["a", "b", "c"]),
            st.integers(min_value=0, max_value=3),
        ),
        max_size=8,
    )
)
def test_overlap_resolver_output_never_overlaps(spans):
    text = "x" * 64
    annotations = AnnotationSet(
        Annotation(text[s : s + ln], s, s + ln, tag, priority=prio)
        for s, ln, tag, prio in spans
        if s + ln <= len(text)
    )
    resolver = OverlapResolver(
        sort_by=("priority", "length"),
        sort_by_callbacks={"priority": lambda x: -x, "length": lambda x: -x},
    )
    resolved = resolver.process_annotations(annotations, text)

    # outputs are non-overlapping and cover exactly the input's character set
    covered = []
    for ann in resolved:
        covered.append((ann.start_char, ann.end_char))
    covered.sort()
    for (s1, e1), (s2, _) in zip(covered, covered[1:]):
        assert e1 <= s2

    want_chars = set()
    for ann in annotations:
        want_chars.update(range(ann.start_char, ann.end_char))
    got_chars = set()
    for s, e in covered:
        got_chars.update(range(s, e))
    assert got_chars == want_chars


@settings(max_examples=60, deadline=None)
@given(st.text(alphabet="ab cd-", max_size=60))
def test_token_regex_covers_all_nonspace(text):
    # every non-space character lands in exactly one token
    spans = [(m.start(), m.end()) for m in TOKEN_RE.finditer(text)]
    in_token = set()
    for s, e in spans:
        for i in range(s, e):
            assert i not in in_token
            in_token.add(i)
    for i, ch in enumerate(text):
        if ch != " ":
            assert i in in_token


@settings(max_examples=150, deadline=None)
@given(st.text(alphabet="ab \t\n", max_size=60))
def test_word_shingles_properties(text):
    """Shingle sets are deterministic, distinct-valued, and empty iff the
    text has no words under the shared splitter."""
    import numpy as np

    from deduce_ray.ops.dedup import word_shingles
    from deduce_ray.ops.textstats import split_words

    a = word_shingles(text)
    b = word_shingles(text)
    assert np.array_equal(a, b)
    assert len(np.unique(a)) == len(a)
    assert (len(a) == 0) == (len(split_words(text)) == 0)
    words = split_words(text)
    if words:
        # shingle count bounded by window count
        assert len(a) <= max(1, len(words) - 2)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.text(alphabet="abc ", max_size=30), max_size=6))
def test_simhash_identical_and_bounded(texts):
    from deduce_ray.ops.dedup import simhash64

    for t in texts:
        h = simhash64(t)
        assert 0 <= h < (1 << 64)
        assert h == simhash64(t)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=100_000), min_size=1, max_size=60),
    st.floats(min_value=0.01, max_value=0.99),
)
def test_quantile_definition_matches_engine(values, q):
    """The histogram-quantile rule (smallest value whose cumulative count
    reaches ceil(q*n)) equals the order-statistic x[ceil(q*n)-1]."""
    import math

    from collections import Counter

    counts = Counter(values)
    total = len(values)
    need = math.ceil(q * total)
    cum = 0
    pick = None
    for v in sorted(counts):
        cum += counts[v]
        if cum >= need:
            pick = v
            break
    assert pick == sorted(values)[need - 1]


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=10**9), max_size=200))
def test_doc_sample_threshold_semantics(ids):
    """Hash sampling is a pure function of the id: the same id is always
    in or always out, independent of the surrounding rows."""
    import hashlib

    def member(i, th="1a"):
        return hashlib.md5(str(i).encode()).hexdigest()[: len(th)] < th

    first = {i: member(i) for i in ids}
    second = {i: member(i) for i in reversed(ids)}
    assert first == second


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 30), st.integers(0, 30)), max_size=25))
def test_union_find_matches_reachability(pairs):
    """Driver union-find semantics: every node's cluster id equals the
    minimum node reachable from it over the undirected pair graph."""
    # BFS reference
    adj: dict[int, set[int]] = {}
    for a, b in pairs:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)

    def min_reachable(start):
        seen, stack = {start}, [start]
        while stack:
            x = stack.pop()
            for y in adj.get(x, ()):
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        return min(seen)

    parent: dict[int, int] = {}

    def find(x):
        root = x
        while parent.setdefault(root, root) != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    for node in adj:
        assert find(node) == min_reachable(node)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=1, max_value=17),
    st.integers(min_value=1, max_value=23),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_y4m_round_trip_any_shape(n, h, w, seed):
    """encode_y4m -> decode_y4m is the identity on the luma for any frame
    count and (odd or even) dimensions; one trailing byte less raises."""
    import numpy as np

    from deduce_ray.ops.multimodal import decode_y4m, encode_y4m

    rng = np.random.default_rng(seed)
    frames = rng.integers(0, 256, size=(n, h, w), dtype=np.uint8)
    payload = encode_y4m(frames)
    out = decode_y4m(payload)
    assert out.shape == (n, h, w)
    assert np.array_equal(out, frames)
    if n > 0:
        try:
            decode_y4m(payload[:-1])
        except ValueError:
            pass
        else:
            raise AssertionError("truncated payload must not parse")


@settings(max_examples=200, deadline=None)
@given(
    st.tuples(st.text(max_size=12), st.text(max_size=12)),
    st.tuples(st.text(max_size=12), st.text(max_size=12)),
)
def test_partition_slug_injective(pair_a, pair_b):
    """_partition_slug must be injective over (repo, lang) pairs: a slug
    collision between distinct pairs would silently overwrite one
    partition's parquet + manifest with the other's."""
    from deduce_ray.rayops.kg import _partition_slug

    sa = _partition_slug(*pair_a)
    sb = _partition_slug(*pair_b)
    if pair_a != pair_b:
        assert sa != sb
    else:
        assert sa == sb


@settings(max_examples=200, deadline=None)
@given(
    st.tuples(
        st.one_of(st.none(), st.text(max_size=10)),
        st.one_of(st.none(), st.text(max_size=10)),
    ),
    st.tuples(
        st.one_of(st.none(), st.text(max_size=10)),
        st.one_of(st.none(), st.text(max_size=10)),
    ),
)
def test_form_node_id_collision_free(pa_, pb_):
    """Length-prefixed encoding: distinct (pred, obj_norm) inputs map to
    distinct node ids (md5 collisions aside), including None vs any
    string and content containing the tag bytes."""
    from deduce_ray.rayops.kg import _form_node_id

    ia, ib = _form_node_id(*pa_), _form_node_id(*pb_)
    if pa_ != pb_:
        assert ia != ib
    else:
        assert ia == ib
    assert 0 <= ia < 2**63


@settings(max_examples=100, deadline=None)
@given(st.one_of(st.none(), st.text(max_size=24)), st.integers(2, 1024))
def test_doc_bucket_total_and_deterministic(doc_id, n):
    """_doc_bucket never raises, lands in [0, n), and is deterministic."""
    from deduce_ray.rayops.kg import _doc_bucket

    b = _doc_bucket(doc_id, n)
    assert 0 <= b < n
    assert b == _doc_bucket(doc_id, n)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 2**64 - 1),
    st.lists(st.integers(0, 63), min_size=0, max_size=3, unique=True),
    st.integers(2, 512),
)
def test_sig_band_rows_pigeonhole_recall(sig, flip_bits, n_shards):
    """The 4x16 band decomposition's recall guarantee: two 64-bit
    signatures within Hamming distance 3 MUST share at least one
    (bucket, shard) band row — the invariant both simhash_pairs and the
    incremental stores rely on for candidate generation."""
    import numpy as np

    from deduce_ray.ops.dedup import sig_band_rows

    other = sig
    for b in flip_bits:
        other ^= 1 << b
    s1 = np.array([sig], dtype=np.uint64)
    s2 = np.array([other], dtype=np.uint64)
    shard1, bucket1 = sig_band_rows(s1, n_shards)
    shard2, bucket2 = sig_band_rows(s2, n_shards)
    assert len(bucket1) == len(bucket2) == 4
    shared = set(zip(shard1.tolist(), bucket1.tolist())) & set(
        zip(shard2.tolist(), bucket2.tolist())
    )
    assert shared, "hamming<=3 pair lost by the banding"
    # and shards are consistent with buckets
    assert (shard1 == bucket1 % n_shards).all()


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=0, max_value=500),
    st.integers(min_value=1, max_value=64),
    st.integers(min_value=1, max_value=64),
)
def test_window_spans_invariants(n, window, stride):
    """Chunking window math: full coverage (no word skipped), exactly
    one end-reaching span, span widths bounded by the window, disjoint
    spans partition exactly when stride == window."""
    from deduce_ray.ops.chunking import window_spans

    if stride > window:
        return  # rejected by chunk_documents; the helper assumes <=
    spans = window_spans(n, window, stride)
    if n == 0:
        assert spans == []
        return
    # coverage: every index in [0, n) falls in some span
    covered = set()
    for s, e in spans:
        assert 0 <= s < e <= n
        assert e - s <= window
        covered.update(range(s, e))
    assert covered == set(range(n))
    # exactly the last span reaches the end; starts advance by stride
    assert spans[-1][1] == n
    assert all(e < n for s, e in spans[:-1])
    assert all(
        b[0] - a[0] == stride for a, b in zip(spans, spans[1:])
    )
    if stride == window:
        # disjoint chunks partition the word sequence exactly
        assert sum(e - s for s, e in spans) == n


@given(st.text(max_size=400))
@settings(max_examples=200, deadline=None)
def test_repetition_signal_invariants(text):
    from deduce_ray.ops.textstats import repetition_signals

    n_lines, dl, dlc, t2, d5 = repetition_signals(text)
    for v in (dl, dlc, t2, d5):
        assert 0 <= v <= 1_000_000
    assert n_lines == sum(1 for ln in text.split("\n") if ln)
    # unique lines -> zero duplicate-line mass (both measures)
    lines = [ln for ln in text.split("\n") if ln]
    if len(set(lines)) == len(lines):
        assert dl == 0 and dlc == 0
    # doubling the whole text line-wise makes every line a duplicate
    if lines:
        _, dl2, dlc2, _, _ = repetition_signals(
            "\n".join(lines) + "\n" + "\n".join(lines)
        )
        assert dl2 >= 500_000 - 1  # floor division of exactly half
        assert dlc2 >= 500_000 - 1
    # a doc that is one run of a single word saturates the gram masses
    words = text.split()
    if words:
        _, _, _, t2s, d5s = repetition_signals((words[0] + " ") * 12)
        assert t2s == 1_000_000
        assert d5s == 1_000_000
