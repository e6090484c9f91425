"""Lexicon compilation: raw itemset algebra, variation transforms, the named
lookup loaders, and a fingerprinted cache artifact.

This is the driver-side "build the broadcast state once" step of the Ray
pipeline.  Semantics mirror the reference's lookup bootstrap
(/root/reference/deduce/lookup_structs.py:50-112,
lookup_struct_loader.py:10-239, utils.py:91-220): items.txt minus
exceptions.txt, union of nested lst_* sublists, cartesian variation
transforms, then per-list cleaning pipelines and set->trie compilation over
the merged-term tokenizer.

The lookup source data is read at runtime from a configurable directory
(default: the reference's data dir) and is never vendored into this repo.
:class:`Lexicon` resolves it on demand: constructing one reads nothing, and
each lookup name (the tokenizer's merge terms count as one, :data:`TOKENIZER`)
is loaded when it is first read, so stages that read no lookup list run
without the source tree.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import re
from pathlib import Path

from deduce_ray import strproc as sp
from deduce_ray.packed_trie import MemberTrieView, MultiPackedTrie, PackedTrie
from deduce_ray.structures import DsCollection, LookupSet, LookupTrie
from deduce_ray.tokenizer import WordTokenizer

# Lookup source tree (GPL-licensed reference data, NOT vendored into this
# repo).  Configurable via DEDUCE_RAY_LOOKUP; the default points at the
# reference checkout.  When the directory is absent, the first read of a
# lookup name raises a FileNotFoundError naming DEDUCE_RAY_LOOKUP (see
# source_fingerprint); reading nothing from it needs no directory.
DEFAULT_LOOKUP_PATH = Path(
    os.environ.get("DEDUCE_RAY_LOOKUP", "/root/reference/deduce/data/lookup")
)
# repo-local derived-data cache (gitignored, never committed); override with
# DEDUCE_RAY_CACHE
DEFAULT_CACHE_DIR = Path(
    os.environ.get(
        "DEDUCE_RAY_CACHE", str(Path(__file__).resolve().parent.parent / ".lexicon_cache")
    )
)

# Registry of raw lists (mirrors deduce/data/lookup/src/__init__.py:1-17).
ALL_LISTS = [
    "institutions/lst_healthcare_institution",
    "institutions/lst_hospital",
    "institutions/lst_hospital_abbr",
    "locations/lst_placename",
    "locations/lst_street",
    "names/lst_first_name",
    "names/lst_initial",
    "names/lst_interfix",
    "names/lst_interfix_surname",
    "names/lst_prefix",
    "names/lst_surname",
    "whitelist/lst_common_word",
    "whitelist/lst_eponymous_disease",
    "whitelist/lst_medical_term",
    "whitelist/lst_stop_word",
]

_SRC = "src"

#: Lookup name standing for the tokenizer's merge terms (names/lst_prefix +
#: names/lst_interfix): every stage that tokenizes a document reads it.
TOKENIZER = "tokenizer"

# bump when the pickled structure layout changes (cache filenames carry it,
# so stale artifacts are simply ignored)
_CACHE_FORMAT = 2


# ---------------------------------------------------------------------------
# raw itemset algebra + variation transforms
# ---------------------------------------------------------------------------


def _load_lines(path: Path) -> set[str] | None:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return {line.strip() for line in fh}
    except FileNotFoundError:
        return None


def _segment_choices(s: str, matches: list[tuple]) -> list[list[str]]:
    """Cut ``s`` into consecutive segments, each with 1+ replacement options."""
    choices: list[list[str]] = []
    pos = 0
    for start, end, options in sorted(matches, key=lambda m: m[0]):
        if pos != start:
            choices.append([s[pos:start]])
        choices.append(options)
        pos = end
    if pos != len(s):
        choices.append([s[pos:]])
    return choices


def str_variations(s: str, repl: dict[str, list[str]]) -> list[str]:
    """All variations of ``s`` under the replacement map (keys are regexps;
    overlapping matches are an error)."""
    matches = []
    for pattern, options in repl.items():
        for m in re.finditer(pattern, s):
            matches.append((m.start(), m.end(), options))

    if not matches:
        return [s]

    spans = sorted((m[0], m[1]) for m in matches)
    for (s1, e1), (s2, _) in zip(spans, spans[1:]):
        if e1 > s2:
            raise RuntimeError("overlapping matches in replacement mapping")

    variations = [""]
    for options in _segment_choices(s, matches):
        variations = [prefix + opt for opt in options for prefix in variations]
    return variations


def apply_transform(items: set[str], transform_config: dict) -> set[str]:
    strip_lines = transform_config.get("strip_lines", True)
    for transform in transform_config.get("transforms", {}).values():
        extra = []
        for item in items:
            extra.extend(str_variations(item, transform))
        items.update(extra)
    if strip_lines:
        items = {item.strip() for item in items}
    return items


def load_raw_itemset(path: Path) -> set[str]:
    """items.txt − exceptions.txt ∪ nested lst_* sublists, then transforms."""
    items = _load_lines(path / "items.txt")
    exceptions = _load_lines(path / "exceptions.txt")
    sublists = sorted(path.glob("lst_*"))

    if items is None:
        if not sublists:
            raise RuntimeError(f"no items.txt or sublists under {path}")
        items = set()

    if exceptions is not None:
        items -= exceptions

    for sub in sublists:
        items |= load_raw_itemset(sub)

    transform_path = path / "transform.json"
    if transform_path.exists():
        with open(transform_path, "r", encoding="utf-8") as fh:
            items = apply_transform(items, json.load(fh))

    return items


def load_raw_itemsets(base_path: Path, subdirs: list[str]) -> dict[str, set[str]]:
    out = {}
    for sub in subdirs:
        name = sub.rsplit("/", 1)[-1].removeprefix("lst_")
        out[name] = load_raw_itemset(base_path / _SRC / sub)
    return out


# ---------------------------------------------------------------------------
# named loaders (cleaning pipelines per list; reference lookup_struct_loader)
# ---------------------------------------------------------------------------


def set_to_trie(lookup_set: LookupSet, tokenizer: WordTokenizer) -> LookupTrie:
    trie = LookupTrie(matching_pipeline=lookup_set.matching_pipeline)
    for item in lookup_set.items():
        trie.add_item([tok.text for tok in tokenizer.tokenize(item)])
    return trie


def pack_trie(trie: LookupTrie) -> PackedTrie:
    return PackedTrie.from_lookup_trie(trie)


def load_prefix(raw: dict[str, set[str]]) -> LookupSet:
    prefix = LookupSet()
    prefix.add_items_from_iterable(raw["prefix"])
    prefix.add_items_from_self(cleaning_pipeline=[sp.UppercaseFirstChar()])
    return prefix


def load_interfix(raw: dict[str, set[str]]) -> LookupSet:
    interfix = LookupSet()
    interfix.add_items_from_iterable(raw["interfix"])
    interfix.add_items_from_self(cleaning_pipeline=[sp.UppercaseFirstChar()])
    interfix.add_items_from_self(cleaning_pipeline=[sp.Titlecase()])
    interfix.remove_items_from_iterable(["V."])
    return interfix


def _common_words(raw: dict[str, set[str]]) -> LookupSet:
    common = LookupSet()
    common.add_items_from_iterable(raw["common_word"])
    surnames_lower = LookupSet()
    surnames_lower.add_items_from_iterable(
        raw["surname"],
        cleaning_pipeline=[sp.Lowercase(), sp.FilterByLength(min_len=2)],
    )
    return common - surnames_lower


def load_whitelist(raw: dict[str, set[str]]) -> LookupSet:
    """medical terms ∪ (common words − surnames) ∪ stop words; matched
    case-insensitively, min length 2.

    Memoized on the raw-itemset dict: five loaders consult the whitelist
    during one compile, and rebuilding it each time re-lowercases and
    re-filters the full surname list for identical output.  The cached
    set is read-only shared state, same content as a fresh build.
    """
    cached = raw.get("__whitelist__")
    if isinstance(cached, LookupSet):
        return cached
    medical = LookupSet()
    medical.add_items_from_iterable(raw["medical_term"])
    stop = LookupSet()
    stop.add_items_from_iterable(raw["stop_word"])

    whitelist = LookupSet(matching_pipeline=[sp.Lowercase()])
    whitelist.add_items_from_iterable(
        medical + _common_words(raw) + stop,
        cleaning_pipeline=[sp.FilterByLength(min_len=2)],
    )
    raw["__whitelist__"] = whitelist  # type: ignore[assignment]
    return whitelist


def load_eponymous_disease(raw: dict[str, set[str]], tokenizer: WordTokenizer) -> LookupTrie:
    diseases = LookupSet()
    diseases.add_items_from_iterable(raw["eponymous_disease"])
    diseases.add_items_from_self(cleaning_pipeline=[sp.FoldNonAscii()])
    return set_to_trie(diseases, tokenizer)


def load_first_name(raw: dict[str, set[str]], tokenizer: WordTokenizer) -> LookupTrie:
    names = LookupSet()
    names.add_items_from_iterable(
        raw["first_name"], cleaning_pipeline=[sp.FilterByLength(min_len=2)]
    )
    names.add_items_from_self(
        cleaning_pipeline=[
            sp.FilterNotIn(load_whitelist(raw).items(), case_sensitive=False)
        ],
        replace=True,
    )
    return set_to_trie(names, tokenizer)


def load_surname(raw: dict[str, set[str]], tokenizer: WordTokenizer) -> LookupTrie:
    names = LookupSet()
    names.add_items_from_iterable(
        raw["surname"], cleaning_pipeline=[sp.FilterByLength(min_len=2)]
    )
    names.add_items_from_self(
        cleaning_pipeline=[
            sp.FilterNotIn(load_whitelist(raw).items(), case_sensitive=False)
        ],
        replace=True,
    )
    return set_to_trie(names, tokenizer)


def load_street(raw: dict[str, set[str]], tokenizer: WordTokenizer) -> LookupTrie:
    streets = LookupSet()
    streets.add_items_from_iterable(
        raw["street"],
        cleaning_pipeline=[sp.Strip(), sp.FilterByLength(min_len=4)],
    )
    streets.add_items_from_self(cleaning_pipeline=[sp.FoldNonAscii()])
    return set_to_trie(streets, tokenizer)


def load_placename(raw: dict[str, set[str]], tokenizer: WordTokenizer) -> LookupTrie:
    places = LookupSet()
    places.add_items_from_iterable(raw["placename"], cleaning_pipeline=[sp.Strip()])
    places.add_items_from_self(cleaning_pipeline=[sp.FoldNonAscii()])
    places.add_items_from_self(
        cleaning_pipeline=[
            sp.ReplaceValue("(", ""),
            sp.ReplaceValue(")", ""),
            sp.ReplaceValue("  ", " "),
        ]
    )
    places.add_items_from_self(cleaning_pipeline=[sp.Uppercase()])
    places.add_items_from_self(
        cleaning_pipeline=[
            sp.FilterNotIn(load_whitelist(raw).items(), case_sensitive=False)
        ],
        replace=True,
    )
    return set_to_trie(places, tokenizer)


def load_hospital(raw: dict[str, set[str]], tokenizer: WordTokenizer) -> LookupTrie:
    hospitals = LookupSet(matching_pipeline=[sp.Lowercase()])
    hospitals.add_items_from_iterable(raw["hospital"])
    hospitals.add_items_from_iterable(raw["hospital_abbr"])
    hospitals.add_items_from_self(cleaning_pipeline=[sp.FoldNonAscii()])
    return set_to_trie(hospitals, tokenizer)


def load_institution(raw: dict[str, set[str]], tokenizer: WordTokenizer) -> LookupTrie:
    institutions = LookupSet()
    institutions.add_items_from_iterable(
        raw["healthcare_institution"],
        cleaning_pipeline=[sp.Strip(), sp.FilterByLength(min_len=4)],
    )
    institutions.add_items_from_self(cleaning_pipeline=[sp.Uppercase()])
    institutions.add_items_from_self(cleaning_pipeline=[sp.FoldNonAscii()])
    institutions = institutions - load_whitelist(raw)
    return set_to_trie(institutions, tokenizer)


SET_LOADERS = {
    "prefix": load_prefix,
    "interfix": load_interfix,
    "whitelist": load_whitelist,
}

TRIE_LOADERS = {
    "first_name": load_first_name,
    "surname": load_surname,
    "street": load_street,
    "placename": load_placename,
    "hospital": load_hospital,
    "healthcare_institution": load_institution,
    "eponymous_disease": load_eponymous_disease,
}


# ---------------------------------------------------------------------------
# compile + cache
# ---------------------------------------------------------------------------


def build_tokenizer(raw: dict[str, set[str]]) -> WordTokenizer:
    """Tokenizer whose merge terms are all prefix + interfix variants
    (reference: deduce.py:132-144)."""
    merge_terms = list(load_prefix(raw).items()) + list(load_interfix(raw).items())
    return WordTokenizer(merge_terms=merge_terms)


def compile_lexicon(
    lookup_path: Path | str = DEFAULT_LOOKUP_PATH,
) -> tuple[DsCollection, WordTokenizer]:
    return compile_itemsets(load_raw_itemsets(Path(lookup_path), ALL_LISTS))


def compile_itemsets(
    raw: dict[str, set[str]],
) -> tuple[DsCollection, WordTokenizer]:
    """Named structures + merge-term tokenizer from the raw itemsets (keyed
    by list name without the ``lst_`` prefix)."""
    tokenizer = build_tokenizer(raw)

    structs = DsCollection()
    for name in sorted(set(raw) - set(SET_LOADERS) - set(TRIE_LOADERS)):
        default = LookupSet()
        default.add_items_from_iterable(raw[name])
        structs[name] = default
    for name, loader in SET_LOADERS.items():
        structs[name] = loader(raw)

    # compile tries to numpy-packed forms: loads in milliseconds per actor
    # instead of tens of seconds for nested-dict tries.  The pipeline-free
    # lexicons are additionally merged into ONE probe structure so every
    # document is scanned once for all of them (MultiPackedTrie).
    built = {name: loader(raw, tokenizer) for name, loader in TRIE_LOADERS.items()}
    merged = [
        (name, trie) for name, trie in built.items() if not trie.matching_pipeline
    ]
    multi = MultiPackedTrie(merged)
    for idx, (name, _) in enumerate(merged):
        structs[name] = MemberTrieView(multi, idx)
    for name, trie in built.items():
        if trie.matching_pipeline:
            structs[name] = pack_trie(trie)
    return structs, tokenizer


def source_fingerprint(lookup_path: Path | str = DEFAULT_LOOKUP_PATH) -> str:
    """Content-identity of the lookup source tree.

    Hashes relative path + FILE CONTENT (not mtime), so a fresh clone of
    identical data reuses the cache and any edit invalidates it.
    """
    lookup_path = Path(lookup_path)
    if not lookup_path.exists():
        raise FileNotFoundError(
            f"lookup source tree not found at {lookup_path}; set "
            "DEDUCE_RAY_LOOKUP (or pass lookup_path=) to a checkout of the "
            "deduce lookup data (deduce/data/lookup)"
        )
    digest = hashlib.sha256()
    for file in sorted((lookup_path / _SRC).glob("**/*")):
        # hash only the DATA files: the src tree is also an importable
        # Python package, and hashing __pycache__/*.pyc (whose content
        # embeds source mtimes) or .py registry files would churn the
        # fingerprint — and force a full lexicon recompile — on unrelated
        # interpreter activity
        if file.is_file() and file.suffix in (".txt", ".json"):
            digest.update(str(file.relative_to(lookup_path)).encode())
            digest.update(b"\x00")
            digest.update(file.read_bytes())
            digest.update(b"\x01")
    return digest.hexdigest()


def load_or_build_lexicon(
    lookup_path: Path | str = DEFAULT_LOOKUP_PATH,
    cache_dir: Path | str | None = None,
    build: bool = False,
) -> tuple[DsCollection, WordTokenizer]:
    """Load the compiled lexicon from the fingerprinted cache artifact, or
    compile from source and cache.  :class:`Lexicon` resolves names from
    it; annotator actors receive the resolved names in the broadcast and
    never re-read the source tree."""
    from deduce_ray import __version__

    cache_dir = Path(cache_dir) if cache_dir is not None else DEFAULT_CACHE_DIR
    fingerprint = source_fingerprint(lookup_path)
    cache_file = (
        cache_dir
        / f"lexicon_{__version__}_f{_CACHE_FORMAT}_{fingerprint[:16]}.pickle"
    )

    if not build and cache_file.exists():
        with open(cache_file, "rb") as fh:
            cached = pickle.load(fh)
        return cached["structs"], cached["tokenizer"]

    structs, tokenizer = compile_lexicon(lookup_path)
    cache_dir.mkdir(parents=True, exist_ok=True)
    tmp = cache_file.with_suffix(f".tmp{os.getpid()}")
    with open(tmp, "wb") as fh:
        pickle.dump({"structs": structs, "tokenizer": tokenizer}, fh, protocol=5)
    os.replace(tmp, cache_file)
    return structs, tokenizer


class Lexicon(DsCollection):
    """The lookup collection of one source tree, resolved on demand.

    Constructing it reads no file.  A lookup name is resolved when it is
    first read (``lexicon[name]``, or the first ``tokenize`` of
    :attr:`tokenizer` for :data:`TOKENIZER`), or up front through
    :meth:`resolve`.  The first resolution loads the fingerprinted cache
    artifact (compiling it when stale, see :func:`load_or_build_lexicon`)
    and keeps it, so later names cost a dict copy; with the source tree
    absent it raises the FileNotFoundError naming DEDUCE_RAY_LOOKUP.
    Membership, ``get``, ``len`` and iteration see the resolved names only.

    Pickling ships the resolved names and not the loaded artifact: this is
    the object :func:`deduce_ray.rayops.annotate.broadcast_lexicon` sends
    to workers, after resolving the names their stages declare.
    """

    def __init__(
        self,
        lookup_path: Path | str = DEFAULT_LOOKUP_PATH,
        cache_dir: Path | str | None = None,
        build: bool = False,
    ) -> None:
        super().__init__()
        self.lookup_path = Path(lookup_path)
        self.cache_dir = cache_dir
        self._build = build
        self._tokenizer: WordTokenizer | None = None
        self._compiled: tuple[DsCollection, WordTokenizer] | None = None
        self.tokenizer = LazyTokenizer(self)

    def resolve(self, names=None) -> None:
        """Resolve ``names`` (every name when None).  Names the source does
        not define stay unresolved, so reading one raises KeyError."""
        wanted = None
        if names is not None:
            wanted = {name for name in names if not self._resolved(name)}
            if not wanted:
                return
        if self._compiled is None:
            self._compiled = load_or_build_lexicon(
                self.lookup_path, cache_dir=self.cache_dir, build=self._build
            )
            self._build = False
        structs, tokenizer = self._compiled
        if wanted is None:
            wanted = set(structs) | {TOKENIZER}
        for name in wanted:
            if name == TOKENIZER:
                self._tokenizer = tokenizer
            elif name in structs:
                self[name] = structs[name]

    def _resolved(self, name: str) -> bool:
        if name == TOKENIZER:
            return self._tokenizer is not None
        return name in self

    def resolved_tokenizer(self) -> WordTokenizer:
        if self._tokenizer is None:
            self.resolve((TOKENIZER,))
        return self._tokenizer

    def __missing__(self, name: str):
        self.resolve((name,))
        if name not in self:
            raise KeyError(name)
        return dict.__getitem__(self, name)

    def __getstate__(self):
        state = dict(self.__dict__)
        state["_compiled"] = None
        return state


class LazyTokenizer:
    """A :class:`Lexicon`'s merge-term tokenizer, resolved on its first
    ``tokenize`` (the :data:`TOKENIZER` name)."""

    __slots__ = ("_lexicon",)

    def __init__(self, lexicon: Lexicon) -> None:
        self._lexicon = lexicon

    def tokenize(self, text: str):
        return self._lexicon.resolved_tokenizer().tokenize(text)
