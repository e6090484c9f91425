"""Seeded synthetic lookup tree for the benchmark.

Writes the 15 ``deduce_ray.lexicon.ALL_LISTS`` directories
(``src/<group>/lst_<name>/items.txt``) plus a ``transform.json`` for the
street list, with list sizes after transforms close to the built sizes of
the reference data (BASELINE.md: street 769,569, healthcare_institution
244,342, ...).  No reference item is used: every word is a pseudo-word
made from syllables.

Every word belongs to exactly one list (or to the filler vocabulary), and
the check is case-folded, because some lists match lowercased tokens
(hospital) and the whitelist lookups fold case.  The filler vocabulary is
digit-free, lowercase, and avoids every word a default annotator keys on
(months, TLDs, age words, "postbus"), so filler text yields no annotation.

    python3 perfbench/lexgen.py OUT_DIR [--seed N] [--scale F] [--compile CACHE_DIR]

``--compile`` also builds the lexicon cache artifact from the tree, the
one-time step the benchmark runs before anything is timed.
"""

from __future__ import annotations

import argparse
import json
import random
from pathlib import Path

# built size after transforms per list (BASELINE.md "Built lookup sizes")
TARGET_SIZES = {
    "locations/lst_street": 769_569,
    "institutions/lst_healthcare_institution": 244_342,
    "whitelist/lst_eponymous_disease": 22_512,
    "names/lst_first_name": 14_690,
    "locations/lst_placename": 12_049,
    "names/lst_surname": 10_346,
    "institutions/lst_hospital": 9_283,
    "whitelist/lst_medical_term": 6_939,
    "names/lst_interfix_surname": 2_384,
    "whitelist/lst_common_word": 1_008,
    "whitelist/lst_stop_word": 101,
    "names/lst_initial": 54,
    "names/lst_prefix": 45,
    "names/lst_interfix": 44,
    "institutions/lst_hospital_abbr": 21,
}

# the street transform turns each raw item into this many variants
STREET_SUFFIXES = {
    "straat": ["straat", "str", "str.", "strt", "stra"],
    "laan": ["laan", "ln", "ln.", "lan", "laantje"],
    "weg": ["weg", "wg", "wg.", "weeg", "wegje"],
    "gracht": ["gracht", "gr", "gr.", "grcht", "grachtje"],
    "plein": ["plein", "pln", "pln.", "plin", "pleintje"],
}

# words the default annotators key on; filler must not contain them
RESERVED = {
    "januari", "jan", "februari", "feb", "maart", "mrt", "april", "apr",
    "mei", "juni", "jun", "juli", "jul", "augustus", "aug", "september",
    "sep", "sept", "oktober", "okt", "november", "nov", "december", "dec",
    "com", "net", "org", "co", "us", "uk", "nl", "be", "fr", "sp", "gov",
    "nu", "jaar", "jarig", "jarige", "jr", "postbus",
}

_ONSETS = list("bdfghklmnprstvwz") + ["br", "dr", "gr", "kl", "kr", "pl", "sl", "st", "tr", "sch"]
_VOWELS = ["a", "e", "i", "o", "u", "aa", "ee", "oo", "oe", "ie", "ij", "ui", "eu", "ou"]
_CODAS = ["", "", "", "n", "r", "l", "s", "k", "m", "t", "nd", "rt", "ls"]
# a few accented vowels exercise the FoldNonAscii variants
_ACCENTED = ["é", "ë", "è", "ï", "ö"]

FILLER_WORDS = 6000


class WordMint:
    """Fresh pseudo-words, none repeated case-folded across the whole tree."""

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.taken: set[str] = set(RESERVED)

    def word(self, syllables: tuple[int, int] = (2, 3), accent: float = 0.0) -> str:
        rng = self.rng
        while True:
            n = rng.randint(*syllables)
            w = "".join(
                rng.choice(_ONSETS) + rng.choice(_VOWELS) + rng.choice(_CODAS)
                for _ in range(n)
            )
            if accent and rng.random() < accent:
                i = next((k for k, c in enumerate(w) if c in "aeiou"), None)
                if i is not None:
                    w = w[:i] + rng.choice(_ACCENTED) + w[i + 1 :]
            if len(w) >= 4 and w.casefold() not in self.taken:
                self.taken.add(w.casefold())
                return w

    def name(self, **kw) -> str:
        w = self.word(**kw)
        return w[0].upper() + w[1:]


def _filler(mint: WordMint) -> list[str]:
    return sorted(mint.word(syllables=(1, 3)).lower() for _ in range(FILLER_WORDS))


def filler_vocabulary(seed: int) -> list[str]:
    """The filler vocabulary alone, for inputs that need no lexicon."""
    return _filler(WordMint(random.Random(seed)))


def _multi(mint: WordMint, n: int, heads: list[str], tokens: tuple[int, int]) -> list[str]:
    """``n`` distinct multi-token items: a shared head word plus fresh
    capitalized words."""
    rng = mint.rng
    out = []
    for _ in range(n):
        k = rng.randint(*tokens)
        words = [mint.name(syllables=(2, 3), accent=0.02) for _ in range(k - 1)]
        out.append(" ".join([rng.choice(heads)] + words))
    return out


def generate_tree(out_dir: Path, seed: int = 0, scale: float = 1.0) -> dict:
    """Write the lookup tree under ``out_dir`` and return the plantable
    vocabulary (``out_dir/vocab.json``): filler words and, per list, the
    raw items the input generators plant."""
    rng = random.Random(seed)
    mint = WordMint(rng)

    def size(name: str) -> int:
        # --scale shrinks the long lists only (tests); short ones stay whole
        full = TARGET_SIZES[name]
        return full if full < 500 else max(50, int(round(full * scale)))

    filler = _filler(mint)

    lists: dict[str, list[str]] = {}
    lists["names/lst_prefix"] = [mint.word(syllables=(1, 1)).lower() for _ in range(size("names/lst_prefix"))]
    interfix = [mint.word(syllables=(1, 1)).lower() for _ in range(size("names/lst_interfix") - 4)]
    # two-word interfixes exercise the tokenizer's merge terms
    interfix += [f"{a} {b}" for a, b in zip(interfix[:4], interfix[4:8])]
    lists["names/lst_interfix"] = interfix
    letters = [chr(c) for c in range(ord("A"), ord("Z") + 1)]
    initials = list(letters)
    while len(initials) < size("names/lst_initial"):
        pair = rng.choice(letters) + rng.choice("aeiouhjlr")
        if pair.casefold() not in mint.taken:
            initials.append(pair)
            mint.taken.add(pair.casefold())
    lists["names/lst_initial"] = initials
    for name in (
        "names/lst_first_name",
        "names/lst_surname",
        "names/lst_interfix_surname",
    ):
        lists[name] = [mint.name(accent=0.02) for _ in range(size(name))]
    for name in (
        "whitelist/lst_common_word",
        "whitelist/lst_stop_word",
        "whitelist/lst_medical_term",
    ):
        lists[name] = [mint.word().lower() for _ in range(size(name))]

    place_heads = [mint.name(syllables=(1, 2)) for _ in range(20)]
    places = [mint.name(accent=0.05) for _ in range(size("locations/lst_placename") // 2)]
    # some two-token places with a parenthesised part (the loader adds the
    # paren-free variant)
    for i in range(0, len(places), 10):
        places[i] = f"{places[i]} ({rng.choice(place_heads)})"
    lists["locations/lst_placename"] = places

    n_street = size("locations/lst_street") // 5
    suffixes = list(STREET_SUFFIXES)
    lists["locations/lst_street"] = [
        mint.name(syllables=(2, 3), accent=0.01) + suffixes[i % len(suffixes)]
        for i in range(n_street)
    ]

    hosp_heads = [mint.name(syllables=(2, 3)) for _ in range(12)]
    lists["institutions/lst_hospital"] = _multi(mint, size("institutions/lst_hospital"), hosp_heads, (2, 3))
    lists["institutions/lst_hospital_abbr"] = [
        mint.word(syllables=(1, 2)).upper() for _ in range(size("institutions/lst_hospital_abbr"))
    ]
    inst_heads = [mint.name(syllables=(2, 3)) for _ in range(40)]
    # the loader adds an upper-case copy of every institution
    lists["institutions/lst_healthcare_institution"] = _multi(
        mint, size("institutions/lst_healthcare_institution") // 2, inst_heads, (2, 3)
    )
    disease_heads = [mint.word(syllables=(2, 3)).lower() for _ in range(15)]
    lists["whitelist/lst_eponymous_disease"] = [
        f"{mint.name()} {rng.choice(disease_heads)}"
        for _ in range(size("whitelist/lst_eponymous_disease"))
    ]

    src = out_dir / "src"
    for name, items in lists.items():
        d = src / name
        d.mkdir(parents=True, exist_ok=True)
        (d / "items.txt").write_text("\n".join(items) + "\n", encoding="utf-8")
    transform = {
        "transforms": {
            "street_suffix": {f"{k}$": v for k, v in STREET_SUFFIXES.items()}
        }
    }
    (src / "locations/lst_street/transform.json").write_text(json.dumps(transform))

    vocab = {
        "seed": seed,
        "scale": scale,
        "filler": filler,
        "lists": {
            name.rsplit("/lst_", 1)[1]: items[:2000]
            for name, items in lists.items()
        },
    }
    (out_dir / "vocab.json").write_text(json.dumps(vocab))
    return vocab


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("out_dir", type=Path)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--scale", type=float, default=1.0)
    ap.add_argument("--compile", type=Path, metavar="CACHE_DIR")
    args = ap.parse_args()
    generate_tree(args.out_dir, args.seed, args.scale)
    if args.compile:
        import sys

        sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
        from deduce_ray.lexicon import load_or_build_lexicon

        load_or_build_lexicon(args.out_dir, cache_dir=args.compile, build=True)


if __name__ == "__main__":
    main()
