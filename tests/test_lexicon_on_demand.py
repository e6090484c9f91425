"""On-demand lexicon resolution: building an engine or a broadcast reads no
lookup file, each stage resolves exactly the lookup names its spec
declares, and masks whose stages read no lookup list run without the
lookup source tree.  A miniature in-memory / temporary lookup tree stands
in for the deduce data, which these tests do not need."""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap

import pytest

from deduce_ray.config import DEFAULT_CONFIG
from deduce_ray.engine import DeduceEngine, spec_lookup_names, stage_lookup_names
from deduce_ray.lexicon import (
    ALL_LISTS,
    TOKENIZER,
    Lexicon,
    compile_itemsets,
    load_or_build_lexicon,
)
from deduce_ray.person import Person
from deduce_ray.structures import DsCollection

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# a few items per raw list, enough for every default stage to fire on TEXTS
MINI_ITEMS = {
    "prefix": ["dr", "mw"],
    "interfix": ["van", "der", "van der"],
    "first_name": ["Jan", "Piet"],
    "surname": ["Jansen", "Berg"],
    "initial": ["J", "P"],
    "interfix_surname": ["Berg"],
    "placename": ["Amsterdam"],
    "street": ["Kerkstraat"],
    "hospital": ["AMC"],
    "hospital_abbr": ["UMC"],
    "healthcare_institution": ["Zorggroep Noord"],
    "eponymous_disease": ["Parkinson"],
    "common_word": ["gewoon", "tekst"],
    "medical_term": ["patient"],
    "stop_word": ["de", "en"],
}

TEXTS = [
    "Dr. Jan van der Berg en mw. P. Jansen zijn gezien in het AMC te "
    "Amsterdam, Kerkstraat 12a, 1234 AB, postbus 123.",
    "Zorggroep Noord belde op 12 januari 2020 (12-01-2020, 2020-01-12, "
    "2020 jan 12) over de ziekte van Parkinson.",
    "Patient J. van der Berg, 45 jaar, bsn 111222333, id 1234567, tel "
    "0612345678, mail jan@example.com, zie www.example.nl.",
    "gewoon wat tekst zonder cijfers",
]

PATIENT = Person(first_names=["Jan"], initials="J", surname="van der Berg")


def _write_tree(root) -> str:
    for sub in ALL_LISTS:
        name = sub.rsplit("/", 1)[-1].removeprefix("lst_")
        path = root / "src" / sub
        path.mkdir(parents=True)
        (path / "items.txt").write_text("\n".join(MINI_ITEMS[name]) + "\n")
    return str(root)


class _RecordingDs(DsCollection):
    def __init__(self, structs, reads: set) -> None:
        super().__init__(structs)
        self.reads = reads

    def __getitem__(self, name):
        self.reads.add(name)
        return super().__getitem__(name)


class _RecordingTokenizer:
    def __init__(self, tokenizer, reads: set) -> None:
        self._tokenizer = tokenizer
        self.reads = reads

    def tokenize(self, text):
        self.reads.add(TOKENIZER)
        return self._tokenizer.tokenize(text)


def _recording_lexicon(reads: set):
    structs, tokenizer = compile_itemsets(
        {name: set(items) for name, items in MINI_ITEMS.items()}
    )
    return _RecordingDs(structs, reads), _RecordingTokenizer(tokenizer, reads)


def _annotations(doc):
    return sorted(
        (a.start_char, a.end_char, a.tag, a.text) for a in doc.annotations
    )


class TestDeclarations:
    def test_engine_construction_reads_nothing(self):
        reads: set = set()
        DeduceEngine(lexicon=_recording_lexicon(reads))
        assert reads == set()

    def test_every_default_stage_reads_only_what_it_declares(self):
        # an undeclared read is missing from the workers' broadcast, where
        # the lookup tree may be absent: pin each stage's reads here
        for name, spec in DEFAULT_CONFIG["annotators"].items():
            declared = spec_lookup_names(spec)
            assert declared is not None, name
            reads: set = set()
            engine = DeduceEngine(lexicon=_recording_lexicon(reads))
            for text in TEXTS:
                engine.deidentify(
                    text,
                    metadata={"patient": PATIENT},
                    enabled={spec["group"], name},
                )
            assert reads <= declared, (name, reads - declared)

    def test_full_pipeline_reads_only_what_it_declares(self):
        reads: set = set()
        engine = DeduceEngine(lexicon=_recording_lexicon(reads))
        for text in TEXTS:
            engine.deidentify(text, metadata={"patient": PATIENT})
        assert reads and reads <= stage_lookup_names()

    def test_lexicon_free_masks_declare_nothing(self):
        assert stage_lookup_names({"identifiers", "identifier"}) == frozenset()
        assert stage_lookup_names({"email_addresses", "email"}) == {TOKENIZER}
        custom = {
            "annotators": {
                "kamer": {
                    "type": "my_annotators.RoomAnnotator",
                    "group": "identifiers",
                    "args": {},
                }
            }
        }
        # a module.Class annotator declares nothing: it gets every name
        assert stage_lookup_names({"identifiers", "kamer"}, config=custom) is None


class TestResolution:
    def test_on_demand_engine_matches_eager(self, tmp_path):
        tree = _write_tree(tmp_path / "lookup")
        cache = tmp_path / "cache"
        lazy = DeduceEngine(lookup_data_path=tree, cache_dir=cache)
        assert len(lazy.lookup_structs) == 0
        eager = DeduceEngine(lexicon=load_or_build_lexicon(tree, cache_dir=cache))
        for text in TEXTS:
            for mask in (None, {"names"} | lazy.group_names("names")):
                got = lazy.deidentify(text, metadata={"patient": PATIENT}, enabled=mask)
                want = eager.deidentify(
                    text, metadata={"patient": PATIENT}, enabled=mask
                )
                assert _annotations(got) == _annotations(want)
                assert got.deidentified_text == want.deidentified_text
        assert set(lazy.lookup_structs) | {TOKENIZER} == stage_lookup_names()

    def test_lexicon_pickles_resolved_names_only(self, tmp_path):
        import pickle

        tree = _write_tree(tmp_path / "lookup")
        lexicon = Lexicon(tree, cache_dir=tmp_path / "cache")
        lexicon.resolve({"prefix", TOKENIZER})
        shipped, tokenizer = pickle.loads(
            pickle.dumps((lexicon, lexicon.tokenizer))
        )
        assert set(shipped) == {"prefix"}
        assert shipped._compiled is None
        assert [t.text for t in tokenizer.tokenize("dr. van der Berg")] == [
            "dr", ".", "van der", "Berg"
        ]
        # a name outside the subset still resolves from the source tree
        assert shipped["surname"].find_spans(["Jansen"]) == [(0, 1)]
        assert set(shipped) == {"prefix", "surname"}

    def test_unknown_name_is_a_key_error(self, tmp_path):
        lexicon = Lexicon(_write_tree(tmp_path / "lookup"), cache_dir=tmp_path / "c")
        with pytest.raises(KeyError):
            lexicon["no_such_list"]


class TestBroadcast:
    def test_mask_ref_is_memoized_and_holds_declared_names(
        self, ray_session, tmp_path
    ):
        import ray
        import ray.data

        from deduce_ray.rayops.annotate import (
            broadcast_lexicon,
            extract_triples,
            lexicon_ref_for,
        )

        tree = _write_tree(tmp_path / "lookup")
        cache = str(tmp_path / "cache")
        base = broadcast_lexicon(tree, cache)
        assert base is broadcast_lexicon(tree, cache)
        shipped, _ = ray.get(base)
        assert len(shipped) == 0 and shipped._tokenizer is None

        email = {"email_addresses", "email"}
        ref = lexicon_ref_for(base, enabled=email)
        assert ref is lexicon_ref_for(base, enabled=email)
        shipped, _ = ray.get(ref)
        assert len(shipped) == 0 and shipped._tokenizer is not None
        assert lexicon_ref_for(base, enabled={"identifiers", "identifier"}) is base

        full = lexicon_ref_for(base)
        shipped, _ = ray.get(full)
        assert set(shipped) | {TOKENIZER} == stage_lookup_names()

        rows = [
            {"repo": "r", "path": f"{i}.txt", "commit": "c", "lang": "nl",
             "content": text}
            for i, text in enumerate(TEXTS)
        ]
        got = sorted(
            (r["path"], r["start_char"], r["end_char"], r["pred"], r["obj"])
            for r in extract_triples(
                ray.data.from_items(rows), lexicon_ref=base
            ).take_all()
        )
        engine = DeduceEngine(lookup_data_path=tree, cache_dir=cache)
        want = sorted(
            (f"{i}.txt", m["start_char"], m["end_char"], m["pred"], m["obj"])
            for i, text in enumerate(TEXTS)
            for m in engine.extract_mentions(text, disabled={"redactor"})[
                "mentions"
            ]
        )
        assert got and got == want


def test_lexicon_free_masks_run_without_the_lookup_tree(tmp_path):
    """DEDUCE_RAY_LOOKUP names a missing directory (it is read at import,
    hence the subprocess): engine and broadcast build, an ungated-regexp
    mask annotates in the engine and through Ray, and a mask that reads
    the merge terms fails on the driver with the FileNotFoundError naming
    DEDUCE_RAY_LOOKUP — not a KeyError from a partial broadcast."""
    code = textwrap.dedent(
        """
        import ray
        import ray.data

        from deduce_ray.engine import DeduceEngine
        from deduce_ray.rayops.annotate import broadcast_lexicon, extract_triples

        engine = DeduceEngine()
        ray.init(address="local", num_cpus=1, include_dashboard=False)
        ref = broadcast_lexicon()
        row = {"repo": "r", "path": "p", "commit": "c", "lang": "nl",
               "content": "nummer 1234567 hier"}
        ids = {"identifiers", "identifier"}
        got = extract_triples(
            ray.data.from_items([row]), lexicon_ref=ref, enabled=ids
        ).take_all()
        assert [(r["pred"], r["obj"]) for r in got] == [("id", "1234567")], got
        doc = engine.deidentify("nummer 1234567 hier", enabled=ids)
        assert [a.text for a in doc.annotations] == ["1234567"]

        email = {"email_addresses", "email"}
        runs = (
            lambda: extract_triples(
                ray.data.from_items([row]), lexicon_ref=ref, enabled=email
            ),
            lambda: engine.deidentify("mail jan@example.nl", enabled=email),
        )
        for run in runs:
            try:
                run()
            except FileNotFoundError as exc:
                assert "DEDUCE_RAY_LOOKUP" in str(exc), exc
            else:
                raise AssertionError("expected FileNotFoundError")
        ray.shutdown()
        print("on-demand ok")
        """
    )
    env = dict(
        os.environ,
        DEDUCE_RAY_LOOKUP=str(tmp_path / "absent"),
        DEDUCE_RAY_CACHE=str(tmp_path / "cache"),
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        cwd=REPO, env=env, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr[-3000:]
    assert "on-demand ok" in out.stdout
