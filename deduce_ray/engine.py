"""Single-document engine facade.

Builds the ordered processor tree from config + compiled lexicon and runs it
over one document at a time.  This object is the per-actor state of the Ray
annotate stage: constructed once in the actor's ``__init__`` (from the
broadcast lexicon artifact), then applied to every row of every batch.

Stage order mirrors the reference (base_config.json order plus code-appended
processors, deduce.py:293-326):

    names:        6 token patterns, 2 lookup tries, patient_name,
                  name_context (iterative), eponymous_disease,
                  person_annotation_converter*
    locations:    placename, street_pattern, street_lookup, housenumber,
                  postal_code, postbus, remove_street_tags*, clean_street_tags*
    institutions: hospital, institution
    dates:        date_dmy_1/2, date_ymd_1/2
    ages:         age
    identifiers:  bsn, identifier
    phone_numbers / email_addresses / urls
    post_processing: overlap_resolver -> merge_adjacent_annotations -> redactor
    (* appended in code)
"""

from __future__ import annotations

import time
from pathlib import Path

from deduce_ray import annotators as ann_mod
from deduce_ray.annotation import AnnotationSet
from deduce_ray.config import default_config
from deduce_ray.document import Document
from deduce_ray.lexicon import DEFAULT_LOOKUP_PATH, TOKENIZER, Lexicon
from deduce_ray.linker import DeduceRedactor, assign_entity_ids
from deduce_ray.person import Person
from deduce_ray.processors import (
    AnnotationProcessor,
    CleanAnnotationTag,
    DeduceMergeAdjacentAnnotations,
    OverlapResolver,
    PersonAnnotationConverter,
    RemoveAnnotations,
)
from deduce_ray.structures import DsCollection
from deduce_ray.tokenizer import WordTokenizer


# annotator types whose constructors read lookup structures: the engine
# builds them when a dispatch plan first runs them (_PendingAnnotator)
_LOOKUP_CTOR_TYPES = frozenset({"token_pattern", "context", "multi_token_lookup"})


def _pattern_lookups(pattern) -> set[str]:
    """``lookup`` / ``neg_lookup`` names inside a (nested) pattern spec."""
    if isinstance(pattern, list):
        return set().union(*map(_pattern_lookups, pattern))
    names: set[str] = set()
    if isinstance(pattern, dict):
        for key, value in pattern.items():
            if key in ("lookup", "neg_lookup"):
                names.add(value)
            elif key in ("and", "or", "pattern"):
                names |= _pattern_lookups(value)
    return names


def spec_lookup_names(spec: dict) -> frozenset[str] | None:
    """The lookup names an annotator spec's stage reads, :data:`TOKENIZER`
    standing for the tokenizer's merge terms; None when unknown (a
    ``module.Class`` annotator may read any name)."""
    kind, args = spec["type"], spec["args"]
    if kind == "multi_token_lookup":
        # the trie probes the document's merged tokens
        return frozenset({args["lookup_values"], TOKENIZER})
    if kind in ("token_pattern", "context"):
        return frozenset(_pattern_lookups(args["pattern"]) | {TOKENIZER})
    if kind == "patient_name":
        return frozenset({TOKENIZER})
    if kind in ("regexp", "regexp_pseudo"):
        # the pre_match_words gate reads the merged-token word set
        return frozenset({TOKENIZER} if args.get("pre_match_words") else ())
    if kind in ("bsn", "phone"):
        return frozenset()
    return None


def _runs(group: str, name: str, enabled, disabled) -> bool:
    """Whether the enabled/disabled masks let member ``name`` of ``group``
    run (docdeid semantics: an enabled set names both)."""
    if enabled is not None and (group not in enabled or name not in enabled):
        return False
    return disabled is None or (group not in disabled and name not in disabled)


def stage_lookup_names(
    enabled=None, disabled=None, config: dict | None = None
) -> frozenset[str] | None:
    """Union of :func:`spec_lookup_names` over the configured annotators
    the masks let run; None when one of them declares nothing.  The
    processors the engine appends read no lookup name."""
    names: set[str] = set()
    for name, spec in default_config(config)["annotators"].items():
        if not _runs(spec["group"], name, enabled, disabled):
            continue
        declared = spec_lookup_names(spec)
        if declared is None:
            return None
        names |= declared
    return frozenset(names)


class _PendingAnnotator(ann_mod.Annotator):
    """Holds the place of a configured annotator whose constructor reads
    lookup structures, so that building the engine resolves no name.  The
    engine swaps in the built annotator when a dispatch plan first runs it;
    annotating through the placeholder builds it too."""

    def __init__(self, build, spec: dict) -> None:
        super().__init__(
            spec["args"].get("tag", "_"), spec["args"].get("priority", 0)
        )
        self._build = build
        self._spec = spec
        self._built: ann_mod.Annotator | None = None

    def build(self) -> ann_mod.Annotator:
        if self._built is None:
            self._built = self._build(self._spec)
        return self._built

    def annotate(self, doc: Document):
        return self.build().annotate(doc)


class DeduceEngine:
    """The full rule pipeline over single documents.

    The lexicon is resolved on demand (:class:`~deduce_ray.lexicon.Lexicon`):
    constructing the engine reads no lookup file.  A stage's lookup lists
    are resolved when the first plan that runs it is built, the merge
    terms on the first tokenize, so masks whose stages read no lookup list
    (:func:`spec_lookup_names`) run without the source tree.
    """

    def __init__(
        self,
        lookup_data_path: str | Path = DEFAULT_LOOKUP_PATH,
        cache_dir: str | Path | None = None,
        config: dict | None = None,
        build_lookup_structs: bool = False,
        lexicon: tuple[DsCollection, WordTokenizer] | None = None,
    ) -> None:
        self.config = default_config(config)
        if lexicon is None:
            structs = Lexicon(
                lookup_data_path, cache_dir=cache_dir, build=build_lookup_structs
            )
            lexicon = (structs, structs.tokenizer)
        self.lookup_structs, self.tokenizer = lexicon
        self._build_processors()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def _make_annotator(self, spec: dict) -> ann_mod.Annotator:
        kind = spec["type"]
        args = dict(spec["args"])
        ds = self.lookup_structs

        if kind == "token_pattern":
            return ann_mod.TokenPatternAnnotator(ds=ds, **args)
        if kind == "context":
            return ann_mod.ContextAnnotator(ds=ds, **args)
        if kind == "multi_token_lookup":
            trie = ds[args.pop("lookup_values")]
            return ann_mod.MultiTokenLookupAnnotator(trie=trie, **args)
        if kind == "patient_name":
            return ann_mod.PatientNameAnnotator(tokenizer=self.tokenizer, **args)
        if kind == "regexp":
            return ann_mod.RegexpAnnotator(**args)
        if kind == "regexp_pseudo":
            return ann_mod.RegexpPseudoAnnotator(**args)
        if kind == "bsn":
            return ann_mod.BsnAnnotator(**args)
        if kind == "phone":
            return ann_mod.PhoneNumberAnnotator(**args)
        if "." in kind:
            return self._load_annotator_class(kind, args)
        raise ValueError(f"unknown annotator type: {kind}")

    def _load_annotator_class(self, kind: str, args: dict) -> ann_mod.Annotator:
        """Dynamic config-driven loading: ``type: "module.Class"`` imports
        the class and instantiates it with the spec args, injecting ``ds``
        and/or ``tokenizer`` when the constructor accepts them (mirrors the
        reference's extras mechanism, /root/reference/deduce/deduce.py:172-182
        and utils.py:35-72; tutorial.md:163-236)."""
        import importlib
        import inspect

        module_name, _, class_name = kind.rpartition(".")
        try:
            cls = getattr(importlib.import_module(module_name), class_name)
        except (ImportError, AttributeError) as exc:
            raise ValueError(
                f"cannot load annotator class {kind!r}: {exc}"
            ) from exc
        params = inspect.signature(cls.__init__).parameters
        extras = {"ds": self.lookup_structs, "tokenizer": self.tokenizer}
        for name, value in extras.items():
            if name in params and name not in args:
                args[name] = value
        return cls(**args)

    def _build_processors(self) -> None:
        # groups: ordered dict of group name -> list[(name, processor)]
        groups: dict[str, list] = {}
        for name, spec in self.config["annotators"].items():
            if spec["type"] in _LOOKUP_CTOR_TYPES:
                proc = _PendingAnnotator(self._make_annotator, spec)
            else:
                proc = self._make_annotator(spec)
            groups.setdefault(spec["group"], []).append((name, proc))

        groups.setdefault("names", []).append(
            ("person_annotation_converter", PersonAnnotationConverter())
        )
        groups.setdefault("locations", []).append(
            ("remove_street_tags", RemoveAnnotations(tags=["straat"]))
        )
        groups["locations"].append(
            (
                "clean_street_tags",
                CleanAnnotationTag(
                    tag_map={
                        "straat+huisnummer": "locatie",
                        "straat+huisnummer+huisnummerletter": "locatie",
                    }
                ),
            )
        )

        strategy = self.config["resolve_overlap_strategy"]
        callbacks = {
            attr: ((lambda x: x) if asc else (lambda x: -x))
            for attr, asc in zip(strategy["attributes"], strategy["ascending"])
        }
        self.redactor = DeduceRedactor(
            open_char=self.config["redactor_open_char"],
            close_char=self.config["redactor_close_char"],
        )
        groups["post_processing"] = [
            (
                "overlap_resolver",
                OverlapResolver(
                    sort_by=tuple(strategy["attributes"]),
                    sort_by_callbacks=callbacks,
                ),
            ),
            (
                "merge_adjacent_annotations",
                DeduceMergeAdjacentAnnotations(
                    slack_regexp=self.config["adjacent_annotations_slack"],
                ),
            ),
            ("redactor", self.redactor),
        ]
        self.processor_groups = groups

    # ------------------------------------------------------------------
    # programmatic pipeline surgery (mirrors the reference's
    # deduce.processors interaction, docs/source/tutorial.md:163-200)
    # ------------------------------------------------------------------

    def add_processor(
        self,
        name: str,
        processor,
        group: str,
        position: int | None = None,
    ) -> None:
        """Insert a custom annotator/processor into a group (created if
        missing, placed before post_processing).  ``position`` indexes
        within the group; default appends."""
        if group not in self.processor_groups:
            groups = list(self.processor_groups.items())
            insert_at = next(
                (i for i, (g, _) in enumerate(groups) if g == "post_processing"),
                len(groups),
            )
            groups.insert(insert_at, (group, []))
            self.processor_groups = dict(groups)
        members = self.processor_groups[group]
        entry = (name, processor)
        if position is None:
            members.append(entry)
        else:
            members.insert(position, entry)
        self._layout_version = getattr(self, "_layout_version", 0) + 1

    def remove_processor(self, name: str) -> None:
        """Remove a whole group by name, or a single member from whichever
        group holds it."""
        self._layout_version = getattr(self, "_layout_version", 0) + 1
        if name in self.processor_groups:
            del self.processor_groups[name]
            return
        for members in self.processor_groups.values():
            for i, (member_name, _) in enumerate(members):
                if member_name == name:
                    del members[i]
                    return
        raise KeyError(name)

    def group_names(self, group: str) -> set[str]:
        """Names that enable a whole group: the group name plus its members
        (mirrors the reference regression harness,
        tests/regression/test_regression.py:37-38)."""
        return {name for name, _ in self.processor_groups[group]} | {group}

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def deidentify(
        self,
        text: str,
        metadata: dict | None = None,
        enabled: set[str] | None = None,
        disabled: set[str] | None = None,
        time_budget_s: float | None = None,
    ) -> Document:
        """``time_budget_s``: optional per-document wall-clock budget — a
        straggler guard for adversarial inputs at scale.  The guard is
        BEST-EFFORT with between-annotator granularity: the deadline is
        checked before each remaining ANNOTATOR starts (the found
        annotations stay valid), the annotation PROCESSORS still run so
        the output is well-formed, and ``doc.budget_exhausted`` is set
        for the caller to flag.  Only the context fixpoint also checks
        the deadline mid-iteration; a single non-deadline-aware annotator
        (trie scan / token-pattern walk on a pathological document) can
        overshoot the budget by its own runtime before the skip takes
        effect.  Off (None) by default: budgeted output depends on
        wall-clock, so conformance paths must not use it."""
        if enabled is not None and disabled is not None:
            raise ValueError("pass either enabled or disabled, not both")

        doc = Document(text, tokenizer=self.tokenizer, metadata=metadata)
        deadline = None
        if time_budget_s is not None:
            deadline = doc._deadline = time.monotonic() + time_budget_s

        # run off a flat precomputed (kind, proc) list for this mask
        # signature: the isinstance dispatch and two mask tests per
        # processor are measurable at ~34 processors/doc
        # dispatch inlined (not via _run_kind): one Python call per
        # processor at ~34 processors/doc is measurable engine overhead
        for kind, proc in self._dispatch_plan(enabled, disabled):
            if kind == 0:
                if deadline is not None and time.monotonic() > deadline:
                    doc.budget_exhausted = True
                    continue
                new = proc.annotate(doc)
                if new:
                    doc.annotations.update(new)
            elif kind == 1:
                doc.annotations = proc.process_annotations(
                    doc.annotations, doc.text
                )
            else:
                doc.deidentified_text = proc.redact(doc.text, doc.annotations)
        return doc

    @staticmethod
    def _proc_kind(proc) -> int:
        if isinstance(proc, ann_mod.Annotator):
            return 0
        if isinstance(proc, AnnotationProcessor):
            return 1
        if isinstance(proc, DeduceRedactor):
            return 2
        raise TypeError(f"unknown processor: {proc!r}")

    def _dispatch_plan(self, enabled, disabled) -> list[tuple[int, object]]:
        """(kind, proc) for the members passing the enabled/disabled masks,
        cached per (mask signature, pipeline layout version).  The version
        is bumped by add_processor / remove_processor — the supported
        surgery API — so plans invalidate without re-walking the groups on
        every document.  Building a plan builds the pending annotators it
        runs, which resolves their lookup names: once per engine, never
        per document."""
        key = (
            frozenset(enabled) if enabled is not None else None,
            frozenset(disabled) if disabled is not None else None,
            getattr(self, "_layout_version", 0),
        )
        cache = getattr(self, "_dispatch_cache", None)
        if cache is None:
            cache = self._dispatch_cache = {}
        plan = cache.get(key)
        if plan is not None:
            return plan
        plan = []
        for group_name, members in self.processor_groups.items():
            for i, (name, proc) in enumerate(members):
                if not _runs(group_name, name, enabled, disabled):
                    continue
                if isinstance(proc, _PendingAnnotator):
                    proc = proc.build()
                    members[i] = (name, proc)
                plan.append((self._proc_kind(proc), proc))
        if len(cache) >= 32:
            cache.clear()
        cache[key] = plan
        return plan

    @staticmethod
    def _run_kind(kind: int, proc, doc: Document) -> None:
        if kind == 0:
            new = proc.annotate(doc)
            if new:
                doc.annotations.update(new)
        elif kind == 1:
            doc.annotations = proc.process_annotations(doc.annotations, doc.text)
        else:
            doc.deidentified_text = proc.redact(doc.text, doc.annotations)

    @classmethod
    def _run_processor(cls, proc, doc: Document) -> None:
        cls._run_kind(cls._proc_kind(proc), proc, doc)

    # ------------------------------------------------------------------
    # KG view: mentions + per-doc entity links
    # ------------------------------------------------------------------

    def extract_mentions(
        self,
        text: str,
        patient: Person | None = None,
        enabled: set[str] | None = None,
        disabled: set[str] | None = None,
        with_redacted: bool = False,
    ) -> dict:
        """Run the pipeline and return mention rows + entity assignment for
        the triple table (sorted by span for deterministic output)."""
        metadata = {"patient": patient} if patient is not None else None
        doc = self.deidentify(text, metadata=metadata, enabled=enabled, disabled=disabled)
        entity_ids = assign_entity_ids(doc.annotations)
        mentions = [
            {
                "pred": ann.tag,
                "obj": ann.text,
                "start_char": ann.start_char,
                "end_char": ann.end_char,
                "entity_id": entity_ids[ann],
            }
            for ann in doc.annotations.sorted_by(("start_char",))
        ]
        out = {"mentions": mentions}
        if with_redacted:
            out["redacted"] = doc.deidentified_text
        return out
