"""The stateful annotate stage: an actor-pool ``map_batches`` UDF.

Design (SURVEY.md §4.3): ONE fused actor stage runs tokenize -> all enabled
annotators -> per-doc set processors -> entity linking, emitting flat triple
rows.  The compiled lexicon entries the enabled stages declare (numpy-packed
tries, see packed_trie.py) are resolved and broadcast once via ``ray.put``
on the driver and materialized per actor in ``__init__`` — never per
batch, never re-read from the source tree.

Arrow in / Arrow out; the per-document rule engine is intrinsically
row-wise (span logic over token chains), so the batch loop is Python, but
all state setup, regex compilation and lexicon probes are amortized across
the actor's lifetime.
"""

from __future__ import annotations

import hashlib

import pyarrow as pa

TRIPLE_SCHEMA = pa.schema(
    [
        ("doc_id", pa.string()),        # sha256(content): subject + invariant
        ("repo", pa.string()),
        ("path", pa.string()),
        ("commit", pa.string()),
        ("lang", pa.string()),
        ("pred", pa.string()),          # PHI category (tag)
        ("obj", pa.string()),           # mention text
        ("start_char", pa.int32()),
        ("end_char", pa.int32()),
        ("entity_id", pa.string()),     # per-doc canonical entity (linker)
    ]
)


_BROADCAST_LEXICON_CACHE: dict = {}


def broadcast_lexicon(lookup_data_path=None, cache_dir=None, names=()):
    """Resolve ``names`` of the lexicon on the driver (every name when
    None) and put that subset in the object store; returns the ObjectRef
    handed to every AnnotateBatch actor.  The default, no name, reads no
    lookup file: :func:`extract_triples` re-keys such a ref onto the names
    its enabled stages declare (:func:`lexicon_ref_for`).

    Memoized per (path, cache_dir, name set) for the life of the Ray
    session: every caller (bench headline, __ray_entry__ queries, user
    pipelines) must share ONE ObjectRef per name set, because workers key
    their per-process engine caches on the ref — a second ref for the same
    lexicon makes every worker re-fetch and re-unpickle it (~1.2 s each
    for the full 77 MB) inside whichever stage touches it first."""
    import ray

    from deduce_ray.lexicon import DEFAULT_LOOKUP_PATH, Lexicon

    path = lookup_data_path if lookup_data_path is not None else DEFAULT_LOOKUP_PATH

    # job id in the key: a ray.shutdown()/ray.init() cycle in one process
    # invalidates every ObjectRef from the old session — a stale cached ref
    # would poison all annotate stages of the new session
    def _job_id():
        try:
            if ray.is_initialized():
                return ray.get_runtime_context().get_job_id()
        except Exception:
            pass
        return None

    names = None if names is None else frozenset(names)
    base = (str(path), str(cache_dir) if cache_dir is not None else None, names)
    if ray.is_initialized():
        # consult the cache with whatever id we can get — including None
        # when get_job_id itself raises (API drift): in that degraded case
        # every call sees None, so the None-keyed entry still memoizes
        # within the session (a shutdown/init cycle then risks one stale
        # ref, strictly better than re-broadcasting per call)
        ref = _BROADCAST_LEXICON_CACHE.get(base + (_job_id(),))
        if ref is not None:
            return ref
    # a fresh Lexicon: the loaded artifact is dropped with it on return, so
    # the driver holds no lexicon between broadcasts (one load per name set)
    lexicon = Lexicon(path, cache_dir=cache_dir)
    lexicon.resolve(names)
    ref = ray.put((lexicon, lexicon.tokenizer))
    # re-fetch AFTER ray.put: when this call was the process' first Ray
    # interaction, put() auto-initialized the session — keying the memo on
    # the pre-init None would make every later call miss and re-broadcast,
    # the exact regression the memo exists to prevent
    _BROADCAST_LEXICON_CACHE[base + (_job_id(),)] = ref
    return ref


def lexicon_ref_for(lexicon_ref, enabled=None, disabled=None):
    """The broadcast holding exactly the lookup names that the stages the
    masks let run declare (:func:`deduce_ray.engine.stage_lookup_names`).
    A ref made by :func:`broadcast_lexicon` is re-keyed onto that name set
    of the same source, resolving it on the driver; any other ref is used
    as given."""
    from deduce_ray.engine import stage_lookup_names

    if lexicon_ref is None:
        return None
    wanted = lexicon_ref.hex()
    source = next(
        (key[:2] for key, ref in _BROADCAST_LEXICON_CACHE.items()
         if ref.hex() == wanted),
        None,
    )
    if source is None:
        return lexicon_ref
    return broadcast_lexicon(*source, names=stage_lookup_names(enabled, disabled))


class AnnotateBatch:
    """Callable actor class for ``map_batches``.

    Args:
        lexicon_ref: ObjectRef from :func:`broadcast_lexicon` (preferred:
            one object-store copy per node), holding the names the enabled
            stages declare (:func:`lexicon_ref_for`).  If None, the actor
            resolves them from the fingerprinted cache artifact itself.
        enabled / disabled: stage masks (group and/or annotator names),
            mirroring the reference's deidentify() contract.
        with_redacted: also emit one row per document with
            pred="_redacted", obj=<deidentified text> (conformance sink).
    """

    def __init__(
        self,
        lexicon_ref=None,
        lookup_data_path=None,
        cache_dir=None,
        enabled=None,
        disabled=None,
        with_redacted: bool = False,
        max_content_chars: int = 2_000_000,
        time_budget_s: float | None = None,
    ) -> None:
        from deduce_ray.engine import DeduceEngine

        lexicon = None
        if lexicon_ref is not None:
            import ray

            lexicon = ray.get(lexicon_ref)

        kwargs = {}
        if lookup_data_path is not None:
            kwargs["lookup_data_path"] = lookup_data_path
        self.engine = DeduceEngine(lexicon=lexicon, cache_dir=cache_dir, **kwargs)
        self.enabled = set(enabled) if enabled else None
        self.disabled = set(disabled) if disabled else None
        self.with_redacted = with_redacted
        # when the redacted text is not requested, skip the redactor stage
        # entirely: its per-doc fuzzy TAG-n grouping duplicates the entity
        # linking extract_mentions does anyway, and the rendered string is
        # discarded — measurable per-doc cost on the hot path.  With an
        # explicit enabled set the redactor only runs if named, so only the
        # enabled=None (full pipeline) case needs the exclusion.
        if not with_redacted and self.enabled is None:
            self.disabled = (self.disabled or set()) | {"redactor"}
        # straggler guard: annotate only the first N chars of pathological
        # documents and flag them with a pred="_truncated" row
        self.max_content_chars = max_content_chars
        # second straggler guard, opt-in: per-document wall-clock budget;
        # breached documents keep their annotations-so-far and gain a
        # pred="_budget_exhausted" flag row.  Off by default (budgeted
        # output depends on wall-clock — conformance must not use it).
        self.time_budget_s = time_budget_s

    def __call__(self, batch: pa.Table) -> pa.Table:
        from deduce_ray.linker import assign_entity_ids
        from deduce_ray.person import Person

        repos = batch.column("repo").to_pylist()
        paths = batch.column("path").to_pylist()
        commits = batch.column("commit").to_pylist()
        langs = batch.column("lang").to_pylist()
        contents = batch.column("content").to_pylist()

        # optional per-row patient metadata (struct column mirroring
        # deduce.person.Person) enables the patient_name annotator
        if "patient" in batch.schema.names:
            patients = batch.column("patient").to_pylist()
        else:
            patients = [None] * batch.num_rows

        out: dict[str, list] = {name: [] for name in TRIPLE_SCHEMA.names}
        append = {name: out[name].append for name in out}

        for repo, path, commit, lang, content, patient in zip(
            repos, paths, commits, langs, contents, patients
        ):
            if content is None or content == "":
                continue
            doc_id = hashlib.sha256(content.encode("utf-8")).hexdigest()
            original_len = len(content)
            truncated = original_len > self.max_content_chars
            if truncated:
                content = content[: self.max_content_chars]
            metadata = None
            if patient is not None:
                metadata = {
                    "patient": Person(
                        first_names=patient.get("first_names"),
                        initials=patient.get("initials"),
                        surname=patient.get("surname"),
                    )
                }
            doc = self.engine.deidentify(
                content,
                metadata=metadata,
                enabled=self.enabled,
                disabled=self.disabled,
                time_budget_s=self.time_budget_s,
            )
            entity_ids = assign_entity_ids(doc.annotations)

            for ann in doc.annotations.sorted_by(("start_char",)):
                append["doc_id"](doc_id)
                append["repo"](repo)
                append["path"](path)
                append["commit"](commit)
                append["lang"](lang)
                append["pred"](ann.tag)
                append["obj"](ann.text)
                append["start_char"](ann.start_char)
                append["end_char"](ann.end_char)
                append["entity_id"](entity_ids[ann])

            if truncated:
                append["doc_id"](doc_id)
                append["repo"](repo)
                append["path"](path)
                append["commit"](commit)
                append["lang"](lang)
                append["pred"]("_truncated")
                append["obj"](str(original_len))
                append["start_char"](0)
                append["end_char"](len(content))
                append["entity_id"]("")

            if getattr(doc, "budget_exhausted", False):
                append["doc_id"](doc_id)
                append["repo"](repo)
                append["path"](path)
                append["commit"](commit)
                append["lang"](lang)
                append["pred"]("_budget_exhausted")
                append["obj"](str(self.time_budget_s))
                append["start_char"](0)
                append["end_char"](len(content))
                append["entity_id"]("")

            if self.with_redacted and doc.deidentified_text is not None:
                append["doc_id"](doc_id)
                append["repo"](repo)
                append["path"](path)
                append["commit"](commit)
                append["lang"](lang)
                append["pred"]("_redacted")
                append["obj"](doc.deidentified_text)
                append["start_char"](0)
                append["end_char"](len(content))
                append["entity_id"]("")

        return pa.table(out, schema=TRIPLE_SCHEMA)


_WORKER_ENGINE_CACHE: dict = {}


def _cached_engine(
    lexicon_ref, enabled, disabled, with_redacted=False, time_budget_s=None
):
    """Per-worker-process engine cache for the task-pool variant: Ray
    reuses worker processes across map tasks, so the engine (lexicon) is
    built once per worker — actor-like amortization with task-pool
    scheduling (which balances better on heterogeneous batches)."""
    key = (
        lexicon_ref.hex() if lexicon_ref is not None else None,
        tuple(sorted(enabled)) if enabled else None,
        tuple(sorted(disabled)) if disabled else None,
        with_redacted,
        time_budget_s,
    )
    worker = _WORKER_ENGINE_CACHE.get(key)
    if worker is None:
        worker = AnnotateBatch(
            lexicon_ref=lexicon_ref,
            enabled=enabled,
            disabled=disabled,
            with_redacted=with_redacted,
            time_budget_s=time_budget_s,
        )
        # keep a FEW configs resident: interleaved stages with different
        # enabled sets share worker processes, and a single-slot cache
        # would rebuild the engine on every batch (the exact cost this
        # cache amortizes).  Engines share the broadcast lexicon object,
        # so extra slots cost per-config compiled state only.
        if len(_WORKER_ENGINE_CACHE) >= 8:
            _WORKER_ENGINE_CACHE.pop(next(iter(_WORKER_ENGINE_CACHE)))
        _WORKER_ENGINE_CACHE[key] = worker
    return worker


def extract_triples(
    ds,
    *,
    lexicon_ref=None,
    enabled=None,
    disabled=None,
    with_redacted: bool = False,
    mode: str = "tasks",
    concurrency=(1, 8),
    batch_size: int = 128,
    num_cpus: float = 1,
    time_budget_s: float | None = None,
):
    """repo-table Dataset -> flat triple Dataset.

    Two physical plans for the same stateful stage:

    - ``mode="tasks"`` (default): task-pool ``map_batches`` with the engine
      cached per worker process (:func:`_cached_engine`).  Ray reuses
      workers, so lexicon setup is still once-per-process, while block
      scheduling gets the task pool's better load balancing — measured
      ~2-4x faster end-to-end than the actor pool on this workload.
    - ``mode="actors"``: classic actor pool.  ``max_tasks_in_flight_per_
      actor=1`` because deeper in-flight queues pre-assign blocks and
      stragglers serialize behind them (measured 2x slowdown); raise it
      only when multi-node block-transfer latency needs pipelining.
      Keep pool size below the node's CPU count or upstream operators
      starve.

    A ``lexicon_ref`` from :func:`broadcast_lexicon` is replaced by the
    broadcast of just the lookup names the enabled stages declare
    (:func:`lexicon_ref_for`), resolved here on the driver: a mask whose
    stages read no lookup list runs without the lookup source tree, and a
    missing tree fails here rather than inside the workers.
    """
    lexicon_ref = lexicon_ref_for(lexicon_ref, enabled, disabled)
    if mode == "tasks":

        def annotate(batch: pa.Table) -> pa.Table:
            return _cached_engine(
                lexicon_ref, enabled, disabled, with_redacted, time_budget_s
            )(batch)

        return ds.map_batches(
            annotate,
            batch_format="pyarrow",
            zero_copy_batch=True,
            batch_size=batch_size,
            num_cpus=num_cpus,
        )

    from ray.data import ActorPoolStrategy

    if isinstance(concurrency, tuple):
        strategy = ActorPoolStrategy(
            min_size=concurrency[0],
            max_size=concurrency[1],
            max_tasks_in_flight_per_actor=1,
        )
    else:
        strategy = ActorPoolStrategy(
            size=concurrency, max_tasks_in_flight_per_actor=1
        )

    return ds.map_batches(
        AnnotateBatch,
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=batch_size,
        compute=strategy,
        num_cpus=num_cpus,
        fn_constructor_kwargs={
            "lexicon_ref": lexicon_ref,
            "enabled": enabled,
            "disabled": disabled,
            "with_redacted": with_redacted,
            "time_budget_s": time_budget_s,
        },
    )
