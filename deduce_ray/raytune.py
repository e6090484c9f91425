"""Ray Data execution-context tuning shared by every Ray-facing module.

Called from the engine's own entry surfaces — the corpus/sources readers
(dataset creation), the CLI, bench, the driver contract module, and the
test session fixture — NEVER at library import: importing deduce_ray must
not mutate the process-global DataContext of an application that embeds
this engine next to its own Ray Data pipelines (nor drag a multi-second
``import ray.data`` into Ray-free uses of the pure-numpy helpers).
Embedders composing these ops over their own datasets keep their own
context unless they call :func:`tune_data_context` explicitly.
"""

from __future__ import annotations

import os

_applied = False


def tune_data_context() -> None:
    """Disable Ray Data's per-operator resource reservation for this
    engine's pipelines (DEDUCE_RAY_OP_RESERVATION=1 restores the default).

    Measured on the graph pipeline (annotate -> combiner -> salted sort ->
    partitioned sink, a 5-map-operator chain): with the default
    ReservationOpResourceAllocator the chain STARVES — at num_cpus=6 the
    annotate stage ran ~1 task at a time (183 s task CPU vs 198 s wall,
    195 s task_submission_backpressure_time; the 50% reservation split
    over the chain's operators leaves each map op less than one full CPU,
    so everything queues behind the shared pool), and at num_cpus=24 the
    same job still paid 2.1x (24.4 s -> 11.4 s without reservation; the
    6-CPU leg went 198 s -> 38.5 s).  This engine's stages keep blocks
    small and bounded (per-batch combiners, constant-width shuffle rows),
    so the reservation mechanism's protection against store-hogging
    operators buys nothing here, while its starvation cost is
    catastrophic on small CPU budgets — exactly the regime the N-vs-4N
    scaling criterion measures.
    """
    global _applied
    if _applied:
        return
    try:
        import ray.data

        ctx = ray.data.DataContext.get_current()
        if os.environ.get("DEDUCE_RAY_OP_RESERVATION") != "1":
            ctx.op_resource_reservation_enabled = False
        # This engine's list<float> columns (resized pixels, frame
        # features, embeddings) are genuine variable-length lists with
        # nulls for non-image rows.  Ray Data's tensor-extension
        # auto-cast fires whenever a batch HAPPENS to hold only
        # equal-length non-null lists — under limit()+actor pools batch
        # composition is timing-dependent, so the cast succeeds on some
        # runs and then fails unifying against a null-bearing block
        # ("Tried to cast column pixels to the TensorArray ... failed").
        # Nothing in this engine consumes the tensor extension type;
        # disable the cast so list columns stay list columns.
        ctx.enable_tensor_extension_casting = False
        _applied = True
    except Exception:  # pragma: no cover — ray absent or API moved
        pass
