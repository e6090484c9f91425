"""Measurement helpers: process-tree memory, spans, Ray Data stats, and
the process cleanup check.  Only /proc of this process's own tree is read."""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path


# ---------------------------------------------------------------------------
# process tree
# ---------------------------------------------------------------------------


def descendants(pid: int) -> list[int]:
    """Every live descendant of ``pid`` (children files of all threads)."""
    out: list[int] = []
    stack = [pid]
    while stack:
        p = stack.pop()
        try:
            tids = os.listdir(f"/proc/{p}/task")
        except OSError:
            continue
        for tid in tids:
            try:
                with open(f"/proc/{p}/task/{tid}/children") as fh:
                    kids = [int(c) for c in fh.read().split()]
            except OSError:
                continue
            out.extend(kids)
            stack.extend(kids)
    return out


def _pss_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/smaps_rollup") as fh:
            for line in fh:
                if line.startswith("Pss:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def tree_pss_mb(pid: int | None = None) -> float:
    """Proportional set size of ``pid`` and all its descendants, in MB.
    Pss splits each shared page (the object store, shared libraries)
    among the processes mapping it, so the sum counts it once."""
    pid = os.getpid() if pid is None else pid
    return sum(_pss_kb(p) for p in [pid] + descendants(pid)) / 1024.0


class PeakSampler:
    """Background thread sampling :func:`tree_pss_mb`; ``peak`` is the
    largest sample seen while running."""

    def __init__(self, interval_s: float = 0.5) -> None:
        self.interval_s = interval_s
        self.peak = 0.0
        self.samples = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while True:
            self.peak = max(self.peak, tree_pss_mb())
            self.samples += 1
            if self._stop.wait(self.interval_s):
                return

    def __enter__(self) -> "PeakSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(timeout=10)


def _running(pid: int) -> bool:
    """Alive and not a zombie; a zombie child of ours is reaped here."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            state = fh.read().rsplit(")", 1)[1].split()[0]
    except OSError:
        return False
    if state == "Z":
        try:
            os.waitpid(pid, os.WNOHANG)
        except ChildProcessError:
            pass  # not our child: its own parent reaps it
        return False
    return True


def wait_children_gone(timeout_s: float = 30.0) -> list[int]:
    """Wait until no descendant of this process is running; return those
    still running at the timeout."""
    deadline = time.monotonic() + timeout_s
    while True:
        left = [p for p in descendants(os.getpid()) if _running(p)]
        if not left or time.monotonic() > deadline:
            return left
        time.sleep(0.1)


def cpu_ticks() -> tuple[int, int]:
    """(steal, total) clock ticks so far, over all CPUs (/proc/stat)."""
    with open("/proc/stat") as fh:
        fields = [int(x) for x in fh.readline().split()[1:9]]
    return fields[7], sum(fields)


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------


class Tracer:
    """Spans (name, start, end, parent) kept in memory and written out at
    the end; ``span`` also returns the elapsed seconds."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []

    class _Span:
        def __init__(self, tracer: "Tracer", name: str) -> None:
            self.tracer, self.name = tracer, name
            self.elapsed = 0.0

        def __enter__(self):
            t = self.tracer
            self.index = len(t.spans)
            t.spans.append({
                "name": self.name,
                "start": time.time(),
                "end": None,
                "parent": t._stack[-1] if t._stack else None,
            })
            t._stack.append(self.index)
            self._t0 = time.perf_counter()
            return self

        def __exit__(self, *exc) -> None:
            self.elapsed = time.perf_counter() - self._t0
            t = self.tracer
            t.spans[self.index]["end"] = time.time()
            t._stack.pop()

    def span(self, name: str) -> "Tracer._Span":
        return Tracer._Span(self, name)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.spans))


# ---------------------------------------------------------------------------
# Ray Data per-operator stats
# ---------------------------------------------------------------------------

OPERATOR_KINDS = ("read", "map", "exchange", "write")
OPERATOR_FIELDS = ("wall_s", "cpu_s", "rows_out", "bytes_out")


def operator_kind(name: str) -> str:
    low = name.lower()
    if low.startswith("read") or "->read" in low or "fromarrow" in low or "frompandas" in low:
        return "read"
    if "write" in low:
        return "write"
    if any(k in low for k in ("sort", "shuffle", "aggregate", "repartition", "groupby", "join")):
        return "exchange"
    return "map"


def raydata_stats(ds, into: dict, seen: set) -> None:
    """Add the executed dataset's per-operator stats (sums over blocks) to
    ``into``, keyed ``raydata.<kind>.<field>``, plus the bytes it spilled.
    The stats of one execution chain upstream operators as parents, and
    a stage's materialized input appears there again: ``seen`` holds the
    operators already counted."""
    summary = ds._get_stats_summary()

    def walk(s) -> None:
        for parent in s.parents:
            walk(parent)
        for op in s.operators_stats:
            key = (op.operator_name, op.earliest_start_time, op.latest_end_time)
            if key in seen:
                continue
            seen.add(key)
            kind = operator_kind(op.operator_name)
            for field, stat in (
                ("wall_s", op.wall_time),
                ("cpu_s", op.cpu_time),
                ("rows_out", op.output_num_rows),
                ("bytes_out", op.output_size_bytes),
            ):
                if stat and "sum" in stat:
                    name = f"raydata.{kind}.{field}"
                    into[name] = into.get(name, 0.0) + float(stat["sum"])

    walk(summary)
    into["raydata.spilled_mb"] = into.get("raydata.spilled_mb", 0.0) + (
        summary.dataset_bytes_spilled or 0
    ) / 2**20
