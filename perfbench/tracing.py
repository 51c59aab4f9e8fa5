"""Tracing for the benchmark, kept entirely outside the program.

A ``Tracer`` records spans (name, start, end, parent) around calls the
benchmark makes into the program's public functions. In a traced run
each span also sets a Spark job group, reads that group's job, stage
and task counts from the status tracker when the span closes, and,
after the session stops, takes shuffle records, shuffle bytes and GC
time per group from Spark's uncompressed local event log. With tracing
off a span does nothing, so the end-to-end timings carry no tracing
cost.
"""
from __future__ import annotations

import contextlib
import functools
import json
import time
from pathlib import Path


class Tracer:
    def __init__(self, sc=None):
        #: The SparkContext when tracing, else None (every span is a no-op).
        self.sc = sc
        self.spans: list[dict] = []
        #: Per job group: {"jobs", "stages", "tasks"} from the status tracker.
        self.groups: dict[str, dict] = {}
        #: Per (wrapped function, outermost open span): [calls, seconds].
        self.calls: dict[tuple[str, str], list] = {}
        self._stack: list[int] = []

    @property
    def enabled(self) -> bool:
        return self.sc is not None

    @contextlib.contextmanager
    def span(self, name: str):
        """Time a block as span ``name``, under Spark job group ``name``."""
        if not self.enabled:
            yield
            return
        parent = self._stack[-1] if self._stack else None
        rec = {"name": name, "parent": parent, "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        self.sc.setJobGroup(name, name)
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()
            outer = self.spans[self._stack[-1]]["name"] if self._stack else "bench"
            self.sc.setJobGroup(outer, outer)
            self.groups[name] = self._tracker_counts(name)

    def _tracker_counts(self, group: str) -> dict:
        st = self.sc.statusTracker()
        jobs = st.getJobIdsForGroup(group)
        stages = tasks = 0
        for jid in jobs:
            info = st.getJobInfo(jid)
            for sid in info.stageIds if info else ():
                si = st.getStageInfo(sid)
                if si is not None and si.numCompletedTasks > 0:
                    stages += 1
                    tasks += si.numCompletedTasks
        return {"jobs": len(jobs), "stages": stages, "tasks": tasks}

    def durations(self, prefix: str) -> list[float]:
        """Durations of the spans whose name starts with ``prefix``."""
        return [s["end"] - s["start"] for s in self.spans if s["name"].startswith(prefix)]

    def wrap(self, module, attr: str) -> None:
        """Count calls to ``module.attr`` and their time, from outside.

        Replaces the module attribute with a counting wrapper; the
        program's code is unchanged. Calls are charged to the outermost
        span open at the time.
        """
        fn = getattr(module, attr)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                outer = self.spans[self._stack[0]]["name"] if self._stack else "bench"
                stats = self.calls.setdefault((attr, outer), [0, 0.0])
                stats[0] += 1
                stats[1] += time.perf_counter() - t0

        setattr(module, attr, counted)

    def write(self, path: Path) -> None:
        path.write_text(json.dumps({"spans": self.spans, "groups": self.groups}, indent=1))


def event_log_totals(log_dir: Path) -> dict[str, dict]:
    """Shuffle records, shuffle bytes and GC time per job group.

    Reads the uncompressed event log under ``log_dir``, in order of its
    rolled files (``events_<n>_<app>``). Each task is charged to the job
    group of the first job that ran its stage. GC time is each task's
    "JVM GC Time"; in local mode tasks share one JVM, so a pause seen by
    concurrent tasks is counted once per task.
    """
    logs = sorted(log_dir.rglob("events_*"), key=lambda p: int(p.name.split("_")[1]))
    if not logs:
        raise RuntimeError(f"no Spark event log under {log_dir}")
    stage_group: dict[int, str] = {}
    out: dict[str, dict] = {}
    for log in logs:
        with log.open() as f:
            for line in f:
                if '"SparkListenerJobStart"' in line:
                    ev = json.loads(line)
                    group = (ev.get("Properties") or {}).get("spark.jobGroup.id") or "none"
                    for sid in ev["Stage IDs"]:
                        stage_group.setdefault(sid, group)
                elif '"SparkListenerTaskEnd"' in line:
                    ev = json.loads(line)
                    m = ev.get("Task Metrics") or {}
                    w = m.get("Shuffle Write Metrics") or {}
                    g = out.setdefault(
                        stage_group.get(ev["Stage ID"], "none"),
                        {"shuffle_records": 0, "shuffle_bytes": 0, "gc_ms": 0},
                    )
                    g["shuffle_records"] += w.get("Shuffle Records Written", 0)
                    g["shuffle_bytes"] += w.get("Shuffle Bytes Written", 0)
                    g["gc_ms"] += m.get("JVM GC Time", 0)
    return out


def vm_hwm_mb(pid: int | str = "self") -> float:
    """Peak resident set size (``VmHWM``) of a process, in MB (10^6 bytes)."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) * 1024 / 1e6
    raise RuntimeError(f"no VmHWM for pid {pid}")
