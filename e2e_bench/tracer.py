"""Benchmark-owned spans around the program's public layer functions.

A traced run installs wrappers on the attributes the program's callers
look functions up by (a module global, or a class attribute for
methods).  Each wrapper opens a span — name, start, end, parent, and
the run's trace id — kept in memory and written out when the run ends.
Nothing is added inside the program.

A layer's *self time* is its span's duration minus the time its child
spans cover.  Functions called once per flow or per piece (payload
builders, rarest-first) are "hot": they are timed and counted in
aggregate, and their time is still subtracted from the enclosing span,
so a million tiny span records never distort the run they measure.

Wrappers check :attr:`Tracer.enabled` on every call, so a traced run can
alternate traced and untraced units and report the tracing overhead as
the difference.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, List, Optional


class _Frame:
    __slots__ = ("id", "name", "parent", "start", "child")

    def __init__(self, span_id: int, name: str, parent: Optional[int], start: float):
        self.id = span_id
        self.name = name
        self.parent = parent
        self.start = start
        self.child = 0.0


class Tracer:
    """In-memory span recorder for one workload run."""

    def __init__(self, trace_id: str) -> None:
        self.trace_id = trace_id
        self.enabled = False
        self.spans: List[Dict] = []
        #: hot-function name -> [calls, seconds]
        self.hot: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0])
        #: named counts recorded at layer boundaries
        self.counts: Dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List = []

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def _stack(self) -> List[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        stack = self._stack()
        parent = stack[-1] if stack else None
        frame = _Frame(
            next(self._ids), name, parent.id if parent else None, time.perf_counter()
        )
        stack.append(frame)
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            duration = end - frame.start
            if parent is not None:
                parent.child += duration
            record = {
                "trace": self.trace_id,
                "id": frame.id,
                "parent": frame.parent,
                "name": name,
                "start": frame.start,
                "end": end,
                "self": duration - frame.child,
            }
            with self._lock:
                self.spans.append(record)

    def count(self, name: str, amount: float = 1) -> None:
        if self.enabled:
            with self._lock:
                self.counts[name] += amount

    # ------------------------------------------------------------------
    # Wrapping
    # ------------------------------------------------------------------
    def wrap(
        self,
        owner,
        attr: str,
        name: str,
        *,
        hot: bool = False,
        counter: Optional[Callable] = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``counter(tracer, args, kwargs, result)`` records counts at the
        boundary after each traced call.
        """
        original = getattr(owner, attr)
        tracer = self

        if hot:

            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                if not tracer.enabled:
                    return original(*args, **kwargs)
                started = time.perf_counter()
                try:
                    return original(*args, **kwargs)
                finally:
                    elapsed = time.perf_counter() - started
                    stack = tracer._stack()
                    if stack:
                        stack[-1].child += elapsed
                    entry = tracer.hot[name]
                    entry[0] += 1
                    entry[1] += elapsed

        else:

            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                if not tracer.enabled:
                    return original(*args, **kwargs)
                with tracer.span(name):
                    result = original(*args, **kwargs)
                if counter is not None:
                    counter(tracer, args, kwargs, result)
                return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------------
    # Summaries
    # ------------------------------------------------------------------
    def layer_totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, total (inclusive) and self seconds.

        Hot functions appear with their aggregate (they have no
        children, so total is self).
        """
        totals: Dict[str, Dict[str, float]] = {}
        with self._lock:
            spans = list(self.spans)
        for record in spans:
            entry = totals.setdefault(
                record["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0}
            )
            entry["calls"] += 1
            entry["total_s"] += record["end"] - record["start"]
            entry["self_s"] += record["self"]
        for name, (calls, seconds) in self.hot.items():
            totals[name] = {"calls": calls, "total_s": seconds, "self_s": seconds}
        return totals

    def write(self, path: Path) -> None:
        """Write every span (and the hot aggregates) as JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for record in self.spans:
                handle.write(json.dumps(record, sort_keys=True) + "\n")
            for name, (calls, seconds) in sorted(self.hot.items()):
                handle.write(
                    json.dumps(
                        {
                            "trace": self.trace_id,
                            "name": name,
                            "aggregate": True,
                            "calls": calls,
                            "seconds": seconds,
                        },
                        sort_keys=True,
                    )
                    + "\n"
                )


def self_time_table(totals: Dict[str, Dict[str, float]], root_s: float, title: str) -> str:
    """Markdown table of layer self times, largest first."""
    lines = [
        f"### {title}",
        "",
        "| layer | calls | total s | self s | self % of unit |",
        "|---|---:|---:|---:|---:|",
    ]
    for name, entry in sorted(totals.items(), key=lambda kv: -kv[1]["self_s"]):
        share = 100.0 * entry["self_s"] / root_s if root_s > 0 else 0.0
        lines.append(
            f"| `{name}` | {int(entry['calls'])} | {entry['total_s']:.4f} "
            f"| {entry['self_s']:.4f} | {share:.1f} |"
        )
    return "\n".join(lines)


def install_layers(tracer: Tracer) -> None:
    """Wrap every layer function the workloads pass through."""
    import inspect

    from repro.agents import payloads
    from repro.datasets import campus, honeynet, overlay
    from repro.detection import humanmachine, pipeline
    from repro.flows import argus
    from repro.flows.store import FlowStore
    from repro.p2p import pieces
    from repro.query.verdicts import VerdictDB
    from repro.serve import coordinator
    from repro.storage.view import StoreView

    def rows_parsed(t, args, kwargs, result):
        t.count("flows.argus.rows", result[1].rows_ok)

    def emd_pairs(t, args, kwargs, result):
        n = len(args[0])
        t.count("stats.emd.pairs", n * (n - 1) // 2)

    # Generator (traced batch_day): the benchmark calls these through the
    # module attributes, as ``repro-datasets generate`` would.
    tracer.wrap(campus, "build_campus_day", "datasets.campus.build")
    tracer.wrap(honeynet, "capture_storm_trace", "datasets.honeynet.storm")
    tracer.wrap(honeynet, "capture_nugache_trace", "datasets.honeynet.nugache")
    tracer.wrap(overlay, "overlay_traces", "datasets.overlay.overlay")
    tracer.wrap(argus, "write_flows", "datasets.traces.save")
    tracer.wrap(pieces, "rarest_first", "p2p.pieces.rarest_first", hot=True)
    for fname in payloads.__all__:
        if inspect.isfunction(getattr(payloads, fname)):
            tracer.wrap(payloads, fname, "agents.payloads", hot=True)

    # Parse and columnarise (batch_day read, serve_replay ingest).
    tracer.wrap(argus, "read_flows_report", "flows.argus.parse", counter=rows_parsed)
    tracer.wrap(coordinator, "loads_report", "flows.argus.parse", counter=rows_parsed)
    tracer.wrap(FlowStore, "columnar", "flows.store.columnar")

    # Detection stages, where find_plotters looks them up.
    tracer.wrap(pipeline, "find_plotters", "detection.pipeline")
    tracer.wrap(pipeline, "extract_features_parallel", "flows.parallel.extract")
    tracer.wrap(pipeline, "initial_data_reduction", "detection.reduction")
    tracer.wrap(pipeline, "theta_vol", "detection.theta_vol")
    tracer.wrap(pipeline, "theta_churn", "detection.theta_churn")
    tracer.wrap(pipeline, "theta_hm", "detection.theta_hm")
    tracer.wrap(humanmachine, "pairwise_emd", "stats.emd.pairwise", counter=emd_pairs)
    tracer.wrap(humanmachine, "average_linkage", "stats.clustering.agglomerate")

    # Verdict sink and the serve plane.
    tracer.wrap(VerdictDB, "record_batch", "query.verdicts.record")
    tracer.wrap(coordinator.ServeCoordinator, "ingest", "serve.coordinator.ingest")
    tracer.wrap(coordinator.ServeCoordinator, "drain", "serve.drain")
    tracer.wrap(coordinator, "find_plotters", "serve.drain.find_plotters")
    tracer.wrap(StoreView, "records", "serve.drain.spool_read")
