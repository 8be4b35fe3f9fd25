"""serve_replay: the day replayed, open loop, into a live ``repro serve``.

Rows go in trace order as 2,000-row Argus-CSV ``POST /ingest`` calls
into an in-process :class:`~repro.serve.ServeCoordinator` (2 shards,
durable acks, verdict-DB sink on), over one keep-alive connection, at a
fixed 5,000 rows/s — the paper's border rate — for ``--seconds``.  A
second connection polls ``GET /verdicts``.  After the last POST the
service is drained.

A window's verdict latency runs from the moment the POST carrying that
shard's first row past the window's end was *due* (so a stalled sender
is charged to the system, not hidden) to the moment the (shard, window)
verdict first shows on ``GET /verdicts``; its median is
``verdict_p50_s``.  The workload's ``run_s`` is the CPU time the serve
plane spends on the replay: the coordinator's threads and both workers,
not the benchmark's sender and poller.  Verdict latency is not gated,
because on a small shared VM it swings up to twofold with the host's
phase; CPU seconds leave out the waiting that amplifies those swings.
"""

from __future__ import annotations

import csv
import gc
import http.client
import json
import os
import shutil
import threading
import time
from collections import defaultdict
from statistics import median
from contextlib import ExitStack
from typing import Dict, List, Tuple
from urllib.parse import urlparse

from common import (
    DaySpec,
    Outcome,
    WorkloadResult,
    cpu_seconds,
    generate_input,
    host_probe,
    jaccard,
    percentile,
    reference_seconds,
    rss_mb,
    setup_repeated,
)

RATE_ROWS_S = 5000.0
CHUNK_ROWS = 2000
N_SHARDS = 2
#: Tumbling window, in trace seconds: short enough that one run
#: finalises well over 100 (shard, window) verdicts.
WINDOW_S = 150.0
#: ``GET /verdicts`` poll interval.  The poller runs in the coordinator's
#: own process, so each poll competes with ingest for the interpreter;
#: 25 ms keeps that load small while resolving latencies of ~0.15 s.
POLL_S = 0.025
#: How long to wait, after the last POST, for the live verdicts still due.
GRACE_S = 20.0
SETUP_REPEATS = 2
#: Seconds between host probes during the replay (each takes ~0.25 s).
PROBE_EVERY_S = 2.0


class ReplayPlan:
    """The rows to post, their chunks, and the verdicts they must yield."""

    def __init__(self, trace_path, seconds: float) -> None:
        from repro.serve.sharding import shard_of

        with open(trace_path, newline="") as handle:
            lines = handle.readlines()
        header, body = lines[0], lines[1:]
        self.n_rows = min(len(body), max(CHUNK_ROWS, int(seconds * RATE_ROWS_S)))
        rows = body[: self.n_rows]
        self.bodies = [
            (header + "".join(rows[i : i + CHUNK_ROWS])).encode("utf-8")
            for i in range(0, self.n_rows, CHUNK_ROWS)
        ]
        columns = next(csv.reader([header]))
        src_at, start_at = columns.index("src"), columns.index("start")
        #: (shard, grid) -> chunk index carrying the first row past its end
        self.tumbles: Dict[Tuple[int, int], int] = {}
        #: every (shard, grid) that holds rows: one verdict each
        self.windows = set()
        #: (shard, grid) -> row indices (for the per-window batch rescore)
        self.rows_of: Dict[Tuple[int, int], List[int]] = defaultdict(list)
        current: Dict[int, int] = {}
        for index, row in enumerate(csv.reader(rows)):
            shard = shard_of(row[src_at], N_SHARDS)
            window = int(float(row[start_at]) // WINDOW_S)
            previous = current.get(shard)
            if previous is not None and window > previous:
                self.tumbles[(shard, previous + 1)] = index // CHUNK_ROWS
            current[shard] = window
            self.windows.add((shard, window + 1))
            self.rows_of[(shard, window + 1)].append(index)
        self.text_rows = rows
        self.header = header

    def due(self, chunk: int, t0: float) -> float:
        return t0 + chunk * CHUNK_ROWS / RATE_ROWS_S


def _prom_values(text: str) -> Dict[str, float]:
    """``name{labels}`` -> value from a Prometheus exposition."""
    values = {}
    for line in text.splitlines():
        if line and not line.startswith("#"):
            key, _, value = line.rpartition(" ")
            try:
                values[key] = float(value)
            except ValueError:
                continue
    return values


def _prom_sum(values: Dict[str, float], name: str, label: str = "") -> float:
    return sum(
        v
        for k, v in values.items()
        if (k == name or k.startswith(name + "{")) and label in k
    )


class _Poller(threading.Thread):
    """Polls ``GET /verdicts`` and samples backlog and memory."""

    def __init__(self, url: str, coordinator, pids: List[int]) -> None:
        super().__init__(name="e2e-bench-verdict-poller", daemon=True)
        parsed = urlparse(url)
        self.conn = http.client.HTTPConnection(parsed.hostname, parsed.port, timeout=30)
        self.coordinator = coordinator
        self.pids = pids
        self.seen: Dict[Tuple[int, int], float] = {}
        self.backlog_max = 0
        self.rss_max = 0.0
        self.errors = 0
        #: this thread's own CPU seconds (client side, not the server's)
        self.cpu_s = 0.0
        self.stop = threading.Event()

    def run(self) -> None:
        last_end: Dict[int, float] = {}
        started = time.thread_time()
        try:
            while not self.stop.is_set():
                since = min(last_end.values()) if len(last_end) == N_SHARDS else 0.0
                self.conn.request("GET", f"/verdicts?since={since!r}")
                response = self.conn.getresponse()
                payload = response.read()
                now = time.perf_counter()
                if response.status != 200:
                    self.errors += 1
                else:
                    for verdict in json.loads(payload)["finalized"]:
                        key = (int(verdict["shard"]), int(verdict["grid_window"]))
                        self.seen.setdefault(key, now)
                        end = float(verdict["evaluated_at"])
                        last_end[key[0]] = max(last_end.get(key[0], 0.0), end)
                self.backlog_max = max(self.backlog_max, self.coordinator.backlog_rows())
                self.rss_max = max(
                    self.rss_max, rss_mb(os.getpid()) + sum(rss_mb(p) for p in self.pids)
                )
                self.stop.wait(POLL_S)
        finally:
            self.conn.close()
            self.cpu_s = time.thread_time() - started


class _Prober(threading.Thread):
    """Probes each CPU in turn, by CPU time, every ``PROBE_EVERY_S``."""

    def __init__(self) -> None:
        super().__init__(name="e2e-bench-host-prober", daemon=True)
        self.probes: List[float] = []
        self.stop = threading.Event()

    def run(self) -> None:
        cpus = sorted(os.sched_getaffinity(0))
        while not self.stop.is_set():
            self.probes.append(host_probe(cpus[len(self.probes) % len(cpus)], True))
            self.stop.wait(PROBE_EVERY_S)


def _start(spool, db):
    """Start a coordinator and wait until every worker answers."""
    from repro.serve import ServeConfig, ServeCoordinator

    coordinator = ServeCoordinator(
        ServeConfig(
            spool_dir=str(spool),
            n_shards=N_SHARDS,
            window=WINDOW_S,
            durable_acks=True,
            verdict_db=str(db),
        )
    )
    coordinator.start()
    probe = coordinator.evaluate(timeout=60.0)
    if len(probe["replied"]) != N_SHARDS:
        coordinator.close()
        raise RuntimeError(f"only shards {probe['replied']} came up")
    return coordinator


def _get(url: str, path: str) -> Tuple[int, bytes]:
    parsed = urlparse(url)
    conn = http.client.HTTPConnection(parsed.hostname, parsed.port, timeout=30)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def run(seed: int, seconds: float, tracer, scale: float, base) -> WorkloadResult:
    spec = DaySpec(seed, scale)
    data = base / "input"
    started: List = []

    def setup(k: int) -> float:
        while started:
            started.pop().close()
        shutil.rmtree(data, ignore_errors=True)
        elapsed = generate_input(spec, data)
        t0 = time.perf_counter()
        started.append(_start(base / f"spool-{k}", base / f"verdicts-{k}.sqlite"))
        return elapsed + time.perf_counter() - t0

    setup_s = setup_repeated(SETUP_REPEATS, setup)
    coordinator = started.pop()
    try:
        plan = ReplayPlan(data / "trace.csv", seconds)
        live = _replay(coordinator, plan, tracer)
    finally:
        coordinator.close()
    return _score(seed, scale, plan, live, setup_s, tracer)


def _post(conn, body: bytes, due: float) -> Dict:
    """Send one chunk when it is due; time it from the due moment."""
    delay = due - time.perf_counter()
    if delay > 0:
        time.sleep(delay)
    sent = time.perf_counter()
    conn.request("POST", "/ingest", body=body, headers={"Content-Type": "text/csv"})
    response = conn.getresponse()
    reply = response.read()
    done = time.perf_counter()
    return {
        "lag": sent - due,
        "ack": done - due,
        "wire": done - sent,
        "status": response.status,
        "rows": json.loads(reply).get("rows_ok", 0) if response.status == 200 else 0,
    }


def _replay(coordinator, plan: ReplayPlan, tracer) -> Dict:
    url = coordinator.url
    pids = [w["pid"] for w in coordinator.shards_doc()["workers"]]
    metrics_before_status, text = _get(url, "/metrics")
    before = _prom_values(text.decode())

    poller = _Poller(url, coordinator, pids)
    parsed = urlparse(url)
    conn = http.client.HTTPConnection(parsed.hostname, parsed.port, timeout=60)
    posts = []
    half = len(plan.bodies) // 2
    # The serve plane's CPU: this process minus the benchmark's own
    # sender (this thread) and poller threads, plus the workers.
    cpu_before = _process_cpu() - time.thread_time() + sum(map(cpu_seconds, pids))
    prober = _Prober()
    prober.start()
    poller.start()
    t0 = time.perf_counter() + 0.05
    with ExitStack() as traced_half:
        try:
            for chunk, body in enumerate(plan.bodies):
                if tracer is not None and chunk == half:
                    tracer.enabled = True
                    traced_half.enter_context(tracer.span("bench.unit"))
                posts.append(_post(conn, body, plan.due(chunk, t0)))
                posts[-1]["traced"] = tracer is not None and chunk >= half
            deadline = time.perf_counter() + GRACE_S
            while time.perf_counter() < deadline and not set(plan.tumbles) <= set(
                poller.seen
            ):
                time.sleep(POLL_S)
        finally:
            conn.close()
            poller.stop.set()
            poller.join(timeout=30)
            prober.stop.set()
            prober.join(timeout=30)
        replay_cpu_s = (
            _process_cpu()
            - time.thread_time()
            - poller.cpu_s
            + sum(map(cpu_seconds, pids))
            - cpu_before
        )

        drain_start = time.perf_counter()
        _, drain_report = coordinator.drain()
        drain_s = time.perf_counter() - drain_start
    if tracer is not None:
        tracer.enabled = False
    verdicts_status, text = _get(url, "/verdicts")
    doc = json.loads(text)
    metrics_status, text = _get(url, "/metrics")
    after = _prom_values(text.decode())
    return {
        "replay_cpu_s": replay_cpu_s,
        "probes": prober.probes,
        "t0": t0,
        "posts": posts,
        "seen": dict(poller.seen),
        "poll_errors": poller.errors,
        "get_statuses": (metrics_before_status, verdicts_status, metrics_status),
        "backlog_max": poller.backlog_max,
        "rss_max": poller.rss_max,
        "drain_s": drain_s,
        "drain": drain_report,
        "doc": doc,
        "before": before,
        "after": after,
    }


def _process_cpu() -> float:
    """This process's user plus system CPU seconds, all threads."""
    times = os.times()
    return times.user + times.system


def check_replay(plan_rows: int, windows, posts, doc, drain, batch_sha: str) -> List[str]:
    """The serve_replay checks: rows, one verdict per window, drain ≡ batch."""
    problems = []
    acked = sum(p["rows"] for p in posts)
    if doc["rows_ingested"] != plan_rows or acked != plan_rows:
        problems.append(
            f"posted {plan_rows} rows; acked {acked}, rows_ingested "
            f"{doc['rows_ingested']}"
        )
    keys = [(int(v["shard"]), int(v["grid_window"])) for v in doc["finalized"]]
    if len(keys) != len(set(keys)) or doc["duplicate_verdicts"]:
        problems.append("a (shard, window) has more than one verdict")
    missing = set(windows) - set(keys)
    extra = set(keys) - set(windows)
    if missing or extra:
        problems.append(
            f"{len(missing)} (shard, window) verdicts missing, {len(extra)} unexpected"
        )
    if drain["suspects_sha256"] != batch_sha:
        problems.append(
            f"drain suspects_sha256 {drain['suspects_sha256'][:12]} differs from "
            f"batch find_plotters over the replayed rows ({batch_sha[:12]})"
        )
    return problems


def _score(seed, scale, plan, live, setup_s, tracer) -> WorkloadResult:
    from repro.detection.pipeline import find_plotters
    from repro.flows.argus import loads
    from repro.flows.store import FlowStore
    from repro.obs.ledger import suspects_checksum

    outcome = Outcome()
    posts = live["posts"]
    for i, post in enumerate(posts):
        outcome.op(post["status"] == 200, f"POST {i} answered {post['status']}")
    latencies = {}
    for key, chunk in sorted(plan.tumbles.items()):
        seen = live["seen"].get(key)
        if outcome.op(seen is not None, f"live verdict {key} never showed"):
            latencies[key] = seen - plan.due(chunk, live["t0"])
    outcome.op(live["poll_errors"] == 0, "a GET /verdicts poll failed")
    outcome.op(
        all(status == 200 for status in live["get_statuses"]),
        f"GET /metrics or /verdicts answered {live['get_statuses']}",
    )

    flows = list(loads(plan.header + "".join(plan.text_rows)))
    batch = find_plotters(FlowStore(flows))
    outcome.check(
        check_replay(
            plan.n_rows,
            plan.windows,
            posts,
            live["doc"],
            live["drain"],
            suspects_checksum(batch.suspects),
        )
    )
    scores = []
    for verdict in live["doc"]["finalized"]:
        key = (int(verdict["shard"]), int(verdict["grid_window"]))
        window_flows = [flows[i] for i in plan.rows_of.get(key, ())]
        rescored = find_plotters(FlowStore(window_flows)) if window_flows else None
        scores.append(
            jaccard(verdict["suspects"], rescored.suspects if rescored else ())
        )
    del flows, batch
    gc.collect()

    values = list(latencies.values()) or [float("nan")]
    # What the carrying POST's ack does not explain: worker ingest and
    # evaluation, the outbox hop and the poll.
    beyond_ack = [
        latency - posts[plan.tumbles[key]]["ack"] for key, latency in latencies.items()
    ] or [float("nan")]
    before, after = live["before"], live["after"]

    def delta(name, label=""):
        return _prom_sum(after, name, label) - _prom_sum(before, name, label)

    hits = delta("repro_online_hist_cache_total", 'result="hit"')
    misses = delta("repro_online_hist_cache_total", 'result="miss"')
    layers = {
        "verdict_p50_s": median(values),
        "verdict_p90_s": percentile(values, 0.9),
        "verdict_samples": len(latencies),
        "ack_p50_s": median([p["ack"] for p in posts]),
        "serve.verdict_beyond_ack_s": median(beyond_ack),
        "drain_s": live["drain_s"],
        "live_batch_jaccard": sum(scores) / len(scores) if scores else 0.0,
        "bench.generator_lag_s": max(p["lag"] for p in posts),
        "serve.coordinator.backlog_rows_max": live["backlog_max"],
        "storage.segments_written": delta("repro_storage_segments_written_total"),
        "storage.bytes_written": delta("repro_storage_bytes_written_total"),
        "detection.incremental.evaluations": delta("repro_online_evaluations_total"),
        "detection.incremental.hist_cache_hit_ratio": (
            hits / (hits + misses) if hits + misses else 0.0
        ),
        "serve.replay_cpu_s": live["replay_cpu_s"],
        "bench.host_probe_s": median(live["probes"]),
    }
    if tracer is not None:
        ingests = sorted(
            (s for s in tracer.spans if s["name"] == "serve.coordinator.ingest"),
            key=lambda s: s["start"],
        )
        traced_posts = [p for p in posts if p["traced"]]
        spent = [s["end"] - s["start"] for s in ingests]
        layers["serve.coordinator.ingest_s"] = median(spent) if spent else 0.0
        layers["serve.http.overhead_s"] = (
            median([p["wire"] - s for p, s in zip(traced_posts, spent)])
            if spent
            else 0.0
        )
        traced_at = {
            key: plan.tumbles[key] >= len(posts) // 2 for key in latencies
        }
        on = [v for k, v in latencies.items() if traced_at[k]]
        off = [v for k, v in latencies.items() if not traced_at[k]]
        layers["bench.tracing_overhead_s"] = (
            median(on) - median(off) if on and off else 0.0
        )
        layers["bench.units_traced"] = 1
    end_to_end = {
        "setup_s": setup_s,
        "run_s": reference_seconds(live["replay_cpu_s"], *live["probes"]),
        "peak_rss_mb": live["rss_max"],
    }
    report = [
        f"serve_replay seed={seed} scale={scale} rows={plan.n_rows} "
        f"posts={len(posts)} windows={len(plan.windows)} "
        f"live_verdicts={len(latencies)}/{len(plan.tumbles)} "
        f"drain_suspects={len(live['drain']['suspects'])}",
    ]
    return WorkloadResult(end_to_end, layers, outcome, report)
