"""The per-shard detection worker process.

Each worker owns one :class:`~repro.detection.incremental.OnlineDetector`
over its shard's hosts and speaks a tiny command protocol with the
coordinator over a pair of multiprocessing queues (fresh queues per
incarnation — a SIGKILLed producer can leave a queue unusable, so a
replacement worker never inherits its predecessor's):

inbox (coordinator → worker)
    ``("replay", seq, chunk)`` — a new incarnation's first message when
    its shard's spool holds rows to replay (see below);
    ``("flows", seq, chunk)`` — ingest one column chunk
    (``names, src_codes, dst_codes, starts, src_bytes, success``);
    ``("evaluate", seq, at)`` — score the current (unfinished) window;
    ``("finalize", seq, at)`` — tumble the current window early
    (drain / rebalance barrier);
    ``("stop", seq)`` — ship everything unshipped and exit.

outbox (worker → coordinator), one shape for every message:
    ``(kind, shard, incarnation, seq, payload, finals, delta)`` where
    ``finals`` is the list of finalised-window verdicts not yet
    shipped and ``delta`` is the worker registry's metric delta since
    the previous ship (:meth:`~repro.obs.metrics.MetricsRegistry.delta_since`)
    — the same delta channel the parallel extraction pool uses.

Workers are intentionally stateless beyond the current window: the
coordinator owns the per-shard spool, so a killed worker's replacement
simply replays the spool from the last finalised window boundary
(``replay_t0``) on the same window grid (``window_origin``) and ends up
scoring the identical window the dead worker was filling.  The
coordinator gathers that replay (:func:`replay_columns`) and puts it on
the new inbox while it holds the lock ingest spools under, so every
row is either in the replay or in a later ``flows`` chunk — never in
both, however long the worker takes to boot.

Flows travel as column chunks
(:class:`~repro.flows.streaming.ColumnChunk`): a shard-local address
dictionary plus the storage plane's five columns, the same columns the
coordinator appends to the shard's spool.  Live chunks and the replay
both go straight into
:meth:`~repro.detection.incremental.OnlineDetector.ingest_columns`, so
the detector cannot tell the two paths apart and no per-flow object is
ever built.
"""

from __future__ import annotations

import json
import os
from queue import Empty
from typing import Optional

import numpy as np

from ..detection.incremental import OnlineDetector
from ..flows.streaming import ColumnChunk
from ..obs import metrics as obs_metrics
from ..resilience import faults
from ..storage import SegmentStore
from ..storage.format import StorageError
from .config import ServeConfig

__all__ = ["replay_columns", "worker_main"]


def replay_columns(
    store: SegmentStore, replay_t0: Optional[float]
) -> Optional[ColumnChunk]:
    """The shard spool's rows from ``replay_t0`` on, time-ordered.

    The gather returns rows grouped by host; tumbling-window ingest
    needs global time order (a late host group would straddle an
    already-tumbled boundary), so the rows are stable-sorted by start
    — per-host order is already start-sorted and survives.  Returns
    ``None`` when the spool holds no such rows or cannot be read: a
    fresh worker with nothing to replay.
    """
    try:
        gathered = store.view(t0=replay_t0).gather()
    except (StorageError, OSError):
        return None
    if gathered.n_rows == 0:
        return None
    n_hosts = len(gathered.hosts)
    src_codes = np.repeat(np.arange(n_hosts, dtype=np.int64), gathered.counts)
    order = np.argsort(gathered.starts, kind="stable")
    return ColumnChunk(
        tuple(gathered.hosts) + tuple(gathered.dsts),
        src_codes[order],
        gathered.dst_codes[order] + n_hosts,
        gathered.starts[order],
        gathered.src_bytes[order],
        gathered.success[order],
    )


def worker_main(
    shard: int,
    incarnation: int,
    config: ServeConfig,
    inbox,
    outbox,
) -> None:
    """Run one shard's detection loop until told to stop (or killed)."""
    obs_metrics.enable()
    registry = obs_metrics.get_registry()
    baseline = registry.state()

    score_all = config.internal_hosts is None
    detector = OnlineDetector(
        internal_hosts=(
            set() if score_all else set(config.internal_hosts)
        ),
        window=config.window,
        config=config.pipeline,
        window_origin=config.window_origin,
    )

    def ingest(chunk: ColumnChunk) -> None:
        if score_all:
            detector.internal_hosts.update(
                chunk.names[code] for code in np.unique(chunk.src_codes).tolist()
            )
        detector.ingest_columns(*chunk)

    shipped = 0

    def ship(kind: str, seq: int, payload: object) -> None:
        nonlocal baseline, shipped
        finals = [
            json.loads(verdict.to_json())
            for verdict in detector.history[shipped:]
        ]
        shipped = len(detector.history)
        delta = registry.delta_since(baseline)
        baseline = registry.state()
        outbox.put((kind, shard, incarnation, seq, payload, finals, delta))

    ship("hello", 0, {"pid": os.getpid()})

    # Orphan watchdog: if the coordinator is SIGKILLed it can never
    # send "stop", and a worker blocked forever on the inbox would
    # linger as an orphan holding the coordinator's inherited pipes
    # (hanging anything that waits for their EOF).  A reparented
    # worker's state is unreachable anyway — the promoted standby
    # spawns fresh workers over the same spool — so exit quietly.
    parent = os.getppid()
    while True:
        try:
            message = inbox.get(timeout=1.0)
        except Empty:
            if os.getppid() != parent:
                return
            continue
        command, seq = message[0], message[1]
        if command == "replay":
            chunk = message[2]
            ingest(chunk)
            ship("replayed", seq, {"rows": len(chunk.starts)})
        elif command == "flows":
            chunk = message[2]
            ingest(chunk)
            # The injected OOM-kill strikes here — after a batch is in
            # window state but before anything ships — so recovery
            # tests exercise the full replay path, not a lucky
            # already-shipped corner.
            faults.serve_worker_exit_once()
            ship("ack", seq, {"rows": len(chunk.starts)})
        elif command == "evaluate":
            verdict = detector.evaluate(message[2])
            ship("evaluated", seq, json.loads(verdict.to_json()))
        elif command == "finalize":
            verdict = detector.finalize_window(message[2])
            ship(
                "finalized",
                seq,
                None if verdict is None else json.loads(verdict.to_json()),
            )
        elif command == "stop":
            ship("stopped", seq, None)
            break
        else:  # pragma: no cover - protocol misuse is a programming error
            ship("error", seq, {"unknown_command": str(command)})
