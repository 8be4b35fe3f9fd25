"""Online detection over a sliding window.

The batch pipeline (:func:`repro.detection.pipeline.find_plotters`)
analyses a completed window of traffic.  An operator at a live border
wants the same verdicts *while the window fills*: ingest flows as they
arrive, re-evaluate periodically, keep memory bounded.

:class:`OnlineDetector` composes the streaming feature extractor with
the detection tests.  Flows are ingested in column chunks
(:meth:`~OnlineDetector.ingest_columns`; records through
:meth:`~OnlineDetector.ingest`/:meth:`~OnlineDetector.ingest_many`); at
any moment :meth:`evaluate` runs the FindPlotters logic over the
features accumulated in the current window.  Windows tumble: when a
flow arrives past the window end, the window is finalised (its result
retained in ``history``) and a new one starts — at the same row
whatever the chunking.

Fidelity note: the evaluation *is* the batch pipeline's stage core
(:func:`repro.detection.pipeline.run_stages`) run on the streamed
features, so θ_vol, θ_churn and the reduction step match the batch
pipeline exactly; θ_hm uses the per-host interstitial reservoir (an
unbiased sample) instead of the complete sample set, so its histograms
converge to the batch ones as the reservoir grows.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

import numpy as np

from ..flows.metrics import HostFeatures
from ..flows.record import FlowRecord
from ..flows.store import FlowStore
from ..flows.streaming import StreamingFeatureExtractor, record_columns
from ..obs import metrics as obs_metrics
from ..obs.tracing import span
from ..resilience import Degradation, StageGuard, atomic_write_text
from ..resilience.faults import io_point
from ..stats.histogram import Histogram
from .humanmachine import MIN_SAMPLES, interstitial_histogram
from .pipeline import PipelineConfig, PipelineResult, find_plotters, run_stages

__all__ = ["OnlineVerdict", "OnlineDetector"]

# Online-detector telemetry.  The cache hit/miss counts are *also* kept
# as plain attributes on the detector (``cache_hits``/``cache_misses``)
# because they are part of its public API and must keep counting while
# observability is disabled; the registry counters below are the
# exported view of the same events.
_TUMBLES = obs_metrics.counter(
    "repro_online_window_tumbles_total",
    "Windows finalised by the online detector",
)
_EVALUATIONS = obs_metrics.counter(
    "repro_online_evaluations_total", "OnlineDetector.evaluate() calls"
)
_HIST_CACHE = obs_metrics.counter(
    "repro_online_hist_cache_total",
    "Histogram-cache lookups by outcome",
    labels=("result",),
)
_RESERVOIR_SAMPLES = obs_metrics.gauge(
    "repro_online_reservoir_samples",
    "Interstitial samples held across all evaluated hosts (last evaluate)",
)
_TRACKED_HOSTS = obs_metrics.gauge(
    "repro_online_tracked_hosts",
    "Internal hosts with state in the current window (last evaluate)",
)
_VERDICT_CKPT = obs_metrics.counter(
    "repro_online_verdict_checkpoint_total",
    "Finalised-window verdicts persisted / restored",
    labels=("result",),
)


@dataclass(frozen=True)
class OnlineVerdict:
    """One evaluation of the current window."""

    window_index: int
    evaluated_at: float
    hosts_seen: int
    reduced: frozenset
    suspects: frozenset

    def to_json(self) -> str:
        """One-line JSON form, the verdict-log record format."""
        return json.dumps(
            {
                "window_index": self.window_index,
                "evaluated_at": self.evaluated_at,
                "hosts_seen": self.hosts_seen,
                "reduced": sorted(self.reduced),
                "suspects": sorted(self.suspects),
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, line: str) -> "OnlineVerdict":
        payload = json.loads(line)
        return cls(
            window_index=int(payload["window_index"]),
            evaluated_at=float(payload["evaluated_at"]),
            hosts_seen=int(payload["hosts_seen"]),
            reduced=frozenset(payload["reduced"]),
            suspects=frozenset(payload["suspects"]),
        )


class OnlineDetector:
    """Streaming FindPlotters over tumbling windows.

    Parameters
    ----------
    internal_hosts:
        The candidate (internal) host population; flows from other
        sources are ingested but never scored.
    window:
        Window length in seconds (the paper's D; default six hours).
    config:
        Detection thresholds, shared with the batch pipeline.
    checkpoint_dir:
        Directory for the verdict log (``verdicts.jsonl``): every
        finalised window's verdict is appended as one JSON line.  With
        ``resume`` a restarted detector reloads the log, restoring
        ``history`` and continuing from the next window index —
        in-window streaming state is *not* checkpointed (its reservoirs
        are cheap to refill), only completed-window conclusions.
    prom_port:
        Serve live ``/metrics``, ``/healthz`` and ``/summary``
        (:class:`repro.obs.MetricsServer`) on this port for the
        detector's lifetime (``0`` = ephemeral; read
        ``detector.metrics_server.port``).  Setting it enables metric
        recording, so a tumbling run can be scraped while a window
        fills — each evaluation refreshes the ``repro_stage_*`` funnel
        gauges.  Stop the server with :meth:`close` (the detector is
        also a context manager).
    spool_dir:
        Segment-store directory to spool ingested flows into
        (:mod:`repro.storage`).  Each tumbled window is cut as its own
        segment(s), so the raw rows of any finalised window can be
        re-scored exactly with the batch pipeline
        (:meth:`rescore_window_from_spool`) — the unbounded
        alternative to keeping reservoir samples only.  ``segment_rows``
        caps the rows buffered between cuts.  Spool write failures
        degrade to unspooled operation under the guard (the online
        verdicts never depended on the spool).
    window_origin:
        Anchor of the window grid: boundaries snap to
        ``origin + k·window`` instead of the first ingested flow's
        start, so a detector restarted mid-stream tumbles at the same
        instants as its predecessor (see :meth:`finalize_window`).

    Graceful degradation (honouring ``config.degrade``): a verdict-log
    or spool write failure disables the log (or spool) for the rest of
    the run instead of killing a detector that has days of in-memory
    state.  Every such step is recorded on :attr:`guard` (and hence in
    :attr:`degradations`), logged, counted and span-emitted — the
    detector never falls back silently.
    """

    def __init__(
        self,
        internal_hosts: Set[str],
        window: float = 6 * 3600.0,
        config: PipelineConfig = PipelineConfig(),
        reservoir_size: int = 4096,
        cache_histograms: bool = True,
        checkpoint_dir: Optional[Union[str, os.PathLike]] = None,
        resume: bool = False,
        spool_dir: Optional[Union[str, os.PathLike]] = None,
        segment_rows: Optional[int] = None,
        prom_port: Optional[int] = None,
        window_origin: Optional[float] = None,
    ) -> None:
        if window <= 0:
            raise ValueError("window length must be positive")
        if resume and checkpoint_dir is None:
            raise ValueError("resume=True requires checkpoint_dir")
        if segment_rows is not None and segment_rows < 1:
            raise ValueError("segment_rows must be >= 1")
        self.internal_hosts = set(internal_hosts)
        self.window = window
        #: When set, window boundaries snap to the grid
        #: ``origin + k·window`` instead of starting at the first
        #: ingested flow — so a detector restarted mid-stream (the
        #: serve plane's worker recovery) tumbles at exactly the same
        #: instants as the one it replaced, whatever flow it happens to
        #: see first.
        self.window_origin = window_origin
        self.config = config
        self.reservoir_size = reservoir_size
        self.cache_histograms = cache_histograms
        self.checkpoint_dir = (
            Path(checkpoint_dir) if checkpoint_dir is not None else None
        )
        self.history: List[OnlineVerdict] = []
        self.guard = StageGuard(enabled=config.degrade, name="online_detector")
        self._verdict_log_disabled = False
        self._window_index = 0
        self._window_start: Optional[float] = None
        if self.checkpoint_dir is not None:
            try:
                self.checkpoint_dir.mkdir(parents=True, exist_ok=True)
                if resume:
                    self._restore_verdicts()
            except OSError as exc:
                if not config.degrade:
                    raise
                self._verdict_log_disabled = True
                self.guard.note(
                    "verdict_log",
                    "checkpointed",
                    "no-checkpoint",
                    f"{type(exc).__name__}: {exc}",
                )
        self._spool_writer = None
        self._spool_disabled = False
        #: Window index -> (start, end) of every window finalised in
        #: this detector's lifetime — the time ranges
        #: :meth:`rescore_window_from_spool` replays via zone maps.
        self._window_bounds: Dict[int, Tuple[float, float]] = {}
        if spool_dir is not None:
            try:
                from ..storage import SegmentStore, fresh_store
                from ..storage.writer import DEFAULT_SEGMENT_ROWS

                if resume:
                    spool_store = SegmentStore.create(spool_dir, exist_ok=True)
                else:
                    spool_store = fresh_store(spool_dir)
                self._spool_writer = spool_store.writer(
                    segment_rows=segment_rows or DEFAULT_SEGMENT_ROWS
                )
            except (OSError, RuntimeError) as exc:
                if not config.degrade:
                    raise
                self._spool_disabled = True
                self.guard.note(
                    "window_spool",
                    "spooled",
                    "no-spool",
                    f"{type(exc).__name__}: {exc}",
                )
        self._extractor = self._fresh_extractor()
        # host -> (reservoir version, histogram built at that version).
        # Valid only within the current window; cleared on tumble.
        self._hist_cache: Dict[str, Tuple[int, Histogram]] = {}
        self.cache_hits = 0
        self.cache_misses = 0
        #: The live telemetry endpoint, when ``prom_port`` was given.
        self.metrics_server = None
        if prom_port is not None:
            from ..obs.http import MetricsServer

            obs_metrics.enable()
            self.metrics_server = MetricsServer(
                port=prom_port, extra_summary=self._summary_state
            )

    def _summary_state(self) -> Dict[str, object]:
        """Detector state merged into the ``/summary`` endpoint."""
        return {
            "window_index": self._window_index,
            "window_start": self._window_start,
            "window_seconds": self.window,
            "finalised_windows": len(self.history),
            "tracked_hosts": len(self.internal_hosts),
            "degradations": len(self.guard.degradations),
        }

    def close(self) -> None:
        """Release the live metrics endpoint, if any (idempotent)."""
        if self.metrics_server is not None:
            self.metrics_server.close()
            self.metrics_server = None

    def __enter__(self) -> "OnlineDetector":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def degradations(self) -> "Tuple[Degradation, ...]":
        """Every degradation of this detector's lifetime, in order."""
        return self.guard.degradations

    @property
    def _verdict_log(self) -> Optional[Path]:
        if self.checkpoint_dir is None or self._verdict_log_disabled:
            return None
        return self.checkpoint_dir / "verdicts.jsonl"

    def _restore_verdicts(self) -> None:
        """Reload finalised-window verdicts from the verdict log."""
        log = self._verdict_log
        if log is None or not log.exists():
            return
        lines = log.read_text().splitlines()
        intact: List[str] = []
        torn = False
        for line in lines:
            stripped = line.strip()
            if not stripped:
                continue
            try:
                verdict = OnlineVerdict.from_json(stripped)
            except (ValueError, KeyError):
                # A torn final line from a killed writer: everything
                # before it is intact, so keep what parsed.
                torn = True
                break
            intact.append(stripped)
            self.history.append(verdict)
            _VERDICT_CKPT.inc(result="restore")
        if torn:
            # Truncate the tear away so later appends start on a fresh
            # line — otherwise the fragment and the next verdict would
            # merge into one unparseable line, losing both.
            atomic_write_text(
                log, "".join(line + "\n" for line in intact)
            )
            _VERDICT_CKPT.inc(result="truncated")
        if self.history:
            self._window_index = self.history[-1].window_index + 1

    def _fresh_extractor(self) -> StreamingFeatureExtractor:
        return StreamingFeatureExtractor(
            reservoir_size=self.reservoir_size,
            seed=self._window_index,
        )

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def _aligned_start(self, t: float) -> float:
        """The window-grid start for time ``t`` (see ``window_origin``)."""
        if self.window_origin is None:
            return t
        k = math.floor((t - self.window_origin) / self.window)
        return self.window_origin + k * self.window

    def ingest_columns(
        self,
        names: Sequence[str],
        src_codes,
        dst_codes,
        starts,
        src_bytes,
        success,
    ) -> None:
        """Feed one column chunk of flows, in chunk (arrival) order.

        ``src_codes``/``dst_codes`` index ``names``; the columns are
        those :meth:`repro.storage.writer.SegmentWriter.extend` takes.
        The chunk is cut at every row that starts at or past the
        current window's end: the rows before the cut go to the spool
        and then the extractor, the window is finalised and advanced
        by whole windows, and the rest of the chunk continues in the
        new window — so any split of a stream into chunks tumbles
        exactly where flow-by-flow arrival would.  Rows need not be
        sorted.
        """
        starts = np.asarray(starts, dtype=np.float64)
        n = len(starts)
        if n == 0:
            return
        columns = (
            np.asarray(src_codes, dtype=np.int64),
            np.asarray(dst_codes, dtype=np.int64),
            starts,
            np.asarray(src_bytes, dtype=np.int64),
            np.asarray(success, dtype=np.int64),
        )
        first = 0
        if self._window_start is None:
            # The opening row sets the window and is never tested
            # against it.
            self._window_start = self._aligned_start(float(starts[0]))
            first = 1
        # Running maximum of the starts: the first row at or past a
        # window end is where the running maximum first reaches it.
        # Every row before a cut lies inside the window being cut, so
        # one binary search per window finds each cut.
        running_max = np.maximum.accumulate(starts[first:])
        lo = 0
        while lo < n:
            end = self._window_start + self.window
            cut = first + int(np.searchsorted(running_max, end, side="left"))
            if cut > lo:
                self._ingest_rows(names, [column[lo:cut] for column in columns])
            if cut == n:
                break
            self._finalize(end)
            # Advance by whole windows so a long gap skips empty ones.
            tumbling = float(starts[cut])
            while tumbling >= self._window_start + self.window:
                self._window_start += self.window
            lo = cut

    def _ingest_rows(self, names: Sequence[str], columns) -> None:
        """Spool, then account, one slice of a chunk inside one window."""
        if self._spool_writer is not None:
            try:
                self._spool_writer.extend(names, *columns)
            except OSError as exc:
                if not self.config.degrade:
                    raise
                self._disable_spool(exc)
        self._extractor.update_columns(names, *columns)

    def ingest(self, flow: FlowRecord) -> None:
        """Feed one flow; rolls the window when the flow starts past it."""
        self.ingest_many((flow,))

    def ingest_many(self, flows: Iterable[FlowRecord]) -> None:
        """Feed an iterable of flows, in iteration order."""
        chunk, _, error = record_columns(flows)
        self.ingest_columns(*chunk)
        if error is not None:
            raise error

    def _disable_spool(self, exc: BaseException) -> None:
        """Degrade to unspooled operation after a storage write failure.

        Mirrors the verdict-log ladder: the online verdicts never
        depended on the spool, so losing it costs only the ability to
        batch-rescore later windows — degrade loudly, keep tumbling.
        """
        self._spool_writer = None
        self._spool_disabled = True
        self.guard.note(
            "window_spool",
            "spooled",
            "no-spool",
            f"{type(exc).__name__}: {exc}",
        )

    def _finalize(self, at: float) -> None:
        verdict = self.evaluate(at)
        self.history.append(verdict)
        log = self._verdict_log
        if log is not None:
            try:
                io_point("verdict-log")
                with open(log, "a") as fh:
                    fh.write(verdict.to_json() + "\n")
            except OSError as exc:
                # Never kill a detector holding days of window state
                # over a full disk: degrade to unlogged operation
                # (loudly) and keep tumbling.
                if not self.config.degrade:
                    raise
                self._verdict_log_disabled = True
                self.guard.note(
                    "verdict_log",
                    "checkpointed",
                    "no-checkpoint",
                    f"{type(exc).__name__}: {exc}",
                )
            else:
                _VERDICT_CKPT.inc(result="write")
        if self._spool_writer is not None:
            # Cut at the tumble so segment time ranges align with
            # windows — rescoring a window then prunes to exactly its
            # segments via the zone maps.
            try:
                self._spool_writer.cut()
            except OSError as exc:
                if not self.config.degrade:
                    raise
                self._disable_spool(exc)
            else:
                start = self._window_start if self._window_start is not None else at
                self._window_bounds[self._window_index] = (start, at)
        self._window_index += 1
        self._extractor = self._fresh_extractor()
        # The new window starts with empty reservoirs whose version
        # counters restart from zero — stale entries must not collide.
        self._hist_cache.clear()
        _TUMBLES.inc()

    def finalize_window(self, at: Optional[float] = None) -> Optional[OnlineVerdict]:
        """Finalise the current window early, without waiting for a flow.

        The tumble normally happens when a flow arrives past the window
        end; a draining service (or a rebalancing coordinator) cannot
        wait for one.  This evaluates and retires the current window as
        if a flow at its end had arrived — verdict appended to
        ``history`` and the verdict log, spool segment cut — and resets
        the window clock, so the next ingested flow opens a fresh
        window (grid-aligned when ``window_origin`` is set).  Returns
        the finalised verdict, or ``None`` when no flow has been
        ingested since the last tumble (nothing to finalise).
        """
        if self._window_start is None:
            return None
        end = self._window_start + self.window if at is None else at
        self._finalize(end)
        self._window_start = None
        return self.history[-1]

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def _cached_histograms(
        self, features: Mapping[str, HostFeatures], hosts: Sequence[str]
    ) -> Dict[str, Histogram]:
        """θ_hm's histogram source: per-host, cached per reservoir version.

        Hosts without enough samples get no histogram.  The cache key
        is the extractor's reservoir version counter, which changes iff
        the sample set changed — so between evaluations of a busy
        window, only hosts with new samples pay the histogram rebuild.
        """
        histograms: Dict[str, Histogram] = {}
        for host in hosts:
            samples = features[host].interstitials
            if len(samples) < MIN_SAMPLES:
                continue
            version = self._extractor.reservoir_version(host)
            cached = self._hist_cache.get(host) if self.cache_histograms else None
            if cached is not None and cached[0] == version:
                self.cache_hits += 1
                _HIST_CACHE.inc(result="hit")
                histograms[host] = cached[1]
                continue
            self.cache_misses += 1
            _HIST_CACHE.inc(result="miss")
            hist = interstitial_histogram(samples, self.config.hm_log_scale)
            if self.cache_histograms:
                self._hist_cache[host] = (version, hist)
            histograms[host] = hist
        return histograms

    def evaluate(self, now: Optional[float] = None) -> OnlineVerdict:
        """Run the FindPlotters logic over the current window's state."""
        with span("online_evaluate", window_index=self._window_index) as sp:
            verdict = self._evaluate(now)
            sp.set(
                hosts_seen=verdict.hosts_seen,
                reduced=len(verdict.reduced),
                suspects=len(verdict.suspects),
            )
        return verdict

    def _evaluate(self, now: Optional[float] = None) -> OnlineVerdict:
        features = {
            host: feats
            for host, feats in self._extractor.all_features().items()
            if host in self.internal_hosts
        }
        _EVALUATIONS.inc()
        if obs_metrics.is_enabled():
            _TRACKED_HOSTS.set(len(features))
            _RESERVOIR_SAMPLES.set(
                sum(len(f.interstitials) for f in features.values())
            )
        # The stage core also refreshes the shared repro_stage_* funnel
        # gauges, so a live /metrics scrape mid-window shows the same
        # series as a batch run (the values describe this evaluation).
        result = run_stages(
            features,
            set(features),
            self.config,
            histograms=self._cached_histograms,
        )
        return OnlineVerdict(
            window_index=self._window_index,
            evaluated_at=now if now is not None else (self._window_start or 0.0),
            hosts_seen=len(features),
            reduced=frozenset(result.reduced_hosts),
            suspects=frozenset(result.suspects),
        )

    # ------------------------------------------------------------------
    # Batch rescoring
    # ------------------------------------------------------------------
    def rescore_window(self, store: FlowStore) -> PipelineResult:
        """Re-run the exact batch pipeline over a retained window.

        The online verdicts trade exactness for bounded memory (θ_hm
        runs on reservoir samples).  When a window's raw flows are still
        available — e.g. the collector retains the last day on disk —
        this re-scores it with :func:`find_plotters` under this
        detector's configuration, including its ``n_workers`` parallel
        extraction, producing the exact batch result for comparison or
        escalation.
        """
        candidates = self.internal_hosts & store.initiators
        return find_plotters(store, candidates, self.config)

    @property
    def spooled_windows(self) -> Tuple[int, ...]:
        """Indices of finalised windows whose rows are in the spool."""
        return tuple(sorted(self._window_bounds))

    def rescore_window_from_spool(
        self, window_index: Optional[int] = None
    ) -> PipelineResult:
        """Batch-rescore a finalised window straight from the spool.

        Like :meth:`rescore_window`, but the raw flows come from the
        detector's own segment spool (``spool_dir``) instead of an
        externally retained :class:`FlowStore`: a time-restricted
        :class:`~repro.storage.view.StoreView` over the window's bounds
        is handed to :func:`find_plotters`, so only that window's
        segments are read (zone-map pruned) and the result is exactly
        the batch pipeline's.  Defaults to the most recently finalised
        window.
        """
        if self._spool_writer is None:
            raise RuntimeError(
                "no active spool (spool_dir not set, or spooling degraded)"
            )
        if not self._window_bounds:
            raise ValueError("no window has been finalised into the spool yet")
        if window_index is None:
            window_index = max(self._window_bounds)
        try:
            t0, t1 = self._window_bounds[window_index]
        except KeyError:
            raise ValueError(
                f"window {window_index} is not in the spool "
                f"(have {sorted(self._window_bounds)})"
            ) from None
        view = self._spool_writer.store.view(t0=t0, t1=t1)
        candidates = self.internal_hosts & view.initiators
        return find_plotters(view, candidates, self.config)
