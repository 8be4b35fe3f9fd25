"""One-pass, bounded-memory feature extraction for busy borders.

The paper's scalability pitch (§I, §VII) is that flow summaries let the
detector "scale to very busy networks" — CMU's border ran at ~5000
flows per second.  Batch feature extraction
(:mod:`repro.flows.metrics`) re-scans the stored trace per host; this
module provides the streaming counterpart an operator would actually
deploy: flows are consumed once, in any order of arrival, and per-host
state is bounded.

Exact state kept per host: flow/failure counters, uploaded-byte sum,
the destination set with first-contact times (needed exactly by the
churn metric), and per-destination *last* flow start (for interstitial
gaps).  The unbounded part — the interstitial samples themselves — is
replaced by reservoir sampling with a configurable cap, giving an
unbiased sample of the distribution θ_hm histograms are built from.

Flows arrive as column chunks — an address dictionary plus the
storage plane's five columns (``src_codes``, ``dst_codes``, ``starts``,
``src_bytes``, ``success``), the shape the serve plane ships to its
shard workers — and :meth:`StreamingFeatureExtractor.update_columns`
is the one ingest loop.  Record-level callers (``update``,
``update_many``) go through :func:`record_columns`, which turns
records into such a chunk.
Telemetry is per chunk: one counter increment and one clock read, never
one per flow.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import (
    Dict,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..obs import metrics as obs_metrics
from .metrics import (
    NEW_IP_GRACE_PERIOD,
    HostFeatures,
    new_fraction_from_first_contacts,
)
from .record import FlowRecord

__all__ = [
    "ColumnChunk",
    "StreamingHostState",
    "StreamingFeatureExtractor",
    "record_columns",
]

#: Default cap on retained interstitial samples per host.
DEFAULT_RESERVOIR = 4096

# Ingest telemetry (no-ops while repro.obs is disabled), updated once
# per ingested chunk so a busy border pays one clock read and one locked
# increment per batch, not per record.
_FLOWS_INGESTED = obs_metrics.counter(
    "repro_flows_ingested_total",
    "Flows consumed by streaming feature extractors",
)
_INGEST_RATE = obs_metrics.gauge(
    "repro_flow_ingest_rate_per_s",
    "Wall-clock ingest throughput of the busiest extractor (flows/s)",
)
_FLOWS_SKIPPED = obs_metrics.counter(
    "repro_ingest_rows_skipped_total",
    "Malformed rows/records dropped by skip-mode ingestion",
)


class ColumnChunk(NamedTuple):
    """Flows as columns: ``src_codes``/``dst_codes`` index ``names``.

    The argument order of
    :meth:`StreamingFeatureExtractor.update_columns`,
    :meth:`repro.detection.incremental.OnlineDetector.ingest_columns`
    and :meth:`repro.storage.writer.SegmentWriter.extend`.
    """

    names: Sequence[str]
    src_codes: Sequence[int]
    dst_codes: Sequence[int]
    starts: Sequence[float]
    src_bytes: Sequence[int]
    success: Sequence[bool]


def record_columns(
    flows: Iterable[FlowRecord], skip: bool = False
) -> Tuple[ColumnChunk, int, Optional[Exception]]:
    """Records as one :class:`ColumnChunk`, in iteration order.

    Returns ``(chunk, skipped, error)``.  An element that cannot be read
    as a flow (``ValueError``/``TypeError``/``AttributeError``) is
    counted in ``skipped`` and left out when ``skip`` is set; otherwise
    reading stops there and ``error`` holds the exception, with the
    chunk holding the flows before it.
    """
    names: List[str] = []
    code: Dict[str, int] = {}
    src_codes: List[int] = []
    dst_codes: List[int] = []
    starts: List[float] = []
    src_bytes: List[int] = []
    success: List[bool] = []
    skipped = 0
    error: Optional[Exception] = None
    for flow in flows:
        try:
            src, dst = flow.src, flow.dst
            start, size, ok = float(flow.start), flow.src_bytes, not flow.failed
        except (ValueError, TypeError, AttributeError) as exc:
            if not skip:
                error = exc
                break
            skipped += 1
            continue
        for address, column in ((src, src_codes), (dst, dst_codes)):
            index = code.get(address)
            if index is None:
                index = code[address] = len(names)
                names.append(address)
            column.append(index)
        starts.append(start)
        src_bytes.append(size)
        success.append(ok)
    chunk = ColumnChunk(names, src_codes, dst_codes, starts, src_bytes, success)
    return chunk, skipped, error


def _as_list(column) -> list:
    """A column as a Python list (numpy arrays via ``tolist``)."""
    return column.tolist() if hasattr(column, "tolist") else column


@dataclass
class StreamingHostState:
    """Accumulated per-host state (bounded except for the dest map)."""

    flow_count: int = 0
    successful: int = 0
    uploaded_bytes: int = 0
    first_activity: Optional[float] = None
    first_contact: Dict[str, float] = field(default_factory=dict)
    last_start: Dict[str, float] = field(default_factory=dict)
    reservoir: List[float] = field(default_factory=list)
    samples_seen: int = 0
    #: Incremented whenever the reservoir *contents* change (append or
    #: replacement).  Skipped samples leave it untouched, so downstream
    #: caches keyed on the version stay valid exactly as long as the
    #: host's interstitial sample set is unchanged.
    reservoir_version: int = 0


class StreamingFeatureExtractor:
    """Consume flows in column chunks; emit per-host feature bundles.

    Flows may arrive out of order up to the granularity the detector
    cares about: first-contact times take the minimum seen, and
    interstitial gaps use absolute differences, so modest reordering
    (as produced by a real collector's export batching) does not skew
    the features.
    """

    def __init__(
        self,
        reservoir_size: int = DEFAULT_RESERVOIR,
        grace_period: float = NEW_IP_GRACE_PERIOD,
        seed: int = 0,
    ) -> None:
        if reservoir_size <= 0:
            raise ValueError("reservoir size must be positive")
        self.reservoir_size = reservoir_size
        self.grace_period = grace_period
        self._rng = random.Random(seed)
        self._hosts: Dict[str, StreamingHostState] = {}
        self._ingested = 0
        self._ingest_t0: Optional[float] = None

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def update_columns(
        self,
        names: Sequence[str],
        src_codes,
        dst_codes,
        starts,
        src_bytes,
        success,
    ) -> None:
        """Account one column chunk of flows, row by row in chunk order.

        ``src_codes``/``dst_codes`` index ``names``; ``success`` is
        truthy for established flows.  Columns may be numpy arrays or
        plain sequences.  Rows need not be time-ordered: interstitial
        gaps and reservoir draws happen in chunk order on the one RNG,
        exactly as if the rows had arrived one by one.
        """
        hosts = self._hosts
        cap = self.reservoir_size
        randrange = self._rng.randrange
        for src, dst, start, size, ok in zip(
            _as_list(src_codes),
            _as_list(dst_codes),
            _as_list(starts),
            _as_list(src_bytes),
            _as_list(success),
        ):
            src = names[src]
            dst = names[dst]
            state = hosts.get(src)
            if state is None:
                state = hosts[src] = StreamingHostState()
            state.flow_count += 1
            if ok:
                state.successful += 1
            state.uploaded_bytes += size
            first = state.first_activity
            if first is None or start < first:
                state.first_activity = start
            first_contact = state.first_contact
            seen = first_contact.get(dst)
            if seen is None or start < seen:
                first_contact[dst] = start
            last_start = state.last_start
            last = last_start.get(dst)
            last_start[dst] = start
            if last is None:
                continue
            gap = abs(start - last)
            state.samples_seen += 1
            if len(state.reservoir) < cap:
                state.reservoir.append(gap)
                state.reservoir_version += 1
                continue
            # Vitter's algorithm R: replace with probability k/n.
            index = randrange(state.samples_seen)
            if index < cap:
                state.reservoir[index] = gap
                state.reservoir_version += 1
        if len(starts) and obs_metrics.is_enabled():
            self._note_ingest(len(starts))

    def update(self, flow: FlowRecord) -> None:
        """Account one flow to its initiator."""
        self.update_many((flow,))

    def update_many(self, flows, errors: str = "strict") -> int:
        """Account an iterable of flows; returns the number ingested.

        ``errors="skip"`` drops elements that are not readable as flows
        (reading them raises ``ValueError``/``TypeError``/
        ``AttributeError``), counting them in
        ``repro_ingest_rows_skipped_total``, instead of aborting a live
        feed over one malformed record; ``"strict"`` (the default)
        ingests the flows before the first bad element and then raises
        its error unchanged.
        """
        if errors not in ("strict", "skip"):
            raise ValueError(
                f"errors must be 'strict' or 'skip', got {errors!r}"
            )
        chunk, skipped, error = record_columns(flows, skip=errors == "skip")
        self.update_columns(*chunk)
        if skipped:
            _FLOWS_SKIPPED.inc(skipped)
        if error is not None:
            raise error
        return len(chunk.starts)

    def _note_ingest(self, rows: int) -> None:
        """Count one ingested chunk and refresh the rate gauge."""
        now = time.perf_counter()
        if self._ingest_t0 is None:
            self._ingest_t0 = now
        self._ingested += rows
        _FLOWS_INGESTED.inc(rows)
        elapsed = now - self._ingest_t0
        if elapsed > 0:
            _INGEST_RATE.set(self._ingested / elapsed)

    # ------------------------------------------------------------------
    # Read out
    # ------------------------------------------------------------------
    @property
    def hosts(self) -> Set[str]:
        """All initiators seen so far."""
        return set(self._hosts)

    def features(self, host: str) -> HostFeatures:
        """The feature bundle for one host.

        Raises ``KeyError`` for a host never seen.
        """
        state = self._hosts[host]
        dests = len(state.first_contact)
        if state.first_activity is not None:
            # One definition of the §IV-B churn metric, shared with the
            # batch extractor.
            new_fraction = new_fraction_from_first_contacts(
                state.first_contact, state.first_activity, self.grace_period
            )
        else:
            new_fraction = 0.0
        return HostFeatures(
            host=host,
            flow_count=state.flow_count,
            successful_flow_count=state.successful,
            avg_flow_size=(
                state.uploaded_bytes / state.flow_count
                if state.flow_count
                else 0.0
            ),
            failed_conn_rate=(
                (state.flow_count - state.successful) / state.flow_count
                if state.flow_count
                else 0.0
            ),
            new_ip_fraction=new_fraction,
            distinct_destinations=dests,
            interstitials=tuple(state.reservoir),
        )

    def all_features(self) -> Dict[str, HostFeatures]:
        """Feature bundles for every host seen."""
        # Read-out is a natural refresh point, so a stream ingested as
        # one chunk (zero elapsed at its only refresh) still reports a
        # throughput figure.
        if obs_metrics.is_enabled() and self._ingested:
            elapsed = time.perf_counter() - (self._ingest_t0 or 0.0)
            if elapsed > 0:
                _INGEST_RATE.set(self._ingested / elapsed)
        return {host: self.features(host) for host in self._hosts}

    def reservoir_version(self, host: str) -> int:
        """Version counter of the host's interstitial reservoir.

        Changes iff the reservoir contents changed; two calls returning
        the same value guarantee the sample set (and hence any histogram
        built from it) is unchanged.  Raises ``KeyError`` for a host
        never seen.
        """
        return self._hosts[host].reservoir_version

    def state_size(self, host: str) -> Tuple[int, int]:
        """(destination-map entries, reservoir entries) for one host."""
        state = self._hosts[host]
        return (len(state.first_contact), len(state.reservoir))
