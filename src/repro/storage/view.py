"""A :class:`~repro.flows.store.FlowStore`-shaped facade over segments.

:class:`StoreView` is how the rest of the pipeline consumes a
:class:`~repro.storage.store.SegmentStore` without knowing it exists:
it answers the store-protocol queries the detection stages and the
extraction engines actually use — ``initiators``, ``flow_counts()``,
``columnar()``, ``flows_from()``, ``version``, ``between()`` — by
gathering from segments on demand.  Every answer is bit-identical to
the same query against an in-memory :class:`FlowStore` holding the
same rows (the equivalence suite pins this property under Hypothesis).

Two things distinguish it from the in-memory plane:

* **A materialisation budget.**  ``max_gather_rows`` bounds the rows
  any single gather may bring into memory; exceeding it raises
  :class:`~repro.storage.format.StorageBudgetError` instead of
  silently defeating the point of out-of-core storage.  Sharded
  extraction gathers per shard, so the budget is per-shard, not
  per-trace — that is what lets a trace larger than RAM run.
* **A shipping address.**  :attr:`parallel_spec` describes the view as
  a small picklable tuple; :mod:`repro.flows.parallel` ships it to
  workers (fork *or* spawn), which re-open the store and memory-map
  segments independently — no snapshot copy travels to any worker.

Time-restricted views (:meth:`between`) carry the window into every
gather, so zone-map pruning applies to replayed windows exactly as to
host subsets.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from ..flows.batch import PROTOCOLS, STATES, AddressBook, FlowBatch
from ..flows.parallel import _columns_core, _ShardColumns
from ..flows.record import FlowRecord, FlowState, Protocol
from ..flows.store import ColumnarFlows, columnar_from_columns
from .format import StorageBudgetError  # noqa: F401  (re-exported for callers)
from .store import Gathered, SegmentStore

__all__ = ["PARALLEL_SPEC_TAG", "StoreView"]

#: First element of :attr:`StoreView.parallel_spec`; the worker-side
#: opener refuses specs with any other tag, so an accidental payload
#: cannot be misread as a store address.
PARALLEL_SPEC_TAG = "repro-storage"

_ESTABLISHED = STATES.index(FlowState.ESTABLISHED)
_TIMEOUT = STATES.index(FlowState.TIMEOUT)


class StoreView:
    """Read-only, optionally time-restricted view over a segment store.

    Feature kernels, the detection stages, and both extraction engines
    accept this anywhere they accept a :class:`FlowStore`.
    """

    def __init__(
        self,
        store: SegmentStore,
        *,
        t0: Optional[float] = None,
        t1: Optional[float] = None,
        max_gather_rows: Optional[int] = None,
    ) -> None:
        if max_gather_rows is not None and max_gather_rows < 1:
            raise ValueError("max_gather_rows must be >= 1")
        self.store = store
        self.t0 = t0
        self.t1 = t1
        self.max_gather_rows = max_gather_rows
        self._counts: Optional[Dict[str, int]] = None
        self._counts_generation = -1
        self._columnar: Optional[ColumnarFlows] = None
        self._columnar_generation = -1

    # ------------------------------------------------------------------
    # Store protocol
    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        """The store's catalog generation — the pool-staleness key."""
        return self.store.generation

    def flow_counts(self) -> Dict[str, int]:
        """Initiated-flow counts per host, from zone maps when possible."""
        if self._counts is None or self._counts_generation != self.version:
            self._counts = self.store.host_counts(self.t0, self.t1)
            self._counts_generation = self.version
        return dict(self._counts)

    @property
    def initiators(self) -> Set[str]:
        """All source addresses with at least one flow in the window."""
        return set(self.flow_counts())

    def __len__(self) -> int:
        return sum(self.flow_counts().values())

    def __bool__(self) -> bool:
        return len(self) > 0

    def between(self, t0: float, t1: float) -> "StoreView":
        """A sub-view over ``[t0, t1)``, intersected with this window."""
        lo = t0 if self.t0 is None else max(self.t0, t0)
        hi = t1 if self.t1 is None else min(self.t1, t1)
        return StoreView(
            self.store, t0=lo, t1=hi, max_gather_rows=self.max_gather_rows
        )

    # ------------------------------------------------------------------
    # Gathering
    # ------------------------------------------------------------------
    def gather(self, hosts=None) -> Gathered:
        """Gather this view's rows (optionally for a host subset)."""
        return self.store.gather(
            hosts,
            self.t0,
            self.t1,
            max_rows=self.max_gather_rows,
        )

    def columnar(self) -> ColumnarFlows:
        """The window as a :class:`ColumnarFlows`, bit-identical to the
        snapshot an in-memory store of the same rows would build.

        Materialises every row in the window — subject to the gather
        budget.  Prefer :meth:`shard_columns` (per-shard gathers) when
        the trace does not comfortably fit.
        """
        if (
            self._columnar is None
            or self._columnar_generation != self.version
        ):
            gathered = self.gather()
            self._columnar = columnar_from_columns(
                gathered.hosts,
                np.repeat(np.arange(len(gathered.hosts)), gathered.counts),
                gathered.starts,
                gathered.src_bytes,
                gathered.success,
                gathered.dst_codes,
            )
            self._columnar_generation = self.version
        return self._columnar

    def shard_columns(
        self, hosts: Tuple[str, ...], grace_period: float
    ) -> _ShardColumns:
        """Run the vectorized shard kernel over a per-shard gather.

        This is the store-backed worker kernel: only the shard's rows
        are materialised (budget-checked), then the exact in-memory
        group-by kernel (:func:`repro.flows.parallel._columns_core`)
        runs on them — same kernel, same ordering, same bits.
        """
        gathered = self.gather(hosts)
        return _columns_core(
            list(gathered.hosts),
            gathered.counts,
            gathered.starts,
            gathered.src_bytes,
            gathered.success,
            gathered.dst_codes,
            gathered.n_destinations,
            grace_period,
        )

    # ------------------------------------------------------------------
    # The neutral projection: columns, and records on request
    # ------------------------------------------------------------------
    def batch(self, book: Optional[AddressBook] = None) -> FlowBatch:
        """Every row in the view as a :class:`FlowBatch` (host-grouped).

        The storage plane keeps only the feature-bearing columns, so
        the batch carries neutral values for the rest: ports 0, TCP,
        ``end = start``, no packets or responder bytes, no payload, and
        ``state`` collapsed to established vs timeout — exactly the
        projection every feature in :mod:`repro.flows.metrics`
        consumes, which is why it yields bit-identical features.  Rows
        come grouped by host in the gather's host order, start-sorted
        within each host.  Addresses are coded through ``book`` (a
        fresh dictionary by default), so batches of several stores can
        share one and be concatenated — the serve drain's rescore.
        """
        return self._batch(self.gather(), AddressBook() if book is None else book)

    def flows_from(self, host: str) -> List[FlowRecord]:
        """``host``'s flows as synthetic records, in start-time order.

        Same neutral projection as :meth:`batch`.
        """
        return self._batch(self.gather([host]), AddressBook()).records()

    def records(self) -> List[FlowRecord]:
        """Every row in the view as synthetic records (host-grouped).

        The per-row view of :meth:`batch`; the detector and the serve
        plane read columns and never call this.
        """
        return self.batch().records()

    @staticmethod
    def _batch(gathered: Gathered, book: AddressBook) -> FlowBatch:
        n = gathered.n_rows
        zeros = np.zeros(n, dtype=np.int64)
        hosts = book.encode(gathered.hosts)
        dsts = book.encode(gathered.dsts)
        return FlowBatch(
            addresses=book.names,
            src_codes=np.repeat(hosts, gathered.counts),
            dst_codes=dsts[gathered.dst_codes],
            starts=gathered.starts,
            ends=gathered.starts,
            proto_codes=np.full(n, PROTOCOLS.index(Protocol.TCP), dtype=np.uint8),
            sports=zeros,
            dports=zeros,
            src_pkts=zeros,
            dst_pkts=zeros,
            src_bytes=gathered.src_bytes,
            dst_bytes=zeros,
            state_codes=np.where(
                gathered.success != 0, _ESTABLISHED, _TIMEOUT
            ).astype(np.uint8),
            payloads=b"",
            payload_offsets=np.zeros(n + 1, dtype=np.int64),
        )

    # ------------------------------------------------------------------
    # Worker shipping
    # ------------------------------------------------------------------
    @property
    def parallel_spec(self) -> Tuple[object, ...]:
        """Picklable address of this view for extraction workers.

        ``(tag, directory, generation, t0, t1, max_gather_rows)`` —
        enough for a worker process to re-open the store (verifying the
        catalog generation it was planned against) and gather its
        shards independently via its own memory maps.
        """
        return (
            PARALLEL_SPEC_TAG,
            str(self.store.directory),
            self.version,
            self.t0,
            self.t1,
            self.max_gather_rows,
        )

    @classmethod
    def from_parallel_spec(cls, spec: Tuple[object, ...]) -> "StoreView":
        """Re-open the view a :attr:`parallel_spec` describes.

        Raises :class:`~repro.storage.format.StorageError` (via
        :meth:`SegmentStore.open`) when the store is unreadable, and
        ``RuntimeError`` when the catalog moved past the generation the
        shards were planned against — a stale plan must fail loudly,
        not silently extract different rows.
        """
        tag, directory, generation, t0, t1, max_rows = spec
        if tag != PARALLEL_SPEC_TAG:
            raise RuntimeError(f"not a storage parallel spec: {spec!r}")
        store = SegmentStore.open(directory)
        if store.generation != generation:
            raise RuntimeError(
                f"segment store {directory} is at generation "
                f"{store.generation}, but the extraction plan was built "
                f"against generation {generation}"
            )
        return cls(store, t0=t0, t1=t1, max_gather_rows=max_rows)
