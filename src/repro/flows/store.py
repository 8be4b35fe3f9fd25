"""An indexed, in-memory collection of flow records.

The detection tests (§IV) all consume "a collection of traffic Λ involving
a group S of internal hosts over a time window D".  :class:`FlowStore` is
that Λ: it holds flow records sorted by start time and maintains a
per-initiator index so per-host feature extraction is cheap.  A store
read from a trace holds the parsed columns
(:class:`~repro.flows.batch.FlowBatch`) instead, and makes records only
when a record-level query asks for them.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from .batch import AddressBook, FlowBatch
from .record import FlowRecord, FlowState

__all__ = [
    "ColumnarFlows",
    "FlowStore",
    "columnar_from_columns",
    "host_start_order",
]


@dataclass(frozen=True)
class ColumnarFlows:
    """Immutable columnar snapshot of a store's per-initiator flows.

    Flows are grouped by initiator (hosts in sorted order) and kept in
    start-time order within each group — host ``hosts[i]``'s flows live
    at ``starts[host_offsets[i]:host_offsets[i + 1]]`` and friends.
    Destinations are factorized into dense integer codes so group-by
    kernels (:mod:`repro.flows.parallel`) never touch flow *objects*.
    Both planes build it with :func:`columnar_from_columns`, so
    snapshots of the same rows are equal array for array.
    """

    hosts: Tuple[str, ...]
    index_of: Dict[str, int]
    host_offsets: np.ndarray
    starts: np.ndarray
    src_bytes: np.ndarray
    success: np.ndarray
    dst_codes: np.ndarray
    n_destinations: int

    @property
    def n_flows(self) -> int:
        """Total flows in the snapshot."""
        return int(self.host_offsets[-1])


def _recode_first_appearance(codes: np.ndarray) -> Tuple[np.ndarray, int]:
    """Renumber codes densely by first appearance; returns ``(codes, n)``."""
    uniques, first_pos, inverse = np.unique(
        codes, return_index=True, return_inverse=True
    )
    rank = np.empty(len(uniques), dtype=np.int64)
    rank[np.argsort(first_pos)] = np.arange(len(uniques), dtype=np.int64)
    return rank[inverse], len(uniques)


def host_start_order(host_rank: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """The row order :class:`ColumnarFlows` lays flows out in.

    Rows are grouped by ascending ``host_rank``; within a host they
    ascend by start time, and equal starts keep their input (arrival)
    order — the stable sort both the in-memory store and the segment
    store's gather rely on.
    """
    return np.lexsort((starts, host_rank))


def columnar_from_columns(
    names: Sequence[str],
    src_codes: np.ndarray,
    starts: np.ndarray,
    src_bytes: np.ndarray,
    success: np.ndarray,
    dst_codes: np.ndarray,
) -> ColumnarFlows:
    """Sort arrival-ordered flow columns into a :class:`ColumnarFlows`.

    ``src_codes`` index ``names``; ``dst_codes`` may use any coding —
    they are renumbered by first appearance in the sorted layout, which
    is what makes snapshots of the same rows equal array for array.
    """
    present = np.flatnonzero(np.bincount(src_codes, minlength=len(names)))
    present_names = [names[code] for code in present.tolist()]
    by_name = sorted(range(len(present_names)), key=present_names.__getitem__)
    rank = np.empty(len(names), dtype=np.int64)
    rank[present[by_name]] = np.arange(len(by_name), dtype=np.int64)
    host_rank = rank[src_codes]
    order = host_start_order(host_rank, starts)
    host_offsets = np.zeros(len(by_name) + 1, dtype=np.int64)
    np.cumsum(np.bincount(host_rank, minlength=len(by_name)), out=host_offsets[1:])
    hosts = tuple(present_names[i] for i in by_name)
    dst, n_destinations = _recode_first_appearance(dst_codes[order])
    return ColumnarFlows(
        hosts=hosts,
        index_of={host: i for i, host in enumerate(hosts)},
        host_offsets=host_offsets,
        starts=np.asarray(starts[order], dtype=np.float64),
        src_bytes=np.asarray(src_bytes[order], dtype=np.int64),
        success=np.asarray(success[order], dtype=np.int64),
        dst_codes=dst,
        n_destinations=n_destinations,
    )


class FlowStore:
    """A queryable collection of :class:`~repro.flows.record.FlowRecord`.

    The store is append-oriented: records may be added in any order and
    are kept sorted by flow start time.  Hosts are indexed by the
    *initiator* address because every per-host feature in the paper is
    computed over the flows a host initiates (uploads, contacted
    destinations, connection attempts).

    A store built :meth:`from_batch` (the Argus reader) keeps its
    columns and answers the detector's queries — ``len``,
    ``initiators``, :meth:`flow_counts`, :meth:`columnar`, ``span`` —
    from them; record views are made only when a record API
    (iteration, :meth:`flows_from`, :meth:`between`, …) first asks,
    and a mutation drops the columns.

    **Sort-once invariant:** the per-initiator index is maintained in
    start-time order at insertion, so :meth:`flows_from` never re-sorts.
    Feature extraction (:mod:`repro.flows.metrics`,
    :mod:`repro.flows.parallel`) relies on this invariant and passes
    ``presorted=True`` to the per-metric helpers.
    """

    def __init__(self, flows: Optional[Iterable[FlowRecord]] = None) -> None:
        self._batch: Optional[FlowBatch] = None
        self._flows: List[FlowRecord] = []
        self._starts: List[float] = []
        self._by_src: Dict[str, List[FlowRecord]] = {}
        self._version = 0
        self._columnar: Optional[ColumnarFlows] = None
        self._columnar_version = -1
        if flows is not None:
            self.extend(flows)

    @classmethod
    def from_batch(cls, batch: FlowBatch) -> "FlowStore":
        """A store over ``batch``'s rows, with no per-row objects yet."""
        store = cls()
        store._batch = batch
        return store

    @property
    def batch(self) -> Optional[FlowBatch]:
        """The columns this store was built from; ``None`` once it was
        built from records or mutated."""
        return self._batch

    def _records(self) -> List[FlowRecord]:
        """The start-ordered record list, made from the batch on demand."""
        if self._batch is not None and not self._flows and len(self._batch):
            self._index(self._batch.records())
        return self._flows

    def _index(self, incoming: List[FlowRecord]) -> None:
        self._flows.extend(incoming)
        self._flows.sort(key=lambda f: f.start)
        self._starts = [f.start for f in self._flows]
        self._by_src = {}
        for flow in self._flows:
            self._by_src.setdefault(flow.src, []).append(flow)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add(self, flow: FlowRecord) -> None:
        """Insert one flow, keeping start-time order."""
        self._records()
        self._batch = None
        self._version += 1
        idx = bisect.bisect_right(self._starts, flow.start)
        self._flows.insert(idx, flow)
        self._starts.insert(idx, flow.start)
        per_src = self._by_src.setdefault(flow.src, [])
        per_src.append(flow)
        # Keep the per-initiator index start-ordered at insertion time
        # (the sort-once invariant flows_from() relies on).  Appends in
        # time order — the common case — never trigger the sort.
        if len(per_src) > 1 and per_src[-2].start > flow.start:
            per_src.sort(key=lambda f: f.start)

    def extend(self, flows: Iterable[FlowRecord]) -> None:
        """Insert many flows (more efficient than repeated :meth:`add`)."""
        incoming = list(flows)
        if not incoming:
            return
        self._records()
        self._batch = None
        self._version += 1
        self._index(incoming)

    # ------------------------------------------------------------------
    # Basic container protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        if self._batch is not None:
            return len(self._batch)
        return len(self._flows)

    def __iter__(self) -> Iterator[FlowRecord]:
        return iter(self._records())

    def __bool__(self) -> bool:
        return len(self) > 0

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def initiators(self) -> Set[str]:
        """All source addresses that initiated at least one flow."""
        return set(self.flow_counts())

    @property
    def span(self) -> float:
        """Time between the earliest flow start and the latest flow end."""
        if not self:
            return 0.0
        if self._batch is not None:
            return float(self._batch.ends.max()) - float(self._batch.starts.min())
        return max(f.end for f in self._flows) - self._starts[0]

    def flows_from(self, host: str) -> List[FlowRecord]:
        """Flows initiated by ``host``, in start-time order.

        The per-initiator index is kept start-ordered at insertion, so
        this is a plain copy — no per-call sort.
        """
        self._records()
        return list(self._by_src.get(host, []))

    def flow_counts(self) -> Dict[str, int]:
        """Number of initiated flows per initiator (no list copies).

        The shard planner (:func:`repro.flows.parallel.plan_shards`)
        balances shards by this map.
        """
        batch = self._batch
        if batch is not None:
            counts = np.bincount(batch.src_codes, minlength=len(batch.addresses))
            present = np.flatnonzero(counts)
            return {
                batch.addresses[code]: count
                for code, count in zip(present.tolist(), counts[present].tolist())
            }
        return {host: len(flows) for host, flows in self._by_src.items()}

    @property
    def version(self) -> int:
        """Mutation counter; bumps on every :meth:`add` / :meth:`extend`.

        Engines that snapshot the store (worker pools, the columnar
        view) key their caches on this to detect staleness.
        """
        return self._version

    def columnar(self) -> ColumnarFlows:
        """The cached columnar snapshot, rebuilt after mutations.

        A batch-built store sorts its columns directly; a record-built
        one first collects them in one attribute pass.  Either way
        every later vectorized-extraction run on the unchanged store
        reuses the arrays for free.
        """
        if self._columnar is None or self._columnar_version != self._version:
            batch = self._batch
            if batch is None:
                flows = self._flows
                book = AddressBook()
                established = FlowState.ESTABLISHED
                self._columnar = columnar_from_columns(
                    book.names,
                    book.encode([f.src for f in flows]),
                    np.fromiter((f.start for f in flows), np.float64, len(flows)),
                    np.fromiter((f.src_bytes for f in flows), np.int64, len(flows)),
                    np.fromiter(
                        (f.state is established for f in flows), np.int64, len(flows)
                    ),
                    book.encode([f.dst for f in flows]),
                )
            else:
                self._columnar = columnar_from_columns(
                    batch.addresses,
                    batch.src_codes,
                    batch.starts,
                    batch.src_bytes,
                    batch.success,
                    batch.dst_codes,
                )
            self._columnar_version = self._version
        return self._columnar

    def flows_involving(self, host: str) -> List[FlowRecord]:
        """Flows where ``host`` is either endpoint, in start-time order."""
        return [f for f in self._records() if f.involves(host)]

    def between(self, t0: float, t1: float) -> "FlowStore":
        """Flows whose start time lies in ``[t0, t1)``, as a new store."""
        flows = self._records()
        lo = bisect.bisect_left(self._starts, t0)
        hi = bisect.bisect_left(self._starts, t1)
        return FlowStore(flows[lo:hi])

    def filter(self, predicate: Callable[[FlowRecord], bool]) -> "FlowStore":
        """A new store with only the flows satisfying ``predicate``."""
        return FlowStore([f for f in self._records() if predicate(f)])

    def restricted_to_sources(self, hosts: Iterable[str]) -> "FlowStore":
        """A new store with only flows initiated by the given hosts.

        Hosts are walked in sorted order, so flows of different hosts
        with equal starts keep one order in every process.
        """
        self._records()
        kept: List[FlowRecord] = []
        for host in sorted(set(hosts)):
            kept.extend(self._by_src.get(host, []))
        return FlowStore(kept)

    def merged_with(self, other: "FlowStore") -> "FlowStore":
        """A new store holding the union of both stores' flows."""
        merged = FlowStore(self._records())
        merged.extend(list(other))
        return merged

    def destinations_of(self, host: str) -> Set[str]:
        """Distinct destination addresses contacted by ``host``."""
        self._records()
        return {f.dst for f in self._by_src.get(host, [])}
