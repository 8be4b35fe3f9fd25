"""Struct-of-arrays flow batches: many flow records as columns.

A :class:`FlowBatch` holds a run of flow records field by field — one
numpy array per numeric field, integer codes into a shared address
dictionary for ``src``/``dst``, small integer codes for ``proto`` and
``state``, and every payload snippet packed into one ``bytes`` buffer.
It is what the Argus reader (:mod:`repro.flows.argus`) parses into and
what :class:`~repro.flows.store.FlowStore` builds its columnar snapshot
from, so the hot path never creates one Python object per flow.

:class:`~repro.flows.record.FlowRecord` stays the per-row convenience
view: :meth:`FlowBatch.records` materialises records on demand (payload
labelling, record-level queries), and :meth:`FlowBatch.from_records`
packs records into columns with one attribute pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence

import numpy as np

from .record import FlowRecord, FlowState, Protocol

__all__ = ["PROTOCOLS", "STATES", "AddressBook", "FlowBatch"]

#: ``proto_codes`` index this tuple.
PROTOCOLS = tuple(Protocol)
#: ``state_codes`` index this tuple.
STATES = tuple(FlowState)
_ESTABLISHED = STATES.index(FlowState.ESTABLISHED)


class AddressBook:
    """A growing string dictionary; codes are dense, first-appearance."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._code: Dict[str, int] = {}

    def encode(self, values: Sequence[str]) -> np.ndarray:
        """Codes of ``values``, adding unseen strings to the dictionary."""
        code = self._code
        for value in dict.fromkeys(values):
            if value not in code:
                code[value] = len(self.names)
                self.names.append(value)
        return np.fromiter(map(code.__getitem__, values), np.int64, len(values))


@dataclass(frozen=True)
class FlowBatch:
    """Flow records as columns, in arrival order.

    Row ``i`` is the record with ``src=addresses[src_codes[i]]``,
    ``start=starts[i]``, ``proto=PROTOCOLS[proto_codes[i]]``, payload
    ``payloads[payload_offsets[i]:payload_offsets[i + 1]]``, and so on.
    Every row already satisfies :class:`FlowRecord`'s invariants.
    """

    addresses: Sequence[str]
    src_codes: np.ndarray
    dst_codes: np.ndarray
    starts: np.ndarray
    ends: np.ndarray
    proto_codes: np.ndarray
    sports: np.ndarray
    dports: np.ndarray
    src_pkts: np.ndarray
    dst_pkts: np.ndarray
    src_bytes: np.ndarray
    dst_bytes: np.ndarray
    state_codes: np.ndarray
    payloads: bytes
    payload_offsets: np.ndarray

    def __len__(self) -> int:
        return len(self.starts)

    @property
    def success(self) -> np.ndarray:
        """1 for established flows, 0 for failed ones (int64)."""
        return (self.state_codes == _ESTABLISHED).astype(np.int64)

    @classmethod
    def from_records(
        cls, records: Iterable[FlowRecord], book: AddressBook
    ) -> "FlowBatch":
        """Pack records into columns, coding addresses through ``book``."""
        records = list(records)
        n = len(records)
        proto = {p: i for i, p in enumerate(PROTOCOLS)}
        state = {s: i for i, s in enumerate(STATES)}
        payloads = [r.payload for r in records]
        return cls(
            addresses=book.names,
            src_codes=book.encode([r.src for r in records]),
            dst_codes=book.encode([r.dst for r in records]),
            starts=np.fromiter((r.start for r in records), np.float64, n),
            ends=np.fromiter((r.end for r in records), np.float64, n),
            proto_codes=np.fromiter((proto[r.proto] for r in records), np.uint8, n),
            sports=np.fromiter((r.sport for r in records), np.int64, n),
            dports=np.fromiter((r.dport for r in records), np.int64, n),
            src_pkts=np.fromiter((r.src_pkts for r in records), np.int64, n),
            dst_pkts=np.fromiter((r.dst_pkts for r in records), np.int64, n),
            src_bytes=np.fromiter((r.src_bytes for r in records), np.int64, n),
            dst_bytes=np.fromiter((r.dst_bytes for r in records), np.int64, n),
            state_codes=np.fromiter((state[r.state] for r in records), np.uint8, n),
            payloads=b"".join(payloads),
            payload_offsets=_offsets(map(len, payloads), n),
        )

    @classmethod
    def concat(
        cls, parts: Sequence["FlowBatch"], addresses: Sequence[str]
    ) -> "FlowBatch":
        """Rows of ``parts`` in order; all parts code into ``addresses``."""
        if not parts:
            return cls.from_records((), AddressBook())
        shifts = np.cumsum([0] + [len(part.payloads) for part in parts])
        return cls(
            addresses=tuple(addresses),
            payloads=b"".join(part.payloads for part in parts),
            payload_offsets=np.concatenate(
                [np.zeros(1, dtype=np.int64)]
                + [
                    part.payload_offsets[1:] + shift
                    for part, shift in zip(parts, shifts.tolist())
                ]
            ),
            **{
                name: np.concatenate([getattr(part, name) for part in parts])
                for name in _ARRAY_FIELDS
            },
        )

    def records(self) -> List[FlowRecord]:
        """Every row as a :class:`FlowRecord`, in batch order."""
        names = self.addresses
        payloads = self.payloads
        offsets = self.payload_offsets.tolist()
        return [
            FlowRecord(
                src=names[src],
                dst=names[dst],
                sport=sport,
                dport=dport,
                proto=PROTOCOLS[proto],
                start=start,
                end=end,
                src_bytes=src_bytes,
                dst_bytes=dst_bytes,
                src_pkts=src_pkts,
                dst_pkts=dst_pkts,
                state=STATES[state],
                payload=payloads[lo:hi],
            )
            for (
                src, dst, start, end, proto, sport, dport, src_pkts,
                dst_pkts, src_bytes, dst_bytes, state, lo, hi,
            ) in zip(
                self.src_codes.tolist(),
                self.dst_codes.tolist(),
                self.starts.tolist(),
                self.ends.tolist(),
                self.proto_codes.tolist(),
                self.sports.tolist(),
                self.dports.tolist(),
                self.src_pkts.tolist(),
                self.dst_pkts.tolist(),
                self.src_bytes.tolist(),
                self.dst_bytes.tolist(),
                self.state_codes.tolist(),
                offsets[:-1],
                offsets[1:],
            )
        ]


def _offsets(lengths: Iterable[int], n: int) -> np.ndarray:
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.fromiter(lengths, np.int64, n), out=offsets[1:])
    return offsets


_ARRAY_FIELDS = (
    "src_codes", "dst_codes", "starts", "ends", "proto_codes", "sports",
    "dports", "src_pkts", "dst_pkts", "src_bytes", "dst_bytes",
    "state_codes",
)
