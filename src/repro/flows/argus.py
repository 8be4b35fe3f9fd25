"""Serialization of flow records to and from an Argus-like CSV format.

Argus (referenced in §III of the paper) emits textual flow summaries; this
module provides an equivalent on-disk representation so synthesised traces
can be captured once and replayed across experiments.  The column set
mirrors the fields the paper lists: addressing, protocol, timestamps,
per-direction packet/byte counts, connection state, and the 64-byte payload
snippet (hex-encoded).

Column-wise reading
-------------------
:func:`read_flows_report` and :func:`loads_report` never build one
:class:`FlowRecord` per row.  They read the trace in fixed-size chunks
of :data:`_CHUNK_ROWS` physical lines, split each chunk into its 13
field columns (plain ``str.split`` when the chunk has no quotes, NULs
or stray carriage returns; the csv module otherwise), and parse column
by column into a :class:`~repro.flows.batch.FlowBatch`: numpy columns
for times, ports and counts, a shared address dictionary with integer
codes for ``src``/``dst``, small codes for ``proto``/``state``, and the
payload snippets packed into one ``bytes`` buffer.  The chunks are
concatenated and wrapped by :meth:`FlowStore.from_batch`, whose
columnar snapshot is one stable sort of those columns.  Chunking bounds
the per-field strings held at once, and with them peak memory.

Validity has one definition, :func:`row_to_flow` (and the
:class:`FlowRecord` invariants behind it).  The column parse applies
the same conversions (``float``, ``int``, the enum values,
``bytes.fromhex``) and the same range checks; a chunk in which any row
fails them is re-parsed row by row with :func:`row_to_flow`, which is
what produces each bad row's ``path:lineno`` error.

Fault-tolerant ingest
---------------------
An eight-day border trace is millions of rows from a real collector —
some of them torn, truncated, or mis-encoded.  :func:`read_flows` and
:func:`loads` therefore take an ``errors`` policy:

* ``"strict"`` (the default) — the first malformed row raises
  ``ValueError`` with ``path:lineno`` context, exactly as before;
* ``"skip"`` — malformed rows are counted, logged, and dropped;
* ``"quarantine"`` — as ``skip``, but each bad row is also appended to
  a *dead-letter CSV* (the same columns plus an ``error`` column) so
  it can be inspected or replayed after the collector bug is fixed.

The policy applies on the row-by-row path above, so counts, error
samples and dead-letter rows are those of a plain per-row parse.  An
active :func:`repro.resilience.faults.parse_corruptor` mangles rows
before either path sees them.  :func:`read_flows_report` returns the
:class:`IngestReport` alongside the store; the
``repro_ingest_rows_{ok,skipped,quarantined}_total`` counters feed the
metrics registry.  Writes go through the crash-safe atomic writer
(:mod:`repro.resilience.io`), so a killed :func:`write_flows` never
leaves a half-written trace where a complete one stood.

Out-of-core ingest
------------------
With ``to_store=`` each parsed chunk's columns are streamed straight
into a :class:`repro.storage.SegmentStore` at that directory — at no
point is the full trace materialised in memory; only one chunk and one
segment's buffer (``segment_rows`` rows) are ever held.  The return
value is then a :class:`repro.storage.StoreView` (FlowStore-shaped,
bit-identical features) instead of a :class:`FlowStore`.  The error
policies compose unchanged: quarantined rows still land in the
dead-letter CSV while good rows land in segments.
"""

from __future__ import annotations

import csv
import io
import itertools
import operator
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from ..obs import metrics as obs_metrics
from ..obs.logconf import get_logger
from ..resilience import faults
from ..resilience.io import atomic_write
from .batch import PROTOCOLS, STATES, AddressBook, FlowBatch
from .record import PAYLOAD_SNIPPET_LEN, FlowRecord, FlowState, Protocol
from .store import FlowStore

if TYPE_CHECKING:  # pragma: no cover - typing only (lazy at runtime)
    from ..storage.view import StoreView

__all__ = [
    "ARGUS_COLUMNS",
    "DEAD_LETTER_COLUMNS",
    "PARSE_ERROR_MODES",
    "IngestReport",
    "flow_to_row",
    "row_to_flow",
    "write_flows",
    "read_flows",
    "read_flows_report",
    "default_dead_letter_path",
    "dumps",
    "loads",
    "loads_report",
]

#: Column order of the Argus-like CSV format.
ARGUS_COLUMNS = (
    "start",
    "end",
    "proto",
    "src",
    "sport",
    "dst",
    "dport",
    "src_pkts",
    "dst_pkts",
    "src_bytes",
    "dst_bytes",
    "state",
    "payload_hex",
)

#: Dead-letter files carry the raw fields plus the parse error.
DEAD_LETTER_COLUMNS = ARGUS_COLUMNS + ("error",)

#: Recognised malformed-row policies.
PARSE_ERROR_MODES = ("strict", "skip", "quarantine")

#: Cap on per-report retained error messages/rows — enough to debug,
#: bounded so a 99%-corrupt file cannot balloon the report.
_REPORT_ERROR_CAP = 32

logger = get_logger("flows.argus")

_ROWS_OK = obs_metrics.counter(
    "repro_ingest_rows_ok_total", "Trace rows parsed into flow records"
)
_ROWS_SKIPPED = obs_metrics.counter(
    "repro_ingest_rows_skipped_total",
    "Malformed trace rows dropped under errors='skip'",
)
_ROWS_QUARANTINED = obs_metrics.counter(
    "repro_ingest_rows_quarantined_total",
    "Malformed trace rows diverted to a dead-letter file",
)


def flow_to_row(flow: FlowRecord) -> List[str]:
    """Render one flow as a CSV row (list of strings)."""
    # repr() of a float round-trips exactly in Python 3, so traces can
    # be compared record-for-record after a save/load cycle.
    return [
        repr(flow.start),
        repr(flow.end),
        flow.proto.value,
        flow.src,
        str(flow.sport),
        flow.dst,
        str(flow.dport),
        str(flow.src_pkts),
        str(flow.dst_pkts),
        str(flow.src_bytes),
        str(flow.dst_bytes),
        flow.state.value,
        flow.payload.hex(),
    ]


def row_to_flow(row: List[str]) -> FlowRecord:
    """Parse one CSV row back into a :class:`FlowRecord`.

    Raises
    ------
    ValueError
        If the row has the wrong arity or a field fails to parse.
    """
    if len(row) != len(ARGUS_COLUMNS):
        raise ValueError(
            f"expected {len(ARGUS_COLUMNS)} columns, got {len(row)}: {row!r}"
        )
    (start, end, proto, src, sport, dst, dport,
     src_pkts, dst_pkts, src_bytes, dst_bytes, state, payload_hex) = row
    return FlowRecord(
        src=src,
        dst=dst,
        sport=int(sport),
        dport=int(dport),
        proto=Protocol(proto),
        start=float(start),
        end=float(end),
        src_bytes=int(src_bytes),
        dst_bytes=int(dst_bytes),
        src_pkts=int(src_pkts),
        dst_pkts=int(dst_pkts),
        state=FlowState(state),
        payload=bytes.fromhex(payload_hex),
    )


def write_flows(path: Union[str, Path], flows: Iterable[FlowRecord]) -> int:
    """Write flows to ``path`` in Argus-like CSV format.

    The write is crash-safe: rows land in a temp file beside ``path``
    which is fsync'd and atomically renamed into place, so a reader
    (or a killed writer) never observes a truncated trace.  Returns
    the number of records written.
    """
    count = 0
    with atomic_write(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(ARGUS_COLUMNS)
        for flow in flows:
            writer.writerow(flow_to_row(flow))
            count += 1
    return count


# ----------------------------------------------------------------------
# Fault-tolerant reading
# ----------------------------------------------------------------------
@dataclass
class IngestReport:
    """Outcome counts (and sampled errors) of one trace read."""

    source: str
    errors_mode: str = "strict"
    rows_ok: int = 0
    rows_skipped: int = 0
    rows_quarantined: int = 0
    dead_letter: Optional[str] = None
    #: First few ``source:lineno: message`` strings, capped.
    error_samples: List[str] = field(default_factory=list)

    @property
    def rows_bad(self) -> int:
        """Malformed rows encountered, regardless of policy."""
        return self.rows_skipped + self.rows_quarantined

    def describe(self) -> str:
        out = (
            f"{self.source}: {self.rows_ok} rows ok, "
            f"{self.rows_bad} malformed ({self.errors_mode})"
        )
        if self.dead_letter is not None and self.rows_quarantined:
            out += f"; dead-letter: {self.dead_letter}"
        return out

    def _note_error(self, message: str) -> None:
        if len(self.error_samples) < _REPORT_ERROR_CAP:
            self.error_samples.append(message)


def default_dead_letter_path(path: Union[str, Path]) -> Path:
    """Where quarantined rows go when no explicit path is given."""
    path = Path(path)
    return path.with_name(path.name + ".deadletter.csv")


class _DeadLetterWriter:
    """Appends quarantined rows (raw fields + error) to a CSV file."""

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._handle = None
        self._writer = None

    def _open(self):
        if self._writer is None:
            faults.io_point("dead-letter")
            fresh = not self.path.exists() or self.path.stat().st_size == 0
            self._handle = open(self.path, "a", newline="")
            self._writer = csv.writer(self._handle)
            if fresh:
                self._writer.writerow(DEAD_LETTER_COLUMNS)
        return self._writer

    def append(self, row: List[str], error: str) -> None:
        width = len(ARGUS_COLUMNS)
        padded = (list(row) + [""] * width)[:width]
        self._open().writerow(padded + [error])

    def close(self) -> None:
        if self._handle is not None:
            self._handle.flush()
            self._handle.close()
            self._handle = None
            self._writer = None


def _strip_bom(cell: str) -> str:
    return cell.lstrip("\ufeff")


#: Physical lines parsed per column chunk.  It bounds the per-field
#: strings one parse holds at once — parsing a whole trace in one go
#: costs about a third more peak memory — and is not a tuning knob.
_CHUNK_ROWS = 8192

_WIDTH = len(ARGUS_COLUMNS)
_PROTO_CODE = {proto.value: code for code, proto in enumerate(PROTOCOLS)}
_STATE_CODE = {state.value: code for code, state in enumerate(STATES)}
_COMMAS = operator.methodcaller("count", ",")
#: Longest all-digit field the vectorised integer parse takes; every
#: such value fits in an int64.
_MAX_DIGITS = 18
_POW10 = 10 ** np.arange(_MAX_DIGITS + 1, dtype=np.int64)


def _plain_lines(lines: List[str]) -> Optional[List[str]]:
    """``lines`` without terminators, or ``None`` if the csv module must
    split them (quotes, NULs, or carriage returns outside CRLF pairs).

    For the remaining lines csv parsing is exactly ``line.split(",")``.
    """
    text = "".join(lines)
    if '"' in text or "\x00" in text:
        return None
    if text.count("\r") == text.count("\n") == text.count("\r\n"):
        body = text.split("\r\n")
    elif "\r" not in text:
        body = text.split("\n")
    else:
        return None
    if len(body) == len(lines) + 1 and not body[-1]:
        body.pop()  # the empty tail after the last terminator
    return body if len(body) == len(lines) else None


def _csv_rows(lines: List[str], handle: Iterator[str], first: int):
    """csv-parse a chunk's rows, reading on from ``handle`` only to
    finish a quoted field that spans the chunk's last line.

    Returns ``(rows, linenos, lines_consumed)``; blank rows are dropped.
    """
    reader = csv.reader(itertools.chain(lines, handle))
    rows: List[List[str]] = []
    linenos: List[int] = []
    for row in reader:
        if row:
            rows.append(row)
            linenos.append(first + reader.line_num)
        if reader.line_num >= len(lines):
            break
    return rows, linenos, reader.line_num


def _int_matrix(columns: Sequence[Sequence[str]], n: int) -> np.ndarray:
    """Parse integer columns exactly as ``int()`` would, into an int64
    ``(len(columns), n)`` array.

    Plain ASCII-digit fields of at most :data:`_MAX_DIGITS` digits are
    decoded vectorised; anything else goes through ``int()`` itself, so
    ``ValueError``/``OverflowError`` mean a field ``int()`` rejects or
    an int64 cannot hold.
    """
    joined = ",".join([",".join(column) for column in columns])
    if (
        n
        and joined.isascii()
        and joined.replace(",", "").isdigit()
        and ",," not in joined
        and joined[0] != ","
        and joined[-1] != ","
    ):
        buf = np.frombuffer(joined.encode("ascii"), dtype=np.uint8)
        is_sep = buf == ord(",")
        ends = np.append(np.flatnonzero(is_sep), len(buf))
        starts = np.concatenate(([0], ends[:-1] + 1))
        if int((ends - starts).max()) <= _MAX_DIGITS:
            digits = buf.astype(np.int64) - ord("0")
            digits[is_sep] = 0
            power = ends[np.cumsum(is_sep)] - np.arange(len(buf)) - 1
            values = np.add.reduceat(digits * _POW10[power], starts)
            return values.reshape(len(columns), n)
    return np.array(
        [np.fromiter(map(int, column), np.int64, n) for column in columns],
        dtype=np.int64,
    ).reshape(len(columns), n)


def _columns_batch(
    columns: Sequence[Sequence[str]], book: AddressBook
) -> Optional[FlowBatch]:
    """Vectorised parse of one chunk's 13 field columns.

    Accepts exactly the rows :func:`row_to_flow` accepts, with the same
    values; returns ``None`` if any row would fail it, so the caller
    can re-parse the chunk row by row for the precise error.
    """
    (start, end, proto, src, sport, dst, dport, src_pkts, dst_pkts,
     src_bytes, dst_bytes, state, payload_hex) = columns
    n = len(start)
    try:
        starts = np.fromiter(map(float, start), np.float64, n)
        ends = np.fromiter(map(float, end), np.float64, n)
        ints = _int_matrix(
            (sport, dport, src_pkts, dst_pkts, src_bytes, dst_bytes), n
        )
        proto_codes = np.fromiter(map(_PROTO_CODE.__getitem__, proto), np.uint8, n)
        state_codes = np.fromiter(map(_STATE_CODE.__getitem__, state), np.uint8, n)
        payloads = list(map(bytes.fromhex, payload_hex))
    except (ValueError, OverflowError, KeyError):
        return None
    if not (
        np.isfinite(starts).all()
        and np.isfinite(ends).all()
        and (ends >= starts).all()
        and ints[2:].min() >= 0
        and ints[:2].min() >= 0
        and ints[:2].max() <= 65535
    ):
        return None
    lengths = np.fromiter(map(len, payloads), np.int64, n)
    if lengths.max() > PAYLOAD_SNIPPET_LEN:
        payloads = [payload[:PAYLOAD_SNIPPET_LEN] for payload in payloads]
        np.minimum(lengths, PAYLOAD_SNIPPET_LEN, out=lengths)
    payload_offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(lengths, out=payload_offsets[1:])
    sports, dports, src_pkts_, dst_pkts_, src_bytes_, dst_bytes_ = ints
    return FlowBatch(
        addresses=book.names,
        src_codes=book.encode(src),
        dst_codes=book.encode(dst),
        starts=starts,
        ends=ends,
        proto_codes=proto_codes,
        sports=sports,
        dports=dports,
        src_pkts=src_pkts_,
        dst_pkts=dst_pkts_,
        src_bytes=src_bytes_,
        dst_bytes=dst_bytes_,
        state_codes=state_codes,
        payloads=b"".join(payloads),
        payload_offsets=payload_offsets,
    )


def _parse_batches(
    handle: Iterator[str],
    *,
    source: str,
    errors: str,
    report: IngestReport,
    dead_letter: Optional[_DeadLetterWriter],
    book: AddressBook,
) -> Iterator[FlowBatch]:
    """Parse a trace's lines into one :class:`FlowBatch` per chunk.

    Each chunk of :data:`_CHUNK_ROWS` physical lines is split into 13
    field columns and parsed column by column (:func:`_columns_batch`).
    A chunk that fails those checks is re-parsed row by row with
    :func:`row_to_flow`, the one definition of a valid row, which
    gives every bad row its ``source:lineno`` error under the
    malformed-row policy.  An active :func:`faults.parse_corruptor`
    mangles rows before either parse sees them.  A UTF-8 BOM on the
    header row is tolerated — collectors on Windows prepend one.
    """
    header_reader = csv.reader(handle)
    header = next(header_reader, None)
    if header is None:
        return
    if header:
        header = [_strip_bom(header[0])] + list(header[1:])
    if tuple(header) != ARGUS_COLUMNS:
        raise ValueError(f"{source}: unrecognised trace header: {header!r}")
    corrupt = faults.parse_corruptor()
    lineno = header_reader.line_num

    def reject(row: List[str], at: int, exc: ValueError) -> None:
        message = f"{source}:{at}: {exc}"
        if errors == "strict":
            raise ValueError(message) from exc
        report._note_error(message)
        if errors == "quarantine":
            report.rows_quarantined += 1
            _ROWS_QUARANTINED.inc()
            if dead_letter is not None:
                dead_letter.append(row, str(exc))
        else:
            report.rows_skipped += 1
            _ROWS_SKIPPED.inc()

    while True:
        lines = list(itertools.islice(handle, _CHUNK_ROWS))
        if not lines:
            break
        body = _plain_lines(lines)
        batch: Optional[FlowBatch] = None
        if body is None:
            rows, linenos, consumed = _csv_rows(lines, handle, lineno)
        else:
            consumed = len(body)
            rows = [line for line in body if line] if "" in body else body
            plain = rows and corrupt is None
            if plain and set(map(_COMMAS, rows)) == {_WIDTH - 1}:
                flat = ",".join(rows).split(",")
                batch = _columns_batch(
                    [flat[k::_WIDTH] for k in range(_WIDTH)], book
                )
            if batch is None:
                linenos = [lineno + i + 1 for i, line in enumerate(body) if line]
                rows = [line.split(",") for line in rows]
        if batch is None and rows:
            if corrupt is not None:
                rows = [corrupt(row) for row in rows]
            if all(len(row) == _WIDTH for row in rows):
                batch = _columns_batch(list(zip(*rows)), book)
            if batch is None:
                records = []
                for row, at in zip(rows, linenos):
                    try:
                        records.append(row_to_flow(row))
                    except ValueError as exc:
                        reject(row, at, exc)
                batch = FlowBatch.from_records(records, book)
        lineno += consumed
        if batch is not None and len(batch):
            report.rows_ok += len(batch)
            yield batch
    _ROWS_OK.inc(report.rows_ok)
    if report.rows_bad:
        logger.warning(
            "%s: %d malformed row(s) %s (first: %s)",
            source,
            report.rows_bad,
            "quarantined" if errors == "quarantine" else "skipped",
            report.error_samples[0] if report.error_samples else "?",
        )


def _check_errors_mode(errors: str) -> None:
    if errors not in PARSE_ERROR_MODES:
        raise ValueError(
            f"unknown errors mode {errors!r}; expected one of {PARSE_ERROR_MODES}"
        )


def _spill_to_store(
    batches: Iterator[FlowBatch],
    to_store: Union[str, Path],
    segment_rows: Optional[int],
):
    """Stream parsed chunks into a fresh segment store; return its view.

    Imported lazily — :mod:`repro.storage` builds on the flows package,
    so the dependency must stay call-time-only, and readers that never
    spill never pay for it.
    """
    from ..storage import StoreView, fresh_store
    from ..storage.writer import DEFAULT_SEGMENT_ROWS

    store = fresh_store(to_store)
    with store.writer(
        segment_rows=segment_rows or DEFAULT_SEGMENT_ROWS
    ) as writer:
        for batch in batches:
            writer.extend(
                batch.addresses,
                batch.src_codes,
                batch.dst_codes,
                batch.starts,
                batch.src_bytes,
                batch.success,
            )
    return StoreView(store)


def _read_store(
    handle: Iterator[str],
    *,
    source: str,
    errors: str,
    report: IngestReport,
    dead_letter: Optional[_DeadLetterWriter],
    to_store: Optional[Union[str, Path]] = None,
    segment_rows: Optional[int] = None,
):
    book = AddressBook()
    batches = _parse_batches(
        handle,
        source=source,
        errors=errors,
        report=report,
        dead_letter=dead_letter,
        book=book,
    )
    if to_store is not None:
        return _spill_to_store(batches, to_store, segment_rows)
    parts = list(batches)
    return FlowStore.from_batch(FlowBatch.concat(parts, book.names))


def read_flows_report(
    path: Union[str, Path],
    *,
    errors: str = "strict",
    dead_letter: Optional[Union[str, Path]] = None,
    to_store: Optional[Union[str, Path]] = None,
    segment_rows: Optional[int] = None,
) -> Tuple[Union[FlowStore, "StoreView"], IngestReport]:
    """Read a trace and return ``(store, ingest report)``.

    In ``quarantine`` mode malformed rows are appended to
    ``dead_letter`` (default: ``<path>.deadletter.csv`` beside the
    trace).  The dead-letter file is append-mode, so repeated partial
    loads accumulate rather than overwrite.

    With ``to_store`` the rows are spilled to a segment store at that
    directory as they parse — the full trace is never held in memory —
    and the first element of the return value is a
    :class:`repro.storage.StoreView` over it.  ``segment_rows``
    controls the cut threshold (default
    :data:`repro.storage.DEFAULT_SEGMENT_ROWS`).
    """
    _check_errors_mode(errors)
    report = IngestReport(source=str(path), errors_mode=errors)
    sink: Optional[_DeadLetterWriter] = None
    if errors == "quarantine":
        target = (
            Path(dead_letter)
            if dead_letter is not None
            else default_dead_letter_path(path)
        )
        report.dead_letter = str(target)
        sink = _DeadLetterWriter(target)
    try:
        # utf-8-sig transparently strips a leading BOM; BOM-free files
        # read identically.
        with open(path, newline="", encoding="utf-8-sig") as handle:
            store = _read_store(
                handle,
                source=str(path),
                errors=errors,
                report=report,
                dead_letter=sink,
                to_store=to_store,
                segment_rows=segment_rows,
            )
    finally:
        if sink is not None:
            sink.close()
    return store, report


def read_flows(
    path: Union[str, Path],
    *,
    errors: str = "strict",
    dead_letter: Optional[Union[str, Path]] = None,
    to_store: Optional[Union[str, Path]] = None,
    segment_rows: Optional[int] = None,
) -> Union[FlowStore, "StoreView"]:
    """Read a trace written by :func:`write_flows` into a store.

    ``errors`` selects the malformed-row policy (see the module
    docstring); the default ``"strict"`` raises on the first bad row,
    with ``path:lineno`` context, preserving the original behaviour.
    ``to_store`` spills rows to a segment store instead of memory (see
    :func:`read_flows_report`).  Use :func:`read_flows_report` when the
    outcome counts are needed.
    """
    store, _ = read_flows_report(
        path,
        errors=errors,
        dead_letter=dead_letter,
        to_store=to_store,
        segment_rows=segment_rows,
    )
    return store


def dumps(flows: Iterable[FlowRecord]) -> str:
    """Serialise flows to an in-memory CSV string."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(ARGUS_COLUMNS)
    for flow in flows:
        writer.writerow(flow_to_row(flow))
    return buffer.getvalue()


def loads_report(
    text: str,
    *,
    errors: str = "strict",
    dead_letter: Optional[Union[str, Path]] = None,
) -> Tuple[FlowStore, IngestReport]:
    """Parse a CSV string and return ``(store, ingest report)``.

    Without a ``dead_letter`` path, quarantine mode still counts and
    samples the bad rows in the report — there is just no file to
    append them to.
    """
    _check_errors_mode(errors)
    report = IngestReport(source="<string>", errors_mode=errors)
    sink: Optional[_DeadLetterWriter] = None
    if errors == "quarantine" and dead_letter is not None:
        report.dead_letter = str(dead_letter)
        sink = _DeadLetterWriter(dead_letter)
    try:
        store = _read_store(
            io.StringIO(text.lstrip("\ufeff")),
            source="<string>",
            errors=errors,
            report=report,
            dead_letter=sink,
        )
    finally:
        if sink is not None:
            sink.close()
    return store, report


def loads(
    text: str,
    *,
    errors: str = "strict",
    dead_letter: Optional[Union[str, Path]] = None,
) -> FlowStore:
    """Parse a CSV string produced by :func:`dumps`."""
    store, _ = loads_report(text, errors=errors, dead_letter=dead_letter)
    return store
