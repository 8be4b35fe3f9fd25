"""The chunked column parse ≡ a per-row ``row_to_flow`` reference.

:func:`repro.flows.argus.loads_report` and :func:`read_flows_report`
parse traces in fixed-size chunks, column by column, and fall back to
``row_to_flow`` row by row only for a chunk that fails the vectorised
checks.  The oracle here is the plain per-row parser: one ``csv.reader``
over the whole text, ``row_to_flow`` on every non-blank row.  For
arbitrary row lists, every error mode and several chunk sizes (so bad
rows land first, last and alone in a chunk), both must give the same
records, the same :class:`IngestReport`, the same dead-letter bytes
and the same strict-mode error.
"""

import csv
import io
import os
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.flows import FlowRecord, FlowState, FlowStore, Protocol
from repro.flows import argus
from repro.flows.batch import PROTOCOLS, STATES
from repro.flows.argus import (
    ARGUS_COLUMNS,
    PARSE_ERROR_MODES,
    IngestReport,
    _DeadLetterWriter,
    flow_to_row,
    loads_report,
    read_flows_report,
    row_to_flow,
)
from repro.resilience import faults


def reference_parse(text, *, errors, dead_letter=None, source="<string>"):
    """The per-row parser: ``(records, report)`` or the strict error."""
    report = IngestReport(source=source, errors_mode=errors)
    sink = None
    if errors == "quarantine" and dead_letter is not None:
        report.dead_letter = str(dead_letter)
        sink = _DeadLetterWriter(dead_letter)
    records = []
    try:
        rows = csv.reader(io.StringIO(text.lstrip("\ufeff")))
        header = next(rows, None)
        if header is None:
            return records, report
        assert tuple(header) == ARGUS_COLUMNS
        corrupt = faults.parse_corruptor()
        for row in rows:
            if not row:
                continue
            if corrupt is not None:
                row = corrupt(row)
            try:
                records.append(row_to_flow(row))
            except ValueError as exc:
                message = f"{source}:{rows.line_num}: {exc}"
                if errors == "strict":
                    raise ValueError(message) from exc
                report._note_error(message)
                if errors == "quarantine":
                    report.rows_quarantined += 1
                    if sink is not None:
                        sink.append(row, str(exc))
                else:
                    report.rows_skipped += 1
        report.rows_ok = len(records)
    finally:
        if sink is not None:
            sink.close()
    return records, report


def good_flow(i, start=None):
    start = float(i) if start is None else start
    return FlowRecord(
        src=f"10.0.{i % 3}.{i % 7}",
        dst=f"8.8.{i % 5}.8",
        sport=1000 + i,
        dport=53,
        proto=Protocol.UDP if i % 2 else Protocol.TCP,
        start=start,
        end=start + 0.5,
        src_bytes=100 + i,
        dst_bytes=7 * i,
        src_pkts=i % 4,
        dst_pkts=3,
        state=list(FlowState)[i % 3],
        payload=bytes([i % 256]) * (i % 5),
    )


#: Field rewrites, each tagged with the column it replaces.  Some make
#: the row invalid; some are odd spellings ``row_to_flow`` accepts.
MUTATIONS = [
    (0, "notafloat"), (0, "nan"), (1, "inf"), (0, "-inf"), (1, "NaN"),
    (0, "1e400"), (1, "0.25"),  # end before start
    (0, " 3.5 "), (0, "1_0.5"), (0, ""),
    (4, "12.5"), (4, "-1"), (4, "70000"), (6, "65536"), (6, "+53"),
    (4, " 7 "), (4, "١٢"), (4, "1_000"), (6, ""),
    (7, "-3"), (8, "99999999999999999999"), (9, "9223372036854775807"),
    (9, "9223372036854775808"), (10, "-9223372036854775809"),
    (10, "000123"),
    (2, "icmp"), (2, "TCP"), (11, "syn"), (11, ""),
    (12, "zz"), (12, "abc"), (12, "ab cd"), (12, "00" * 70),
    (12, "AB"),
    (3, "10.0.0.1,quoted"), (5, 'say "hi"'), (3, "multi\nline"),
]


@st.composite
def row_lists(draw):
    """Rows (lists of fields) with mutations, arity faults and blanks."""
    n = draw(st.integers(0, 14))
    rows = []
    for i in range(n):
        kind = draw(st.sampled_from(["good", "good", "mutate", "arity", "blank"]))
        row = flow_to_row(good_flow(i, start=draw(st.sampled_from([None, 2.0]))))
        if kind == "mutate":
            column, value = draw(st.sampled_from(MUTATIONS))
            row[column] = value
        elif kind == "arity":
            row = draw(st.sampled_from([row[:-1], row + ["x"], ["garbage"]]))
        elif kind == "blank":
            row = []
        rows.append(row)
    return rows


def to_text(rows, bom=False):
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(ARGUS_COLUMNS)
    for row in rows:
        writer.writerow(row)
    return ("\ufeff" if bom else "") + buffer.getvalue()


def record_row(flow):
    return (
        flow.src, flow.dst, flow.start, flow.end, flow.proto, flow.sport,
        flow.dport, flow.src_pkts, flow.dst_pkts, flow.src_bytes,
        flow.dst_bytes, flow.state, flow.payload,
    )


def batch_rows(batch):
    """The batch's raw columns, row by row, without making records."""
    names, offsets = batch.addresses, batch.payload_offsets.tolist()
    return [
        (
            names[src], names[dst], start, end, PROTOCOLS[proto], sport,
            dport, src_pkts, dst_pkts, src_bytes, dst_bytes, STATES[state],
            batch.payloads[lo:hi],
        )
        for (
            src, dst, start, end, proto, sport, dport, src_pkts, dst_pkts,
            src_bytes, dst_bytes, state, lo, hi,
        ) in zip(
            batch.src_codes.tolist(), batch.dst_codes.tolist(),
            batch.starts.tolist(), batch.ends.tolist(),
            batch.proto_codes.tolist(), batch.sports.tolist(),
            batch.dports.tolist(), batch.src_pkts.tolist(),
            batch.dst_pkts.tolist(), batch.src_bytes.tolist(),
            batch.dst_bytes.tolist(), batch.state_codes.tolist(),
            offsets[:-1], offsets[1:],
        )
    ]


def run_both(text, errors, chunk_rows):
    """``(column, reference)`` outcomes of both parsers over ``text``.

    An outcome is ``((batch rows in arrival order, store records),
    report, strict error, dead-letter bytes)``;
    each parser writes its dead letters to a fresh ``dead.csv``, and the
    report's path is cut to that name so the two compare equal.
    """
    outcomes = []
    for parse in ("column", "reference"):
        with tempfile.TemporaryDirectory() as tmp:
            dead = Path(tmp) / "dead.csv"
            records = report = error = None
            try:
                if parse == "column":
                    with mock.patch.object(argus, "_CHUNK_ROWS", chunk_rows):
                        store, report = loads_report(
                            text, errors=errors, dead_letter=dead
                        )
                    records = (batch_rows(store.batch), list(store))
                else:
                    flows, report = reference_parse(
                        text, errors=errors, dead_letter=dead
                    )
                    records = (
                        [record_row(flow) for flow in flows],
                        list(FlowStore(flows)),
                    )
                if report.dead_letter is not None:
                    report.dead_letter = dead.name
            except ValueError as exc:
                error = str(exc)
            letter = dead.read_bytes() if dead.exists() else None
            outcomes.append((records, report, error, letter))
    return outcomes


@settings(max_examples=150, deadline=None)
@given(
    rows=row_lists(),
    errors=st.sampled_from(PARSE_ERROR_MODES),
    chunk_rows=st.sampled_from([1, 2, 3, 5, 8192]),
    bom=st.booleans(),
)
def test_column_parse_matches_per_row_reference(rows, errors, chunk_rows, bom):
    column, reference = run_both(to_text(rows, bom), errors, chunk_rows)
    assert column == reference


@settings(max_examples=40, deadline=None)
@given(
    rows=row_lists(),
    errors=st.sampled_from(["skip", "quarantine"]),
    chunk_rows=st.sampled_from([2, 8192]),
    seed=st.integers(0, 5),
)
def test_corruptor_mangles_rows_before_either_parse(rows, errors, chunk_rows, seed):
    env = {
        "REPRO_FAULT_PARSE_CORRUPT_RATE": "0.4",
        "REPRO_FAULT_PARSE_SEED": str(seed),
    }
    with mock.patch.dict(os.environ, env):
        column, reference = run_both(to_text(rows), errors, chunk_rows)
    assert column == reference


@pytest.mark.parametrize("column,value", MUTATIONS)
def test_each_mutation_alone(column, value):
    """One mutated row among good ones: accepted spellings take the
    column path and must decode to the reference's values."""
    rows = [flow_to_row(good_flow(i)) for i in range(4)]
    rows[2][column] = value
    text = to_text(rows)
    for errors in PARSE_ERROR_MODES:
        column_outcome, reference = run_both(text, errors, 8192)
        assert column_outcome == reference


@pytest.mark.parametrize("chunk_rows", [1, 3, 4, 8192])
@pytest.mark.parametrize("position", ["first", "last"])
def test_bad_row_at_chunk_edge(chunk_rows, position):
    rows = [flow_to_row(good_flow(i)) for i in range(12)]
    bad = 0 if position == "first" else chunk_rows - 1
    bad = min(bad, len(rows) - 1)
    rows[bad][4] = "oops"
    text = to_text(rows)
    for errors in PARSE_ERROR_MODES:
        column, reference = run_both(text, errors, chunk_rows)
        assert column == reference


def test_line_numbers_follow_multiline_quoted_fields():
    rows = [flow_to_row(good_flow(i)) for i in range(6)]
    rows[1][3] = "spans\ntwo lines"
    rows[4][0] = "bad"
    text = to_text(rows)
    for chunk_rows in (1, 2, 3, 8192):
        column, reference = run_both(text, "skip", chunk_rows)
        assert column == reference
        assert column[1].error_samples == ["<string>:7: could not convert "
                                           "string to float: 'bad'"]


class TestNonFiniteTimestamps:
    """``nan``/``inf`` starts or ends are malformed rows, not flows."""

    @pytest.mark.parametrize(
        "start,end", [("nan", "nan"), ("-inf", "inf"), ("1.0", "inf"), ("nan", "2.0")]
    )
    def test_record_rejects_non_finite_times(self, start, end):
        with pytest.raises(ValueError, match="finite"):
            FlowRecord(
                src="a", dst="b", sport=1, dport=2, proto=Protocol.TCP,
                start=float(start), end=float(end),
            )

    def corpus(self):
        rows = [flow_to_row(good_flow(i)) for i in range(3)]
        nan_row = flow_to_row(good_flow(7))
        nan_row[0], nan_row[1] = "nan", "nan"
        inf_row = flow_to_row(good_flow(8))
        inf_row[0], inf_row[1] = "-inf", "inf"
        return to_text([rows[0], nan_row, rows[1], inf_row, rows[2]])

    def test_strict_raises_at_the_first(self):
        with pytest.raises(ValueError, match=r"<string>:3: .*finite"):
            loads_report(self.corpus())

    @pytest.mark.parametrize("errors", ["skip", "quarantine"])
    def test_lenient_modes_drop_both_and_keep_order(self, errors, tmp_path):
        dead = tmp_path / "dead.csv"
        store, report = loads_report(self.corpus(), errors=errors, dead_letter=dead)
        assert report.rows_ok == 3 and report.rows_bad == 2
        starts = [flow.start for flow in store]
        assert starts == sorted(starts) == [0.0, 1.0, 2.0]
        assert store.span == 2.5
        if errors == "quarantine":
            letters = list(csv.reader(dead.open()))
            assert [row[:2] for row in letters[1:]] == [["nan", "nan"], ["-inf", "inf"]]

    def test_file_reader_agrees(self, tmp_path):
        trace = tmp_path / "t.csv"
        trace.write_text(self.corpus())
        _, report = read_flows_report(trace, errors="skip")
        assert report.rows_ok == 3 and report.rows_skipped == 2
        assert report.error_samples[0].startswith(f"{trace}:3: ")
