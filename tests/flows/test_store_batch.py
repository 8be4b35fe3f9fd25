"""A store built from parsed columns ≡ a store built from records.

:func:`repro.flows.argus.loads_report` builds its :class:`FlowStore`
from a :class:`~repro.flows.batch.FlowBatch` without making records;
the generator, evasion and overlay build theirs from records.  Both
must give the same columnar snapshot array for array, the same records
in the same order, and the same verdict digest — and the segment
store's view must still equal the in-memory snapshot.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.detection.pipeline import find_plotters
from repro.flows import FlowRecord, FlowState, FlowStore, Protocol
from repro.flows.argus import dumps, loads_report
from repro.flows.batch import AddressBook, FlowBatch
from repro.obs.ledger import suspects_checksum
from repro.storage import spool_flow_store

SRC = Path(__file__).resolve().parents[2] / "src"


def assert_columnar_equal(a, b):
    assert a.hosts == b.hosts
    assert a.index_of == b.index_of
    for name in ("host_offsets", "starts", "src_bytes", "success", "dst_codes"):
        left, right = getattr(a, name), getattr(b, name)
        assert left.dtype == right.dtype, name
        np.testing.assert_array_equal(left, right, err_msg=name)
    assert a.n_destinations == b.n_destinations


def parsed(flows):
    store, report = loads_report(dumps(flows))
    assert store.batch is not None and report.rows_ok == len(flows)
    return store


def assert_same_store(from_batch, from_records):
    assert len(from_batch) == len(from_records)
    assert from_batch.initiators == from_records.initiators
    assert from_batch.flow_counts() == from_records.flow_counts()
    assert from_batch.span == from_records.span
    assert_columnar_equal(from_batch.columnar(), from_records.columnar())
    assert list(from_batch) == list(from_records)
    for host in from_records.initiators:
        assert from_batch.flows_from(host) == from_records.flows_from(host)


def flow(src, dst, start, src_bytes=10, state=FlowState.ESTABLISHED, **kw):
    return FlowRecord(
        src=src, dst=dst, sport=kw.pop("sport", 1), dport=80,
        proto=Protocol.TCP, start=start, end=start + 1.0,
        src_bytes=src_bytes, state=state, **kw,
    )


def shuffled_ties():
    """Rows out of start order, with equal starts within and across hosts."""
    return [
        flow("10.0.0.2", "d1", 5.0, 1),
        flow("10.0.0.1", "d2", 5.0, 2),
        flow("10.0.0.2", "d3", 1.0, 3, FlowState.TIMEOUT),
        flow("10.0.0.1", "d1", 5.0, 4),
        flow("10.0.0.3", "d2", 0.5, 5, FlowState.REJECTED),
        flow("10.0.0.2", "d2", 5.0, 6, payload=b"\x01" * 64),
        flow("10.0.0.1", "d4", 2.0, 7),
        flow("10.0.0.3", "d1", 5.0, 8),
        flow("10.0.0.2", "d1", 1.0, 9),
    ]


class TestBatchBuiltStore:
    def test_overlaid_day_bit_identical(self, overlaid_day):
        flows = list(overlaid_day.store)
        from_batch = parsed(flows)
        from_records = FlowStore(flows)
        assert_same_store(from_batch, from_records)
        assert suspects_checksum(find_plotters(from_batch).suspects) == (
            suspects_checksum(find_plotters(from_records).suspects)
        )

    def test_out_of_order_rows_and_equal_starts(self):
        flows = shuffled_ties()
        assert_same_store(parsed(flows), FlowStore(flows))
        packed = FlowStore.from_batch(FlowBatch.from_records(flows, AddressBook()))
        assert_same_store(packed, FlowStore(flows))
        assert packed.batch.records() == flows

    def test_record_queries_and_mutation(self):
        flows = shuffled_ties()
        from_batch, from_records = parsed(flows), FlowStore(flows)
        assert list(from_batch.between(1.0, 5.0)) == list(from_records.between(1.0, 5.0))
        assert from_batch.destinations_of("10.0.0.2") == {"d1", "d2", "d3"}
        extra = flow("10.0.0.9", "d9", 3.0)
        from_batch.add(extra)
        from_records.add(extra)
        assert from_batch.batch is None
        assert_same_store(from_batch, from_records)

    def test_empty_trace(self):
        store = parsed([])
        assert len(store) == 0 and not store and store.span == 0.0
        assert store.initiators == set() and list(store) == []
        assert store.columnar().hosts == () and store.columnar().n_flows == 0

    def test_store_view_matches_both_snapshots(self, overlaid_day, tmp_path):
        flows = list(overlaid_day.store)
        from_batch = parsed(flows)
        view = spool_flow_store(from_batch, tmp_path / "spool", segment_rows=997)
        assert_columnar_equal(view.columnar(), from_batch.columnar())
        assert_columnar_equal(view.columnar(), FlowStore(flows).columnar())


rows = st.lists(
    st.tuples(
        st.integers(0, 5),
        st.integers(0, 4),
        st.floats(0.0, 50.0, allow_nan=False).map(lambda x: round(x, 0)),
        st.integers(0, 1000),
        st.sampled_from(list(FlowState)),
    ),
    max_size=60,
)


@settings(max_examples=60, deadline=None)
@given(rows=rows)
def test_any_rows_bit_identical(rows):
    flows = [
        flow(f"h{s}", f"d{d}", t, b, state, sport=i)
        for i, (s, d, t, b, state) in enumerate(rows)
    ]
    assert_same_store(parsed(flows), FlowStore(flows))


RESTRICT_SCRIPT = """
import sys
from repro.flows import FlowRecord, FlowStore, Protocol
from repro.flows.argus import write_flows
flows = [
    FlowRecord(src=f"10.0.{i}.{j}", dst="8.8.8.8", sport=j, dport=53,
               proto=Protocol.UDP, start=float(j % 2), end=2.0)
    for i in range(6) for j in range(6)
]
kept = FlowStore(flows).restricted_to_sources(f.src for f in flows)
write_flows(sys.argv[1], kept)
"""


def test_restricted_to_sources_is_hash_seed_independent(tmp_path):
    digests = set()
    for seed in ("1", "2"):
        out = tmp_path / f"seed{seed}.csv"
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(SRC))
        subprocess.run(
            [sys.executable, "-c", RESTRICT_SCRIPT, str(out)], check=True, env=env
        )
        digests.add(hashlib.sha256(out.read_bytes()).hexdigest())
    assert len(digests) == 1
