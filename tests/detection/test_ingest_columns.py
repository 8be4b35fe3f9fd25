"""Column-chunk ingest is bit-identical to flow-by-flow ingest.

:meth:`OnlineDetector.ingest_columns` and
:meth:`StreamingFeatureExtractor.update_columns` are the only ingest
implementation; the per-flow reference bodies are in
:mod:`tests.detection.online_oracle`.  The properties below feed the
same stream to both, cut into random chunks, and require equal
verdict histories, features, reservoir versions and histogram-cache
counts.  Streams have out-of-order and equal starts within and across
chunks, 1-row chunks, tumbles mid-chunk, gaps that skip whole windows,
grid-anchored and free windows, and reservoirs as small as two
samples so Vitter's replacement draws run.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.detection.incremental import OnlineDetector
from repro.flows import FlowRecord, FlowState, Protocol
from repro.flows.streaming import StreamingFeatureExtractor
from repro.storage import SegmentStore

from .online_oracle import OracleDetector, OracleExtractor

SOURCES = ("h0", "h1", "h2", "p0")
#: Destinations overlap the sources, as peers do on a real border.
DESTINATIONS = ("p0", "p1", "p2", "h0")
ADDRESSES = tuple(dict.fromkeys(SOURCES + DESTINATIONS))


def flow(src, dst, start, src_bytes=100, failed=False):
    return FlowRecord(
        src=src, dst=dst, sport=1, dport=2, proto=Protocol.TCP,
        start=start, end=start, src_bytes=src_bytes,
        state=FlowState.TIMEOUT if failed else FlowState.ESTABLISHED,
    )


# Quarter-second start grid: equal starts happen, yet most gaps differ,
# so a changed reservoir draw shows in the samples.  Sources and
# destinations are skewed so one host keeps re-contacting one peer and
# overflows a small reservoir.  Occasional jumps of up to 40 s skip
# several windows at once.
_rows = st.lists(
    st.tuples(
        st.sampled_from(("h0", "h0", "h0", "h1", "h2", "p0")),
        st.sampled_from(("p0", "p0", "p1", "p2", "h0")),
        st.integers(0, 160),
        st.integers(0, 5_000),
        st.booleans(),
    ),
    min_size=1,
    max_size=150,
)
_jumps = st.lists(
    st.sampled_from((0.0,) * 12 + (12.0, 40.0)), max_size=150
)


@st.composite
def streams(draw):
    rows = draw(_rows)
    jumps = draw(_jumps)
    flows = []
    shift = 0.0
    for i, (src, dst, quarter_seconds, size, failed) in enumerate(rows):
        if i < len(jumps):
            shift += jumps[i]
        flows.append(
            flow(src, dst, shift + 0.25 * quarter_seconds, size, failed)
        )
    return flows


@st.composite
def chunkings(draw, n):
    """Split ``range(n)`` into consecutive chunks (1-row ones included)."""
    sizes = draw(st.lists(st.integers(1, 12), min_size=1, max_size=n))
    cuts, at = [], 0
    while at < n:
        size = sizes[len(cuts) % len(sizes)]
        cuts.append((at, min(n, at + size)))
        at += size
    return cuts


def columns(flows):
    """``flows`` as one chunk over the shared address dictionary."""
    code = {address: i for i, address in enumerate(ADDRESSES)}
    return (
        ADDRESSES,
        np.array([code[f.src] for f in flows], dtype=np.int64),
        np.array([code[f.dst] for f in flows], dtype=np.int64),
        np.array([f.start for f in flows], dtype=np.float64),
        np.array([f.src_bytes for f in flows], dtype=np.int64),
        np.array([not f.failed for f in flows], dtype=np.int64),
    )


def assert_extractors_equal(columnar, oracle):
    assert columnar.hosts == oracle.hosts
    assert columnar.all_features() == oracle.all_features()
    for host in oracle.hosts:
        assert columnar.reservoir_version(host) == oracle.reservoir_version(host)
        assert columnar.state_size(host) == oracle.state_size(host)


@st.composite
def detector_cases(draw):
    flows = draw(streams())
    return (
        flows,
        draw(chunkings(len(flows))),
        draw(st.sampled_from((2.0, 3.5, 6.0, 25.0))),
        draw(st.one_of(st.none(), st.sampled_from((-1.25, 0.0, 2.0)))),
        draw(st.integers(2, 6)),
    )


@settings(max_examples=120, deadline=None)
@given(detector_cases())
def test_ingest_columns_matches_per_flow_oracle(case):
    flows, cuts, window, origin, reservoir = case
    kwargs = dict(
        internal_hosts=set(SOURCES),
        window=window,
        window_origin=origin,
        reservoir_size=reservoir,
    )
    columnar = OnlineDetector(**kwargs)
    oracle = OracleDetector(**kwargs)
    for lo, hi in cuts:
        columnar.ingest_columns(*columns(flows[lo:hi]))
        oracle.ingest_many(flows[lo:hi])
        # A live evaluation between chunks exercises the histogram
        # cache on both sides.
        assert columnar.evaluate() == oracle.evaluate()
    assert columnar.history == oracle.history
    assert columnar._window_start == oracle._window_start
    assert_extractors_equal(columnar._extractor, oracle._extractor)
    assert (columnar.cache_hits, columnar.cache_misses) == (
        oracle.cache_hits,
        oracle.cache_misses,
    )
    assert columnar.finalize_window() == oracle.finalize_window()
    assert columnar.history == oracle.history


@settings(max_examples=80, deadline=None)
@given(streams(), st.data(), st.integers(2, 5))
def test_update_columns_matches_per_flow_oracle(flows, data, reservoir):
    columnar = StreamingFeatureExtractor(reservoir_size=reservoir, seed=3)
    oracle = OracleExtractor(reservoir_size=reservoir, seed=3)
    for lo, hi in data.draw(chunkings(len(flows))):
        columnar.update_columns(*columns(flows[lo:hi]))
        oracle.update_many(flows[lo:hi])
    assert_extractors_equal(columnar, oracle)


@settings(max_examples=40, deadline=None)
@given(streams(), st.integers(2, 5))
def test_record_adapters_match_per_flow_oracle(flows, reservoir):
    one_by_one = StreamingFeatureExtractor(reservoir_size=reservoir, seed=5)
    for f in flows:
        one_by_one.update(f)
    many = StreamingFeatureExtractor(reservoir_size=reservoir, seed=5)
    assert many.update_many(flows) == len(flows)
    oracle = OracleExtractor(reservoir_size=reservoir, seed=5)
    oracle.update_many(flows)
    assert_extractors_equal(one_by_one, oracle)
    assert_extractors_equal(many, oracle)


def test_update_many_skip_drops_unreadable_elements():
    good = [flow("h0", "p0", 1.0), flow("h0", "p0", 4.0)]
    extractor = StreamingFeatureExtractor()
    obs.get_registry().reset()
    obs.enable()
    try:
        count = extractor.update_many(
            [good[0], None, "junk", good[1]], errors="skip"
        )
        skipped = obs.counter("repro_ingest_rows_skipped_total").value()
        ingested = obs.counter("repro_flows_ingested_total").value()
    finally:
        obs.disable()
        obs.get_registry().reset()
    assert count == 2
    assert skipped == 2
    assert ingested == 2
    assert extractor.features("h0").interstitials == (3.0,)


def test_update_many_strict_keeps_the_prefix_and_raises():
    extractor = StreamingFeatureExtractor()
    with pytest.raises(AttributeError):
        extractor.update_many([flow("h0", "p0", 1.0), None, flow("h1", "p0", 2.0)])
    assert extractor.hosts == {"h0"}


def test_chunk_counted_once_with_its_rows():
    flows = [flow("h0", "p0", float(t)) for t in range(50)]
    detector = OnlineDetector({"h0"}, window=20.0)
    obs.get_registry().reset()
    obs.enable()
    try:
        detector.ingest_columns(*columns(flows))
        ingested = obs.counter("repro_flows_ingested_total").value()
        rate = obs.gauge("repro_flow_ingest_rate_per_s").value()
    finally:
        obs.disable()
        obs.get_registry().reset()
    assert ingested == 50
    assert len(detector.history) == 2
    assert rate >= 0


def test_spool_slices_match_per_flow_spool(tmp_path):
    """Spooled rows and per-window segment cuts equal the per-flow path."""
    rng = np.random.default_rng(7)
    flows = sorted(
        (
            flow(
                SOURCES[int(rng.integers(0, 4))],
                DESTINATIONS[int(rng.integers(0, 4))],
                float(rng.integers(0, 400)) * 0.25,
                int(rng.integers(0, 900)),
                bool(rng.random() < 0.3),
            )
            for _ in range(300)
        ),
        key=lambda f: f.start,
    )
    kwargs = dict(internal_hosts=set(SOURCES), window=17.0, segment_rows=40)
    columnar = OnlineDetector(spool_dir=tmp_path / "columns", **kwargs)
    oracle = OracleDetector(spool_dir=tmp_path / "oracle", **kwargs)
    for lo in range(0, len(flows), 64):
        columnar.ingest_columns(*columns(flows[lo : lo + 64]))
        oracle.ingest_many(flows[lo : lo + 64])
    columnar.finalize_window()
    oracle.finalize_window()
    assert columnar.history == oracle.history
    assert columnar.spooled_windows == oracle.spooled_windows
    for index in oracle.spooled_windows:
        a = columnar.rescore_window_from_spool(index)
        b = oracle.rescore_window_from_spool(index)
        assert a.suspects == b.suspects
        assert a.reduced_hosts == b.reduced_hosts
    a = SegmentStore.open(tmp_path / "columns")
    b = SegmentStore.open(tmp_path / "oracle")
    assert [m.rows for m in a.metas] == [m.rows for m in b.metas]
    ga, gb = a.view().gather(), b.view().gather()
    assert ga.hosts == gb.hosts
    for name in ("counts", "starts", "src_bytes", "success"):
        np.testing.assert_array_equal(getattr(ga, name), getattr(gb, name))
    assert [ga.dsts[c] for c in ga.dst_codes] == [gb.dsts[c] for c in gb.dst_codes]
