"""The online detector and the batch pipeline share one stage core.

Three pins on :class:`OnlineDetector`'s evaluation:

* honouring ``config.apply_reduction`` exactly as :func:`find_plotters`
  does (a host with only failed flows is a candidate, not a reduction
  survivor, and without reduction every candidate goes on to θ_vol);
* recording the same ``repro_stage_*`` funnel as the batch run over the
  same window (the reduction stage counts every candidate as input);
* a golden digest of every finalised verdict of a seeded multi-window
  stream at the default reservoir size, so a refactor of the evaluation
  path cannot move a live verdict unnoticed.
"""

import hashlib
import json

import numpy as np
import pytest

from repro import obs
from repro.detection.incremental import OnlineDetector
from repro.detection.pipeline import PipelineConfig, find_plotters
from repro.flows import FlowRecord, FlowState, FlowStore, Protocol
from repro.obs.export import funnel_snapshot


def flow(src, dst, start, src_bytes, failed=False):
    return FlowRecord(
        src=src, dst=dst, sport=1, dport=2, proto=Protocol.TCP,
        start=start, end=start + 1.0, src_bytes=src_bytes,
        state=FlowState.TIMEOUT if failed else FlowState.ESTABLISHED,
    )


#: 30 hosts with at least one successful flow, plus one that only ever
#: failed: 31 candidates, 30 of them with a failed-connection rate.
_STREAM_HOSTS = {f"h{i:02d}" for i in range(30)} | {"dead"}


def _stream_31():
    """One window: 10 timer bots, 20 irregular hosts, one dead host.

    Host ``h<i>`` fails ``16 + i`` (bots) or ``i - 9`` (the rest) of
    its 50 flows, so the median failed-connection rate keeps 15 hosts.
    """
    rng = np.random.default_rng(31)
    flows = []
    for i in range(30):
        host = f"h{i:02d}"
        n_failed = 16 + i if i < 10 else i - 9
        start = float(rng.uniform(0.0, 5.0))
        for k in range(50):
            if i < 10:
                start += 9.0 + 0.01 * (i % 3)
                dst = f"peer{k % 3}"
                size = 50 + i
            else:
                start += float(rng.uniform(1.0, 30.0))
                dst = f"site{int(rng.integers(0, 6))}"
                size = 300 + 20 * i
            flows.append(
                flow(host, dst, start, size, failed=(k * 7) % 50 < n_failed)
            )
    for k in range(12):
        flows.append(flow("dead", f"gone{k}", 3.0 + 40.0 * k, 0, failed=True))
    return sorted(flows, key=lambda f: f.start)


def _online(flows, config):
    detector = OnlineDetector(
        _STREAM_HOSTS,
        window=1e6,
        config=config,
        reservoir_size=100_000,  # effectively uncapped: exact samples
    )
    detector.ingest_many(flows)
    return detector


def test_online_honours_apply_reduction_false():
    flows = _stream_31()
    config = PipelineConfig(apply_reduction=False)
    batch = find_plotters(FlowStore(flows), _STREAM_HOSTS, config)
    verdict = _online(flows, config).evaluate()
    assert len(batch.reduced_hosts) == 31
    assert verdict.reduced == batch.reduced_hosts
    assert verdict.suspects == batch.suspects


def test_online_funnel_matches_batch_funnel():
    flows = _stream_31()
    config = PipelineConfig()
    batch = find_plotters(FlowStore(flows), _STREAM_HOSTS, config)
    detector = _online(flows, config)
    obs.get_registry().reset()
    obs.enable()
    try:
        verdict = detector.evaluate()
        online_funnel = funnel_snapshot()
    finally:
        obs.disable()
        obs.get_registry().reset()
    assert verdict.suspects == batch.suspects

    def counts(funnel):
        return [
            (s["stage"], s["input_hosts"], s["surviving_hosts"])
            for s in funnel
        ]

    assert counts(online_funnel) == counts(batch.funnel())
    assert counts(batch.funnel())[0] == ("reduction", 31, 15)


# ----------------------------------------------------------------------
# Golden online verdicts at the default reservoir
# ----------------------------------------------------------------------
_ORIGIN = 1_000.0
_WINDOW = 3_600.0
_GOLDEN_HOSTS = (
    {f"bot{b}" for b in range(6)}
    | {"heavy"}
    | {f"user{u}" for u in range(12)}
    | {f"trader{t}" for t in range(4)}
)


def _golden_stream(n_windows=4, seed=2010):
    """Seeded multi-window traffic; ``heavy`` overflows the reservoir."""
    rng = np.random.default_rng(seed)
    flows = []
    for w in range(n_windows):
        base = _ORIGIN + w * _WINDOW + 37.0
        for b in range(6):
            start = base + float(rng.uniform(0.0, 3.0))
            period = 6.0 + 0.05 * (b % 3)
            for k in range(int((_WINDOW - 60.0) / period)):
                flows.append(flow(
                    f"bot{b}", f"peer{k % 4}", start + k * period,
                    40 + 2 * b, failed=(k % (3 + b % 2) == 0),
                ))
        # ~4,700 flows to one peer: more interstitials than the
        # default 4,096-sample reservoir holds.
        for k in range(4_700):
            flows.append(flow(
                "heavy", "peerX", base + 0.75 * k, 60, failed=(k % 2 == 0),
            ))
        for u in range(12):
            start = base
            while True:
                start += float(rng.exponential(12.0 + u))
                if start >= base + _WINDOW - 60.0:
                    break
                flows.append(flow(
                    f"user{u}", f"site{int(rng.integers(0, 40))}", start,
                    int(rng.integers(200, 5_000)),
                    failed=bool(rng.random() < 0.05 + 0.02 * u),
                ))
        for t in range(4):
            start = base
            for k in range(300):
                start += float(rng.uniform(1.0, 20.0))
                flows.append(flow(
                    f"trader{t}", f"swarm{w}-{t}-{int(rng.integers(0, 500))}",
                    start, int(rng.integers(10_000, 200_000)),
                    failed=bool(rng.random() < 0.4),
                ))
    return sorted(flows, key=lambda f: f.start)


#: sha256 over every finalised (window_index, reduced, suspects) of the
#: stream above at ``reservoir_size=4096``.  Re-recording it is a
#: verdict change, not a test fix.
GOLDEN_ONLINE_DIGEST = (
    "009498295afc26b6ba3225cc384e40762809d65d1ebd2ba2aa8eabde9bb6270b"
)


@pytest.fixture(scope="module")
def golden_history():
    detector = OnlineDetector(
        _GOLDEN_HOSTS, window=_WINDOW, window_origin=_ORIGIN
    )
    assert detector.reservoir_size == 4096
    detector.ingest_many(_golden_stream())
    detector.finalize_window()
    return detector.history


def test_golden_stream_exercises_every_stage(golden_history):
    assert [v.window_index for v in golden_history] == [0, 1, 2, 3]
    assert any(v.suspects for v in golden_history)
    assert all("heavy" in v.reduced for v in golden_history)
    assert all(len(v.reduced) < len(_GOLDEN_HOSTS) for v in golden_history)


def test_golden_online_verdicts(golden_history):
    payload = json.dumps(
        [
            [v.window_index, sorted(v.reduced), sorted(v.suspects)]
            for v in golden_history
        ]
    )
    digest = hashlib.sha256(payload.encode()).hexdigest()
    assert digest == GOLDEN_ONLINE_DIGEST, payload
