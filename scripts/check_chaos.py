#!/usr/bin/env python
"""Chaos smoke test: dirty input plus infrastructure failure, end to end.

Used by the CI ``chaos-smoke`` job; also runnable by hand.  Two phases,
each asserting the resilience contract rather than mere survival:

**Dirty ingest** — the trace on disk has ~1% of its rows corrupted
(via the ``REPRO_FAULT_PARSE_CORRUPT_RATE`` knob, so the *same* rows
corrupt on every run).  Quarantine mode must reconcile exactly:
``rows_ok + rows_quarantined == rows_total``, the dead-letter CSV holds
one record per quarantined row, and strict mode must still fail fast on
the same trace.

**Infrastructure chaos** — FindPlotters runs over the *clean* store
with two faults armed at once: one pooled extraction worker is
OOM-killed mid-wave, and the checkpoint directory raises on write.
The run must complete, report every degradation (pool restart,
checkpointing disabled), and produce *exactly* the suspects of the
fault-free baseline — degraded infrastructure changes wall time, never
verdicts.

**Stage failure** — a failure injected into θ_hm, a stage with no
fallback rung, must fail the run with the injected error instead of
being absorbed silently.

The metrics JSONL (span events + final registry snapshot) and the
dead-letter CSV land in ``--artifacts`` for CI upload.

Usage:  python scripts/check_chaos.py --artifacts chaos-artifacts/
"""

from __future__ import annotations

import argparse
import csv
import tempfile
from pathlib import Path

import _checklib
from _checklib import phase

_checklib.bootstrap()

from check_extract_resume import synthesize_store  # noqa: E402

from repro import obs  # noqa: E402
from repro.detection.pipeline import PipelineConfig, find_plotters  # noqa: E402
from repro.flows.argus import (  # noqa: E402
    read_flows,
    read_flows_report,
    write_flows,
)
from repro.resilience import faults  # noqa: E402

CORRUPT_RATE = 0.01
CORRUPT_SEED = 7


def check_dirty_ingest(store, artifacts: Path, tmp: Path) -> None:
    """Corrupt ~1% of trace rows; quarantine must reconcile exactly."""
    trace = tmp / "trace.csv"
    total = write_flows(trace, store)

    # Strict mode fails fast on the first corrupted row.
    with faults.injected(
        parse_corrupt_rate=CORRUPT_RATE, parse_seed=CORRUPT_SEED
    ):
        try:
            read_flows(trace)
        except ValueError as exc:
            print(f"strict mode failed fast as required: {exc}")
        else:
            raise SystemExit("strict mode swallowed corrupted rows")

    dead_letter = artifacts / "dead-letter.csv"
    with faults.injected(
        parse_corrupt_rate=CORRUPT_RATE, parse_seed=CORRUPT_SEED
    ):
        recovered, report = read_flows_report(
            trace, errors="quarantine", dead_letter=dead_letter
        )

    assert report.rows_quarantined > 0, "corruption injected nothing"
    assert report.rows_ok + report.rows_quarantined == total, (
        f"rows lost silently: {report.rows_ok} ok + "
        f"{report.rows_quarantined} quarantined != {total}"
    )
    assert len(recovered) == report.rows_ok
    with open(dead_letter, newline="") as fh:
        dead_rows = list(csv.reader(fh))
    assert len(dead_rows) - 1 == report.rows_quarantined, (
        "dead-letter file and quarantine count disagree"
    )
    print(
        f"dirty ingest OK: {report.rows_ok}/{total} rows recovered, "
        f"{report.rows_quarantined} quarantined to {dead_letter.name}"
    )

    # The pipeline completes over the partially-recovered store.
    partial = find_plotters(recovered)
    print(
        f"pipeline over recovered store completed "
        f"({len(partial.suspects)} suspects)"
    )


def check_infrastructure_chaos(store, baseline, artifacts, tmp, workers):
    """Worker kill + checkpoint I/O failure, in one run."""
    sentinel = tmp / "kill-once.sentinel"
    sentinel.touch()
    checkpoint_dir = tmp / "checkpoints"
    with faults.injected(
        extract_kill_once=str(sentinel),
        io_errors=["checkpoint", "manifest"],
    ):
        chaotic = find_plotters(
            store,
            config=PipelineConfig(
                n_workers=workers, checkpoint_dir=str(checkpoint_dir)
            ),
        )

    assert not sentinel.exists(), "no worker claimed the kill sentinel"
    assert chaotic.degraded, "faulted run reported no degradations"
    for event in chaotic.degradations:
        print(f"  degradation: {event.describe()}")
    stages = {d.stage for d in chaotic.degradations}
    for expected in ("extract_pool", "extract_checkpoint"):
        assert expected in stages, (
            f"expected a {expected!r} degradation, got {sorted(stages)}"
        )
    assert chaotic.suspects == baseline.suspects, (
        "degraded run changed the suspect set: "
        f"{sorted(chaotic.suspects ^ baseline.suspects)}"
    )
    print(
        f"infrastructure chaos OK: {len(chaotic.degradations)} degradations "
        f"reported, suspects identical ({len(baseline.suspects)} hosts)"
    )


def check_stage_failure_is_loud(store) -> None:
    """An injected θ_hm failure raises; there is no rung to absorb it."""
    with faults.injected(stage_fail={"theta_hm": 1}):
        try:
            find_plotters(store)
        except faults.InjectedFault as exc:
            print(f"theta_hm failure surfaced as required: {exc}")
        else:
            raise SystemExit("injected theta_hm failure was absorbed")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--artifacts",
        default="chaos-artifacts",
        help="directory for the dead-letter CSV and metrics JSONL",
    )
    parser.add_argument("--workers", type=int, default=2)
    args = parser.parse_args()

    artifacts = Path(args.artifacts)
    artifacts.mkdir(parents=True, exist_ok=True)

    store = synthesize_store()
    baseline = find_plotters(store)
    print(
        f"baseline: {len(store)} flows, {len(baseline.suspects)} suspects, "
        f"degradations={len(baseline.degradations)}"
    )
    assert not baseline.degraded, "clean baseline reported degradations"

    obs.enable()
    sink = obs.JsonlSink(str(artifacts / "metrics.jsonl"))
    obs.add_sink(sink)
    try:
        with tempfile.TemporaryDirectory(prefix="chaos-") as tmp_str:
            tmp = Path(tmp_str)
            with phase("dirty ingest"):
                check_dirty_ingest(store, artifacts, tmp)
            with phase("infrastructure chaos"):
                check_infrastructure_chaos(
                    store, baseline, artifacts, tmp, args.workers
                )
            with phase("stage failure"):
                check_stage_failure_is_loud(store)
    finally:
        sink.write_event(obs.metrics_event())
        obs.remove_sink(sink)
        sink.close()
        obs.disable()
    print("check_chaos: all assertions passed")
    return 0


if __name__ == "__main__":
    _checklib.run(main)
