"""Tiny-scale tests of the benchmark itself.

Run from the repository root::

    python3 -m pytest e2e_bench -q

Each workload runs end to end on a tiny day; each correctness check is
shown to fail on a tampered input; the metric names the benchmark
prints are the ones ``BENCHMARK.json`` declares.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import batch_day  # noqa: E402
import serve_replay  # noqa: E402
from metrics import END_TO_END, PER_LAYER  # noqa: E402

TINY = "0.04"


def _run(workload: str, trace: int, seconds: str = "0.5") -> dict:
    completed = subprocess.run(
        [
            sys.executable,
            str(BENCH / "run.py"),
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            seconds,
            "--trace",
            str(trace),
            "--scale",
            TINY,
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


def _declared(kind: str):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"], m["better"]) for m in spec[kind]]


@pytest.mark.parametrize("workload", ["batch_day", "serve_replay"])
def test_workload_runs_end_to_end(workload):
    untraced = _run(workload, 0)
    assert untraced["correct"], untraced
    assert untraced["attempted"] >= 1 and untraced["failed"] == 0
    assert set(untraced["metrics"]) == {name for name, _, _ in END_TO_END}
    for metric in untraced["metrics"].values():
        assert metric["value"] > 0
    traced = _run(workload, 1)
    assert traced["correct"], traced
    assert set(traced["metrics"]) == {name for name, _, _ in PER_LAYER}


def test_metric_names_match_benchmark_json():
    assert list(END_TO_END) == _declared("end_to_end")
    assert list(PER_LAYER) == _declared("per_layer")
    workloads = json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
    assert [w["name"] for w in workloads] == ["batch_day", "serve_replay"]


def test_batch_check_catches_changed_suspects_and_lost_rows():
    assert batch_day.check_unit("a" * 64, "a" * 64, 10, 10) == []
    assert batch_day.check_unit("b" * 64, "a" * 64, 10, 10)
    assert batch_day.check_unit("a" * 64, "a" * 64, 9, 10)


def _serve_case():
    windows = {(0, 1), (1, 1), (0, 2)}
    posts = [{"rows": 3}, {"rows": 2}]
    doc = {
        "rows_ingested": 5,
        "duplicate_verdicts": 0,
        "finalized": [{"shard": s, "grid_window": g} for s, g in sorted(windows)],
    }
    return windows, posts, doc, {"suspects_sha256": "c" * 64}


def test_serve_check_catches_dropped_row_missing_verdict_and_changed_suspects():
    windows, posts, doc, drain = _serve_case()
    assert serve_replay.check_replay(5, windows, posts, doc, drain, "c" * 64) == []

    dropped = dict(doc, rows_ingested=4)
    assert serve_replay.check_replay(5, windows, posts, dropped, drain, "c" * 64)

    missing = dict(doc, finalized=doc["finalized"][:-1])
    assert serve_replay.check_replay(5, windows, posts, missing, drain, "c" * 64)

    doubled = dict(doc, finalized=doc["finalized"] + doc["finalized"][:1])
    assert serve_replay.check_replay(5, windows, posts, doubled, drain, "c" * 64)

    assert serve_replay.check_replay(5, windows, posts, doc, drain, "d" * 64)


def test_trace_check_catches_wrong_digest():
    good = "e" * 64
    assert batch_day.check_digests([good, good], good) == []
    assert batch_day.check_digests([good, good], "f" * 64)
    assert batch_day.check_digests([good, "f" * 64], None)


def test_recorded_digest_is_a_sha256():
    digest = batch_day.expected_digest(batch_day.DEFAULT_SEED, batch_day.DEFAULT_SCALE)
    assert len(digest) == 64 and int(digest, 16) >= 0
