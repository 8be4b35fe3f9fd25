"""batch_day: one day's Argus CSV in, one recorded verdict out.

The timed unit is what ``repro-datasets detect --verdict-db`` does:
``read_flows_report`` → ``find_plotters`` (default ``PipelineConfig``,
in process) → ``VerdictDB.record_batch``.  Set-up synthesises the day in
a child process and writes the trace and its labels beside it, so the
unit sees only flow records.  The generator's own cost is therefore part
of ``setup_s``; a traced run also synthesises the day once in process to
split that cost by layer.

The units run pinned to one CPU with a host probe after each, and
``run_s`` is the median untraced unit in reference seconds: each unit's
wall time scaled by the probes on either side of it
(``common.reference_seconds``).  The raw wall-time median is reported
beside it as ``bench.run_wall_s``.
"""

from __future__ import annotations

import gc
import shutil
import time
from contextlib import nullcontext
from statistics import median
from typing import Dict, List

from common import (
    BENCH_DIR,
    DEFAULT_SCALE,
    DEFAULT_SEED,
    DaySpec,
    Outcome,
    WorkloadResult,
    file_sha256,
    funnel,
    generate_input,
    host_probe,
    peak_rss_mb,
    pinned,
    quality,
    read_json,
    reference_seconds,
    setup_repeated,
    synthesize,
    timed_units,
    unit_line,
    unit_medians,
)

SETUP_REPEATS = 2


def run(seed: int, seconds: float, tracer, scale: float, base) -> WorkloadResult:
    from repro.detection import pipeline
    from repro.flows import argus, parallel
    from repro.obs.ledger import suspects_checksum
    from repro.query.verdicts import VerdictDB

    spec = DaySpec(seed, scale)
    data = base / "input"

    trace = data / "trace.csv"
    digests: List[str] = []

    def setup(k: int) -> float:
        shutil.rmtree(data, ignore_errors=True)
        elapsed = generate_input(spec, data)
        digests.append(file_sha256(trace))
        return elapsed

    setup_s = setup_repeated(SETUP_REPEATS, setup)
    labels = read_json(data / "labels.json")
    reference = read_json(data / "reference.json")

    outcome = Outcome()
    outcome.check(check_digests(digests, expected_digest(seed, scale)))
    last_result = None
    #: probes[i] and probes[i + 1] bracket unit i
    probes: List[float] = []

    def unit(i: int, traced: bool) -> float:
        nonlocal last_result
        db_path = base / f"verdicts-{i}.sqlite"
        started = time.perf_counter()
        with tracer.span("bench.unit") if traced else nullcontext():
            store, report = argus.read_flows_report(trace)
            result = pipeline.find_plotters(store)
            with VerdictDB(db_path) as db:
                window_id = db.record_batch(result, evaluated_at=time.time())
        elapsed = time.perf_counter() - started
        outcome.op(window_id is not None, f"unit {i}: verdict not recorded")
        outcome.check(
            check_unit(
                suspects_checksum(result.suspects),
                reference["suspects_sha256"],
                report.rows_ok,
                labels["rows"],
            )
        )
        last_result = result
        del store, report, result
        db_path.unlink(missing_ok=True)
        gc.collect()
        probes.append(host_probe())
        return elapsed

    with pinned():
        probes.append(host_probe())
        units = timed_units(seconds, tracer, unit)
    run_wall_s, traced_s, n_traced = unit_medians(units)
    run_s = median(
        reference_seconds(u["seconds"], probes[i], probes[i + 1])
        for i, u in enumerate(units)
        if u["timed"] and not u["traced"]
    )
    end_to_end = {"setup_s": setup_s, "run_s": run_s, "peak_rss_mb": peak_rss_mb()}
    scores = quality(last_result, labels)
    report = [
        f"batch_day seed={seed} scale={scale} rows={labels['rows']} "
        f"units={len(units)} suspects={len(last_result.suspects)}",
        "quality: " + " ".join(f"{k}={v:.4f}" for k, v in scores.items()),
        unit_line(units),
        "host probe seconds: " + " ".join(f"{p:.4f}" for p in probes),
    ]
    layers: Dict[str, float] = dict(scores)
    layers["bench.run_wall_s"] = run_wall_s
    layers["bench.host_probe_s"] = median(probes)
    layers.update(funnel(last_result, labels))
    if tracer is not None:
        layers["bench.tracing_overhead_s"] = traced_s - run_wall_s
        layers["bench.units_traced"] = n_traced
        layers["flows.parallel.extract_pool2_s"] = _pool2_extract(argus, parallel, trace)
        tracer.enabled = True
        try:
            with tracer.span("bench.synth"):
                synthesize(spec, base / "synth.csv")
        finally:
            tracer.enabled = False
    return WorkloadResult(end_to_end, layers, outcome, report)


def check_unit(
    suspects_sha: str, reference_sha: str, rows_read: int, rows_written: int
) -> List[str]:
    """The batch_day check: CSV path ≡ in-memory path, no row lost."""
    problems = []
    if suspects_sha != reference_sha:
        problems.append(
            f"suspects_sha256 {suspects_sha[:12]} from the CSV differs from "
            f"{reference_sha[:12]} over the generator's in-memory store"
        )
    if rows_read != rows_written:
        problems.append(f"read {rows_read} rows of {rows_written} written")
    return problems


def expected_digest(seed: int, scale: float):
    """The recorded trace digest for this seed and scale, if any."""
    if seed != DEFAULT_SEED or scale != DEFAULT_SCALE:
        return None
    return read_json(BENCH_DIR / "digests.json")["batch_day_trace"]


def check_digests(digests: List[str], expected) -> List[str]:
    """Every set-up wrote the same bytes, and the recorded ones if known."""
    problems = []
    if len(set(digests)) != 1:
        problems.append(f"set-ups wrote {len(set(digests))} different traces")
    if expected is not None and digests and digests[0] != expected:
        problems.append(
            f"trace sha256 {digests[0][:12]} differs from the recorded "
            f"{expected[:12]}"
        )
    return problems


def _pool2_extract(argus, parallel, trace) -> float:
    """The extraction call with a 2-worker pool (an audit number)."""
    store, _ = argus.read_flows_report(trace)
    started = time.perf_counter()
    parallel.extract_features_parallel(store, store.initiators, n_workers=2)
    return time.perf_counter() - started
