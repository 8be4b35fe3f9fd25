"""Every metric the benchmark prints: name, unit, and which way is better.

``BENCHMARK.json`` lists the same names; ``test_bench.py`` keeps the
two in step.  End-to-end metrics are printed by untraced runs
(``--trace 0``), per-layer metrics by traced runs (``--trace 1``).  A
per-layer metric a workload never exercises reads 0.
"""

from __future__ import annotations

from typing import Dict, Tuple

from common import FUNNEL_CLASSES, FUNNEL_STAGES

#: (name, unit, better)
END_TO_END: Tuple[Tuple[str, str, str], ...] = (
    ("setup_s", "s", "lower"),
    ("run_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
)

#: Generator layers: measured over the one in-process synthesis a traced
#: batch_day run makes (their values are per synthesis, not per unit).
GENERATOR_PREFIXES = ("datasets.", "p2p.", "agents.", "bench.synth")

#: per-layer metric -> span whose *self* seconds it reports, per traced unit
SPAN_SELF: Dict[str, str] = {
    "flows.argus.parse_s": "flows.argus.parse",
    "flows.store.columnar_s": "flows.store.columnar",
    "flows.parallel.extract_s": "flows.parallel.extract",
    "detection.reduction_s": "detection.reduction",
    "detection.theta_vol_s": "detection.theta_vol",
    "detection.theta_churn_s": "detection.theta_churn",
    "detection.theta_hm_s": "detection.theta_hm",
    "detection.pipeline.self_s": "detection.pipeline",
    "stats.emd.pairwise_s": "stats.emd.pairwise",
    "stats.clustering.agglomerate_s": "stats.clustering.agglomerate",
    "query.verdicts.record_s": "query.verdicts.record",
    "serve.drain.self_s": "serve.drain",
    "datasets.campus.build_s": "datasets.campus.build",
    "datasets.honeynet.storm_s": "datasets.honeynet.storm",
    "datasets.honeynet.nugache_s": "datasets.honeynet.nugache",
    "datasets.overlay.overlay_s": "datasets.overlay.overlay",
    "datasets.traces.save_s": "datasets.traces.save",
    "p2p.pieces.rarest_first_s": "p2p.pieces.rarest_first",
    "agents.payloads_s": "agents.payloads",
    "bench.unattributed_s": "bench.unit",
}

#: per-layer metric -> span whose *inclusive* seconds it reports
SPAN_TOTAL: Dict[str, str] = {
    "serve.drain.spool_read_s": "serve.drain.spool_read",
    "serve.drain.find_plotters_s": "serve.drain.find_plotters",
    "bench.synth_day_s": "bench.synth",
}

#: per-layer metric -> tracer count (per traced unit)
COUNTS: Dict[str, str] = {
    "flows.argus.rows": "flows.argus.rows",
    "stats.emd.pairs": "stats.emd.pairs",
}

#: per-layer metric -> span whose call count it reports (per traced unit)
CALLS: Dict[str, str] = {
    "p2p.pieces.rarest_first_calls": "p2p.pieces.rarest_first",
    "agents.payloads_calls": "agents.payloads",
}

#: per-layer metrics the workloads compute themselves: (name, unit, better)
DIRECT: Tuple[Tuple[str, str, str], ...] = (
    ("flows.parallel.extract_pool2_s", "s", "lower"),
    ("serve.coordinator.ingest_s", "s", "lower"),
    ("serve.http.overhead_s", "s", "lower"),
    ("storage.segments_written", "count", "lower"),
    ("storage.bytes_written", "bytes", "lower"),
    ("serve.coordinator.backlog_rows_max", "rows", "lower"),
    ("detection.incremental.evaluations", "count", "lower"),
    ("detection.incremental.hist_cache_hit_ratio", "ratio", "higher"),
    ("bench.generator_lag_s", "s", "lower"),
    ("verdict_p50_s", "s", "lower"),
    ("verdict_p90_s", "s", "lower"),
    ("verdict_samples", "count", "higher"),
    ("ack_p50_s", "s", "lower"),
    ("serve.verdict_beyond_ack_s", "s", "lower"),
    ("drain_s", "s", "lower"),
    ("live_batch_jaccard", "ratio", "higher"),
    ("storm_tpr", "ratio", "higher"),
    ("nugache_tpr", "ratio", "higher"),
    ("fpr", "ratio", "lower"),
    ("trader_survival", "ratio", "lower"),
    ("bench.tracing_overhead_s", "s", "lower"),
    ("bench.units_traced", "count", "higher"),
    ("bench.run_wall_s", "s", "lower"),
    ("bench.host_probe_s", "s", "lower"),
    ("serve.replay_cpu_s", "s", "lower"),
)


def _funnel():
    for stage in FUNNEL_STAGES:
        for cls in FUNNEL_CLASSES:
            better = "higher" if cls in ("storm", "nugache") else "lower"
            yield (f"detection.funnel.{stage}.{cls}", "hosts", better)


PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    tuple((name, "s", "lower") for name in SPAN_SELF)
    + tuple((name, "s", "lower") for name in SPAN_TOTAL)
    + (
        ("flows.argus.rows", "rows", "higher"),
        ("stats.emd.pairs", "count", "lower"),
        ("p2p.pieces.rarest_first_calls", "count", "lower"),
        ("agents.payloads_calls", "count", "lower"),
    )
    + DIRECT
    + tuple(_funnel())
)


def per_layer_values(tracer, direct: Dict[str, float]) -> Dict[str, float]:
    """Every per-layer metric of one traced run (0 where a layer idled)."""
    units = max(1, int(direct.get("bench.units_traced", 1)))
    totals = tracer.layer_totals()

    def per(span: str, key: str) -> float:
        divisor = 1 if span.startswith(GENERATOR_PREFIXES) else units
        return totals.get(span, {}).get(key, 0.0) / divisor

    values: Dict[str, float] = {}
    for metric, span in SPAN_SELF.items():
        values[metric] = per(span, "self_s")
    for metric, span in SPAN_TOTAL.items():
        values[metric] = per(span, "total_s")
    for metric, name in COUNTS.items():
        values[metric] = tracer.counts.get(name, 0.0) / units
    for metric, span in CALLS.items():
        values[metric] = per(span, "calls")
    for name, _, _ in PER_LAYER:
        if name not in values:
            values[name] = direct.get(name, 0.0)
    return values
